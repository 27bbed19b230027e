"""Application builders: label propagation, PageRank, sweeps, ingestion."""

from __future__ import annotations

import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qdsfm import applications, io as qio, solvers, submodular
from qdsfm.applications import (
    Hypergraph,
    LabeledDataset,
    adjacency_multiply,
    argmax_classify,
    build_pagerank_instance,
    build_ssl_instance,
    cheeger_sweep,
    generate_synthetic_hypergraph,
    ingest_tabular_dataset,
    pagerank_residual,
    ssl_score_matrix,
)
from qdsfm.solvers import ProblemInstance, SolveConfig, primal_objective, solve
from qdsfm.submodular import (
    SubmodularAtom,
    directed_hyperedge_cut,
    graph_edge_cut,
    hyperedge_cut,
    lovasz_extension,
)


def _same_bits(left, right) -> bool:
    left, right = np.asarray(left), np.asarray(right)
    return left.dtype == right.dtype and left.shape == right.shape and (
        left.tobytes() == right.tobytes()
    )


# ---------------------------------------------------------------------------
# domain types


def test_hypergraph_degrees():
    hg = Hypergraph(
        4, (hyperedge_cut([0, 1, 2]), graph_edge_cut(1, 3, weight=4.0))
    )
    assert np.array_equal(hg.degrees, [1, 2, 1, 1])
    assert np.array_equal(hg.weighted_degrees, [1, 5, 1, 4])
    assert hg.r == 2
    with pytest.raises(ValueError, match="hyperedge 0 references vertex 5 outside 0..1"):
        Hypergraph(2, (hyperedge_cut([0, 5]),))
    with pytest.raises(ValueError, match="negative"):
        Hypergraph(4, (SubmodularAtom("hyperedge", (-1, 2)),))
    with pytest.raises(ValueError, match="cut"):
        from qdsfm.submodular import general_oracle

        Hypergraph(2, (general_oracle([0, 1], table={0: 0.0, 1: 1.0, 2: 1.0, 3: 0.0}),))
    # the vertex count is an integer ≥ 1, not a bool or a float
    for bad in (2.5, True, 0, "2", np.float64(2.0)):
        with pytest.raises(ValueError, match="'n'"):
            Hypergraph(bad, ())
    assert type(Hypergraph(np.int64(2), ()).n) is int


def test_incidence_arrays_are_read_only():
    undirected = hyperedge_cut([0, 2, 3])
    directed = directed_hyperedge_cut([0, 1], [1, 3], members=[0, 1, 2, 3])
    hg = Hypergraph(4, (undirected, directed, graph_edge_cut(1, 2)))
    assert undirected.head_pos is undirected.tail_pos
    assert np.array_equal(hg.incidence, [0, 2, 3, 0, 1, 2, 3, 1, 2])
    for atom in (undirected, directed):
        for arr in (atom.members_arr, atom.head_pos, atom.tail_pos):
            with pytest.raises(ValueError):
                arr[0] = 1
    for arr in (hg.incidence, hg.degrees, hg.weighted_degrees):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert np.array_equal(hg.degrees, [2, 2, 3, 2])
    edgeless = Hypergraph(3, ())
    assert _same_bits(edgeless.degrees, np.zeros(3))
    assert _same_bits(edgeless.weighted_degrees, np.zeros(3))


def test_hypergraph_and_instance_read_one_layout(monkeypatch):
    hg, _, _ = generate_synthetic_hypergraph(40, 9, 12, 4, 2, seed=3)
    inst = ProblemInstance(np.zeros(hg.n), None, hg.edges)
    for field in ("incidence", "ends", "weights", "psi"):
        assert _same_bits(getattr(hg._layout, field), getattr(inst._layout, field))
    assert hg._layout is not inst._layout
    assert hg.incidence is hg._layout.incidence and hg.degrees is hg._layout.psi
    # the degrees, weighted degrees and the sweep share one layout build
    builds = []

    def spy(*args, _real=applications._component_layout):
        builds.append(args)
        return _real(*args)

    monkeypatch.setattr(applications, "_component_layout", spy)
    hg = Hypergraph(hg.n, hg.edges)
    degrees, weighted = hg.degrees, hg.weighted_degrees
    x = np.linspace(1.0, -1.0, hg.n)
    sweep = cheeger_sweep(hg, None, x)
    assert len(builds) == 1
    assert _same_bits(weighted, degrees)  # unit weights
    _, conductances, best_index = oracles.cheeger_sweep_reference(hg, None, x)
    assert _same_bits(sweep.conductances, conductances) and sweep.best_index == best_index


def _count_layout_builds(monkeypatch):
    """Spy on `_component_layout` wherever a hypergraph or an instance calls it."""
    builds = []
    for module in (applications, solvers):
        def spy(*args, _real=module._component_layout):
            builds.append(args)
            return _real(*args)

        monkeypatch.setattr(module, "_component_layout", spy)
    return builds


def test_builder_instances_share_the_hypergraph_layout(monkeypatch):
    hg, ds, _ = generate_synthetic_hypergraph(200, 100, 200, 5, 3, seed=0)
    builds = _count_layout_builds(monkeypatch)
    hg = Hypergraph(hg.n, hg.edges)
    _, results = ssl_score_matrix(hg, ds, 5.0, config=SolveConfig(target_gap=1e-6))
    assert len(builds) == 1 and len(results) == 2 and all(res.converged for res in results)
    seed = np.full(4, 0.25)
    graph = Hypergraph(4, tuple(graph_edge_cut(i, (i + 1) % 4, 1.0 + i) for i in range(4)))
    inst, back = build_pagerank_instance(graph, 0.7, seed)
    p = back(solve(inst, SolveConfig(target_gap=1e-12)).x)
    assert pagerank_residual(graph, 0.7, seed, p) < 1e-5 and len(builds) == 2
    assert inst._layout is graph._layout
    # a builder's instance solves bit for bit as one that builds its own layout
    for inst in (build_ssl_instance(hg, ds, 0, 5.0)[0], inst):
        for algorithm in ("rcd", "ap"):
            cfg = SolveConfig(algorithm=algorithm, max_iters=20 * inst.r, checkpoint_stride=inst.r)
            shared = solve(inst, cfg)
            own = solve(ProblemInstance(inst.a, inst.w, inst.atoms), cfg)
            for field in ("x", "sum_y", "phis"):
                assert getattr(shared, field).tobytes() == getattr(own, field).tobytes()
            assert [row[:4] for row in shared.trace] == [row[:4] for row in own.trace]


def test_degrees_and_adjacency_are_bitwise_reference():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 12))
        pairs = [rng.choice(n, 2, replace=False) for _ in range(int(rng.integers(0, 30)))]
        weights = rng.uniform(0.0, 3.0, size=len(pairs))
        if trial % 2:
            weights = np.round(weights, 1)
        graph = Hypergraph(
            n, tuple(graph_edge_cut(i, j, wt) for (i, j), wt in zip(pairs, weights))
        )
        v = rng.normal(size=n)
        assert _same_bits(graph.weighted_degrees, oracles.weighted_degrees_reference(graph))
        assert _same_bits(adjacency_multiply(graph, v), oracles.adjacency_multiply_reference(graph, v))
        edges = []
        for _ in range(int(rng.integers(0, 15))):
            members = rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist()
            weight = float(rng.uniform(0.0, 3.0))
            if len(members) > 1 and rng.random() < 0.3:
                edges.append(directed_hyperedge_cut(members[:1], members[1:], weight=weight))
            else:
                edges.append(hyperedge_cut(members, weight))
        hg = Hypergraph(n, tuple(edges))
        assert _same_bits(hg.weighted_degrees, oracles.weighted_degrees_reference(hg))
        counts = np.zeros(n)
        for edge in edges:
            counts[list(edge.members)] += 1.0
        assert _same_bits(hg.degrees, counts)


def test_labeled_dataset():
    ds = LabeledDataset(5, {0: 1, 3: 0})
    assert ds.num_classes == 2
    assert np.array_equal(ds.anchor(1), [1, 0, 0, -1, 0])
    assert np.array_equal(ds.anchor(0), [-1, 0, 0, 1, 0])
    ds3 = LabeledDataset(4, {0: 2}, num_classes=3)
    assert np.array_equal(ds3.anchor(1), [-1, 0, 0, 0])
    with pytest.raises(ValueError):
        LabeledDataset(3, {5: 0})
    with pytest.raises(ValueError):
        LabeledDataset(3, {0: 4}, num_classes=2)
    with pytest.raises(ValueError):
        LabeledDataset(3, {}, num_classes=1)
    for n in (0, -1):  # rejected as Hypergraph rejects it, not later by anchor()
        with pytest.raises(ValueError, match="positive integer"):
            LabeledDataset(n, {})
    for labels in ({0: 1.7, "2": "0"}, {0: 1.7}, {"2": 0}, {0: "0"}, {True: 0}, {0: False}):
        with pytest.raises(ValueError, match="integers"):
            LabeledDataset(5, labels)
    assert dict(LabeledDataset(5, {np.int64(4): np.int32(1)}).labels) == {4: 1}
    for n, k in ((4.0, None), (True, None), (4, 2.5), (4, True), (4, "2")):
        with pytest.raises(ValueError, match="integers"):
            LabeledDataset(n, {0: 1}, num_classes=k)
    counted = LabeledDataset(np.int64(4), {0: 1}, num_classes=np.int32(3))
    assert (counted.n, counted.num_classes) == (4, 3) and type(counted.n) is int
    with pytest.raises(ValueError):
        ds.anchor(2)
    # the class is an integer: a float, bool or string is refused, not read as a class
    for k in (1.5, True, "1"):
        with pytest.raises(ValueError, match="integers"):
            ds.anchor(k)
    hg, planted, _ = generate_synthetic_hypergraph(40, 30, 5, 4, 3, seed=0)
    with pytest.raises(ValueError, match="integers"):
        build_ssl_instance(hg, planted, 1.5, 0.02)


# ---------------------------------------------------------------------------
# label propagation


def test_ssl_identity_reduces_to_symmetric_edge_problem():
    hg = Hypergraph(2, (hyperedge_cut([0, 1]),))
    inst, back = build_ssl_instance(hg, {0: 1, 1: 0}, k=1, beta=1.0, normalization="identity")
    assert np.array_equal(inst.a, [1.0, -1.0])
    assert np.array_equal(inst.w, [1.0, 1.0])
    res = solve(inst, SolveConfig(max_iters=5, target_gap=1e-12))
    assert np.allclose(res.x, [1 / 3, -1 / 3], atol=1e-10)
    assert res.x[0] == pytest.approx(-res.x[1])  # symmetric under sign flip
    assert np.array_equal(back(res.x), res.x)  # identity weights


def test_ssl_no_labels_gives_zero_scores():
    hg = Hypergraph(3, (hyperedge_cut([0, 1, 2]),))
    inst, _ = build_ssl_instance(hg, {}, k=1, beta=2.0, normalization="identity")
    res = solve(inst, SolveConfig(max_iters=10, target_gap=1e-14))
    assert np.allclose(res.x, 0.0, atol=1e-12)


def test_ssl_large_beta_pins_scores_to_anchor():
    hg = Hypergraph(3, (hyperedge_cut([0, 1, 2]),))
    beta = 1e6
    inst, _ = build_ssl_instance(hg, {0: 1, 1: 0}, k=1, beta=beta, normalization="identity")
    res = solve(inst, SolveConfig(max_iters=200, target_gap=1e-16))
    assert np.max(np.abs(res.x - inst.a)) <= 10.0 / beta


def test_ssl_degree_normalization_and_back_transform():
    hg = Hypergraph(
        4, (hyperedge_cut([0, 1, 2]), hyperedge_cut([1, 2, 3]), graph_edge_cut(0, 3))
    )
    ds = LabeledDataset(4, {0: 1, 3: 0})
    beta = 0.5
    inst, back = build_ssl_instance(hg, ds, k=1, beta=beta)
    assert np.array_equal(inst.w, beta * hg.degrees)
    res = solve(inst, SolveConfig(max_iters=2000, target_gap=1e-13))
    x_orig = back(res.x)
    # the built objective at scores equals the raw objective at W^{1/2}·scores
    raw = beta * float(np.sum((x_orig - ds.anchor(1)) ** 2))
    sqrt_w = np.sqrt(hg.degrees)
    for edge in hg.edges:
        vals = x_orig[edge.members_arr] / sqrt_w[edge.members_arr]
        raw += edge.weight * (vals.max() - vals.min()) ** 2
    assert primal_objective(inst, res.x) == pytest.approx(raw, abs=1e-9)


def test_ssl_rejects_uncovered_vertex_and_bad_args():
    hg = Hypergraph(3, (graph_edge_cut(0, 1),))
    with pytest.raises(ValueError, match="vertex 2"):
        build_ssl_instance(hg, {0: 1}, k=1, beta=1.0)
    with pytest.raises(ValueError):
        build_ssl_instance(hg, {0: 1}, k=1, beta=0.0, normalization="identity")
    with pytest.raises(ValueError):
        build_ssl_instance(hg, {0: 1}, k=1, beta=1.0, normalization="cosine")
    with pytest.raises(ValueError, match="samples"):
        build_ssl_instance(hg, LabeledDataset(5, {0: 1}), k=1, beta=1.0, normalization="identity")


def test_ssl_two_cluster_recovery():
    hg, ds, truth = generate_synthetic_hypergraph(
        n=40, within_per_cluster=30, across=5, edge_size=4, labeled_per_cluster=3, seed=0
    )
    cfg = SolveConfig(max_iters=400 * hg.r, target_gap=1e-9, seed=1)
    scores, results = ssl_score_matrix(hg, ds, beta=0.05, config=cfg)
    assert [res.x.tolist() for res in results] == scores.tolist()
    # the two per-class problems are sign-mirrored
    assert np.allclose(scores[0], -scores[1], atol=1e-6)
    pred_argmax = argmax_classify(scores)
    assert np.mean(pred_argmax != truth) <= 0.15
    sweep = cheeger_sweep(hg, hg.degrees, np.sqrt(hg.degrees) * scores[1])
    pred_sweep = sweep.labels(prefix_class=1)
    assert np.mean(pred_sweep != truth) <= 0.15
    for i, k in ds.labels.items():
        assert pred_argmax[i] == k


# ---------------------------------------------------------------------------
# PageRank


def _pagerank_direct(hg: Hypergraph, alpha: float, s: np.ndarray) -> np.ndarray:
    d = hg.weighted_degrees
    A = np.zeros((hg.n, hg.n))
    for e in hg.edges:
        i, j = e.members
        A[i, j] += e.weight
        A[j, i] += e.weight
    M = np.eye(hg.n) - alpha * A / d[None, :]
    return (1.0 - alpha) * np.linalg.solve(M, s)


def test_pagerank_two_vertex_fixed_point():
    hg = Hypergraph(2, (graph_edge_cut(0, 1),))
    s = np.array([1.0, 0.0])
    inst, back = build_pagerank_instance(hg, 0.5, s)
    res = solve(inst, SolveConfig(max_iters=50, target_gap=1e-14))
    p = back(res.x)
    assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-7)
    assert pagerank_residual(hg, 0.5, s, p) <= 1e-6
    assert np.allclose(p, _pagerank_direct(hg, 0.5, s), atol=1e-6)


def test_pagerank_small_alpha_returns_seed():
    hg = Hypergraph(3, (graph_edge_cut(0, 1), graph_edge_cut(1, 2)))
    s = np.array([0.2, 0.5, 0.3])
    alpha = 1e-6
    inst, back = build_pagerank_instance(hg, alpha, s)
    res = solve(inst, SolveConfig(max_iters=500, target_gap=1e-18))
    assert np.max(np.abs(back(res.x) - s)) <= 1e-4


def test_pagerank_cycle_preserves_mass():
    hg = Hypergraph(3, (graph_edge_cut(0, 1), graph_edge_cut(1, 2), graph_edge_cut(0, 2)))
    s = np.array([0.5, 0.3, 0.2])
    for alpha in (0.5, 0.9):
        inst, back = build_pagerank_instance(hg, alpha, s)
        res = solve(inst, SolveConfig(max_iters=4000, target_gap=1e-14))
        p = back(res.x)
        assert np.sum(p) == pytest.approx(np.sum(s), abs=1e-6)
        assert np.allclose(p, _pagerank_direct(hg, alpha, s), atol=1e-6)


def test_pagerank_validation():
    hg = Hypergraph(3, (graph_edge_cut(0, 1),))  # vertex 2 isolated
    with pytest.raises(ValueError, match="degree zero"):
        build_pagerank_instance(hg, 0.5, np.ones(3) / 3)
    good = Hypergraph(2, (graph_edge_cut(0, 1),))
    for bad_alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            build_pagerank_instance(good, bad_alpha, np.ones(2) / 2)
    with pytest.raises(ValueError, match="edge"):
        build_pagerank_instance(
            Hypergraph(3, (hyperedge_cut([0, 1, 2]),)), 0.5, np.ones(3) / 3
        )
    with pytest.raises(ValueError, match="shape"):
        build_pagerank_instance(good, 0.5, np.ones(3))
    for bad_seed in (["0.5", True], ["0.5", 0.5], [0.5, None], np.array(["0.5", "0.5"])):
        with pytest.raises(ValueError, match="seed vector entries must be numbers"):
            build_pagerank_instance(good, 0.5, bad_seed)
    assert np.allclose(
        adjacency_multiply(good, np.array([2.0, 5.0])), [5.0, 2.0]
    )


# ---------------------------------------------------------------------------
# sweep cuts


def _brute_conductance(hg: Hypergraph, prefix: set[int]) -> float:
    crossing = 0
    vol_in = 0
    total = 0
    for e in hg.edges:
        inside = len(set(e.members) & prefix)
        if 0 < inside < e.size:
            crossing += 1
        vol_in += inside
        total += e.size
    denom = min(vol_in, total - vol_in)
    return crossing / denom if denom > 0 else np.inf


def test_sweep_disjoint_hyperedges_finds_zero_cut():
    hg = Hypergraph(4, (hyperedge_cut([0, 1]), hyperedge_cut([2, 3])))
    sweep = cheeger_sweep(hg, None, np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(sweep.order, [0, 1, 2, 3])  # ties keep index order
    assert sweep.best_index == 2
    assert sweep.conductance == 0.0
    assert set(sweep.prefix) == {0, 1}
    assert np.array_equal(sweep.labels(), [1, 1, 0, 0])
    assert np.array_equal(sweep.labels(prefix_class=0), [0, 0, 1, 1])


def test_sweep_single_edge_conductance_one():
    hg = Hypergraph(2, (hyperedge_cut([0, 1]),))
    sweep = cheeger_sweep(hg, np.ones(2), np.array([1.0, 0.0]))
    assert sweep.best_index == 1
    assert sweep.conductance == 1.0


def test_sweep_matches_bruteforce():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = 12
        edges = []
        for _ in range(8):
            size = int(rng.integers(2, 5))
            edges.append(hyperedge_cut(sorted(rng.choice(n, size, replace=False).tolist())))
        hg = Hypergraph(n, tuple(edges))
        w = rng.uniform(0.5, 3.0, size=n)
        x = rng.normal(size=n)
        sweep = cheeger_sweep(hg, w, x)
        scores = x / np.sqrt(w)
        order = np.argsort(-scores, kind="stable")
        assert np.array_equal(sweep.order, order)
        expected = np.array(
            [_brute_conductance(hg, set(order[:j].tolist())) for j in range(1, n)]
        )
        assert np.allclose(sweep.conductances, expected)
        assert sweep.best_index == int(np.argmin(expected)) + 1
        assert sweep.conductance == pytest.approx(expected.min())


def _random_sweep_hypergraph(rng: np.random.Generator, n: int) -> Hypergraph:
    """Undirected, directed and size-1 hyperedges on vertices 0..n−2; vertex
    n−1 has no incident edge."""
    edges = []
    for _ in range(int(rng.integers(1, 10))):
        size = int(rng.integers(1, min(n - 1, 6) + 1))
        members = rng.choice(n - 1, size, replace=False).tolist()
        if size > 1 and rng.random() < 0.4:
            split = int(rng.integers(1, size))
            head, tail = members[:split], members[split - int(rng.integers(0, 2)):]
            edges.append(directed_hyperedge_cut(head, tail, members=members))
        else:
            edges.append(hyperedge_cut(members))
    return Hypergraph(n, tuple(edges))


def test_sweep_is_bitwise_reference():
    rng = np.random.default_rng(12)
    saw_inf = saw_tie = saw_singleton = saw_directed = 0
    for trial in range(200):
        n = int(rng.integers(2, 16))
        hg = _random_sweep_hypergraph(rng, n)
        x = rng.normal(size=n)
        if trial % 3 == 0:
            x = np.round(x, 0)  # ties in the order
        if trial % 4 == 0:
            x[n - 1] = 10.0  # the isolated vertex leads: c(S_1) has denominator 0
        w = None if trial % 2 else np.round(rng.uniform(0.5, 3.0, size=n), int(trial % 5))
        sweep = cheeger_sweep(hg, w, x)
        order, conductances, best_index = oracles.cheeger_sweep_reference(hg, w, x)
        assert np.array_equal(sweep.order, order)
        assert _same_bits(sweep.conductances, conductances)
        assert sweep.best_index == best_index
        saw_inf += bool(np.isinf(conductances).any())
        saw_tie += len(np.unique(x)) < n
        saw_singleton += any(e.size == 1 for e in hg.edges)
        saw_directed += any(e.kind == "directed_hyperedge" for e in hg.edges)
    assert min(saw_inf, saw_tie, saw_singleton, saw_directed) >= 20
    hg, _, _ = generate_synthetic_hypergraph(60, 20, 30, 6, 2, seed=4)
    for w in (None, hg.degrees):
        x = rng.normal(size=60)
        sweep = cheeger_sweep(hg, w, x)
        order, conductances, best_index = oracles.cheeger_sweep_reference(hg, w, x)
        assert np.array_equal(sweep.order, order)
        assert _same_bits(sweep.conductances, conductances)
        assert sweep.best_index == best_index


def test_sweep_normalization_changes_order():
    hg = Hypergraph(2, (hyperedge_cut([0, 1]),))
    # identical x, but the weight on vertex 0 shrinks its normalized score
    sweep = cheeger_sweep(hg, np.array([100.0, 1.0]), np.array([1.0, 0.9]))
    assert np.array_equal(sweep.order, [1, 0])


def test_sweep_rejects_edgeless_input():
    with pytest.raises(ValueError):
        cheeger_sweep(Hypergraph(3, ()), None, np.zeros(3))
    # the weights are numbers, not strings or bools
    hg = Hypergraph(3, (hyperedge_cut([0, 1, 2]),))
    for bad_w in (["1", True, 2], ["1", "1", "1"], "1", np.array([True, True, True])):
        with pytest.raises(ValueError, match="'w' must be"):
            cheeger_sweep(hg, bad_w, np.zeros(3))
    # the scores are one number per vertex, and the weights are positive
    hg, _, _ = generate_synthetic_hypergraph(20, 5, 5, 4, 1, seed=0)
    x = np.linspace(-1.0, 1.0, 20)
    for bad_x in (1.0, np.float64(1.0), ["1"] * 20, np.array([True] * 20)):
        with pytest.raises(ValueError, match="'x' must be"):
            cheeger_sweep(hg, None, bad_x)
    for bad_x in (x[:, None], x[:19], np.array(1.0)):
        with pytest.raises(ValueError, match=r"'x' has shape .*, expected \(20,\)"):
            cheeger_sweep(hg, None, bad_x)
    for bad_w in (-1.0, 0.0, np.where(x > 0, 1.0, 0.0), np.full(20, np.nan)):
        with pytest.raises(ValueError, match="all diagonal weights must be positive"):
            cheeger_sweep(hg, bad_w, x)


def test_sweep_rejects_non_finite_input():
    # a NaN score vector used to sweep to a cut, of conductance 0.143 here
    hg, _, _ = generate_synthetic_hypergraph(40, 20, 20, 4, 1, seed=0)
    x = np.linspace(-1.0, 1.0, 40)
    for bad in (np.nan, np.inf, -np.inf):
        for bad_x in (np.full(40, bad), np.where(x > 0.5, bad, x)):
            with pytest.raises(ValueError, match="x and w must be finite"):
                cheeger_sweep(hg, hg.degrees, bad_x)
    for bad_w in (np.inf, np.where(x > 0.5, np.inf, 1.0)):
        with pytest.raises(ValueError, match="x and w must be finite"):
            cheeger_sweep(hg, bad_w, x)
    assert cheeger_sweep(hg, hg.degrees, x).conductance >= 0.0


# ---------------------------------------------------------------------------
# synthetic generator


def test_generator_shapes_and_determinism():
    hg, ds, truth = generate_synthetic_hypergraph(
        n=50, within_per_cluster=7, across=4, edge_size=5, labeled_per_cluster=2, seed=9
    )
    assert hg.n == 50
    assert hg.r == 7 * 2 + 4
    assert all(e.size == 5 for e in hg.edges)
    for e in hg.edges[:7]:
        assert all(v < 25 for v in e.members)
    for e in hg.edges[7:14]:
        assert all(v >= 25 for v in e.members)
    assert np.array_equal(truth, np.repeat([0, 1], 25))
    assert ds.num_classes == 2
    assert sorted(ds.labels.values()) == [0, 0, 1, 1]
    for i, k in ds.labels.items():
        assert truth[i] == k
    hg2, ds2, _ = generate_synthetic_hypergraph(
        n=50, within_per_cluster=7, across=4, edge_size=5, labeled_per_cluster=2, seed=9
    )
    assert [e.members for e in hg2.edges] == [e.members for e in hg.edges]
    assert dict(ds2.labels) == dict(ds.labels)


@pytest.mark.parametrize(
    "args",
    [(50, 7, 4, 5, 2), (4, 1, 0, 2, 0), (10, 3, 5, 1, 2), (12, 0, 6, 6, 6), (200, 20, 40, 20, 3),
     (40, 9, 12, 1, 4), (40, 9, 12, 2, 4), (2, 0, 0, 1, 1),
     # the benchmark's inputs; population = edge size; every row in NumPy's tail
     # shuffle (population > 10000, size > population // 50); the within rows in
     # the tail shuffle and the across rows in Floyd's algorithm
     (1000, 500, 1000, 20, 3), (40, 3, 2, 20, 1), (20002, 2, 2, 401, 1), (20002, 2, 3, 300, 2)],
)
def test_generator_matches_reference(args):
    for seed in (0, 1, 5):
        hg, ds, truth = generate_synthetic_hypergraph(*args, seed=seed)
        edges, labels, ref_truth = oracles.synthetic_hypergraph_reference(*args, seed)
        assert [e.members for e in hg.edges] == edges
        assert list(ds.labels.items()) == list(labels.items())
        assert _same_bits(truth, ref_truth)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_choice_rows_draw_numpys_per_row_stream(data):
    size = data.draw(st.one_of(st.integers(1, 30), st.integers(200, 450)))
    pop = st.one_of(st.integers(size, size + 40), st.integers(max(size, 10001), 22000),
                    st.integers(2**31 - 2, 2**33))  # past int32, and past 32-bit draws
    pops = data.draw(st.lists(pop, max_size=6))
    seed = data.draw(st.integers(0, 2**32 - 1))
    mine, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = applications._choice_rows(mine, np.array(pops, dtype=np.int64), size)
    assert rows.shape == (len(pops), size)
    assert rows.tolist() == [numpys.choice(p, size=size, replace=False).tolist() for p in pops]
    assert mine.integers(1 << 62) == numpys.integers(1 << 62)


def test_generator_atoms_share_one_member_matrix():
    hg, _, _ = generate_synthetic_hypergraph(600, 9, 12, 4, 2, seed=3)
    _check_generated_edges(hg, (30, 4))


def _check_generated_edges(hg, shape):
    """The generated hypergraph's edges, built on first read from its member matrix."""
    matrix = hg.edges[0].members_arr.base
    assert matrix.shape == shape and not matrix.flags.writeable
    assert all(e.members_arr.base is matrix for e in hg.edges)
    assert all((e.kind, e.weight, e.sqrt_w) == ("hyperedge", 1.0, 1.0) for e in hg.edges)
    # the member tuples are the matrix's rows as ints, one int object per vertex
    assert [e.members for e in hg.edges] == list(map(tuple, matrix.tolist()))
    assert {type(v) for e in hg.edges for v in e.members} == {int}
    objects = {}
    for v in (v for e in hg.edges for v in e.members):
        assert objects.setdefault(v, v) is v
    assert max(objects) > 256  # past the ints Python caches anyway
    # the incidence is the matrix itself, read-only
    assert _same_bits(hg.incidence, matrix.ravel())
    assert np.shares_memory(hg.incidence, hg.edges[0].members_arr)
    assert not hg.incidence.flags.writeable
    with pytest.raises(ValueError):
        hg.incidence[0] = 0
    # a hypergraph on some or reordered edges concatenates their members
    for edges in (hg.edges[::-1], hg.edges[5:]):
        other = Hypergraph(hg.n, edges)
        assert _same_bits(other.incidence, np.concatenate([e.members_arr for e in edges]))
        assert not np.shares_memory(other.incidence, matrix)


def test_generated_instance_memory_is_bounded():
    """What a benchmark-size input holds: the hypergraph with its layout, the
    labels and the truth.  0.406 MB measured with NumPy 2.4 on CPython 3.11,
    where the member matrix alone is 0.32 MB (1.39 MB when the hypergraph held
    an atom per edge, 2.64 MB when every member tuple held its own ints and the
    layout its own copy of the matrix); the bound leaves 15% for other builds."""
    generate_synthetic_hypergraph(40, 9, 12, 4, 2, seed=3)  # lazy first-call state
    tracemalloc.start()
    try:
        held = generate_synthetic_hypergraph(1000, 500, 1000, 20, 3, seed=0)
        held[0]._layout
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 4.67e5


def _spy_on_atoms(monkeypatch):
    """Record every atom a constructor checks and every layout that builds its atoms."""
    built = []
    real_build, real_check = submodular._Layout.atoms, SubmodularAtom.__post_init__

    def build(layout):
        built.append(layout)
        return real_build.func(layout)

    def check(atom):
        built.append(atom)
        real_check(atom)

    spy = cached_property(build)
    spy.__set_name__(submodular._Layout, "atoms")
    monkeypatch.setattr(submodular._Layout, "atoms", spy)
    monkeypatch.setattr(SubmodularAtom, "__post_init__", check)
    return built


def test_benchmark_path_builds_no_atoms(monkeypatch, tmp_path):
    built = _spy_on_atoms(monkeypatch)
    hg, ds, _ = generate_synthetic_hypergraph(1000, 500, 1000, 20, 3, seed=0)
    inst, back = build_ssl_instance(hg, ds, 1, 0.02, "degree")
    for algorithm, gap in (("rcd", 1e-5), ("ap", 3e-4)):
        for projection in ("exact", "auto"):
            res = solve(inst, SolveConfig(algorithm=algorithm, projection=projection,
                                          target_gap=gap, max_iters=100 * inst.r))
            assert res.converged
            cheeger_sweep(hg, hg.degrees, back(res.x))
            qio.write_solution(res, str(tmp_path / "solution.json"))
            qio.write_trace(res.trace, str(tmp_path / "trace.csv"))
    assert built == [] and inst.r == hg.r == 2000
    # read at last, the edges are the member matrix's rows, built once for both
    _check_generated_edges(hg, (2000, 20))
    assert built == [hg._layout] and hg.edges is hg.edges is inst.atoms


def test_exact_solve_of_an_ingest_builds_no_atoms(monkeypatch):
    rng = np.random.default_rng(7)
    rows = [{"a": str(rng.integers(30)), "b": str(rng.integers(12)), "c": f"{rng.normal():.4f}"}
            for _ in range(1000)]
    ingested = ingest_tabular_dataset(rows, [("a", "categorical"), ("b", "categorical"),
                                             ("c", "numeric")])
    # most size groups are too small to batch, so their hyperedges take the scalar sweep
    assert sum(group[0].size < 4 for group in ingested._layout.groups) > 30
    # a generated input whose 30 hyperedges have one member each: one size group, and
    # nothing outside the groups for the penalty to read as atoms
    generated, ds, _ = generate_synthetic_hypergraph(40, 9, 12, 1, 2, 0)
    assert [group[1].shape for group in generated._layout.groups] == [(30, 1)]
    assert generated._layout.rest == ()
    built = _spy_on_atoms(monkeypatch)
    # the generated input's gap is 0 from the start, so a budget rather than a target
    # makes its solves step
    for hg, (inst, _), budget in (
            (ingested, build_ssl_instance(ingested, {0: 0, 1: 1, 2: 0}, 1, 0.1, "degree"), None),
            (generated, build_ssl_instance(generated, ds, 0, 1.0, "identity"), 300)):
        configs = [SolveConfig(algorithm=algorithm, projection=projection, max_iters=budget,
                               target_gap=None if budget else gap)
                   for algorithm, gap in (("rcd", 1e-5), ("ap", 1e-4))
                   for projection in ("exact", "auto")]
        results = [solve(inst, config) for config in configs]
        assert built == [] and "atoms" not in vars(hg._layout)
        # the sweeps bound from the layout's columns are the atoms' own, bit for bit
        given = ProblemInstance(inst.a, inst.w, hg.edges)
        for res, config in zip(results, configs):
            ref = solve(given, config)
            assert res.gap <= (config.target_gap or 0.0) and res.iterations > 0
            assert _same_bits(res.sum_y, ref.sum_y) and _same_bits(res.x, ref.x)
            assert [row[:4] for row in res.trace] == [row[:4] for row in ref.trace]
        built.clear()  # hg.edges built the atoms for the reference


def test_one_component_check_per_hypergraph(monkeypatch):
    passes = []
    for module in (solvers, applications):
        def spy(*args, _real=module._columns, **kwargs):
            passes.append(args[2])
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "_columns", spy)
    generated, ds, _ = generate_synthetic_hypergraph(40, 9, 12, 4, 2, seed=3)
    rows = [{"c": str(i % 3), "v": str(i % 5)} for i in range(40)]
    ingested = ingest_tabular_dataset(rows, [("c", "categorical"), ("v", "categorical")])
    assert passes == []
    given = Hypergraph(generated.n, generated.edges)
    assert passes == ["hyperedge"]
    for hg in (generated, ingested, given):
        for k in (0, 1):
            build_ssl_instance(hg, ds, k, 1.0, "identity")
    graph = Hypergraph(4, tuple(graph_edge_cut(i, (i + 1) % 4) for i in range(4)))
    build_pagerank_instance(graph, 0.5, np.full(4, 0.25))
    assert passes == ["hyperedge", "hyperedge"]


def test_generator_arguments_are_integers():
    good = dict(n=20, within_per_cluster=3, across=2, edge_size=3, labeled_per_cluster=1, seed=0)
    for name, bad in (("n", 20.0), ("n", True), ("within_per_cluster", 2.5),
                      ("across", "2"), ("edge_size", np.float64(3)), ("seed", None),
                      ("labeled_per_cluster", False)):
        with pytest.raises(ValueError, match="integers"):
            generate_synthetic_hypergraph(**{**good, name: bad})
    for name in ("within_per_cluster", "across", "seed"):
        with pytest.raises(ValueError, match="nonnegative"):
            generate_synthetic_hypergraph(**{**good, name: -1})
    numpy_args = {k: np.int64(v) for k, v in good.items()}
    hg, ds, truth = generate_synthetic_hypergraph(**numpy_args)
    ref_hg, ref_ds, ref_truth = generate_synthetic_hypergraph(**good)
    assert [e.members for e in hg.edges] == [e.members for e in ref_hg.edges]
    assert hg.n == 20 and type(hg.n) is int and ds.labels == ref_ds.labels


def test_builder_scalars_follow_the_number_rule():
    hg = Hypergraph(2, (graph_edge_cut(0, 1),))
    for bad in (True, "1", None, np.array([1.0])):
        with pytest.raises(ValueError, match="beta must be a number"):
            build_ssl_instance(hg, {0: 1}, k=1, beta=bad)
        with pytest.raises(ValueError, match="alpha must be a number"):
            build_pagerank_instance(hg, bad, np.ones(2) / 2)
    inst, _ = build_ssl_instance(hg, {0: 1}, k=1, beta=np.float32(0.5))
    assert _same_bits(inst.w, build_ssl_instance(hg, {0: 1}, k=1, beta=0.5)[0].w)
    inst, _ = build_pagerank_instance(hg, np.float64(0.25), np.ones(2) / 2)
    assert _same_bits(inst.w, build_pagerank_instance(hg, 0.25, np.ones(2) / 2)[0].w)
    rows = [{"v": str(x)} for x in (0.0, 1.0, 2.0, 3.0)]
    for bad in (2.5, True, "2", None):
        for equal_frequency in (False, True):
            with pytest.raises(ValueError, match="bins"):
                ingest_tabular_dataset(rows, [("v", "numeric")], bad, equal_frequency)
    by_numpy = ingest_tabular_dataset(rows, [("v", "numeric")], bins=np.int64(2))
    assert [e.members for e in by_numpy.edges] == [(0, 1), (2, 3)]


def test_generator_forced_tiny_clusters():
    hg, _, _ = generate_synthetic_hypergraph(
        n=4, within_per_cluster=1, across=0, edge_size=2, labeled_per_cluster=0, seed=3
    )
    assert [e.members for e in hg.edges] == [(0, 1), (2, 3)]


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_synthetic_hypergraph(5, 1, 1, 2, 1, 0)  # odd n
    with pytest.raises(ValueError):
        generate_synthetic_hypergraph(4, 1, 1, 3, 1, 0)  # edge too large
    with pytest.raises(ValueError):
        generate_synthetic_hypergraph(4, 1, 1, 2, 3, 0)  # too many labels


def test_generator_rejects_counts_past_the_machine_integer():
    top = int(np.iinfo(np.intp).max)
    # each fails before anything is allocated
    for args in ((2**65, 1, 1, 2, 1, 0), (top + 1, 1, 1, 2, 1, 0), (4, top // 2 + 1, 0, 1, 0, 0),
                 (4, 0, top + 1, 1, 0, 0)):
        with pytest.raises(ValueError, match="must fit in a machine integer"):
            generate_synthetic_hypergraph(*args)


# ---------------------------------------------------------------------------
# tabular ingestion


def test_ingest_categorical_grouping():
    rows = [{"color": v} for v in ["a", "a", "b", "b"]]
    hg = ingest_tabular_dataset(rows, [("color", "categorical")])
    assert hg.n == 4
    assert sorted(e.members for e in hg.edges) == [(0, 1), (2, 3)]


def test_ingest_shares_one_int_per_row_across_columns():
    rows = [{"c": "a" if i < 300 else "b", "v": str(i % 2)} for i in range(600)]
    hg = ingest_tabular_dataset(rows, [("c", "categorical"), ("v", "categorical")])
    assert [e.members for e in hg.edges] == [
        tuple(range(300)), tuple(range(300, 600)), tuple(range(0, 600, 2)), tuple(range(1, 600, 2))]
    # row 400 is in the second hyperedge of "c" and the first of "v"
    by_c, by_v = hg.edges[1].members, hg.edges[2].members
    assert by_c[100] == by_v[200] == 400 and by_c[100] is by_v[200]


def test_ingest_equal_width_bins_drop_singletons():
    rows = [{"v": str(i)} for i in range(10)]
    hg = ingest_tabular_dataset(rows, [("v", "numeric")])
    assert hg.n == 10
    assert hg.r == 0  # ten singleton bins, all dropped


def test_ingest_constant_columns():
    rows = [{"c": "x", "v": "3.5"} for _ in range(4)]
    hg = ingest_tabular_dataset(rows, [("c", "categorical"), ("v", "numeric")])
    # constant categorical keeps its full-column group; constant numeric drops
    assert [e.members for e in hg.edges] == [(0, 1, 2, 3)]


def test_ingest_singleton_category_dropped():
    rows = [{"c": v} for v in ["a", "a", "b"]]
    hg = ingest_tabular_dataset(rows, [("c", "categorical")])
    assert [e.members for e in hg.edges] == [(0, 1)]


def test_ingest_numeric_binning_groups():
    rows = [{"v": str(x)} for x in [0.0, 0.05, 0.5, 5.0, 5.2, 9.9, 10.0]]
    hg = ingest_tabular_dataset(rows, [("v", "numeric")], bins=10)
    # width 1.0: bins {0,.05,.5}, {5,5.2}, {9.9,10}
    assert sorted(e.members for e in hg.edges) == [(0, 1, 2), (3, 4), (5, 6)]


def test_ingest_equal_frequency_differs_from_width():
    vals = [0.0, 0.1, 0.2, 0.3, 100.0, 100.1, 100.2, 100.3]
    rows = [{"v": str(x)} for x in vals]
    width = ingest_tabular_dataset(rows, [("v", "numeric")], bins=2)
    freq = ingest_tabular_dataset(rows, [("v", "numeric")], bins=4, equal_frequency=True)
    assert sorted(e.members for e in width.edges) == [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert sorted(e.members for e in freq.edges) == [(0, 1), (2, 3), (4, 5), (6, 7)]


@pytest.mark.parametrize("equal_frequency", [False, True])
def test_ingest_bins_columns_wider_than_the_float_range(equal_frequency):
    # max − min of the first column overflows; equal-width binning used to warn, cast
    # garbage and leave vertices without a hyperedge.  A power-of-two scaling keeps the bins
    wide, plain = [1e308, -1e308, 2, 3, 5e307, -5e307], [0.5, -1.5, 4.0, 2.5, -3.0, 1.0]
    for column, bins in ((wide, 3), (plain, 2), (plain, 3)):
        found = []
        for scale in (1.0, 2.0**-4, 2.0**-900):
            rows = [{"v": repr(v * scale)} for v in column]
            hg = ingest_tabular_dataset(rows, [("v", "numeric")], bins, equal_frequency)
            found.append([e.members for e in hg.edges])
        assert found[0] == found[1] == found[2] != []
        assert column is plain or found[0] == [(1, 5), (2, 3), (0, 4)]


def test_ingest_schema_forms_and_column_order():
    rows = [{"a": "x", "b": "1"}, {"a": "x", "b": "2"}, {"a": "y", "b": "1"}]
    hg = ingest_tabular_dataset(rows, [("a", "categorical")])
    assert [e.members for e in hg.edges] == [(0, 1)]


def test_ingest_degree_roundtrip():
    rng = np.random.default_rng(4)
    rows = [
        {"c": str(rng.integers(0, 3)), "v": str(float(rng.integers(0, 5)))}
        for _ in range(30)
    ]
    schema = [("c", "categorical"), ("v", "numeric")]
    hg = ingest_tabular_dataset(rows, schema, bins=5)
    # independent recount: groups of size ≥ 2 containing each row
    expected = np.zeros(30)
    for name, kind in schema:
        groups: dict[object, list[int]] = {}
        for idx, row in enumerate(rows):
            if kind == "categorical":
                key = row[name]
            else:
                vals = np.array([float(r[name]) for r in rows])
                width = (vals.max() - vals.min()) / 5
                key = min(int((float(row[name]) - vals.min()) // width), 4)
            groups.setdefault(key, []).append(idx)
        for members in groups.values():
            if len(members) >= 2:
                expected[members] += 1
    assert np.array_equal(hg.degrees, expected)


def test_ingest_errors():
    rows = [{"a": "x"}, {"a": "y"}]
    with pytest.raises(ValueError, match="unknown kind"):
        ingest_tabular_dataset(rows, [("a", "ordinal")])
    with pytest.raises(ValueError, match="missing column"):
        ingest_tabular_dataset(rows, [("b", "categorical")])
    with pytest.raises(ValueError, match="not numeric"):
        ingest_tabular_dataset(rows, [("a", "numeric")])
    for bad in ("nan", "inf"):
        cells = [{"a": v} for v in ("1", "2", bad, "4", "5")]
        with pytest.raises(ValueError, match="not numeric"):
            ingest_tabular_dataset(cells, [("a", "numeric")], bins=2)
    with pytest.raises(ValueError, match="rows"):
        ingest_tabular_dataset([], [("a", "categorical")])
    with pytest.raises(ValueError, match="bins"):
        ingest_tabular_dataset(rows, [("a", "categorical")], bins=0)
