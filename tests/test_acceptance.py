"""End-to-end checks of the package's headline guarantees.

One test per guarantee: exactness on the worked two-vertex example,
agreement with brute-force grid search, cross-oracle projection agreement,
descent/certificate invariants, the conditional-gradient rate envelope,
linear gap decay with fidelity-weight sensitivity, planted-partition
labeling quality at realistic scale, the PageRank fixed point, bit-level
determinism of the command line, and the tabular ingestion shape on the
classic mushroom table.
"""

import json
import os
import time

import numpy as np
import pytest

import oracles
from qdsfm.applications import (
    adjacency_multiply,
    build_pagerank_instance,
    build_ssl_instance,
    cheeger_sweep,
    generate_synthetic_hypergraph,
    ingest_tabular_dataset,
)
from qdsfm.cli import main
from qdsfm.projection import (
    ProjectionParams,
    project_exact,
    project_fw,
    project_mnp,
)
from qdsfm.solvers import (
    ProblemInstance,
    SolveConfig,
    dual_objective,
    solve,
)
from qdsfm.submodular import (
    directed_hyperedge_cut,
    general_oracle,
    graph_edge_cut,
    hyperedge_cut,
)


# ---------------------------------------------------------------------------
# shared generators


def _random_cut_atom(rng, max_size=8, weighted=True):
    kind = rng.choice(["edge", "hyperedge", "directed"])
    weight = float(rng.choice([0.5, 1.0, 2.0, 4.0])) if weighted else 1.0
    if kind == "edge":
        return graph_edge_cut(0, 1, weight), 2
    m = int(rng.integers(2, max_size + 1))
    if kind == "hyperedge":
        return hyperedge_cut(range(m), weight), m
    head = rng.choice(m, size=int(rng.integers(1, m)), replace=False).tolist()
    tail = rng.choice(m, size=int(rng.integers(1, m)), replace=False).tolist()
    return directed_hyperedge_cut(head, tail, range(m), weight), m


def _random_projection_pairs(seed, count, weighted=True):
    """(atom, metric, target) pairs; ``weighted=False`` keeps everything at
    unit scale so absolute tolerances are meaningful."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        atom, m = _random_cut_atom(rng, weighted=weighted)
        if weighted:
            a = rng.normal(0.0, 1.5, size=m)
            wt = np.ones(m) if rng.random() < 0.5 else rng.uniform(0.4, 2.5, size=m)
        else:
            a = rng.standard_normal(m)
            wt = np.ones(m)
        yield atom, wt, a


def _coverage_table_atom(rng, m, universe=6):
    covers = [set(rng.choice(universe, size=int(rng.integers(1, 4)), replace=False))
              for _ in range(m)]
    table = {}
    for mask in range(1 << m):
        covered = set()
        for p in range(m):
            if mask >> p & 1:
                covered |= covers[p]
        table[mask] = float(len(covered))
    return general_oracle(range(m), table=table, weight=float(rng.choice([0.5, 1.0, 2.0])))


def _grid_optimum(instance):
    fun = oracles.qdsfm_primal_batch(
        [(at.kind, at.members, at.head, at.tail, at.weight) for at in instance.atoms],
        instance.a,
        instance.w,
    )
    lo = np.full(instance.n, instance.a.min() - 0.05)
    hi = np.full(instance.n, instance.a.max() + 0.05)
    x = oracles.nested_grid_minimize(fun, lo, hi, points=13, rounds=22)
    return x


# ---------------------------------------------------------------------------
# 1. worked example


def test_single_edge_worked_example_is_exact_and_fast():
    instance = ProblemInstance(
        a=np.array([1.0, 0.0]), w=np.ones(2), atoms=(graph_edge_cut(0, 1),)
    )
    config = SolveConfig(max_iters=50, target_gap=1e-10)
    solve(instance, config)  # warm caches before timing
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        result = solve(instance, config)
        elapsed.append(time.perf_counter() - t0)
    assert abs(result.x[0] - 2.0 / 3.0) <= 1e-8
    assert abs(result.x[1] - 1.0 / 3.0) <= 1e-8
    g, _ = dual_objective(instance, result.sum_y, result.phis)
    assert abs(g - 8.0 / 3.0) <= 1e-8
    assert result.gap <= 1e-10
    assert min(elapsed) < 1e-3


# ---------------------------------------------------------------------------
# 2. brute-force agreement


def test_small_instances_match_grid_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        atoms = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2, n + 1))
            members = rng.choice(n, size=size, replace=False)
            atoms.append(hyperedge_cut(sorted(int(v) for v in members),
                                       float(rng.choice([0.5, 1.0, 2.0]))))
        instance = ProblemInstance(
            a=rng.uniform(-1.0, 1.0, size=n),
            w=rng.uniform(0.5, 2.0, size=n),
            atoms=tuple(atoms),
        )
        result = solve(
            instance, SolveConfig(max_iters=8000 * instance.r, target_gap=1e-10)
        )
        assert result.converged
        x_star = _grid_optimum(instance)
        assert np.max(np.abs(result.x - x_star)) <= 1e-3
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3. cross-oracle agreement


def test_projection_oracles_agree_across_methods():
    t0 = time.perf_counter()
    fw_params = ProjectionParams(delta=1e-10, max_major=10_000)
    for atom, wt, a in _random_projection_pairs(seed=303, count=200, weighted=False):
        _, exact_report = project_exact(atom, wt, a)
        _, mnp_report = project_mnp(atom, wt, a, record_history=False)
        _, fw_report = project_fw(atom, wt, a, fw_params)
        assert abs(mnp_report.h - exact_report.h) <= 1e-5
        assert abs(fw_report.h - exact_report.h) <= 1e-4
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 4. descent invariants


def test_active_set_descent_monotone_with_exit_certificate():
    delta = 1e-10
    cases = list(_random_projection_pairs(seed=404, count=200))
    rng = np.random.default_rng(405)
    for _ in range(40):
        m = int(rng.integers(2, 6))
        atom = _coverage_table_atom(rng, m)
        cases.append((atom, rng.uniform(0.4, 2.5, size=m), rng.normal(0.0, 1.5, size=m)))
    for atom, wt, a in cases:
        _, report = project_mnp(
            atom, wt, a, ProjectionParams(delta=delta), record_history=True
        )
        assert report.converged
        assert report.certificate >= -delta
        hist = report.h_history
        slack = 1e-12 * (1.0 + abs(hist[0]))
        assert all(hist[i + 1] <= hist[i] + slack for i in range(len(hist) - 1))


# ---------------------------------------------------------------------------
# 5. conditional-gradient rate envelope


def test_conditional_gradient_satisfies_rate_envelope():
    rng = np.random.default_rng(505)
    for _ in range(20):
        atom, m = _random_cut_atom(rng, max_size=6)
        a = rng.uniform(-1.5, 1.5, size=m)
        wt = rng.uniform(0.4, 2.5, size=m)
        _, exact_report = project_exact(atom, wt, a)
        _, fw_report = project_fw(
            atom, wt, a, ProjectionParams(delta=1e-13, max_major=400),
            record_history=True,
        )
        norm_a_sq = float(np.dot(wt, a * a))
        q_sq = oracles.max_base_norm_sq(atom, wt)
        for k, h in enumerate(fw_report.h_history):
            assert h - exact_report.h <= 2.0 * norm_a_sq * q_sq / (k + 2)


# ---------------------------------------------------------------------------
# 6. linear gap decay and fidelity-weight sensitivity


def _decay_instance(beta=1.0, n=100, big_r=100):
    rng = np.random.default_rng(0)
    size = 10
    atoms = tuple(
        hyperedge_cut(sorted(int(v) for v in rng.choice(n, size=size, replace=False)))
        for _ in range(big_r)
    )
    a = rng.standard_normal(n)
    return ProblemInstance(a=a, w=beta * np.ones(n), atoms=atoms)


def test_gap_decays_linearly_and_tracks_fidelity_weight():
    t0 = time.perf_counter()
    instance = _decay_instance()
    big_r = instance.r
    result = solve(
        instance, SolveConfig(max_iters=300 * big_r, checkpoint_stride=big_r)
    )
    gaps = {row.iteration: row.gap for row in result.trace}
    window = [k for k in sorted(gaps) if 10 * big_r <= k <= 300 * big_r]
    logs = np.log(np.maximum([gaps[k] for k in window], 1e-18))
    slope = np.polyfit(window, logs, 1)[0]
    assert slope < 0
    assert gaps[300 * big_r] <= 1e-6 * gaps[10 * big_r]

    # shrinking the fidelity weight slows convergence at a fixed budget.  The primal shrinks
    # with it, so the order is read from the gap relative to the primal and from the fitted
    # slope of log(gap) per 10 epochs, not from absolute gaps (at seed 4 those invert)
    for seed in range(3):
        relative, slope = {}, {}
        for beta in (1.0, 0.1, 0.01):
            res = solve(_decay_instance(beta), SolveConfig(max_iters=100 * big_r, seed=seed))
            relative[beta] = res.gap / res.primal
            rows = [row for row in res.trace if row.iteration >= 10 * big_r]
            epochs = [row.iteration / big_r for row in rows]
            slope[beta] = 10.0 * np.polyfit(epochs, np.log([row.gap for row in rows]), 1)[0]
        assert relative[1.0] < relative[0.1] < relative[0.01]
        assert slope[1.0] < slope[0.1] < slope[0.01] < 0.0
    assert time.perf_counter() - t0 < 60.0


def test_fidelity_weight_orders_the_rate_of_the_block_step():
    # 200 hyperedges of 10 on 400 vertices: rcd takes chunks of τ = 40.  Absolute gaps of
    # problems of different scale need not keep the order (at τ = 101 they invert); the gap
    # relative to the primal and the fitted slope of log(gap) per 10 epochs keep it
    big_r = 200
    for seed in range(3):
        relative, slope = {}, {}
        for beta in (1.0, 0.1, 0.01):
            instance = _decay_instance(beta, n=400, big_r=big_r)
            assert solve(instance, SolveConfig(wall_clock_limit=0.0)).iterations == 40
            res = solve(instance, SolveConfig(max_iters=100 * big_r, seed=seed))
            relative[beta] = res.gap / res.primal
            rows = [row for row in res.trace if row.iteration >= 10 * big_r]
            epochs = [row.iteration / big_r for row in rows]
            slope[beta] = 10.0 * np.polyfit(epochs, np.log([row.gap for row in rows]), 1)[0]
        assert relative[1.0] < relative[0.1] < relative[0.01]
        assert slope[1.0] < slope[0.1] < slope[0.01] < 0.0


# ---------------------------------------------------------------------------
# 7. planted-partition labeling at scale


def test_planted_partition_labeling_at_scale():
    t0 = time.perf_counter()
    errors, conductances = [], []
    for seed in range(20):
        hg, ds, truth = generate_synthetic_hypergraph(
            n=1000, within_per_cluster=500, across=1000,
            edge_size=20, labeled_per_cluster=3, seed=seed,
        )
        instance, back = build_ssl_instance(hg, ds, k=1, beta=0.02)
        result = solve(
            instance,
            SolveConfig(max_iters=50 * instance.r, checkpoint_stride=50 * instance.r),
        )
        sweep = cheeger_sweep(hg, hg.degrees, back(result.x))
        labels = sweep.labels(prefix_class=1)
        errors.append(float(np.mean(labels != truth)))
        conductances.append(100.0 * sweep.conductance)
    assert np.median(errors) <= 0.03
    assert np.median(conductances) <= 8.0
    assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# 8. PageRank fixed point


def _chord_graph(rng, n=50, chords=40):
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < n + chords:
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        edges.add((i, j))
    from qdsfm.applications import Hypergraph

    return Hypergraph(n, tuple(graph_edge_cut(i, j) for i, j in sorted(edges)))


def _pagerank_direct(hg, alpha, s):
    n = hg.n
    d = hg.weighted_degrees
    walk = np.column_stack([adjacency_multiply(hg, e / d) for e in np.eye(n)])
    return np.linalg.solve(np.eye(n) - alpha * walk, (1.0 - alpha) * s)


def test_pagerank_reaches_fixed_point():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    hg = _chord_graph(rng)
    s = rng.uniform(0.2, 1.0, size=hg.n)
    s /= s.sum()
    for alpha in (0.5, 0.9):
        instance, back = build_pagerank_instance(hg, alpha, s)
        result = solve(
            instance, SolveConfig(max_iters=2000 * instance.r, target_gap=1e-14)
        )
        p = back(result.x)
        residual = float(
            np.max(np.abs((1.0 - alpha) * s
                          + alpha * adjacency_multiply(hg, p / hg.weighted_degrees)
                          - p))
        )
        assert residual <= 1e-5
        assert np.max(np.abs(p - _pagerank_direct(hg, alpha, s))) <= 1e-5
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 9. determinism


def _drop_seconds_csv(text):
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


def test_reruns_are_bit_deterministic(tmp_path, capsys):
    instance_payload = {
        "a": [0.9, -0.4, 0.2, 0.7, -1.1],
        "w": [1.0, 2.0, 1.0, 0.5, 1.5],
        "atoms": [
            {"type": "hyperedge", "members": [0, 1, 2]},
            {"type": "edge", "members": [2, 3], "weight": 2.0},
            {"type": "directed_hyperedge", "members": [1, 3, 4],
             "head": [1], "tail": [3, 4]},
        ],
    }
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(instance_payload))
    graph_payload = {
        "n": 4,
        "edges": [
            {"type": "edge", "members": [0, 1]},
            {"type": "edge", "members": [1, 2]},
            {"type": "edge", "members": [2, 3]},
            {"type": "edge", "members": [0, 3]},
        ],
    }
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(graph_payload))

    def run_twice(args, outputs):
        captured = []
        for tag in ("first", "second"):
            paths = {key: tmp_path / f"{tag}-{name}" for key, name in outputs.items()}
            argv = [arg.format(**{k: str(v) for k, v in paths.items()})
                    for arg in args]
            main(argv)
            captured.append({key: path.read_text() for key, path in paths.items()})
        return captured

    for algorithm in ("rcd", "ap"):
        first, second = run_twice(
            ["solve", "--instance", str(inst), "--algorithm", algorithm,
             "--seed", "5", "--max-iters", "200", "--solution", "{sol}",
             "--trace", "{trace}"],
            {"sol": f"{algorithm}.json", "trace": f"{algorithm}.csv"},
        )
        assert first["sol"] == second["sol"]
        assert _drop_seconds_csv(first["trace"]) == _drop_seconds_csv(second["trace"])

    main(["project", "--instance", str(inst), "--atom", "2"])
    out1 = capsys.readouterr().out
    main(["project", "--instance", str(inst), "--atom", "2"])
    assert capsys.readouterr().out == out1

    first, second = run_twice(
        ["pagerank", "--graph", str(graph), "--alpha", "0.5", "--seed", "3",
         "--max-iters", "500", "--solution", "{sol}"],
        {"sol": "pr.json"},
    )
    assert first["sol"] == second["sol"]

    first, second = run_twice(
        ["ssl", "--synthetic", "--n", "30", "--within", "15", "--across", "5",
         "--edge-size", "3", "--labeled", "2", "--beta", "0.1", "--seed", "9",
         "--normalization", "identity", "--max-iters", "2000",
         "--output", "{out}", "--trace", "{trace}", "--quiet"],
        {"out": "ssl.json", "trace": "ssl.csv"},
    )
    for run in (first, second):
        run["out"] = {k: v for k, v in json.loads(run["out"]).items() if k != "seconds"}
    assert first["out"] == second["out"]
    assert _drop_seconds_csv(first["trace"]) == _drop_seconds_csv(second["trace"])

    first, second = run_twice(
        ["compare", "--instance", str(inst), "--methods", "rcd:exact,ap:exact",
         "--budget-seconds", "0.05", "--seed", "4", "--output", "{out}"],
        {"out": "cmp.csv"},
    )
    # identical per-iteration gaps wherever both runs logged the same step
    def rows_of(text):
        rows = {}
        for line in text.splitlines()[1:]:
            method, iteration, _, gap = line.split(",")
            rows[(method, int(iteration))] = gap
        return rows

    rows1, rows2 = rows_of(first["out"]), rows_of(second["out"])
    shared = rows1.keys() & rows2.keys()
    assert shared
    assert all(rows1[key] == rows2[key] for key in shared)


# ---------------------------------------------------------------------------
# 10. mushroom ingestion shape

_MUSHROOM_COLUMNS = [
    "cap-shape", "cap-surface", "cap-color", "bruises", "odor",
    "gill-attachment", "gill-spacing", "gill-size", "gill-color",
    "stalk-shape", "stalk-root", "stalk-surface-above-ring",
    "stalk-surface-below-ring", "stalk-color-above-ring",
    "stalk-color-below-ring", "veil-type", "veil-color", "ring-number",
    "ring-type", "spore-print-color", "population", "habitat",
]

_MUSHROOM_PATH = os.environ.get(
    "QDSFM_MUSHROOM",
    os.path.join(os.path.dirname(__file__), "data", "agaricus-lepiota.data"),
)


@pytest.mark.skipif(
    not os.path.exists(_MUSHROOM_PATH),
    reason="mushroom table not present (set QDSFM_MUSHROOM or add tests/data/)",
)
def test_mushroom_table_ingests_to_expected_shape():
    rows = []
    with open(_MUSHROOM_PATH, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            values = line.split(",")
            assert len(values) == 23
            rows.append(dict(zip(_MUSHROOM_COLUMNS, values[1:])))
    schema = [
        (name, "categorical") for name in _MUSHROOM_COLUMNS if name != "stalk-root"
    ]
    hg = ingest_tabular_dataset(rows, schema)
    assert hg.n == 8124
    assert hg.r == 112
    assert sum(atom.size for atom in hg.edges) == 170604
