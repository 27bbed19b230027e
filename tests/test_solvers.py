"""Solver behavior against the analytic single-edge case and a grid oracle."""

from __future__ import annotations

import logging
import math
from collections import Counter

import numpy as np
import pytest

import oracles
from qdsfm import solvers
from qdsfm.applications import build_ssl_instance, generate_synthetic_hypergraph
from qdsfm.projection import ConePoint, ProjectionParams
from qdsfm.solvers import (
    ProblemInstance,
    SolveConfig,
    dual_objective,
    evaluate_dual_state,
    primal_from_dual,
    primal_objective,
    solve,
)
from qdsfm.submodular import (
    SubmodularAtom,
    directed_hyperedge_cut,
    general_oracle,
    graph_edge_cut,
    hyperedge_cut,
    lovasz_extension,
)


def _edge_instance():
    return ProblemInstance(
        a=np.array([1.0, 0.0]), w=np.ones(2), atoms=(graph_edge_cut(0, 1),)
    )


def _spec_of(atom):
    return (atom.kind, atom.members, atom.head, atom.tail, atom.weight)


def _random_cut_instance(rng, n, n_atoms):
    atoms = []
    for _ in range(n_atoms):
        kind = rng.choice(["edge", "hyperedge", "directed"])
        weight = float(rng.choice([0.5, 1.0, 2.0]))
        if kind == "edge":
            i, j = rng.choice(n, size=2, replace=False)
            atoms.append(graph_edge_cut(int(i), int(j), weight))
        elif kind == "hyperedge":
            size = int(rng.integers(2, n + 1))
            members = rng.choice(n, size=size, replace=False)
            atoms.append(hyperedge_cut(members.tolist(), weight))
        else:
            head = rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()
            tail = rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()
            atoms.append(directed_hyperedge_cut(head, tail, weight=weight))
    a = rng.uniform(-1.0, 1.0, size=n)
    w = rng.uniform(0.5, 2.0, size=n)
    return ProblemInstance(a=a, w=w, atoms=tuple(atoms))


def _grid_optimum(instance):
    fun = oracles.qdsfm_primal_batch(
        [_spec_of(at) for at in instance.atoms], instance.a, instance.w
    )
    lo = np.full(instance.n, instance.a.min() - 0.05)
    hi = np.full(instance.n, instance.a.max() + 0.05)
    x = oracles.nested_grid_minimize(fun, lo, hi, points=13, rounds=22)
    return x, float(fun(x[None, :])[0])


# ---------------------------------------------------------------------------
# construction and objective plumbing


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(a=np.ones((2, 2)), w=np.ones(4), atoms=())
    with pytest.raises(ValueError):
        ProblemInstance(a=np.ones(3), w=np.ones(2), atoms=())
    with pytest.raises(ValueError):
        ProblemInstance(a=np.ones(3), w=np.array([1.0, 0.0, 1.0]), atoms=())
    with pytest.raises(ValueError, match="component 1 references vertex 3 outside 0..2"):
        ProblemInstance(
            a=np.ones(3),
            w=np.ones(3),
            atoms=(graph_edge_cut(0, 1), graph_edge_cut(1, 3)),
        )
    with pytest.raises(ValueError, match="negative"):
        ProblemInstance(
            a=np.ones(5), w=np.ones(5), atoms=(SubmodularAtom("hyperedge", (-1, 2)),)
        )
    with pytest.raises(TypeError):
        ProblemInstance(a=np.ones(3), w=np.ones(3), atoms=("edge",))
    # a and w are numbers, not strings or bools, and are never parsed
    edge = (graph_edge_cut(0, 1),)
    for a, w in ((["1", "0"], None), ([True, 0], None), ([1, 0], [True, "2"]), ([1, 0], "2"),
                 (np.array(["1", "0"]), None), ([1, 0], np.array([True, True]))):
        with pytest.raises(ValueError, match="'[aw]' must be"):
            ProblemInstance(a=a, w=w, atoms=edge)
    # a scalar w is broadcast, and the caller's arrays are copied, not frozen
    a, w = np.array([1.0, 0.0]), np.array([2.0, 3.0])
    assert np.array_equal(ProblemInstance(a=[1, 0], w=2.0, atoms=edge).w, [2.0, 2.0])
    assert np.array_equal(ProblemInstance(a=a, w=np.int64(2), atoms=edge).w, [2.0, 2.0])
    inst = ProblemInstance(a=a, w=w, atoms=edge)
    assert a.flags.writeable and w.flags.writeable
    assert not (inst.a.flags.writeable or inst.w.flags.writeable)
    assert not (np.shares_memory(inst.a, a) or np.shares_memory(inst.w, w))


def test_objectives_match_definitions():
    rng = np.random.default_rng(5)
    inst = _random_cut_instance(rng, 5, 4)
    x = rng.normal(size=5)
    manual = float(np.dot(inst.w, (x - inst.a) ** 2))
    manual += sum(lovasz_extension(at, x) ** 2 for at in inst.atoms)
    assert primal_objective(inst, x) == pytest.approx(manual, rel=1e-12)

    sum_y = rng.normal(size=5)
    phis = rng.uniform(0, 1, size=4)
    g, dual = dual_objective(inst, sum_y, phis)
    resid = sum_y - 2 * inst.w * inst.a
    g_manual = float(np.dot(1 / inst.w, resid**2) + np.dot(phis, phis))
    assert g == pytest.approx(g_manual, rel=1e-12)
    assert dual == pytest.approx(float(np.dot(inst.w, inst.a**2)) - g_manual / 4)
    assert np.allclose(
        primal_from_dual(inst, sum_y), inst.a - 0.5 * sum_y / inst.w
    )
    state = evaluate_dual_state(inst, sum_y, phis)
    assert state.gap == pytest.approx(state.primal - state.dual)


def test_penalty_groups_and_fallback_agree():
    # grouped symmetric components plus directed/general fallbacks
    tbl = {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0}
    atoms = (
        hyperedge_cut([0, 1, 2], 2.0),
        hyperedge_cut([1, 3, 4], 0.5),
        graph_edge_cut(2, 4),
        directed_hyperedge_cut([0], [3, 4]),
        general_oracle([2, 3], table=tbl),
        hyperedge_cut([4]),  # degenerate, contributes nothing
    )
    inst = ProblemInstance(a=np.zeros(5), w=np.ones(5), atoms=atoms)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.normal(size=5)
        manual = sum(lovasz_extension(at, x) ** 2 for at in atoms)
        assert inst._penalty(x) == pytest.approx(manual, rel=1e-12)


def _mixed_instance():
    # cut sizes 2 and 3, a size-1, a directed and a table atom; vertex 6 is uncovered
    tbl = {0: 0.0, 1: 1.0, 2: 1.0, 3: 0.5}
    atoms = (
        hyperedge_cut([0, 1, 2], 2.0),
        graph_edge_cut(2, 4),
        directed_hyperedge_cut([0], [3, 4]),
        hyperedge_cut([1, 3, 4], 0.5),
        general_oracle([2, 5], table=tbl),
        hyperedge_cut([4]),
        graph_edge_cut(0, 5, 0.0),
        hyperedge_cut([0, 3, 5], 1.5),
        graph_edge_cut(1, 3, 3.0),
    )
    rng = np.random.default_rng(5)
    return ProblemInstance(a=rng.normal(size=7), w=rng.uniform(0.5, 2.0, 7), atoms=atoms)


def test_layout_penalty_matches_oracle():
    inst = _mixed_instance()
    layout = inst._layout
    assert [rows.tolist() for rows, _, _ in layout.groups] == [[0, 3, 7], [1, 6, 8]]
    assert list(layout.rest) == [2, 4, 5]
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.normal(size=inst.n)
        want = sum(
            oracles.lovasz_by_prefix(oracles.atom_value_fn(at), at.members, x) ** 2
            for at in inst.atoms
        )
        assert inst._penalty(x) == pytest.approx(want, rel=1e-12)


def test_layout_arrays_are_read_only():
    inst = _mixed_instance()
    layout = inst._layout
    assert np.array_equal(layout.incidence, np.concatenate([at.members for at in inst.atoms]))
    assert layout.ends.tolist() == np.cumsum([0] + [at.size for at in inst.atoms]).tolist()
    assert layout.psi.tolist() == [4.0, 3.0, 3.0, 4.0, 4.0, 3.0, 0.0]
    arrays = [layout.incidence, layout.ends, layout.psi]
    arrays += [arr for group in layout.groups for arr in group]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


def test_group_matrices_view_or_gather_incidence():
    # non-consecutive groups of sizes 3 and 2: one gather each, equal to stacking the rows
    inst = _mixed_instance()
    layout = inst._layout
    for rows, matrix, weights in layout.groups:
        stacked = np.stack([inst.atoms[r].members_arr for r in rows])
        assert matrix.dtype == stacked.dtype and matrix.tobytes() == stacked.tobytes()
        assert weights.tobytes() == np.array([inst.atoms[r].weight for r in rows]).tobytes()
        assert not np.shares_memory(matrix, layout.incidence)
    # consecutive atoms of one size: the group matrix is a view of the incidence
    atoms = (graph_edge_cut(0, 4), hyperedge_cut([0, 1, 2]), hyperedge_cut([1, 2, 3]),
             hyperedge_cut([2, 3, 4]), directed_hyperedge_cut([0], [1, 2]), graph_edge_cut(1, 3))
    layout = ProblemInstance(a=np.zeros(5), w=None, atoms=atoms)._layout
    assert [rows.tolist() for rows, _, _ in layout.groups] == [[0, 5], [1, 2, 3]]
    assert list(layout.rest) == [4]
    (_, pair, _), (_, triple, _) = layout.groups
    assert not np.shares_memory(pair, layout.incidence)
    assert np.shares_memory(triple, layout.incidence) and not triple.flags.writeable
    assert triple.tolist() == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]


@pytest.mark.parametrize("algorithm", ["rcd", "ap"])
def test_second_solve_reuses_the_layout(algorithm, monkeypatch):
    inst = _mixed_instance()
    cfg = SolveConfig(algorithm=algorithm, max_iters=30 * inst.r, checkpoint_stride=inst.r, seed=4)
    first = solve(inst, cfg)
    builds = []
    for name in ("_component_layout", "_symmetric_cut_groups"):
        def spy(*args, _real=getattr(solvers, name), _name=name):
            builds.append(_name)
            return _real(*args)

        monkeypatch.setattr(solvers, name, spy)
    second = solve(inst, cfg)
    assert builds == []
    for field in ("x", "sum_y", "phis"):
        assert getattr(first, field).tobytes() == getattr(second, field).tobytes()
    assert [row[:4] for row in first.trace] == [row[:4] for row in second.trace]
    solve(ProblemInstance(inst.a, inst.w, inst.atoms), cfg)
    assert builds == ["_component_layout", "_symmetric_cut_groups"]


# ---------------------------------------------------------------------------
# the analytic single-edge problem


def test_rcd_solves_single_edge():
    inst = _edge_instance()
    res = solve(
        inst, SolveConfig(max_iters=5, target_gap=1e-12, checkpoint_stride=1)
    )
    assert np.allclose(res.x, [2 / 3, 1 / 3], atol=1e-10)
    assert res.primal == pytest.approx(1 / 3)
    assert res.dual == pytest.approx(1 / 3)
    assert res.gap <= 1e-12
    assert res.converged
    assert res.iterations == 1
    first = res.trace[0]
    assert first.iteration == 0
    assert first.primal == pytest.approx(1.0)  # objective at x = a
    assert first.dual == pytest.approx(0.0)  # empty dual state certifies 0
    assert np.allclose(res.sum_y, [2 / 3, -2 / 3], atol=1e-12)
    assert res.phis[0] == pytest.approx(2 / 3)


def test_ap_single_component_is_one_projection():
    inst = _edge_instance()
    cfg = SolveConfig(algorithm="ap", max_iters=1, target_gap=1e-12)
    res = solve(inst, cfg)
    ref = solve(inst, SolveConfig(max_iters=1, checkpoint_stride=1))
    assert np.array_equal(res.x, ref.x)
    assert res.converged and res.iterations == 1


def test_empty_instance_returns_anchor():
    inst = ProblemInstance(a=np.array([0.3, -1.0]), w=np.ones(2), atoms=())
    res = solve(inst, SolveConfig(target_gap=1e-6))
    assert np.array_equal(res.x, inst.a)
    assert res.gap == 0.0
    assert res.iterations == 0
    assert res.converged


# ---------------------------------------------------------------------------
# agreement with the grid oracle


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_rcd_matches_grid_optimum(seed):
    rng = np.random.default_rng(seed)
    inst = _random_cut_instance(rng, int(rng.integers(3, 5)), int(rng.integers(2, 4)))
    res = solve(inst, SolveConfig(max_iters=6000 * inst.r, target_gap=1e-11))
    assert res.converged
    assert res.gap >= -1e-9
    x_star, p_star = _grid_optimum(inst)
    assert np.max(np.abs(res.x - x_star)) <= 1e-3
    assert res.primal <= p_star + 1e-6


@pytest.mark.parametrize("seed", [7, 8])
def test_ap_matches_grid_optimum(seed):
    rng = np.random.default_rng(seed)
    inst = _random_cut_instance(rng, 4, 3)
    res = solve(
        inst,
        SolveConfig(algorithm="ap", max_iters=4000 * inst.r, target_gap=1e-11),
    )
    assert res.converged
    x_star, p_star = _grid_optimum(inst)
    assert np.max(np.abs(res.x - x_star)) <= 1e-3
    assert res.primal <= p_star + 1e-6


def test_general_component_equals_its_cut_twin():
    # the table {∅:0, {0}:1, {1}:1, {0,1}:0} is exactly the unit 2-hyperedge cut
    tbl = {0: 0.0, 1: 1.0, 2: 1.0, 3: 0.0}
    a = np.array([0.9, -0.4, 0.2])
    w = np.array([1.0, 2.0, 0.5])
    edge_atoms = (hyperedge_cut([0, 1]), graph_edge_cut(1, 2, 2.0))
    table_atoms = (general_oracle([0, 1], table=tbl), graph_edge_cut(1, 2, 2.0))
    cfg = SolveConfig(max_iters=4000, target_gap=1e-11, seed=1)
    res_cut = solve(ProblemInstance(a, w, edge_atoms), cfg)
    res_tbl = solve(ProblemInstance(a, w, table_atoms), cfg)
    assert res_cut.converged and res_tbl.converged
    assert np.allclose(res_cut.x, res_tbl.x, atol=1e-5)


def test_projection_method_override_agrees():
    rng = np.random.default_rng(12)
    inst = _random_cut_instance(rng, 4, 3)
    base = SolveConfig(max_iters=3000 * inst.r, target_gap=1e-10)
    res_exact = solve(inst, base)
    res_mnp = solve(
        inst, SolveConfig(max_iters=3000 * inst.r, target_gap=1e-10, projection="mnp")
    )
    assert res_exact.converged and res_mnp.converged
    assert np.allclose(res_exact.x, res_mnp.x, atol=1e-5)
    with pytest.raises(ValueError, match="cut"):
        tbl = {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0}
        bad = ProblemInstance(
            np.zeros(2), np.ones(2), (general_oracle([0, 1], table=tbl),)
        )
        solve(bad, SolveConfig(max_iters=2, projection="exact"))


# ---------------------------------------------------------------------------
# trace, budgets, determinism


def test_trace_checkpoints_and_budget_rcd():
    rng = np.random.default_rng(2)
    inst = _random_cut_instance(rng, 5, 4)
    res = solve(inst, SolveConfig(max_iters=57, checkpoint_stride=10))
    assert not res.converged
    assert res.iterations == 57
    assert [row.iteration for row in res.trace] == [0, 10, 20, 30, 40, 50, 57]
    gaps = [row.gap for row in res.trace]
    assert gaps[-1] < gaps[0]
    seconds = [row.seconds for row in res.trace]
    assert np.all(np.diff(seconds) >= 0)


def test_trace_checkpoints_and_budget_ap():
    rng = np.random.default_rng(2)
    inst = _random_cut_instance(rng, 5, 4)
    r = inst.r
    res = solve(
        inst,
        SolveConfig(algorithm="ap", max_iters=5 * r + 3, checkpoint_stride=2 * r),
    )
    assert res.iterations == 5 * r
    assert [row.iteration for row in res.trace] == [0, 2 * r, 4 * r, 5 * r]
    # rounds are atomic and at least one runs: a budget below R still spends R
    assert r > 1
    res = solve(inst, SolveConfig(algorithm="ap", max_iters=1))
    assert res.iterations == r
    assert [row.iteration for row in res.trace] == [0, r]


def test_wall_clock_limit_stops_early():
    rng = np.random.default_rng(2)
    inst = _random_cut_instance(rng, 5, 4)
    res = solve(
        inst,
        SolveConfig(max_iters=100_000, checkpoint_stride=1, wall_clock_limit=0.0),
    )
    assert res.iterations == 1
    assert not res.converged
    # the clock is checked after every projection (rcd) or round (ap), not
    # only at checkpoints, and the stopping iteration gets a trace row
    res = solve(
        inst,
        SolveConfig(max_iters=1000, checkpoint_stride=1000, wall_clock_limit=0.0),
    )
    assert res.iterations == 1
    assert [row.iteration for row in res.trace] == [0, 1]
    res = solve(
        inst,
        SolveConfig(
            algorithm="ap",
            max_iters=50 * inst.r,
            checkpoint_stride=50 * inst.r,
            wall_clock_limit=0.0,
        ),
    )
    assert res.iterations == inst.r
    assert [row.iteration for row in res.trace] == [0, inst.r]


def test_same_seed_reproduces_run():
    rng = np.random.default_rng(21)
    inst = _random_cut_instance(rng, 8, 6)
    cfg = SolveConfig(max_iters=200, checkpoint_stride=25, seed=7)
    res1 = solve(inst, cfg)
    res2 = solve(inst, cfg)
    assert np.array_equal(res1.x, res2.x)
    rows1 = [(t.iteration, t.primal, t.dual, t.gap) for t in res1.trace]
    rows2 = [(t.iteration, t.primal, t.dual, t.gap) for t in res2.trace]
    assert rows1 == rows2
    res3 = solve(inst, SolveConfig(max_iters=200, checkpoint_stride=25, seed=8))
    rows3 = [(t.iteration, t.primal, t.dual, t.gap) for t in res3.trace]
    assert rows3 != rows1


# ---------------------------------------------------------------------------
# the one-block and τ-block steps against the loop they replaced


def _ssl_instance(beta):
    # the CI-size SSL input: R = 400 hyperedges of 5 vertices, so τ = 40
    hg, ds, _ = generate_synthetic_hypergraph(200, 100, 200, 5, 3, seed=0)
    return build_ssl_instance(hg, ds, 1, beta)[0]


def _assert_same_as_reference(inst, cfg):
    res = solve(inst, cfg)
    x, sum_y, phis, iterations, rows = oracles.solve_reference(inst, cfg)
    assert res.x.tobytes() == x.tobytes() and res.sum_y.tobytes() == sum_y.tobytes()
    assert res.phis.tobytes() == phis.tobytes()
    assert res.iterations == iterations
    assert [row[:4] for row in res.trace] == rows


@pytest.mark.parametrize("seed", range(6))
def test_rcd_below_the_block_rule_matches_reference(seed):
    rng = np.random.default_rng(seed)
    if seed == 0:
        inst = _mixed_instance()
    else:
        inst = _random_cut_instance(rng, int(rng.integers(3, 8)), int(rng.integers(2, 9)))
    assert solvers._block_size(inst, SolveConfig()) == 1
    for cfg in (SolveConfig(max_iters=40 * inst.r + 3, checkpoint_stride=3, seed=seed),
                SolveConfig(max_iters=100 * inst.r, target_gap=1e-6, seed=seed),
                SolveConfig(max_iters=10 * inst.r, projection="mnp", seed=seed)):
        _assert_same_as_reference(inst, cfg)


@pytest.mark.parametrize("projection", ["auto", "mnp"])
def test_ap_round_matches_reference(projection):
    inst = _mixed_instance()
    for cfg in (SolveConfig(algorithm="ap", max_iters=12 * inst.r + 3, projection=projection,
                            checkpoint_stride=3 * inst.r // 2),
                SolveConfig(algorithm="ap", target_gap=1e-6, projection=projection)):
        _assert_same_as_reference(inst, cfg)
    if projection == "auto":
        inst = _ssl_instance(0.02)
        assert inst.r == 400
        _assert_same_as_reference(inst, SolveConfig(algorithm="ap", target_gap=1e-4))
        _assert_same_as_reference(inst, SolveConfig(algorithm="ap", max_iters=7 * inst.r - 1,
                                                    checkpoint_stride=2 * inst.r))


def test_block_step_agrees_with_one_block_reference():
    # a fidelity weight of 5 brings the one-block reference to 1e-10 in a few seconds
    inst = _ssl_instance(5.0)
    assert solvers._block_size(inst, SolveConfig()) == 40
    res = solve(inst, SolveConfig(max_iters=2000 * inst.r, target_gap=1e-9))
    x_ref, _, _, _, rows = oracles.solve_reference(inst, SolveConfig(max_iters=2000 * inst.r,
                                                                     target_gap=1e-10))
    gap_ref = rows[-1][3]
    assert res.converged and gap_ref <= 1e-10
    d = res.x - x_ref
    assert float(np.dot(inst.w, d * d)) <= res.gap + gap_ref
    assert np.all(res.phis >= 0.0)
    # reruns are bit-identical; another seed samples other chunks
    again = solve(inst, SolveConfig(max_iters=5 * inst.r))
    assert again.x.tobytes() == solve(inst, SolveConfig(max_iters=5 * inst.r)).x.tobytes()
    assert again.x.tobytes() != solve(inst, SolveConfig(max_iters=5 * inst.r, seed=1)).x.tobytes()


def test_block_step_counts_projections():
    inst = _ssl_instance(5.0)
    r = inst.r
    # the budget is rounded down to whole chunks of 40; default rows fall at multiples of R
    res = solve(inst, SolveConfig(max_iters=3 * r + 70))
    assert res.iterations == 3 * r + 40
    assert [row.iteration for row in res.trace] == [0, r, 2 * r, 3 * r, 3 * r + 40]
    # a stride of 100 projections is rounded down to two chunks
    res = solve(inst, SolveConfig(max_iters=r, checkpoint_stride=100))
    assert [row.iteration for row in res.trace] == list(range(0, r + 1, 80))
    assert solve(inst, SolveConfig(max_iters=1)).iterations == 40
    res = solve(inst, SolveConfig(max_iters=100 * r, wall_clock_limit=0.0))
    assert res.iterations == 40 and not res.converged
    assert [row.iteration for row in res.trace] == [0, 40]


def test_block_rule_keeps_one_block_steps():
    # the rule reads neither the oracle nor the component kinds: the SSL input under mnp takes
    # its τ = 40, and with a table atom (R = 401) τ = 41, in ten chunks of 40 or 41
    inst = _ssl_instance(5.0)
    tbl = {0: 0.0, 1: 1.0, 2: 1.0, 3: 0.5}
    table = ProblemInstance(inst.a, inst.w, inst.atoms + (general_oracle([0, 1], table=tbl),))
    # 100 hyperedges of 10 on 100 vertices: the rule gives τ = 11, below _MIN_BLOCK
    rng = np.random.default_rng(0)
    small = ProblemInstance(rng.normal(size=100), None, tuple(
        hyperedge_cut(rng.choice(100, 10, replace=False).tolist()) for _ in range(100)))
    assert solvers._MIN_BLOCK == 32
    for case, cfg, tau, first in ((inst, SolveConfig(projection="mnp"), 40, 40),
                                  (table, SolveConfig(), 41, 40), (small, SolveConfig(), 1, 1)):
        assert solvers._block_size(case, cfg) == tau
        res = solve(case, SolveConfig(projection=cfg.projection, wall_clock_limit=0.0))
        assert res.iterations == first


# ---------------------------------------------------------------------------
# the accelerated τ-block step


def _two_size_instance():
    # 200 hyperedges of 4 vertices and 200 of 6, interleaved, on 300 vertices: τ = 62
    rng = np.random.default_rng(3)
    atoms = tuple(hyperedge_cut(rng.choice(300, 4 + 2 * (i % 2), replace=False).tolist(),
                                1.0 + i % 3) for i in range(400))
    return ProblemInstance(rng.normal(size=300), rng.uniform(0.5, 2.0, 300), atoms)


def _ssl_mixed_instance():
    # the CI-size SSL input plus three table atoms, three directed hyperedges, two
    # 3-member hyperedges (a group the batching rule leaves to the scalar sweep), a
    # single-vertex atom and an edge of weight 0: R = 410, τ = 41
    inst, rng = _ssl_instance(5.0), np.random.default_rng(9)
    covers = [{0, 1}, {1, 2}, {2, 3}]
    tbl = {bits: float(len(set().union(*(covers[p] for p in range(3) if bits >> p & 1))))
           for bits in range(8)}
    extra = [general_oracle(rng.choice(inst.n, 3, replace=False).tolist(), table=tbl,
                            weight=0.5 + i) for i in range(3)]
    extra += [directed_hyperedge_cut(rng.choice(inst.n, 2, replace=False).tolist(),
                                     rng.choice(inst.n, 3, replace=False).tolist(), weight=2.0)
              for _ in range(3)]
    extra += [hyperedge_cut(rng.choice(inst.n, 3, replace=False).tolist()) for _ in range(2)]
    extra += [hyperedge_cut([7]), graph_edge_cut(3, 11, 0.0)]
    return ProblemInstance(inst.a, inst.w, inst.atoms[:200] + tuple(extra) + inst.atoms[200:])


def _accelerated(inst, cfg=SolveConfig()):
    """Chunks per epoch, step and checkpoint of the τ-block binder."""
    sizes, *steps = solvers._block_steps(inst, cfg, Counter(), solvers._block_size(inst, cfg))
    return len(sizes), *steps


def _checkpoints(inst, per_epoch, step, checkpoint, target, epochs):
    """The solve loop at its default stride of one epoch: yields every
    checkpoint's (sum_y, phis, gap)."""
    sum_y, phis = np.zeros(inst.n), np.zeros(inst.r)
    checkpoint(sum_y, phis)
    for _ in range(epochs):
        for _ in range(per_epoch):
            step(sum_y, phis)
        gap = checkpoint(sum_y, phis).gap
        yield sum_y, phis, gap
        if gap <= target:
            return


def _plain_checkpoint(inst, resync):
    """The checkpoint of a step that only re-accumulates its blocks."""
    def checkpoint(sum_y, phis):
        resync(sum_y, phis)
        return evaluate_dual_state(inst, sum_y, phis)

    return checkpoint


def test_accelerated_step_starts_and_restarts_as_the_plain_step():
    inst = _ssl_instance(5.0)
    per_epoch, step, checkpoint = _accelerated(inst)
    approx = step.__self__
    tau = solvers._block_size(inst, SolveConfig())
    ref_step, _, ref_y = oracles.block_steps_reference(inst, SolveConfig(), Counter(), tau)
    sum_y, phis, ref_sum = np.zeros(inst.n), np.zeros(inst.r), None
    checkpoint(sum_y, phis)
    fresh_chunks = 0
    for _ in range(200):  # the start and three restarts
        if fresh_chunks == 4:
            break
        for _ in range(per_epoch):
            fresh = approx.theta == approx.theta0
            if fresh:  # a start or a restart: the reference takes the same state
                ref_y[:], ref_sum = approx.z, approx.sum_z.copy()
            step(sum_y, phis)
            ref_step(ref_sum if fresh else np.zeros(inst.n), np.zeros(inst.r))
            if fresh:
                fresh_chunks += 1
                assert np.array_equal(approx.z, ref_y) and np.array_equal(approx.sum_z, ref_sum)
                assert not approx.u.any()
            else:
                assert approx.theta < approx.theta0
        checkpoint(sum_y, phis)
    assert fresh_chunks == 4 and solvers._RESTART_FACTOR == 30


@pytest.mark.parametrize("which", ["ssl", "two_sizes", "mixed", "mnp"])
def test_accelerated_step_certifies_its_gaps(which):
    inst = {"two_sizes": _two_size_instance, "mixed": _ssl_mixed_instance}.get(
        which, lambda: _ssl_instance(5.0))()
    layout = inst._layout
    assert len(layout.groups) == {"two_sizes": 2, "mixed": 3}.get(which, 1)
    assert len(layout.rest) == (7 if which == "mixed" else 0)
    # mnp takes about 100 µs a projection: its solve stops at 1e-4, after three restarts
    cfg = SolveConfig(target_gap=1e-4 if which == "mnp" else 1e-8, max_iters=1000 * inst.r,
                      projection="mnp" if which == "mnp" else "auto")
    res = solve(inst, cfg)
    per_epoch, step, checkpoint = _accelerated(inst, cfg)
    approx, starts = step.__self__, []
    assert per_epoch == -(-inst.r // solvers._block_size(inst, cfg)) and per_epoch > 1

    def checked(sum_y, phis):
        # the incremental θ²Σu + Σz stays at roundoff from its re-accumulation
        again = np.bincount(approx.members, approx.theta ** 2 * approx.u + approx.z,
                            minlength=inst.n)
        drift = np.max(np.abs(approx.theta ** 2 * approx.sum_u + approx.sum_z - again))
        assert drift <= 1e-12 * np.max(np.abs(again))
        starts.append(approx.start_gap)
        return checkpoint(sum_y, phis)

    *_, (sum_y, phis, gap) = _checkpoints(inst, per_epoch, step, checked, cfg.target_gap, 1000)
    # the loop above is the solve's, bit for bit, and restarts fired in it (starts[0] is
    # the ∞ read before the start row's checkpoint)
    assert res.converged and gap == res.gap and len(set(starts[1:])) >= 3
    assert sum_y.tobytes() == res.sum_y.tobytes() and phis.tobytes() == res.phis.tobytes()
    _, dual = dual_objective(inst, res.sum_y, res.phis)
    assert abs(res.gap - (primal_objective(inst, res.x) - dual)) <= 1e-12
    # every returned block θ²u + z, in the binder's order, is a point of its cone at its
    # reported φ, and they sum to sum_y
    blocks = approx.theta ** 2 * approx.u + approx.z
    assert np.array_equal(np.bincount(approx.members, blocks, minlength=inst.n), res.sum_y)
    assert np.all(res.phis >= 0.0) and sorted(approx.order.tolist()) == list(range(inst.r))
    ends = np.append(approx.starts, approx.members.size)
    for r, lo, hi in zip(approx.order, ends[:-1], ends[1:]):
        mem = approx.members[lo:hi]
        assert np.array_equal(mem, inst.atoms[r].members_arr)
        assert oracles.in_cone(inst.atoms[r], ConePoint(tuple(mem), blocks[lo:hi], res.phis[r]))
    # reruns are bit-identical
    again = solve(inst, cfg)
    assert again.x.tobytes() == res.x.tobytes() and again.phis.tobytes() == res.phis.tobytes()
    assert [row[:4] for row in again.trace] == [row[:4] for row in res.trace]


def test_accelerated_step_beats_the_plain_step():
    inst, target = _ssl_instance(5.0), 1e-8
    per_epoch, *steps = _accelerated(inst)
    fast = sum(1 for _ in _checkpoints(inst, per_epoch, *steps, target, 1000))
    tau = solvers._block_size(inst, SolveConfig())
    ref_step, ref_resync, _ = oracles.block_steps_reference(inst, SolveConfig(), Counter(), tau)
    plain = list(_checkpoints(inst, per_epoch, ref_step, _plain_checkpoint(inst, ref_resync),
                              target, 1000))
    assert plain[-1][2] <= target and fast <= 0.6 * len(plain)


def test_accelerated_step_restarts_whatever_the_stride():
    # without a checkpoint for an epoch the step takes the gap itself, at the same
    # points and with the same bits as the loop's checkpoints at the default stride
    inst = _ssl_instance(5.0)
    runs = [solve(inst, SolveConfig(max_iters=90 * inst.r, checkpoint_stride=stride * inst.r))
            for stride in (1, 7, 90)]
    assert [len(res.trace) for res in runs] == [91, 14, 2]
    for res in runs[1:]:
        assert res.sum_y.tobytes() == runs[0].sum_y.tobytes()
        assert res.phis.tobytes() == runs[0].phis.tobytes()
    assert runs[0].gap < 1e-7


def test_config_validation():
    # budgets and the seed are integers; gaps, limits and delta real numbers
    for bad in (
        dict(max_iters=2.5), dict(max_iters=True), dict(checkpoint_stride=2.0),
        dict(seed="3"), dict(seed=1.0), dict(seed=None), dict(target_gap="1"),
        dict(target_gap=False), dict(delta=True), dict(delta="1e-9"),
        dict(wall_clock_limit=True), dict(wall_clock_limit="5"),
    ):
        with pytest.raises(ValueError):
            SolveConfig(**bad)
    for bad in (dict(max_major=2.5), dict(max_major=True), dict(delta="1e-9"), dict(delta=True)):
        with pytest.raises(ValueError):
            ProjectionParams(**bad)
    cfg = SolveConfig(max_iters=np.int64(7), checkpoint_stride=np.int32(2), seed=np.int64(3),
                      target_gap=1, wall_clock_limit=np.float32(0.5))
    assert (cfg.max_iters, cfg.checkpoint_stride, cfg.seed) == (7, 2, 3)
    assert type(cfg.max_iters) is int and type(cfg.seed) is int
    assert (cfg.target_gap, cfg.wall_clock_limit) == (1.0, 0.5)
    assert type(cfg.target_gap) is float
    assert ProjectionParams(max_major=np.int64(5)).max_major == 5
    res = solve(_edge_instance(), SolveConfig(max_iters=np.int64(3), seed=np.int64(0)))
    assert res.iterations == 3
    with pytest.raises(ValueError):
        SolveConfig(algorithm="sgd")
    with pytest.raises(ValueError):
        SolveConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolveConfig(target_gap=-1.0)
    with pytest.raises(ValueError):
        SolveConfig(checkpoint_stride=0)
    with pytest.raises(ValueError):
        SolveConfig(projection="newton")
    for delta in (0.0, math.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            SolveConfig(delta=delta)
    with pytest.raises(ValueError):
        SolveConfig(wall_clock_limit=-0.5)


def test_negative_seed_rejected():
    for seed in (-1, np.int64(-5)):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SolveConfig(seed=seed)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SolveConfig(algorithm="ap", seed=seed)
    assert SolveConfig(seed=0).seed == 0


def test_unconverged_oracle_calls_are_logged(caplog):
    # min(|S|, 5 - |S|) as a table: fw's certificate stalls short of delta
    tbl = {bits: float(min(bin(bits).count("1"), 5 - bin(bits).count("1"))) for bits in range(32)}
    atom = general_oracle(range(5), table=tbl)
    a = np.array([0.9, -0.7, 0.4, -0.1, 0.6])
    single = ProblemInstance(a=a, w=np.ones(5), atoms=(atom,))
    pair = ProblemInstance(a=a, w=np.ones(5), atoms=(atom, hyperedge_cut([0, 1, 2])))
    with caplog.at_level(logging.WARNING, logger="qdsfm"):
        solve(single, SolveConfig(max_iters=1, projection="fw"))
        solve(pair, SolveConfig(algorithm="ap", max_iters=2, projection="fw"))
        solve(single, SolveConfig(max_iters=2, projection="mnp"))  # converges: no warning
    tail = "fw projections stopped before meeting delta (iteration cap or stall)"
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("qdsfm.projection", logging.WARNING, f"1 of 1 {tail}"),
        ("qdsfm.projection", logging.WARNING, f"1 of 2 {tail}"),
    ]
