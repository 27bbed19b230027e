"""Cone projection oracles: exact sweep, active-set, conditional gradient."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qdsfm import projection
from qdsfm.projection import (
    ConePoint,
    ProjectionParams,
    _affine_minimizer_local,
    _BATCH_ENTRIES,
    _bind_sweep,
    _sweep_buffers,
    _sweep_cut_batch,
    _sweep_rows,
    project_cone,
    project_exact,
    project_fw,
    project_mnp,
)
from qdsfm import solvers
from qdsfm.solvers import ProblemInstance, SolveConfig, dual_objective, primal_objective, solve
from qdsfm.submodular import (
    directed_hyperedge_cut,
    general_oracle,
    graph_edge_cut,
    hyperedge_cut,
)


def _h_star_by_grid(atom, wt, a):
    """Optimal cone objective via the proximal identity and grid refinement:
    h* = ‖a‖²_wt − 4·min_z ‖z − wt·a/2‖²_(1/wt) + w·f1(z)²  (local coords)."""
    mem = atom.members_arr
    wl = wt[mem]
    al = a[mem]
    b = 0.5 * wl * al
    metric = 1.0 / wl
    head = atom.head if atom.head is not None else atom.members
    tail = atom.tail if atom.tail is not None else atom.members
    fun = oracles.prox_objective(atom.kind, atom.members, head, tail, atom.weight, b, metric)
    lo = np.full(len(mem), b.min() - 0.1)
    hi = np.full(len(mem), b.max() + 0.1)
    z = oracles.nested_grid_minimize(fun, lo, hi, points=17, rounds=24)
    prox = float(fun(z[None, :])[0])
    return float(np.dot(wl, al * al)) - 4.0 * prox


# ---------------------------------------------------------------------------
# frozen worked examples (unit edge, analytic solutions)


def test_edge_worked_example_all_methods():
    atom = graph_edge_cut(0, 1)
    a = np.array([1.0, 0.0])
    wt = np.ones(2)
    for project in (project_exact, lambda *args: project_mnp(*args), lambda *args: project_fw(*args)):
        point, report = project(atom, wt, a)
        assert np.allclose(point.y, [1 / 3, -1 / 3], atol=1e-9)
        assert point.phi == pytest.approx(1 / 3, abs=1e-9)
        assert report.h == pytest.approx(2 / 3, abs=1e-9)
        d = point.y - a
        assert float(np.dot(wt, d * d)) + point.phi**2 == pytest.approx(2 / 3, abs=1e-9)


def test_edge_symmetric_target():
    atom = graph_edge_cut(0, 1)
    a = np.array([1.0, -1.0])
    point, report = project_exact(atom, np.ones(2), a)
    assert np.allclose(point.y, [2 / 3, -2 / 3], atol=1e-12)
    assert point.phi == pytest.approx(2 / 3)
    assert report.h == pytest.approx(2 / 3)


def test_doubled_target_matches_solver_step():
    # projecting 2·W·a for the worked instance: the one-step dual optimum
    atom = graph_edge_cut(0, 1)
    point, report = project_exact(atom, np.ones(2), np.array([2.0, 0.0]))
    assert np.allclose(point.y, [2 / 3, -2 / 3], atol=1e-12)
    assert point.phi == pytest.approx(2 / 3)
    assert report.h == pytest.approx(8 / 3)


def test_weighted_edge_frozen():
    # w = 4 changes the balance between fidelity and cut penalty
    atom = graph_edge_cut(0, 1, weight=4.0)
    a = np.array([1.0, 0.0])
    point, report = project_exact(atom, np.ones(2), a)
    assert np.allclose(point.y, [4 / 9, -4 / 9], atol=1e-12)
    assert point.phi == pytest.approx(2 / 9)
    assert report.h == pytest.approx(5 / 9)
    mnp_point, mnp_report = project_mnp(atom, np.ones(2), a)
    assert mnp_report.h == pytest.approx(5 / 9, abs=1e-9)
    assert np.allclose(mnp_point.y, point.y, atol=1e-6)


def test_zero_target_is_apex():
    atom = hyperedge_cut([0, 1, 2])
    a = np.zeros(3)
    for project in (project_exact, project_mnp, project_fw):
        point, report = project(atom, np.ones(3), a)
        assert np.allclose(point.y, 0.0)
        assert point.phi == 0.0
        assert report.converged
        assert report.h == 0.0


def test_fw_first_step_is_exact_on_edge():
    atom = graph_edge_cut(0, 1)
    point, report = project_fw(atom, np.ones(2), np.array([1.0, 0.0]), record_history=True)
    # the two-variable line search lands on the optimum immediately
    assert report.h_history[1] == pytest.approx(2 / 3, abs=1e-12)
    assert report.converged


def test_degenerate_atoms_project_to_apex():
    a = np.array([0.7, -0.2, 1.5])
    wt = np.array([1.0, 2.0, 0.5])
    single = hyperedge_cut([1])
    point, _ = project_exact(single, wt, a)
    assert point.phi == 0.0 and np.allclose(point.y, 0.0)
    loop = directed_hyperedge_cut([2], [2], members=[0, 1, 2])
    point, report = project_exact(loop, wt, a)
    assert point.phi == 0.0 and np.allclose(point.y, 0.0)
    assert report.certificate >= -1e-12
    zero_w = hyperedge_cut([0, 1, 2], weight=0.0)
    point, _ = project_exact(zero_w, wt, a)
    assert point.phi == 0.0 and np.allclose(point.y, 0.0)


# ---------------------------------------------------------------------------
# batched exact sweep


def _batch_rows(rng, m, k=300):
    """k rows of size m: random, tied, zero-weight and constant-b rows."""
    a = rng.normal(size=(k, m)) * 2.0
    wt = rng.uniform(0.3, 3.0, size=(k, m))
    weight = rng.choice([0.5, 1.0, 4.0], size=k)
    tied = slice(k // 4, k // 2)
    a[tied] = np.round(a[tied])
    wt[tied] = rng.choice([0.5, 1.0, 2.0], size=wt[tied].shape)
    weight[k // 2 : k // 2 + 5] = 0.0
    a[-5:] = rng.normal(size=(5, 1))  # with a unit metric, max b <= min b
    wt[-5:] = 1.0
    return a, wt, weight


def _sweep_batch(a, wt, weight, with_phi=True, block=None):
    """`_sweep_cut_batch` on a copy of the rows of ``a`` under the metrics ``wt``, with buffers
    for ``block`` rows, or sized as a bound group of these rows has them in a round; returns
    y and φ."""
    k, m = a.shape
    buffers = _sweep_buffers(m, block or min(k, max(1, _BATCH_ENTRIES // m)))
    y = a.copy()
    return y, _sweep_cut_batch(y, _sweep_rows(wt, weight[:, None]), weight, None, buffers, with_phi)


@pytest.mark.parametrize("m", [1, 2, 3, 20, 200])
def test_sweep_batch_matches_scalar_sweep(m):
    rng = np.random.default_rng(m)
    a, wt, weight = _batch_rows(rng, m)
    y, phi = _sweep_batch(a, wt, weight)
    for i in range(len(a)):
        atom = graph_edge_cut(0, 1, weight[i]) if m == 2 else hyperedge_cut(range(m), weight[i])
        y_ref, phi_ref = oracles.sweep_cut_reference(atom, wt[i], a[i])
        assert np.max(np.abs(y[i] - y_ref)) <= 1e-12
        assert abs(phi[i] - phi_ref) <= 1e-12
    idle = (weight == 0.0) | (np.ptp(0.5 * wt * a, axis=1) == 0.0)
    assert idle[-5:].all() and (m == 1 or not idle.all())
    assert np.all(y[idle] == 0.0) and np.all(phi[idle] == 0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 20, 200])
@pytest.mark.parametrize("k", [1, 95, 96, 97, 300])  # the reference sweeps blocks of 96
def test_sweep_batch_is_bitwise_reference(m, k):
    rng = np.random.default_rng(1000 * m + k)
    if k >= 20:
        a, wt, weight = _batch_rows(rng, m, k)
    else:
        a, wt, weight = rng.normal(size=(k, m)), rng.uniform(0.3, 3.0, (k, m)), np.ones(k)
    y, phi = _sweep_batch(a, wt, weight)
    y_ref, phi_ref = oracles.sweep_cut_batch_reference(a, wt, weight)
    assert np.array_equal(y, y_ref) and np.array_equal(phi, phi_ref)
    assert y.tobytes() == y_ref.tobytes() and phi.tobytes() == phi_ref.tobytes()
    # without φ (τ-block chunks take the least φ of their own blocks) y keeps its bits
    y_only, no_phi = _sweep_batch(a, wt, weight, False)
    assert no_phi is None and y_only.tobytes() == y_ref.tobytes()


@pytest.mark.parametrize("m", [1, 2, 20, 200])
def test_sweep_batch_bits_do_not_depend_on_the_block(m):
    # buffers bound for 1, 7, 96 and more than k rows sweep the same rows in blocks of that
    # many, and each row keeps the reference's bits (which sweeps blocks of 96)
    rng = np.random.default_rng(40 + m)
    a, wt, weight = _batch_rows(rng, m, 150)
    y_ref, phi_ref = oracles.sweep_cut_batch_reference(a, wt, weight)
    for block in (1, 7, 96, 151):
        y, phi = _sweep_batch(a, wt, weight, block=block)
        assert y.tobytes() == y_ref.tobytes() and phi.tobytes() == phi_ref.tobytes()


@pytest.mark.parametrize("scale", [1.0, 0.37])
def test_padded_rows_keep_the_bits_of_their_size(scale):
    # rows of 1 to 12 members in one call of width 12, each padded with its last column: every
    # row has the bits of an unpadded call on its own size (and at scale 1 of the reference),
    # with y = +0 at the pads.  Ties, zero weights, one-member rows and rows whose real values
    # are all equal (dead rows, whose pads lead the head side) are among them, and the call
    # raises no RuntimeWarning
    rng = np.random.default_rng(28)
    k, width = 240, 12
    a, wt, weight = _batch_rows(rng, width, k)
    sizes = rng.integers(1, width + 1, k)
    sizes[:width] = np.arange(1, width + 1)
    sizes[-5:] = (1, 2, 7, 11, 12)  # a constant row under a unit metric is dead
    pads = np.arange(width) >= sizes[:, None]
    rows = _sweep_rows(wt, weight[:, None])
    rows[:, pads] = 0.0
    rows[2] /= scale
    y = a.copy()
    buffers = _sweep_buffers(width, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = _sweep_cut_batch(y, rows, weight, pads, buffers)
    assert np.all(y[pads] == 0.0) and not np.signbit(y[pads]).any()
    for m in range(1, width + 1):
        sel = np.flatnonzero(sizes == m)
        alone = _sweep_rows(wt[sel, :m], weight[sel, None])
        alone[2] /= scale
        y_m = a[sel, :m].copy()
        phi_m = _sweep_cut_batch(y_m, alone, weight[sel], None, _sweep_buffers(m, sel.size))
        assert y[sel, :m].tobytes() == y_m.tobytes() and phi[sel].tobytes() == phi_m.tobytes()
        if scale == 1.0:
            y_ref, phi_ref = oracles.sweep_cut_batch_reference(a[sel, :m], wt[sel, :m],
                                                               weight[sel])
            assert y_m.tobytes() == y_ref.tobytes() and phi_m.tobytes() == phi_ref.tobytes()
    # every kind of row is there: ties, zero weights, dead rows of several sizes, live ones
    dead = (weight == 0.0) | np.array([np.ptp(0.5 * wt[i, :m] * a[i, :m]) == 0.0
                                       for i, m in enumerate(sizes)])
    assert (weight == 0.0).any() and (sizes == 1).sum() > 1 and not dead.all()
    assert dead[-5:].all() and np.all(phi[dead] == 0.0) and np.all(y[dead] == 0.0)


def test_sweep_batch_memory_is_bounded():
    # a round's call on 2,000 rows of 20 members sweeps them in place, in blocks of
    # _BATCH_ENTRIES // 20 rows in the bound workspace: it allocates φ, each block's two
    # argsorts (3m indices a row) and NumPy's own scratch (a broadcast operand's buffer and the
    # sorts', under two blocks of values)
    a, wt, weight = _batch_rows(np.random.default_rng(7), 20, 2000)
    block = _BATCH_ENTRIES // 20
    rows, buffers = _sweep_rows(wt, weight[:, None]), _sweep_buffers(20, block)
    _sweep_cut_batch(a.copy(), rows, weight, None, buffers)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _sweep_cut_batch(a, rows, weight, None, buffers)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 20 * block * 8 + 2000 * 8 + 2 * 20 * block * 8
    assert peak <= 1 << 20


def test_sweep_rows_are_bitwise_the_expression():
    # the rows written into one array, against the expression that stacked three temporaries
    def expression(wt, weights):
        metric = 1.0 / wt
        return np.array((0.5 * wt, 2.0 * metric, metric / np.where(weights > 0.0, weights, 1.0)))

    rng = np.random.default_rng(21)
    wt = rng.uniform(0.01, 100.0, size=(40, 7))
    # a group's rows (a weight per row), the layout's (one per entry) and an atom's (a number)
    for wt, weights in ((wt, rng.choice([0.0, 0.25, 1.0, 3.0], size=(40, 1))),
                        (wt, np.ones((40, 1))),
                        (wt, np.repeat(rng.choice([0.0, 0.5, 7.0], size=40), 7).reshape(40, 7)),
                        (wt.ravel(), 0.0), (wt.ravel(), 2.5)):
        assert _sweep_rows(wt, weights).tobytes() == expression(wt, weights).tobytes()


def test_sweep_tables_stay_bounded():
    # a size's buffers for _BATCH_ENTRIES // m rows, as a round of a group of at least that many
    # binds them, hold (26m + 20) values of 8 bytes and 2m + 1 flags a row; they serve blocks of
    # 1, 7 and all their rows at 67 sizes bit for bit, through views that hold no memory
    rng = np.random.default_rng(3)
    for m in range(2, 201, 3):
        rows = _BATCH_ENTRIES // m
        buffers = _sweep_buffers(m, rows)
        assert len(buffers) == rows + 1
        tables, workspace = buffers[0]
        assert sum(t.nbytes for t in tables + workspace) == ((26 * m + 20) * 8 + 2 * m + 1) * rows
        for k in (1, 7, rows):
            a, wt, weight = rng.normal(size=(k, m)), rng.uniform(0.3, 3.0, (k, m)), np.ones(k)
            y_ref, phi_ref = oracles.sweep_cut_batch_reference(a, wt, weight)
            y = a.copy()
            phi = _sweep_cut_batch(y, _sweep_rows(wt, weight[:, None]), weight, None, buffers)
            assert y.tobytes() == y_ref.tobytes() and phi.tobytes() == phi_ref.tobytes()
            assert all(any(np.shares_memory(view, full) for full in tables + workspace)
                       for view in buffers[k])


def test_sweep_tables_are_bound_once_per_group(monkeypatch):
    # 20 hyperedges each of 300, 400 and 500 members (2,400 members in all): one width class,
    # (256, 512], as wide as its largest row, so a solve of 20 rounds binds its buffers once,
    # for min(k, τ, _BATCH_ENTRIES // m) rows of width 500
    calls = []

    def spy(*args):
        calls.append(args)
        return _sweep_buffers(*args)

    monkeypatch.setattr(projection, "_sweep_buffers", spy)
    rng = np.random.default_rng(0)
    n, sizes = 3000, (300, 400, 500)
    atoms = [hyperedge_cut(np.sort(rng.choice(n, m, replace=False)).tolist())
             for m in sizes for _ in range(20)]
    inst = ProblemInstance(a=rng.normal(size=n), w=1.0, atoms=atoms)
    res = solve(inst, SolveConfig(algorithm="ap", projection="exact", max_iters=20 * inst.r))
    assert res.iterations == 20 * inst.r
    assert _BATCH_ENTRIES == 3072
    assert calls == [(500, 6)]  # the budget's rows, under k = 60
    # a class of fewer rows than the budget's gets its k; rcd's opening and chunk binders get
    # τ where it is smaller.  The edges and the 5-member hyperedges share the class of sizes
    # 1-8, as wide as 5
    calls.clear()
    edges = [graph_edge_cut(*rng.choice(40, 2, replace=False).tolist()) for _ in range(150)]
    small = [hyperedge_cut(np.sort(rng.choice(40, 5, replace=False)).tolist()) for _ in range(9)]
    inst = ProblemInstance(a=rng.normal(size=40), w=1.0, atoms=edges + small)
    solve(inst, SolveConfig(algorithm="ap", max_iters=3 * inst.r))
    assert calls == [(5, 159)]
    calls.clear()
    tau = solvers._block_size(inst, SolveConfig())
    assert tau == 19
    solve(inst, SolveConfig(max_iters=3 * inst.r))
    assert calls == [(5, 19), (5, 19)]


@pytest.mark.parametrize("m", [1, 2, 3, 20, 200])
@pytest.mark.parametrize("directed", [False, True])
def test_bound_sweep_is_bitwise_reference(m, directed):
    rng = np.random.default_rng(100 + m)
    a, wt, weight = _batch_rows(rng, m + 1 if directed else m)
    for i in range(len(a)):
        if directed:
            # overlapping head and tail, and a member in neither
            atom = directed_hyperedge_cut(
                range(0, m, 2), range(m // 2, m), members=range(m + 1), weight=weight[i])
        elif m == 2:
            atom = graph_edge_cut(0, 1, weight[i])
        else:
            atom = hyperedge_cut(range(m), weight[i])
        y, phi = _bind_sweep(wt[i], atom.weight, (atom.head_pos, atom.tail_pos))(a[i])
        y_ref, phi_ref = oracles.sweep_cut_reference(atom, wt[i], a[i])
        assert np.array_equal(y, y_ref) and phi == phi_ref


def _round_by_hand(inst):
    """One round of alternating projections from y = 0: split 2Wa by coverage and project
    each block on its own; returns Σy, φ and x."""
    n, psi = inst.n, inst._layout.psi
    covered = psi > 0
    target = np.zeros(n)
    target[covered] = 2.0 * inst.w[covered] * inst.a[covered] / psi[covered]
    sum_y, phis = np.zeros(n), []
    for atom in inst.atoms:
        point, _ = project_cone(atom, psi / inst.w, target)
        sum_y += point.dense(n)
        phis.append(point.phi)
    return sum_y, np.array(phis), inst.a - 0.5 * sum_y / inst.w


def test_ap_round_matches_per_atom_projections(monkeypatch):
    covers = [{0, 1}, {1, 2}, {2, 3, 4}]
    tbl = {bits: float(len(set().union(*(covers[p] for p in range(3) if bits >> p & 1))))
           for bits in range(8)}
    atoms = (
        graph_edge_cut(0, 1, 2.0),
        hyperedge_cut([1, 2, 4], 0.5),
        graph_edge_cut(2, 3),
        directed_hyperedge_cut([0, 1], [4, 5]),
        hyperedge_cut([0, 3, 5]),
        general_oracle([1, 3, 5], table=tbl),
        graph_edge_cut(4, 5, 0.0),
        hyperedge_cut([2, 3, 4, 5], 4.0),
        graph_edge_cut(1, 5, 3.0),
        hyperedge_cut([5]),
        graph_edge_cut(0, 2),
    )
    batch_shapes = []

    def spy(a, rows, weight, pads, buffers, with_phi=True):
        batch_shapes.append(a.shape)
        return _sweep_cut_batch(a, rows, weight, pads, buffers, with_phi)

    monkeypatch.setattr(projection, "_sweep_cut_batch", spy)
    rng = np.random.default_rng(4)
    n = 7  # vertex 6 is in no component
    inst = ProblemInstance(a=rng.normal(size=n), w=rng.uniform(0.5, 2.0, size=n), atoms=atoms)
    res = solve(inst, SolveConfig(algorithm="ap", max_iters=inst.r))
    assert res.iterations == inst.r
    # the five edges and the four hyperedges of 1 to 4 members are one padded class of
    # width 4: one batched call, whatever the sizes
    assert batch_shapes == [(9, 4)]
    sum_y, phis, x = _round_by_hand(inst)
    assert np.max(np.abs(res.sum_y - sum_y)) <= 1e-12
    assert np.max(np.abs(res.phis - phis)) <= 1e-12
    assert np.max(np.abs(res.x - x)) <= 1e-12


def test_first_round_projects_the_blocks_that_can_move(monkeypatch):
    # a = 0 off vertices 0 and 1: from y = 0 a cut block away from them has target ±0 and
    # stays at y_r = +0, φ_r = +0, so ap's first round and rcd's opening project only the
    # blocks that meet supp(2Wa), and the table atom, which exact does not project
    rng = np.random.default_rng(12)
    n = 40
    group = [hyperedge_cut(np.sort(rng.choice(n, 4, replace=False)).tolist(), 1.0 + r / 16)
             for r in range(16)]
    atoms = group + [
        hyperedge_cut([0, 5, 9], 2.0), hyperedge_cut([20, 21, 22], 3.0),
        directed_hyperedge_cut([1], [7, 8]), directed_hyperedge_cut([30], [31, 32]),
        general_oracle([33, 34], table={0: 0.0, 1: 1.0, 2: 1.0, 3: 0.5}),
        graph_edge_cut(0, 35, 0.0), graph_edge_cut(36, 37, 4.0),
    ]
    # the weights name the rows the batched sweep gets: every edge and hyperedge, in one
    # padded class
    names = {atom.weight: r for r, atom in enumerate(atoms) if atom.kind in ("edge", "hyperedge")}
    assert len(names) == 20
    a = np.zeros(n)
    a[:2] = (1.5, -0.7)
    inst = ProblemInstance(a, rng.uniform(0.5, 2.0, n), atoms)
    meets = {r for r, atom in enumerate(atoms) if {0, 1} & set(atom.members)}
    assert meets & set(range(16)) and set(range(16)) - meets
    assert {16, 18, 21} <= meets and not {17, 19, 20, 22} & meets
    batched, scalar = [], []

    def batch_spy(a, rows, weight, pads, buffers, with_phi=True):
        batched.extend(names[w] for w in weight.tolist())
        return _sweep_cut_batch(a, rows, weight, pads, buffers, with_phi)

    def bind_spy(layout, metric, picks, *args, bind=projection.bind_projectors):
        picks = list(picks)
        projectors = bind(layout, metric, picks, *args)

        def spied(r, proj, target, scale=1.0):
            scalar.append(r)
            return proj(target, scale)

        return [partial(spied, r, proj) for r, proj in zip(picks, projectors)]

    monkeypatch.setattr(projection, "_sweep_cut_batch", batch_spy)
    monkeypatch.setattr(projection, "bind_projectors", bind_spy)
    sum_y, phis, x = _round_by_hand(inst)
    for algorithm in ("ap", "rcd"):
        batched.clear(), scalar.clear()
        res = solve(inst, SolveConfig(algorithm=algorithm, max_iters=inst.r))
        assert res.iterations == inst.r and sorted(scalar) == [18, 20]
        assert sorted(batched + scalar) == sorted(meets | {20})
        skipped = sorted(set(range(inst.r)) - meets - {20})
        assert np.all(res.phis[skipped] == 0.0) and not np.signbit(res.phis[skipped]).any()
        assert np.max(np.abs(res.sum_y - sum_y)) <= 1e-12
        assert np.max(np.abs(res.phis - phis)) <= 1e-12
        assert np.max(np.abs(res.x - x)) <= 1e-12
        _, dual = dual_objective(inst, sum_y, phis)
        assert abs(res.gap - (primal_objective(inst, x) - dual)) <= 1e-12
    # the next round projects every block; under mnp every block moves from the first round
    batched.clear(), scalar.clear()
    solve(inst, SolveConfig(algorithm="ap", max_iters=2 * inst.r))
    assert len(batched + scalar) == len(meets) + 1 + inst.r
    for algorithm in ("ap", "rcd"):
        batched.clear(), scalar.clear()
        solve(inst, SolveConfig(algorithm=algorithm, projection="mnp", max_iters=inst.r))
        assert batched == [] and sorted(scalar) == list(range(inst.r))


# ---------------------------------------------------------------------------
# affine subproblem


def test_affine_minimizer_examples():
    wt = np.ones(2)
    a = np.array([1.0, 0.0])
    alpha = _affine_minimizer_local([np.array([1.0, -1.0])], wt, a)
    assert alpha == pytest.approx([1 / 3])
    alpha = _affine_minimizer_local([np.array([1.0, -1.0])], wt, np.zeros(2))
    assert alpha == pytest.approx([0.0])
    alpha = _affine_minimizer_local([np.array([1.0, -1.0]), np.array([-1.0, 1.0])], wt, a)
    assert alpha == pytest.approx([0.25, -0.25])


def test_affine_minimizer_rank_deficient_least_norm():
    wt = np.ones(2)
    a = np.array([1.0, 0.0])
    q = np.array([1.0, -1.0])
    alpha = _affine_minimizer_local([q, q.copy()], wt, a)  # duplicated point
    resid = np.array([[3.0, 3.0], [3.0, 3.0]]) @ alpha - np.array([1.0, 1.0])
    assert np.linalg.norm(resid) <= 1e-8 * 2
    assert alpha[0] == pytest.approx(alpha[1])  # least-norm splits evenly


# ---------------------------------------------------------------------------
# cross-oracle agreement against the grid oracle


@st.composite
def small_projection_cases(draw):
    m = draw(st.integers(2, 3))
    members = tuple(range(m))
    kind = draw(st.sampled_from(["edge", "hyperedge", "directed_hyperedge"]))
    weight = draw(st.sampled_from([0.5, 1.0, 4.0]))
    if kind == "edge" and m == 2:
        atom = graph_edge_cut(0, 1, weight)
    elif kind == "directed_hyperedge":
        head = tuple(sorted(draw(st.sets(st.sampled_from(members), min_size=1))))
        tail = tuple(sorted(draw(st.sets(st.sampled_from(members), min_size=1))))
        atom = directed_hyperedge_cut(head, tail, members, weight)
    else:
        atom = hyperedge_cut(members, weight)
    a = np.array(draw(st.lists(st.floats(-2, 2), min_size=m, max_size=m)))
    wt = np.array(draw(st.lists(st.floats(0.3, 3.0), min_size=m, max_size=m)))
    return atom, wt, a


@settings(max_examples=25, deadline=None)
@given(small_projection_cases())
def test_exact_sweep_matches_grid_oracle(case):
    atom, wt, a = case
    point, report = project_exact(atom, wt, a)
    h_star = _h_star_by_grid(atom, wt, a)
    assert report.h == pytest.approx(h_star, abs=2e-6)
    assert oracles.in_cone(atom, point, tol=1e-7)


@settings(max_examples=25, deadline=None)
@given(small_projection_cases())
def test_mnp_matches_exact(case):
    atom, wt, a = case
    _, exact_report = project_exact(atom, wt, a)
    point, report = project_mnp(atom, wt, a)
    assert abs(report.h - exact_report.h) <= 1e-9 * (1.0 + abs(exact_report.h))
    assert oracles.in_cone(atom, point, tol=1e-7)
    # MAJOR-loop objective never increases
    hs = report.h_history
    for i in range(len(hs) - 1):
        assert hs[i + 1] <= hs[i] + 1e-12 * (1.0 + hs[0])
    if report.converged:
        assert report.certificate >= -ProjectionParams().delta


@settings(max_examples=20, deadline=None)
@given(small_projection_cases())
def test_fw_approaches_exact(case):
    atom, wt, a = case
    _, exact_report = project_exact(atom, wt, a)
    point, report = project_fw(
        atom, wt, a, ProjectionParams(delta=1e-12, max_major=10_000)
    )
    assert report.h - exact_report.h <= 1e-6 * (1.0 + abs(exact_report.h))
    assert report.h >= exact_report.h - 1e-9
    assert oracles.in_cone(atom, point, tol=1e-5)


def test_fw_envelope_small_batch():
    rng = np.random.default_rng(42)
    for _ in range(5):
        m = int(rng.integers(2, 6))
        atom = hyperedge_cut(range(m), weight=float(rng.choice([0.5, 1.0, 2.0])))
        a = rng.uniform(-1.5, 1.5, size=m)
        wt = rng.uniform(0.4, 2.5, size=m)
        _, exact_report = project_exact(atom, wt, a)
        _, report = project_fw(
            atom, wt, a, ProjectionParams(delta=1e-13, max_major=400), record_history=True
        )
        norm_a_sq = float(np.dot(wt, a * a))
        q_sq = oracles.max_base_norm_sq(atom, wt)
        for k, h in enumerate(report.h_history):
            assert h - exact_report.h <= 2.0 * norm_a_sq * q_sq / (k + 2)


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=25, deadline=None)
@given(small_projection_cases(), st.floats(0.0, 5.0))
def test_projection_scales_with_target(case, t):
    atom, wt, a = case
    p1, _ = project_exact(atom, wt, a)
    p2, _ = project_exact(atom, wt, t * a)
    assert np.allclose(p2.y, t * p1.y, atol=1e-9 * (1 + t))
    assert p2.phi == pytest.approx(t * p1.phi, abs=1e-9 * (1 + t))


def test_mnp_on_general_component_agrees_with_fw():
    members = (0, 1, 2)
    covers = [{0, 1}, {1, 2}, {2, 3, 4}]
    tbl = {}
    for bits in range(8):
        u = set()
        for p in range(3):
            if bits >> p & 1:
                u |= covers[p]
        tbl[bits] = float(len(u))
    atom = general_oracle(members, table=tbl)
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.uniform(-2, 2, size=3)
        wt = rng.uniform(0.3, 3.0, size=3)
        p_mnp, r_mnp = project_mnp(atom, wt, a)
        p_fw, r_fw = project_fw(atom, wt, a, ProjectionParams(delta=1e-13, max_major=20_000))
        assert abs(r_mnp.h - r_fw.h) <= 1e-6 * (1 + abs(r_mnp.h))
        assert oracles.in_cone(atom, p_mnp, tol=1e-6)
        assert r_mnp.certificate >= -1e-10 or not r_mnp.converged


def test_unconverged_flag_on_tiny_cap():
    atom = hyperedge_cut(range(6))
    rng = np.random.default_rng(1)
    a = rng.normal(size=6) * 2
    _, report = project_fw(atom, np.ones(6), a, ProjectionParams(delta=1e-14, max_major=1))
    assert not report.converged
    assert report.iterations == 1


def test_dispatch_and_validation():
    atom = hyperedge_cut([0, 1])
    a = np.array([1.0, -0.5])
    _, report = project_cone(atom, np.ones(2), a, ProjectionParams(method="auto"))
    assert report.method == "exact"
    tbl = {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0}
    gen = general_oracle([0, 1], table=tbl)
    _, report = project_cone(gen, np.ones(2), a, ProjectionParams(method="auto"))
    assert report.method == "mnp"
    with pytest.raises(ValueError, match="exact projection requires cut components"):
        project_exact(gen, np.ones(2), a)
    for delta in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            ProjectionParams(delta=delta)
    with pytest.raises(ValueError):
        ProjectionParams(max_major=0)
    with pytest.raises(ValueError):
        ProjectionParams(method="newton")


_CUT = directed_hyperedge_cut([0, 2], [2, 3], members=[0, 2, 3], weight=2.0)
_COVERS = ({0, 1}, {1, 2}, {3})  # F(S) = |union of the covers of S's members|
_TABLE = general_oracle(
    (0, 2, 3),
    table={
        bits: float(len(set().union(*(c for p, c in enumerate(_COVERS) if bits >> p & 1))))
        for bits in range(8)
    },
)


@pytest.mark.parametrize(
    "atom,method",
    [(_CUT, "exact"), (_CUT, "mnp"), (_CUT, "fw"), (_TABLE, "mnp"), (_TABLE, "fw")],
)
def test_entry_points_agree(atom, method):
    # at this seed mnp runs two MAJOR loops on both atoms, so the check on
    # h_history below has two entries to compare
    rng = np.random.default_rng(13)
    a, wt = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
    project = {"exact": project_exact, "mnp": project_mnp, "fw": project_fw}[method]
    point, report = project(atom, wt, a)
    cone_point, cone_report = project_cone(atom, wt, a, ProjectionParams(method=method))
    assert np.array_equal(point.y, cone_point.y) and point.phi == cone_point.phi
    fields = ("method", "converged", "iterations", "certificate", "h")
    assert [getattr(report, f) for f in fields] == [getattr(cone_report, f) for f in fields]
    assert report.method == method
    if method == "mnp":  # recorded by default, one entry per completed MAJOR loop
        assert len(report.h_history) >= max(2, report.iterations)


def test_cone_point_dense_and_feasibility():
    point = ConePoint((1, 3), np.array([0.5, -0.5]), 0.5)
    dense = point.dense(5)
    assert np.allclose(dense, [0.0, 0.5, 0.0, -0.5, 0.0])
    atom = hyperedge_cut([1, 3])
    assert oracles.in_cone(atom, point)
    bad = ConePoint((1, 3), np.array([2.0, -2.0]), 0.5)
    assert not oracles.in_cone(atom, bad)


@pytest.mark.parametrize("scale", [1.0, 0.37])
def test_chunk_projects_every_kind_under_a_scaled_metric(scale):
    # a chunk of every kind of component, projected from one snapshot under scale·metric,
    # against each component's own projection under that metric: y and φ
    covers = [{0, 1}, {1, 2}, {2, 3, 4}]
    tbl = {bits: float(len(set().union(*(covers[p] for p in range(3) if bits >> p & 1))))
           for bits in range(8)}
    atoms = tuple(hyperedge_cut([i, i + 1, i + 3], 1.0 + i % 3) for i in range(8)) + (
        directed_hyperedge_cut([0, 1], [4, 5], weight=2.0),
        general_oracle([1, 3, 5], table=tbl), graph_edge_cut(4, 5, 0.0), hyperedge_cut([5]),
        graph_edge_cut(2, 6, 0.5))
    rng = np.random.default_rng(8)
    inst = ProblemInstance(a=rng.normal(size=11), w=None, atoms=atoms)
    metric, shift = rng.uniform(0.5, 2.0, 11), rng.normal(size=11)
    # τ = 7 of R = 13: the 8 three-member hyperedges, both edges and the one-member hyperedge
    # are one padded class of width 3; the directed hyperedge and the table atom are the rest
    members, order, starts, project = projection.bind_blocks(
        inst._layout, metric, "auto", 1e-12, Counter(), 7)
    assert order.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 8, 9]
    ends = np.append(starts, members.size)
    assert np.diff(ends).tolist() == [3] * 11 + [4, 3]
    y, phis = rng.normal(size=members.size), np.full(13, np.nan)
    picks = np.array([12, 1, 8, 5, 9, 3, 10, 11])  # both kinds, out of order
    before = y.copy()
    pos, mem, change = project(y, phis, shift, picks, scale)
    for r, lo, hi in zip(order.tolist(), ends[:-1], ends[1:]):
        block, size = slice(lo, hi), atoms[r].size
        if r not in picks:
            assert np.array_equal(y[block], before[block]) and np.isnan(phis[r])
            continue
        target = np.zeros(11)
        target[atoms[r].members_arr] = before[block][:size] - shift[atoms[r].members_arr]
        point, _ = project_cone(atoms[r], scale * metric, target,
                                ProjectionParams(delta=1e-12))
        assert np.max(np.abs(y[block][:size] - point.y)) <= 1e-9
        assert abs(phis[r] - point.phi) <= 1e-9
        # a pad repeats the last member and its y is +0
        assert np.all(members[block][size:] == atoms[r].members[-1])
        assert np.all(y[block][size:] == 0.0) and not np.signbit(y[block][size:]).any()
    assert np.array_equal(mem, members[pos]) and np.array_equal(change, y[pos] - before[pos])
    picked = [p for i, r in enumerate(order) if r in picks for p in range(ends[i], ends[i + 1])]
    assert sorted(pos.tolist()) == sorted(picked)
