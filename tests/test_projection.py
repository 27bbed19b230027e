"""Cone projection oracles: exact sweep, active-set, conditional gradient."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qdsfm import projection
from qdsfm.projection import (
    ConePoint,
    ProjectionParams,
    _affine_minimizer_local,
    _BATCH_ROWS,
    _bind_sweep,
    _sweep_cut_batch,
    _sweep_rows,
    project_cone,
    project_exact,
    project_fw,
    project_mnp,
)
from qdsfm.solvers import ProblemInstance, SolveConfig, solve
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


@pytest.mark.parametrize("m", [1, 2, 3, 20, 200])
def test_sweep_batch_matches_scalar_sweep(m):
    rng = np.random.default_rng(m)
    a, wt, weight = _batch_rows(rng, m)
    y, phi = _sweep_cut_batch(a, _sweep_rows(wt, weight[:, None]), weight)
    for i in range(len(a)):
        atom = graph_edge_cut(0, 1, weight[i]) if m == 2 else hyperedge_cut(range(m), weight[i])
        y_ref, phi_ref = oracles.sweep_cut_reference(atom, wt[i], a[i])
        assert np.max(np.abs(y[i] - y_ref)) <= 1e-12
        assert abs(phi[i] - phi_ref) <= 1e-12
    idle = (weight == 0.0) | (np.ptp(0.5 * wt * a, axis=1) == 0.0)
    assert idle[-5:].all() and (m == 1 or not idle.all())
    assert np.all(y[idle] == 0.0) and np.all(phi[idle] == 0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 20, 200])
@pytest.mark.parametrize("k", [1, _BATCH_ROWS - 1, _BATCH_ROWS, _BATCH_ROWS + 1, 300])
def test_sweep_batch_is_bitwise_reference(m, k):
    rng = np.random.default_rng(1000 * m + k)
    if k >= 20:
        a, wt, weight = _batch_rows(rng, m, k)
    else:
        a, wt, weight = rng.normal(size=(k, m)), rng.uniform(0.3, 3.0, (k, m)), np.ones(k)
    y, phi = _sweep_cut_batch(a, _sweep_rows(wt, weight[:, None]), weight)
    y_ref, phi_ref = oracles.sweep_cut_batch_reference(a, wt, weight)
    assert np.array_equal(y, y_ref) and np.array_equal(phi, phi_ref)
    assert y.tobytes() == y_ref.tobytes() and phi.tobytes() == phi_ref.tobytes()
    # without φ (τ-block chunks take the least φ of their own blocks) y keeps its bits
    y_only, no_phi = _sweep_cut_batch(a, _sweep_rows(wt, weight[:, None]), weight, False)
    assert no_phi is None and y_only.tobytes() == y_ref.tobytes()


def test_sweep_batch_memory_is_bounded():
    # one call on 2,000 rows of 20 members holds its outputs (336 KB) and the
    # temporaries of one block at a time; large blocks page-fault (_BATCH_ROWS)
    a, wt, weight = _batch_rows(np.random.default_rng(7), 20, 2000)
    rows = _sweep_rows(wt, weight[:, None])
    _sweep_cut_batch(a, rows, weight)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _sweep_cut_batch(a, rows, weight)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


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
        y, phi = _bind_sweep(atom, wt[i])(a[i])
        y_ref, phi_ref = oracles.sweep_cut_reference(atom, wt[i], a[i])
        assert np.array_equal(y, y_ref) and phi == phi_ref


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

    def spy(a, rows, weight, with_phi=True):
        batch_shapes.append(a.shape)
        return _sweep_cut_batch(a, rows, weight, with_phi)

    monkeypatch.setattr(projection, "_sweep_cut_batch", spy)
    rng = np.random.default_rng(4)
    n = 7  # vertex 6 is in no component
    inst = ProblemInstance(a=rng.normal(size=n), w=rng.uniform(0.5, 2.0, size=n), atoms=atoms)
    res = solve(inst, SolveConfig(algorithm="ap", max_iters=inst.r))
    assert res.iterations == inst.r
    # the five edges are one batched group; the two 3-member hyperedges are
    # fewer than _BATCH_MIN_ROWS and stay on the scalar sweep
    assert projection._BATCH_MIN_ROWS == 4
    assert batch_shapes == [(5, 2)]
    # the round by hand: split 2Wa by coverage, project each block on its own
    psi = np.zeros(n)
    for atom in atoms:
        psi[atom.members_arr] += 1.0
    covered = psi > 0
    target = np.zeros(n)
    target[covered] = 2.0 * inst.w[covered] * inst.a[covered] / psi[covered]
    sum_y = np.zeros(n)
    phis = []
    for atom in atoms:
        point, _ = project_cone(atom, psi / inst.w, target)
        sum_y += point.dense(n)
        phis.append(point.phi)
    assert np.max(np.abs(res.sum_y - sum_y)) <= 1e-12
    assert np.max(np.abs(res.phis - np.array(phis))) <= 1e-12
    assert np.max(np.abs(res.x - (inst.a - 0.5 * sum_y / inst.w))) <= 1e-12


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
    # τ = 7 of R = 13: the 8 three-member hyperedges are batched (8·7/13 ≥ 4), the rest is scalar
    members, order, project = projection.bind_blocks(
        atoms, inst._layout, metric, "auto", 1e-12, Counter(), 7)
    assert order.tolist() == list(range(13))
    y, phis = rng.normal(size=members.size), np.full(13, np.nan)
    picks = np.array([12, 1, 8, 5, 9, 3, 10, 11])  # both kinds, out of order
    before = y.copy()
    pos, mem, change = project(y, phis, shift, picks, scale)
    ends = np.cumsum([0] + [atoms[r].size for r in order])
    for r in range(13):
        block = slice(ends[r], ends[r + 1])
        if r not in picks:
            assert np.array_equal(y[block], before[block]) and np.isnan(phis[r])
            continue
        target = np.zeros(11)
        target[atoms[r].members_arr] = before[block] - shift[atoms[r].members_arr]
        point, _ = project_cone(atoms[r], scale * metric, target,
                                ProjectionParams(delta=1e-12))
        assert np.max(np.abs(y[block] - point.y)) <= 1e-9
        assert abs(phis[r] - point.phi) <= 1e-9
    assert np.array_equal(mem, members[pos]) and np.array_equal(change, y[pos] - before[pos])
    assert sorted(pos.tolist()) == sorted(p for r in picks for p in range(ends[r], ends[r + 1]))
