"""Independent reference implementations used to validate the library.

Everything here is written directly from the set-function definitions and
first principles (enumeration, grid refinement), deliberately sharing no code
with the package under test.  The ``*_reference`` functions are earlier
loop versions of package routines, kept as bitwise judges of the array
versions that replaced them; the solver-step references at the end reuse
the package's projection kernels and judge only the step and its loop.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import Counter

import numpy as np


def cut_value(kind, members, head, tail, weight, S):
    """Reference evaluation of the cut-type set functions on global subset S."""
    s = set(S) & set(members)
    if kind in ("edge", "hyperedge"):
        return math.sqrt(weight) if 0 < len(s) < len(members) else 0.0
    if kind == "directed_hyperedge":
        hits = len(s & set(head)) > 0
        misses = len(set(tail) - s) > 0
        return math.sqrt(weight) if (hits and misses) else 0.0
    raise ValueError(kind)


def lovasz_by_prefix(value_fn, members, x):
    """Lovász extension via the sorted-prefix formula.

    value_fn maps a python set of global indices to F's value; members is the
    incidence set; x is a dense vector.
    """
    idx = sorted(members, key=lambda g: (-x[g], g))
    total = 0.0
    prefix: set[int] = set()
    for j, g in enumerate(idx):
        prefix.add(g)
        val = value_fn(prefix)
        nxt = x[idx[j + 1]] if j + 1 < len(idx) else 0.0
        total += val * (x[g] - nxt)
    return total


def greedy_vertices(value_fn, members):
    """All greedy vertices of the base polytope (one per member ordering)."""
    out = []
    for perm in itertools.permutations(members):
        q = np.zeros(max(members) + 1)
        prefix: set[int] = set()
        prev = 0.0
        for g in perm:
            prefix.add(g)
            cur = value_fn(prefix)
            q[g] = cur - prev
            prev = cur
        out.append(q)
    return out


def min_linear_over_base(value_fn, members, c):
    """Brute-force min of <c, q> over all greedy vertices."""
    best = math.inf
    best_q = None
    for q in greedy_vertices(value_fn, members):
        v = float(np.dot(c[: len(q)], q))
        if v < best - 1e-15:
            best = v
            best_q = q
    return best, best_q


def atom_value_fn(atom):
    """F of a cut or table atom on a set of global indices, read from the
    atom's fields: ``cut_value`` for cuts, the bitmask table for tables."""
    if atom.kind == "table":
        pos = {g: p for p, g in enumerate(atom.members)}
        return lambda S: atom.weight * atom.table[sum(1 << pos[g] for g in S if g in pos)]
    head = atom.head if atom.head is not None else atom.members
    tail = atom.tail if atom.tail is not None else atom.members
    return lambda S: cut_value(atom.kind, atom.members, head, tail, atom.weight, S)


def in_base_polytope(value_fn, members, y, tol=1e-9):
    """Direct subset-inequality check for y ∈ B."""
    members = sorted(members)
    for r in range(len(members) + 1):
        for combo in itertools.combinations(members, r):
            s = set(combo)
            ys = float(sum(y[g] for g in s))
            fv = value_fn(s)
            if s == set(members):
                if abs(ys - fv) > tol:
                    return False
            elif ys > fv + tol:
                return False
    return True


def in_cone(atom, point, tol=1e-8):
    """φ ≥ 0 and y ∈ φ·B for a projection's (members, y, φ), judged by
    ``in_base_polytope``; a point at the apex (φ ≈ 0) must have y ≈ 0."""
    if point.phi < -tol:
        return False
    if point.phi <= tol:
        return bool(np.max(np.abs(point.y), initial=0.0) <= tol)
    y = dict(zip(point.members, point.y / point.phi))
    return in_base_polytope(atom_value_fn(atom), atom.members, y, tol=tol)


def nested_grid_minimize(fun, lo, hi, points=17, rounds=25, shrink=0.6):
    """Nested grid refinement for a smooth strongly convex function on a box.

    Evaluates fun on a full cartesian grid (vectorized: fun takes an
    (M, n) matrix and returns length-M values), re-centers on the best
    point, and shrinks the half-width each round while clipping to the
    previous box.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    center = (lo + hi) / 2
    half = (hi - lo) / 2
    best_x = center.copy()
    n = len(lo)
    for _ in range(rounds):
        axes = [np.linspace(center[d] - half[d], center[d] + half[d], points) for d in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        np.clip(mesh, lo, hi, out=mesh)
        vals = fun(mesh)
        best_x = mesh[int(np.argmin(vals))].copy()
        center = best_x
        half = half * shrink
    return best_x


def qdsfm_primal_batch(atoms_spec, a, w_diag):
    """Vectorized reference primal objective for cut-atom instances.

    atoms_spec: list of (kind, members, head, tail, weight).  Returns a
    function mapping an (M, n) matrix of candidate x rows to objective values,
    computed purely from the definitions (weighted norm + squared Lovász
    extensions of cut functions via max/min closed forms evaluated per row).
    """
    a = np.asarray(a, dtype=float)
    w = np.asarray(w_diag, dtype=float)

    def fun(X):
        vals = ((X - a) ** 2 @ w).astype(float)
        for kind, members, head, tail, weight in atoms_spec:
            cols = X[:, list(members)]
            if kind in ("edge", "hyperedge"):
                f = cols.max(axis=1) - cols.min(axis=1)
            else:
                f = X[:, list(head)].max(axis=1) - X[:, list(tail)].min(axis=1)
                f = np.maximum(f, 0.0)
            vals += weight * f * f
        return vals

    return fun


def prox_objective(kind, members, head, tail, weight, b, metric):
    """Reference objective ‖z−b‖²_metric + F-cut(z)² used to cross-check cone
    projections through the primal-proximal identity."""
    b = np.asarray(b, dtype=float)
    metric = np.asarray(metric, dtype=float)
    mem = list(members)
    hd = list(head) if head is not None else mem
    tl = list(tail) if tail is not None else mem

    def fun(Z):
        d = Z - b
        vals = (d * d) @ metric
        f = Z[:, [mem.index(g) for g in hd]].max(axis=1) - Z[:, [mem.index(g) for g in tl]].min(axis=1)
        f = np.maximum(f, 0.0)
        return vals + weight * f * f

    return fun


def max_base_norm_sq(atom, wt):
    """Q² = max_{q ∈ B} ‖q‖²_wt for a cut atom, by scanning every greedy
    vertex: the maximum of a convex function over B sits at a vertex."""
    vertices = greedy_vertices(atom_value_fn(atom), atom.members)
    return max(float(np.dot(wt[: len(q)], q * q)) for q in vertices)


def sweep_cut_reference(atom, wt, a):
    """Exact cone projection for cut components, recomputing everything
    from the atom and the metric on each call: the judge that the package's
    bound sweep (``projection._bind_sweep``) must match bit for bit.

    Reduces to the proximal problem min_z ‖z − b‖²_M + w·f₁(z)² with
    b = W̃a/2 and M = W̃⁻¹ (f₁ the unit-weight cut extension), solved by a
    two-pointer sweep that caps head values at γ and floors tail values at δ
    while walking the balanced path dδ = −(w_H/w_T)dγ; recovery is
    y = a − 2Mz, φ = 2√w·f₁(z).
    """
    m = atom.size
    w = atom.weight
    if m == 1 or w == 0.0:
        return np.zeros(m), 0.0
    metric = 1.0 / wt
    b = 0.5 * wt * a
    hp, tp = atom.head_pos, atom.tail_pos
    bh = b[hp]
    bt = b[tp]
    gamma = float(np.max(bh))
    delta = float(np.min(bt))
    if gamma <= delta:
        return np.zeros(m), 0.0

    mw = metric / w
    oh = np.argsort(-bh, kind="stable")
    hvals = bh[oh].tolist()
    hmass = mw[hp[oh]].tolist()
    ot = np.argsort(bt, kind="stable")
    tvals = bt[ot].tolist()
    tmass = mw[tp[ot]].tolist()
    nh, nt = len(hvals), len(tvals)

    # absorb the arg-extreme ties
    ih = 0
    wH = 0.0
    sH = 0.0
    while ih < nh and hvals[ih] == gamma:
        wH += hmass[ih]
        sH += hmass[ih] * hvals[ih]
        ih += 1
    it = 0
    wT = 0.0
    while it < nt and tvals[it] == delta:
        wT += tmass[it]
        it += 1

    while True:
        gn = hvals[ih] if ih < nh else None
        dn = tvals[it] if it < nt else None
        if gn is None and dn is None:
            break
        cand_t = gamma - (dn - delta) * wT / wH if dn is not None else None
        if cand_t is None or (gn is not None and gn >= cand_t):
            g_c = gn
            d_c = delta + (gamma - gn) * wH / wT
            from_head = True
        else:
            g_c = cand_t
            d_c = dn
            from_head = False
        if (g_c - d_c) + wH * g_c - sH <= 0.0:
            break
        gamma, delta = g_c, d_c
        if from_head:
            while ih < nh and hvals[ih] == gn:
                wH += hmass[ih]
                sH += hmass[ih] * hvals[ih]
                ih += 1
        else:
            while it < nt and tvals[it] == dn:
                wT += tmass[it]
                it += 1

    grad = (gamma - delta) + wH * gamma - sH
    denom = wH * wT + wH + wT
    gs = gamma - grad * wT / denom
    ds = delta + grad * wH / denom

    z = b.copy()
    z[hp] = np.minimum(z[hp], gs)
    z[tp] = np.maximum(z[tp], ds)
    f1 = max(0.0, float(np.max(z[hp])) - float(np.min(z[tp])))
    y = a - 2.0 * metric * z
    phi = 2.0 * math.sqrt(w) * f1
    return y, phi


def sweep_cut_batch_reference(a, wt, weight):
    """Exact cone projection for k undirected cut atoms of one size m at once,
    recomputing the metric rows on every call and building every index table
    and side array afresh: the judge that the package's batched sweep
    (``projection._sweep_cut_batch``) must match bit for bit.

    ``a`` and ``wt`` are k × m (targets and metrics in local coordinates),
    ``weight`` holds the k atom weights; returns y (k × m) and φ (k).  Row i
    solves the proximal problem of `sweep_cut_reference`, in blocks of 96 rows.
    """
    y = np.empty(a.shape)
    phi = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], 96):
        rows = slice(lo, lo + 96)
        y[rows], phi[rows] = _sweep_cut_block_reference(a[rows], wt[rows], weight[rows])
    return y, phi


def _sweep_cut_block_reference(a, wt, weight):
    """One block of `sweep_cut_batch_reference`.

    A flow t moves metric mass from the head side, where values above the
    cap γ are lowered to it, to the tail side, where values below the floor
    δ are raised to it.  Each side's breakpoints are the flows at which its
    sorted values join the clipped set; between breakpoints γ(t) and δ(t)
    are linear, with slopes −1/w_H and 1/w_T (w the clipped mass).  The
    balance γ(t) − δ(t) − t falls in t.  It is evaluated at the merged
    breakpoints of both sides; the last positive one fixes the clipped sets,
    and on that piece the balance is zero at t*.
    """
    k, m = a.shape
    metric = 1.0 / wt
    b = 0.5 * wt * a
    mw = metric / np.where(weight > 0.0, weight, 1.0)[:, None]
    rows = np.arange(k)[:, None]
    order = np.argsort(b, axis=1, kind="stable") + m * rows
    vt, mt = b.take(order), mw.take(order)
    live = (weight > 0.0) & (vt[:, -1] > vt[:, 0])
    # both sides as descending rows: head values, then negated tail values.
    # Past a breakpoint (value v, flow f, clipped mass w) a side's level is
    # v − (t − f)/w: γ on the head side and −δ on the tail side, so γ − δ is
    # the sum of the two levels
    signed = np.concatenate((vt[:, ::-1], -vt), axis=1).reshape(k, 2, m)
    mass = np.cumsum(np.concatenate((mt[:, ::-1], mt), axis=1).reshape(k, 2, m), axis=2)
    flows = np.zeros((k, 2, m))
    np.cumsum(-np.diff(signed, axis=2) * mass[:, :, :-1], axis=2, out=flows[:, :, 1:])
    signed, mass, flows = (arr.reshape(k, 2 * m) for arr in (signed, mass, flows))
    # each side's flows rise with its index, so in the stable merged order the
    # entry at p with side index q has q of its own side and p − q of the
    # other side before it
    merged = np.argsort(flows, axis=1, kind="stable")
    own = merged + 2 * m * rows
    side_index, other_side = np.tile(np.arange(m), 2), np.repeat([m, 0], m)
    seen = np.arange(2 * m) - side_index[merged]
    other = np.maximum(seen - 1, 0) + other_side[merged] + 2 * m * rows
    t = flows.take(own)
    t_other = flows.take(other)
    balance = signed.take(own) + signed.take(other) - (t - t_other) / mass.take(other) - t
    # the final entry's balance is never positive (one side is fully clipped)
    last = np.maximum(np.argmax(balance <= 0.0, axis=1) - 1, 0)[:, None]
    e0, e1 = own[rows, last], other[rows, last]
    s0, t0, w0 = signed.take(e0), flows.take(e0), mass.take(e0)
    s1, t1, w1 = signed.take(e1), flows.take(e1), mass.take(e1)
    flow = (s0 + s1 + t0 / w0 + t1 / w1) / (1.0 + 1.0 / w0 + 1.0 / w1)
    level0, level1 = s0 - (flow - t0) / w0, s1 - (flow - t1) / w1
    head = merged[rows, last] < m
    cap = np.where(head, level0, level1)
    floor = -np.where(head, level1, level0)
    z = np.maximum(np.minimum(b, cap), floor)
    # z is monotone in b, so its spread comes from the extreme values
    top = np.maximum(np.minimum(vt[:, -1:], cap), floor)
    bottom = np.maximum(np.minimum(vt[:, :1], cap), floor)
    y = a - 2.0 * metric * z
    phi = 2.0 * np.sqrt(weight) * np.maximum(0.0, top - bottom)[:, 0]
    y[~live] = 0.0
    phi[~live] = 0.0
    return y, phi


def cheeger_sweep_reference(hg, w, x):
    """The prefix sweep walked one vertex at a time, each incidence updating
    its hyperedge's count: the judge that ``applications.cheeger_sweep``
    must match bit for bit.  ``w`` is None or a per-vertex vector.  Returns
    (order, conductances, best_index)."""
    if hg.r == 0:
        raise ValueError("cannot sweep a hypergraph with no hyperedges")
    if hg.n < 2:
        raise ValueError("need at least two vertices to form a cut")
    wdiag = np.ones(hg.n) if w is None else np.asarray(w, dtype=float)
    scores = np.asarray(x, dtype=float) / np.sqrt(wdiag)
    order = np.argsort(-scores, kind="stable")

    incident: list[list[int]] = [[] for _ in range(hg.n)]
    sizes = np.empty(hg.r, dtype=int)
    for e_idx, edge in enumerate(hg.edges):
        sizes[e_idx] = edge.size
        for v in edge.members:
            incident[v].append(e_idx)

    degrees = np.zeros(hg.n)
    for edge in hg.edges:
        degrees[list(edge.members)] += 1.0
    vol_total = float(degrees.sum())
    counts = np.zeros(hg.r, dtype=int)
    crossing = 0
    vol_in = 0.0
    conductances = np.empty(hg.n - 1)
    for j, v in enumerate(order[:-1]):
        for e_idx in incident[v]:
            counts[e_idx] += 1
            if sizes[e_idx] > 1:
                if counts[e_idx] == 1:
                    crossing += 1
                if counts[e_idx] == sizes[e_idx]:
                    crossing -= 1
        vol_in += degrees[v]
        denom = min(vol_in, vol_total - vol_in)
        conductances[j] = crossing / denom if denom > 0 else np.inf
    best = int(np.argmin(conductances))
    return order, conductances, best + 1


def synthetic_hypergraph_reference(
    n, within_per_cluster, across, edge_size, labeled_per_cluster, seed
):
    """The two-cluster generator's draws, one hyperedge at a time: the judge
    that ``applications.generate_synthetic_hypergraph`` must match exactly.
    Returns (member tuples, labels dict, truth)."""
    half = n // 2
    rng = np.random.default_rng(seed)
    edges = []
    for start in (0, half):
        for _ in range(within_per_cluster):
            members = rng.choice(half, size=edge_size, replace=False) + start
            edges.append(tuple(sorted(int(v) for v in members)))
    for _ in range(across):
        members = rng.choice(n, size=edge_size, replace=False)
        edges.append(tuple(sorted(int(v) for v in members)))
    truth = np.zeros(n, dtype=int)
    truth[half:] = 1
    labels: dict[int, int] = {}
    for start, klass in ((0, 0), (half, 1)):
        picks = rng.choice(half, size=labeled_per_cluster, replace=False) + start
        for v in picks:
            labels[int(v)] = klass
    return edges, labels, truth


def weighted_degrees_reference(hg):
    """Σ of incident edge weights, accumulated edge by edge."""
    d = np.zeros(hg.n)
    for edge in hg.edges:
        d[list(edge.members)] += edge.weight
    return d


def adjacency_multiply_reference(hg, v):
    """(A·v) for a graph-shaped hypergraph, accumulated edge by edge."""
    out = np.zeros(hg.n)
    for edge in hg.edges:
        i, j = edge.members
        out[i] += edge.weight * v[j]
        out[j] += edge.weight * v[i]
    return out


def _atom_json(atom):
    entry = {"type": atom.kind, "members": list(atom.members), "weight": atom.weight}
    if atom.kind == "directed_hyperedge":
        entry["head"] = list(atom.head)
        entry["tail"] = list(atom.tail)
    elif atom.kind == "table":
        entry["table"] = {str(k): v for k, v in sorted(atom.table.items())}
    return entry


def _write_json(payload, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def write_instance_json(instance, path):
    """Write an instance file (anchor, vertex weights, components)."""
    _write_json(
        {
            "a": instance.a.tolist(),
            "w": instance.w.tolist(),
            "atoms": [_atom_json(atom) for atom in instance.atoms],
        },
        path,
    )


def write_hypergraph_json(hg, path):
    """Write a hypergraph file (vertex count and cut components)."""
    _write_json({"n": hg.n, "edges": [_atom_json(edge) for edge in hg.edges]}, path)


# ---------------------------------------------------------------------------
# the dual steps and solve loop before the τ-block step.  Unlike the judges
# above, these reuse the package's projection kernels and layout: they judge
# only the step and the loop around them.


def rcd_steps_reference(instance, config, tally):
    """Randomized coordinate descent one block per step, under the metric
    W⁻¹, drawing components 4096 at a time: the paper's RCD, whose solutions
    ``solvers.solve``'s τ-block ``rcd`` must match within the certified gap.
    Returns (step, resync), each taking (sum_y, phis) and updating in place."""
    from qdsfm.projection import bind_projectors

    n, layout = instance.n, instance._layout
    incidence, ends = layout.incidence, layout.ends.tolist()
    mems = [incidence[lo:hi] for lo, hi in zip(ends, ends[1:])]
    base_flat = instance._two_wa[incidence]
    base = [base_flat[lo:hi] for lo, hi in zip(ends, ends[1:])]
    projectors = bind_projectors(layout, instance.winv, range(instance.r),
                                 config.projection, config.delta, tally)
    ys = [np.zeros(mem.size) for mem in mems]
    rng = np.random.default_rng(config.seed)

    def draws():
        while True:
            yield from rng.integers(0, instance.r, size=4096).tolist()

    draw = draws()

    def step(sum_y, phis):
        r = next(draw)
        mem = mems[r]
        y_new, phis[r] = projectors[r](base[r] - sum_y[mem] + ys[r])
        sum_y[mem] += y_new - ys[r]
        ys[r] = y_new

    def resync(sum_y, phis):
        sum_y[:] = np.bincount(incidence, weights=np.concatenate(ys), minlength=n)

    return step, resync


def ap_steps_reference(instance, config, tally):
    """One round of alternating projections: every block re-projected from
    one snapshot under the metric Ψ·W⁻¹, each large exact group as one
    `sweep_cut_batch_reference` call, the others through ``bind_projectors``,
    and Σy re-accumulated in that order: the judge that ``solvers.solve``
    must match bit for bit under ``ap``.  Returns (step, None)."""
    from qdsfm.projection import _BATCH_MIN_ROWS, _choose_oracle, bind_projectors

    n, two_wa, layout, atoms = instance.n, instance._two_wa, instance._layout, instance.atoms
    psi, covered = layout.psi, layout.psi > 0
    metric = psi / instance.w
    batched, rest = [], list(layout.rest)
    for rows, matrix, weights in layout.groups:
        if len(rows) >= _BATCH_MIN_ROWS and _choose_oracle(atoms[rows[0]].is_cut, config.projection) == "exact":
            batched.append((rows, matrix, metric[matrix], weights))
        else:
            rest.extend(rows.tolist())
    rest.sort()
    members = np.concatenate([g[1].ravel() for g in batched] + [atoms[r].members_arr for r in rest])
    ends = np.cumsum([0] + [g[1].size for g in batched] + [atoms[r].size for r in rest]).tolist()
    blocks = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
    projectors = bind_projectors(layout, metric, rest, config.projection, config.delta,
                                 tally) if rest else []
    y = np.zeros(members.size)

    def step(sum_y, phis):
        s = np.zeros(n)
        np.divide(sum_y - two_wa, psi, out=s, where=covered)
        np.subtract(y, s[members], out=y)
        for (rows, _, wt_g, weights), block in zip(batched, blocks):
            y_g, phis[rows] = sweep_cut_batch_reference(y[block].reshape(wt_g.shape), wt_g,
                                                        weights)
            y[block] = y_g.ravel()
        for r, block, project in zip(rest, blocks[len(batched):], projectors):
            y[block], phis[r] = project(y[block])
        sum_y[:] = np.bincount(members, weights=y, minlength=n)

    return step, None


def block_steps_reference(instance, config, tally, tau):
    """The plain τ-block step: each epoch splits a fresh permutation into
    ⌈R/τ⌉ near-equal chunks, and a chunk replaces its blocks by the
    projections of y_r − ((Σy − 2Wa)/β)[S_r] under the metric β·W⁻¹ (β from
    the largest chunk), Σy updated by one bincount, and the resync sets each
    block's least φ (positive mass over √w): the judge of the first chunk of
    ``solvers``' accelerated step after every start or restart, and the pace
    it must beat.  Returns (step, resync, y), ``y`` every block laid out like
    the binder's members."""
    from qdsfm.projection import bind_blocks

    n, big_r, layout, two_wa = instance.n, instance.r, instance._layout, instance._two_wa
    count = -(-big_r // tau)
    bounds = [big_r * j // count for j in range(count + 1)]
    largest = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    beta = np.maximum(1.0 + (layout.psi - 1.0) * (largest - 1) / max(big_r - 1, 1), 1.0)
    members, _, project = bind_blocks(layout, beta / instance.w,
                                      config.projection, config.delta, tally, tau)
    y = np.zeros(members.size)
    rng = np.random.default_rng(config.seed)

    def chunks():
        while True:
            perm = rng.permutation(big_r)
            for lo, hi in zip(bounds, bounds[1:]):
                yield perm[lo:hi]

    chunk = chunks()

    def step(sum_y, phis):
        _, mem, change = project(y, phis, (sum_y - two_wa) / beta, next(chunk))
        sum_y += np.bincount(mem, change, minlength=n)

    def resync(sum_y, phis):
        sum_y[:] = np.bincount(members, weights=y, minlength=n)
        lo = 0  # the binder lays the batched groups out in the layout's order
        for rows, matrix, weights in layout.groups:
            block = np.maximum(y[lo:lo + matrix.size], 0.0).reshape(matrix.shape)
            phis[rows] = block.sum(axis=1) / np.sqrt(np.where(weights > 0.0, weights, 1.0))
            lo += matrix.size

    return step, resync, y


def solve_reference(instance, config):
    """The solve loop with steps of one projection (``rcd``) or one round of
    R projections (``ap``), the budget and the checkpoint stride rounded
    down to whole steps: the judge that ``solvers.solve`` must match bit for
    bit under ``ap``, and within the certified gap under ``rcd``, whose steps
    are chunks.  Returns (x, sum_y, phis, iterations, trace rows without
    seconds)."""
    from qdsfm.solvers import TraceRow, evaluate_dual_state

    big_r = instance.r
    per_step = big_r if config.algorithm == "ap" else 1
    budget = config.max_iters if config.max_iters is not None else 100 * big_r
    stride = config.checkpoint_stride if config.checkpoint_stride is not None else big_r
    steps = max(1, budget // per_step) if budget > 0 and big_r > 0 else 0
    stride_steps = max(1, stride // max(per_step, 1))
    bind = ap_steps_reference if config.algorithm == "ap" else rcd_steps_reference
    step, resync = bind(instance, config, Counter()) if big_r else (None, None)
    sum_y, phis = np.zeros(instance.n), np.zeros(big_r)
    t0 = time.perf_counter()
    state = evaluate_dual_state(instance, sum_y, phis)
    trace = [TraceRow(0, state.primal, state.dual, state.gap, 0.0)]
    target, limit = config.target_gap, config.wall_clock_limit
    converged = target is not None and state.gap <= target
    done = 0
    while not converged and done < steps:
        step(sum_y, phis)
        done += 1
        out_of_time = limit is not None and time.perf_counter() - t0 >= limit
        if done % stride_steps == 0 or done == steps or out_of_time:
            if resync is not None:
                resync(sum_y, phis)
            state = evaluate_dual_state(instance, sum_y, phis)
            trace.append(TraceRow(done * per_step, state.primal, state.dual, state.gap, 0.0))
            if target is not None and state.gap <= target:
                converged = True
            elif limit is not None and time.perf_counter() - t0 >= limit:
                break
    return state.x, sum_y, phis, done * per_step, [row[:4] for row in trace]
