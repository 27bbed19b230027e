"""Projection onto cones induced by submodular base polytopes.

For a component with base polytope B and a positive diagonal metric W̃, the
projection of a vector a is

    Π_C(a) = argmin_{(y, φ)}  ‖y − a‖²_W̃ + φ²   s.t.  φ ≥ 0,  y ∈ φ·B.

Three interchangeable oracles are provided:

* ``project_mnp`` — an active-set method over a conic hull of base-polytope
  points, alternating MAJOR steps (add the greedy point that certifies
  descent) and MINOR steps (re-solve the affine coefficient problem and
  retract onto the nonnegative orthant).  Terminates when the certificate
  min_q <y−a, q>_W̃ + φ ≥ −δ holds, which pins the objective within
  δ·‖a‖_W̃ of the optimum.
* ``project_fw`` — conditional-gradient iterations with an exact
  two-variable line search (rescale the current point, blend in the greedy
  point); objective error decays like 2‖a‖²_W̃·Q²/(k+2) with Q the metric
  radius of B.
* ``project_exact`` — a direct two-pointer sweep for cut components
  (edges, hyperedges, directed hyperedges), exact up to roundoff.

The three, and ``project_cone``, which picks one by ``ProjectionParams.method``,
take dense inputs and share one body: it gathers the incidence-set slices,
applies the iteration cap, runs the chosen oracle and reports.  This module
owns the choice of oracle per component and the iteration caps.  The solvers'
binder, ``bind_blocks``, reads the instance's component layout and gives the
τ-block step and the ``ap`` round one callable for any chunk of any components,
which sweeps the chunk's rows of each batched group as one array kernel and
projects every other component through its ``bind_projectors`` callable.  Both
exact sweeps read rows computed once per solve, and a batched group's merge tables
are bound with its rows, so a call repeats no work that depends only on a
component, its size and its metric; each matches, bit for bit, the tests'
reference that recomputes everything on every call.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .submodular import (
    _CUT_KINDS, SubmodularAtom, _as_ints, _frozen, _greedy_local, _Layout, _real, as_diagonal
)

__all__ = [
    "ORACLES",
    "ConePoint",
    "ProjectionParams",
    "ProjectionReport",
    "ProjectionNumericsError",
    "project_mnp",
    "project_fw",
    "project_exact",
    "project_cone",
]

ORACLES = ("auto", "exact", "mnp", "fw")
DEFAULT_DELTA = 1e-10  # oracle certificate tolerance δ, for the library and the CLI

_DEDUP_TOL = 1e-12
_SNAP_TOL = 1e-12
# Rows per block of the batched sweep: at 20 members, 128-row blocks (0.55 MB of
# temporaries) passed glibc's heap-trim threshold and page-faulted every block.
_BATCH_ROWS = 96
# Fewest rows of an equal-size group per chunk, on average, worth one batched sweep: one
# call costs about as much as three or four scalar sweeps, whatever the size (2 to 200 members).
_BATCH_MIN_ROWS = 4

logger = logging.getLogger(__name__)


class ProjectionNumericsError(RuntimeError):
    """Raised when the small affine solve cannot reach its residual tolerance."""


@dataclass(frozen=True)
class ConePoint:
    """A feasible point (y, φ) of the cone {φ ≥ 0, y ∈ φ·B}.

    ``y`` is stored densely over the component's incidence set only.
    """

    members: tuple[int, ...]
    y: np.ndarray
    phi: float

    def dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[list(self.members)] = self.y
        return out


@dataclass(frozen=True)
class ProjectionParams:
    """Tolerance and budget knobs shared by the iterative oracles.

    ``max_major`` caps MAJOR loops for the active-set method and line-search
    iterations for conditional gradient; ``None`` selects the defaults
    100·|S_r| and 100·|S_r|² respectively.

    ``delta`` is a finite real number > 0 and ``max_major`` None or an integer
    ≥ 1 (never a bool, float or string); ``method`` is one of ``ORACLES``.
    """

    delta: float = DEFAULT_DELTA
    max_major: int | None = None
    method: str = "auto"

    def __post_init__(self) -> None:
        delta = _real(self.delta, "delta must be a number")
        if not 0 < delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if self.max_major is not None:
            (max_major,) = _as_ints((self.max_major,), "max_major")
            if max_major < 1:
                raise ValueError("max_major must be at least 1")
            object.__setattr__(self, "max_major", max_major)
        if self.method not in ORACLES:
            raise ValueError(f"unknown projection method {self.method!r}")
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class ProjectionReport:
    method: str
    converged: bool
    iterations: int
    certificate: float
    h: float
    h_history: tuple[float, ...] = field(default=())


# ---------------------------------------------------------------------------
# Affine coefficient subproblem


def _affine_minimizer_local(points: list[np.ndarray], wt: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Solve argmin_α ‖Σ α_i q_i − a‖²_wt + (Σ α_i)² without sign constraints.

    Normal equations: (G + 11ᵀ)α = v with G_ij = <q_i, q_j>_wt and
    v_i = <q_i, a>_wt.  The system is a Gram system and hence always
    consistent; a rank-deficient solve falls back to the least-norm solution.
    """
    Q = np.stack(points)  # k × m
    Gp = Q @ (wt[None, :] * Q).T + 1.0
    v = Q @ (wt * a)
    try:
        alpha = np.linalg.solve(Gp, v)
    except np.linalg.LinAlgError:
        alpha = np.linalg.lstsq(Gp, v, rcond=None)[0]
    resid = float(np.linalg.norm(Gp @ alpha - v))
    if resid > 1e-8 * (1.0 + float(np.linalg.norm(v))):
        alpha = np.linalg.lstsq(Gp, v, rcond=None)[0]
        resid = float(np.linalg.norm(Gp @ alpha - v))
        if resid > 1e-8 * (1.0 + float(np.linalg.norm(v))):
            raise ProjectionNumericsError(
                f"affine subproblem residual {resid:.3e} exceeds tolerance"
            )
    return alpha


# ---------------------------------------------------------------------------
# Active-set (min-norm-point style) oracle


def _h_val(wt: np.ndarray, y: np.ndarray, a: np.ndarray, phi: float) -> float:
    d = y - a
    return float(np.dot(wt, d * d) + phi * phi)


def _mnp_local(
    atom: SubmodularAtom,
    wt: np.ndarray,
    a: np.ndarray,
    delta: float,
    max_major: int,
    record: bool,
) -> tuple[np.ndarray, float, tuple[float, ...], float, bool, int]:
    q1 = _greedy_local(atom, -wt * a)
    lam1 = max(0.0, float(np.dot(wt * a, q1)) / (1.0 + float(np.dot(wt, q1 * q1))))
    points: list[np.ndarray] = [q1]
    lam = np.array([lam1])
    y = lam1 * q1
    phi = lam1
    hist = [_h_val(wt, y, a, phi)] if record else []
    converged = False
    cert = math.nan
    majors = 0
    for majors in range(1, max_major + 1):
        c = wt * (y - a)
        q = _greedy_local(atom, c)
        cert = float(np.dot(c, q)) + phi
        if cert >= -delta:
            converged = True
            break
        # no progress is possible if the greedy point is already active
        if any(float(np.max(np.abs(q - p))) <= _DEDUP_TOL for p in points):
            break
        points.append(q)
        lam = np.append(lam, 0.0)
        # --- MINOR loop: retract the affine optimum onto α ≥ 0 ---
        while True:
            alpha = _affine_minimizer_local(points, wt, a)
            if np.all(alpha >= 0.0):
                lam = alpha
                break
            neg = np.flatnonzero(alpha < 0.0)
            ratios = lam[neg] / (lam[neg] - alpha[neg])
            theta = float(np.min(ratios))  # first index wins ties via argmin order
            lam = lam + theta * (alpha - lam)
            lam[lam <= _SNAP_TOL] = 0.0
            keep = lam > 0.0
            if not np.all(keep):
                points = [p for p, k in zip(points, keep) if k]
                lam = lam[keep]
            if len(points) == 0:
                break  # retracted onto the apex; next MAJOR loop decides
        lam[lam <= _SNAP_TOL] = 0.0
        keep = lam > 0.0
        if not np.all(keep) and np.any(keep):
            points = [p for p, k in zip(points, keep) if k]
            lam = lam[keep]
        y = np.einsum("i,ij->j", lam, np.stack(points)) if len(points) else np.zeros_like(a)
        phi = float(np.sum(lam))
        if record:
            hist.append(_h_val(wt, y, a, phi))
    return y, phi, tuple(hist), cert, converged, majors


# ---------------------------------------------------------------------------
# Conditional-gradient oracle


def _fw_local(
    atom: SubmodularAtom,
    wt: np.ndarray,
    a: np.ndarray,
    delta: float,
    max_iter: int,
    record: bool,
) -> tuple[np.ndarray, float, tuple[float, ...], float, bool, int]:
    m = atom.size
    y = np.zeros(m)
    phi = 0.0
    wta = wt * a
    haa = float(np.dot(wta, a))
    hist = [haa] if record else []
    converged = False
    cert = math.nan
    iters = 0
    for iters in range(1, max_iter + 1):
        wty = wt * y
        c = wty - wta
        q = _greedy_local(atom, c)
        cert = float(np.dot(c, q)) + phi
        if cert >= -delta:
            converged = True
            break
        # exact line search over (γ1, γ2) ≥ 0 for γ1·(y, φ) + γ2·(q, 1)
        a11 = float(np.dot(wty, y)) + phi * phi
        a12 = float(np.dot(wty, q)) + phi
        a22 = float(np.dot(wt, q * q)) + 1.0
        b1 = float(np.dot(y, wta))
        b2 = float(np.dot(q, wta))
        best = (haa, 0.0, 0.0)  # h at the apex

        def consider(g1: float, g2: float) -> None:
            nonlocal best
            h = (
                a11 * g1 * g1
                + 2.0 * a12 * g1 * g2
                + a22 * g2 * g2
                - 2.0 * (b1 * g1 + b2 * g2)
                + haa
            )
            if h < best[0]:
                best = (h, g1, g2)

        det = a11 * a22 - a12 * a12
        if det > 1e-300:
            g1 = (b1 * a22 - b2 * a12) / det
            g2 = (b2 * a11 - b1 * a12) / det
            if g1 >= 0.0 and g2 >= 0.0:
                consider(g1, g2)
        consider(0.0, max(0.0, b2 / a22))
        if a11 > 0.0:
            consider(max(0.0, b1 / a11), 0.0)
        _, g1, g2 = best
        y = g1 * y + g2 * q
        phi = g1 * phi + g2
        if record:
            hist.append(best[0])
    return y, phi, tuple(hist), cert, converged, iters


# the iterative oracles by name; both take (atom, wt, a, δ, cap, record)
_ITERATIVE = {"mnp": _mnp_local, "fw": _fw_local}


# ---------------------------------------------------------------------------
# Exact sweep for cut components


def _sweep_rows(wt: np.ndarray, weights) -> np.ndarray:
    """The exact sweep's rows W̃/2, 2M and M/w (M = W̃⁻¹; a weight w = 0 divides as 1)."""
    rows = np.empty((3,) + wt.shape)
    np.multiply(wt, 0.5, rows[0])
    np.multiply(np.divide(1.0, wt, rows[2]), 2.0, rows[1])
    rows[2] /= np.where(weights > 0.0, weights, 1.0)
    return rows


def _bind_sweep(
    wt: np.ndarray, weight: float, sides: tuple | None = None, rows: np.ndarray | None = None
) -> Callable[[np.ndarray], tuple[np.ndarray, float]]:
    """Exact cone projection for a cut component of weight ``weight`` under the
    metric ``wt``, as a callable target ↦ (y, φ) in local coordinates.  ``sides``
    holds a directed hyperedge's head and tail positions, and is None otherwise.

    Reduces to the proximal problem min_z ‖z − b‖²_M + w·f₁(z)² with
    b = W̃a/2 and M = W̃⁻¹ (f₁ the unit-weight cut extension), solved by a
    two-pointer sweep that caps head values at γ and floors tail values at δ
    while walking the balanced path dδ = −(w_H/w_T)dγ; recovery is
    y = a − 2Mz, φ = 2√w·f₁(z).  The `_sweep_rows` depend only on the
    component and ``wt``, so they are computed here unless given as ``rows``.
    """
    if weight == 0.0:
        return lambda a, scale=1.0: (np.zeros(wt.size), 0.0)
    rows = _sweep_rows(wt, weight) if rows is None else rows
    if sides is not None:
        hp, tp = sides
        sides = (hp, tp, rows[2, hp], rows[2, tp])
    return partial(_sweep, rows, 2.0 * math.sqrt(weight), sides)


def _sweep(
    rows: np.ndarray, root_w: float, sides: tuple | None, a: np.ndarray, scale: float = 1.0
) -> tuple[np.ndarray, float]:
    """The sweep bound by ``_bind_sweep``, under ``scale``·W̃: ``root_w`` is 2√w, and
    ``sides`` None for an undirected atom, else its head and tail positions and masses."""
    b = rows[0] * a
    if sides is None:
        bh = bt = b
        mwh = mwt = rows[2]
    else:
        hp, tp, mwh, mwt = sides
        bh, bt = b[hp], b[tp]
    if scale != 1.0:  # under scale·W̃: the masses at weight scale·w, and φ scaled (below)
        mwh, mwt = mwh / scale, mwt / scale
    oh = np.argsort(-bh, kind="stable")
    hvals = bh[oh].tolist()
    ot = np.argsort(bt, kind="stable")
    tvals = bt[ot].tolist()
    gamma, delta = hvals[0], tvals[0]
    if gamma <= delta:
        return np.zeros(a.size), 0.0
    hmass = mwh[oh].tolist()
    tmass = mwt[ot].tolist()
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

    if sides is None:
        z = np.minimum(b, gs)
        np.maximum(z, ds, out=z)
        # z is monotone in b, so its ends are the clipped ends of b
        f1 = max(0.0, max(min(hvals[0], gs), ds) - max(min(tvals[0], gs), ds))
    else:
        z = b.copy()
        z[hp] = np.minimum(z[hp], gs)
        z[tp] = np.maximum(z[tp], ds)
        f1 = max(0.0, float(np.max(z[hp])) - float(np.min(z[tp])))
    return a - rows[1] * z, scale * root_w * f1


def _sweep_cut_batch(
    a: np.ndarray, rows: np.ndarray, weight: np.ndarray, tables: list, with_phi: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact cone projection for k undirected cut atoms of one size m at once.

    ``a`` is k × m (targets in local coordinates), ``rows`` the atoms' 3 × k × m
    `_sweep_rows`, ``weight`` their k weights and ``tables`` the `_merge_tables` of
    size m for at least min(k, ``_BATCH_ROWS``) rows; returns y (k × m) and φ (k),
    or None unless ``with_phi``.  Row i solves the proximal problem of
    ``_bind_sweep``.  Rows are processed in blocks of ``_BATCH_ROWS`` so the
    working memory stays bounded.
    """
    y = np.empty(a.shape)
    phi = np.empty(a.shape[0]) if with_phi else None
    for lo in range(0, a.shape[0], _BATCH_ROWS):
        block = slice(lo, lo + _BATCH_ROWS)
        _sweep_cut_block(a[block], rows[:, block], weight[block], tables, y[block],
                         None if phi is None else phi[block])
    return y, phi


def _merge_tables(m: int, rows: int) -> list:
    """`_sweep_cut_block`'s read-only tables for blocks of up to ``rows`` rows of m members
    (index k ≥ 1: views of their first k rows, made at first use), each as large as the array
    it meets so no call broadcasts along short rows: per row i the offsets i·m, the sides'
    places in a row's order (the head's reversed) and signs, the offsets i·2m, each entry's
    place, the other side's first less the entry's side index + 1, that first's place, and
    the column i·2m.  They hold (13m + 1)·rows values of 8 bytes."""
    side, block = np.arange(m), np.arange(rows)[:, None, None]
    sided, start, offset = (rows, 2, m), np.array([[m], [0]]), 2 * m * block
    tables = [(m * block[:, 0], (rows, m)), (m * block + np.array((side[::-1], side)), sided),
              (np.array([[1.0], [-1.0]]), sided), (offset[:, 0], (rows, 2 * m)),
              (np.arange(rows * 2 * m).reshape(rows, -1), (rows, 2 * m)),
              (start - side - 1, sided), (start + offset, sided), (offset[:, 0, 0], (rows,))]
    tables = [tuple(_frozen(np.ascontiguousarray(np.broadcast_to(*t))) for t in tables)]
    return tables + [None] * rows


def _sweep_cut_block(
    a: np.ndarray, rows: np.ndarray, weight: np.ndarray, tables: list, y: np.ndarray,
    phi: np.ndarray | None
) -> None:
    """One block of ``_sweep_cut_batch``, written into ``y`` and ``phi`` (if given).

    A flow t moves metric mass from the head side, where values above the
    cap γ are lowered to it, to the tail side, where values below the floor
    δ are raised to it.  Each side's breakpoints are the flows at which its
    sorted values join the clipped set; between breakpoints γ(t) and δ(t)
    are linear, with slopes −1/w_H and 1/w_T (w the clipped mass).  The
    balance γ(t) − δ(t) − t falls in t.  It is evaluated at the merged
    breakpoints of both sides; the last positive one fixes the clipped sets,
    and on that piece the balance is zero at t*.  For small blocks, outputs go by
    position where NumPy allows and arrays are indexed rather than unpacked.
    """
    k, m = a.shape
    tables[k] = tables[k] or tuple(table[:k] for table in tables[0])
    by_m, sides, signs, by_2m, places, lagged, start, offset = tables[k]
    b = rows[0] * a
    order = (b.argsort(axis=1, kind="stable") + by_m).ravel()[sides]
    # both sides as descending rows: head values, then negated tail values.
    # Past a breakpoint (value v, flow f, clipped mass w) a side's level is
    # v − (t − f)/w: γ on the head side and −δ on the tail side, so γ − δ is
    # the sum of the two levels
    buffer = np.empty((3, k, 2, m))
    signed, mass, flows = buffer[0], buffer[1], buffer[2]
    b.take(order, out=signed, mode="clip")
    signed *= signs
    rows[2].take(order, out=mass, mode="clip")
    np.add.accumulate(mass, 2, None, mass)
    # a side's entry j + 1 adds (v_j − v_{j+1})·w_j ≥ +0 to its flow, which starts at +0
    flat = buffer.reshape(3, -1)
    v, w, steps = flat[0], flat[1], flat[2, 1:]
    np.multiply(np.subtract(v[:-1], v[1:], steps), w[:-1], steps)
    flows[:, :, 0] = 0.0
    np.add.accumulate(flows, 2, None, flows)
    # each side's flows rise with its index, so in the stable merged order the
    # entry at p with side index q has p − q of the other side before it:
    # ``other`` is the last of those per entry (or the other side's first)
    own = flows.reshape(k, 2 * m).argsort(axis=1, kind="stable") + by_2m
    other = np.empty((k, 2, m), np.intp)
    other.ravel()[own] = places
    np.maximum(np.add(other, lagged, other), start, out=other)
    gathered = flat.take(other, axis=1)
    s_other, w_other, t_other = gathered[0], gathered[1], gathered[2]
    # the balance signed + s_other − (flows − t_other)/w_other − flows, in place
    np.divide(np.subtract(flows, t_other, t_other), w_other, t_other)
    balance = np.subtract(np.subtract(np.add(signed, s_other, s_other), t_other, s_other),
                          flows, s_other)
    # the last positive entry precedes the first other one after the head's first (its balance,
    # max b − min b, is positive in a live row); the final entry's is never positive
    pair = np.empty((2, k), np.intp)
    last = (balance.take(own)[:, 1:] <= 0.0).argmax(axis=1)
    entry = own.take(np.add(last, offset, last), out=pair[0])
    other.take(entry, out=pair[1])
    # s, w and t of the last positive entry (row 0) and of its other entry (row 1);
    # the flow (s₀ + s₁ + t₀/w₀ + t₁/w₁) / (1 + 1/w₀ + 1/w₁), summed left to right
    gathered = flat.take(pair, axis=1)
    s, w, t = gathered[0], gathered[1], gathered[2]
    ratio, inverse = t / w, 1.0 / w
    flow = s[0] + s[1] + ratio[0] + ratio[1]
    flow /= np.add(1.0, inverse[0], inverse[0]) + inverse[1]
    level = np.subtract(s, np.divide(np.subtract(flow, t, t), w, t), s)
    bounds = np.where(entry < pair[1], level, level[::-1])  # a row's head side comes first
    cap, floor = bounds[0, :, None], np.negative(bounds[1, :, None])
    np.maximum(np.minimum(b, cap, out=b), floor, out=b)
    np.subtract(a, np.multiply(b, rows[1], b), y)
    # a row is live where its weight and max b − min b are positive
    dead = ~(np.minimum(np.add(signed[:, 0, 0], signed[:, 1, 0]), weight) > 0.0)
    y[dead] = 0.0
    if phi is not None:  # z is monotone in b, so its spread comes from the extreme values
        ends = signed[:, :, 0] * signs[:, :, 0]
        np.maximum(np.minimum(ends, cap, out=ends), floor, out=ends)
        np.maximum(0.0, np.subtract(ends[:, 0], ends[:, 1], phi), out=phi)
        phi *= 2.0 * np.sqrt(weight)
        phi[dead] = 0.0


# ---------------------------------------------------------------------------
# Oracle choice, solver binding and public wrappers


def _choose_oracle(cut: bool, method: str) -> str:
    """Resolve ``auto`` for a cut component (``cut``) or a general one, and
    refuse ``exact`` on a general one."""
    if method == "auto":
        return "exact" if cut else "mnp"
    if method == "exact" and not cut:
        raise ValueError(
            "exact projection requires cut components; "
            "use the mnp or fw method for general ones"
        )
    return method


def _iteration_cap(atom: SubmodularAtom, method: str, max_major: int | None) -> int:
    if max_major is not None:
        return max_major
    return 100 * atom.size if method == "mnp" else 100 * atom.size**2


def bind_projectors(
    layout: _Layout,
    metric: np.ndarray,
    picks: Iterable[int],
    method: str,
    delta: float,
    tally: Counter,
) -> list[Callable[..., tuple[np.ndarray, float]]]:
    """Callables (target, scale=1.0) ↦ (y, φ) in local coordinates for the
    components ``picks`` of ``layout``, in that order, each oracle chosen here,
    once, under ``scale`` times the diagonal ``metric``.  The sweep rows of all
    components are computed at once along the ``layout``; each sweep binds its view
    and the layout's weight.  Only a directed hyperedge's sweep (for its head and
    tail) and the ``mnp`` and ``fw`` callables read ``layout.atoms``.

    Every ``mnp`` or ``fw`` call counts into ``tally[oracle, converged]``
    (see ``warn_unconverged``); the exact sweep is not counted.
    """
    wt, offsets = metric[layout.incidence], layout.ends.tolist()
    rows = _sweep_rows(wt, np.repeat(layout.weights, np.diff(layout.ends)))
    kinds, weights, projectors = layout.kinds.tolist(), layout.weights.tolist(), []
    directed = _CUT_KINDS.index("directed_hyperedge")
    for r in picks:
        lo, hi = offsets[r], offsets[r + 1]
        chosen = _choose_oracle(kinds[r] < len(_CUT_KINDS), method)
        if chosen == "exact":
            atom = layout.atoms[r] if kinds[r] == directed else None
            sides = None if atom is None else (atom.head_pos, atom.tail_pos)
            projectors.append(_bind_sweep(wt[lo:hi], weights[r], sides, rows[:, lo:hi]))
            continue
        atom, local = layout.atoms[r], _ITERATIVE[chosen]
        cap = _iteration_cap(atom, chosen, None)

        def proj(tgt, scale=1.0, _f=local, _a=atom, _w=wt[lo:hi], _n=chosen, _c=cap):
            y, phi, _, _, converged, _ = _f(_a, scale * _w, tgt, delta, _c, False)
            tally[_n, converged] += 1
            return y, phi

        projectors.append(proj)
    return projectors


def bind_blocks(
    layout: _Layout,
    metric: np.ndarray,
    method: str,
    delta: float,
    tally: Counter,
    tau: int,
) -> tuple[np.ndarray, np.ndarray, Callable[..., tuple[np.ndarray, ...] | None]]:
    """One callable that projects any chunk of the components from one snapshot.

    Returns ``members``, every component's vertices concatenated, ``order``, its
    components, and ``project(y, phis, shift, picks, scale=1.0)``, which replaces
    the blocks ``picks`` in ``y`` (laid out like ``members``) by the projections of
    y_r − shift[S_r] under ``scale``·``metric`` (a diagonal), writes their φ into
    ``phis`` unless it is None and returns the positions in ``y`` it changed, their
    vertices and the changes (None for a round: all R at scale 1).  A size group
    of k edges or hyperedges (one-member ones too) under ``exact`` with k·τ/R ≥
    ``_BATCH_MIN_ROWS`` comes first in ``members``, and its picked rows are one
    ``_sweep_cut_batch`` call (in place in a round) on the group's sweep rows and
    merge tables, both made here.  Every other component keeps its
    ``bind_projectors`` callable.
    """
    big_r, batched, rest = layout.kinds.size, [], list(layout.rest)
    for rows, matrix, weights in layout.groups:  # a group's are edges or hyperedges
        if rows.size * tau >= _BATCH_MIN_ROWS * big_r and _choose_oracle(True, method) == "exact":
            batched.append((rows, matrix, _sweep_rows(metric[matrix], weights[:, None]), weights,
                            _merge_tables(matrix.shape[1], min(rows.size, _BATCH_ROWS))))
        else:
            rest.extend(rows.tolist())
    rest.sort()
    order = np.concatenate([g[0] for g in batched] + [np.array(rest, np.intp)])
    offsets = layout.ends.tolist()
    members = np.concatenate([g[1].ravel() for g in batched]
                             + [layout.incidence[offsets[r]:offsets[r + 1]] for r in rest])
    ends = np.cumsum([0] + [g[1].size for g in batched]
                     + [offsets[r + 1] - offsets[r] for r in rest]).tolist()
    blocks = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]  # the groups', then the rest's
    projectors = bind_projectors(layout, metric, rest, method, delta, tally) if rest else []
    # each component's group (−1 for the rest) and row in it, and each group's places in members
    slot, row = np.full(big_r, -1), np.empty(big_r, np.intp)
    for g, (rows, *_) in enumerate(batched):
        slot[rows], row[rows] = g, np.arange(rows.size)
    row[rest] = np.arange(len(rest))
    places = [np.arange(b.start, b.stop).reshape(g[1].shape) for g, b in zip(batched, blocks)]

    def project(y: np.ndarray, phis: np.ndarray | None, shift: np.ndarray, picks: np.ndarray,
                scale: float = 1.0) -> tuple[np.ndarray, ...] | None:
        whole, changed = picks.size == big_r and scale == 1.0, []
        slots = slot.take(picks) if len(batched) + bool(rest) > 1 else None
        for g, (rows, matrix, sweep_rows, weights, tables) in enumerate(batched):
            if whole:  # the round: the group's own arrays, and its blocks of y in place
                sub, y_g = rows, y[blocks[g]].reshape(matrix.shape)
                y_g -= shift[matrix]  # not take: it reads a read-only index array ~7x slower
                y_g[...], phi = _sweep_cut_batch(y_g, sweep_rows, weights, tables,
                                                 phis is not None)
            else:
                sub = picks if slots is None else picks[slots == g]
                sel = sub if rows.size == big_r else row.take(sub)  # a group of all R: sel = sub
                pos, mem, w_g = places[g].take(sel, 0), matrix.take(sel, 0), weights.take(sel)
                rows_g, old = sweep_rows.take(sel, 1), y.take(pos)
                rows_g[2] /= scale  # y under scale·metric is the projection at weights scale·w
                new, phi = _sweep_cut_batch(old - shift.take(mem), rows_g, w_g, tables,
                                            phis is not None)
                changed.append((pos.ravel(), mem.ravel(), (new - old).ravel()))
                y[pos] = new
            if phis is not None:
                phis[sub] = scale * phi
        for r in (picks if slots is None else picks[slots < 0]).tolist() if rest else ():
            b = blocks[len(batched) + row[r]]
            new, phi = projectors[row[r]](y[b] - shift.take(members[b]), scale)
            changed.append((np.arange(b.start, b.stop), members[b], new - y[b]))
            y[b] = new
            if phis is not None:
                phis[r] = phi
        if not whole:  # the round's caller re-accumulates Σy from y
            return changed[0] if len(changed) == 1 else tuple(map(np.concatenate, zip(*changed)))

    return members, order, project


def warn_unconverged(tally: Counter) -> None:
    """Log one WARNING per iterative oracle with calls that stopped before
    their certificate met δ: at the iteration cap, or (``mnp``) when the
    greedy point was already active."""
    for method in ("mnp", "fw"):
        short, total = tally[method, False], tally[method, False] + tally[method, True]
        if short:
            logger.warning("%d of %d %s projections stopped before meeting delta "
                           "(iteration cap or stall)", short, total, method)


def _project(
    atom: SubmodularAtom,
    wtilde,
    a,
    method: str,
    params: ProjectionParams = ProjectionParams(),
    record: bool = False,
) -> tuple[ConePoint, ProjectionReport]:
    """The body behind the four public entry points: gather the incidence-set
    slices of ``wtilde`` and ``a``, run the oracle ``method`` resolves to
    under the iteration cap, and report the point with its objective h."""
    method = _choose_oracle(atom.is_cut, method)
    a = np.asarray(a, dtype=float)
    wt = as_diagonal(wtilde, len(a))[atom.members_arr]
    al = a[atom.members_arr]
    if method == "exact":
        sides = (atom.head_pos, atom.tail_pos) if atom.kind == "directed_hyperedge" else None
        y, phi = _bind_sweep(wt, atom.weight, sides)(al)
        c = wt * (y - al)
        cert = float(np.dot(c, _greedy_local(atom, c))) + phi
        hist, conv, iters = (), True, 1
    else:
        cap = _iteration_cap(atom, method, params.max_major)
        y, phi, hist, cert, conv, iters = _ITERATIVE[method](
            atom, wt, al, params.delta, cap, record
        )
    point = ConePoint(atom.members, y, phi)
    return point, ProjectionReport(method, conv, iters, cert, _h_val(wt, y, al, phi), hist)


def project_mnp(
    atom: SubmodularAtom,
    wtilde,
    a,
    params: ProjectionParams = ProjectionParams(),
    record_history: bool = True,
) -> tuple[ConePoint, ProjectionReport]:
    """Active-set cone projection.

    Args:
        atom: the component whose cone to project onto.
        wtilde: positive diagonal metric (dense diagonal or scalar).
        a: dense target vector.
        params: tolerance δ and MAJOR-loop cap.
        record_history: keep the per-MAJOR objective sequence in the report.

    Returns:
        (ConePoint, ProjectionReport); on a cap hit the best iterate so far
        is returned with ``converged=False``.
    """
    return _project(atom, wtilde, a, "mnp", params, record_history)


def project_fw(
    atom: SubmodularAtom,
    wtilde,
    a,
    params: ProjectionParams = ProjectionParams(),
    record_history: bool = False,
) -> tuple[ConePoint, ProjectionReport]:
    """Conditional-gradient cone projection (see module docstring)."""
    return _project(atom, wtilde, a, "fw", params, record_history)


def project_exact(atom: SubmodularAtom, wtilde, a) -> tuple[ConePoint, ProjectionReport]:
    """Exact sweep projection for cut components (edge, hyperedge, directed)."""
    return _project(atom, wtilde, a, "exact")


def project_cone(
    atom: SubmodularAtom,
    wtilde,
    a,
    params: ProjectionParams = ProjectionParams(),
) -> tuple[ConePoint, ProjectionReport]:
    """Dispatch on ``params.method``; ``auto`` uses the exact sweep for cut
    components and the active-set method otherwise.  No objective history is
    recorded."""
    return _project(atom, wtilde, a, params.method, params)
