"""Dual solvers for quadratic decomposable submodular minimization.

The primal problem

    min_x  ‖x − a‖²_W + Σ_r max(f_r(x), 0)²

(W a positive diagonal, each f_r the extension of a normalized submodular
component; a cut has f_r ≥ 0) is handled through its dual: find, for every component, a point
(y_r, φ_r) of the cone {φ ≥ 0, y ∈ φ·B_r} minimizing

    g(y, φ) = ‖Σ_r y_r − 2Wa‖²_{W⁻¹} + Σ_r φ_r²,

whose value certifies the primal through dual = ‖a‖²_W − g/4.  The primal
point is recovered as x = a − ½·W⁻¹·Σ_r y_r and the duality gap
primal(x) − dual is the solvers' convergence measure.

Two algorithms share one solve loop, ``solve``, and differ only in its step:

* ``rcd`` — randomized coordinate descent over components: a step
  re-projects a chunk of τ dual blocks, τ from `_block_size`'s rule whatever
  the components, against the residual left by the others, from one snapshot
  and accelerated (`_Approx`); its first epoch is ``ap``'s first round, one
  chunk at a time.
* ``ap`` — alternating projections: a step is one round that re-splits the
  fixed total 2Wa across components and re-projects every block from one
  snapshot (metric Ψ·W⁻¹, Ψ the per-vertex coverage counts), R projections
  in all: the plain τ-block step at τ = R, whose chunk is every component.

Each algorithm's binder returns its step and its checkpoint, which brings
Σy (and φ) up to date from the blocks, evaluates the state and, for the
accelerated step, applies the restart rule to its gap.  The loop calls the
checkpoint for the start row and at every checkpoint.  It counts
projections, rounds the budget down to whole steps, records a checkpoint
trace (a list of ``TraceRow``: projection count, primal, dual, gap, elapsed
seconds) and stops on a target gap, checked at checkpoints, the budget, or
a wall-clock limit, checked after every step.  A rerun with the same seed
and configuration is bit-identical.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import cycle, repeat
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .projection import (
    DEFAULT_DELTA, ProjectionParams, bind_blocks, warn_unconverged
)
from .submodular import (
    _ALL_KINDS, _CUT_KINDS, SubmodularAtom, _as_ints, _frozen, _Layout, _real, _reals,
    as_diagonal, lovasz_extension
)

__all__ = [
    "ALGORITHMS",
    "ProblemInstance",
    "SolveConfig",
    "SolveResult",
    "TraceRow",
    "DEFAULT_SEED",
    "primal_objective",
    "dual_objective",
    "primal_from_dual",
    "evaluate_dual_state",
    "solve",
]

DEFAULT_SEED = 0
ALGORITHMS = ("rcd", "ap")
# `_Approx` restarts at 1/30 of its last start's gap (fixed periods, 1/100 or a rise took longer)
_RESTART_FACTOR = 30
Step = Callable[[np.ndarray, np.ndarray], None]  # (sum_y, phis), updated in place
Checkpoint = Callable[[np.ndarray, np.ndarray], "StateEvaluation"]  # brought up to date, evaluated


@dataclass(frozen=True, eq=False, init=False)
class ProblemInstance:
    """The data of one minimization: anchor ``a``, diagonal weights ``w``
    (the diagonal of W), and the submodular components ``atoms``.  ``a`` (a
    vector) and ``w`` (None, a number or a vector, see `as_diagonal`) become
    new read-only float arrays, finite, with ``w`` > 0.  The instance holds
    its components in columnar form, its layout; an instance that
    `applications` builds on a hypergraph shares the hypergraph's, whose
    ``atoms`` are built on first read."""

    a: np.ndarray
    w: np.ndarray
    _layout: _Layout = field(repr=False)

    def __init__(self, a, w, atoms: Sequence[SubmodularAtom]) -> None:
        a, w = _anchor(a, w)
        atoms = tuple(atoms)
        columns = _columns(atoms, a.size, "component")
        vars(self).update(a=a, w=w, _layout=_component_layout(a.size, *columns, atoms))

    @classmethod
    def _on(cls, a, w, layout: _Layout) -> ProblemInstance:
        """The instance (a, w) on the components of ``layout``, already checked
        on the vertices of ``a``."""
        instance = cls.__new__(cls)
        a, w = _anchor(a, w)
        vars(instance).update(a=a, w=w, _layout=layout)
        return instance

    @property
    def atoms(self) -> tuple[SubmodularAtom, ...]:
        return self._layout.atoms

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def r(self) -> int:
        return self._layout.kinds.size

    @cached_property
    def winv(self) -> np.ndarray:
        return _frozen(1.0 / self.w)

    @cached_property
    def _two_wa(self) -> np.ndarray:
        return _frozen(2.0 * self.w * self.a)

    @cached_property
    def _wa_sq(self) -> float:
        return float(np.dot(self.w, self.a * self.a))

    def _penalty(self, x: np.ndarray) -> float:
        """Σ_r max(f_r(x), 0)²: each group of equal-size symmetric cuts in a few
        array operations, every other component by its Lovász extension.  A cut
        has f_r ≥ 0; a general component's f_r(x) < 0 counts 0, as its dual cone
        certifies only the positive part."""
        total = 0.0
        for _, members, weights in self._layout.groups:
            vals = x[members].ravel()
            starts = np.arange(0, vals.size, members.shape[1])  # costs less per row than axis=1
            spread = np.maximum.reduceat(vals, starts) - np.minimum.reduceat(vals, starts)
            total += float(np.dot(weights, spread * spread))
        for r in self._layout.rest:
            v = max(lovasz_extension(self.atoms[r], x), 0.0)
            total += v * v
        return total


def _anchor(a, w) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``w`` as `ProblemInstance` holds them, or ValueError."""
    a = _reals(a, "'a' must be a list of numbers")
    if a.ndim != 1 or a.size == 0:
        raise ValueError("a must be a nonempty vector")
    w = as_diagonal(w, a.size)
    if not np.all(w > 0):
        raise ValueError("all diagonal weights must be positive")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(w))):
        raise ValueError("a and w must be finite")
    return _frozen(a), _frozen(w)


def _columns(
    atoms: tuple, n: int, noun: str, cut_only: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columnar form of ``atoms``, as `_component_layout` takes it, in one
    pass that raises unless every entry i, "{noun} i" in the message, is a
    `SubmodularAtom` (a cut component if ``cut_only``) on vertices 0..n−1."""
    kinds, members, weights = [], [np.empty(0, np.intp)], []
    for idx, atom in enumerate(atoms):
        if cut_only and not (isinstance(atom, SubmodularAtom) and atom.is_cut):
            raise ValueError(f"{noun} {idx} must be a cut component")
        if not isinstance(atom, SubmodularAtom):
            raise TypeError(f"{noun} {idx} is not a SubmodularAtom")
        if atom.members[-1] >= n:
            raise ValueError(
                f"{noun} {idx} references vertex {atom.members[-1]} outside 0..{n - 1}")
        kinds.append(_ALL_KINDS.index(atom.kind))
        members.append(atom.members_arr)
        weights.append(atom.weight)
    ends = np.cumsum([m.size for m in members])  # members[0] is empty: ends[0] = 0
    return np.array(kinds, dtype=np.int8), np.concatenate(members), ends, np.array(weights)


def _component_layout(
    n: int, kinds: np.ndarray, incidence: np.ndarray, ends: np.ndarray, weights: np.ndarray,
    atoms: tuple[SubmodularAtom, ...] | None = None,
) -> _Layout:
    """The layout of components on n vertices from their columnar form: a kind
    code per component (its index in `_ALL_KINDS`), their members concatenated
    in order, the ends of each one's members and the weights, which the layout
    holds as they are, made read-only.  ``atoms``, when given, are the
    components themselves; otherwise the layout builds them on first read."""
    kinds, incidence, ends, weights = map(_frozen, (kinds, incidence, ends, weights))
    psi = _frozen(np.bincount(incidence, minlength=n).astype(float))
    symmetric = kinds <= _ALL_KINDS.index("hyperedge")
    layout = _Layout(kinds, incidence, ends, weights, psi,
                     *_symmetric_cut_groups(symmetric, incidence, ends, weights))
    if atoms is not None:
        vars(layout)["atoms"] = atoms
    return layout


def _symmetric_cut_groups(
    symmetric: np.ndarray, incidence: np.ndarray, ends: np.ndarray, weights: np.ndarray
) -> tuple[tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...], tuple[int, ...]]:
    """The components flagged ``symmetric`` (edges and hyperedges, of any size)
    grouped by size as read-only (indices, k × size members matrix, k
    weights), and the other components' indices.  A matrix is a
    view of ``incidence`` when its components are consecutive, else a gather."""
    picked = np.flatnonzero(symmetric)
    sizes = np.diff(ends)[picked]
    groups = []
    for size in dict.fromkeys(sizes.tolist()):  # in order of first appearance
        rows = picked[sizes == size]
        k, lo = rows.size, ends[rows[0]]
        if rows[-1] - rows[0] == k - 1:
            matrix = incidence[lo:lo + k * size].reshape(k, size)
        else:
            matrix = incidence[ends[rows, None] + np.arange(size)]
        groups.append((_frozen(rows), _frozen(matrix), _frozen(weights[rows])))
    return tuple(groups), tuple(np.flatnonzero(~symmetric).tolist())


# ---------------------------------------------------------------------------
# objective values


def _vector(value, size: int, name: str) -> np.ndarray:
    """``value`` as a float array of shape (size,); ValueError naming the shape otherwise."""
    if (value := np.asarray(value, dtype=float)).shape != (size,):
        raise ValueError(f"{name!r} has shape {value.shape}, expected ({size},)")
    return value


def primal_objective(instance: ProblemInstance, x) -> float:
    """‖x − a‖²_W + Σ_r max(f_r(x), 0)²."""
    x = _vector(x, instance.n, "x")
    d = x - instance.a
    return float(np.dot(instance.w, d * d)) + instance._penalty(x)


def dual_objective(instance: ProblemInstance, sum_y, phis) -> tuple[float, float]:
    """Return (g, dual): the dual block objective and the certified bound
    dual = ‖a‖²_W − g/4.  ``sum_y`` is the aggregated Σ_r y_r."""
    resid = _vector(sum_y, instance.n, "sum_y") - instance._two_wa
    phis = _vector(phis, instance.r, "phis")
    g = float(np.dot(instance.winv, resid * resid)) + float(np.dot(phis, phis))
    return g, instance._wa_sq - 0.25 * g


def primal_from_dual(instance: ProblemInstance, sum_y) -> np.ndarray:
    """x = a − ½·W⁻¹·Σ_r y_r."""
    return instance.a - 0.5 * instance.winv * _vector(sum_y, instance.n, "sum_y")


class StateEvaluation(NamedTuple):
    x: np.ndarray
    primal: float
    g: float
    dual: float
    gap: float


def evaluate_dual_state(instance: ProblemInstance, sum_y, phis) -> StateEvaluation:
    """Primal point, objective values, and duality gap of a dual state."""
    x = primal_from_dual(instance, sum_y)
    primal = primal_objective(instance, x)
    g, dual = dual_objective(instance, sum_y, phis)
    return StateEvaluation(x, primal, g, dual, primal - dual)


# ---------------------------------------------------------------------------
# configuration, trace, result


@dataclass(frozen=True)
class SolveConfig:
    """Solver knobs.

    ``max_iters`` counts single-component projections; ``None`` selects 100
    per component.  The solve loop takes steps of a chunk of at most τ
    (``rcd``) or of one round of R (``ap``), and rounds the budget down to
    whole steps, at least one: ``ap`` with ``max_iters < R`` still spends R
    projections.  ``checkpoint_stride`` (also in projections, rounded down to
    whole steps, at least one) controls how often the trace is extended and
    the target gap is checked; ``None`` means once per component count.  ``wall_clock_limit`` is checked after
    every step.

    ``max_iters``, ``checkpoint_stride`` and ``seed`` are integers and
    ``target_gap``, ``wall_clock_limit`` and ``delta`` real numbers (never
    bools or strings); ``projection`` and ``delta`` obey `ProjectionParams`.
    """

    algorithm: str = "rcd"
    max_iters: int | None = None
    target_gap: float | None = None
    checkpoint_stride: int | None = None
    wall_clock_limit: float | None = None
    seed: int = DEFAULT_SEED
    projection: str = "auto"
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        object.__setattr__(self, "seed", _as_ints((self.seed,), "seed")[0])
        for name in ("max_iters", "checkpoint_stride"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _as_ints((getattr(self, name),), name)[0])
        for name in ("target_gap", "wall_clock_limit"):
            if getattr(self, name) is not None:
                value = _real(getattr(self, name), f"{name} must be a number")
                object.__setattr__(self, name, value)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.max_iters is not None and self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.target_gap is not None and not self.target_gap >= 0:
            raise ValueError("target_gap must be nonnegative")
        if self.checkpoint_stride is not None and self.checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be at least 1")
        if self.wall_clock_limit is not None and not self.wall_clock_limit >= 0:
            raise ValueError("wall_clock_limit must be nonnegative")
        params = ProjectionParams(delta=self.delta, method=self.projection)
        object.__setattr__(self, "delta", params.delta)


class TraceRow(NamedTuple):
    iteration: int
    primal: float
    dual: float
    gap: float
    seconds: float


@dataclass(frozen=True, eq=False)
class SolveResult:
    x: np.ndarray
    gap: float
    iterations: int
    converged: bool
    primal: float
    dual: float
    trace: list[TraceRow]
    sum_y: np.ndarray
    phis: np.ndarray


# ---------------------------------------------------------------------------
# algorithm steps: each updates the loop's ``sum_y`` and ``phis`` in place


def _block_size(instance: ProblemInstance, config: SolveConfig) -> int:
    """τ, the blocks per step: R under ``ap``; under ``rcd``, whatever the components,
    ⌊1 + (R − 1)/(ψ̄ − 1)⌋ with ψ̄ = Σψ_v²/Σψ_v (R if no vertex is shared), the τ
    at which the mean of β over the incidences is 2.  As ψ_v ≤ R, τ ≥ 2 when R ≥ 2."""
    layout, big_r = instance._layout, instance.r
    if config.algorithm == "ap":
        return big_r
    excess = float(np.dot(layout.psi, layout.psi)) / max(float(layout.psi.sum()), 1.0) - 1.0
    return min(big_r, int(1 + (big_r - 1) / excess)) if excess > 0 else big_r


def _block_steps(
    instance: ProblemInstance, config: SolveConfig, tally: Counter, tau: int
) -> tuple[tuple[int, ...], Step, Checkpoint]:
    """Parallel coordinate descent on the dual, τ blocks per step.

    A step projects a chunk of any blocks from one snapshot under the metric
    β·W⁻¹, β_v = 1 + (ψ_v − 1)(τ − 1)/(R − 1) the expected separable
    overapproximation of τ-block sampling (ψ the coverage counts, τ the largest
    chunk).  Each epoch splits a fresh permutation into ⌈R/τ⌉ near-equal chunks
    for `_Approx`, which projects the first epoch's chunks under Ψ·W⁻¹ through a
    second binder of the same layout.  One chunk (τ = R, β = Ψ) is a round of
    alternating projections: every (y_r, φ_r) replaced by the projection of
    y_r − ((Σy − 2Wa)/β)[S_r].
    """
    n, big_r, layout, two_wa = instance.n, instance.r, instance._layout, instance._two_wa
    count = -(-big_r // tau)
    bounds = [big_r * j // count for j in range(count + 1)]
    sizes = tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    # on an uncovered vertex (ψ = 0, never read) β is clamped to 1
    beta = np.maximum(1.0 + (layout.psi - 1.0) * (max(sizes) - 1) / max(big_r - 1, 1), 1.0)

    def bind(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, Callable]:
        return bind_blocks(layout, beta / instance.w, config.projection, config.delta, tally, tau)

    if count == 1:
        members, order, project = bind(beta)
        y = np.zeros(members.size)  # every block's y_r, laid out like members

        def step(sum_y: np.ndarray, phis: np.ndarray) -> None:
            project(y, phis, (sum_y - two_wa) / beta, order)
            sum_y[:] = np.bincount(members, weights=y, minlength=n)

        return sizes, step, partial(evaluate_dual_state, instance)
    perms = map(np.random.default_rng(config.seed).permutation, repeat(big_r))
    chunks = (p[lo:hi] for p in perms for lo, hi in zip(bounds, bounds[1:]))
    # the opening's metric is ap's: β at τ = R, which is Ψ clamped to 1, bit for bit
    approx = _Approx(instance, bind, np.maximum(layout.psi, 1.0), beta, chunks, sizes)
    return sizes, approx.step, approx.checkpoint


class _Approx:
    """APPROX (Fercoq & Richtárik 2015) on `_block_steps`' chunks, restarted
    (O'Donoghue & Candès 2015).  With θ₀ = τ/R and c = θ/θ₀, a chunk projects
    z_r − ((θ²Σu + Σz − 2Wa)/(cβ))[S_r] under cβ·W⁻¹, moves u by −(1 − c)/θ²
    times the change of z and sets θ to (√(θ⁴ + 4θ²) − θ²)/2: at θ₀ (u = 0)
    the plain τ-block step.  The opening epoch is ``ap``'s first round split into
    its chunks: each projects its blocks from the start point z = 0, a fixed shift
    −2Wa/Ψ, under Ψ·W⁻¹, and moves Σz by its changes; θ stays at θ₀ and u at 0,
    and each block reports its projection's φ, as in ``ap``.  The first chunk after
    it binds β's projector.  A checkpoint reports the blocks θ²u + z, convex
    combinations of cone points, with the least φ of each cut block and θ²u_φ + z_φ
    of each general one (its least φ is a submodular minimisation), and restarts
    on their gap; the step takes one itself after an epoch without."""

    def __init__(self, instance: ProblemInstance, bind: Callable, psi: np.ndarray,
                 beta: np.ndarray, chunks: Iterator[np.ndarray], sizes: tuple[int, ...]) -> None:
        self.members, order, self.project = bind(psi)  # the opening's binder, then β's
        self.instance, self.bind, self.beta = instance, bind, beta
        self.chunks, self.count, self.theta0 = chunks, len(sizes), max(sizes) / instance.r
        self.opening, self.shift = self.count, -instance._two_wa / psi  # its chunks left, its shift
        self.z, self.u = np.zeros((2, self.members.size))  # laid out like members
        self.sum_z, self.sum_u = np.zeros((2, instance.n))
        layout, self.order = instance._layout, order  # the blocks' components, in members' order
        self.starts = np.concatenate(([0], np.cumsum(np.diff(layout.ends).take(order))[:-1]))
        self.root_w = np.sqrt(np.where(layout.weights > 0.0, layout.weights, 1.0)).take(order)
        # the blocks whose φ is read from (z_φ, u_φ): in the opening every block's, as in
        # ap, and after it the general ones'
        self.general = np.arange(instance.r)
        self.z_phi, self.u_phi = np.zeros((2, instance.r))  # read and moved for those only
        self.theta, self.start_gap, self.unchecked = self.theta0, np.inf, 0  # chunks since a gap

    def step(self, sum_y: np.ndarray, phis: np.ndarray) -> None:
        if self.unchecked == self.count:
            self.checkpoint(sum_y, phis)
        if self.opening == 0:  # β's projector, bound once the opening's sweep rows are released
            self.project, self.opening = None, -1
            self.project = self.bind(self.beta)[2]
            self.general = np.flatnonzero(self.instance._layout.kinds >= len(_CUT_KINDS))
        picks = next(self.chunks)
        z_phi, old_phi = (self.z_phi, self.z_phi.take(picks)) if self.general.size else (None, 0)
        self.unchecked += 1
        if self.opening > 0:  # a chunk of ap's first round: θ stays at θ₀ and u at 0
            _, mem, change = self.project(self.z, z_phi, self.shift, picks)
            self.sum_z += np.bincount(mem, change, minlength=self.instance.n)
            self.opening -= 1
            return
        c, sq = self.theta / self.theta0, self.theta ** 2
        shift = (sq * self.sum_u + self.sum_z - self.instance._two_wa) / (c * self.beta)
        pos, mem, change = self.project(self.z, z_phi, shift, picks, c)
        total, coef = np.bincount(mem, change, minlength=self.instance.n), (1.0 - c) / sq
        self.sum_z += total
        self.sum_u -= coef * total
        np.subtract.at(self.u, pos, coef * change)
        if z_phi is not None:  # u_φ moves as u does
            self.u_phi[picks] -= coef * (z_phi.take(picks) - old_phi)
        self.theta = ((sq * sq + 4.0 * sq) ** 0.5 - sq) / 2.0

    def checkpoint(self, sum_y: np.ndarray, phis: np.ndarray) -> StateEvaluation:
        blocks = self.theta ** 2 * self.u + self.z
        sum_y[:] = np.bincount(self.members, blocks, minlength=self.instance.n)
        # y ∈ φ·B for a cut of weight w iff Σy = 0 and y's positive mass is at most φ√w
        mass = np.add.reduceat(np.maximum(blocks, 0.0, out=blocks), self.starts)
        phis[self.order] = mass / self.root_w
        phis[self.general] = (self.theta ** 2 * self.u_phi + self.z_phi).take(self.general)
        state = evaluate_dual_state(self.instance, sum_y, phis)
        self.unchecked = 0
        if state.gap <= self.start_gap / _RESTART_FACTOR:  # restarts leave sum_y and phis be
            for z, u in ((self.z, self.u), (self.z_phi, self.u_phi)):
                z += self.theta ** 2 * u
                u[:] = 0.0
            self.theta, self.start_gap, self.sum_u[:] = self.theta0, state.gap, 0.0
            self.sum_z[:] = np.bincount(self.members, self.z, minlength=self.instance.n)
        return state


# ---------------------------------------------------------------------------
# the solve loop


def solve(instance: ProblemInstance, config: SolveConfig = SolveConfig()) -> SolveResult:
    """Minimize ``instance`` with the algorithm named by ``config.algorithm``.

    A step of ``ap`` is one round of R projections.  A step of ``rcd`` is one
    of an epoch's ⌈R/τ⌉ near-equal chunks, τ from `_block_size`'s rule whatever
    the components and the oracle.
    The chunks of ``rcd``'s first epoch make up ``ap``'s first round: on a budget
    of R both return the same ``sum_y``, ``phis`` and gap, bit for bit unless
    ``ap`` batches a group of cuts that ``rcd``'s chunks leave to the scalar
    sweep (then within roundoff).  The
    budget and the checkpoint stride count projections and are rounded down
    to whole steps, each at least one; a budget of 0, or R = 0, takes no
    step.  The loop owns the dual state, the trace and the stopping rules:
    the target gap at every checkpoint and the wall-clock limit after every
    step.  The step's binder owns what a checkpoint does to the state.
    """
    n, big_r = instance.n, instance.r
    budget = config.max_iters if config.max_iters is not None else 100 * big_r
    stride = config.checkpoint_stride if config.checkpoint_stride is not None else big_r
    limit, target = config.wall_clock_limit, config.target_gap

    tally: Counter = Counter()
    evaluate = partial(evaluate_dual_state, instance)  # the checkpoint of R = 0, with no step
    sizes, step, checkpoint = (_block_steps(instance, config, tally, _block_size(instance, config))
                               if big_r else ((1,), None, evaluate))
    sum_y, phis = np.zeros(n), np.zeros(big_r)

    t0 = time.perf_counter()
    state = checkpoint(sum_y, phis)
    trace = [TraceRow(0, state.primal, state.dual, state.gap, time.perf_counter() - t0)]
    converged = target is not None and state.gap <= target
    sizes, done, last = cycle(sizes), 0, 0  # projections per step, done, at the last checkpoint
    upcoming, more = next(sizes), budget > 0 and big_r > 0
    while not converged and more:
        step(sum_y, phis)
        done, upcoming = done + upcoming, next(sizes)
        more = done + upcoming <= budget
        out_of_time = limit is not None and time.perf_counter() - t0 >= limit
        # checkpoint where the next step would pass the stride or the budget
        if done - last + upcoming > stride or not more or out_of_time:
            last, state = done, checkpoint(sum_y, phis)
            elapsed = time.perf_counter() - t0
            trace.append(TraceRow(done, state.primal, state.dual, state.gap, elapsed))
            if target is not None and state.gap <= target:
                converged = True
            elif limit is not None and elapsed >= limit:
                break

    warn_unconverged(tally)
    return SolveResult(
        x=state.x,
        gap=state.gap,
        iterations=done,
        converged=converged,
        primal=state.primal,
        dual=state.dual,
        trace=trace,
        sum_y=sum_y,
        phis=phis,
    )
