"""Dual solvers for quadratic decomposable submodular minimization.

The primal problem

    min_x  ‖x − a‖²_W + Σ_r f_r(x)²

(W a positive diagonal, each f_r the extension of a normalized submodular
component) is handled through its dual: find, for every component, a point
(y_r, φ_r) of the cone {φ ≥ 0, y ∈ φ·B_r} minimizing

    g(y, φ) = ‖Σ_r y_r − 2Wa‖²_{W⁻¹} + Σ_r φ_r²,

whose value certifies the primal through dual = ‖a‖²_W − g/4.  The primal
point is recovered as x = a − ½·W⁻¹·Σ_r y_r and the duality gap
primal(x) − dual is the solvers' convergence measure.

Two solvers are provided:

* ``rcd_solve`` — randomized coordinate descent over components: each step
  re-projects one component's dual block against the residual left by the
  others (projection metric W⁻¹).
* ``ap_solve`` — a round-based scheme that re-splits the fixed total 2Wa
  across components and re-projects every block each round from one
  snapshot (projection metric Ψ·W⁻¹ with Ψ the per-vertex coverage
  counts).  With a single component one round coincides with one
  coordinate-descent step.

Both record a checkpoint trace (a list of ``TraceRow``: projection count,
primal, dual, gap, elapsed seconds) and stop on a target gap, an iteration
budget, or a wall-clock limit, checked after every ``rcd`` projection and
every ``ap`` round.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .projection import ORACLES, bind_projectors, bind_round, warn_unconverged
from .submodular import SubmodularAtom, _symmetric_cut_groups, lovasz_extension

__all__ = [
    "ALGORITHMS",
    "ProblemInstance",
    "SolveConfig",
    "SolveResult",
    "TraceRow",
    "primal_objective",
    "dual_objective",
    "primal_from_dual",
    "evaluate_dual_state",
    "rcd_solve",
    "ap_solve",
    "solve",
]

DEFAULT_SEED = 0
ALGORITHMS = ("rcd", "ap")
_RNG_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """The data of one minimization: anchor ``a``, diagonal weights ``w``
    (the diagonal of W), and the submodular components."""

    a: np.ndarray
    w: np.ndarray
    atoms: tuple[SubmodularAtom, ...]

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("a must be a nonempty vector")
        w = np.array(self.w, dtype=float)
        if w.shape != a.shape:
            raise ValueError(f"w has shape {w.shape}, expected {a.shape}")
        if not np.all(w > 0):
            raise ValueError("all diagonal weights must be positive")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(w))):
            raise ValueError("a and w must be finite")
        atoms = tuple(self.atoms)
        n = a.size
        for idx, atom in enumerate(atoms):
            if not isinstance(atom, SubmodularAtom):
                raise TypeError(f"component {idx} is not a SubmodularAtom")
            if atom.members[-1] >= n or atom.members[0] < 0:
                raise ValueError(
                    f"component {idx} references vertex {atom.members[-1]} "
                    f"outside 0..{n - 1}"
                )
        a.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "atoms", atoms)

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def r(self) -> int:
        return len(self.atoms)

    @cached_property
    def winv(self) -> np.ndarray:
        inv = 1.0 / self.w
        inv.flags.writeable = False
        return inv

    @cached_property
    def _two_wa(self) -> np.ndarray:
        v = 2.0 * self.w * self.a
        v.flags.writeable = False
        return v

    @cached_property
    def _wa_sq(self) -> float:
        return float(np.dot(self.w, self.a * self.a))

    @cached_property
    def _penalty(self) -> Callable[[np.ndarray], float]:
        return _penalty_evaluator(self.atoms)


def _penalty_evaluator(atoms: Sequence[SubmodularAtom]) -> Callable[[np.ndarray], float]:
    """Build an evaluator for Σ_r f_r(x)².

    Symmetric cut components of equal size are batched into one index matrix
    so large uniform collections evaluate in a handful of array operations;
    everything else falls back to per-component extension values.
    """
    by_size, rest = _symmetric_cut_groups(atoms)
    groups = [
        (
            np.stack([atoms[r].members_arr for r in rows]),
            np.asarray([atoms[r].weight for r in rows]),
        )
        for rows in by_size.values()
    ]
    other = [atoms[r] for r in rest]

    def evaluate(x: np.ndarray) -> float:
        total = 0.0
        for members, weights in groups:
            vals = x[members]
            spread = vals.max(axis=1) - vals.min(axis=1)
            total += float(np.dot(weights, spread * spread))
        for atom in other:
            v = lovasz_extension(atom, x)
            total += v * v
        return total

    return evaluate


# ---------------------------------------------------------------------------
# objective values


def primal_objective(instance: ProblemInstance, x) -> float:
    """‖x − a‖²_W + Σ_r f_r(x)²."""
    x = np.asarray(x, dtype=float)
    d = x - instance.a
    return float(np.dot(instance.w, d * d)) + instance._penalty(x)


def dual_objective(instance: ProblemInstance, sum_y, phis) -> tuple[float, float]:
    """Return (g, dual): the dual block objective and the certified bound
    dual = ‖a‖²_W − g/4.  ``sum_y`` is the aggregated Σ_r y_r."""
    sum_y = np.asarray(sum_y, dtype=float)
    resid = sum_y - instance._two_wa
    g = float(np.dot(instance.winv, resid * resid)) + float(np.dot(phis, phis))
    return g, instance._wa_sq - 0.25 * g


def primal_from_dual(instance: ProblemInstance, sum_y) -> np.ndarray:
    """x = a − ½·W⁻¹·Σ_r y_r."""
    return instance.a - 0.5 * instance.winv * np.asarray(sum_y, dtype=float)


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

    ``max_iters`` counts single-component projections for both solvers (an
    alternating-projection round spends one per component and rounds are
    atomic: ``ap`` rounds the budget down to whole rounds and runs at least
    one); ``None`` selects 100 projections per component.
    ``checkpoint_stride`` controls how often the trace is extended and the
    target gap is checked; ``None`` means once per component count.
    ``wall_clock_limit`` is checked after every rcd projection or ap round.
    """

    algorithm: str = "rcd"
    max_iters: int | None = None
    target_gap: float | None = None
    checkpoint_stride: int | None = None
    wall_clock_limit: float | None = None
    seed: int = DEFAULT_SEED
    projection: str = "auto"
    delta: float = 1e-10

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_iters is not None and self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.target_gap is not None and not self.target_gap >= 0:
            raise ValueError("target_gap must be nonnegative")
        if self.checkpoint_stride is not None and self.checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be at least 1")
        if self.wall_clock_limit is not None and not self.wall_clock_limit >= 0:
            raise ValueError("wall_clock_limit must be nonnegative")
        if self.projection not in ORACLES:
            raise ValueError(f"unknown projection method {self.projection!r}")
        if not self.delta > 0:
            raise ValueError("delta must be positive")


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
# shared machinery


def _trivial_result(instance: ProblemInstance, config: SolveConfig) -> SolveResult:
    state = evaluate_dual_state(instance, np.zeros(instance.n), np.zeros(0))
    trace = [TraceRow(0, state.primal, state.dual, state.gap, 0.0)]
    converged = config.target_gap is not None and state.gap <= config.target_gap
    return SolveResult(
        x=state.x,
        gap=state.gap,
        iterations=0,
        converged=converged,
        primal=state.primal,
        dual=state.dual,
        trace=trace,
        sum_y=np.zeros(instance.n),
        phis=np.zeros(0),
    )


# ---------------------------------------------------------------------------
# randomized coordinate descent


def rcd_solve(instance: ProblemInstance, config: SolveConfig = SolveConfig()) -> SolveResult:
    """Randomized coordinate descent on the dual.

    Each iteration draws a component uniformly at random and replaces its
    dual block by the cone projection of what the remaining blocks leave of
    the total 2Wa, under the metric W⁻¹.  The aggregate Σ_r y_r is updated
    incrementally and re-accumulated at every checkpoint.
    """
    n, big_r = instance.n, instance.r
    if big_r == 0:
        return _trivial_result(instance, config)
    max_iters = config.max_iters if config.max_iters is not None else 100 * big_r
    stride = config.checkpoint_stride if config.checkpoint_stride is not None else big_r
    limit = config.wall_clock_limit

    rng = np.random.default_rng(config.seed)
    winv = instance.winv
    two_wa = instance._two_wa
    mems = [atom.members_arr for atom in instance.atoms]
    members = np.concatenate(mems)
    wt_locs = [winv[mem] for mem in mems]
    base = [two_wa[mem] for mem in mems]
    tally: Counter = Counter()
    projectors = bind_projectors(
        instance.atoms, wt_locs, config.projection, config.delta, tally
    )

    ys = [np.zeros(mem.size) for mem in mems]
    phis = np.zeros(big_r)
    sum_y = np.zeros(n)

    t0 = time.perf_counter()
    state = evaluate_dual_state(instance, sum_y, phis)
    trace = [TraceRow(0, state.primal, state.dual, state.gap, time.perf_counter() - t0)]
    converged = config.target_gap is not None and state.gap <= config.target_gap

    buf = np.empty(0, dtype=np.int64)
    pos = 0
    it = 0
    while not converged and it < max_iters:
        if pos == buf.size:
            buf = rng.integers(0, big_r, size=_RNG_CHUNK)
            pos = 0
        r = int(buf[pos])
        pos += 1
        mem = mems[r]
        target = base[r] - sum_y[mem] + ys[r]
        y_new, phi_new = projectors[r](target)
        sum_y[mem] += y_new - ys[r]
        ys[r] = y_new
        phis[r] = phi_new
        it += 1
        out_of_time = limit is not None and time.perf_counter() - t0 >= limit
        if it % stride == 0 or it == max_iters or out_of_time:
            sum_y = np.bincount(members, weights=np.concatenate(ys), minlength=n)
            state = evaluate_dual_state(instance, sum_y, phis)
            elapsed = time.perf_counter() - t0
            trace.append(TraceRow(it, state.primal, state.dual, state.gap, elapsed))
            if config.target_gap is not None and state.gap <= config.target_gap:
                converged = True
            elif limit is not None and elapsed >= limit:
                break

    warn_unconverged(tally)
    return SolveResult(
        x=state.x,
        gap=state.gap,
        iterations=it,
        converged=converged,
        primal=state.primal,
        dual=state.dual,
        trace=trace,
        sum_y=sum_y,
        phis=phis,
    )


# ---------------------------------------------------------------------------
# alternating projections


def ap_solve(instance: ProblemInstance, config: SolveConfig = SolveConfig()) -> SolveResult:
    """Round-based alternating projections on the dual.

    Every round re-splits the fixed total 2Wa among the components —
    λ_r = y_r − s restricted to the component's vertices, with
    s = Ψ⁻¹(Σ y_r − 2Wa) and Ψ the coverage counts — and projects each λ_r
    back onto its cone under the metric Ψ·W⁻¹.  All blocks are refreshed
    from the same snapshot: block r reads only its own y_r and s, so a round
    is one ``projection.bind_round`` call on all blocks' targets at once.
    """
    n, big_r = instance.n, instance.r
    if big_r == 0:
        return _trivial_result(instance, config)
    max_iters = config.max_iters if config.max_iters is not None else 100 * big_r
    stride = config.checkpoint_stride if config.checkpoint_stride is not None else big_r
    rounds = max(1, max_iters // big_r) if max_iters > 0 else 0
    stride_rounds = max(1, stride // big_r)
    limit = config.wall_clock_limit

    two_wa = instance._two_wa
    incidences = [atom.members_arr for atom in instance.atoms]
    psi = np.bincount(np.concatenate(incidences), minlength=n).astype(float)
    covered = psi > 0
    tally: Counter = Counter()
    members, project_round = bind_round(
        instance.atoms, psi / instance.w, config.projection, config.delta, tally
    )

    y = np.zeros(members.size)  # every block's y_r, laid out like members
    phis = np.zeros(big_r)
    sum_y = np.zeros(n)

    t0 = time.perf_counter()
    state = evaluate_dual_state(instance, sum_y, phis)
    trace = [TraceRow(0, state.primal, state.dual, state.gap, time.perf_counter() - t0)]
    converged = config.target_gap is not None and state.gap <= config.target_gap

    rd = 0
    while not converged and rd < rounds:
        s = np.zeros(n)
        np.divide(sum_y - two_wa, psi, out=s, where=covered)
        y -= s[members]
        phis = project_round(y)
        sum_y = np.bincount(members, weights=y, minlength=n)
        rd += 1
        out_of_time = limit is not None and time.perf_counter() - t0 >= limit
        if rd % stride_rounds == 0 or rd == rounds or out_of_time:
            state = evaluate_dual_state(instance, sum_y, phis)
            elapsed = time.perf_counter() - t0
            trace.append(TraceRow(rd * big_r, state.primal, state.dual, state.gap, elapsed))
            if config.target_gap is not None and state.gap <= config.target_gap:
                converged = True
            elif limit is not None and elapsed >= limit:
                break

    warn_unconverged(tally)
    return SolveResult(
        x=state.x,
        gap=state.gap,
        iterations=rd * big_r,
        converged=converged,
        primal=state.primal,
        dual=state.dual,
        trace=trace,
        sum_y=sum_y,
        phis=phis,
    )


def solve(instance: ProblemInstance, config: SolveConfig = SolveConfig()) -> SolveResult:
    """Dispatch to the solver named by ``config.algorithm``."""
    if config.algorithm == "ap":
        return ap_solve(instance, config)
    return rcd_solve(instance, config)
