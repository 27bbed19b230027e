"""Problem builders on top of the core solver.

This module reduces concrete learning tasks to `ProblemInstance`s:

* transductive label propagation on hypergraphs (per-class score vectors
  with degree or identity normalization),
* PageRank on graphs (restart parameter α, seed distribution s),
* sweep-cut rounding of a score vector into a low-conductance partition,
* a two-cluster synthetic hypergraph generator,
* ingestion of tabular records into a hypergraph (one hyperedge per
  categorical value and per numeric bin).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .solvers import ProblemInstance, SolveConfig, SolveResult, _columns, _component_layout, solve
from .submodular import (
    _ALL_KINDS, SubmodularAtom, _as_ints, _frozen, _Layout, _real, _reals, as_diagonal
)

__all__ = [
    "Hypergraph",
    "LabeledDataset",
    "SweepCut",
    "build_ssl_instance",
    "ssl_score_matrix",
    "argmax_classify",
    "build_pagerank_instance",
    "pagerank_residual",
    "adjacency_multiply",
    "cheeger_sweep",
    "generate_synthetic_hypergraph",
    "ingest_tabular_dataset",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False, init=False)
class Hypergraph:
    """A vertex count plus cut components (edges, hyperedges, directed
    hyperedges) reused directly as solver atoms.  ``n`` is a Python or NumPy
    integer ≥ 1 (stored as an int) and bounds every edge's members.  The
    hypergraph holds its edges in columnar form, its layout, which the
    instances built on it share; a generated or ingested hypergraph builds
    ``edges`` on first read."""

    n: int
    _layout: _Layout = field(repr=False)

    def __init__(self, n: int, edges: Sequence[SubmodularAtom]) -> None:
        (n,) = _as_ints((n,), "'n'")
        if n < 1:
            raise ValueError("'n' must be a positive integer")
        edges = tuple(edges)
        columns = _columns(edges, n, "hyperedge", cut_only=True)
        vars(self).update(n=n, _layout=_component_layout(n, *columns, edges))

    @classmethod
    def _of(cls, n: int, incidence: np.ndarray, ends: np.ndarray) -> Hypergraph:
        """The hypergraph on n vertices of trusted unit-weight hyperedges, hyperedge
        r on the distinct vertices incidence[ends[r]:ends[r + 1]] in ascending order."""
        r = ends.size - 1
        kinds = np.full(r, _ALL_KINDS.index("hyperedge"), dtype=np.int8)
        hg = cls.__new__(cls)
        vars(hg).update(n=n, _layout=_component_layout(n, kinds, incidence, ends, np.ones(r)))
        return hg

    @property
    def edges(self) -> tuple[SubmodularAtom, ...]:
        return self._layout.atoms

    @property
    def r(self) -> int:
        return self._layout.kinds.size

    @property
    def incidence(self) -> np.ndarray:
        """Every hyperedge's ``members_arr``, concatenated in edge order (read-only;
        for a generated hypergraph, a view of its member matrix)."""
        return self._layout.incidence

    @property
    def degrees(self) -> np.ndarray:
        """d_i = number of incident hyperedges (weights ignored), the layout's Ψ."""
        return self._layout.psi

    @cached_property
    def weighted_degrees(self) -> np.ndarray:
        layout = self._layout
        weights = np.repeat(layout.weights, np.diff(layout.ends))
        # the bincount of an empty array (no edges) is integer even with weights
        return _frozen(np.bincount(layout.incidence, weights, self.n).astype(float, copy=False))


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Partial labels over n ≥ 1 samples: a map i → class in [0, num_classes).

    ``n``, ``num_classes``, indices and classes are Python or NumPy integers
    (not bools, floats or strings) and are stored as Python ints."""

    n: int
    labels: Mapping[int, int]
    num_classes: int | None = None

    def __post_init__(self) -> None:
        (n,) = _as_ints((self.n,), "n")
        if n < 1:
            raise ValueError("n must be a positive integer")
        indices = _as_ints(self.labels, "labeled indices")
        labels = dict(zip(indices, _as_ints(self.labels.values(), "labels")))
        if self.num_classes is not None:
            (k_total,) = _as_ints((self.num_classes,), "num_classes")
        else:
            k_total = max(max(labels.values(), default=0) + 1, 2)
        if k_total < 2:
            raise ValueError("need at least two classes")
        for i, k in labels.items():
            if not 0 <= i < n:
                raise ValueError(f"labeled index {i} outside 0..{n - 1}")
            if not 0 <= k < k_total:
                raise ValueError(f"label {k} for index {i} outside 0..{k_total - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", MappingProxyType(labels))
        object.__setattr__(self, "num_classes", k_total)

    def anchor(self, k: int) -> np.ndarray:
        """The ±1/0 vector for class k: +1 on class-k labels, −1 on labels
        of any other class, 0 on unlabeled samples."""
        (k,) = _as_ints((k,), "class")
        if not 0 <= k < self.num_classes:
            raise ValueError(f"class {k} outside 0..{self.num_classes - 1}")
        a = np.zeros(self.n)
        for i, label in self.labels.items():
            a[i] = 1.0 if label == k else -1.0
        return a


def _instance_on(
    hg: Hypergraph, a: np.ndarray, w: np.ndarray, scale: np.ndarray
) -> tuple[ProblemInstance, Callable[[np.ndarray], np.ndarray]]:
    """The instance (a, w) on ``hg``'s edges, which shares ``hg``'s layout
    instead of checking the edges again, and the back map x ↦ scale·x."""
    return ProblemInstance._on(a, w, hg._layout), lambda x: scale * np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# label propagation


def build_ssl_instance(
    hg: Hypergraph,
    ds: LabeledDataset | Mapping[int, int],
    k: int,
    beta: float,
    normalization: str = "degree",
) -> tuple[ProblemInstance, Callable[[np.ndarray], np.ndarray]]:
    """Build the class-k score problem

        min_x  β‖x − a‖² + Σ_r w_r (max_{i,j ∈ S_r} x_i/√W_ii − x_j/√W_jj)²

    in normalized coordinates: substituting x' = W^{−1/2}x yields the
    standard form min ‖x' − a'‖²_{βW} + Σ_r f_r(x')² with a' = W^{−1/2}a,
    so the instance's solution IS the vector of classification scores
    x'_i = x_i/√W_ii.  Returns (instance, back) where back maps the solved
    scores to the original coordinates x = W^{1/2}x'.

    ``normalization`` is "degree" (W = incidence counts; every vertex must
    be covered) or "identity".
    """
    if not isinstance(ds, LabeledDataset):
        ds = LabeledDataset(hg.n, ds)
    if ds.n != hg.n:
        raise ValueError(f"dataset has {ds.n} samples for {hg.n} vertices")
    beta = _real(beta, "beta must be a number")
    if not beta > 0:
        raise ValueError("beta must be positive")
    if normalization == "degree":
        wdiag = hg.degrees
        if np.any(wdiag == 0.0):
            vertex = int(np.flatnonzero(wdiag == 0.0)[0])
            raise ValueError(
                f"vertex {vertex} has no incident hyperedge; "
                "degree normalization needs full coverage"
            )
    elif normalization == "identity":
        wdiag = np.ones(hg.n)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")

    sqrt_w = np.sqrt(wdiag)
    return _instance_on(hg, ds.anchor(k) / sqrt_w, beta * wdiag, sqrt_w)


def ssl_score_matrix(
    hg: Hypergraph,
    ds: LabeledDataset,
    beta: float,
    normalization: str = "degree",
    config: SolveConfig = SolveConfig(),
) -> tuple[np.ndarray, list[SolveResult]]:
    """Solve one score problem per class; returns (scores, results) with the
    class-k scores in row k and the class-k solve in ``results[k]``."""
    scores = np.zeros((ds.num_classes, hg.n))
    results = []
    for k in range(ds.num_classes):
        instance, _ = build_ssl_instance(hg, ds, k, beta, normalization)
        results.append(solve(instance, config))
        scores[k] = results[k].x
    return scores, results


def argmax_classify(scores: np.ndarray) -> np.ndarray:
    """Assign each sample the class whose score row is largest."""
    return np.argmax(scores, axis=0)


# ---------------------------------------------------------------------------
# PageRank


def _require_graph(hg: Hypergraph) -> None:
    layout = hg._layout
    bad = (np.diff(layout.ends) != 2) | (layout.kinds == _ALL_KINDS.index("directed_hyperedge"))
    if bad.any():
        raise ValueError(f"hyperedge {int(np.argmax(bad))} is not an undirected 2-vertex edge")


def adjacency_multiply(hg: Hypergraph, v: np.ndarray) -> np.ndarray:
    """(A·v) for the weighted adjacency of a graph-shaped hypergraph."""
    _require_graph(hg)
    v = np.asarray(v, dtype=float)
    layout = hg._layout
    # a graph's incidence is [i₀, j₀, i₁, j₁, …]; each endpoint gets w·v[other end]
    far = v[layout.incidence.reshape(-1, 2)[:, ::-1]].ravel()
    weights = np.repeat(layout.weights, 2) * far
    return np.bincount(layout.incidence, weights=weights, minlength=hg.n).astype(float, copy=False)


def build_pagerank_instance(
    hg: Hypergraph,
    alpha: float,
    s,
) -> tuple[ProblemInstance, Callable[[np.ndarray], np.ndarray]]:
    """Reduce PageRank with restart probability 1−α to the quadratic form

        min_p  (1−α)/α · ‖p − s‖²_{D⁻¹} + (D⁻¹p)ᵀ(D − A)(D⁻¹p),

    i.e. the instance with x = D⁻¹p, a = D⁻¹s, W = ((1−α)/α)·D, and one
    edge component per graph edge.  Returns (instance, back) with
    back(x) = D·x = p.  The solved p satisfies p = (1−α)s + αAD⁻¹p.
    """
    _require_graph(hg)
    alpha = _real(alpha, "alpha must be a number")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    d = hg.weighted_degrees
    if np.any(d == 0.0):
        vertex = int(np.flatnonzero(d == 0.0)[0])
        raise ValueError(f"vertex {vertex} has degree zero")
    s = _reals(s, "seed vector entries must be numbers")
    if s.shape != (hg.n,):
        raise ValueError(f"seed vector has shape {s.shape}, expected ({hg.n},)")
    return _instance_on(hg, s / d, ((1.0 - alpha) / alpha) * d, d)


def pagerank_residual(hg: Hypergraph, alpha: float, s, p) -> float:
    """‖(1−α)s + α·A·D⁻¹p − p‖_∞, the fixed-point defect of p."""
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    walk = adjacency_multiply(hg, p / hg.weighted_degrees)
    return float(np.max(np.abs((1.0 - alpha) * s + alpha * walk - p)))


# ---------------------------------------------------------------------------
# sweep-cut rounding


@dataclass(frozen=True, eq=False)
class SweepCut:
    """Result of scanning score-ordered prefixes for the lowest-conductance
    split.  ``best_index`` is the prefix length j* ∈ [1, N−1];
    ``conductances[j−1]`` is c(S_j)."""

    order: np.ndarray
    conductances: np.ndarray
    best_index: int
    conductance: float

    @property
    def prefix(self) -> np.ndarray:
        return self.order[: self.best_index]

    def labels(self, prefix_class: int = 1) -> np.ndarray:
        """0/1 vertex labels; the high-score prefix side gets prefix_class."""
        out = np.full(self.order.size, 1 - prefix_class, dtype=int)
        out[self.prefix] = prefix_class
        return out


def cheeger_sweep(hg: Hypergraph, w, x) -> SweepCut:
    """Sweep the prefixes of the normalized-score order.

    Vertices are sorted by x_i/√W_ii descending (ties broken by index); for
    every prefix S_j, 1 ≤ j ≤ N−1, the conductance

        c(S_j) = #{r: S_r crosses the cut} / min(Σ_r |S_r ∩ S_j|, Σ_r |S_r ∩ S̄_j|)

    is computed for all j at once, and the first minimizer is returned.  A
    hyperedge whose ``members`` (for a directed hyperedge too) take the
    ranks first ≤ last in the order crosses S_j exactly while
    first < j ≤ last, so the crossing counts are a running sum of +1 at every
    first rank and −1 at every last; a size-1 hyperedge has first = last and
    never crosses.  The volumes Σ_r |S_r ∩ S_j| are the running sum of the
    degrees in order.  A side with no incidence mass cannot anchor a
    meaningful cut and scores ∞.
    """
    if hg.r == 0:
        raise ValueError("cannot sweep a hypergraph with no hyperedges")
    if hg.n < 2:
        raise ValueError("need at least two vertices to form a cut")
    x = _reals(x, "'x' must be a list of numbers")
    if x.shape != (hg.n,):
        raise ValueError(f"'x' has shape {x.shape}, expected ({hg.n},)")
    wdiag = as_diagonal(w, hg.n)
    if not np.all(wdiag > 0):
        raise ValueError("all diagonal weights must be positive")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(wdiag))):
        raise ValueError("x and w must be finite")
    scores = x / np.sqrt(wdiag)
    order = np.argsort(-scores, kind="stable")

    rank = np.empty(hg.n, dtype=np.intp)
    rank[order] = np.arange(hg.n)
    layout = hg._layout
    ranks = rank[layout.incidence]
    first = np.minimum.reduceat(ranks, layout.ends[:-1])
    last = np.maximum.reduceat(ranks, layout.ends[:-1])
    crossing = np.cumsum(
        np.bincount(first, minlength=hg.n) - np.bincount(last, minlength=hg.n)
    )[:-1]

    degrees = layout.psi
    vol_total = float(degrees.sum())
    vol_in = np.cumsum(degrees[order[:-1]])
    denom = np.minimum(vol_in, vol_total - vol_in)
    conductances = np.full(hg.n - 1, np.inf)
    np.divide(crossing, denom, out=conductances, where=denom > 0)
    best = int(np.argmin(conductances))
    return SweepCut(
        order=order,
        conductances=conductances,
        best_index=best + 1,
        conductance=float(conductances[best]),
    )


# ---------------------------------------------------------------------------
# synthetic two-cluster hypergraphs


def generate_synthetic_hypergraph(
    n: int,
    within_per_cluster: int,
    across: int,
    edge_size: int,
    labeled_per_cluster: int,
    seed: int,
) -> tuple[Hypergraph, LabeledDataset, np.ndarray]:
    """Two equal clusters; hyperedges sampled uniformly without replacement.

    Within-cluster hyperedges draw their vertices from one cluster,
    across-cluster ones from all vertices (they may, by chance, land inside
    a single cluster and are kept regardless).  ``labeled_per_cluster``
    vertices per cluster are revealed.  Returns the hypergraph, the partial
    labels, and the ground-truth assignment (first half 0, second half 1).
    """
    args = (n, within_per_cluster, across, edge_size, labeled_per_cluster, seed)
    n, within, across, edge_size, labeled, seed = _as_ints(args, "generator arguments")
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and at least 2")
    half = n // 2
    if not 1 <= edge_size <= half:
        raise ValueError(f"edge_size must lie in 1..{half}")
    if not 0 <= labeled <= half:
        raise ValueError(f"labeled_per_cluster must lie in 0..{half}")
    if min(within, across, seed) < 0:
        raise ValueError("within_per_cluster, across and seed must be nonnegative")
    if max(n, 2 * within + across) > np.iinfo(np.intp).max:
        raise ValueError("n and the hyperedge count must fit in a machine integer")
    if n << (edge_size - 1).bit_length() >= 2**63:  # the bound of `_choice_rows`' keys
        raise ValueError("n · 2^⌈log₂ edge_size⌉ must fit in a machine integer")
    rng = np.random.default_rng(seed)
    # cluster 0's within rows, cluster 1's, then the across rows
    rows = _choice_rows(rng, np.repeat([half, n], [2 * within, across]), edge_size)
    rows[within : 2 * within] += half
    rows.sort(axis=1)  # each row's members are distinct and in 0..n−1 as drawn
    matrix = _frozen(rows.astype(np.intp, copy=False))
    truth = np.zeros(n, dtype=int)
    truth[half:] = 1
    labels: dict[int, int] = {}
    for start, klass in ((0, 0), (half, 1)):
        picks = rng.choice(half, size=labeled, replace=False) + start
        for v in picks:
            labels[int(v)] = klass
    hg = Hypergraph._of(n, matrix.reshape(-1), np.arange(0, matrix.size + 1, edge_size, np.intp))
    return hg, LabeledDataset(n, labels, num_classes=2), truth


def _choice_rows(rng: np.random.Generator, pops: np.ndarray, size: int) -> np.ndarray:
    """``[rng.choice(p, size, replace=False) for p in pops]`` as one matrix,
    drawing the same stream.

    For a row with p ≤ 10000 or size ≤ p // 50, NumPy's `Generator.choice`
    runs Floyd's algorithm: for column c it draws v in [0, j], j = p − size + c,
    and takes v, or j if v is taken already.  It then shuffles the row with
    one draw in [0, i] per i = size − 1, …, 1, swapping columns i and the draw.
    Each of these is one Lemire-bounded draw, as ``rng.integers(0, highs,
    endpoint=True)`` draws element by element (a bound of 0 draws nothing
    in both), so a run of such rows takes one call.  Rows of NumPy's other
    branch, a tail shuffle of ``range(p)``, keep their own call, in order.
    Every p·2^⌈log₂ size⌉ must lie below 2^63, the bound of the sort keys.
    """
    pops = np.asarray(pops, dtype=np.int64)
    out = np.empty((pops.size, size), dtype=np.int64)
    tail = (pops > 10000) & (size > pops // 50)
    shift = (size - 1).bit_length()  # a row's sort keys are v·2^shift + c
    # NumPy draws a bound below 2**32 as 32 bits at any dtype, so int32 gives the
    # same numbers in half the memory: a freed int64 draw matrix raised glibc's
    # mmap threshold and the `ap` benchmark's peak RSS by about 0.5 MB.  The keys
    # and the shuffle's flat indices, below pops.size · size, take the same dtype
    small = max(int(pops.max(initial=0)) << shift, pops.size * size) < 2**31
    dtype, unsigned = (np.int32, np.uint32) if small else (np.int64, np.uint64)
    cuts = [0, *(np.flatnonzero(tail[1:] != tail[:-1]) + 1).tolist(), pops.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo < hi and tail[lo]:
            for r in range(lo, hi):
                out[r] = rng.choice(pops[r], size=size, replace=False)
            continue
        k, steps = hi - lo, np.arange(size, dtype=dtype)
        base = (pops[lo:hi, None] - size).astype(dtype)
        highs = np.empty((k, 2 * size - 1), dtype)
        floyd = np.add(base, steps, out=highs[:, :size])  # column c's j
        highs[:, size:] = steps[:0:-1]
        draws = rng.integers(0, highs, endpoint=True, dtype=dtype)
        picks, swaps = draws[:, :size], draws[:, size:]
        # Floyd's set holds every earlier v of the row and the j of every earlier
        # repeat, so v repeats iff it equals an earlier v or an earlier repeat's j.
        # Sorted, the keys put equal vs side by side in column order
        order = np.left_shift(picks, shift)
        order |= steps
        order.sort(axis=1)
        same = np.zeros((k, size), dtype=bool)  # v equals the v before it in the order
        np.less(order[:, 1:] ^ order[:, :-1], 1 << shift, out=same[:, 1:])
        order &= (1 << shift) - 1
        at = np.flatnonzero(same)
        repeat = np.zeros(k * size, dtype=bool)
        repeat[at - at % size + order.ravel()[at]] = True
        # a v equal to the j of an earlier column repeats if that column did.  Each
        # such column comes before its hit, so OR-ing the few hits' sources into them
        # until nothing changes gives what a pass over the columns in order gives
        column = picks - base  # the column whose j a pick equals, if 0 ≤ column < c
        at = np.flatnonzero(column.view(unsigned) < steps.view(unsigned))
        source = at - at % size + column.ravel()[at]
        while (more := at[repeat[source] > repeat[at]]).size:
            repeat[more] = True
        np.copyto(picks, floyd, where=repeat.reshape(k, size))
        # the swaps, one column at a time, at flat indices into the rows
        rows = out[lo:hi]
        rows[:] = picks
        flat = rows.ravel()
        swaps = np.add(swaps.T, np.arange(0, k * size, size, dtype=dtype), order="C")
        for i, j in zip(range(size - 1, 0, -1), swaps):
            held = flat[j]
            flat[j] = rows[:, i]
            rows[:, i] = held
    return out


# ---------------------------------------------------------------------------
# tabular ingestion


def ingest_tabular_dataset(
    rows: Sequence[Mapping[str, str]],
    schema: Sequence[tuple[str, str]],
    bins: int = 10,
    equal_frequency: bool = False,
) -> Hypergraph:
    """Turn records into a hypergraph whose vertices are the row indices.

    Every (categorical column, value) group and every (numeric column, bin)
    group of size ≥ 2 becomes one unit-weight hyperedge; singleton groups
    are dropped.  Numeric columns are split into ``bins`` equal-width bins
    over the observed [min, max] (equal-frequency quantile bins with the
    flag); a constant numeric column has a single degenerate bin and
    contributes nothing.

    ``schema`` is a sequence of (name, kind) pairs with kind "categorical"
    or "numeric" (`io.load_schema` reads them from a file).  Columns not
    named in the schema are ignored.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to ingest")
    (bins,) = _as_ints((bins,), "bins")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    incidence, ends = [], [0]  # the hyperedges' members, concatenated, and their ends
    for name, kind in schema:
        if kind == "categorical":
            keys: list = [_cell(row, name, idx) for idx, row in enumerate(rows)]
        elif kind == "numeric":
            values = np.empty(len(rows))
            for idx, row in enumerate(rows):
                cell = _cell(row, name, idx)
                try:
                    values[idx] = float(cell)
                except ValueError:
                    values[idx] = np.nan
                if not np.isfinite(values[idx]):
                    raise ValueError(
                        f"column {name!r}, row {idx}: {cell!r} is not numeric or not finite"
                    )
            lo, hi = float(values.min()), float(values.max())
            if lo == hi:
                logger.info("column %r is constant; dropped its single bin", name)
                continue
            if np.isinf(hi - lo):  # halving is exact, so every value keeps its bin
                values, lo, hi = values / 2.0, lo / 2.0, hi / 2.0
            if equal_frequency:
                cuts = np.quantile(values, np.linspace(0.0, 1.0, bins + 1))[1:-1]
                assignment = np.searchsorted(cuts, values, side="right")
            else:
                width = (hi - lo) / bins
                assignment = np.minimum((values - lo) // width, bins - 1).astype(int)
            keys = assignment.tolist()
        else:
            raise ValueError(f"column {name!r}: unknown kind {kind!r}")
        groups: dict = {}
        for idx, key in enumerate(keys):
            groups.setdefault(key, []).append(idx)
        dropped = 0
        for _, members in sorted(groups.items()):  # ascending, distinct rows
            if len(members) < 2:
                dropped += 1
                continue
            incidence += members
            ends.append(len(incidence))
        if dropped:
            logger.info("column %r: dropped %d singleton group(s)", name, dropped)
    return Hypergraph._of(len(rows), np.array(incidence, dtype=np.intp),
                          np.array(ends, dtype=np.intp))


def _cell(row: Mapping[str, str], name: str, idx: int) -> str:
    try:
        value = row[name]
    except KeyError:
        raise ValueError(f"row {idx} is missing column {name!r}") from None
    if value is None:
        raise ValueError(f"row {idx} is missing column {name!r}")
    return value
