"""Submodular set-function components and their polyhedral machinery.

Each component is a nonnegative, normalized submodular function F_r attached
to an incidence set S_r of ground-set indices.  The module computes its
Lovász extension f_r (the support function of the base polytope B_r) and
runs Edmonds' greedy algorithm as the linear-minimization oracle over B_r.

Cut-type components (graph edges, hyperedges, directed hyperedges) get
closed forms at every size, one member included; general components are
read through an explicit value table or a user callback.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "SubmodularAtom",
    "graph_edge_cut",
    "hyperedge_cut",
    "directed_hyperedge_cut",
    "general_oracle",
    "lovasz_extension",
    "greedy_linear_minimizer",
]

# a component's kind code is its index in _ALL_KINDS: the cut kinds come first, and
# the symmetric ones (edge, hyperedge) first among them
_CUT_KINDS = ("edge", "hyperedge", "directed_hyperedge")
_ALL_KINDS = _CUT_KINDS + ("table", "oracle")


def _as_ints(values: Iterable, what: str) -> Sequence[int]:
    """``values`` as a list or tuple of Python ints; each must be a Python or
    NumPy integer, not a bool, float or string."""
    if not isinstance(values, (list, tuple)):
        values = tuple(values)
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in kinds):
        raise ValueError(f"{what}: expected integers, not bools, floats or strings")
    return tuple(map(int, values))


def _indices(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as a sorted tuple of distinct, nonnegative Python ints."""
    out = tuple(sorted(_as_ints(values, what)))
    if not out:
        raise ValueError(f"{what} must be nonempty")
    if out[0] < 0:
        raise ValueError(f"{what} contains negative indices")
    if len(set(out)) != len(out):
        raise ValueError(f"{what} contains duplicate indices")
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only."""
    arr.flags.writeable = False
    return arr


def _real(value: object, message: str) -> float:
    """A real number (not a bool or a string) in the float range, as a float;
    anything else raises ValueError(message) naming the value."""
    if type(value) is not float:  # a float skips the slow numbers.Real test
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{message}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{message}, got {value!r}") from None


def _reals(values: object, message: str) -> np.ndarray:
    """A new float array from a NumPy array of integer or float dtype, or
    from a list or tuple of numbers each taken by `_real`; anything else
    raises ValueError(message)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float)
    if not isinstance(values, (list, tuple)):
        raise ValueError(message)
    return np.array([_real(v, message) for v in values], dtype=float)


def _value_table(table: Mapping[int, float], m: int) -> dict[int, float]:
    """A table over the 2^m subsets of m members as {bitmask: float}."""
    keys = _as_ints(table, "table keys")
    tbl = {k: _real(v, "table values must be numbers") for k, v in zip(keys, table.values())}
    full = 1 << m
    if len(tbl) != full or not all(0 <= k < full for k in tbl):
        raise ValueError(f"table must cover all {full} subsets of members")
    if tbl[0] != 0:
        raise ValueError("table must be normalized: value of the empty set is 0")
    if not all(0 <= v < math.inf for v in tbl.values()):
        raise ValueError("table values must be finite and nonnegative")
    return tbl


@dataclass(frozen=True, eq=False)
class SubmodularAtom:
    """One component F_r with incidence set ``members`` and scale ``weight``.

    Kinds:
      * ``"edge"``: F(S) = sqrt(weight) if S splits the two endpoints.
      * ``"hyperedge"``: F(S) = sqrt(weight) if S splits ``members`` properly.
      * ``"directed_hyperedge"``: F(S) = sqrt(weight) if S meets ``head`` and
        misses part of ``tail``.
      * ``"table"``: F(S) = weight * table[bitmask(S)] with bit k standing for
        ``members[k]``.
      * ``"oracle"``: F(S) = weight * fn(S) for a user callback on subsets of
        ``members`` (given as frozensets of global indices).

    The constructor is the one place a component is checked and normalized;
    anything else raises ValueError:

      * ``members``, ``head``, ``tail``: iterables of Python or NumPy integers
        (not bools, floats or strings), stored as sorted tuples of Python
        ints.  ``members`` is nonempty, duplicate-free, ≥ 0 and fits
        ``np.intp``; an edge has exactly two.  ``head`` and ``tail`` are
        nonempty subsets of ``members``, given exactly for a directed hyperedge.
      * ``weight``: a finite real number ≥ 0 (not a bool or a string), stored
        as a float.
      * ``table``, exactly for kind "table": integer keys covering every
        subset, finite numbers ≥ 0 as values, F(∅) = 0.
      * ``fn``, exactly for kind "oracle": fn(∅) = 0.  Submodularity is trusted.

    F depends on S only through S ∩ members: coordinates outside
    ``members`` are never read and base-polytope points are zero there.
    """

    kind: str
    members: tuple[int, ...]
    weight: float = 1.0
    head: tuple[int, ...] | None = None
    tail: tuple[int, ...] | None = None
    table: Mapping[int, float] | None = None
    fn: Callable[[frozenset[int]], float] | None = None

    def __post_init__(self) -> None:
        kind = self.kind
        if kind not in _ALL_KINDS:
            raise ValueError(f"unknown atom kind {kind!r}")
        members = _indices(self.members, "members")
        try:
            members_arr = np.asarray(members, dtype=np.intp)
        except OverflowError as exc:
            raise ValueError("member indices must fit in a machine integer") from exc
        if kind == "edge" and len(members) != 2:
            raise ValueError("an edge needs exactly two members")
        weight = _real(self.weight, "weight must be a number")
        if not 0 <= weight < math.inf:
            raise ValueError("weight must be finite and nonnegative")
        directed = kind == "directed_hyperedge"
        if (self.head is None) == directed or (self.tail is None) == directed:
            raise ValueError("head and tail are given exactly for a directed hyperedge")
        if (self.table is None) == (kind == "table"):
            raise ValueError("a table is given exactly for kind 'table'")
        if (self.fn is None) == (kind == "oracle"):
            raise ValueError("fn is given exactly for kind 'oracle'")
        if kind == "table":
            object.__setattr__(self, "table", _value_table(self.table, len(members)))
        if kind == "oracle" and abs(self.fn(frozenset())) > 0:  # type: ignore[misc]
            raise ValueError("oracle must be normalized: fn(empty set) == 0")
        if directed:
            head, tail = _indices(self.head, "head"), _indices(self.tail, "tail")
            pos_of = {g: p for p, g in enumerate(members)}
            if not pos_of.keys() >= {*head, *tail}:
                raise ValueError("head and tail must be subsets of members")
            head_pos = np.asarray([pos_of[g] for g in head], dtype=np.intp)
            tail_pos = np.asarray([pos_of[g] for g in tail], dtype=np.intp)
            object.__setattr__(self, "head", head)
            object.__setattr__(self, "tail", tail)
        elif kind in _CUT_KINDS:
            head_pos = tail_pos = np.arange(len(members), dtype=np.intp)
        if kind in _CUT_KINDS:
            head_pos.setflags(write=False)
            tail_pos.setflags(write=False)
            object.__setattr__(self, "_head_pos", head_pos)
            object.__setattr__(self, "_tail_pos", tail_pos)
        members_arr.setflags(write=False)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_members_arr", members_arr)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "_sqrt_w", math.sqrt(weight))

    # Derived read-only arrays (set in __post_init__); an atom without head
    # and tail shares one position array between head_pos and tail_pos.
    @property
    def members_arr(self) -> np.ndarray:
        return self._members_arr  # type: ignore[attr-defined]

    @property
    def head_pos(self) -> np.ndarray:
        return self._head_pos  # type: ignore[attr-defined]

    @property
    def tail_pos(self) -> np.ndarray:
        return self._tail_pos  # type: ignore[attr-defined]

    @property
    def sqrt_w(self) -> float:
        return self._sqrt_w  # type: ignore[attr-defined]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_cut(self) -> bool:
        return self.kind in _CUT_KINDS


@dataclass(frozen=True, eq=False)
class _Layout:
    """What every layer reads of a tuple of components, derived (read-only) by
    `solvers._component_layout` from their columnar form once per
    `ProblemInstance` and per `Hypergraph`: a builder's instance shares its
    hypergraph's.  ``atoms`` is built on first read when the layout was
    derived without atoms (edges and hyperedges only)."""

    kinds: np.ndarray  # component r's kind code, its index in `_ALL_KINDS`
    incidence: np.ndarray  # every component's members, concatenated in order
    ends: np.ndarray  # component r's entries are incidence[ends[r]:ends[r + 1]]
    weights: np.ndarray  # component r's weight
    psi: np.ndarray  # per-vertex coverage counts Ψ, as floats
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]  # `_symmetric_cut_groups`
    rest: tuple[int, ...]  # and the indices of all other components

    @cached_property
    def atoms(self) -> tuple[SubmodularAtom, ...]:
        """The components as atoms, each equal to the constructor's: ``members_arr``
        views the incidence, atoms of one size share one position array, and the
        member tuples share one int object per vertex."""
        vertices = np.arange(self.psi.size).astype(object)
        members, ends = vertices[self.incidence].tolist(), self.ends.tolist()
        positions = {m: _frozen(np.arange(m, dtype=np.intp)) for m in set(np.diff(ends).tolist())}
        put, atoms = object.__setattr__, []
        for kind, lo, hi, w in zip(self.kinds.tolist(), ends, ends[1:], self.weights.tolist()):
            pos = positions[hi - lo]
            atom = object.__new__(SubmodularAtom)  # trusted columns: no __post_init__
            put(atom, "kind", _ALL_KINDS[kind])  # head, tail, table and fn keep their defaults
            put(atom, "members", tuple(members[lo:hi]))
            put(atom, "weight", w)
            put(atom, "_members_arr", self.incidence[lo:hi])
            put(atom, "_head_pos", pos)
            put(atom, "_tail_pos", pos)
            put(atom, "_sqrt_w", math.sqrt(w))
            atoms.append(atom)
        return tuple(atoms)


def graph_edge_cut(i: int, j: int, weight: float = 1.0) -> SubmodularAtom:
    """Two-endpoint cut: F(S) = sqrt(weight) iff S separates i from j."""
    return SubmodularAtom("edge", (i, j), weight)


def hyperedge_cut(members: Iterable[int], weight: float = 1.0) -> SubmodularAtom:
    """Undirected hyperedge cut: F(S) = sqrt(weight) iff ∅ ⊂ S∩members ⊂ members."""
    return SubmodularAtom("hyperedge", members, weight)


def directed_hyperedge_cut(
    head: Iterable[int],
    tail: Iterable[int],
    members: Iterable[int] | None = None,
    weight: float = 1.0,
) -> SubmodularAtom:
    """Directed hyperedge cut: F(S) = sqrt(weight) iff S meets head and misses
    part of tail.  ``members`` defaults to head ∪ tail and may be a superset.
    """
    head, tail = tuple(head), tuple(tail)
    if members is None:
        members = set(head) | set(tail)
    return SubmodularAtom("directed_hyperedge", members, weight, head=head, tail=tail)


def general_oracle(
    members: Iterable[int],
    fn: Callable[[frozenset[int]], float] | None = None,
    table: Mapping[int, float] | None = None,
    weight: float = 1.0,
) -> SubmodularAtom:
    """General component from a value table (bitmask over member positions) or
    a callback; exactly one of ``fn`` and ``table`` is given.
    """
    if (fn is None) == (table is None):
        raise ValueError("provide exactly one of fn or table")
    kind = "oracle" if table is None else "table"
    return SubmodularAtom(kind, members, weight, table=table, fn=fn)


# ---------------------------------------------------------------------------
# Greedy linear minimization over the base polytope


def _value_on_positions(atom: SubmodularAtom, pos: frozenset[int]) -> float:
    """F of a table or oracle component at a subset given by member *positions*."""
    if atom.kind == "table":
        mask = 0
        for p in pos:
            mask |= 1 << p
        return atom.weight * atom.table[mask]  # type: ignore[index]
    subset = frozenset(atom.members[p] for p in pos)
    return atom.weight * atom.fn(subset)  # type: ignore[misc]


def _greedy_local(atom: SubmodularAtom, c_loc: np.ndarray) -> np.ndarray:
    """argmin_{q ∈ B_r} <c, q> over local coordinates (length |S_r|).

    Indices are sorted by c ascending, ties broken by position ascending
    (stable), and q at the k-th sorted index is F(first k) − F(first k−1).
    """
    m = atom.size
    q = np.zeros(m)
    if atom.is_cut:
        hp, tp = atom.head_pos, atom.tail_pos
        ch = c_loc[hp]
        u = int(hp[int(np.argmin(ch))])  # first head in the sorted order
        rev = tp[::-1]
        v = int(rev[int(np.argmax(c_loc[rev]))])  # last tail in the sorted order
        cu, cv = float(c_loc[u]), float(c_loc[v])
        if cu < cv or (cu == cv and u < v):
            q[u] = atom.sqrt_w
            q[v] = -atom.sqrt_w
        return q
    order = np.argsort(c_loc, kind="stable")
    prev = 0.0
    running: set[int] = set()
    for p in order:
        running.add(int(p))
        cur = _value_on_positions(atom, frozenset(running))
        q[p] = cur - prev
        prev = cur
    return q


def greedy_linear_minimizer(atom: SubmodularAtom, c: np.ndarray) -> np.ndarray:
    """Minimize <c, q> over the base polytope B_r by Edmonds' greedy rule.

    Args:
        atom: the component.
        c: dense cost vector (length covering all members).

    Returns:
        Dense vector q of the same length as c, zero outside the incidence
        set, with q(S) ≤ F(S) for every S and q(S_r) = F(S_r).
    """
    c = np.asarray(c, dtype=float)
    q = np.zeros(len(c))
    q[atom.members_arr] = _greedy_local(atom, c[atom.members_arr])
    return q


def lovasz_extension(atom: SubmodularAtom, x: np.ndarray) -> float:
    """Lovász extension f_r(x) = max_{q ∈ B_r} <q, x>.

    Equals the telescoped sum Σ_k F(top-k set)(x_(k) − x_(k+1)) over the
    coordinates of the incidence set sorted descending.  Closed forms are
    used for cut components:

      * edge: sqrt(w)·|x_i − x_j|
      * hyperedge: sqrt(w)·(max − min over members)
      * directed hyperedge: sqrt(w)·max(0, max over head − min over tail)
    """
    x = np.asarray(x, dtype=float)
    xl = x[atom.members_arr]
    if atom.is_cut:
        hi = float(np.max(xl[atom.head_pos]))
        lo = float(np.min(xl[atom.tail_pos]))
        return atom.sqrt_w * max(0.0, hi - lo)
    # Σ_k F(top-k)(x_k − x_{k+1}) telescopes to Σ_k (F_k − F_{k−1})·x_k,
    # i.e. the inner product with the greedy maximizer.
    order = np.argsort(-xl, kind="stable")
    total = 0.0
    prev = 0.0
    running: set[int] = set()
    for p in order:
        running.add(int(p))
        cur = _value_on_positions(atom, frozenset(running))
        total += (cur - prev) * float(xl[p])
        prev = cur
    return total


# ---------------------------------------------------------------------------
# Weights


def as_diagonal(w, n: int) -> np.ndarray:
    """Diagonal weights as a new length-``n`` float vector: None is all ones,
    a number (or 0-d array) is broadcast, a vector is taken by `_reals`."""
    message = "'w' must be a number or a list of numbers"
    if w is None:
        return np.ones(n)
    if not isinstance(w, (list, tuple, np.ndarray)):
        return np.full(n, _real(w, message))
    arr = _reals(w, message)
    if arr.ndim == 0:
        return np.full(n, arr)
    if arr.shape != (n,):
        raise ValueError(f"'w' has shape {arr.shape}, expected ({n},)")
    return arr
