"""Submodular set-function components and their polyhedral machinery.

Each component is a nonnegative, normalized submodular function F_r attached
to an incidence set S_r of ground-set indices.  The module evaluates F_r,
computes its Lovász extension f_r (the support function of the base
polytope B_r), and runs Edmonds' greedy algorithm as the linear-minimization
oracle over B_r.

Cut-type components (graph edges, hyperedges, directed hyperedges) get
closed forms throughout; general components are handled through an explicit
value table or a user callback.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "SubmodularAtom",
    "graph_edge_cut",
    "hyperedge_cut",
    "directed_hyperedge_cut",
    "general_oracle",
    "evaluate",
    "lovasz_extension",
    "greedy_linear_minimizer",
]

_CUT_KINDS = ("edge", "hyperedge", "directed_hyperedge")
_ALL_KINDS = _CUT_KINDS + ("table", "oracle")


def _check_indices(name: str, idx: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(int(i) for i in idx))
    if len(out) == 0:
        raise ValueError(f"{name} must be nonempty")
    if out[0] < 0:
        raise ValueError(f"{name} contains negative indices")
    if len(set(out)) != len(out):
        raise ValueError(f"{name} contains duplicate indices")
    return out


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

    ``members`` is stored sorted; values of F are always computed on the
    restriction S ∩ members, so callers never pre-restrict.  Coordinates
    outside ``members`` are never read and base-polytope points are zero
    there.
    """

    kind: str
    members: tuple[int, ...]
    weight: float = 1.0
    head: tuple[int, ...] | None = None
    tail: tuple[int, ...] | None = None
    table: Mapping[int, float] | None = None
    fn: Callable[[frozenset[int]], float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.weight < 0 or not math.isfinite(self.weight):
            raise ValueError("weight must be finite and nonnegative")
        if len(self.members) == 0:
            raise ValueError("members must be nonempty")
        if any(b <= a for a, b in zip(self.members, self.members[1:])):
            raise ValueError("members must be strictly increasing")
        try:
            members = np.asarray(self.members, dtype=np.intp)
        except OverflowError as exc:
            raise ValueError("member indices must fit in a machine integer") from exc
        members.flags.writeable = False
        object.__setattr__(self, "_members_arr", members)
        if self.kind in _CUT_KINDS:
            if self.head is None and self.tail is None:
                head_pos = tail_pos = np.arange(len(self.members), dtype=np.intp)
            else:
                pos_of = {g: p for p, g in enumerate(self.members)}
                head = self.head if self.head is not None else self.members
                tail = self.tail if self.tail is not None else self.members
                head_pos = np.asarray([pos_of[g] for g in head], dtype=np.intp)
                tail_pos = np.asarray([pos_of[g] for g in tail], dtype=np.intp)
            head_pos.flags.writeable = False
            tail_pos.flags.writeable = False
            object.__setattr__(self, "_head_pos", head_pos)
            object.__setattr__(self, "_tail_pos", tail_pos)
        object.__setattr__(self, "_sqrt_w", math.sqrt(self.weight))

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


def graph_edge_cut(i: int, j: int, weight: float = 1.0) -> SubmodularAtom:
    """Two-endpoint cut: F(S) = sqrt(weight) iff S separates i from j."""
    if int(i) == int(j):
        raise ValueError("graph edge needs two distinct endpoints")
    members = _check_indices("members", (i, j))
    return SubmodularAtom("edge", members, float(weight))


def hyperedge_cut(members: Iterable[int], weight: float = 1.0) -> SubmodularAtom:
    """Undirected hyperedge cut: F(S) = sqrt(weight) iff ∅ ⊂ S∩members ⊂ members."""
    return SubmodularAtom("hyperedge", _check_indices("members", members), float(weight))


def directed_hyperedge_cut(
    head: Iterable[int],
    tail: Iterable[int],
    members: Iterable[int] | None = None,
    weight: float = 1.0,
) -> SubmodularAtom:
    """Directed hyperedge cut: F(S) = sqrt(weight) iff S meets head and misses
    part of tail.  ``members`` defaults to head ∪ tail and may be a superset.
    """
    h = _check_indices("head", head)
    t = _check_indices("tail", tail)
    if members is None:
        m = tuple(sorted(set(h) | set(t)))
    else:
        m = _check_indices("members", members)
        if not (set(h) <= set(m) and set(t) <= set(m)):
            raise ValueError("head and tail must be subsets of members")
    return SubmodularAtom("directed_hyperedge", m, float(weight), head=h, tail=t)


def general_oracle(
    members: Iterable[int],
    fn: Callable[[frozenset[int]], float] | None = None,
    table: Mapping[int, float] | None = None,
    weight: float = 1.0,
) -> SubmodularAtom:
    """General component from a value table (bitmask over member positions) or
    a callback.  Normalization F(∅)=0 is validated; submodularity is trusted.
    """
    m = _check_indices("members", members)
    if (fn is None) == (table is None):
        raise ValueError("provide exactly one of fn or table")
    if table is not None:
        full = 1 << len(m)
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in table.values()):
            raise ValueError("table values must be numbers, not bools or strings")
        tbl = {int(k): float(v) for k, v in table.items()}
        if len(tbl) != full or not all(0 <= k < full for k in tbl):
            raise ValueError(f"table must cover all {full} subsets of members")
        if abs(tbl[0]) > 0:
            raise ValueError("table must be normalized: value of the empty set is 0")
        if any(v < 0 or not math.isfinite(v) for v in tbl.values()):
            raise ValueError("table values must be finite and nonnegative")
        return SubmodularAtom("table", m, float(weight), table=tbl)
    if abs(fn(frozenset())) > 0:  # type: ignore[misc]
        raise ValueError("oracle must be normalized: fn(empty set) == 0")
    return SubmodularAtom("oracle", m, float(weight), fn=fn)


def _symmetric_cut_groups(
    atoms: Sequence[SubmodularAtom],
) -> tuple[dict[int, list[int]], list[int]]:
    """Indices of the edge and hyperedge atoms with more than one member,
    grouped by size in order of first appearance, and the indices of all
    other atoms.  Atoms of one group can be evaluated or projected together
    as k × size arrays."""
    by_size: dict[int, list[int]] = {}
    rest: list[int] = []
    for r, atom in enumerate(atoms):
        if atom.kind in ("edge", "hyperedge") and atom.size > 1:
            by_size.setdefault(atom.size, []).append(r)
        else:
            rest.append(r)
    return by_size, rest


# ---------------------------------------------------------------------------
# Evaluation


def _value_on_positions(atom: SubmodularAtom, pos: frozenset[int]) -> float:
    """F at a subset given by member *positions* (already restricted)."""
    if atom.kind in _CUT_KINDS:
        if atom.kind == "directed_hyperedge":
            hits_head = any(p in pos for p in atom.head_pos)
            misses_tail = any(p not in pos for p in atom.tail_pos)
            return atom.sqrt_w if (hits_head and misses_tail) else 0.0
        k = len(pos)
        return atom.sqrt_w if 0 < k < atom.size else 0.0
    if atom.kind == "table":
        mask = 0
        for p in pos:
            mask |= 1 << p
        return atom.weight * atom.table[mask]  # type: ignore[index]
    subset = frozenset(atom.members[p] for p in pos)
    return atom.weight * atom.fn(subset)  # type: ignore[misc]


def evaluate(atom: SubmodularAtom, S: Iterable[int]) -> float:
    """Evaluate F_r on S ∩ S_r.

    Args:
        atom: the component.
        S: any iterable of global indices (indices outside the incidence set
           are ignored).

    Returns:
        F_r(S ∩ S_r), a nonnegative float; 0.0 for the empty restriction.
    """
    s = set(S)
    pos = frozenset(p for p, g in enumerate(atom.members) if g in s)
    return _value_on_positions(atom, pos)


# ---------------------------------------------------------------------------
# Greedy linear minimization over the base polytope


def _greedy_local(atom: SubmodularAtom, c_loc: np.ndarray) -> np.ndarray:
    """argmin_{q ∈ B_r} <c, q> over local coordinates (length |S_r|).

    Indices are sorted by c ascending, ties broken by position ascending
    (stable), and q at the k-th sorted index is F(first k) − F(first k−1).
    """
    m = atom.size
    q = np.zeros(m)
    if atom.is_cut:
        if m == 1:
            return q
        hp, tp = atom.head_pos, atom.tail_pos
        ch = c_loc[hp]
        u = int(hp[int(np.argmin(ch))])  # first head in the sorted order
        ct = c_loc[tp]
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
        if atom.size == 1:
            return 0.0
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
    """Diagonal weights as a length-``n`` vector: None is all ones, a scalar is broadcast."""
    if w is None:
        return np.ones(n)
    arr = np.asarray(w, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"weights have shape {arr.shape}, expected ({n},)")
    return arr
