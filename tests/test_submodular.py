"""Set-function components: Lovász extension, greedy oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qdsfm.applications import generate_synthetic_hypergraph
from qdsfm.solvers import _component_layout
from qdsfm.submodular import (
    SubmodularAtom,
    directed_hyperedge_cut,
    general_oracle,
    graph_edge_cut,
    greedy_linear_minimizer,
    hyperedge_cut,
    lovasz_extension,
)


@st.composite
def cut_atoms(draw, max_size=6, max_index=9):
    size = draw(st.integers(2, max_size))
    members = tuple(sorted(draw(st.permutations(range(max_index + 1)))[:size]))
    weight = draw(st.sampled_from([1.0, 0.25, 4.0, 2.5]))
    kind = draw(st.sampled_from(["edge", "hyperedge", "directed_hyperedge"]))
    if kind == "edge":
        return graph_edge_cut(members[0], members[1], weight)
    if kind == "hyperedge":
        return hyperedge_cut(members, weight)
    head = tuple(sorted(draw(st.sets(st.sampled_from(members), min_size=1))))
    tail = tuple(sorted(draw(st.sets(st.sampled_from(members), min_size=1))))
    return directed_hyperedge_cut(head, tail, members, weight)


def _vectors(n, lo=-3.0, hi=3.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
    ).map(np.array)


@settings(max_examples=40, deadline=None)
@given(cut_atoms(max_size=5))
def test_cut_functions_are_normalized_nonnegative_submodular(atom):
    import itertools

    fn = oracles.atom_value_fn(atom)
    subsets = [set(c) for r in range(atom.size + 1) for c in itertools.combinations(atom.members, r)]
    assert fn(set()) == 0.0
    for A in subsets:
        assert fn(A) >= 0.0
    for A in subsets:
        for B in subsets:
            assert fn(A) + fn(B) >= fn(A | B) + fn(A & B) - 1e-12


# ---------------------------------------------------------------------------
# Lovász extension


def test_lovasz_closed_form_examples():
    assert lovasz_extension(graph_edge_cut(0, 1), np.array([1.0, 0.0])) == 1.0
    h = hyperedge_cut([0, 1, 2])
    assert lovasz_extension(h, np.array([3.0, 1.0, 2.0])) == 2.0
    assert lovasz_extension(h, np.array([5.0, 5.0, 5.0])) == 0.0
    d = directed_hyperedge_cut([0], [1], weight=4.0)
    assert lovasz_extension(d, np.array([2.0, -1.0])) == 2.0 * 3.0
    assert lovasz_extension(d, np.array([-1.0, 2.0])) == 0.0  # clamped
    # one member: max − min is 0 through the same closed forms
    x = np.array([0.0, -2.0, 7.0])
    for atom in (hyperedge_cut([1], 4.0), directed_hyperedge_cut([2], [2], weight=4.0)):
        assert lovasz_extension(atom, x) == 0.0
        assert greedy_linear_minimizer(atom, x).tobytes() == np.zeros(3).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lovasz_equals_prefix_formula_and_greedy_support(data):
    atom = data.draw(cut_atoms())
    n = max(atom.members) + 1
    x = data.draw(_vectors(n))
    want = oracles.lovasz_by_prefix(oracles.atom_value_fn(atom), atom.members, x)
    got = lovasz_extension(atom, x)
    assert got == pytest.approx(want, abs=1e-10)
    # support-function identity: f(x) = <x, argmax_{q in B} <q, x>>
    q = greedy_linear_minimizer(atom, -x)
    assert got == pytest.approx(float(np.dot(x, q)), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lovasz_positive_homogeneity(data):
    atom = data.draw(cut_atoms())
    n = max(atom.members) + 1
    x = data.draw(_vectors(n))
    t = data.draw(st.floats(0.0, 7.0))
    assert lovasz_extension(atom, t * x) == pytest.approx(
        t * lovasz_extension(atom, x), rel=1e-9, abs=1e-9
    )


def test_lovasz_nonnegative_for_cuts():
    rng = np.random.default_rng(3)
    for _ in range(50):
        atom = hyperedge_cut(sorted(rng.choice(8, size=4, replace=False)))
        x = rng.normal(size=8)
        assert lovasz_extension(atom, x) >= 0.0


# ---------------------------------------------------------------------------
# greedy linear minimizer


def test_greedy_examples():
    e = graph_edge_cut(0, 1)
    q = greedy_linear_minimizer(e, np.array([1.0, 0.0]))
    assert np.allclose(q, [-1.0, 1.0])
    h = hyperedge_cut([0, 1, 2])
    q = greedy_linear_minimizer(h, np.array([3.0, 1.0, 2.0]))
    assert np.allclose(q, [-1.0, 1.0, 0.0])
    assert np.dot(q, [3.0, 1.0, 2.0]) == -2.0
    # c = 0: output must still be a base-polytope point
    q = greedy_linear_minimizer(h, np.zeros(3))
    assert oracles.in_base_polytope(oracles.atom_value_fn(h), h.members, q, tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_greedy_attains_bruteforce_minimum(data):
    atom = data.draw(cut_atoms(max_size=5))
    n = max(atom.members) + 1
    c = data.draw(_vectors(n))
    got = float(np.dot(c, greedy_linear_minimizer(atom, c)))
    want, _ = oracles.min_linear_over_base(oracles.atom_value_fn(atom), atom.members, c)
    assert got == pytest.approx(want, abs=1e-12)


def test_greedy_bruteforce_size_seven_directed():
    rng = np.random.default_rng(11)
    atom = directed_hyperedge_cut([0, 2, 5], [1, 2, 6], members=range(7), weight=2.0)
    for _ in range(3):
        c = rng.normal(size=7)
        got = float(np.dot(c, greedy_linear_minimizer(atom, c)))
        want, _ = oracles.min_linear_over_base(oracles.atom_value_fn(atom), atom.members, c)
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_greedy_outputs_lie_in_base_polytope(data):
    atom = data.draw(cut_atoms())
    n = max(atom.members) + 1
    c = data.draw(_vectors(n))
    q = greedy_linear_minimizer(atom, c)
    assert not np.any(np.abs(np.delete(q, atom.members)) > 1e-9)  # zero off the members
    assert oracles.in_base_polytope(oracles.atom_value_fn(atom), atom.members, q, tol=1e-9)


def test_greedy_tie_break_is_stable_by_index():
    h = hyperedge_cut([0, 1, 2, 3])
    q = greedy_linear_minimizer(h, np.zeros(4))
    # all costs equal: ascending stable order is 0,1,2,3
    assert np.allclose(q, [1.0, 0.0, 0.0, -1.0])


# ---------------------------------------------------------------------------
# general components (tables and callbacks)


def _coverage_table(members, covers):
    """Coverage function |union of covers| as an explicit table."""
    tbl = {}
    for bits in range(1 << len(members)):
        u = set()
        for p in range(len(members)):
            if bits >> p & 1:
                u |= covers[p]
        tbl[bits] = float(len(u))
    return tbl


def test_table_atom_against_prefix_and_bruteforce():
    members = (0, 2, 3)
    covers = [{1, 2}, {2, 3}, {4}]
    tbl = _coverage_table(members, covers)
    atom = general_oracle(members, table=tbl)

    def fn(S):
        u = set()
        for p, g in enumerate(members):
            if g in S:
                u |= covers[p]
        return float(len(u))

    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=4)
        assert lovasz_extension(atom, x) == pytest.approx(
            oracles.lovasz_by_prefix(fn, members, x), abs=1e-10
        )
        c = rng.normal(size=4)
        got = float(np.dot(c, greedy_linear_minimizer(atom, c)))
        want, _ = oracles.min_linear_over_base(fn, members, c)
        assert got == pytest.approx(want, abs=1e-12)
    # F(full) > 0 here, so greedy outputs must sum to it
    q = greedy_linear_minimizer(atom, rng.normal(size=4))
    assert float(q.sum()) == pytest.approx(fn(set(members)))


def test_callback_atom_square_root_of_cardinality():
    members = (1, 2, 4, 5)
    atom = general_oracle(members, fn=lambda S: math.sqrt(len(S)), weight=3.0)
    x = np.array([0.0, 2.0, -1.0, 0.0, 0.5, 0.5])
    want = oracles.lovasz_by_prefix(
        lambda S: 3.0 * math.sqrt(len(S)), members, x
    )
    assert lovasz_extension(atom, x) == pytest.approx(want, abs=1e-10)
    q = greedy_linear_minimizer(atom, x)
    assert oracles.in_base_polytope(lambda S: 3.0 * math.sqrt(len(S)), members, q, tol=1e-9)


def test_constructor_validation():
    with pytest.raises(ValueError):
        graph_edge_cut(1, 1)
    with pytest.raises(ValueError):
        hyperedge_cut([])
    with pytest.raises(ValueError):
        hyperedge_cut([1, 1, 2])
    with pytest.raises(ValueError):
        directed_hyperedge_cut([9], [1], members=[1, 2])
    with pytest.raises(ValueError):
        general_oracle([0, 1], table={0: 0.0, 1: 1.0})  # incomplete
    with pytest.raises(ValueError):
        general_oracle([0, 1], table={0: 0.5, 1: 1.0, 2: 1.0, 3: 1.0})  # not normalized
    with pytest.raises(ValueError):
        general_oracle([0, 1], fn=lambda S: float(len(S)), table={0: 0.0})
    for bad in ("1", True, np.True_):
        with pytest.raises(ValueError, match="must be numbers"):
            general_oracle([0, 1], table={0: 0, 1: bad, 2: 1.0, 3: 0})
    assert general_oracle([0, 1], table={0: 0, 1: np.int64(1), 2: 1, 3: 0}).table == {
        0: 0.0, 1: 1.0, 2: 1.0, 3: 0.0}
    with pytest.raises(ValueError):
        hyperedge_cut([0, 1], weight=-1.0)
    with pytest.raises(ValueError, match="machine integer"):
        hyperedge_cut([0, 2**64])  # past np.intp
    # indices are integers: floats, strings and bools are rejected, not truncated
    for bad in ([0.5, 1.7], ["3", "1"], [True, 2], [np.float64(1.0), 2]):
        with pytest.raises(ValueError, match="integers"):
            hyperedge_cut(bad)
    with pytest.raises(ValueError, match="integers"):
        graph_edge_cut(0.9, 1.2)
    with pytest.raises(ValueError, match="integers"):
        SubmodularAtom("hyperedge", (0.5, 1.5))
    with pytest.raises(ValueError, match="integers"):
        directed_hyperedge_cut([0], [1.0])
    with pytest.raises(ValueError, match="negative"):
        SubmodularAtom("hyperedge", (-1, 2))
    # head and tail belong to directed hyperedges only, and lie inside members
    with pytest.raises(ValueError, match="directed"):
        SubmodularAtom("hyperedge", (0, 1, 2), head=(0,), tail=(1, 2))
    with pytest.raises(ValueError, match="directed"):
        SubmodularAtom("directed_hyperedge", (0, 1), head=(0,))
    with pytest.raises(ValueError, match="subsets"):
        SubmodularAtom("directed_hyperedge", (0, 1), head=(5,), tail=(1,))
    with pytest.raises(ValueError, match="exactly two"):
        SubmodularAtom("edge", (0, 1, 2))
    # a table exactly for "table", a callback exactly for "oracle"
    with pytest.raises(ValueError, match="table"):
        SubmodularAtom("table", (0, 1))
    with pytest.raises(ValueError, match="table"):
        SubmodularAtom("hyperedge", (0, 1), table={0: 0.0, 1: 1.0, 2: 1.0, 3: 0.0})
    with pytest.raises(ValueError, match="fn"):
        SubmodularAtom("oracle", (0, 1))
    with pytest.raises(ValueError, match="normalized"):
        general_oracle([0, 1], fn=lambda S: 1.0)
    for bad in ("2", True, float("nan"), 10**400):
        with pytest.raises(ValueError, match="weight"):
            hyperedge_cut([0, 1], weight=bad)
    # NumPy integers and unsorted input still give sorted tuples of Python ints
    for atom, want in (
        (hyperedge_cut(np.array([3, 1])), (1, 3)),
        (graph_edge_cut(np.int64(4), np.int64(2), np.float64(2.0)), (2, 4)),
        (directed_hyperedge_cut(np.array([5]), [np.int32(2), 0]), (0, 2, 5)),
    ):
        assert atom.members == want
        assert all(type(v) is int for v in atom.members)
        assert type(atom.weight) is float
    directed = directed_hyperedge_cut(np.array([5]), [np.int32(2), 0])
    assert directed.head == (5,) and directed.tail == (0, 2)
    assert all(type(v) is int for v in directed.head + directed.tail)


# ---------------------------------------------------------------------------
# atoms built from trusted columns


def _check_same_atom(atom, ref, x):
    assert isinstance(atom, SubmodularAtom)
    assert (atom.kind, atom.members, atom.weight, atom.sqrt_w) == (
        ref.kind, ref.members, ref.weight, ref.sqrt_w)
    assert {type(v) for v in atom.members} == {int} and type(atom.weight) is float
    assert (atom.head, atom.tail, atom.table, atom.fn) == (None, None, None, None)
    for name in ("members_arr", "head_pos", "tail_pos"):
        got, want = getattr(atom, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert lovasz_extension(atom, x) == lovasz_extension(ref, x)
    assert np.array_equal(greedy_linear_minimizer(atom, x), greedy_linear_minimizer(ref, x))


@pytest.mark.parametrize("m", [1, 2, 3, 20])
def test_layout_atoms_match_constructor(m):
    rng = np.random.default_rng(m)
    matrix = np.sort([rng.choice(50, size=m, replace=False) for _ in range(6)], axis=1)
    matrix.flags.writeable = False
    weights = [1.0, 0.0, 2.5, 3.0, 0.25, 7.0]
    x = rng.standard_normal(50)
    for kind in ("edge", "hyperedge") if m == 2 else ("hyperedge",):
        kinds = np.full(6, ("edge", "hyperedge").index(kind), dtype=np.int8)
        columns = (kinds, matrix.reshape(-1), np.arange(0, 6 * m + 1, m), np.array(weights))
        # the layout builds the atoms on first read, once
        layout = _component_layout(50, *columns)
        atoms = layout.atoms
        assert layout.atoms is atoms and len(atoms) == len(matrix)
        for row, weight, atom in zip(matrix, weights, atoms):
            _check_same_atom(atom, SubmodularAtom(kind, row, weight), x)
        # one matrix and one position array stand behind every atom
        assert all(atom.members_arr.base is matrix for atom in atoms)
        assert all(atom.head_pos is atom.tail_pos is atoms[0].head_pos for atom in atoms)
        for arr in (matrix, *columns, atoms[-1].members_arr, atoms[-1].head_pos):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    # the generator's edges are the constructor's hyperedges on their members
    hg, _, _ = generate_synthetic_hypergraph(40, 3, 4, m, 1, seed=m)
    x = rng.standard_normal(40)
    for atom, row in zip(hg.edges, hg.incidence.reshape(-1, m)):
        _check_same_atom(atom, SubmodularAtom("hyperedge", row), x)
