"""File-format round trips and command-line behavior."""

import csv
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qdsfm import io as qio
from qdsfm import cli, projection
from qdsfm.applications import Hypergraph
from qdsfm.cli import main
from qdsfm.solvers import ProblemInstance, TraceRow, solve
from qdsfm.submodular import (
    directed_hyperedge_cut,
    general_oracle,
    graph_edge_cut,
    hyperedge_cut,
)


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _edge_instance_file(tmp_path, name="edge.json"):
    payload = {
        "a": [1.0, 0.0],
        "w": 1.0,
        "atoms": [{"type": "edge", "members": [0, 1], "weight": 1.0}],
    }
    return _write_json(tmp_path / name, payload)


# ---------------------------------------------------------------------------
# component serialization


def test_atom_round_trip_all_kinds():
    atoms = [
        graph_edge_cut(0, 3, 2.5),
        hyperedge_cut((1, 4, 6), 0.5),
        directed_hyperedge_cut((0,), (2, 5), (0, 2, 5), 1.5),
        general_oracle((0, 1), table={0: 0.0, 1: 1.0, 2: 1.0, 3: 0.0}, weight=3.0),
    ]
    for atom in atoms:
        clone = qio.atom_from_json(oracles._atom_json(atom))
        assert clone.kind == atom.kind
        assert clone.members == atom.members
        assert clone.weight == atom.weight
        assert clone.head == atom.head
        assert clone.tail == atom.tail
        assert clone.table == atom.table


@pytest.mark.parametrize(
    "entry",
    [
        "not an object",
        {"type": "ridge", "members": [0, 1]},
        {"type": "edge", "members": [0]},
        {"type": "edge", "members": [0, "x"]},
        {"type": "edge", "members": [0, 1], "weight": "heavy"},
        {"type": "hyperedge", "members": [0, 1], "weight": -2.0},
        {"type": "directed_hyperedge", "members": [0, 1], "head": [0]},
        {"type": "table", "members": [0, 1], "table": {"0": 0.0, "1": 1.0}},
        {"type": "table", "members": [0], "table": {"zero": 0.0, "1": 1.0}},
        {"type": "hyperedge", "members": [0, 10**29]},
        {"type": "edge", "members": [0, 1], "weight": 10**400},
        {"type": "table", "members": list(range(40)), "table": {"0": 0.0}},
        # members must be JSON integers, not floats or bools
        {"type": "hyperedge", "members": [0.5, 1]},
        {"type": "edge", "members": [0, 1.0]},
        {"type": "hyperedge", "members": [True, 2]},
        {"type": "directed_hyperedge", "members": [0, 1], "head": [False], "tail": [1]},
    ],
)
def test_malformed_atoms_name_their_index(entry):
    with pytest.raises(qio.InputError, match="atom 7"):
        qio.atom_from_json(entry, 7)


# ---------------------------------------------------------------------------
# instance files


def test_instance_round_trip(tmp_path):
    instance = ProblemInstance(
        a=np.array([0.5, -1.0, 2.0]),
        w=np.array([1.0, 2.0, 4.0]),
        atoms=(
            graph_edge_cut(0, 1, 2.0),
            hyperedge_cut((0, 1, 2)),
            general_oracle((1, 2), table={0: 0.0, 1: 1.0, 2: 0.5, 3: 0.5}),
        ),
    )
    path = tmp_path / "inst.json"
    oracles.write_instance_json(instance, str(path))
    clone = qio.load_instance(str(path))
    assert np.array_equal(clone.a, instance.a)
    assert np.array_equal(clone.w, instance.w)
    assert len(clone.atoms) == len(instance.atoms)
    for left, right in zip(clone.atoms, instance.atoms):
        assert left.kind == right.kind
        assert left.members == right.members
        assert left.weight == right.weight


def test_instance_scalar_and_default_weights(tmp_path):
    path = _write_json(tmp_path / "i.json", {"a": [1.0, 2.0], "w": 3.0, "atoms": []})
    assert np.array_equal(qio.load_instance(path).w, [3.0, 3.0])
    path = _write_json(tmp_path / "j.json", {"a": [1.0, 2.0]})
    assert np.array_equal(qio.load_instance(path).w, [1.0, 1.0])


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ([1, 2, 3], "top-level object"),
        ({"w": 1.0}, "missing required field 'a'"),
        ({"a": ["x"]}, "list of numbers"),
        ({"a": [1.0], "atoms": "nope"}, "must be a list"),
        ({"a": [1.0], "w": {"bad": 1}}, "'w' must be"),
        ({"a": [1.0], "atoms": [{"type": "edge", "members": [0, 1]}]}, "component 0"),
        ({"a": [1.0, 2.0], "w": [1.0, -1.0], "atoms": []}, "positive"),
        ({"a": "12"}, "'a' must be a list of numbers"),
        ({"a": {"0": 1, "1": 2}}, "'a' must be a list of numbers"),
        ({"a": [1.0, 2.0], "w": [None, 1]}, "'w' must be"),
        ({"a": [1.0, 2.0], "w": [[1], 1]}, "'w' must be"),
        ({"a": [1.0], "w": 10**400}, "'w' must be"),
        ({"a": [1.0, 2.0], "atoms": [{"type": "edge", "members": [0, 2**63]}]}, "atom 0"),
        # JSON strings and bools are not numbers, wherever a number is read
        ({"a": ["1", 2.0]}, "'a' must be a list of numbers"),
        ({"a": [True, 2.0]}, "'a' must be a list of numbers"),
        ({"a": [1.0, 2.0], "w": ["2", 1]}, "'w' must be"),
        ({"a": [1.0, 2.0], "w": [1, False]}, "'w' must be"),
        ({"a": [1.0, 2.0], "w": True}, "'w' must be"),
        (
            {"a": [1.0, 2.0], "atoms": [{"type": "table", "members": [0, 1],
                                         "table": {"0": 0, "1": "1", "2": 1, "3": 0}}]},
            "atom 0: table value",
        ),
        (
            {"a": [1.0, 2.0], "atoms": [{"type": "table", "members": [0, 1],
                                         "table": {"0": 0, "1": True, "2": 1, "3": 0}}]},
            "atom 0: table value",
        ),
    ],
)
def test_malformed_instances_rejected(tmp_path, payload, fragment):
    path = _write_json(tmp_path / "bad.json", payload)
    with pytest.raises(qio.InputError, match=fragment):
        qio.load_instance(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(qio.InputError, match="invalid JSON"):
        qio.load_instance(str(path))
    with pytest.raises(qio.InputError, match="cannot read"):
        qio.load_instance(str(tmp_path / "missing.json"))


# JSON-shaped values: every scalar kind JSON can carry (NaN and Infinity
# included, which Python's json reads), integers past 2⁶³ and float range,
# and nested lists and objects.
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([2**63, -(2**63) - 1, 10**29, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
_index_lists = st.lists(st.integers(0, 6) | _json_scalars, max_size=6)
_tables = st.dictionaries(st.integers(0, 70).map(str) | st.text(max_size=2), _json_scalars, max_size=9)
_atom_entries = st.fixed_dictionaries(
    {},
    optional={
        "type": st.sampled_from(["edge", "hyperedge", "directed_hyperedge", "table"]) | _json_values,
        "members": _index_lists | _json_values,
        "head": _index_lists | _json_values,
        "tail": _index_lists | _json_values,
        "weight": _json_scalars,
        "table": _tables | _json_values,
    },
)
_instances = st.fixed_dictionaries(
    {},
    optional={
        "a": st.lists(st.floats(-2, 2) | _json_scalars, max_size=7) | _json_values,
        "w": _json_scalars | st.lists(st.floats(0.5, 2) | _json_scalars, max_size=7) | _json_values,
        "atoms": st.lists(_atom_entries, max_size=3) | _json_values,
    },
)


@settings(max_examples=200, deadline=None)
@given(_atom_entries)
def test_fuzz_atom_from_json_loads_or_raises_input_error(entry):
    try:
        qio.atom_from_json(entry, 3)
    except qio.InputError as exc:
        assert str(exc).startswith("atom 3: ")


@settings(max_examples=200, deadline=None)
@given(st.one_of(_instances, _json_values))
def test_fuzz_load_instance_loads_or_raises_input_error(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz_instance.json"
    path.write_text(json.dumps(payload))
    try:
        qio.load_instance(str(path))
    except qio.InputError:
        return
    # a file that loads held JSON numbers, not strings or bools, in 'a' and 'w'
    w = payload.get("w")
    values = list(payload["a"]) + (w if isinstance(w, list) else [] if w is None else [w])
    assert all(type(v) in (int, float) for v in values)


# ---------------------------------------------------------------------------
# hypergraphs, labels, schemas, vectors


def test_hypergraph_round_trip(tmp_path):
    hg = Hypergraph(5, (hyperedge_cut((0, 1, 2)), graph_edge_cut(3, 4)))
    path = tmp_path / "hg.json"
    oracles.write_hypergraph_json(hg, str(path))
    clone = qio.load_hypergraph(str(path))
    assert clone.n == 5
    assert tuple(a.members for a in clone.edges) == ((0, 1, 2), (3, 4))


def test_hypergraph_validation(tmp_path):
    with pytest.raises(qio.InputError, match="'n'"):
        qio.load_hypergraph(_write_json(tmp_path / "a.json", {"n": 0, "edges": []}))
    for bad_n in (2.5, True, "2"):
        with pytest.raises(qio.InputError, match="'n'"):
            qio.load_hypergraph(_write_json(tmp_path / "f.json", {"n": bad_n, "edges": []}))
    bad = {"n": 2, "edges": [{"type": "edge", "members": [0, 5]}]}
    with pytest.raises(qio.InputError, match="vertex"):
        qio.load_hypergraph(_write_json(tmp_path / "b.json", bad))
    table_edge = {
        "n": 2,
        "edges": [{"type": "table", "members": [0, 1], "table": {"0": 0, "1": 1, "2": 1, "3": 0}}],
    }
    with pytest.raises(qio.InputError):
        qio.load_hypergraph(_write_json(tmp_path / "c.json", table_edge))


def test_labels_schema_vector_loaders(tmp_path):
    lp = _write_json(tmp_path / "l.json", {"labels": {"0": 1, "3": 0}})
    ds = qio.load_labels(lp, 5)
    assert dict(ds.labels) == {0: 1, 3: 0}
    assert ds.num_classes == 2
    with pytest.raises(qio.InputError, match="outside"):
        qio.load_labels(_write_json(tmp_path / "m.json", {"labels": {"9": 0}}), 5)
    with pytest.raises(qio.InputError, match="integer"):
        qio.load_labels(_write_json(tmp_path / "n.json", {"labels": {"0": "a"}}), 5)

    sp = _write_json(
        tmp_path / "s.json",
        {"columns": [{"name": "color", "kind": "categorical"}, {"name": "size", "kind": "numeric"}]},
    )
    assert qio.load_schema(sp) == [("color", "categorical"), ("size", "numeric")]
    with pytest.raises(qio.InputError, match="column 0"):
        qio.load_schema(_write_json(tmp_path / "t.json", {"columns": [{"name": "x"}]}))

    vp = _write_json(tmp_path / "v.json", [0.25, 0.75])
    assert np.array_equal(qio.load_vector(vp), [0.25, 0.75])
    with pytest.raises(qio.InputError, match="entries must be numbers"):
        qio.load_vector(_write_json(tmp_path / "h.json", [0.5, 10**400]))
    with pytest.raises(qio.InputError, match="entries must be numbers"):
        qio.load_vector(_write_json(tmp_path / "b.json", [True, "2"]))


def test_table_rows_loader(tmp_path):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("color,size\nred,1.0\nblue,2.0\n")
    rows = qio.load_table_rows(str(csv_path))
    assert rows == [{"color": "red", "size": "1.0"}, {"color": "blue", "size": "2.0"}]
    with pytest.raises(qio.InputError):
        qio.load_table_rows(str(tmp_path / "absent.csv"))


# ---------------------------------------------------------------------------
# results


def test_solution_and_trace_round_trip(tmp_path):
    instance = ProblemInstance(
        a=np.array([1.0, 0.0]), w=np.ones(2), atoms=(graph_edge_cut(0, 1),)
    )
    result = solve(instance)
    sol_path = tmp_path / "sol.json"
    qio.write_solution(result, str(sol_path))
    loaded = qio.read_solution(str(sol_path))
    assert set(loaded) == {"x", "gap", "iters", "converged"}
    assert loaded["x"] == [float(v) for v in result.x]
    assert loaded["gap"] == result.gap
    assert loaded["iters"] == result.iterations

    trace_path = tmp_path / "trace.csv"
    qio.write_trace(result.trace, str(trace_path))
    header = trace_path.read_text().splitlines()[0]
    assert header == "iter,primal,dual,gap,seconds"
    with open(trace_path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))[1:]
    clone = [TraceRow(int(row[0]), *(float(v) for v in row[1:])) for row in rows]
    assert len(clone) == len(result.trace)
    for left, right in zip(clone, result.trace):
        assert left == TraceRow(*right)


def test_comparison_writer(tmp_path):
    path = tmp_path / "cmp.csv"
    qio.write_comparison([("rcd:exact", 0, 0.5, 1.0), ("ap:mnp", 10, 1.25, 0.125)], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "method,iter,seconds,gap"
    assert lines[1] == "rcd:exact,0,0.5,1.0"
    assert lines[2] == "ap:mnp,10,1.25,0.125"


# ---------------------------------------------------------------------------
# command line: solve


def test_cli_solve_worked_example(tmp_path, capsys):
    inst = _edge_instance_file(tmp_path)
    sol = tmp_path / "sol.json"
    trace = tmp_path / "trace.csv"
    rc = main(
        [
            "solve",
            "--instance",
            inst,
            "--target-gap",
            "1e-10",
            "--solution",
            str(sol),
            "--trace",
            str(trace),
        ]
    )
    assert rc == 0
    out = json.loads(sol.read_text())
    assert out["converged"] is True
    assert abs(out["x"][0] - 2.0 / 3.0) < 1e-8
    assert abs(out["x"][1] - 1.0 / 3.0) < 1e-8
    assert out["gap"] <= 1e-10
    assert trace.read_text().startswith("iter,primal,dual,gap,seconds")


@pytest.mark.parametrize("algorithm", ["rcd", "ap"])
def test_cli_solve_rejects_negative_seed(tmp_path, capsys, algorithm):
    inst = _edge_instance_file(tmp_path)
    rc = main(["solve", "--instance", inst, "--algorithm", algorithm, "--seed", "-1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be nonnegative\n"


def test_cli_solve_stdout_when_no_solution_flag(tmp_path, capsys):
    inst = _edge_instance_file(tmp_path)
    rc = main(["solve", "--instance", inst, "--target-gap", "1e-10"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"x", "gap", "iters", "converged"}


def test_cli_zero_iteration_budget(tmp_path):
    inst = _edge_instance_file(tmp_path)
    sol = tmp_path / "sol.json"
    rc = main(["solve", "--instance", inst, "--max-iters", "0", "--solution", str(sol)])
    assert rc == 2
    out = json.loads(sol.read_text())
    assert out["x"] == [1.0, 0.0]  # untouched anchor
    assert out["gap"] == 1.0  # sum of squared penalties at the anchor
    assert out["iters"] == 0
    assert out["converged"] is False


def test_cli_budget_exhaustion_without_target(tmp_path, capsys):
    inst = _edge_instance_file(tmp_path)
    rc = main(["solve", "--instance", inst, "--max-iters", "5"])
    capsys.readouterr()
    assert rc == 2


def test_cli_same_seed_reproduces_output(tmp_path):
    payload = {
        "a": [0.9, -0.4, 0.2, 0.7],
        "w": [1.0, 2.0, 1.0, 0.5],
        "atoms": [
            {"type": "hyperedge", "members": [0, 1, 2]},
            {"type": "edge", "members": [2, 3], "weight": 2.0},
        ],
    }
    inst = _write_json(tmp_path / "i.json", payload)
    sols, traces = [], []
    for run in ("one", "two"):
        sol = tmp_path / f"sol-{run}.json"
        trace = tmp_path / f"trace-{run}.csv"
        rc = main(
            [
                "solve",
                "--instance",
                inst,
                "--seed",
                "11",
                "--max-iters",
                "60",
                "--solution",
                str(sol),
                "--trace",
                str(trace),
            ]
        )
        assert rc == 2
        sols.append(sol.read_bytes())
        traces.append(trace.read_text())
    assert sols[0] == sols[1]

    def drop_seconds(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert drop_seconds(traces[0]) == drop_seconds(traces[1])


def test_cli_solve_rejects_malformed_instance(tmp_path, capsys):
    bad = _write_json(
        tmp_path / "bad.json",
        {"a": [1.0, 0.0], "atoms": [{"type": "edge", "members": [0, 1]}, {"type": "glue"}]},
    )
    rc = main(["solve", "--instance", bad])
    assert rc == 1
    assert "atom 1" in capsys.readouterr().err
    huge = _write_json(
        tmp_path / "huge.json",
        {"a": [1.0, 0.0], "atoms": [{"type": "edge", "members": [0, 10**29]}]},
    )
    assert main(["solve", "--instance", huge]) == 1
    err = capsys.readouterr().err
    assert "atom 0" in err and len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "a,w",
    [
        ([float("nan"), 0.0, 1.0], 1.0),
        ([1.0, 0.0, 1.0], [1.0, float("inf"), 1.0]),
        ([1.0, 0.0, 1.0], [None, 1.0, 1.0]),
        ([1.0, 0.0, 1.0], [[1.0], 1.0, 1.0]),
    ],
)
def test_cli_solve_rejects_non_finite_instance(tmp_path, capsys, a, w):
    bad = _write_json(
        tmp_path / "bad.json",
        {"a": a, "w": w, "atoms": [{"type": "hyperedge", "members": [0, 1, 2]}]},
    )
    rc = main(["solve", "--instance", bad])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_cli_solve_oracle_numerics_error_exits_one(tmp_path, capsys, monkeypatch):
    message = "affine subproblem residual 1e+00 exceeds tolerance"

    def failing_solve(points, wt, a):
        raise projection.ProjectionNumericsError(message)

    monkeypatch.setattr(projection, "_affine_minimizer_local", failing_solve)
    inst = _write_json(
        tmp_path / "inst.json",
        {"a": [1.0, 0.9, -0.5, 0.2], "atoms": [{"type": "hyperedge", "members": [0, 1, 2, 3]}]},
    )
    rc = main(["solve", "--instance", inst, "--projection", "mnp", "--max-iters", "3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: {message}"]


def test_cli_solve_missing_file(tmp_path, capsys):
    rc = main(["solve", "--instance", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["solve"]) == 1  # missing --instance
    assert main(["solve", "--instance", "x", "--algorithm", "sgd"]) == 1
    assert main(["solve", "--instance", _edge_instance_file(tmp_path), "--threads", "2"]) == 1
    capsys.readouterr()


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# command line: project


def test_cli_project_edge(tmp_path, capsys):
    inst = _edge_instance_file(tmp_path)
    rc = main(["project", "--instance", inst, "--method", "exact"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"y", "phi", "h", "certificate"}
    assert abs(out["y"][0] - 1.0 / 3.0) < 1e-9
    assert abs(out["y"][1] + 1.0 / 3.0) < 1e-9
    assert abs(out["phi"] - 1.0 / 3.0) < 1e-9
    assert abs(out["h"] - 2.0 / 3.0) < 1e-9
    assert out["certificate"] >= -1e-10


def test_cli_project_atom_out_of_range(tmp_path, capsys):
    inst = _edge_instance_file(tmp_path)
    rc = main(["project", "--instance", inst, "--atom", "5"])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_cli_project_rejects_infinite_delta(tmp_path, capsys):
    # with δ = inf every mnp certificate holds at once: h = 9.917 against the optimum 9.25
    inst = _write_json(tmp_path / "five.json", {
        "a": [3, -1, 0.5, 2, -2], "atoms": [{"type": "hyperedge", "members": [0, 1, 2, 3, 4]}]})
    for delta in ("inf", "-inf", "nan", "0"):
        assert main(["project", "--instance", inst, "--method", "mnp", f"--delta={delta}"]) == 1
        assert "delta must be positive and finite" in capsys.readouterr().err
    assert main(["project", "--instance", inst, "--method", "mnp"]) == 0
    assert abs(json.loads(capsys.readouterr().out)["h"] - 9.25) < 1e-8


# ---------------------------------------------------------------------------
# command line: ssl


def test_cli_ssl_synthetic(tmp_path):
    out_path = tmp_path / "ssl.json"
    rc = main(
        [
            "ssl",
            "--synthetic",
            "--n",
            "40",
            "--within",
            "30",
            "--across",
            "5",
            "--edge-size",
            "4",
            "--labeled",
            "3",
            "--beta",
            "0.05",
            "--target-gap",
            "1e-7",
            "--max-iters",
            "20000",
            "--output",
            str(out_path),
            "--trace",
            str(tmp_path / "ssl-trace.csv"),
            "--quiet",
        ]
    )
    out = json.loads(out_path.read_text())
    assert set(out) >= {"classification_error", "c_value", "gap", "iters", "seconds", "labels", "scores"}
    assert rc in (0, 2)
    assert len(out["labels"]) == 40
    assert len(out["scores"]) == 2 and len(out["scores"][0]) == 40
    assert out["classification_error"] <= 0.15
    assert out["c_value"] >= 0.0
    assert (tmp_path / "ssl-trace.csv").read_text().startswith("iter,")


def test_cli_ssl_dataset_mode(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(
        "color\n" + "\n".join(["red"] * 4 + ["blue"] * 4) + "\n"
    )
    schema = _write_json(
        tmp_path / "schema.json", {"columns": [{"name": "color", "kind": "categorical"}]}
    )
    labels = _write_json(tmp_path / "labels.json", {"labels": {"0": 0, "7": 1}})
    out_path = tmp_path / "out.json"
    rc = main(
        [
            "ssl",
            "--dataset",
            str(csv_path),
            "--schema",
            schema,
            "--labels",
            labels,
            "--beta",
            "100",
            "--target-gap",
            "1e-9",
            "--output",
            str(out_path),
            "--quiet",
        ]
    )
    assert rc == 0
    out = json.loads(out_path.read_text())
    assert out["classification_error"] is None
    labels_out = out["labels"]
    assert labels_out[:4] != labels_out[4:]  # the two value groups separate
    assert len(set(labels_out[:4])) == 1 and len(set(labels_out[4:])) == 1


def test_cli_ssl_label_out_of_range(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("c\na\na\nb\nb\n")
    schema = _write_json(
        tmp_path / "schema.json", {"columns": [{"name": "c", "kind": "categorical"}]}
    )
    labels = _write_json(tmp_path / "labels.json", {"labels": {"99": 0}})
    rc = main(
        ["ssl", "--dataset", str(csv_path), "--schema", schema, "--labels", labels, "--quiet"]
    )
    assert rc == 1
    assert "outside" in capsys.readouterr().err
    # a numeric column with a non-numeric cell fails in the ingest builder
    csv_path.write_text("c\n1\n2\nheavy\n4\n")
    numeric = _write_json(tmp_path / "num.json", {"columns": [{"name": "c", "kind": "numeric"}]})
    rc = main(
        ["ssl", "--dataset", str(csv_path), "--schema", numeric, "--labels", labels, "--quiet"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: column 'c', row 2: 'heavy' is not numeric or not finite\n"


def test_cli_ssl_mode_conflicts(tmp_path, capsys):
    rc = main(["ssl", "--synthetic", "--dataset", "x.csv", "--quiet"])
    assert rc == 1
    rc = main(["ssl", "--quiet"])
    assert rc == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# command line: pagerank


def test_cli_pagerank_two_vertex(tmp_path, capsys):
    graph = _write_json(
        tmp_path / "g.json",
        {"n": 2, "edges": [{"type": "edge", "members": [0, 1], "weight": 1.0}]},
    )
    seed_vec = _write_json(tmp_path / "s.json", [1.0, 0.0])
    sol = tmp_path / "pr.json"
    rc = main(
        [
            "pagerank",
            "--graph",
            graph,
            "--alpha",
            "0.5",
            "--seed-vector",
            seed_vec,
            "--target-gap",
            "1e-14",
            "--solution",
            str(sol),
        ]
    )
    assert rc == 0
    out = json.loads(sol.read_text())
    assert abs(out["x"][0] - 2.0 / 3.0) < 1e-6
    assert abs(out["x"][1] - 1.0 / 3.0) < 1e-6
    assert out["residual"] < 1e-6


def test_cli_pagerank_rejects_bad_alpha(tmp_path, capsys):
    graph = _write_json(
        tmp_path / "g.json",
        {"n": 2, "edges": [{"type": "edge", "members": [0, 1]}]},
    )
    rc = main(["pagerank", "--graph", graph, "--alpha", "1.5"])
    assert rc == 1
    assert "alpha" in capsys.readouterr().err
    seed_vec = _write_json(tmp_path / "s.json", ["0.5", 0.5])
    rc = main(["pagerank", "--graph", graph, "--alpha", "0.5", "--seed-vector", seed_vec])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "seed vector entries must be numbers" in err


def test_cli_pagerank_rejects_short_seed_vector(tmp_path, capsys):
    # the length is checked once, by build_pagerank_instance
    graph = _write_json(
        tmp_path / "g.json",
        {"n": 2, "edges": [{"type": "edge", "members": [0, 1]}]},
    )
    seed_vec = _write_json(tmp_path / "s.json", [0.5])
    rc = main(["pagerank", "--graph", graph, "--alpha", "0.5", "--seed-vector", seed_vec])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: seed vector has shape (1,), expected (2,)\n"


# ---------------------------------------------------------------------------
# command line: compare


def test_cli_compare(tmp_path):
    inst = _edge_instance_file(tmp_path)
    out = tmp_path / "cmp.csv"
    rc = main(
        [
            "compare",
            "--instance",
            inst,
            "--methods",
            "rcd:exact,ap:mnp",
            "--budget-seconds",
            "0.05",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,iter,seconds,gap"
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"rcd:exact", "ap:mnp"}


def test_cli_compare_rejects_bad_method(tmp_path, capsys):
    inst = _edge_instance_file(tmp_path)
    rc = main(
        [
            "compare",
            "--instance",
            inst,
            "--methods",
            "rcd:magic",
            "--budget-seconds",
            "0.05",
            "--output",
            str(tmp_path / "c.csv"),
        ]
    )
    assert rc == 1
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
def test_cli_compare_rejects_a_budget_not_positive_and_finite(tmp_path, capsys, budget):
    out = tmp_path / "c.csv"
    rc = main(["compare", "--instance", _edge_instance_file(tmp_path), "--methods", "rcd:exact",
               "--budget-seconds", budget, "--output", str(out)])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err == "error: --budget-seconds must be positive and finite\n"


def test_cli_compare_checks_every_oracle_before_solving(tmp_path, monkeypatch, capsys):
    # exact does not apply to the table atom: found before rcd spends its budget
    inst = _write_json(tmp_path / "two.json", {"a": [1.0, -0.5, 0.25], "atoms": [
        {"type": "hyperedge", "members": [0, 1, 2]},
        {"type": "table", "members": [0, 1], "table": {"0": 0, "1": 1, "2": 1, "3": 0.5}}]})
    solved = []
    monkeypatch.setattr(cli, "solve", lambda *args: solved.append(args))
    out = tmp_path / "c.csv"
    rc = main(["compare", "--instance", inst, "--methods", "rcd:auto,ap:exact",
               "--budget-seconds", "30", "--output", str(out)])
    assert rc == 1 and solved == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: method 'ap:exact': exact projection requires cut components")
    assert len(err.splitlines()) == 1


def test_cli_log_level_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QDSFM_LOG", "DEBUG")
    inst = _edge_instance_file(tmp_path)
    assert main(["solve", "--instance", inst, "--target-gap", "1e-10"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name, quiet, level", [
    ("debug", False, logging.DEBUG), ("Critical", False, logging.CRITICAL),
    ("debug", True, logging.ERROR), ("basic_format", False, logging.WARNING),
    ("fatal", False, logging.WARNING), ("notset", False, logging.WARNING),
    ("verbose", False, logging.WARNING)])
def test_cli_log_level_accepts_only_level_names(tmp_path, monkeypatch, name, quiet, level):
    # under pytest the root logger has handlers, so record what the CLI asks for
    seen = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: seen.append(kwargs["level"]))
    monkeypatch.setenv("QDSFM_LOG", name)
    argv = ["solve", "--instance", _edge_instance_file(tmp_path), "--target-gap", "1e-10"]
    assert main(argv + ["--quiet"] * quiet) == 0
    assert len(seen) == 1 and logging.getLevelName(seen[0]) in (level, logging.getLevelName(level))
