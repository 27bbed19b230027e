"""File formats used by the command-line tools.

Everything here is plain JSON or CSV:

* instance files      -- ``{"a": [...], "w": 1.0 | [...], "atoms": [...]}``
* component entries   -- ``{"type": "edge" | "hyperedge" | "directed_hyperedge"
                          | "table", "members": [...], "weight": w, ...}``
* hypergraph files    -- ``{"n": N, "edges": [component entries]}``
* label files         -- ``{"labels": {"vertex": class, ...}}``
* schema files        -- ``{"columns": [{"name": ..., "kind": ...}, ...]}``
* solution files      -- ``{"x": [...], "gap": g, "iters": k, "converged": b}``
* trace files         -- CSV with header ``iter,primal,dual,gap,seconds``
* comparison files    -- CSV with header ``method,iter,seconds,gap``

Loaders check only the JSON shape (objects, lists, keys that parse as
integers, vector lengths); the types they build (`SubmodularAtom`,
`ProblemInstance`, `Hypergraph`, `LabeledDataset`) and, for a bare vector,
the number rule of `submodular` check the values.  Either way a loader
raises :class:`InputError` (a ``ValueError``) on any malformed input, with
messages that name the offending component index where applicable, so
callers can report a diagnostic and exit instead of surfacing a traceback.
"""

from __future__ import annotations

import csv
import json
import sys
from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Callable

import numpy as np

from .applications import Hypergraph, LabeledDataset
from .solvers import ProblemInstance, SolveResult, TraceRow
from .submodular import SubmodularAtom, _reals

__all__ = [
    "InputError",
    "atom_from_json",
    "load_instance",
    "load_hypergraph",
    "load_labels",
    "load_schema",
    "load_table_rows",
    "load_vector",
    "write_json",
    "write_solution",
    "read_solution",
    "write_trace",
    "write_comparison",
]


_ATOM_TYPES = ("edge", "hyperedge", "directed_hyperedge", "table")


class InputError(ValueError):
    """A problem with user-supplied input (file contents or values)."""


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _build(make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, with the errors of a bad value raised as InputError."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def write_json(payload: Any, path: str | None) -> None:
    """Write ``payload`` as one line of JSON to ``path``, or to stdout if None."""
    text = json.dumps(payload) + "\n"  # `json.dump` to a file would run the Python encoder
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _as_list(value: Any, what: str) -> Sequence:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ValueError(f"{what} must be a list of vertex indices")
    return value


# ---------------------------------------------------------------------------
# Components


def atom_from_json(obj: Any, index: int = 0) -> SubmodularAtom:
    """Parse one component entry; errors name the component by ``index``."""
    try:
        if not isinstance(obj, Mapping):
            raise ValueError(f"expected an object, got {type(obj).__name__}")
        kind = obj.get("type")
        if kind not in _ATOM_TYPES:
            raise ValueError(f"unknown component type {kind!r}")
        fields: dict[str, Any] = {}
        if kind == "directed_hyperedge":
            fields["head"] = _as_list(obj.get("head"), "head")
            fields["tail"] = _as_list(obj.get("tail"), "tail")
        elif kind == "table":
            table = obj.get("table")
            if not isinstance(table, Mapping):
                raise ValueError("a table component needs a 'table' object")
            fields["table"] = parsed = {}
            for key, val in table.items():
                try:
                    parsed[int(key)] = val
                except (TypeError, ValueError):
                    raise ValueError(f"table key {key!r} is not a subset bitmask")
        members = _as_list(obj.get("members"), "members")
        return SubmodularAtom(kind, members, obj.get("weight", 1.0), **fields)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"atom {index}: {exc}") from exc


# ---------------------------------------------------------------------------
# Instances


def load_instance(path: str) -> ProblemInstance:
    """Read a problem instance (anchor, vertex weights, components)."""
    obj = _load_json(path)
    if not isinstance(obj, Mapping):
        raise InputError(f"{path}: expected a top-level object")
    if "a" not in obj:
        raise InputError(f"{path}: missing required field 'a'")
    raw_atoms = obj.get("atoms", [])
    if not isinstance(raw_atoms, Sequence) or isinstance(raw_atoms, (str, bytes)):
        raise InputError(f"{path}: 'atoms' must be a list")
    atoms = tuple(atom_from_json(entry, i) for i, entry in enumerate(raw_atoms))
    return _build(ProblemInstance, a=obj["a"], w=obj.get("w"), atoms=atoms)


# ---------------------------------------------------------------------------
# Hypergraphs, labels, schemas, tables


def load_hypergraph(path: str) -> Hypergraph:
    obj = _load_json(path)
    if not isinstance(obj, Mapping) or "n" not in obj or "edges" not in obj:
        raise InputError(f"{path}: expected an object with 'n' and 'edges'")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, Sequence) or isinstance(raw_edges, (str, bytes)):
        raise InputError(f"{path}: 'edges' must be a list")
    edges = tuple(atom_from_json(entry, i) for i, entry in enumerate(raw_edges))
    return _build(Hypergraph, n=obj["n"], edges=edges)


def load_labels(path: str, n: int) -> LabeledDataset:
    """Read seed labels, ``{"labels": {"vertex": class, ...}}``, on n vertices;
    the class count is the largest class + 1, at least 2."""
    obj = _load_json(path)
    if not isinstance(obj, Mapping) or not isinstance(obj.get("labels"), Mapping):
        raise InputError(f"{path}: expected an object with a 'labels' mapping")
    labels: dict[int, int] = {}
    for key, val in obj["labels"].items():
        try:
            labels[int(key)] = val
        except (TypeError, ValueError):
            raise InputError(f"{path}: label key {key!r} is not a vertex index")
    return _build(LabeledDataset, n=n, labels=labels)


def load_schema(path: str) -> list[tuple[str, str]]:
    """Read a column schema: ``{"columns": [{"name": ..., "kind": ...}]}``."""
    obj = _load_json(path)
    if not isinstance(obj, Mapping) or not isinstance(obj.get("columns"), Sequence):
        raise InputError(f"{path}: expected an object with a 'columns' list")
    out: list[tuple[str, str]] = []
    for i, col in enumerate(obj["columns"]):
        if not isinstance(col, Mapping) or "name" not in col or "kind" not in col:
            raise InputError(f"{path}: column {i} needs 'name' and 'kind'")
        out.append((str(col["name"]), str(col["kind"])))
    return out


def load_table_rows(path: str) -> list[dict[str, str]]:
    """Read a CSV file with a header row into a list of row dicts."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None:
                raise InputError(f"{path}: empty file, expected a CSV header")
            return [dict(row) for row in reader]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_vector(path: str, what: str = "vector") -> np.ndarray:
    """Read a JSON list of numbers; its length is the caller's to check."""
    obj = _load_json(path)
    if not isinstance(obj, Sequence) or isinstance(obj, (str, bytes)):
        raise InputError(f"{path}: expected a JSON list of numbers")
    return _build(_reals, obj, f"{path}: {what} entries must be numbers")


# ---------------------------------------------------------------------------
# Results


def write_solution(result: SolveResult, path: str | None) -> None:
    payload = {
        "x": result.x.tolist(),
        "gap": float(result.gap),
        "iters": int(result.iterations),
        "converged": bool(result.converged),
    }
    write_json(payload, path)


def read_solution(path: str) -> dict[str, Any]:
    obj = _load_json(path)
    if not isinstance(obj, Mapping):
        raise InputError(f"{path}: expected a solution object")
    return dict(obj)


_TRACE_HEADER = ["iter", "primal", "dual", "gap", "seconds"]


def write_trace(trace: Iterable[TraceRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(_TRACE_HEADER)
        for row in trace:
            writer.writerow(
                [
                    int(row.iteration),
                    repr(float(row.primal)),
                    repr(float(row.dual)),
                    repr(float(row.gap)),
                    repr(float(row.seconds)),
                ]
            )


def write_comparison(
    records: Iterable[tuple[str, int, float, float]], path: str
) -> None:
    """Write method-comparison rows: ``method,iter,seconds,gap``."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["method", "iter", "seconds", "gap"])
        for method, iteration, seconds, gap in records:
            writer.writerow(
                [method, int(iteration), repr(float(seconds)), repr(float(gap))]
            )
