"""Spans around the benchmark's calls into qdsfm, and the layer micro-suite.

Layers are the package's modules: ``submodular``, ``projection``,
``solvers``, ``applications``, ``io`` and ``cli``.  Every span is named
``<module>.<function>`` after the public function the benchmark calls, so a
span's layer is the part of its name before the first dot.  The benchmark's
own bookkeeping spans use the layer name ``bench``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time

import numpy as np

from qdsfm import (
    build_ssl_instance,
    cheeger_sweep,
    generate_synthetic_hypergraph,
    greedy_linear_minimizer,
    hyperedge_cut,
    lovasz_extension,
    project_exact,
    project_fw,
    project_mnp,
)
from qdsfm import io as qio

LAYERS = ("submodular", "projection", "solvers", "applications", "io", "cli")


class Tracer:
    """Keeps spans in memory: name, start, end, parent span and workload id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                  "workload": self.workload}
        self.spans.append(record)
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            record["start"], record["end"] = start, end

    def self_times(self, under: str | None = None) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's.

        With ``under`` set, only top-level spans of that name and their
        descendants count.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        inside = [False] * len(self.spans)
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(self.spans):
            p = s["parent"]
            inside[i] = under is None or (inside[p] if p is not None else s["name"] == under)
            if inside[i]:
                layer = s["name"].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - covered[i]
        return out


class NoTracer:
    """Same interface as Tracer; records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def per_call_us(tr, name: str, fn, calls: list[tuple], batches: int = 5) -> float:
    """Median over ``batches`` of the mean time of one ``fn(*args)``, in µs.

    Each batch runs every argument tuple in ``calls`` once, inside one span.
    """
    samples = []
    for _ in range(batches):
        with tr.span(name):
            t0 = time.perf_counter()
            for args in calls:
                fn(*args)
            samples.append((time.perf_counter() - t0) / len(calls))
    return 1e6 * statistics.median(samples)


def per_call_s(tr, name: str, fn, *args, repeats: int = 3):
    """Median seconds of ``repeats`` calls of ``fn(*args)``, and the last result."""
    samples = []
    out = None
    for _ in range(repeats):
        with tr.span(name):
            t0 = time.perf_counter()
            out = fn(*args)
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples), out


def write_table_instance(seed: int, path: str) -> None:
    """A ring of 200 vertices with one table atom per window of 6.

    F(S) = sqrt(min(|S|, 6 - |S|)) is a concave function of |S|, so F is
    submodular.  The anchor is a = sign(sin(i/15)) + 0.5 N(0, 1), and W = I.
    """
    n, window = 200, 6
    rng = np.random.default_rng(seed)
    a = np.sign(np.sin(np.arange(n) / 15.0)) + 0.5 * rng.standard_normal(n)
    table = {str(mask): math.sqrt(min(bin(mask).count("1"), window - bin(mask).count("1")))
             for mask in range(1 << window)}
    atoms = [{"type": "table", "members": sorted((i + k) % n for k in range(window)),
              "table": table} for i in range(n)]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"a": a.tolist(), "w": 1.0, "atoms": atoms}, f)


def micro_suite(tr, seed: int, workdir: str) -> dict[str, float]:
    """Per-call costs of single layers on inputs made from ``seed``.

    The table atoms of ``write_table_instance`` are loaded with
    ``load_instance`` and projected at their own anchor and metric, which is
    the call ``qdsfm project`` makes.  ``fw`` runs only at |S_r| = 2 and on
    table atoms: at |S_r| = 20 and 200 it runs to its iteration cap (about
    1 s and 116 s per call), so those sizes are not measured.
    """
    rng = np.random.default_rng([seed, 17])
    m: dict[str, float] = {}
    table_path = os.path.join(workdir, "table-instance.json")
    write_table_instance(int(rng.integers(2**31)), table_path)

    for size, targets, batches in ((2, 64, 5), (20, 32, 5), (200, 8, 3)):
        atom = hyperedge_cut(range(size))
        wt = rng.uniform(0.5, 2.0, size)
        calls = [(atom, wt, rng.standard_normal(size)) for _ in range(targets)]
        m[f"projection.exact_us.s{size}"] = per_call_us(
            tr, "projection.project_exact", project_exact, calls, batches)
        mnp_calls = calls if size < 200 else calls[:4]
        m[f"projection.mnp_us.s{size}"] = per_call_us(
            tr, "projection.project_mnp", _mnp, mnp_calls, batches)
        if size == 2:
            m["projection.fw_us.s2"] = per_call_us(
                tr, "projection.project_fw", project_fw, calls, batches)
        if size == 20:
            m["submodular.greedy_us.cut20"] = per_call_us(
                tr, "submodular.greedy_linear_minimizer", greedy_linear_minimizer,
                [(atom, c) for _, _, c in calls], batches)

    m["io.load_s"], inst = per_call_s(tr, "io.load_instance", qio.load_instance, table_path)
    table_calls = [(atom, inst.w, inst.a) for atom in inst.atoms]
    m["projection.mnp_us.table6"] = per_call_us(
        tr, "projection.project_mnp", _mnp, table_calls, batches=3)
    with tr.span("projection.project_mnp"):
        iters = [project_mnp(*args, record_history=False)[1].iterations for args in table_calls]
    m["projection.mnp_iters.table6"] = float(np.mean(iters))
    m["submodular.greedy_us.table6"] = per_call_us(
        tr, "submodular.greedy_linear_minimizer", greedy_linear_minimizer,
        [(atom, inst.a) for atom in inst.atoms], batches=3)
    m["submodular.lovasz_us.table6"] = per_call_us(
        tr, "submodular.lovasz_extension", lovasz_extension,
        [(atom, inst.a) for atom in inst.atoms], batches=3)

    # fw is cap-bound on many table atoms (~60 ms each), so take a sample.
    picks = rng.choice(len(table_calls), size=16, replace=False)
    reports = []
    with tr.span("projection.project_fw"):
        t0 = time.perf_counter()
        for i in picks:
            reports.append(project_fw(*table_calls[i])[1])
        fw_s = time.perf_counter() - t0
    m["projection.fw_us.table6"] = 1e6 * fw_s / len(picks)
    m["projection.fw_iters.table6"] = float(np.mean([r.iterations for r in reports]))
    m["projection.fw_converged_ratio.table6"] = sum(r.converged for r in reports) / len(reports)

    gen_seed = int(rng.integers(2**31))
    m["applications.generate_s"], (hg, ds, _) = per_call_s(
        tr, "applications.generate_synthetic_hypergraph", generate_synthetic_hypergraph,
        1000, 500, 1000, 20, 3, gen_seed)
    m["applications.build_s"], _ = per_call_s(
        tr, "applications.build_ssl_instance", build_ssl_instance, hg, ds, 1, 0.02, "degree")
    scores = rng.standard_normal(hg.n)
    m["applications.sweep_s"], _ = per_call_s(
        tr, "applications.cheeger_sweep", cheeger_sweep, hg, hg.degrees, scores)
    return m


def _mnp(atom, wt, a):
    return project_mnp(atom, wt, a, record_history=False)
