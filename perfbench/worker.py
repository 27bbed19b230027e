"""Runs one workload in this process and prints its result as one JSON line.

Started by ``run.py`` with the BLAS thread variables set to 1 and
``PYTHONPATH`` pointing at the checkout's ``src``; not meant to be run by
hand.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

import qdsfm
from qdsfm import cli, evaluate_dual_state

from layers import NoTracer, Tracer, micro_suite, per_call_us
from workloads import WORKLOADS

NO_TRACE = NoTracer()

# A shared host's speed can drift by 1.7x over minutes (measured on a
# 2-core VM, see README.md), which no statistic within a run removes.  So a
# run also times a fixed reference kernel between its pipelines, for
# REFERENCE_SHARE of the time, and reports its timings at the speed at which
# one kernel call takes REFERENCE_S.
REFERENCE_S = 0.008
REFERENCE_SHARE = 0.05
_ref_rng = np.random.default_rng(12345)
_REFERENCE_INPUTS = [(_ref_rng.standard_normal(20), _ref_rng.uniform(0.5, 2.0, 20))
                     for _ in range(32)]


def reference_kernel() -> float:
    """Fixed work shaped like the exact sweep: small numpy calls, a Python float loop.

    It is the benchmark's own code and calls nothing in qdsfm, so a change
    to the package cannot move it.
    """
    total = 0.0
    for _ in range(25):
        for b, m in _REFERENCE_INPUTS:
            order = np.argsort(-b, kind="stable")
            top = float(np.max(b))
            s = w = 0.0
            for v, u in zip(b[order].tolist(), m[order].tolist()):
                w += u
                s += u * v
                if s - w * v > top:
                    break
            total += s / w + float(np.dot(b, m))
    return total


def reference_samples(budget_s: float) -> list[float]:
    """Seconds of each reference kernel call, for ``budget_s`` (one call at least)."""
    out: list[float] = []
    while not out or sum(out) < budget_s:
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


def sub_seed(seed: int, index: int) -> int:
    """Seed of the index-th generated input of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def counts(res, inst) -> dict:
    return {"iterations": int(res.iterations), "epochs_to_gap": res.iterations / inst.r,
            "checkpoints": len(res.trace)}


class Run:
    """Attempted solves, the ones that failed and why, and the counts each input gave."""

    def __init__(self, workload, out_dir: str, seed: int) -> None:
        self.w = workload
        self.attempted = 0
        self.failed: set[int] = set()  # ids of failed solves
        self.failures: list[str] = []
        self.first: dict[int, tuple] = {}  # input index -> (solve id, counts, x) of its first solve
        self.counts_path = os.path.join(out_dir, f"counts-{workload.name}-seed{seed}.json")

    def new_solve(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, sid: int, problem: str) -> None:
        self.failed.add(sid)
        self.failures.append(problem)

    def solve(self, cases, index: int, tr):
        """One pipeline on input ``index``; None if it raised."""
        sid = self.new_solve()
        try:
            out = self.w.pipeline(cases[index], tr)
        except Exception:  # a raise is a failed solve, reported with its traceback
            self.fail(sid, f"input {index}: pipeline raised\n{traceback.format_exc()}")
            return None
        seen = counts(out.result, out.instance), out.result.x
        if index not in self.first:
            self.first[index] = (sid, *seen)
        elif seen[0] != self.first[index][1] or not np.array_equal(seen[1], self.first[index][2]):
            self.fail(sid, f"input {index}: counts or x differ between solves of one seed "
                           f"({self.first[index][1]} vs {seen[0]})")
            return None
        return out

    def check(self, cases, index: int, out) -> None:
        sid = self.first[index][0]
        for problem in self.w.check(cases[index], out):
            self.fail(sid, f"input {index}: {problem}")

    def compare_with_earlier_runs(self) -> None:
        """Counts must repeat exactly between runs at a fixed seed."""
        now = {str(i): c for i, (_, c, _) in self.first.items()}
        earlier = {}
        if os.path.exists(self.counts_path):
            with open(self.counts_path, encoding="utf-8") as f:
                earlier = json.load(f)
        for key, c in now.items():
            if key in earlier and earlier[key] != c:
                self.fail(self.first[int(key)][0], f"input {key}: counts {c} differ from "
                          f"an earlier run at this seed ({earlier[key]})")
        with open(self.counts_path, "w", encoding="utf-8") as f:
            json.dump({**earlier, **now}, f)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(w, cases, seconds: float, run: Run) -> tuple[dict, dict]:
    """Closed loop over the inputs for ``seconds`` (one pass at least).

    One untimed pipeline on the first input warms the process up first.
    After the first pass, a solve starts only if one more like the last
    fits in the time left.  Per input a timing is the median of its solves.
    After each pipeline the reference kernel runs for REFERENCE_SHARE of
    the pipeline's time; every timing is scaled by REFERENCE_S over the
    kernel's mean time in the run.  The raw timings go into the report.
    """
    samples = {i: {"solve_s": [], "total_s": []} for i in range(len(cases))}
    setups: list[float] = []
    refs: list[float] = []
    first_out = {}
    run.solve(cases, 0, NO_TRACE)
    start = time.perf_counter()
    rep, last = 0, 0.0
    while rep < len(cases) or time.perf_counter() - start + last <= seconds:
        i = rep % len(cases)
        rep += 1
        t0 = time.perf_counter()
        out = run.solve(cases, i, NO_TRACE)
        if out is None:
            continue
        for key in samples[i]:
            samples[i][key].append(getattr(out, key))
        first_out.setdefault(i, out)
        setups.append(out.setup_s)
        refs.extend(reference_samples(REFERENCE_SHARE * (time.perf_counter() - t0)))
        last = time.perf_counter() - t0
    rss = peak_rss_mb()
    for i, out in first_out.items():
        run.check(cases, i, out)

    solved = [i for i in first_out if samples[i]["solve_s"]]
    metrics, report = {}, {"solves": rep, "instances": len(cases),
                           "counts": {i: run.first[i][1] for i in sorted(run.first)}}
    if solved:
        med = {key: [statistics.median(samples[i][key]) for i in solved]
               for key in ("solve_s", "total_s")}
        iters = sum(first_out[i].result.iterations for i in solved)
        raw = {
            "time_to_gap_s": statistics.fmean(med["solve_s"]),
            "projections_per_s": iters / sum(med["solve_s"]),
            "setup_s": statistics.median(setups),
            "total_s": statistics.fmean(med["total_s"]),
        }
        reference_mean_s = statistics.fmean(refs)
        scale = REFERENCE_S / reference_mean_s
        metrics = {name: value / scale if name == "projections_per_s" else value * scale
                   for name, value in raw.items()}
        metrics["peak_rss_mb"] = rss
        report.update({"raw": raw, "reference_mean_s": reference_mean_s,
                       "reference_calls": len(refs)})
        report["ssl_error"] = statistics.fmean(first_out[i].extra["ssl_error"] for i in solved)
    return metrics, report


def trace_run(w, cases, seed: int, workdir: str, run: Run) -> tuple[dict, dict, list]:
    """The pipeline untraced and traced, then the CLI call and the micro-suite.

    The pipeline runs four times on the first input, untraced, traced,
    traced, untraced, so that a steady drift of the machine's speed cancels
    out of the tracing overhead.
    """
    tr = Tracer(w.name)
    outs: dict[bool, list] = {False: [], True: []}
    for traced in (False, True, True, False):
        if traced:
            with tr.span("bench.pipeline"):
                out = run.solve(cases, 0, tr)
        else:
            out = run.solve(cases, 0, NO_TRACE)
        if out is None:
            return {}, {}, tr.spans
        outs[traced].append(out)
    run.check(cases, 0, outs[True][0])
    pipeline_self = tr.self_times("bench.pipeline")

    sid = run.new_solve()
    t0 = time.perf_counter()
    with tr.span("cli.main"):
        code = cli.main(w.cli_argv(cases[0]))
    cli_s = time.perf_counter() - t0
    for problem in w.check_cli(cases[0], code):
        run.fail(sid, problem)

    res, inst = outs[True][0].result, outs[True][0].instance
    c = counts(res, inst)
    solve_s = statistics.fmean(o.solve_s for o in outs[True])
    total_s = {k: statistics.fmean(o.total_s for o in v) for k, v in outs.items()}
    metrics = {
        "solvers.epochs_to_gap": c["epochs_to_gap"],
        "solvers.iterations": float(c["iterations"]),
        "solvers.checkpoints": float(c["checkpoints"]),
        "solvers.us_per_projection": 1e6 * solve_s / res.iterations,
        "solvers.epoch_ms": 1e3 * solve_s / c["epochs_to_gap"],
        "solvers.checkpoint_us": per_call_us(
            tr, "solvers.evaluate_dual_state", evaluate_dual_state,
            [(inst, res.sum_y, res.phis)] * 10),
        "io.write_s": statistics.fmean(o.write_s for o in outs[True]),
        "cli.run_s": cli_s,
        "trace.overhead_s": total_s[True] - total_s[False],
    }
    with tr.span("bench.micro"):
        metrics.update(micro_suite(tr, seed, workdir))
    for layer, s in tr.self_times().items():
        if layer != "bench":
            metrics[f"{layer}.self_s"] = s
    report = {"pipeline_self_s": pipeline_self, "counts": {0: c},
              "untraced_total_s": total_s[False], "traced_total_s": total_s[True]}
    return metrics, report, tr.spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(qdsfm.__file__).startswith(src + os.sep):
        print(f"qdsfm was imported from {qdsfm.__file__}, not from {src}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    run = Run(w, args.out_dir, args.seed)
    with tempfile.TemporaryDirectory(dir=args.out_dir) as workdir:
        cases = [w.prepare(sub_seed(args.seed, i), workdir, i) for i in range(w.instances)]
        if args.trace:
            metrics, report, spans = trace_run(w, cases, args.seed, workdir, run)
            spans_path = os.path.join(args.out_dir, f"spans-{w.name}-seed{args.seed}.json")
            with open(spans_path, "w", encoding="utf-8") as f:
                json.dump(spans, f)
        else:
            metrics, report = measure(w, cases, args.seconds, run)
    run.compare_with_earlier_runs()
    report["failed_share"] = len(run.failed) / max(run.attempted, 1)
    print(json.dumps({
        "workload": w.name,
        "numpy": np.__version__,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "failures": run.failures,
        "metrics": metrics,
        "report": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
