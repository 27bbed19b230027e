"""qdsfm benchmark: time to a certified duality gap, end to end and per layer.

    python3 perfbench/run.py --workload ssl_rcd --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55 --trace 0

Each workload runs in its own single-threaded child process (BLAS thread
variables set to 1 for that process only).  The report prints every metric
by name and unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  A full record,
with the machine and versions, goes to ``perfbench/out/``.  The exit code is
1 when any solve failed or any check did not pass.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("ssl_rcd", "ssl_ap")
CHILD_TIMEOUT_S = 175
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def environment(seed: int, seconds: float, numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit, "seed": seed, "seconds": seconds}


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh single-threaded process; return its result."""
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD_ENV})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def report(child: dict, spec: dict, trace: int) -> dict:
    """Print one workload's metrics by name and unit; return them as name -> value."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    name = child["workload"]
    metrics = {}
    for m in wanted:
        value = child["metrics"].get(m["name"])
        if value is None:
            print(f"{name:15s} {m['name']:40s} missing")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{name:15s} {m['name']:40s} {value:14.6g} {m['unit']}")
    extra = child["report"]
    for raw_name, value in extra.get("raw", {}).items():
        print(f"{name:15s} {'raw ' + raw_name:40s} {value:14.6g} (wall clock)")
    if "reference_mean_s" in extra:
        print(f"{name:15s} {'reference kernel mean':40s} {extra['reference_mean_s']:14.6g} s "
              f"({extra['reference_calls']} calls)")
    print(f"{name:15s} {'failed_share':40s} {extra['failed_share']:14.6g} fraction "
          f"({child['failed']}/{child['attempted']})")
    if "ssl_error" in extra:
        print(f"{name:15s} {'ssl_error':40s} {extra['ssl_error']:14.6g} fraction")
    for problem in child["failures"]:
        print(f"{name:15s} FAILED: {problem}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "qdsfm", "__init__.py")):
        print("error: no qdsfm package under src/ next to the benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    children = []
    for name in names:
        try:
            children.append(run_child(name, args.seed, args.seconds, args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    env = environment(args.seed, args.seconds, children[0]["numpy"])
    print("environment: " + json.dumps(env))
    metrics: dict = {}
    for child in children:
        shown = report(child, spec, args.trace)
        prefix = f"{child['workload']}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in shown.items()})
        record = os.path.join(OUT_DIR, f"{child['workload']}-seed{args.seed}-trace{args.trace}.json")
        with open(record, "w", encoding="utf-8") as f:
            json.dump({"environment": env, **child}, f, indent=1)

    wanted = len(spec["per_layer"] if args.trace else spec["end_to_end"]) * len(children)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    correct = failed == 0 and len(metrics) == wanted
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
