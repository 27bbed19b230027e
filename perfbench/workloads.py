"""The benchmark's two workloads: the paper's SSL application under rcd and ap.

Each workload makes its inputs from a seed (``prepare``), runs the timed
pipeline a user of the package would run (``pipeline``), and checks the
answer with code that does not trust the solver's own report (``check``).
``cli_argv`` gives the equivalent ``qdsfm`` command line on the same input.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from qdsfm import (
    SolveConfig,
    build_ssl_instance,
    cheeger_sweep,
    dual_objective,
    generate_synthetic_hypergraph,
    primal_objective,
    solve,
)
from qdsfm import io as qio

# Generous budgets: a solve that hits one counts as failed, never as slow.
_BUDGET_EPOCHS = 300
_WALL_CLOCK_LIMIT_S = 60.0


@dataclass
class Case:
    """One generated input: its seed and the files of this pipeline."""

    seed: int
    solution_path: str
    trace_path: str
    cli_output_path: str


@dataclass
class Outcome:
    setup_s: float
    solve_s: float
    write_s: float
    total_s: float
    result: object
    instance: object
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SSLWorkload:
    """Planted two-cluster hypergraph, class-1 scores, sweep-cut labels.

    ``generate_synthetic_hypergraph(1000, 500, 1000, 20, 3)`` and
    ``build_ssl_instance(k=1, beta=0.02, degree)``: R=2000 hyperedges with
    |S_r|=20, solved with ``algorithm``+``exact`` to ``target_gap``.
    """

    name: str
    algorithm: str
    target_gap: float
    instances: int  # generated inputs per run; the metrics average over them
    n, within, across, edge_size, labeled, beta = 1000, 500, 1000, 20, 3, 0.02
    projection = "exact"

    def config(self, instance, seed: int) -> SolveConfig:
        return SolveConfig(
            algorithm=self.algorithm,
            projection=self.projection,
            target_gap=self.target_gap,
            max_iters=_BUDGET_EPOCHS * instance.r,
            seed=seed,
            wall_clock_limit=_WALL_CLOCK_LIMIT_S,
        )

    def prepare(self, seed: int, workdir: str, index: int) -> Case:
        stem = os.path.join(workdir, f"{self.name}-{index}")
        return Case(seed, stem + "-solution.json", stem + "-trace.csv", stem + "-cli.json")

    def setup(self, case: Case, tr) -> dict:
        """Everything before the solve: generation and the instance builder."""
        with tr.span("applications.generate_synthetic_hypergraph"):
            hg, ds, truth = generate_synthetic_hypergraph(
                self.n, self.within, self.across, self.edge_size, self.labeled, case.seed)
        with tr.span("applications.build_ssl_instance"):
            inst, back = build_ssl_instance(hg, ds, 1, self.beta, "degree")
        return {"instance": inst, "hg": hg, "truth": truth, "back": back}

    def finish(self, state: dict, res, tr) -> dict:
        """The sweep-cut rounding after the solve, scored against the truth."""
        hg = state["hg"]
        with tr.span("applications.cheeger_sweep"):
            sweep = cheeger_sweep(hg, hg.degrees, state["back"](res.x))
        labels = sweep.labels(prefix_class=1)
        return {"ssl_error": float(np.mean(labels != state["truth"]))}

    def pipeline(self, case: Case, tr) -> Outcome:
        """Set-up, solve, rounding, output writes."""
        t0 = time.perf_counter()
        state = self.setup(case, tr)
        inst = state["instance"]
        t1 = time.perf_counter()
        with tr.span("solvers.solve"):
            res = solve(inst, self.config(inst, case.seed))
        t2 = time.perf_counter()
        extra = self.finish(state, res, tr)
        t3 = time.perf_counter()
        with tr.span("io.write_solution"):
            qio.write_solution(res, case.solution_path)
        with tr.span("io.write_trace"):
            qio.write_trace(res.trace, case.trace_path)
        t4 = time.perf_counter()
        return Outcome(t1 - t0, t2 - t1, t4 - t3, t4 - t0, res, inst, extra)

    def cli_argv(self, case: Case) -> list[str]:
        return ["ssl", "--synthetic", "--n", str(self.n), "--within", str(self.within),
                "--across", str(self.across), "--edge-size", str(self.edge_size),
                "--labeled", str(self.labeled), "--beta", str(self.beta),
                "--normalization", "degree", "--algorithm", self.algorithm,
                "--projection", self.projection, "--target-gap", repr(self.target_gap),
                "--max-iters", str(_BUDGET_EPOCHS * (2 * self.within + self.across)),
                "--seed", str(case.seed), "--output", case.cli_output_path, "--quiet"]

    def check(self, case: Case, out: Outcome) -> list[str]:
        """Failures of one solve; empty when every check passes."""
        res, inst = out.result, out.instance
        problems = []
        if not res.converged:
            problems.append(f"not converged: gap {res.gap:.3e} after {res.iterations} projections")
        primal = primal_objective(inst, res.x)
        _, dual = dual_objective(inst, res.sum_y, res.phis)
        gap = primal - dual
        if not -1e-9 <= gap <= self.target_gap:
            problems.append(f"recomputed gap {gap:.3e} outside [-1e-9, {self.target_gap:g}]")
        x_from_dual = inst.a - 0.5 * np.asarray(res.sum_y) / inst.w
        if not np.allclose(res.x, x_from_dual, rtol=0.0, atol=1e-12):
            problems.append("x does not match a - W^-1 sum_y / 2")
        if np.any(np.asarray(res.phis) < 0):
            problems.append("negative cone multiplier")
        written = qio.read_solution(case.solution_path)
        if written.get("iters") != res.iterations or written.get("converged") is not True:
            problems.append("solution file does not match the solve")
        return problems

    def check_cli(self, case: Case, code: int) -> list[str]:
        if code != 0:
            return [f"qdsfm {self.cli_argv(case)[0]} exited {code}"]
        with open(case.cli_output_path, encoding="utf-8") as f:
            payload = json.load(f)
        if payload.get("gap", math.inf) > self.target_gap:
            return ["cli gap above target"]
        return []


WORKLOADS = {w.name: w for w in (
    # The exact sweep on 20-vertex atoms dominates: the workload for any RCD
    # or scalar-sweep change.  Its epochs to 1e-5 vary 21-29 across seeds.
    SSLWorkload("ssl_rcd", "rcd", 1e-5, instances=6),
    # Every round projects all blocks from one snapshot: the workload for a
    # batched AP kernel, which ssl_rcd bypasses.  ap reaches 3e-4 in 4 rounds
    # on every seed, then stalls: from 3e-4 to 1e-4 its rounds vary 9-33
    # across seeds, which would make this a measure of the seed rather than
    # of the round cost.
    SSLWorkload("ssl_ap", "ap", 3e-4, instances=8),
)}
