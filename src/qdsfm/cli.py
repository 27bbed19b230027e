"""Command-line front end.

Subcommands:

* ``solve``     -- run a dual solver on an instance file, write solution/trace
* ``project``   -- project the instance anchor onto one component's cone
* ``ssl``       -- semi-supervised labeling on a synthetic or tabular dataset
* ``pagerank``  -- hypergraph-quadratic PageRank on a graph file
* ``compare``   -- race several (algorithm, projection) pairs under one budget

Exit codes: 0 when the run converged to the requested gap, 1 on usage or
input errors or a failed affine solve inside ``mnp``, 2 when the
iteration/time budget ran out first.  Runs with no ``--target-gap`` never
count as converged and exit 2 by design: the budget was the only stopping
rule.  Logging goes to stderr; the default level is WARNING and can be
overridden with the ``QDSFM_LOG`` environment variable (``--quiet`` forces
ERROR).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time
from collections.abc import Sequence

import numpy as np

from . import applications as apps
from . import io as qio
from .io import InputError
from .projection import (
    DEFAULT_DELTA,
    ORACLES,
    ProjectionNumericsError,
    ProjectionParams,
    _choose_oracle,
    project_cone,
)
from .solvers import ALGORITHMS, DEFAULT_SEED, SolveConfig, solve

logger = logging.getLogger("qdsfm")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2

_BUDGET_ITERS = 10**9  # effectively unbounded; wall clock stops compare runs


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse parser that reports usage problems via exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


def _setup_logging(quiet: bool) -> None:
    name = os.environ.get("QDSFM_LOG", "WARNING").upper()
    level = name if name in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL") else "WARNING"
    logging.basicConfig(level="ERROR" if quiet else level,
                        format="%(levelname)s %(name)s: %(message)s")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="RNG seed (default %(default)s)"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress informational logging"
    )


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="rcd",
        help="coordinate descent (rcd) or alternating projections (ap)",
    )
    parser.add_argument(
        "--max-iters",
        type=int,
        default=None,
        help="projection budget; 0 evaluates the starting point only. ap spends "
        "whole rounds of one projection per component, rounding down, and runs "
        "at least one round",
    )
    parser.add_argument(
        "--target-gap",
        type=float,
        default=None,
        help="stop (and exit 0) once the duality gap falls below this",
    )
    parser.add_argument(
        "--checkpoint-stride",
        type=int,
        default=None,
        help="iterations between trace rows / stopping checks",
    )
    parser.add_argument(
        "--wall-clock-limit",
        type=float,
        default=None,
        help="stop after this many seconds (checked after every solver step)",
    )
    parser.add_argument(
        "--projection",
        choices=ORACLES,
        default="auto",
        help="per-component projection oracle",
    )
    parser.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="oracle tolerance")


def _solver_config(args: argparse.Namespace, **overrides) -> SolveConfig:
    """The `SolveConfig` of the fields ``args`` has, then ``overrides``;
    fields neither gives keep `SolveConfig`'s defaults."""
    names = (f.name for f in dataclasses.fields(SolveConfig))
    fields = {name: getattr(args, name) for name in names if hasattr(args, name)}
    return SolveConfig(**{**fields, **overrides})


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args: argparse.Namespace) -> int:
    instance = qio.load_instance(args.instance)
    config = _solver_config(args)
    result = solve(instance, config)
    qio.write_solution(result, args.solution)
    if args.trace:
        qio.write_trace(result.trace, args.trace)
    logger.info(
        "%s finished: gap %.3e after %d iterations (converged=%s)",
        config.algorithm,
        result.gap,
        result.iterations,
        result.converged,
    )
    return EXIT_OK if result.converged else EXIT_BUDGET


# ---------------------------------------------------------------------------
# project


def cmd_project(args: argparse.Namespace) -> int:
    instance = qio.load_instance(args.instance)
    if not 0 <= args.atom < instance.r:
        raise InputError(
            f"atom index {args.atom} out of range (instance has {instance.r})"
        )
    params = ProjectionParams(
        delta=args.delta, max_major=args.max_iter, method=args.method
    )
    point, report = project_cone(
        instance.atoms[args.atom], instance.winv, instance.a, params
    )
    payload = {
        "y": [float(v) for v in point.dense(instance.n)],
        "phi": float(point.phi),
        "h": float(report.h),
        "certificate": float(report.certificate),
    }
    qio.write_json(payload, None)
    return EXIT_OK if report.converged else EXIT_BUDGET


# ---------------------------------------------------------------------------
# ssl


def cmd_ssl(args: argparse.Namespace) -> int:
    if args.synthetic:
        if args.dataset or args.schema or args.labels:
            raise InputError("--synthetic excludes --dataset/--schema/--labels")
        hg, ds, truth = apps.generate_synthetic_hypergraph(
            args.n,
            args.within,
            args.across,
            args.edge_size,
            args.labeled,
            args.seed,
        )
    else:
        if not (args.dataset and args.schema and args.labels):
            raise InputError(
                "ssl needs either --synthetic or all of --dataset, --schema, --labels"
            )
        rows = qio.load_table_rows(args.dataset)
        schema = qio.load_schema(args.schema)
        hg = apps.ingest_tabular_dataset(
            rows, schema, bins=args.bins, equal_frequency=args.equal_frequency
        )
        ds = qio.load_labels(args.labels, hg.n)
        truth = None

    config = _solver_config(args)
    wdiag = hg.degrees if args.normalization == "degree" else np.ones(hg.n)
    t0 = time.perf_counter()
    scores, results = apps.ssl_score_matrix(hg, ds, args.beta, args.normalization, config)
    seconds = time.perf_counter() - t0
    gaps = [res.gap for res in results]

    if ds.num_classes == 2:
        sweep = apps.cheeger_sweep(hg, wdiag, np.sqrt(wdiag) * scores[1])
        labels = sweep.labels(prefix_class=1)
        c_value: float | None = float(sweep.conductance)
    else:
        labels = apps.argmax_classify(scores)
        c_value = None
    error = float(np.mean(labels != truth)) if truth is not None else None

    payload = {
        "classification_error": error,
        "c_value": c_value,
        "gap": float(max(gaps)),
        "iters": int(sum(res.iterations for res in results)),
        "seconds": float(seconds),
        "labels": [int(v) for v in labels],
        "scores": [[float(v) for v in row] for row in scores],
    }
    qio.write_json(payload, args.output)
    if args.trace:
        qio.write_trace(results[-1].trace, args.trace)
    logger.info(
        "ssl: %d classes, worst gap %.3e, error %s", ds.num_classes, max(gaps), error
    )
    return EXIT_OK if all(res.converged for res in results) else EXIT_BUDGET


# ---------------------------------------------------------------------------
# pagerank


def cmd_pagerank(args: argparse.Namespace) -> int:
    hg = qio.load_hypergraph(args.graph)
    if args.seed_vector:
        s = qio.load_vector(args.seed_vector, "seed vector")
    else:
        s = np.full(hg.n, 1.0 / hg.n)
    instance, back = apps.build_pagerank_instance(hg, args.alpha, s)
    config = _solver_config(args)
    result = solve(instance, config)
    p = back(result.x)
    residual = apps.pagerank_residual(hg, args.alpha, s, p)
    payload = {
        "x": [float(v) for v in p],
        "gap": float(result.gap),
        "iters": int(result.iterations),
        "converged": bool(result.converged),
        "residual": float(residual),
    }
    qio.write_json(payload, args.solution)
    if args.trace:
        qio.write_trace(result.trace, args.trace)
    logger.info("pagerank: residual %.3e, gap %.3e", residual, result.gap)
    return EXIT_OK if result.converged else EXIT_BUDGET


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args: argparse.Namespace) -> int:
    instance = qio.load_instance(args.instance)
    if not 0.0 < args.budget_seconds < np.inf:
        raise InputError("--budget-seconds must be positive and finite")
    runs = []  # every method's config and oracle are checked before the first one runs
    for token in filter(None, (t.strip() for t in args.methods.split(","))):
        algorithm, _, projection = token.partition(":")
        try:
            config = _solver_config(
                args,
                algorithm=algorithm,
                projection=projection or "auto",
                max_iters=_BUDGET_ITERS,
                wall_clock_limit=args.budget_seconds,
                target_gap=None,
            )
            for atom in instance.atoms:
                _choose_oracle(atom, config.projection)
        except ValueError as exc:
            raise InputError(f"method {token!r}: {exc}") from exc
        runs.append((token, config))
    if not runs:
        raise InputError("--methods must name at least one algorithm:projection pair")
    records = []
    for token, config in runs:
        result = solve(instance, config)
        for row in result.trace:
            records.append((token, row.iteration, row.seconds, row.gap))
        logger.info(
            "compare %s: gap %.3e after %d iterations", token, result.gap, result.iterations
        )
    qio.write_comparison(records, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qdsfm",
        description="Quadratic decomposable submodular minimization tools",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="minimize an instance file")
    p_solve.add_argument("--instance", required=True, help="instance JSON path")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--trace", default=None, help="write convergence CSV here")
    p_solve.add_argument(
        "--solution",
        default=None,
        help="write solution JSON here (default: stdout)",
    )
    _add_common_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_proj = sub.add_parser(
        "project", help="project the anchor onto one component's cone"
    )
    p_proj.add_argument("--instance", required=True, help="instance JSON path")
    p_proj.add_argument(
        "--atom", type=int, default=0, help="component index (default 0)"
    )
    p_proj.add_argument(
        "--method",
        choices=ORACLES,
        default="auto",
        help="projection oracle (auto: exact for cuts, active-set otherwise)",
    )
    p_proj.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="oracle tolerance")
    p_proj.add_argument(
        "--max-iter", type=int, default=None, help="oracle iteration cap"
    )
    _add_common_flags(p_proj)
    p_proj.set_defaults(func=cmd_project)

    p_ssl = sub.add_parser("ssl", help="semi-supervised vertex labeling")
    p_ssl.add_argument(
        "--synthetic",
        action="store_true",
        help="generate a planted two-cluster hypergraph instead of reading files",
    )
    p_ssl.add_argument("--n", type=int, default=1000, help="synthetic: vertex count")
    p_ssl.add_argument(
        "--within", type=int, default=500, help="synthetic: hyperedges per cluster"
    )
    p_ssl.add_argument(
        "--across", type=int, default=1000, help="synthetic: unrestricted hyperedges"
    )
    p_ssl.add_argument(
        "--edge-size", type=int, default=20, help="synthetic: vertices per hyperedge"
    )
    p_ssl.add_argument(
        "--labeled", type=int, default=3, help="synthetic: revealed labels per cluster"
    )
    p_ssl.add_argument("--dataset", default=None, help="CSV of records")
    p_ssl.add_argument("--schema", default=None, help="column schema JSON")
    p_ssl.add_argument("--labels", default=None, help="seed labels JSON")
    p_ssl.add_argument(
        "--bins", type=int, default=10, help="bins per numeric column (default 10)"
    )
    p_ssl.add_argument(
        "--equal-frequency",
        action="store_true",
        help="bin numeric columns by quantiles instead of equal width",
    )
    p_ssl.add_argument(
        "--beta", type=float, default=0.02, help="anchor fidelity weight"
    )
    p_ssl.add_argument(
        "--normalization",
        choices=("degree", "identity"),
        default="degree",
        help="vertex weighting for scores and sweep",
    )
    _add_solver_flags(p_ssl)
    p_ssl.add_argument("--output", default=None, help="metrics JSON (default: stdout)")
    p_ssl.add_argument("--trace", default=None, help="trace CSV of the last class solve")
    _add_common_flags(p_ssl)
    p_ssl.set_defaults(func=cmd_ssl)

    p_pr = sub.add_parser("pagerank", help="PageRank via the quadratic reduction")
    p_pr.add_argument("--graph", required=True, help="hypergraph JSON (graph edges)")
    p_pr.add_argument(
        "--alpha", type=float, required=True, help="walk probability in (0, 1)"
    )
    p_pr.add_argument(
        "--seed-vector",
        default=None,
        help="JSON list for the restart distribution (default: uniform)",
    )
    _add_solver_flags(p_pr)
    p_pr.add_argument(
        "--solution", default=None, help="result JSON (default: stdout)"
    )
    p_pr.add_argument("--trace", default=None, help="write convergence CSV here")
    _add_common_flags(p_pr)
    p_pr.set_defaults(func=cmd_pagerank)

    p_cmp = sub.add_parser(
        "compare", help="race solver/oracle pairs under one wall-clock budget"
    )
    p_cmp.add_argument("--instance", required=True, help="instance JSON path")
    p_cmp.add_argument(
        "--methods",
        default="rcd:auto,ap:auto",
        help="comma list of algorithm:projection pairs (default %(default)s)",
    )
    p_cmp.add_argument(
        "--budget-seconds", type=float, required=True, help="per-method time budget"
    )
    p_cmp.add_argument(
        "--checkpoint-stride", type=int, default=None, help="iterations between rows"
    )
    p_cmp.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="oracle tolerance")
    p_cmp.add_argument("--output", required=True, help="long-format CSV path")
    _add_common_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    _setup_logging(args.quiet)
    try:
        return args.func(args)
    except (InputError, ValueError, OSError, ProjectionNumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
