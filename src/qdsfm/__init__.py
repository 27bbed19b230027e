"""Quadratic decomposable submodular function minimization.

Solvers for problems of the form

    min_x  ‖x − a‖²_W + Σ_r [f_r(x)]²

where each f_r is the support function (Lovász extension) of a submodular
component restricted to a small incidence set.  The dual is a best-
approximation problem over a product of cones, attacked either one random
block at a time (``rcd``) or all blocks per round (``ap``), with exact,
active-set, or conditional-gradient projection oracles per component.

On top of the solver sit hypergraph applications: semi-supervised vertex
labeling with sweep-cut rounding, PageRank via a quadratic reduction, a
planted-partition generator, and tabular-to-hypergraph ingestion.
"""

from .applications import (
    Hypergraph,
    LabeledDataset,
    SweepCut,
    adjacency_multiply,
    argmax_classify,
    build_pagerank_instance,
    build_ssl_instance,
    cheeger_sweep,
    generate_synthetic_hypergraph,
    ingest_tabular_dataset,
    pagerank_residual,
    ssl_score_matrix,
)
from .io import InputError
from .projection import (
    ConePoint,
    ProjectionNumericsError,
    ProjectionParams,
    ProjectionReport,
    project_cone,
    project_exact,
    project_fw,
    project_mnp,
)
from .solvers import (
    DEFAULT_SEED,
    ProblemInstance,
    SolveConfig,
    SolveResult,
    TraceRow,
    dual_objective,
    evaluate_dual_state,
    primal_from_dual,
    primal_objective,
    solve,
)
from .submodular import (
    SubmodularAtom,
    directed_hyperedge_cut,
    evaluate,
    general_oracle,
    graph_edge_cut,
    greedy_linear_minimizer,
    hyperedge_cut,
    lovasz_extension,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # submodular components
    "SubmodularAtom",
    "graph_edge_cut",
    "hyperedge_cut",
    "directed_hyperedge_cut",
    "general_oracle",
    "evaluate",
    "lovasz_extension",
    "greedy_linear_minimizer",
    # cone projection
    "ConePoint",
    "ProjectionParams",
    "ProjectionReport",
    "ProjectionNumericsError",
    "project_cone",
    "project_exact",
    "project_mnp",
    "project_fw",
    # solvers
    "DEFAULT_SEED",
    "ProblemInstance",
    "SolveConfig",
    "SolveResult",
    "TraceRow",
    "solve",
    "primal_objective",
    "dual_objective",
    "primal_from_dual",
    "evaluate_dual_state",
    # applications
    "Hypergraph",
    "LabeledDataset",
    "SweepCut",
    "build_ssl_instance",
    "ssl_score_matrix",
    "argmax_classify",
    "build_pagerank_instance",
    "pagerank_residual",
    "adjacency_multiply",
    "cheeger_sweep",
    "generate_synthetic_hypergraph",
    "ingest_tabular_dataset",
    # file formats
    "InputError",
]
