"""Every name a module lists in ``__all__`` exists, so star imports work."""

import importlib
import pkgutil

import pytest

import qdsfm

MODULES = ["qdsfm"] + [f"qdsfm.{info.name}" for info in pkgutil.iter_modules(qdsfm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# the 39 names the package must keep exporting, whatever the modules' lists add
_EARLIER_EXPORTS = {
    "__version__", "SubmodularAtom", "graph_edge_cut", "hyperedge_cut", "directed_hyperedge_cut",
    "general_oracle", "lovasz_extension", "greedy_linear_minimizer", "ConePoint",
    "ProjectionParams", "ProjectionReport", "ProjectionNumericsError", "project_cone",
    "project_exact", "project_mnp", "project_fw", "DEFAULT_SEED", "ProblemInstance",
    "SolveConfig", "SolveResult", "TraceRow", "solve", "primal_objective", "dual_objective",
    "primal_from_dual", "evaluate_dual_state", "Hypergraph", "LabeledDataset", "SweepCut",
    "build_ssl_instance", "ssl_score_matrix", "argmax_classify", "build_pagerank_instance",
    "pagerank_residual", "adjacency_multiply", "cheeger_sweep", "generate_synthetic_hypergraph",
    "ingest_tabular_dataset", "InputError",
}


def test_package_exports_the_modules_lists():
    from qdsfm import applications, projection, solvers, submodular

    lists = [name for m in (submodular, projection, solvers, applications) for name in m.__all__]
    assert len(lists) == len(set(lists))
    assert set(qdsfm.__all__) == set(lists) | {"__version__", "InputError"}
    assert len(_EARLIER_EXPORTS) == 39 and set(qdsfm.__all__) >= _EARLIER_EXPORTS
