"""Quadratic decomposable submodular function minimization.

Solvers for problems of the form

    min_x  ‖x − a‖²_W + Σ_r [f_r(x)]₊²

where each f_r is the support function (Lovász extension) of a submodular
component restricted to a small incidence set.  The dual is a best-
approximation problem over a product of cones, attacked either in chunks of
τ random blocks per accelerated step (``rcd``) or all blocks per round
(``ap``), with exact, active-set, or conditional-gradient projection oracles
per component.

On top of the solver sit hypergraph applications: semi-supervised vertex
labeling with sweep-cut rounding, PageRank via a quadratic reduction, a
planted-partition generator, and tabular-to-hypergraph ingestion.

The package exports every name in the ``__all__`` of `submodular`,
`projection`, `solvers` and `applications`, and `io.InputError`.
"""

from . import applications, projection, solvers, submodular
from .applications import *  # noqa: F401,F403
from .io import InputError
from .projection import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .submodular import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", "InputError"] + [
    name for module in (submodular, projection, solvers, applications) for name in module.__all__
]
