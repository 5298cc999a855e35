"""Arrow-diagram formulas for virtual knots in the annulus.

Exact (rational) linear algebra over canonical Gauss / arrow / degenerate
diagrams with integer markings: relation generators, formula-space kernels,
a boundary operator, planar chain formulas, and randomized move-invariance
checks.  The `arrowforms` console script exposes the same operations on
plain-text diagram and formula files.
"""

from .diagrams import (
    ArrowDiagram,
    BasedDiagram,
    DegenerateDiagram,
    DiagramError,
    GaussDiagram,
)
from .engine import (
    ChainPresentation,
    check_formula,
    enumerate_Un,
    evaluate,
    gv_formula,
    homogeneous_components,
    null_pair_formula,
    phi_gamma,
    solve_formula_space,
    verify_invariance,
)
from .lincomb import Formula, LinComb
from .relations import MarkingWindow, enumerate_diagrams

__version__ = "0.1.0"

__all__ = [
    "ArrowDiagram",
    "BasedDiagram",
    "ChainPresentation",
    "DegenerateDiagram",
    "DiagramError",
    "Formula",
    "GaussDiagram",
    "LinComb",
    "MarkingWindow",
    "check_formula",
    "enumerate_Un",
    "enumerate_diagrams",
    "evaluate",
    "gv_formula",
    "homogeneous_components",
    "null_pair_formula",
    "phi_gamma",
    "solve_formula_space",
    "verify_invariance",
]
