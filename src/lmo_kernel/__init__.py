"""Exact-arithmetic kernel for surgery invariants of rational homology
spheres: the diagrammatic route (wheels, gluing, formal Gaussian
integration, Lie-algebra weight systems) and the Lie-theoretic route
(Weyl groups, quantum dimensions, the perturbative surgery formula),
with order-by-order comparison of the two.
"""

from .qseries import HSeries, modified_bernoulli, q_power, sinh_ratio
from .diagrams import CanonicalForm, DiagramSeries, JacobiDiagram, canonicalize
from .balg import (
    fg_integral,
    omega,
    pair,
    partial,
    strut,
    theta,
    wheel,
    wheeling_inverse,
)
from .liews import (
    LieAlgebraData,
    build_sl,
    hat_weight,
    wick,
)
from .rootsys import (
    RootSystem,
    build_root_system,
    norm_classes,
    quantum_dim_sq_shifted,
    tau_pg,
    tau_poly,
    unknot_classes,
    weyl_denominator,
)
from .pipeline import (
    ComparisonReport,
    SurgeryInput,
    compare,
    lmo_via_definition,
    lmo_via_lemma,
    taupg_route,
    verify_suite,
)

__all__ = [
    "HSeries", "modified_bernoulli", "q_power", "sinh_ratio",
    "CanonicalForm", "DiagramSeries", "JacobiDiagram", "canonicalize",
    "fg_integral", "omega", "pair", "partial", "strut", "theta", "wheel",
    "wheeling_inverse",
    "LieAlgebraData", "build_sl", "hat_weight", "wick",
    "RootSystem", "build_root_system", "norm_classes",
    "quantum_dim_sq_shifted", "tau_pg", "tau_poly", "unknot_classes",
    "weyl_denominator",
    "ComparisonReport", "SurgeryInput", "compare", "lmo_via_definition",
    "lmo_via_lemma", "taupg_route", "verify_suite",
]

__version__ = "0.1.0"
