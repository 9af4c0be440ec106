"""nodepoly: exact universal node polynomials for algebraic surfaces.

Counts delta-node nodal curves in generic delta-dimensional linear
subsystems through universal polynomials in the four Chern numbers
(c1(L)^2, c1(L).c1(K), c1(K)^2, c2), extracted from a quasi-modular
closed-form generating function by exact Lagrange-Buermann inversion.  All
arithmetic is big-integer rational; there is no floating point anywhere.
"""

from .chern import (K3, P2, RRCoefficients, SurfaceClass, T4, builtin_catalog,
                    parse_surface, rr_example_pairs, solve_rr_coefficients)
from .chernpoly import ChernPoly
from .inclexcl import (SetSystem, intersection_table, modified_cardinalities,
                       union_via_alternating, union_via_modified)
from .modular import (d2g2_series, delta_series, dg2_series, g2_series,
                      partition_power_series, sigma1)
from .nodal import (MAX_DELTA, BlowupCheck, FactorizedForm, NodalCount,
                    YauZaslowReport, b1_series, b2_series,
                    blowup_identity_check, closed_form_series,
                    closed_form_symbolic, count_nodal,
                    factorize_generating_function, node_polynomials,
                    yau_zaslow_check)
from .series import PSeries

__version__ = "0.1.0"

__all__ = [
    "BlowupCheck", "ChernPoly", "FactorizedForm", "K3", "MAX_DELTA",
    "NodalCount", "P2", "PSeries",
    "RRCoefficients", "SetSystem", "SurfaceClass", "T4", "YauZaslowReport",
    "b1_series", "b2_series", "blowup_identity_check", "builtin_catalog",
    "closed_form_series", "closed_form_symbolic", "count_nodal",
    "d2g2_series", "delta_series", "dg2_series",
    "factorize_generating_function", "g2_series", "intersection_table",
    "modified_cardinalities", "node_polynomials", "parse_surface",
    "partition_power_series", "rr_example_pairs", "sigma1",
    "solve_rr_coefficients", "union_via_alternating",
    "union_via_modified", "yau_zaslow_check",
]
