"""Acyclic edge coloring toolkit.

Exact acyclic chromatic index computation, a constructive colorer (direct
assignment M1, then local exact repair), exact maximum average degree, and
executable verification of critical-graph structure lemmas and discharging
arguments at desk scale.
"""

from .coloring import (
    BichromaticTrace,
    EdgeColoring,
    has_bichromatic_cycle,
    is_proper,
    trace_bichromatic,
)
from .colorer import (
    ColoringReport,
    choose_palette,
    color_graph,
    peel_palette,
)
from .density import density_at_least, mad_exact
from .graph import (
    Graph,
    GraphError,
    build_graph,
    delete_edge,
    girth,
    is_2_connected,
    parse_edge_list,
)
from .solver import (
    BudgetExhausted,
    CriticalityReport,
    SolveBudget,
    chi_a_exact,
    is_acyclically_k_colorable,
    is_critical,
)
from .structure import (
    ChargeState,
    critical_sweep,
    discharge,
    discharging_contradiction_report,
    fact2_verify,
    lemma_suite,
)

__all__ = [
    "BichromaticTrace", "BudgetExhausted", "ChargeState", "ColoringReport",
    "CriticalityReport", "EdgeColoring", "Graph", "GraphError",
    "SolveBudget", "build_graph", "chi_a_exact", "choose_palette",
    "color_graph", "critical_sweep", "delete_edge", "density_at_least",
    "discharge", "discharging_contradiction_report", "fact2_verify", "girth",
    "has_bichromatic_cycle", "is_2_connected", "is_acyclically_k_colorable",
    "is_critical", "is_proper", "lemma_suite", "mad_exact", "parse_edge_list",
    "peel_palette", "trace_bichromatic",
]
