"""Exact minimal log discrepancies of determinantal pairs of square matrices,
with independent brute-force verification oracles."""

from types import ModuleType as _ModuleType

from . import forms, oracle, polynomials, tableaux
from .core import (
    INF,
    DeterminantalPair,
    ExtendedPartition,
    MldValue,
    PreconditionError,
    new_pair,
    new_partition,
)
from .forms import (
    ChartForm,
    NashReport,
    ReductionResult,
    chart_form,
    reduce_top_form,
    verify_chart_transition,
    verify_nash,
)
from .mld import (
    BetaVector,
    beta_coefficients,
    is_lc_along,
    is_lc_at_rank,
    is_terminal,
    mld_along,
    mld_at_rank,
    semicontinuity_profile,
)
from .oracle import (
    ABOVE_TRUNCATION,
    LocusTarget,
    OracleComparison,
    OracleResult,
    PointTarget,
    compare_with_closed_form,
    discrepancy_objective,
    minimize_objective,
    series_minor_order,
)
from .orbits import (
    contact_order_subvariety,
    nash_contact_order,
    orbit_codim,
    orbit_codim_point,
    orbit_has_finite_codim,
    orbit_in_jet_space,
    orbit_meets_point_fiber,
)
from .polynomials import MinorIndex, MultiPoly, minor_poly, substitute_series
from .tableaux import (
    DoubleTableau,
    Membership,
    StandardExpansion,
    Tableau,
    YoungDiagram,
    bideterminant,
    dominance_leq,
    enumerate_standard_basis,
    is_standard,
    straighten,
    subalgebra_membership,
    tableau_leq,
)


def clear_caches() -> None:
    """Empty the module-level caches (the integer minor table, the standard
    tableaux of each content by shape, the integer product of each standard
    term's row minors, the packed-integer minors of the content-block
    columns, content blocks, the per-chart elimination numerators, each
    chart's bit-keyed pivot table of signed cofactor minors and the orbit
    search's table of each box), so that the next computation starts
    cold."""
    for cache in (
        polynomials._MINOR_CACHE,
        tableaux._TABLEAU_CACHE,
        tableaux._PRODUCT_CACHE,
        tableaux._PACKED_MINOR_CACHE,
        tableaux._BLOCK_CACHE,
        forms._ELIMINATION_CACHE,
        forms._CHART_CACHE,
        oracle._TAIL_TABLE_CACHE,
    ):
        cache.clear()


# Submodules stay reachable as attributes (detmld.forms) but are not exported.
__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
