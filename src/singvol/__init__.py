"""Exact volumes of normal isolated singularities.

Two algorithmic families are covered: normal surface singularities given by
resolution dual graphs, and affine toric singularities given by strongly
convex rational cones.  All computations are exact over the rationals.
"""

from .errors import (
    DomainError,
    InputError,
    InternalError,
    SingvolError,
    UnsupportedDimensionError,
)
from .exactmath import (
    LPOutcome,
    LPProblem,
    format_rational,
    lp_max,
    parse_rational,
    solve_linear,
)
from .surface import (
    ResolutionGraph,
    SingularityClass,
    SingularityKind,
    ZariskiDecomposition,
    canonical_intersections,
    classify,
    cone_graph,
    cusp_cycle_graph,
    discrepancies,
    du_val_graph,
    local_volume,
    log_discrepancy_divisor,
    numerical_pullback,
    volume,
    zariski_decompose,
)
from .toric import (
    MonomialIdeal,
    ToricCone,
    ToricDivisor,
    defect_ideal,
    envelope_certificate,
    envelope_value,
    hilbert_basis,
    ideal_power,
    ideal_product,
    ideal_sum,
    is_numerically_cartier,
    izumi_constant,
    log_discrepancy_value,
    maximal_ideal,
    mixed_multiplicity,
    module_generators,
    ord_value,
    samuel_multiplicity,
    z_value,
)
from .endo import (
    ToricEndo,
    check_push_pull,
    pullback_divisor,
    pullback_ideal,
    surface_cover_report,
    toric_volume_report,
)
from .oracle import CountReport, colength, lp_vertex_enumerate, multiplicity_estimate

__version__ = "0.1.0"
