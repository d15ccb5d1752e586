"""Wave and heat equations on finite metric graphs.

Boundary-condition calculi, well-posedness certification, and numerical
propagation (exact-shift characteristics for the wave equation, implicit
theta-scheme for the heat equation).
"""

from .bc import (
    BoundaryMatricesBC,
    BoundarySpacesBC,
    DeltaCoupling,
    TraceVector,
    flux_residual,
    from_delta,
    from_generalized_node,
    from_matrix_mixed,
    from_nonlocal_interval,
    from_nonlocal_matrices,
    from_standard,
    make_trace,
    matrices_bc,
    to_boundary_matrices,
    value_residual,
)
from .coeffs import (
    CoefficientProfile,
    EdgeCoefficients,
    EdgeTransform,
    constant,
    external_transform,
    internal_transform,
    mu,
    quadratic_square,
    resample_pullback,
    resample_pushforward,
    sampled,
    unit_coefficients,
)
from .errors import (
    BadT0Error,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EmptyGraphError,
    ExternalEdgesPresentError,
    GraphEvolveError,
    IndexOutOfRangeError,
    NonPositiveCoefficientError,
    NotComplementaryError,
    NotWellPosedError,
    ParseError,
    RankDeficientBasisError,
    SingularSystemError,
    SingularUpdateError,
    SpeedSnapExceededError,
    SupportViolationError,
    UnsupportedNonlocalConditionError,
    UnsupportedVariableCoefficientError,
    ValidationError,
    ZeroDegreeVertexError,
)
from .graph import (
    DegreeSet,
    IncidenceSet,
    MetricGraph,
    continuity_space,
    degree_matrices,
    incidence_matrices,
    trace_stack,
    validate_graph,
)
from .heat import HeatState, heat_init, heat_run, heat_step
from .initial import (
    EdgeInitial,
    FieldProfile,
    InitialData,
    custom_samples,
    gaussian,
    sine_mode,
    zero_initial,
    zero_profile,
)
from .wave import WaveState, wave_init, wave_run, wave_step
from .wellposed import (
    VertexUpdate,
    WellPosednessReport,
    auto_shrink_t0,
    check_boundary_matrices,
    check_boundary_spaces,
    check_nonlocal_interval,
    discretize_nonlocal_R,
    require_well_posed,
    vertex_update_matrix,
)

__version__ = "0.1.0"
