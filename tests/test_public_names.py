import types

import graphevolve as ge

# The names ``graphevolve`` exports, by the module that defines them.  A name
# added to or removed from the package shows up as a change to this list.
PUBLIC = {
    # bc
    "BoundaryMatricesBC", "BoundarySpacesBC", "DeltaCoupling", "TraceVector",
    "flux_residual", "from_delta", "from_generalized_node", "from_matrix_mixed",
    "from_nonlocal_interval", "from_nonlocal_matrices", "from_standard", "make_trace",
    "matrices_bc", "to_boundary_matrices", "value_residual",
    # coeffs
    "CoefficientProfile", "EdgeCoefficients", "EdgeTransform", "constant",
    "external_transform", "internal_transform", "mu", "quadratic_square", "sampled",
    "unit_coefficients",
    # errors
    "BadT0Error", "ConfigError", "DimensionMismatchError", "DomainError",
    "EmptyGraphError", "ExternalEdgesPresentError", "GraphEvolveError",
    "IndexOutOfRangeError", "NonFiniteStateError", "NonPositiveCoefficientError",
    "NotComplementaryError", "NotWellPosedError", "ParseError", "RankDeficientBasisError",
    "SingularSystemError", "SingularUpdateError", "SpeedSnapExceededError",
    "SupportViolationError", "UnsupportedNonlocalConditionError",
    "UnsupportedVariableCoefficientError", "ValidationError", "ZeroDegreeVertexError",
    # graph
    "MetricGraph", "continuity_space", "endpoint_vertices", "validate_graph",
    "vertex_slots",
    # heat
    "HeatState", "heat_init", "heat_run", "heat_step",
    # initial
    "EdgeInitial", "FieldProfile", "InitialData", "custom_samples", "gaussian",
    "sine_mode", "zero_profile",
    # wave
    "WaveState", "wave_init", "wave_run", "wave_step",
    # wellposed
    "VertexUpdate", "WellPosednessReport", "auto_shrink_t0", "check_boundary_matrices",
    "check_boundary_spaces", "check_nonlocal_interval", "discretize_nonlocal_R",
    "require_well_posed", "vertex_update_matrix",
}


def test_public_names_are_the_listed_ones():
    """Every public attribute of the package but its submodules is listed, and no more."""
    exported = {name for name, value in vars(ge).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
