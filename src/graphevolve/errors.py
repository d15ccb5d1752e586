"""Exception hierarchy shared across the package."""


class GraphEvolveError(Exception):
    """Base class for all package-specific errors."""


class EmptyGraphError(GraphEvolveError):
    """Graph has neither internal nor external edges."""


class IndexOutOfRangeError(GraphEvolveError):
    """An edge references a vertex index outside [0, n)."""


class DomainError(GraphEvolveError):
    """A coordinate lies outside the domain of an edge or transform."""


class NonPositiveCoefficientError(GraphEvolveError):
    """A diffusion profile violates its positivity / epsilon bounds."""


class DimensionMismatchError(GraphEvolveError):
    """Matrix or vector dimensions are inconsistent with the graph."""


class ZeroDegreeVertexError(GraphEvolveError):
    """A vertex coupling coefficient is attached to an isolated vertex."""


class ExternalEdgesPresentError(GraphEvolveError):
    """Construction requires a compact graph (no external edges)."""


class RankDeficientBasisError(GraphEvolveError):
    """A basis matrix does not have full column rank."""


class NotComplementaryError(GraphEvolveError):
    """Two boundary subspaces fail to form a direct sum of the trace space."""


class NotWellPosedError(GraphEvolveError):
    """Simulation refused: the boundary conditions fail their check.

    ``report`` is the failing ``WellPosednessReport``.
    """

    def __init__(self, message: str, report):
        self.report = report
        super().__init__(message)


class SingularUpdateError(GraphEvolveError):
    """The vertex update matrix is singular (determinant condition fails)."""


class BadT0Error(GraphEvolveError):
    """The convolution horizon t0 lies outside (0, 1]."""


class SpeedSnapExceededError(GraphEvolveError):
    """Grid-aligned wave speed deviates too far from the requested one."""


class UnsupportedVariableCoefficientError(GraphEvolveError):
    """The wave propagator only handles edgewise-constant coefficients."""


class UnsupportedNonlocalConditionError(GraphEvolveError):
    """The wave propagator only handles local vertex conditions."""


class SupportViolationError(GraphEvolveError):
    """External-edge initial data do not vanish at the wave's cut, which is exact."""


class NonFiniteStateError(GraphEvolveError, ValueError):
    """A simulated state holds infs or NaNs: its data were not finite, or it diverged."""


class SingularSystemError(GraphEvolveError):
    """The assembled implicit system is singular at this resolution."""


class ConfigError(GraphEvolveError):
    """Configuration file failed to parse or validate."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ParseError(ConfigError):
    """Configuration text is not syntactically valid."""

    def __init__(self, line, message: str):
        self.line = line
        super().__init__(f"line {line}", message)


class ValidationError(ConfigError):
    """Configuration parsed but violates the schema."""
