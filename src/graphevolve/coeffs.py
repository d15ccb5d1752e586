"""Diffusion coefficient profiles and change-of-variables machinery.

For each edge the wave speed is ``mu = sqrt(lambda)``.  The travel-time
coordinate ``phi(s) = int_0^s dr / mu(r)`` straightens the edge; on internal
edges its normalization ``phibar = cbar * phi`` with ``cbar = 1 / phi(1)``
maps [0, 1] onto itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonPositiveCoefficientError

_POSITIVITY_GRID = 1024


@dataclass(frozen=True)
class CoefficientProfile:
    """One diffusion profile lambda(.), one of three shapes.

    kind 'constant': lambda(s) = value.
    kind 'quadratic_square': mu(s) = alpha * (1 + beta * s), lambda = mu**2.
    kind 'sampled': values on a uniform grid over the edge domain, linearly
    interpolated.
    """

    kind: str
    value: float = 1.0
    alpha: float = 1.0
    beta: float = 0.0
    samples: tuple[float, ...] = ()
    domain_length: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "quadratic_square", "sampled"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "sampled" and len(self.samples) < 2:
            raise NonPositiveCoefficientError("sampled profile needs >= 2 samples")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(float(self.value), s.shape).copy() if s.shape else float(self.value)
        if self.kind == "quadratic_square":
            return (self.alpha * (1.0 + self.beta * s)) ** 2
        grid = np.linspace(0.0, self.domain_length, len(self.samples))
        return np.interp(s, grid, np.asarray(self.samples, dtype=float))

    def is_constant(self) -> bool:
        if self.kind == "constant":
            return True
        if self.kind == "quadratic_square":
            return self.beta == 0.0
        return len(set(self.samples)) == 1


def constant(value: float) -> CoefficientProfile:
    return CoefficientProfile("constant", value=float(value))


def quadratic_square(alpha: float, beta: float) -> CoefficientProfile:
    return CoefficientProfile("quadratic_square", alpha=float(alpha), beta=float(beta))


def sampled(values, domain_length: float = 1.0) -> CoefficientProfile:
    return CoefficientProfile(
        "sampled", samples=tuple(float(v) for v in values), domain_length=float(domain_length)
    )


def check_positive(profile: CoefficientProfile, domain_length: float,
                   epsilon: float | None = None) -> None:
    """Verify a finite lambda > 0 (internal) or epsilon < lambda < 1/epsilon (external)."""
    if profile.kind == "constant":
        vals = np.array([profile.value])
    elif profile.kind == "quadratic_square":
        s = np.linspace(0.0, domain_length, _POSITIVITY_GRID)
        mu = profile.alpha * (1.0 + profile.beta * s)
        if np.any(mu <= 0.0):
            raise NonPositiveCoefficientError("mu changes sign on the edge")
        vals = mu**2
    else:
        vals = np.asarray(profile.samples, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonPositiveCoefficientError("lambda must be finite on the edge")
    if np.any(vals <= 0.0):
        raise NonPositiveCoefficientError("lambda must be positive on the edge")
    if epsilon is not None:
        if np.any(vals <= epsilon) or np.any(vals >= 1.0 / epsilon):
            raise NonPositiveCoefficientError(
                f"external profile must satisfy {epsilon} < lambda < {1.0 / epsilon}"
            )


@dataclass(frozen=True)
class EdgeCoefficients:
    """Per-edge profiles for a whole graph, with 0 < epsilon < 1.

    External profiles obey epsilon < lambda < 1 / epsilon.
    """

    internal: tuple[CoefficientProfile, ...]
    external: tuple[CoefficientProfile, ...]
    epsilon: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:  # NaN fails too
            raise NonPositiveCoefficientError(f"epsilon = {self.epsilon!r} outside (0, 1)")
        for p in self.internal:
            check_positive(p, 1.0)
        for p in self.external:
            check_positive(p, p.domain_length, epsilon=self.epsilon)

    def validate_against(self, m: int, l: int) -> None:
        if len(self.internal) != m or len(self.external) != l:
            raise DimensionMismatchError(
                f"coefficients for {len(self.internal)} internal / "
                f"{len(self.external)} external edges, graph has {m} / {l}"
            )

    def mu_endpoint_diagonals(self) -> np.ndarray:
        """Endpoint speeds (mu_e(0), mu_i(0), mu_i(1)) as one trace-ordered vector.

        ``__post_init__`` checked every profile positive on its whole edge.
        """
        return np.sqrt(np.array([p(0.0) for p in self.external + self.internal]
                                + [p(1.0) for p in self.internal], dtype=float))


def unit_coefficients(m: int, l: int = 0) -> EdgeCoefficients:
    """lambda = 1 on every edge."""
    return EdgeCoefficients(tuple(constant(1.0) for _ in range(m)),
                            tuple(constant(1.0) for _ in range(l)))


def mu(profile: CoefficientProfile, s) -> float:
    """Wave speed sqrt(lambda(s))."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < -1e-15):
        raise DomainError(f"s = {s} below edge domain")
    if profile.kind in ("quadratic_square", "sampled") and np.any(
        s_arr > profile.domain_length * (1.0 + 1e-12) + 1e-15
    ):
        raise DomainError(f"s = {s} beyond edge domain [0, {profile.domain_length}]")
    lam = profile(s_arr if s_arr.shape else float(s_arr))
    if np.any(np.asarray(lam) <= 0.0):
        raise NonPositiveCoefficientError("lambda must stay positive")
    return np.sqrt(lam)


def _simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
             panels: int) -> float:
    """Composite Simpson with `panels` panels (2*panels + 1 evaluations)."""
    if b == a:
        return 0.0
    x = np.linspace(a, b, 2 * panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


_BISECT_TOL = 1e-12


def _invert_monotone(fn: Callable[[float], float], target: float,
                     lo: float, hi: float) -> float:
    """Bisection for increasing fn; tolerance 1e-12 on the argument."""
    flo, fhi = fn(lo), fn(hi)
    if target <= flo:
        return lo
    if target >= fhi:
        return hi
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class EdgeTransform:
    """Travel-time coordinate of one edge on [0, length] and its normalization.

    Internal edges have length 1, so phi_end is phi(1) and phibar = cbar * phi
    maps [0, 1] onto itself; external edges are truncated at s = length.
    """

    profile: CoefficientProfile
    length: float
    quad_panels: int
    phi_end: float  # phi(length), the edge travel time

    @property
    def cbar(self) -> float:
        return 1.0 / self.phi_end

    def phi(self, s: float) -> float:
        if not -1e-12 <= s <= self.length * (1.0 + 1e-12):
            raise DomainError(f"s = {s} outside [0, {self.length}]")
        s = min(max(float(s), 0.0), self.length)  # within the slack: onto the edge
        return _simpson(lambda r: 1.0 / mu(self.profile, r), 0.0, s, self.quad_panels)

    def phibar(self, s: float) -> float:
        return self.cbar * self.phi(s)

    def phi_inverse(self, t: float) -> float:
        if not -1e-12 <= t <= self.phi_end * (1.0 + 1e-12):
            raise DomainError(f"t = {t} outside [0, phi({self.length})]")
        return _invert_monotone(self.phi, float(t), 0.0, self.length)


def _edge_transform(profile: CoefficientProfile, length: float,
                    quad_panels: int) -> EdgeTransform:
    if quad_panels < 2:
        raise ValueError("quad_panels must be >= 2")
    if length <= 0.0:
        raise ValueError("truncation length must be positive")
    check_positive(profile, length)
    phi_end = _simpson(lambda r: 1.0 / mu(profile, r), 0.0, length, quad_panels)
    return EdgeTransform(profile, length, quad_panels, phi_end)


def internal_transform(profile: CoefficientProfile, quad_panels: int = 256) -> EdgeTransform:
    """Transform for an internal edge; cbar * phi(1) = 1 by construction."""
    return _edge_transform(profile, 1.0, quad_panels)


def external_transform(profile: CoefficientProfile, length: float,
                       quad_panels: int = 256) -> EdgeTransform:
    """Transform for an external edge truncated at s = length."""
    return _edge_transform(profile, length, quad_panels)

