"""Closed-form initial-data descriptors with analytic derivatives.

Each edge carries a displacement profile and (for the wave equation) a
velocity profile.  Profiles expose value, spatial derivative, and the
antiderivative from 0 -- the last one feeds the characteristic decomposition
of the wave propagator without numerical differentiation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DomainError

# elementwise error function; within 1e-15 relative of scipy.special.erf
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class FieldProfile:
    """One scalar field on an edge domain [0, length]."""

    kind: str  # zero | sine_mode | gaussian | custom_samples
    length: float = 1.0
    mode: int = 1
    amplitude: float = 1.0
    center: float = 0.5
    width: float = 0.1
    samples: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("zero", "sine_mode", "gaussian", "custom_samples"):
            raise ValueError(f"unknown initial profile kind {self.kind!r}")
        if self.kind == "custom_samples" and len(self.samples) < 5:
            raise ValueError("custom_samples needs >= 5 samples")

    def _grid(self) -> np.ndarray:
        return np.linspace(0.0, self.length, len(self.samples))

    def value(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s)
        if self.kind == "sine_mode":
            return self.amplitude * np.sin(self.mode * np.pi * s / self.length)
        if self.kind == "gaussian":
            z = (s - self.center) / self.width
            return self.amplitude * np.exp(-0.5 * z * z)
        return np.interp(s, self._grid(), np.asarray(self.samples, dtype=float))

    def derivative(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s)
        if self.kind == "sine_mode":
            k = self.mode * np.pi / self.length
            return self.amplitude * k * np.cos(k * s)
        if self.kind == "gaussian":
            z = (s - self.center) / self.width
            return -self.amplitude * z / self.width * np.exp(-0.5 * z * z)
        return np.interp(s, self._grid(), _fourth_order_derivative(
            np.asarray(self.samples, dtype=float), self._grid()[1] - self._grid()[0]))

    def antiderivative(self, s) -> np.ndarray:
        """Integral of the profile from 0 to s."""
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s)
        if self.kind == "sine_mode":
            k = self.mode * np.pi / self.length
            return self.amplitude / k * (1.0 - np.cos(k * s))
        if self.kind == "gaussian":
            c = self.amplitude * self.width * np.sqrt(np.pi / 2.0)
            z = (s - self.center) / (np.sqrt(2.0) * self.width)
            z0 = -self.center / (np.sqrt(2.0) * self.width)
            return c * (_erf(z) - _erf(z0))
        grid = self._grid()
        y = np.asarray(self.samples, dtype=float)
        # cumulative trapezoid rule from 0
        anti = np.concatenate(([0.0], np.cumsum(np.diff(grid) * (y[1:] + y[:-1]) / 2.0)))
        return np.interp(s, grid, anti)


def _fourth_order_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order central differences with one-sided stencils near the ends."""
    n = values.size
    d = np.empty(n)
    d[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * h)
    d[0] = (-25 * values[0] + 48 * values[1] - 36 * values[2]
            + 16 * values[3] - 3 * values[4]) / (12 * h)
    d[1] = (-3 * values[0] - 10 * values[1] + 18 * values[2]
            - 6 * values[3] + values[4]) / (12 * h)
    d[-2] = (3 * values[-1] + 10 * values[-2] - 18 * values[-3]
             + 6 * values[-4] - values[-5]) / (12 * h)
    d[-1] = (25 * values[-1] - 48 * values[-2] + 36 * values[-3]
             - 16 * values[-4] + 3 * values[-5]) / (12 * h)
    return d


def zero_profile(length: float = 1.0) -> FieldProfile:
    return FieldProfile("zero", length=length)


def sine_mode(mode: int, amplitude: float = 1.0, length: float = 1.0) -> FieldProfile:
    return FieldProfile("sine_mode", length=length, mode=int(mode), amplitude=float(amplitude))


def gaussian(center: float, width: float, amplitude: float = 1.0,
             length: float = 1.0) -> FieldProfile:
    return FieldProfile("gaussian", length=length, center=float(center),
                        width=float(width), amplitude=float(amplitude))


def custom_samples(values, length: float = 1.0) -> FieldProfile:
    return FieldProfile("custom_samples", length=float(length),
                        samples=tuple(float(v) for v in values))


@dataclass(frozen=True)
class EdgeInitial:
    """Displacement (and optional velocity) data on one edge."""

    displacement: FieldProfile
    velocity: FieldProfile = field(default_factory=zero_profile)


@dataclass(frozen=True)
class InitialData:
    """Per-edge initial data, internal edges first convention as elsewhere."""

    internal: tuple[EdgeInitial, ...] = ()
    external: tuple[EdgeInitial, ...] = ()


def edge_lengths(g, coeffs, init: InitialData, external_lengths) -> list[float]:
    """Length of every edge in ``edges()`` order: the external lengths, then 1.0.

    Checks first that the coefficients, the initial data and the external
    lengths match the graph's edge counts, and that every external length is
    finite and > 0.
    """
    coeffs.validate_against(g.m, g.l)
    if len(init.internal) != g.m or len(init.external) != g.l:
        raise DimensionMismatchError("initial data does not match the edge counts")
    if len(external_lengths) != g.l:
        raise DimensionMismatchError("external_lengths must list one length per external edge")
    lengths = [float(L) for L in external_lengths]
    for k, L in enumerate(lengths):
        require_finite_positive(f"external edge {k}: length", L)
    return lengths + [1.0] * g.m


def require_finite_positive(what: str, value: float) -> None:
    """Raise DomainError unless ``value`` (a length, time step or end time) is
    finite and > 0; ``what`` names it in the message."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} {value!r} is not finite and > 0")
