"""Wave propagation by exact-shift characteristics with vertex coupling.

Each edge carries the Riemann invariants p = u_t + mu u_s (moving toward
s = 0) and q = u_t - mu u_s (moving toward increasing s).  Grids are snapped
so one time step shifts each invariant exactly one cell -- transport is then
dispersion-free.  The displacement is reconstructed as u = F + G from two
characteristic primitives that also shift exactly in the interior; only their
inflow endpoints are integrated in time (trapezoid, q = 2 dF/dt and
p = 2 dG/dt at the respective inflow ends).

Storage: p, q, F and G are each one complex array over all edges, external
edges first, every edge a ring of its grid nodes.  The step counter k is the
ring head of every edge: node i of the left-moving p and G sits at ring slot
(i + k) mod size, node i of the right-moving q and F at (i - k) mod size.  A
step therefore moves no interior data; it gathers and scatters only the
l + 2m vertex slots, vectorized over all edges, and costs O(vertices) rather
than O(cells).  Grid-order arrays (and u = F + G) are built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bc import BoundaryMatricesBC, BoundarySpacesBC, to_boundary_matrices
from .coeffs import EdgeCoefficients, constant
from .errors import (
    DimensionMismatchError,
    SpeedSnapExceededError,
    SupportViolationError,
    UnsupportedNonlocalConditionError,
    UnsupportedVariableCoefficientError,
)
from .graph import MetricGraph
from .initial import InitialData
from .timeloop import run
from .wellposed import VertexUpdate, require_well_posed, vertex_update_matrix


class WaveEdgeFields:
    """Read-only view of one edge of a WaveState in grid order (node i at s[i]).

    ``p``, ``q``, ``fwd``, ``bwd`` and ``u`` build a fresh array on each access;
    writing to it does not change the state.
    """

    __slots__ = ("_state", "_edge")

    def __init__(self, state: WaveState, edge: int):
        self._state = state
        self._edge = edge

    @property
    def s(self) -> np.ndarray:
        return self._state.grids[self._edge]

    @property
    def mu(self) -> float:
        """Snapped speed."""
        return float(self._state.mu[self._edge])

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])

    def _unroll(self, packed: np.ndarray, shift: int) -> np.ndarray:
        """Grid-order copy of a ring whose node i sits at slot (i + shift) % size."""
        start = int(self._state.start[self._edge])
        size = int(self._state.size[self._edge])
        ring = packed[start:start + size]
        r = shift % size
        return np.concatenate((ring[r:], ring[:r]))

    @property
    def p(self) -> np.ndarray:
        return self._unroll(self._state.p, self._state.step_count)

    @property
    def q(self) -> np.ndarray:
        return self._unroll(self._state.q, -self._state.step_count)

    @property
    def fwd(self) -> np.ndarray:
        """Right-moving primitive F (u = F + G)."""
        return self._unroll(self._state.fwd, -self._state.step_count)

    @property
    def bwd(self) -> np.ndarray:
        """Left-moving primitive G."""
        return self._unroll(self._state.bwd, self._state.step_count)

    @property
    def u(self) -> np.ndarray:
        if self._state.step_count == 0:
            return self._unroll(self._state.u0, 0)
        return self.fwd + self.bwd


@dataclass
class WaveState:
    """Wave fields of all edges packed in ``edges()`` order (external, then internal).

    Edge e owns slots ``start[e] .. start[e] + size[e] - 1`` of ``p``, ``q``,
    ``fwd`` and ``bwd``.  After k steps node i of a left-moving field (p, G)
    sits at slot ``start + (i + k) % size`` and node i of a right-moving field
    (q, F) at ``start + (i - k) % size``: the step counter is the ring head of
    every edge, so the interior shift of a step moves no data.  ``u0`` holds
    the initial displacement in grid order; later u = F + G.
    """

    graph: MetricGraph
    t: float
    dt: float
    update: VertexUpdate
    grids: tuple[np.ndarray, ...]
    mu: np.ndarray
    start: np.ndarray
    size: np.ndarray
    p: np.ndarray
    q: np.ndarray
    fwd: np.ndarray
    bwd: np.ndarray
    u0: np.ndarray
    step_count: int = 0

    def edges(self) -> list[WaveEdgeFields]:
        return [WaveEdgeFields(self, e) for e in range(len(self.grids))]

    @property
    def external(self) -> list[WaveEdgeFields]:
        return self.edges()[:self.graph.l]

    @property
    def internal(self) -> list[WaveEdgeFields]:
        return self.edges()[self.graph.l:]


def _constant_speed(profile) -> float:
    if not profile.is_constant():
        raise UnsupportedVariableCoefficientError(
            "the wave propagator requires edgewise-constant coefficients"
        )
    return float(np.sqrt(profile(0.0)))


def _snap(mu: float, length: float, dt: float, snap_tol: float) -> tuple[int, float]:
    """Cells-per-edge and effective speed with exact grid alignment."""
    n = max(1, round(length / (mu * dt)))
    mu_tilde = length / (n * dt)
    if abs(mu_tilde - mu) / mu > snap_tol:
        raise SpeedSnapExceededError(
            f"snapped speed {mu_tilde:.6g} deviates from {mu:.6g} beyond tol {snap_tol}"
        )
    return n, mu_tilde


def _init_fields(s: np.ndarray, mu: float, edge_init) -> tuple[np.ndarray, ...]:
    """Riemann invariants p, q, primitives F, G and displacement u0 on one grid."""
    u0 = edge_init.displacement.value(s).astype(complex)
    du0 = edge_init.displacement.derivative(s).astype(complex)
    u1 = edge_init.velocity.value(s).astype(complex)
    iu1 = edge_init.velocity.antiderivative(s).astype(complex)
    p = u1 + mu * du0
    q = u1 - mu * du0
    fwd = 0.5 * (u0 - iu1 / mu)
    bwd = 0.5 * (u0 + iu1 / mu)
    return p, q, fwd, bwd, u0


def wave_init(g: MetricGraph, coeffs: EdgeCoefficients,
              bc: BoundaryMatricesBC | BoundarySpacesBC,
              init: InitialData, dt_target: float, T: float,
              snap_tol: float = 0.05, external_lengths=()) -> WaveState:
    """Build a wave state with snapped per-edge grids and a vertex solve.

    Refuses nonlocal kernels and boundary conditions that fail the criterion
    of their form (``require_well_posed``); boundary spaces are then
    converted to boundary matrices.  Also refuses variable coefficients,
    excessive speed snapping, and external initial data that would reach the
    truncation cut before time T.
    """
    coeffs.validate_against(g.m, g.l)
    if len(init.internal) != g.m or len(init.external) != g.l:
        raise DimensionMismatchError("initial data does not match the edge counts")
    if len(external_lengths) != g.l:
        raise DimensionMismatchError("external_lengths must list one length per external edge")
    if isinstance(bc, BoundarySpacesBC) and bc.nonlocal_kernels is not None:
        raise UnsupportedNonlocalConditionError(
            "the wave propagator does not support nonlocal kernels"
        )
    require_well_posed(bc, coeffs)
    if isinstance(bc, BoundarySpacesBC):
        bc = to_boundary_matrices(bc, g.l, g.m)

    steps = max(1, math.ceil(T / dt_target))
    dt = T / steps

    # (length, initial data, cells, snapped speed) of each edge, in edges() order
    internal = []
    for j in range(g.m):
        n, mu_t = _snap(_constant_speed(coeffs.internal[j]), 1.0, dt, snap_tol)
        internal.append((1.0, init.internal[j], n, mu_t))
    external = []
    for k in range(g.l):
        L = float(external_lengths[k])
        n, mu_t = _snap(_constant_speed(coeffs.external[k]), L, dt, snap_tol)
        external.append((L, init.external[k], n, mu_t))
    edges = external + internal

    size = np.array([n + 1 for _, _, n, _ in edges], dtype=np.int64)
    start = np.concatenate(([0], np.cumsum(size)[:-1])).astype(np.int64)
    packed = [np.empty(int(size.sum()), dtype=complex) for _ in range(5)]  # p, q, F, G, u0
    grids = []
    for e, (L, edge_init, n, mu_t) in enumerate(edges):
        s = np.linspace(0.0, L, n + 1)
        s.flags.writeable = False
        fields = _init_fields(s, mu_t, edge_init)
        if e < g.l:
            p, q, _, _, u0 = fields
            reach = L - mu_t * T
            far = s > reach
            scale = 1.0 + max(np.max(np.abs(u0)), np.max(np.abs(p)))
            if np.any(np.abs(u0[far]) > 1e-12 * scale) or \
                    np.any(np.abs(p[far]) > 1e-12 * scale) or \
                    np.any(np.abs(q[far]) > 1e-12 * scale):
                raise SupportViolationError(
                    f"external edge {e}: initial data must vanish on ({reach:.6g}, {L}]"
                )
        for whole, part in zip(packed, fields):
            whole[start[e]:start[e] + size[e]] = part
        grids.append(s)

    snapped = EdgeCoefficients(tuple(constant(mu_t**2) for _, _, _, mu_t in internal),
                               tuple(constant(mu_t**2) for _, _, _, mu_t in external))
    update = vertex_update_matrix(bc, snapped)
    mu = np.array([mu_t for _, _, _, mu_t in edges])
    return WaveState(g, 0.0, dt, update, tuple(grids), mu, start, size, *packed)


# After k steps the node a step touches sits at ring slot
# (sign * k + offset) % size of its edge.  Rows: p, G at node 0, at the last
# node and at node 0 after the step (sign +1); q, F at node 0, at the last
# node and at the last node after the step (sign -1).
_RING_SIGN = np.array([[1], [1], [1], [-1], [-1], [-1]])
_RING_OFFSET = np.array([[0], [-1], [1], [0], [-1], [-2]])


def wave_step(state: WaveState) -> None:
    """Advance one time step in place.

    Advancing the step counter shifts the interior of every edge; only the
    l + 2m vertex slots of p, q, F and G are read and written, for all edges
    at once, with the same floating-point operations as a per-edge shift.
    """
    dt, k, l, m = state.dt, state.step_count, state.graph.l, state.graph.m
    p, q, fwd, bwd = state.p, state.q, state.fwd, state.bwd
    slots = state.start + (k * _RING_SIGN + _RING_OFFSET) % state.size
    # after the step p, G end where node 0 is now, and q, F start where the last node is
    left0, left_end, left0_next, right0, right_end, right_end_next = slots

    if k == 0:  # rings start in grid order
        u_start, u_end = state.u0[left0], state.u0[left_end]
    else:  # F + G at (right0, left0) and at (right_end, left_end)
        u_start, u_end = fwd[slots[3:5]] + bwd[slots[0:2]]
    old_q0 = q[right0]
    old_p_end = p[left_end]

    # the shift has already moved the old p(1) to p(0) and the old q(end - 1) to q(end)
    new_p0 = p[left0_next]
    incoming = np.concatenate((new_p0[:l], q[right_end_next[l:]], new_p0[l:]))
    outgoing = state.update.solve(incoming, np.concatenate((u_start, u_end[l:])))

    # nothing returns from beyond the truncation cut of an external edge
    p_end = np.concatenate((np.zeros(l, dtype=complex), outgoing[l:l + m]))
    q0 = np.concatenate((outgoing[:l], outgoing[l + m:]))
    p[left0] = p_end
    q[right_end] = q0

    # primitives: exact shifts plus trapezoid inflow at the endpoints
    fwd[right_end] = fwd[right0] + dt * (old_q0 + q0) / 4.0
    bwd[left0] = bwd[left_end] + dt * (old_p_end + p_end) / 4.0

    state.step_count += 1
    state.t = state.step_count * dt


def energy(state: WaveState) -> float:
    """E = 1/2 sum_j int (|u_t|^2 + lambda |u_s|^2) = 1/4 sum int (|p|^2 + |q|^2)."""
    total = 0.0
    for e in state.edges():
        total += 0.25 * np.trapezoid(np.abs(e.p) ** 2 + np.abs(e.q) ** 2, dx=e.h)
    return float(total)


def mass(state: WaveState) -> float:
    total = 0.0
    for e in state.edges():
        total += np.trapezoid(e.u.real, dx=e.h)
    return float(total)


def _snapshot(state: WaveState):
    edges = state.edges()
    return state.t, [e.u for e in edges], [(e.p + e.q) / 2.0 for e in edges]


def wave_run(state: WaveState, T: float, record_stride: int = 1):
    """Step until time T; return (state, diagnostics, snapshots).

    Snapshots are (t, per-edge u copies, per-edge u_t copies) tuples recorded
    every record_stride steps, including the initial and final states.
    """
    return run(state, T, record_stride, wave_step, _snapshot, energy, mass)
