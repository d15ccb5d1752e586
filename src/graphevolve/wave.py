"""Wave propagation by exact-shift characteristics with vertex coupling.

Each edge carries the Riemann invariants p = u_t + mu u_s (moving toward
s = 0) and q = u_t - mu u_s (moving toward increasing s).  Grids are snapped
so one time step shifts each invariant exactly one cell -- transport is then
dispersion-free.  The displacement is reconstructed as u = F + G from two
characteristic primitives that also shift exactly in the interior; only their
inflow endpoints are integrated in time (trapezoid, q = 2 dF/dt and
p = 2 dG/dt at the respective inflow ends).

Storage: p, q, F and G are each one complex array over all edges, every edge
a ring of its grid nodes, and the rings packed by size: rings of one size sit
side by side, in ``edges()`` order among themselves.  The step counter k is the
ring head of every edge: node i of the left-moving p and G sits at ring slot
(i + k) mod size, node i of the right-moving q and F at (i - k) mod size.  A
step therefore moves no interior data; it gathers and scatters only the
l + 2m vertex slots, vectorized over all edges, and costs O(vertices) rather
than O(cells).  The vertex map is a product with the scattering blocks that
``vertex_update_matrix`` builds once per run, stacked by block size.

Speeds are finite: what a vertex sends out reaches the far end of its edge
only after a whole transit of n_e = size - 1 steps.  So ``wave_step``
advances in blocks of K <= min(n_e) steps, whose incoming values are all in
the rings when the block starts: one gather of a (K, l + 2m) block, one
product, one scatter, and the trapezoid inflow of F and G added step after
step, so a block writes the bytes K single steps write.  The product keeps
that: it is one BLAS product per step and vertex, the same call for any K
(``VertexUpdate.solve``), where one product over the K steps' columns
would round differently for each K.  The time loop asks
for a whole record interval at once.  A condition with zeroth-order terms
(a value map) reads u = F + G at the vertices, which the step before
writes, and advances one step per block.

An external edge is the half-line [0, inf) cut at L, exactly for any T: each
step writes p = 0 at the cut and holds G there, which is the inflow when the
data vanish beyond the cut.  Energy and mass are those of [0, L].

Grid-order arrays (and u = F + G) are built only when read: per edge by
``WaveEdgeFields``, and for all edges at once by a recorded snapshot.  All
rings of one size d have the same head, so the snapshot unrolls them as one
(count, d) block per size and field: two column-slice copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bc import BoundaryMatricesBC, BoundarySpacesBC, to_boundary_matrices
from .coeffs import EdgeCoefficients, constant
from .errors import (
    DomainError,
    SingularUpdateError,
    SpeedSnapExceededError,
    SupportViolationError,
    UnsupportedNonlocalConditionError,
    UnsupportedVariableCoefficientError,
)
from .graph import MetricGraph
from .initial import InitialData, edge_lengths, require_finite_positive
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
        return float(self._state.spacing[self._edge])

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
        return self.fwd + self.bwd


@dataclass
class WaveState:
    """Wave fields of all edges, packed by ring size.

    Edge e owns slots ``start[e] .. start[e] + size[e] - 1`` of ``p``, ``q``,
    ``fwd`` and ``bwd``.  The rings sit in ascending size, rings of one size
    side by side in ``edges()`` order: ``order`` lists the edges slot after
    slot, and ``start`` is not monotone in edge order.  ``spacing[e]`` is the
    grid spacing of edge e, ``grids[e][1] - grids[e][0]``.  After k steps
    node i of a left-moving field (p, G) sits at slot ``start + (i + k) % size``
    and node i of a right-moving field (q, F) at ``start + (i - k) % size``:
    the step counter is the ring head of every edge, so the interior shift of
    a step moves no data.  The displacement is u = F + G from step 0 on:
    with zero initial velocity F = G = u0 / 2, so F + G is u0 exactly, up to
    the last bit of subnormals.
    """

    graph: MetricGraph
    t: float
    dt: float
    update: VertexUpdate
    grids: tuple[np.ndarray, ...]
    spacing: np.ndarray
    mu: np.ndarray
    start: np.ndarray
    size: np.ndarray
    order: np.ndarray
    p: np.ndarray
    q: np.ndarray
    fwd: np.ndarray
    bwd: np.ndarray
    step_count: int = 0
    # wave_step's block buffers, made by its first call and reused by every
    # later one: arrays this large, made afresh, fault in new pages each call
    blocks: tuple | None = field(default=None, repr=False)

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
    """Riemann invariants p, q and primitives F, G on one grid."""
    u0 = edge_init.displacement.value(s).astype(complex)
    du0 = edge_init.displacement.derivative(s).astype(complex)
    u1 = edge_init.velocity.value(s).astype(complex)
    iu1 = edge_init.velocity.antiderivative(s).astype(complex)
    p = u1 + mu * du0
    q = u1 - mu * du0
    fwd = 0.5 * (u0 - iu1 / mu)
    bwd = 0.5 * (u0 + iu1 / mu)
    return p, q, fwd, bwd


def wave_init(g: MetricGraph, coeffs: EdgeCoefficients,
              bc: BoundaryMatricesBC | BoundarySpacesBC,
              init: InitialData, dt_target: float, T: float,
              snap_tol: float = 0.05, external_lengths=()) -> WaveState:
    """Build a wave state with snapped per-edge grids and a vertex scattering matrix.

    Refuses nonlocal kernels and boundary conditions that fail the criterion
    of their form (``require_well_posed``) at the given speeds; boundary
    spaces are then converted to boundary matrices.  Also refuses variable
    coefficients, excessive speed snapping, external initial data that do not
    vanish at the cut (``external_lengths`` need only hold them), a
    ``dt_target`` or ``T`` that is not finite and > 0, and a ``snap_tol`` that
    is not finite and >= 0 (``DomainError``).  Raises
    SingularUpdateError if the Determinant criterion fails at the snapped
    speeds; a matrices form whose speeds snap exactly is decided once.
    """
    lengths = edge_lengths(g, coeffs, init, external_lengths)
    require_finite_positive("dt_target", dt_target)
    require_finite_positive("T", T)
    if not 0.0 <= float(snap_tol) < math.inf:
        raise DomainError(f"snap_tol {float(snap_tol)!r} is not finite and >= 0")
    if isinstance(bc, BoundarySpacesBC) and bc.nonlocal_kernels is not None:
        raise UnsupportedNonlocalConditionError(
            "the wave propagator does not support nonlocal kernels"
        )
    criterion = require_well_posed(bc, coeffs)
    if isinstance(bc, BoundarySpacesBC):
        bc = to_boundary_matrices(bc, g.l, g.m)

    steps = max(1, math.ceil(T / dt_target))
    dt = T / steps

    # snapped (cells, speed) of each edge, in edges() order
    snaps = [_snap(_constant_speed(profile), L, dt, snap_tol)
             for L, profile in zip(lengths, coeffs.external + coeffs.internal)]
    mu = np.array([mu_t for _, mu_t in snaps])
    size = np.array([n + 1 for n, _ in snaps], dtype=np.int64)
    order = np.argsort(size, kind="stable")  # the rings, packed by size
    start = np.empty_like(size)
    start[order] = np.concatenate(([0], np.cumsum(size[order])[:-1]))
    packed = [np.empty(int(size.sum()), dtype=complex) for _ in range(4)]  # p, q, F, G
    grids = []
    for e, (L, edge_init, (n, mu_t)) in enumerate(zip(lengths, init.external + init.internal,
                                                      snaps)):
        s = np.linspace(0.0, L, n + 1)
        s.flags.writeable = False
        fields = _init_fields(s, mu_t, edge_init)
        if e < g.l:  # u0, p and q at the cut (module docstring)
            u0, (p, q) = edge_init.displacement.value(s), fields[:2]
            scale = 1.0 + max(np.max(np.abs(u0)), np.max(np.abs(p)))
            if max(abs(u0[-1]), abs(p[-1]), abs(q[-1])) > 1e-12 * scale:
                raise SupportViolationError(
                    f"external edge {e}: initial data must vanish at the cut s = {L:g}")
        for whole, part in zip(packed, fields):
            whole[start[e]:start[e] + size[e]] = part
        grids.append(s)

    squares = [constant(x**2) for x in mu.tolist()]
    snapped = EdgeCoefficients(tuple(squares[g.l:]), tuple(squares[:g.l]))
    if criterion is not None and not np.array_equal(snapped.mu_endpoint_diagonals(),
                                                    coeffs.mu_endpoint_diagonals()):
        criterion = None  # decided again, at the speeds the run simulates
    try:
        update = vertex_update_matrix(bc, snapped, criterion)
    except SingularUpdateError as exc:
        given = [_constant_speed(p) for p in coeffs.external + coeffs.internal]
        moved = ", ".join(f"edge {e}: {c:.6g} -> {mu[e]:.6g}"
                          for e, c in enumerate(given) if c != mu[e])
        raise SingularUpdateError(f"{exc} at the snapped wave speeds ({moved})") from exc
    spacing = np.array([s[1] - s[0] for s in grids])
    return WaveState(g, 0.0, dt, update, tuple(grids), spacing, mu, start, size, order,
                     *packed)


# A block gathers the incoming values of its K steps as one (K, l + 2m) array.
# Capping K (l + 2m) at this many entries keeps that complex buffer, and each
# of the others a block fills, near 256 KiB, so the buffers a state keeps add
# little to the peak memory of a run.
_BLOCK_ENTRIES = 16_384


def wave_step(state: WaveState, steps: int = 1) -> None:
    """Advance `steps` time steps in place, in blocks of up to K steps.

    Advancing the step counter shifts the interior of every edge; only the
    l + 2m vertex slots of p, q, F and G are read and written, for all edges
    at once, with the same floating-point operations as single per-edge
    steps.  The K <= min(size) - 1 steps of a block receive only values
    already in the rings (see the module docstring); with a value map a
    block is one step.
    """
    dt, l, m, n = state.dt, state.graph.l, state.graph.m, state.graph.trace_dim
    p, q, fwd, bwd = state.p, state.q, state.fwd, state.bwd
    start, size = state.start, state.size
    end = start + size
    values = None
    if state.update.value_map is not None:
        block = 1
    else:
        block = max(1, min(int(size.min()) - 1, _BLOCK_ENTRIES // n))
    # Row t of `left` holds the ring slot of node t - 1 of p and G, row t of
    # `right` that of node t of q and F, at the step count of the block's
    # first step.  `sent` holds q at node 0 and p at the last node, `inflow`
    # F at node 0 and G at the last node: row 0 before the block, row j + 1
    # after its step j.  Nothing returns from beyond the truncation cut of an
    # external edge, so p stays 0 there.  Row k of a block of k steps is row 0
    # of the next block.
    if state.blocks is None or state.blocks[1].shape != (block, n):
        state.blocks = (np.empty((2, block + 2, l + m), dtype=np.int64),
                        np.empty((block, n), dtype=complex),
                        np.zeros((2, 2, block + 1, l + m), dtype=complex))
    (left, right), incoming, (sent_rows, inflow_rows) = state.blocks
    ramp = np.arange(block + 2)[:, None]
    k0 = state.step_count
    head_left = start + (k0 - 1) % size  # node i of p sits at (i + k0) % size
    head_right = start + (-k0) % size  # node i of q at (i - k0) % size
    sent_rows[:, 0] = q[head_right], p[head_left]
    inflow_rows[:, 0] = fwd[head_right], bwd[head_left]

    while steps > 0:
        k = min(block, steps)
        lft, rgt = left[:k + 2], right[:k + 2]
        np.add(head_left, ramp[:k + 2], out=lft)
        np.subtract(lft, size, out=lft, where=lft >= end)
        np.subtract(head_right, ramp[:k + 2], out=rgt)
        np.add(rgt, size, out=rgt, where=rgt < start)

        # step j receives p(1) and q(end - 1) of its step count, the values the
        # shift moves to p(0) and q(end): nodes j + 1 and end - j - 1 at the
        # block's first step count
        block_in = incoming[:k]
        block_in[:, :l] = p[lft[2:, :l]]
        block_in[:, l:l + m] = q[rgt[2:, l:]]
        block_in[:, l + m:] = p[lft[2:, l:]]
        if state.update.value_map is not None:
            # u = F + G at node 0 and at the last node, before the block's one step
            u_start, u_end = fwd[rgt[0:2]] + bwd[lft[1::-1]]
            values = np.concatenate((u_start, u_end[l:]))
        outgoing = state.update.solve(block_in, values)

        sent, inflow = sent_rows[:, :k + 1], inflow_rows[:, :k + 1]
        sent[0, 1:, :l] = outgoing[:, :l]
        sent[0, 1:, l:] = outgoing[:, l + m:]
        sent[1, 1:, l:] = outgoing[:, l:l + m]
        q[rgt[1:k + 1]] = sent[0, 1:]
        p[lft[1:k + 1]] = sent[1, 1:]

        # primitives: exact shifts plus trapezoid inflow at the endpoints; the
        # accumulate adds the inflow of one step after the other, as single
        # steps do
        step_in = inflow[:, 1:]
        np.add(sent[:, :-1], sent[:, 1:], out=step_in)
        np.multiply(dt, step_in, out=step_in)
        np.divide(step_in, 4.0, out=step_in)
        np.add.accumulate(inflow, axis=1, out=inflow)
        fwd[rgt[1:k + 1]] = inflow[0, 1:]
        bwd[lft[1:k + 1]] = inflow[1, 1:]

        head_left, head_right = lft[k].copy(), rgt[k].copy()
        sent[:, 0], inflow[:, 0] = sent[:, k], inflow[:, k]
        state.step_count += k
        state.t = state.step_count * dt
        steps -= k


def _trapezoid(state: WaveState, fields) -> np.ndarray:
    """Per-edge trapezoid sums, at unit spacing, of a sum of ring fields.

    ``fields`` holds (values, shift) pairs: node i of `values` sits at ring
    slot (i + shift) % size.  A ring holds every node of its edge once, so
    the trapezoid sum is the ring total minus half of the two end nodes.
    The sums are taken ring after ring in slot order and returned in edge order.
    """
    start, size = state.start[state.order], state.size[state.order]
    total = ends = 0.0
    for values, shift in fields:
        total = total + np.add.reduceat(values, start)
        ends = ends + (values[start + shift % size] + values[start + (shift - 1) % size])
    sums = np.empty_like(total)
    sums[state.order] = total - 0.5 * ends
    return sums


def energy(state: WaveState) -> float:
    """E = 1/2 sum_j int (|u_t|^2 + lambda |u_s|^2) = 1/4 sum int (|p|^2 + |q|^2)."""
    k = state.step_count
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged state's energy is inf or nan
        sums = _trapezoid(state, ((np.abs(state.p) ** 2, k), (np.abs(state.q) ** 2, -k)))
    return float(0.25 * (state.spacing @ sums))


def mass(state: WaveState) -> float:
    k = state.step_count  # u = F + G
    fields = ((state.fwd.real, -k), (state.bwd.real, k))
    return float(state.spacing @ _trapezoid(state, fields))


def _snapshot(state: WaveState):
    """(t, per-edge u, per-edge u_t) in grid order, built for all edges at once.

    The same arithmetic as ``WaveEdgeFields``: u = F + G and u_t = (p + q) / 2.
    Each edge's arrays are views into one array per field, laid out as the
    rings.  The rings of one size d are one (count, d) block whose rows share
    the head k mod d, so a block unrolls as two column slices: no per-edge
    Python, and, unlike an index gather, no per-node index arrays, so a
    record's peak memory is about its output.
    """
    k = state.step_count
    start, end = state.start.tolist(), (state.start + state.size).tolist()
    sizes, counts = np.unique(state.size, return_counts=True)
    bounds = np.cumsum(sizes * counts).tolist()
    blocks = list(zip([0] + bounds[:-1], bounds, sizes.tolist()))

    def grid_order(packed, shift):
        """Every ring in grid order, node i read from slot (i + shift) % size."""
        out = np.empty_like(packed)
        for a, b, d in blocks:
            rings, rows, r = packed[a:b].reshape(-1, d), out[a:b].reshape(-1, d), shift % d
            rows[:, :d - r] = rings[:, r:]
            rows[:, d - r:] = rings[:, :r]
        return out

    u = grid_order(state.fwd, -k)
    u += grid_order(state.bwd, k)
    ut = grid_order(state.p, k)
    ut += grid_order(state.q, -k)
    ut /= 2.0
    return (state.t, [u[a:b] for a, b in zip(start, end)],
            [ut[a:b] for a, b in zip(start, end)])


def wave_run(state: WaveState, T: float, record_stride: int = 1):
    """Step until time T; return (state, diagnostics, snapshots).

    Snapshots are (t, per-edge u, per-edge u_t) tuples recorded every
    record_stride steps, including the initial and final states; each record's
    per-edge arrays are views into one array per field, which the state does
    not share.  Each record interval is one ``wave_step`` call.
    """
    return run(state, T, record_stride, wave_step, _snapshot, energy, mass)
