"""Heat propagation by an implicit theta-scheme on per-edge uniform grids.

Interior nodes use the second-order central difference of lambda(s) u_ss.
Boundary conditions enter as rows of the implicit system:

* matrices form -- value rows on trace nodes, derivative rows via
  second-order one-sided stencils, U-terms on trace nodes, all read from the
  nonzeros of the blocks and of the sparse U rows;
* spaces form marked ``kirchhoff`` by the standard, delta and
  nonlocal-matrices builders, whose every vertex block (``bc.groups``) is
  continuity plus Kirchhoff flux balance -- continuity rows plus one
  conservative half-cell balance row per vertex, which conserve discrete mass
  exactly for edgewise-constant lambda under pure Kirchhoff coupling; any
  other spaces form, hand-built Kirchhoff blocks included, is converted to
  the matrices form;
* nonlocal interval kernels -- quadrature rows tying each endpoint value to a
  weighted integral of the whole profile;
* external edges -- truncated with a homogeneous far-end row.

The implicit matrix ``a`` and explicit matrix ``b`` are assembled as
(row, col, value) triplets -- about three nonzeros per unknown -- and stored
as CSC and CSR.  ``a`` is factored once with SuperLU, so a step costs one
sparse mat-vec and one pair of triangular solves.  The singularity gate is a
1-norm condition estimate over the LU solves (Higham & Tisseur 2000).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .bc import (BoundaryMatricesBC, BoundarySpacesBC, invertible, kernel_values,
                 to_boundary_matrices, trace_rows)
from .coeffs import EdgeCoefficients
from .errors import DimensionMismatchError, DomainError, SingularSystemError
from .graph import MetricGraph
from .initial import InitialData, edge_lengths, require_finite_positive
from .timeloop import run
from .wellposed import require_well_posed


@dataclass
class HeatEdgeFields:
    s: np.ndarray
    u: np.ndarray  # from HeatState.edges(): a view into the packed state vector
    lam: np.ndarray  # lambda at the nodes: a view into HeatState.lam

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])


class SparseFactor:
    """Read-only SuperLU factor of the implicit matrix.

    SuperLU objects cannot be copied, and solving never modifies them, so a
    deep copy of a HeatState shares the factor.
    """

    __slots__ = ("_lu",)

    def __init__(self, lu):
        self._lu = lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)

    def __deepcopy__(self, memo):
        return self


@dataclass
class HeatState:
    """Heat field of all edges packed in ``edges()`` order (external, then internal).

    Edge e owns ``u[offsets[e]:offsets[e] + grids[e].size]``, and lambda at
    its nodes is the same slice of ``lam``.  ``spacing[e]`` is the grid
    spacing of edge e, ``grids[e][1] - grids[e][0]``.
    """

    graph: MetricGraph
    t: float
    dt: float
    theta: float
    grids: tuple[np.ndarray, ...]
    spacing: np.ndarray
    lam: np.ndarray
    offsets: np.ndarray
    u: np.ndarray
    factor: SparseFactor  # LU of the implicit matrix a
    explicit: scipy.sparse.csr_array  # b
    cond_estimate: float  # 1-norm condition estimate of a
    path: str  # boundary rows used: "continuity", "matrices" or "nonlocal"
    step_count: int = 0

    def edges(self) -> list[HeatEdgeFields]:
        return [HeatEdgeFields(s, self.u[off:off + s.size], self.lam[off:off + s.size])
                for s, off in zip(self.grids, self.offsets)]

    @property
    def external(self) -> list[HeatEdgeFields]:
        return self.edges()[:self.graph.l]

    @property
    def internal(self) -> list[HeatEdgeFields]:
        return self.edges()[self.graph.l:]

    def vector(self) -> np.ndarray:
        return self.u.copy()


class _Triplets:
    """(row, col, value) entries of one sparse matrix; duplicates sum."""

    def __init__(self):
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []

    def add(self, row, col, val) -> None:
        """Append one entry, or arrays of entries broadcast together."""
        row, col, val = np.broadcast_arrays(row, col, val)
        self.rows.append(row.ravel())
        self.cols.append(col.ravel())
        self.vals.append(val.ravel())

    def to_coo(self, n: int) -> scipy.sparse.coo_array:
        vals = np.concatenate(self.vals).astype(complex)
        return scipy.sparse.coo_array(
            (vals, (np.concatenate(self.rows), np.concatenate(self.cols))), shape=(n, n))


def factorize(a: scipy.sparse.csc_array) -> tuple[SparseFactor, float]:
    """SuperLU factor of `a` and its 1-norm condition estimate.

    The estimate is ||a||_1 (exact column sums) times the block estimate of
    ||a^-1||_1 over LU solves (Higham & Tisseur 2000).  One block column
    keeps it deterministic: wider blocks draw random columns from NumPy's
    global generator.  Raises SingularSystemError if SuperLU meets an exactly
    singular pivot, or if 1 / cond fails the invertibility rule at dimension N
    (``bc.invertible``): cond * N * 1e-12 >= 1, or cond is not finite.
    """
    n = a.shape[0]
    try:
        lu = splu(a)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        if "singular" not in str(exc):
            raise
        raise SingularSystemError(
            f"implicit system singular at this resolution ({exc})") from exc
    tiny = np.finfo(float).tiny

    def solve(x, trans="N"):
        # onenormest divides each entry by its modulus, which overflows on
        # subnormal entries; they carry no weight in a 1-norm, so drop them
        y = lu.solve(x, trans)
        y[np.abs(y) < tiny] = 0.0
        return y

    inverse = LinearOperator(
        a.shape, dtype=a.dtype, matvec=solve, matmat=solve,
        rmatvec=lambda x: solve(x, "H"), rmatmat=lambda x: solve(x, "H"))
    cond = float(scipy.sparse.linalg.norm(a, 1) * onenormest(inverse, t=1))
    if not invertible(1.0, cond, n):  # inverse condition number 1 / cond
        raise SingularSystemError(
            f"implicit system singular at this resolution (cond_1 ~ {cond:.3e})")
    return SparseFactor(lu), cond


def heat_init(g: MetricGraph, coeffs: EdgeCoefficients, bc, init: InitialData,
              dt: float, theta: float = 0.5, n_per_edge: int = 100,
              external_lengths=()) -> HeatState:
    """Assemble and factorize the implicit system; verify well-posedness first.

    Raises DomainError if ``dt`` is not finite and > 0, or ``n_per_edge``
    is not a finite integer >= 4.
    """
    if not 0.5 <= theta <= 1.0:
        raise ValueError("theta must lie in [1/2, 1]")
    if not (float(n_per_edge).is_integer() and n_per_edge >= 4):
        raise DomainError(f"n_per_edge {n_per_edge!r} is not a finite integer >= 4")
    lengths = edge_lengths(g, coeffs, init, external_lengths)
    require_finite_positive("dt", dt)

    require_well_posed(bc, coeffs)
    if isinstance(bc, BoundaryMatricesBC):
        mode = "matrices"
    elif bc.nonlocal_kernels is not None:
        mode = "nonlocal"
        if g.m != 1 or g.l != 0:
            raise DimensionMismatchError(
                "nonlocal interval kernels require a single internal edge"
            )
    elif bc.kirchhoff:
        mode = "continuity"
    else:
        mode = "matrices"
        bc = to_boundary_matrices(bc, g.l, g.m)

    # grids, lambda and initial values in edges() order (external, then internal)
    grids, lams, values = [], [], []
    for L, profile, edge_init in zip(lengths, coeffs.external + coeffs.internal,
                                     init.external + init.internal):
        s = np.linspace(0.0, L, max(4, round(n_per_edge * L)) + 1)
        grids.append(s)
        lams.append(np.asarray(profile(s), dtype=float))
        values.append(edge_init.displacement.value(s).astype(complex))
    sizes = np.array([s.size for s in grids])
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    spacing = np.array([s[1] - s[0] for s in grids])
    total = int(sizes.sum())
    lam = np.concatenate(lams)
    a, b = _Triplets(), _Triplets()

    # interior theta-scheme rows over the packed grid, edge after edge
    interior = np.ones(total, dtype=bool)
    interior[offsets] = interior[offsets + sizes - 1] = False
    nodes = np.flatnonzero(interior)
    h = np.repeat(spacing, sizes - 2)
    r = h * h / (lam[nodes] * dt)  # scaled so diagonals stay O(1)
    rows = np.arange(nodes.size)
    a.add(rows, nodes, r + 2.0 * theta)
    a.add(rows, nodes - 1, -theta)
    a.add(rows, nodes + 1, -theta)
    b.add(rows, nodes, r - 2.0 * (1.0 - theta))
    b.add(rows, nodes - 1, 1.0 - theta)
    b.add(rows, nodes + 1, 1.0 - theta)
    row = nodes.size

    # external far-end truncation rows
    a.add(row + np.arange(g.l), offsets[:g.l] + sizes[:g.l] - 1, 1.0)
    row += g.l

    # per trace slot (f_e(0), f_i(0), f_i(1)): grid node, step into the edge, spacing
    node = np.concatenate((offsets, offsets[g.l:] + sizes[g.l:] - 1))
    inward = np.where(np.arange(node.size) < g.l + g.m, 1, -1)
    h = np.concatenate((spacing, spacing[g.l:]))

    if mode == "nonlocal":
        row = _assemble_nonlocal_rows(a, row, grids[g.l], offsets[g.l], bc.nonlocal_kernels)
    elif mode == "continuity":
        lam_half = 0.5 * (lam[node] + lam[node + inward])
        row = _assemble_vertex_rows(a, b, row, bc, node, inward, h, lam_half, dt, theta)
    else:
        row = _assemble_matrix_rows(a, row, bc, node, inward, h)

    if row != total:
        raise AssertionError(f"assembled {row} rows for {total} unknowns")

    factor, cond = factorize(a.to_coo(total).tocsc())
    return HeatState(g, 0.0, dt, theta, tuple(grids), spacing, lam, offsets,
                     np.concatenate(values), factor, b.to_coo(total).tocsr(), cond, mode)


def _assemble_nonlocal_rows(a, row, s, off, kernels):
    """Endpoint value = trapezoid quadrature of kernel times the profile."""
    n = s.size
    w = np.full(n, s[1] - s[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    for j, kernel in enumerate(kernels):
        vals = kernel_values(kernel, s)
        node = off if j == 0 else off + n - 1
        a.add(row, np.arange(off, off + n), -w * vals)
        a.add(row, node, 1.0)
        row += 1
    return row


def _assemble_vertex_rows(a, b, row, bc: BoundarySpacesBC, node, inward, h, lam_half,
                          dt, theta):
    """Continuity rows plus one conservative half-cell flux balance row per vertex.

    The vertices are the blocks of `bc`.  Each slot of a block but the first
    gets a row equating its value with the first slot's; then each block gets
    one balance row over the half cells at its slots.
    """
    sizes = np.concatenate([np.full(g.slots.shape[0], g.slots.shape[1]) for g in bc.groups])
    order = np.concatenate([g.slots.ravel() for g in bc.groups])  # block after block
    first = np.cumsum(sizes) - sizes  # where each block starts in `order`
    rest = np.delete(order, first)
    rows = row + np.arange(rest.size)
    a.add(rows, node[rest], 1.0)
    a.add(rows, node[np.repeat(order[first], sizes - 1)], -1.0)
    row += rest.size

    block = np.repeat(np.arange(sizes.size), sizes)
    rows = row + block
    tr, adj = node[order], node[order] + inward[order]
    cap = 0.5 * h[order] / dt
    flux = lam_half[order] / h[order]
    a.add(rows, tr, cap + theta * flux)
    a.add(rows, adj, -theta * flux)
    b.add(rows, tr, cap - (1.0 - theta) * flux)
    b.add(rows, adj, (1.0 - theta) * flux)
    if bc.sparse_U is not None:
        # zeroth-order source: the flux sum at a vertex equals src @ trace values,
        # src the mu-weighted sum of the vertex's local_U rows
        src = scipy.sparse.csr_array((bc.mu_endpoints[order], (block, order)),
                                     shape=(sizes.size, bc.trace_dim)) @ bc.sparse_U
        src.sort_indices()
        src = src.tocoo()
        a.add(row + src.row, node[src.col], -theta * src.data)
        b.add(row + src.row, node[src.col], (1.0 - theta) * src.data)
    return row + sizes.size


def _assemble_matrix_rows(a, row, bc: BoundaryMatricesBC, node, inward, h):
    """Value rows and one-sided-stencil derivative rows of the matrices form.

    W multiplies outward derivatives, so each slot's second-order stencil runs
    inward from its trace node: up the edge at f(0) slots, down it at f_i(1).
    """
    v, w, u = (x.tocoo() for x in trace_rows(bc))  # row by row, slots ascending
    a.add(row + v.row, node[v.col], v.data)
    row += bc.k0

    weights = np.array([-1.5, 2.0, -0.5])
    a.add((row + w.row)[:, None], node[w.col, None] + inward[w.col, None] * np.arange(3),
          w.data[:, None] * (weights / h[w.col, None]))
    a.add(row + u.row, node[u.col], u.data)
    return row + bc.k1


def heat_step(state: HeatState, steps: int = 1) -> None:
    """`steps` theta-steps, one after the other: each a sparse mat-vec with b,
    then the LU solve with a."""
    for _ in range(steps):
        state.u = state.factor.solve(state.explicit @ state.u)
        state.step_count += 1
        state.t = state.step_count * state.dt


def _trapezoid(state: HeatState, values: np.ndarray) -> float:
    """The trapezoid rule of a packed nodal vector over all edges: each edge's
    total minus half of its two end nodes, times its spacing."""
    start, last = state.offsets, np.append(state.offsets[1:], values.size) - 1
    return float(state.spacing @ (np.add.reduceat(values, start)
                                  - 0.5 * (values[start] + values[last])))


def mass(state: HeatState) -> float:
    return _trapezoid(state, state.u.real)


def energy(state: HeatState) -> float:
    """Dirichlet energy 1/2 sum int lambda |u_s|^2 (trapezoid, central u_s).

    u_s is ``np.gradient`` of each edge: central inside, one-sided at the ends.
    """
    u, h, start = state.u, state.spacing, state.offsets
    last = np.append(start[1:], u.size) - 1
    us = np.empty_like(u)
    us[1:-1] = (u[2:] - u[:-2]) / (2.0 * np.repeat(h, last - start + 1)[1:-1])
    us[start] = (u[start + 1] - u[start]) / h
    us[last] = (u[last] - u[last - 1]) / h
    return 0.5 * _trapezoid(state, state.lam * np.abs(us) ** 2)


def _snapshot(state: HeatState):
    return state.t, [e.u.copy() for e in state.edges()]


def heat_run(state: HeatState, T: float, record_stride: int = 1):
    """Step until time T; return (state, diagnostics, snapshots of (t, u list))."""
    return run(state, T, record_stride, heat_step, _snapshot, energy, mass)
