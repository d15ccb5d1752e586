"""Heat propagation by an implicit theta-scheme on per-edge uniform grids.

Interior nodes use the second-order central difference of lambda(s) u_ss.
Boundary conditions enter as rows of the implicit system:

* matrices form -- value rows on trace nodes, derivative rows via
  second-order one-sided stencils, U-terms on trace nodes;
* spaces form built from continuity (standard / delta / nonlocal-matrices
  couplings) -- continuity rows plus conservative half-cell vertex balance
  rows, which conserve discrete mass exactly for edgewise-constant lambda
  under pure Kirchhoff coupling;
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

from .bc import BoundaryMatricesBC, BoundarySpacesBC, _mu_scaling, to_boundary_matrices
from .coeffs import EdgeCoefficients
from .errors import DimensionMismatchError, SingularSystemError
from .graph import MetricGraph, continuity_space, trace_stack
from .initial import InitialData
from .timeloop import run
from .wellposed import require_well_posed


@dataclass
class HeatEdgeFields:
    s: np.ndarray
    u: np.ndarray  # from HeatState.edges(): a view into the packed state vector
    lam: np.ndarray  # lambda at the nodes

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

    Edge e owns ``u[offsets[e]:offsets[e] + grids[e].size]``.
    """

    graph: MetricGraph
    t: float
    dt: float
    theta: float
    grids: tuple[np.ndarray, ...]
    lam: tuple[np.ndarray, ...]  # lambda at the nodes of each grid
    offsets: list[int]
    u: np.ndarray
    factor: SparseFactor  # LU of the implicit matrix a
    explicit: scipy.sparse.csr_array  # b
    cond_estimate: float  # 1-norm condition estimate of a
    path: str  # boundary rows used: "continuity", "matrices" or "nonlocal"
    step_count: int = 0

    def edges(self) -> list[HeatEdgeFields]:
        return [HeatEdgeFields(s, self.u[off:off + s.size], lam)
                for s, lam, off in zip(self.grids, self.lam, self.offsets)]

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
    singular pivot, or if the estimate is not finite or cond * N * 1e-12 >= 1.
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
    if not np.isfinite(cond) or cond * n * 1e-12 >= 1.0:
        raise SingularSystemError(
            f"implicit system singular at this resolution (cond_1 ~ {cond:.3e})")
    return SparseFactor(lu), cond


def _endpoint_speeds(bc: BoundarySpacesBC) -> np.ndarray:
    """Diagonal of C^-1 = diag(mu_e(0), mu_i(0), mu_i(1)); unit speeds if unset."""
    if bc.mu_endpoints is None:
        return np.ones(bc.trace_dim)
    return _mu_scaling(bc.mu_endpoints)


def _is_continuity_form(bc: BoundarySpacesBC, g: MetricGraph) -> bool:
    """Y1 is the continuity space and span(Y0) = span(C * Y1-perp).

    C is the endpoint scaling of `from_standard`.  Y0 has full column rank, so
    the spans agree iff the dimensions add up and Y1^H C^-1 Y0 = 0.
    """
    ref = continuity_space(g)
    if bc.y1_basis.shape != ref.shape or not np.array_equal(bc.y1_basis, ref):
        return False
    dim = bc.trace_dim
    if bc.d0 + bc.d1 != dim:
        return False
    y0 = _endpoint_speeds(bc)[:, None] * bc.y0_basis  # C^-1 Y0
    coupling = np.linalg.norm(ref.conj().T @ y0)
    return bool(coupling <= 100 * dim * np.finfo(float).eps * np.linalg.norm(y0))


def heat_init(g: MetricGraph, coeffs: EdgeCoefficients, bc, init: InitialData,
              dt: float, theta: float = 0.5, n_per_edge: int = 100,
              external_lengths=()) -> HeatState:
    """Assemble and factorize the implicit system; verify well-posedness first."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError("theta must lie in [1/2, 1]")
    if n_per_edge < 4:
        raise ValueError("need at least 4 cells per edge")
    coeffs.validate_against(g.m, g.l)
    if len(init.internal) != g.m or len(init.external) != g.l:
        raise DimensionMismatchError("initial data does not match the edge counts")
    if len(external_lengths) != g.l:
        raise DimensionMismatchError("external_lengths must list one length per external edge")

    require_well_posed(bc, coeffs)
    nonlocal_kernels = None
    if isinstance(bc, BoundaryMatricesBC):
        mode = "matrices"
    elif bc.nonlocal_kernels is not None:
        h0, h1 = bc.nonlocal_kernels
        nonlocal_kernels = (np.asarray(h0, dtype=complex).ravel(),
                            np.asarray(h1, dtype=complex).ravel())
        mode = "nonlocal"
        if g.m != 1 or g.l != 0:
            raise DimensionMismatchError(
                "nonlocal interval kernels require a single internal edge"
            )
    else:
        mode = "continuity" if _is_continuity_form(bc, g) else "matrices"
        if mode == "matrices":
            bc = to_boundary_matrices(bc, g.l, g.m)

    # grids, per-edge coefficients, initial values
    external, internal, offsets = [], [], []
    total = 0
    for k in range(g.l):
        L = float(external_lengths[k])
        n = max(4, round(n_per_edge * L))
        s = np.linspace(0.0, L, n + 1)
        lam = np.asarray(coeffs.external[k](s), dtype=float)
        u = init.external[k].displacement.value(s).astype(complex)
        external.append(HeatEdgeFields(s, u, lam))
        offsets.append(total)
        total += n + 1
    for j in range(g.m):
        s = np.linspace(0.0, 1.0, n_per_edge + 1)
        lam = np.asarray(coeffs.internal[j](s), dtype=float)
        u = init.internal[j].displacement.value(s).astype(complex)
        internal.append(HeatEdgeFields(s, u, lam))
        offsets.append(total)
        total += n_per_edge + 1

    edges = external + internal
    a, b = _Triplets(), _Triplets()
    row = 0

    # interior theta-scheme rows, one block of n - 1 rows per edge
    for off, e in zip(offsets, edges):
        n = e.u.size - 1
        r = e.h * e.h / (e.lam[1:n] * dt)  # scaled so diagonals stay O(1)
        rows = row + np.arange(n - 1)
        nodes = off + np.arange(1, n)
        a.add(rows, nodes, r + 2.0 * theta)
        a.add(rows, nodes - 1, -theta)
        a.add(rows, nodes + 1, -theta)
        b.add(rows, nodes, r - 2.0 * (1.0 - theta))
        b.add(rows, nodes - 1, 1.0 - theta)
        b.add(rows, nodes + 1, 1.0 - theta)
        row += n - 1

    # external far-end truncation rows
    for k in range(g.l):
        a.add(row, offsets[k] + external[k].u.size - 1, 1.0)
        row += 1

    # trace node bookkeeping in (f_e(0), f_i(0), f_i(1)) order
    trace_nodes = ([offsets[k] for k in range(g.l)]
                   + [offsets[g.l + j] for j in range(g.m)]
                   + [offsets[g.l + j] + internal[j].u.size - 1 for j in range(g.m)])

    if mode == "nonlocal":
        row = _assemble_nonlocal_rows(a, row, internal[0], offsets[g.l], nonlocal_kernels)
    elif mode == "continuity":
        row = _assemble_vertex_rows(a, b, row, g, bc, edges, offsets,
                                    trace_nodes, dt, theta)
    else:
        row = _assemble_matrix_rows(a, row, bc, edges, offsets, trace_nodes, g.l, g.m)

    if row != total:
        raise AssertionError(f"assembled {row} rows for {total} unknowns")

    factor, cond = factorize(a.to_coo(total).tocsc())
    return HeatState(g, 0.0, dt, theta, tuple(e.s for e in edges), tuple(e.lam for e in edges),
                     offsets, np.concatenate([e.u for e in edges]),
                     factor, b.to_coo(total).tocsr(), cond, mode)


def _assemble_nonlocal_rows(a, row, edge, off, kernels):
    """Endpoint value = trapezoid quadrature of kernel times the profile."""
    s = edge.s
    n = s.size
    grid = np.linspace(0.0, 1.0, kernels[0].size)
    w = np.full(n, edge.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    for j, kernel in enumerate(kernels):
        vals = np.interp(s, grid, kernel.real) + 1j * np.interp(s, grid, kernel.imag)
        node = off if j == 0 else off + n - 1
        a.add(row, np.arange(off, off + n), -w * vals)
        a.add(row, node, 1.0)
        row += 1
    return row


def _assemble_vertex_rows(a, b, row, g, bc, edges, offsets,
                          trace_nodes, dt, theta):
    """Continuity rows plus conservative half-cell flux balance per vertex."""
    # endpoint -> (vertex, trace slot, global trace node, neighbor node, h, lam_half)
    endpoint_info = []
    for k in range(g.l):
        e = edges[k]
        lam_half = 0.5 * (e.lam[0] + e.lam[1])
        endpoint_info.append((g.external_edges[k], k, offsets[k], offsets[k] + 1,
                              e.h, lam_half))
    for j in range(g.m):
        e = edges[g.l + j]
        off = offsets[g.l + j]
        n = e.u.size - 1
        tail, head = g.internal_edges[j]
        endpoint_info.append((tail, g.l + j, off, off + 1,
                              e.h, 0.5 * (e.lam[0] + e.lam[1])))
        endpoint_info.append((head, g.l + g.m + j, off + n, off + n - 1,
                              e.h, 0.5 * (e.lam[n] + e.lam[n - 1])))

    by_vertex: dict[int, list] = {}
    for info in endpoint_info:
        by_vertex.setdefault(info[0], []).append(info)

    # continuity rows: all endpoint values at a vertex agree
    for v in sorted(by_vertex):
        nodes = [info[2] for info in by_vertex[v]]
        for node in nodes[1:]:
            a.add(row, node, 1.0)
            a.add(row, nodes[0], -1.0)
            row += 1

    # zeroth-order source per vertex: flux sums equal src_rows @ trace values
    dim = g.trace_dim
    if bc.local_U is not None:
        src = trace_stack(g).T @ (_endpoint_speeds(bc)[:, None] * bc.local_U)  # n x dim
    else:
        src = np.zeros((g.n, dim), dtype=complex)

    for v in sorted(by_vertex):
        for (_, slot, tr, adj, h, lam_half) in by_vertex[v]:
            cap = 0.5 * h / dt
            flux = lam_half / h
            a.add(row, tr, cap + theta * flux)
            a.add(row, adj, -theta * flux)
            b.add(row, tr, cap - (1.0 - theta) * flux)
            b.add(row, adj, (1.0 - theta) * flux)
        for slot in range(dim):
            if src[v, slot] != 0.0:
                a.add(row, trace_nodes[slot], -theta * src[v, slot])
                b.add(row, trace_nodes[slot], (1.0 - theta) * src[v, slot])
        row += 1
    return row


def _assemble_matrix_rows(a, row, bc: BoundaryMatricesBC, edges, offsets,
                          trace_nodes, l, m):
    """Value rows and one-sided-stencil derivative rows of the matrices form."""
    v_rows = np.hstack([bc.v0e, bc.v0i, bc.v1i])
    for r in range(bc.k0):
        for slot in range(l + 2 * m):
            if v_rows[r, slot] != 0.0:
                a.add(row, trace_nodes[slot], v_rows[r, slot])
        row += 1

    def stencil_start(off, h):
        return ((off, -1.5 / h), (off + 1, 2.0 / h), (off + 2, -0.5 / h))

    def stencil_end(off, n, h):
        return ((off + n, 1.5 / h), (off + n - 1, -2.0 / h), (off + n - 2, 0.5 / h))

    u_rows = np.hstack([bc.u0e, bc.u0i, bc.u1i])
    for r in range(bc.k1):
        for k in range(l):
            coeff = bc.w0e[r, k]
            if coeff != 0.0:
                for node, wgt in stencil_start(offsets[k], edges[k].h):
                    a.add(row, node, coeff * wgt)
        for j in range(m):
            e = edges[l + j]
            off = offsets[l + j]
            n = e.u.size - 1
            c0 = bc.w0i[r, j]
            if c0 != 0.0:
                for node, wgt in stencil_start(off, e.h):
                    a.add(row, node, c0 * wgt)
            c1 = bc.w1i[r, j]
            if c1 != 0.0:
                for node, wgt in stencil_end(off, n, e.h):
                    a.add(row, node, -c1 * wgt)
        for slot in range(l + 2 * m):
            if u_rows[r, slot] != 0.0:
                a.add(row, trace_nodes[slot], u_rows[r, slot])
        row += 1
    return row


def heat_step(state: HeatState) -> None:
    """One theta-step: a sparse mat-vec with b, then the LU solve with a."""
    state.u = state.factor.solve(state.explicit @ state.u)
    state.step_count += 1
    state.t = state.step_count * state.dt


def mass(state: HeatState) -> float:
    total = 0.0
    for e in state.edges():
        total += np.trapezoid(e.u.real, dx=e.h)
    return float(total)


def energy(state: HeatState) -> float:
    """Dirichlet energy 1/2 sum int lambda |u_s|^2 (trapezoid, central u_s)."""
    total = 0.0
    for e in state.edges():
        us = np.gradient(e.u, e.h)
        total += 0.5 * np.trapezoid(e.lam * np.abs(us) ** 2, dx=e.h)
    return float(total)


def _snapshot(state: HeatState):
    return state.t, [e.u.copy() for e in state.edges()]


def heat_run(state: HeatState, T: float, record_stride: int = 1):
    """Step until time T; return (state, diagnostics, snapshots of (t, u list))."""
    return run(state, T, record_stride, heat_step, _snapshot, energy, mass)
