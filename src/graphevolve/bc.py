"""Boundary-condition representations, builders, and residual evaluation.

Two interchangeable representations are supported:

* matrices form -- three row matrices over the trace: ``k0`` value rows V,
  and ``k1`` derivative rows W with their zeroth-order rows U,
  ``k0 + k1 = l + 2m``;
* spaces form -- the value trace must lie in a subspace ``Y1`` and the signed
  mu-weighted flux trace (plus optional zeroth-order terms) in a complementary
  subspace ``Y0``.

Everything indexed by trace slot is stored once, in trace order
``(f_e(0), f_i(0), f_i(1))``: the columns of V, W, U, Y1, Y0 and local_U, and
the endpoint speeds.  The flux trace carries ``mu``-weighted *outward*
derivatives, so its ``f_i(1)`` part has a minus sign.  Only ``matrices_bc``
takes the rows as nine per-kind blocks, external/tail/head for each of V, W, U.

Local vertex conditions couple only the edge ends at one vertex.  The
builders that know this (``from_standard``, ``from_delta``,
``from_nonlocal_matrices``) record it as a ``VertexPartition``: the trace
slots of each vertex and the Y1/Y0 columns supported on them, which
``to_boundary_matrices`` carries over to value/flux rows.  Rank tests,
annihilators and the well-posedness checks then work on one deg(v)-sized
block per vertex.  A condition without a partition is one block over all
slots.  Only zeroth-order terms (``local_U``, the U rows) may couple
different vertices.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .coeffs import EdgeCoefficients
from .errors import (
    DimensionMismatchError,
    ExternalEdgesPresentError,
    NotComplementaryError,
    RankDeficientBasisError,
    UnsupportedNonlocalConditionError,
    ZeroDegreeVertexError,
)
from .graph import MetricGraph, continuity_space, endpoint_vertices, vertex_slots


@dataclass(frozen=True)
class TraceVector:
    """Endpoint traces of one edge-function family.

    value_trace: (f_e(0), f_i(0), f_i(1)), length l + 2m.
    flux_trace:  (mu_e(0) f_e'(0), mu_i(0) f_i'(0), -mu_i(1) f_i'(1)).
    """

    value_trace: np.ndarray
    flux_trace: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.value_trace, dtype=complex).ravel()
        f = np.asarray(self.flux_trace, dtype=complex).ravel()
        if v.shape != f.shape:
            raise DimensionMismatchError("value and flux traces differ in length")
        object.__setattr__(self, "value_trace", v)
        object.__setattr__(self, "flux_trace", f)


def make_trace(values_e0, values_i0, values_i1,
               derivs_e0, derivs_i0, derivs_i1,
               mu_endpoints=None) -> TraceVector:
    """Assemble a TraceVector from endpoint values and raw derivatives.

    mu_endpoints is the trace-ordered speed vector (unit speeds if None).
    """
    ve, vi0, vi1, de, di0, di1 = (np.atleast_1d(np.asarray(x, dtype=complex))
                                  for x in (values_e0, values_i0, values_i1,
                                            derivs_e0, derivs_i0, derivs_i1))
    value = np.concatenate([ve, vi0, vi1])
    outward = np.concatenate([de, di0, -di1])
    speeds = np.ones(value.size) if mu_endpoints is None else np.asarray(mu_endpoints)
    return TraceVector(value, speeds * outward)


@dataclass(frozen=True)
class VertexPartition:
    """Per-vertex blocks of a local vertex condition.

    Block b owns the trace slots ``slots[b]`` and the indices ``value[b]`` and
    ``flux[b]``: in the spaces form the columns of Y1 and of Y0, in the
    matrices form the value rows and the flux rows.  A condition checks, when
    it is built, that every slot, column and row belongs to exactly one
    block, that each block is square (``len(slots[b]) == len(value[b]) +
    len(flux[b])``), and that each basis column and each V/W row is zero off
    the slots of its block.
    """

    slots: tuple[np.ndarray, ...]
    value: tuple[np.ndarray, ...]
    flux: tuple[np.ndarray, ...]

    def __post_init__(self):
        for name in ("slots", "value", "flux"):
            object.__setattr__(self, name, tuple(np.asarray(x, dtype=np.intp).ravel()
                                                 for x in getattr(self, name)))
        if not len(self.slots) == len(self.value) == len(self.flux):
            raise DimensionMismatchError("slots, value and flux list different block counts")

    @classmethod
    def single(cls, dim: int, n_value: int, n_flux: int) -> VertexPartition:
        """One block over all slots, value indices and flux indices."""
        return cls((np.arange(dim),), (np.arange(n_value),), (np.arange(n_flux),))

    def owners(self, dim: int, n_value: int, n_flux: int) -> tuple[np.ndarray, ...]:
        """Block of every slot, value index and flux index.

        Raises DimensionMismatchError unless each belongs to exactly one block
        and every block is square.
        """
        out = []
        for sets, n, name in ((self.slots, dim, "trace slot"),
                              (self.value, n_value, "value index"),
                              (self.flux, n_flux, "flux index")):
            flat = np.concatenate(sets) if sets else np.zeros(0, dtype=np.intp)
            if not np.array_equal(np.sort(flat), np.arange(n)):
                raise DimensionMismatchError(f"the partition does not own each {name} once")
            owner = np.empty(n, dtype=np.intp)
            owner[flat] = np.repeat(np.arange(len(sets)), [x.size for x in sets])
            out.append(owner)
        for b, (s, v, f) in enumerate(zip(self.slots, self.value, self.flux)):
            if s.size != v.size + f.size:
                raise DimensionMismatchError(f"vertex block {b} has {s.size} slots but "
                                             f"{v.size + f.size} value/flux indices")
        return tuple(out)


def _check_support(a: np.ndarray, row_owner: np.ndarray, col_owner: np.ndarray,
                   name: str) -> None:
    """Raise unless every nonzero a[i, j] has row_owner[i] == col_owner[j]."""
    r, c = np.nonzero(a)
    if np.any(row_owner[r] != col_owner[c]):
        raise DimensionMismatchError(f"{name} has entries outside its vertex block")


@dataclass(frozen=True)
class BoundaryMatricesBC:
    """k0 value conditions and k1 derivative conditions in matrix form.

    Each row matrix has one column per trace slot, l + 2m in trace order;
    m is the number of internal edges.

    Value rows:  v_rows @ (f_e(0), f_i(0), f_i(1)) = 0.
    Flux rows:   w_rows @ (f_e'(0), f_i'(0), -f_i'(1))
                 + u_rows @ (f_e(0), f_i(0), f_i(1)) = 0.
    """

    v_rows: np.ndarray
    w_rows: np.ndarray
    u_rows: np.ndarray
    m: int
    partition: VertexPartition | None = None

    def __post_init__(self):
        for name in ("v_rows", "w_rows", "u_rows"):
            object.__setattr__(self, name,
                               np.atleast_2d(np.asarray(getattr(self, name), dtype=complex)))
        dim = self.trace_dim
        if not 0 <= 2 * self.m <= dim:
            raise DimensionMismatchError(f"m = {self.m} does not fit trace dim {dim}")
        if self.w_rows.shape[1] != dim or self.u_rows.shape != self.w_rows.shape:
            raise DimensionMismatchError(f"w_rows {self.w_rows.shape} and u_rows "
                                         f"{self.u_rows.shape} must both be k1 x {dim}")
        if self.partition is not None:
            slot_of, value_of, flux_of = self.partition.owners(dim, self.k0, self.k1)
            _check_support(self.v_rows, value_of, slot_of, "v_rows")
            _check_support(self.w_rows, flux_of, slot_of, "w_rows")

    @property
    def k0(self) -> int:
        return self.v_rows.shape[0]

    @property
    def k1(self) -> int:
        return self.w_rows.shape[0]

    @property
    def l(self) -> int:
        return self.trace_dim - 2 * self.m

    @property
    def trace_dim(self) -> int:
        return self.v_rows.shape[1]


def matrices_bc(*, l: int, m: int, k0: int, k1: int,
                v0e=None, v0i=None, v1i=None,
                w0e=None, w0i=None, w1i=None,
                u0e=None, u0i=None, u1i=None) -> BoundaryMatricesBC:
    """Build the row matrices from per-kind blocks; unspecified blocks are zero.

    The ``*0e`` blocks fill trace columns [0, l), ``*0i`` [l, l + m) and
    ``*1i`` [l + m, l + 2m).
    """
    if k0 + k1 != l + 2 * m:
        raise DimensionMismatchError(f"k0 + k1 = {k0 + k1} must equal l + 2m = {l + 2 * m}")

    def rows(blocks, k):
        return np.hstack([np.zeros((k, c), dtype=complex) if x is None
                          else np.asarray(x, dtype=complex).reshape(k, c)
                          for x, c in zip(blocks, (l, m, m))])

    return BoundaryMatricesBC(rows((v0e, v0i, v1i), k0), rows((w0e, w0i, w1i), k1),
                              rows((u0e, u0i, u1i), k1), m)


@dataclass(frozen=True)
class BoundarySpacesBC:
    """Subspace form: value trace in Y1, flux trace + U-terms in Y0.

    local_U, when present, is a dense (l+2m) x (l+2m) matrix acting on the
    value trace; the flux membership condition reads
    ``flux_trace + local_U @ value_trace in Y0``.
    nonlocal_kernels optionally carries per-edge sampled integral kernels
    contributing distributed terms, consumed by the heat assembler; such a
    condition has no trace-row form, so the DirectSum check, the conversion
    and the residuals refuse it (UnsupportedNonlocalConditionError).
    mu_endpoints is the trace-ordered vector of endpoint wave speeds
    (mu_e(0), mu_i(0), mu_i(1)), one per trace slot, used to translate
    between flux and raw-derivative conventions.
    partition lists the vertex blocks and says only that the condition is
    local: Y1 and Y0 are zero off each block's slots.  The continuity
    builders (``from_standard``, ``from_delta``, ``from_nonlocal_matrices``)
    set it, with Y1 the continuity space and Y0 = C * Y1-perp block by block;
    heat takes its finite-volume path for exactly such blocks, checked
    block by block, and converts any other condition to the matrices form.
    """

    y1_basis: np.ndarray
    y0_basis: np.ndarray
    local_U: np.ndarray | None = None
    nonlocal_kernels: tuple | None = None
    mu_endpoints: np.ndarray | None = None
    partition: VertexPartition | None = None

    def __post_init__(self):
        y1 = np.atleast_2d(np.asarray(self.y1_basis, dtype=complex))
        y0 = np.atleast_2d(np.asarray(self.y0_basis, dtype=complex))
        if y1.shape[0] != y0.shape[0]:
            raise DimensionMismatchError("Y0 and Y1 bases live in different trace spaces")
        object.__setattr__(self, "y1_basis", y1)
        object.__setattr__(self, "y0_basis", y0)
        if self.partition is not None:
            slot_of, value_of, flux_of = self.partition.owners(y1.shape[0], y1.shape[1],
                                                               y0.shape[1])
            _check_support(y1, slot_of, value_of, "y1_basis")
            _check_support(y0, slot_of, flux_of, "y0_basis")
        for _, y1_block, y0_block in space_blocks(self):
            for basis, name in ((y1_block, "y1_basis"), (y0_block, "y0_basis")):
                if basis.shape[1] and _rank(basis) < basis.shape[1]:
                    raise RankDeficientBasisError(f"{name} does not have full column rank")
        if self.local_U is not None:
            u = np.asarray(self.local_U, dtype=complex)
            n = y1.shape[0]
            if u.shape != (n, n):
                raise DimensionMismatchError(
                    f"local_U has shape {u.shape}, expected {(n, n)}"
                )
            object.__setattr__(self, "local_U", u)
        if self.mu_endpoints is not None:
            mu = np.asarray(self.mu_endpoints, dtype=float)
            if mu.shape != (y1.shape[0],):
                raise DimensionMismatchError(
                    f"mu_endpoints has shape {mu.shape}, expected {(y1.shape[0],)}")
            object.__setattr__(self, "mu_endpoints", mu)

    @property
    def trace_dim(self) -> int:
        return self.y1_basis.shape[0]

    @property
    def d1(self) -> int:
        return self.y1_basis.shape[1]

    @property
    def d0(self) -> int:
        return self.y0_basis.shape[1]


def vertex_blocks(bc: BoundaryMatricesBC | BoundarySpacesBC) -> VertexPartition:
    """The partition of `bc`, or one block over everything if it has none."""
    if bc.partition is not None:
        return bc.partition
    if isinstance(bc, BoundarySpacesBC):
        return VertexPartition.single(bc.trace_dim, bc.d1, bc.d0)
    return VertexPartition.single(bc.trace_dim, bc.k0, bc.k1)


def space_blocks(bc: BoundarySpacesBC):
    """Yield (slots, Y1 block, Y0 block) for each vertex block of `bc`."""
    part = vertex_blocks(bc)
    for slots, value, flux in zip(part.slots, part.value, part.flux):
        yield slots, bc.y1_basis[np.ix_(slots, value)], bc.y0_basis[np.ix_(slots, flux)]


@dataclass(frozen=True)
class DeltaCoupling:
    """Per-vertex coupling coefficients for delta-type conditions."""

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=complex).ravel())


def _rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    tol = max(a.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    return int(np.sum(s > tol))


def _hermitian_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the Hermitian orthogonal complement in C^dim."""
    if basis.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    return scipy.linalg.null_space(basis.conj().T)


def _annihilator_rows(basis: np.ndarray, dim: int) -> np.ndarray:
    """Rows R with R @ basis = 0 and ker(R) = span(basis) (bilinear pairing)."""
    if basis.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    return scipy.linalg.null_space(basis.T).T


def from_standard(g: MetricGraph, coeffs: EdgeCoefficients) -> BoundarySpacesBC:
    """Continuity across vertices plus Kirchhoff flux balance.

    Y1 is the continuity space; Y0 = C * Y1-perp with
    C = diag(mu_e(0)^-1, mu_i(0)^-1, mu_i(1)^-1), so the flux membership is
    exactly the vanishing of lambda-weighted outward derivative sums.  Both
    are built per vertex: a vertex of degree d owns one Y1 column and the
    d - 1 Y0 columns of an orthonormal basis of (1, ..., 1)-perp in C^d.
    """
    coeffs.validate_against(g.m, g.l)
    speeds = coeffs.mu_endpoint_diagonals()
    slots = vertex_slots(g)
    y0 = np.zeros((g.trace_dim, g.trace_dim - len(slots)), dtype=complex)
    perps: dict[int, np.ndarray] = {}  # one orthonormal (1, ..., 1)-perp per degree
    flux, col = [], 0
    for s in slots:
        d = s.size
        if d not in perps:
            perps[d] = _hermitian_complement(np.ones((d, 1)), d)
        y0[s, col:col + d - 1] = perps[d] / speeds[s][:, None]
        flux.append(np.arange(col, col + d - 1))
        col += d - 1
    partition = VertexPartition(slots, tuple(np.array([b]) for b in range(len(slots))),
                                tuple(flux))
    return BoundarySpacesBC(continuity_space(g), y0, mu_endpoints=speeds, partition=partition)


def from_delta(g: MetricGraph, coeffs: EdgeCoefficients,
               delta: DeltaCoupling) -> BoundarySpacesBC:
    """Delta-type coupling: Kirchhoff flux sums equal alpha_v times the value.

    The vertex coefficient alpha_v is spread over the deg(v) endpoint traces,
    giving per-endpoint diagonal weights alpha_v / deg(v); the resulting
    zeroth-order term is folded into local_U.
    """
    coeffs.validate_against(g.m, g.l)
    if delta.alpha.size != g.n:
        raise DimensionMismatchError(
            f"alpha has length {delta.alpha.size}, graph has {g.n} vertices"
        )
    ends = endpoint_vertices(g)
    deg = np.bincount(ends, minlength=g.n)
    for v in range(g.n):
        if deg[v] == 0 and delta.alpha[v] != 0:
            raise ZeroDegreeVertexError(f"alpha[{v}] != 0 but vertex {v} is isolated")
    weights = np.zeros(g.n, dtype=complex)
    nz = deg > 0
    weights[nz] = delta.alpha[nz] / deg[nz]
    dtilde = weights[ends]
    base = from_standard(g, coeffs)
    local_u = np.diag(-dtilde / base.mu_endpoints)
    return dataclasses.replace(base, local_U=local_u)


def from_nonlocal_matrices(g: MetricGraph, coeffs: EdgeCoefficients,
                           m_e: np.ndarray, m_i_minus: np.ndarray,
                           m_i_plus: np.ndarray) -> BoundarySpacesBC:
    """Vertex flux sums driven by arbitrary linear combinations of all traces.

    The vertex condition couples each flux balance to M-weighted endpoint
    values of possibly distant edges; delta-type coupling is the diagonal
    special case.
    """
    coeffs.validate_against(g.m, g.l)
    m_e = np.asarray(m_e, dtype=complex).reshape(g.l, g.l)
    m_im = np.asarray(m_i_minus, dtype=complex).reshape(g.m, g.m)
    m_ip = np.asarray(m_i_plus, dtype=complex).reshape(g.m, g.m)
    base = from_standard(g, coeffs)
    block = scipy.linalg.block_diag(m_e, m_im, m_ip) if g.trace_dim else np.zeros((0, 0))
    local_u = -block.astype(complex) / base.mu_endpoints[:, None]
    return dataclasses.replace(base, local_U=local_u)


def from_matrix_mixed(g: MetricGraph, k_matrix: np.ndarray) -> BoundarySpacesBC:
    """Compact-graph conditions (f'(0), f'(1)) = K (f(0), f(1)).

    Y0 = {0}, Y1 = C^{2m}; the derivative constraint is carried entirely by
    local_U in the signed-flux convention with unit speeds.
    """
    if g.l != 0:
        raise ExternalEdgesPresentError("matrix-mixed conditions require a compact graph")
    m = g.m
    k_matrix = np.asarray(k_matrix, dtype=complex).reshape(2 * m, 2 * m)
    sign = np.diag(np.concatenate([np.ones(m), -np.ones(m)])).astype(complex)
    local_u = -sign @ k_matrix
    return BoundarySpacesBC(np.eye(2 * m, dtype=complex),
                            np.zeros((2 * m, 0), dtype=complex),
                            local_U=local_u, mu_endpoints=np.ones(2 * m))


def from_generalized_node(g: MetricGraph, y_basis: np.ndarray, w: np.ndarray,
                          coeffs: EdgeCoefficients) -> BoundarySpacesBC:
    """Compact-graph node space Y with feedback matrix W.

    Y1 = Y, Y0 = C * Y-perp (Hermitian complement), and the zeroth-order term
    C * Y * W applied to the Y-coordinates of the value trace is stored as a
    dense local_U using the pseudoinverse coordinate map.
    """
    if g.l != 0:
        raise ExternalEdgesPresentError("generalized node conditions require a compact graph")
    coeffs.validate_against(g.m, 0)
    y_basis = np.atleast_2d(np.asarray(y_basis, dtype=complex))
    if y_basis.shape[0] != 2 * g.m:
        raise DimensionMismatchError(
            f"Y basis has {y_basis.shape[0]} rows, trace space has {2 * g.m}"
        )
    d = y_basis.shape[1]
    if _rank(y_basis) < d:
        raise RankDeficientBasisError("Y basis does not have full column rank")
    w = np.asarray(w, dtype=complex).reshape(d, d)
    speeds = coeffs.mu_endpoint_diagonals()
    perp = _hermitian_complement(y_basis, 2 * g.m)
    y0 = perp / speeds[:, None]
    local_u = (y_basis @ w @ np.linalg.pinv(y_basis)) / speeds[:, None]
    return BoundarySpacesBC(y_basis, y0, local_U=local_u, mu_endpoints=speeds)


def from_nonlocal_interval(h0_samples, h1_samples) -> BoundarySpacesBC:
    """Single-interval conditions tying each endpoint value to a kernel integral.

    The kernels (sampled uniformly on [0,1]) are consumed by the heat
    assembler as quadrature rows.  The trace bases Y1 = C^2, Y0 = {0} are
    placeholders, not a condition: the DirectSum check, the conversion to
    matrices and both residuals refuse the result with
    UnsupportedNonlocalConditionError.
    """
    h0 = np.asarray(h0_samples, dtype=complex).ravel()
    h1 = np.asarray(h1_samples, dtype=complex).ravel()
    if h0.size < 2 or h1.size < 2:
        raise DimensionMismatchError("kernels need at least two samples")
    return BoundarySpacesBC(np.eye(2, dtype=complex), np.zeros((2, 0), dtype=complex),
                            nonlocal_kernels=(h0, h1), mu_endpoints=np.ones(2))


def _annihilators(bc: BoundarySpacesBC):
    """Value rows R1, flux rows R0 and U-rows R0 @ local_U, built block by block.

    ker R1 = span Y1 and ker R0 = span Y0 under the bilinear pairing.  Each
    block contributes rows supported on its slots, and the returned
    partition lists them; only the U-rows may reach other blocks.  Nonlocal
    kernels have no row form: UnsupportedNonlocalConditionError.
    """
    if bc.nonlocal_kernels is not None:
        raise UnsupportedNonlocalConditionError(
            "nonlocal interval kernels have no trace-row form")
    dim = bc.trace_dim
    local = [(slots, _annihilator_rows(y1, slots.size), _annihilator_rows(y0, slots.size))
             for slots, y1, y0 in space_blocks(bc)]
    r_val = np.zeros((sum(r1.shape[0] for _, r1, _ in local), dim), dtype=complex)
    r_flux = np.zeros((sum(r0.shape[0] for _, _, r0 in local), dim), dtype=complex)
    u_rows = np.zeros(r_flux.shape, dtype=complex)
    value_rows, flux_rows = [], []
    i = j = 0
    for slots, r1, r0 in local:
        value_rows.append(np.arange(i, i + r1.shape[0]))
        flux_rows.append(np.arange(j, j + r0.shape[0]))
        i, j = i + r1.shape[0], j + r0.shape[0]
        r_val[value_rows[-1][:, None], slots] = r1
        r_flux[flux_rows[-1][:, None], slots] = r0
        if bc.local_U is not None:
            u_rows[flux_rows[-1]] = r0 @ bc.local_U[slots]
    partition = VertexPartition(tuple(s for s, _, _ in local), value_rows, flux_rows)
    return r_val, r_flux, u_rows, partition


def to_boundary_matrices(bc: BoundarySpacesBC, l: int, m: int) -> BoundaryMatricesBC:
    """Row form of the two membership conditions.

    k0 rows annihilate Y1 (value conditions); k1 rows annihilate Y0 applied to
    the flux trace plus U-terms, with the endpoint speeds restoring the
    raw-derivative convention in W.  The rows are built per
    vertex block, and a partitioned `bc` passes its partition on to them.
    """
    dim = bc.trace_dim
    if l + 2 * m != dim:
        raise DimensionMismatchError(f"l + 2m = {l + 2 * m} does not match trace dim {dim}")
    if bc.d0 + bc.d1 != dim:
        raise NotComplementaryError(
            f"d0 + d1 = {bc.d0 + bc.d1} != {dim}; conversion undefined"
        )
    # singular values of [Y0 | Y1] are those of its vertex blocks together
    smin, smax = np.inf, 0.0
    for _, y1, y0 in space_blocks(bc):
        s = np.linalg.svd(np.hstack([y0, y1]), compute_uv=False)
        smin, smax = min(smin, s[-1]), max(smax, s[0])
    if smin <= dim * np.finfo(float).eps * smax * 100:
        raise NotComplementaryError("Y0 and Y1 are not complementary (joint basis singular)")

    r_val, r_flux, u_rows, partition = _annihilators(bc)
    speeds = np.ones(dim) if bc.mu_endpoints is None else bc.mu_endpoints
    return BoundaryMatricesBC(r_val, r_flux * speeds, u_rows, m,
                              partition=None if bc.partition is None else partition)


def value_residual(bc, trace: TraceVector) -> np.ndarray:
    """Residual of the value conditions; zero iff the value trace is admissible."""
    v = trace.value_trace
    if v.size != bc.trace_dim:
        raise DimensionMismatchError("trace length does not match the conditions")
    if isinstance(bc, BoundaryMatricesBC):
        return bc.v_rows @ v
    return _annihilators(bc)[0] @ v


def flux_residual(bc, trace: TraceVector,
                  coeffs: EdgeCoefficients | None = None) -> np.ndarray:
    """Residual of the derivative conditions, including zeroth-order U-terms.

    For the matrices form the stored W rows multiply raw derivatives, so the
    mu-weighted flux trace is rescaled by the endpoint speeds (unit speeds
    unless `coeffs` is given).
    """
    v, f = trace.value_trace, trace.flux_trace
    if v.size != bc.trace_dim:
        raise DimensionMismatchError("trace length does not match the conditions")
    if isinstance(bc, BoundaryMatricesBC):
        speeds = np.ones(bc.trace_dim) if coeffs is None else coeffs.mu_endpoint_diagonals()
        return bc.w_rows / speeds @ f + bc.u_rows @ v
    _, r_flux, u_rows, _ = _annihilators(bc)
    return r_flux @ f + u_rows @ v
