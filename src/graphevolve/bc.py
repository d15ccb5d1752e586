"""Boundary-condition representations, builders, and residual evaluation.

Two interchangeable representations are supported:

* matrices form -- three row matrices over the trace: ``k0`` value rows V,
  and ``k1`` derivative rows W with their zeroth-order rows U,
  ``k0 + k1 = l + 2m``;
* spaces form -- the value trace must lie in a subspace ``Y1`` and the signed
  mu-weighted flux trace (plus optional zeroth-order terms) in a complementary
  subspace ``Y0``.

Everything indexed by trace slot is in trace order ``(f_e(0), f_i(0),
f_i(1))``: the columns of V, W, U, Y1, Y0 and local_U, and the endpoint
speeds.  The flux trace carries ``mu``-weighted *outward* derivatives, so its
``f_i(1)`` part has a minus sign.  Only ``matrices_bc`` takes the rows as nine
per-kind blocks, external/tail/head for each of V, W, U.

A condition is stored as blocks: block b owns some trace slots, the Y1/Y0
columns (V/W rows) supported on them, and their small Y1/Y0 (V/W) matrices.
Blocks of one shape are stacked in a ``BlockGroup``, so rank tests,
annihilators and both local checks run one numpy call per shape.
``from_standard``, ``from_delta`` and ``from_nonlocal_matrices`` make one
block per vertex (``from_blocks``) and ``to_boundary_matrices`` keeps them;
dense arrays given to the constructors are split into the connected
components of their nonzero pattern.  Only the zeroth-order terms (local_U,
the U rows) may couple blocks; they are kept sparse.  The dense fields are
formed when first read; the package reads rows from the blocks (``trace_rows``).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, replace

import numpy as np
# Unused here.  Imported before scipy.sparse, `import graphevolve` measured about
# 45 ms (8 %) faster than in the reverse order, on a 2-vCPU host over 25
# alternating runs; the cause is not known.
import scipy.linalg  # noqa: F401
import scipy.sparse

from .coeffs import EdgeCoefficients
from .errors import (
    DimensionMismatchError,
    ExternalEdgesPresentError,
    NotComplementaryError,
    RankDeficientBasisError,
    UnsupportedNonlocalConditionError,
    ZeroDegreeVertexError,
)
from .graph import MetricGraph, endpoint_vertices


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
class BlockGroup:
    """Blocks of one shape, stacked along the first axis.

    Block i owns the trace slots ``slots[i]`` (n), the value indices
    ``value[i]`` (a) and the flux indices ``flux[i]`` (b), which are Y1/Y0
    columns or V/W rows; its matrices are ``value_block[i]`` and
    ``flux_block[i]``: Y1 (n x a) and Y0 (n x b), or V (a x n) and W (b x n).
    The blocks of a condition are ordered group after group.
    """

    slots: np.ndarray
    value: np.ndarray
    flux: np.ndarray
    value_block: np.ndarray
    flux_block: np.ndarray


class _Derived:
    """A dataclass field that a condition built from blocks forms on first read."""

    def __init__(self, default=MISSING):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.default
        if self.name not in obj.__dict__:
            obj.__dict__[self.name] = obj._derive(self.name)
        return obj.__dict__[self.name]

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


def _set(obj, **fields) -> None:
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _stacked(*owners: np.ndarray):
    """Index stacks of blocks 0..B-1 from the block of each trace slot, value and
    flux index: per block shape one (slots, value, flux), rows ascending, blocks
    in order, shapes in the order of their first block."""
    sizes = np.stack([np.bincount(x, minlength=owners[0].max() + 1) for x in owners], axis=1)
    shapes, first, inverse = np.unique(sizes, axis=0, return_index=True, return_inverse=True)
    orders = [np.argsort(x, kind="stable") for x in owners]  # block after block
    for k in np.argsort(first).tolist():
        chosen = inverse.ravel() == k
        yield tuple(o[chosen[x[o]]].reshape(chosen.sum(), n)
                    for x, o, n in zip(owners, orders, shapes[k].tolist()))


def component_labels(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The least node of each node's component in the graph on 0..n-1 with edges
    (a, b): roots hook onto their least neighbouring root, then pointers double."""
    root = np.arange(n)
    while not np.array_equal(root[a], root[b]):
        np.minimum.at(root, np.maximum(root[a], root[b]), np.minimum(root[a], root[b]))
        for _ in range(n.bit_length()):
            root = root[root]
    return root


def _split(first: np.ndarray, second: np.ndarray, rows: bool) -> list[BlockGroup]:
    """Dense Y1/Y0 (with `rows`, V/W) as the components of their nonzero pattern,
    by least slot: a Y1/Y0 column (V/W row) joins the slots it touches.  The
    non-square components and the indices touching no slot merge into one
    block; if the totals differ, everything is one block."""
    first, second = (first, second) if rows else (first.T, second.T)  # index x slot
    pattern = np.concatenate([first, second])
    n_index, dim = pattern.shape
    index, slot = np.nonzero(pattern)  # by index, then ascending slot
    root = component_labels(slot, slot[np.searchsorted(index, index)], dim)
    lead = np.full(n_index, dim)  # the indices that touch no slot: label dim
    lead[index] = root[slot]
    odd = np.bincount(root, minlength=dim + 1) != np.bincount(lead, minlength=dim + 1)
    odd |= n_index != dim  # merged under the least odd label
    labels = np.r_[root, lead]
    _, block = np.unique(np.where(odd[labels], np.argmax(odd), labels), return_inverse=True)
    groups = []
    for slots, value, flux in _stacked(*np.split(block, [dim, dim + first.shape[0]])):
        blocks = [m[i[:, :, None], slots[:, None, :]] for m, i in ((first, value), (second, flux))]
        groups.append(BlockGroup(slots, value, flux,
                                 *(b if rows else b.transpose(0, 2, 1) for b in blocks)))
    return groups


def _numbered(shapes) -> list[np.ndarray]:
    """Consecutive indices, group after group, for stacks of (count, width) items."""
    ends = np.cumsum([count * width for count, width in shapes]).tolist()
    return [np.arange(end - count * width, end).reshape(count, width)
            for end, (count, width) in zip(ends, shapes)]


def block_entries(parts) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The (values, (rows, cols)) triplets of stacked blocks, every entry stored.

    Each part is (rows, cols, values) of shapes (count, r), (count, n) and
    (count, r, n): block b puts values[b, i, j] at (rows[b, i], cols[b, j]).
    """
    r, c, v = zip(*((np.broadcast_to(rows[:, :, None], values.shape).ravel(),
                     np.broadcast_to(cols[:, None, :], values.shape).ravel(),
                     values.ravel()) for rows, cols, values in parts))
    return np.concatenate(v), (np.concatenate(r), np.concatenate(c))


def block_matrix(parts, shape: tuple[int, int]) -> scipy.sparse.csr_array:
    """A sparse matrix from stacked blocks (``block_entries``)."""
    return scipy.sparse.csr_array(block_entries(parts), shape=shape)


def _assembled(groups, value: bool, rows: bool, dim: int) -> scipy.sparse.csr_array:
    """The value (Y1, V) or else the flux (Y0, W) matrix of the blocks, in CSR
    of their nonzeros with sorted indices; `rows` for row blocks (V, W)."""
    entries, size = [], 0
    for g in groups:
        index, block = (g.value, g.value_block) if value else (g.flux, g.flux_block)
        b, i, j = np.nonzero(block)
        first, second = (index, g.slots) if rows else (g.slots, index)
        entries.append((block[b, i, j], first[b, i], second[b, j]))
        size += index.size
    values, first, second = (np.concatenate(x) for x in zip(*entries))
    return scipy.sparse.csr_array((values, (first, second)),
                                  shape=(size, dim) if rows else (dim, size))


class _Blocks:
    """The storage both condition forms share: ``groups`` holds the blocks (one
    per vertex from the builders, the connected components of dense input)
    and ``sparse_U`` the zeroth-order terms (CSR, or None).  The dense fields
    are formed from them."""

    _rows = False  # whether the blocks are row blocks (V, W)

    @classmethod
    def from_blocks(cls, groups, sparse_u, **fields):
        """A condition from its blocks, which need not be vertex blocks, with no dense
        field formed; `fields` sets the rest.  Heat and wave read it exactly as
        they read a builder's condition with the same blocks."""
        bc = object.__new__(cls)
        _set(bc, groups=tuple(groups), sparse_U=sparse_u, **fields)
        bc._validate()
        return bc

    def _validate(self) -> None:
        """The checks shared by dense input and blocks: each trace slot, value
        index and flux index belongs to exactly one block, and only a sole
        block may be non-square.  Then the checks of the form (``_check``)."""
        for attr, what in (("slots", "trace slot"), ("value", "value index"),
                           ("flux", "flux index")):
            flat = np.concatenate([getattr(g, attr).ravel() for g in self.groups])
            if not np.array_equal(np.sort(flat), np.arange(flat.size)):
                raise DimensionMismatchError(f"the blocks do not own each {what} once")
        for g in self.groups:
            n, a, b = g.slots.shape[1], g.value.shape[1], g.flux.shape[1]
            if n != a + b and (len(self.groups) > 1 or g.slots.shape[0] > 1):
                raise DimensionMismatchError(f"one of several blocks has {n} slots "
                                             f"but {a + b} value/flux indices")
        self._check()

    def _derive(self, name: str):
        if name in ("local_U", "u_rows"):
            return None if self.sparse_U is None else self.sparse_U.toarray()
        return _assembled(self.groups, name in ("y1_basis", "v_rows"), self._rows,
                          self.trace_dim).toarray()

    @property
    def trace_dim(self) -> int:
        return sum(g.slots.size for g in self.groups)


def _full_column_rank(stack: np.ndarray) -> bool:
    """The rank rule: every (n x a) block has rank a under ``np.linalg.matrix_rank``'s
    default tolerance, its a-th singular value above max(n, a) * eps * sigma_max."""
    return stack.shape[2] == 0 or bool(np.all(np.linalg.matrix_rank(stack) == stack.shape[2]))


def sigma_tol(dim: int) -> float:
    """The threshold of the invertibility rule (``invertible``) at dimension `dim`."""
    return dim * 1e-12


def invertible(sigma_min: float, sigma_max: float, dim: int) -> bool:
    """The invertibility rule: a matrix of dimension `dim` is invertible when its
    inverse condition number sigma_min / sigma_max is above dim * 1e-12 (not NaN)."""
    return sigma_min > sigma_tol(dim) * sigma_max


def is_real(x) -> bool:
    """The real-arithmetic rule: no entry of `x` (an array, or the stored values
    of a sparse array) has a nonzero imaginary part.  An operator this holds for
    maps real data to real data, so computing it in float64 drops only zeros."""
    values = x.data if scipy.sparse.issparse(x) else np.asarray(x)
    return not (np.iscomplexobj(values) and values.imag.any())


def block_sigmas(stacks) -> tuple[float, float]:
    """Smallest and largest singular value over stacked square blocks,
    each row scaled to unit inf-norm first."""
    smin, smax = np.inf, 0.0
    for m in stacks:
        peak = np.abs(m).max(axis=2, initial=0.0)
        peak[peak == 0.0] = 1.0
        s = np.linalg.svd(m / peak[:, :, None], compute_uv=False)
        smin, smax = min(smin, float(s[:, -1].min())), max(smax, float(s[:, 0].max()))
    return smin, smax


def _annihilator_rows(basis: np.ndarray) -> np.ndarray:
    """Rows R with R @ basis = 0 and ker(R) = span(basis) (bilinear pairing), stacked.

    `basis` is (count, n, a), each block of full column rank; R is
    (count, n - a, n): the last right singular vectors of basis^T, as
    ``scipy.linalg.null_space`` takes them, from one stacked SVD.
    """
    count, n, a = basis.shape
    if a == 0:
        return np.broadcast_to(np.eye(n, dtype=complex), (count, n, n))
    return np.linalg.svd(basis.transpose(0, 2, 1))[2][:, a:].conj()


def _hermitian_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal bases (count, n, n - a) of the Hermitian complements of stacked bases."""
    return _annihilator_rows(basis.conj()).transpose(0, 2, 1)


@dataclass(frozen=True)
class BoundaryMatricesBC(_Blocks):
    """k0 value conditions and k1 derivative conditions in matrix form.

    Each row matrix has one column per trace slot, l + 2m in trace order;
    m is the number of internal edges.

    Value rows:  v_rows @ (f_e(0), f_i(0), f_i(1)) = 0.
    Flux rows:   w_rows @ (f_e'(0), f_i'(0), -f_i'(1))
                 + u_rows @ (f_e(0), f_i(0), f_i(1)) = 0.

    ``dataclasses.replace`` splits the dense rows again (``_Blocks``): a
    converted builder condition keeps its vertex blocks.
    """

    v_rows: np.ndarray = _Derived()
    w_rows: np.ndarray = _Derived()
    u_rows: np.ndarray = _Derived()
    m: int
    _rows = True

    def __post_init__(self):
        v, w, u = (np.atleast_2d(np.asarray(x, dtype=complex))
                   for x in (self.v_rows, self.w_rows, self.u_rows))
        dim = v.shape[1]
        if w.shape[1] != dim or u.shape != w.shape:
            raise DimensionMismatchError(f"w_rows {w.shape} and u_rows "
                                         f"{u.shape} must both be k1 x {dim}")
        _set(self, v_rows=v, w_rows=w, u_rows=u, sparse_U=scipy.sparse.csr_array(u),
             groups=_split(v, w, rows=True))
        self._validate()

    def _check(self) -> None:
        dim = self.trace_dim
        if not 0 <= 2 * self.m <= dim:
            raise DimensionMismatchError(f"m = {self.m} does not fit trace dim {dim}")
        if self.sparse_U.shape != (self.k1, dim):
            raise DimensionMismatchError(f"u_rows {self.sparse_U.shape} must be k1 x {dim}")

    @property
    def k0(self) -> int:
        return sum(g.value.size for g in self.groups)

    @property
    def k1(self) -> int:
        return sum(g.flux.size for g in self.groups)

    @property
    def l(self) -> int:
        return self.trace_dim - 2 * self.m


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
class BoundarySpacesBC(_Blocks):
    """Subspace form: value trace in Y1, flux trace + U-terms in Y0.

    local_U, when present, is an (l+2m) x (l+2m) matrix acting on the value
    trace; the flux membership condition reads
    ``flux_trace + local_U @ value_trace in Y0``.
    nonlocal_kernels optionally carries per-edge sampled integral kernels
    contributing distributed terms, consumed by the heat assembler; such a
    condition has no trace-row form, so the DirectSum check, the conversion
    and the residuals refuse it (UnsupportedNonlocalConditionError).
    mu_endpoints is the trace-ordered vector of endpoint wave speeds
    (mu_e(0), mu_i(0), mu_i(1)), one per trace slot, used to translate
    between flux and raw-derivative conventions.
    Y1 and Y0 are stored as blocks of full column rank: the connected
    components of the nonzero pattern for dense input, one per vertex from
    the continuity builders, a constant Y1 column and Y0 = C * Y1-perp.
    ``dataclasses.replace`` reads the dense fields and splits them again: a
    builder's twin has the builder's vertex blocks, ordered by least slot.
    Heat and wave convert every local condition to the matrices form
    (``to_boundary_matrices``), so a condition is simulated by what it says,
    whoever built it.
    """

    y1_basis: np.ndarray = _Derived()
    y0_basis: np.ndarray = _Derived()
    local_U: np.ndarray | None = _Derived(None)
    nonlocal_kernels: tuple | None = None
    mu_endpoints: np.ndarray | None = None

    def __post_init__(self):
        y1, y0 = (np.atleast_2d(np.asarray(x, dtype=complex))
                  for x in (self.y1_basis, self.y0_basis))
        if y1.shape[0] != y0.shape[0]:
            raise DimensionMismatchError("Y0 and Y1 bases live in different trace spaces")
        u = None if self.local_U is None else np.asarray(self.local_U, dtype=complex)
        _set(self, y1_basis=y1, y0_basis=y0, local_U=u,
             sparse_U=None if u is None else scipy.sparse.csr_array(u),
             groups=_split(y1, y0, rows=False))
        if self.mu_endpoints is not None:
            _set(self, mu_endpoints=np.asarray(self.mu_endpoints, dtype=float))
        self._validate()

    def _check(self) -> None:
        for g in self.groups:
            for basis, name in ((g.value_block, "y1_basis"), (g.flux_block, "y0_basis")):
                if not _full_column_rank(basis):
                    raise RankDeficientBasisError(f"{name} does not have full column rank")
        n = self.trace_dim
        if self.sparse_U is not None and self.sparse_U.shape != (n, n):
            raise DimensionMismatchError(
                f"local_U has shape {self.sparse_U.shape}, expected {(n, n)}")
        if self.mu_endpoints is not None and self.mu_endpoints.shape != (n,):
            raise DimensionMismatchError(
                f"mu_endpoints has shape {self.mu_endpoints.shape}, expected {(n,)}")

    @property
    def d1(self) -> int:
        return sum(g.value.size for g in self.groups)

    @property
    def d0(self) -> int:
        return sum(g.flux.size for g in self.groups)


@dataclass(frozen=True)
class DeltaCoupling:
    """Per-vertex coupling coefficients for delta-type conditions."""

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=complex).ravel())


def from_standard(g: MetricGraph, coeffs: EdgeCoefficients) -> BoundarySpacesBC:
    """Continuity across vertices plus Kirchhoff flux balance.

    Y1 is the continuity space; Y0 = C * Y1-perp with
    C = diag(mu_e(0)^-1, mu_i(0)^-1, mu_i(1)^-1), so the flux membership is
    exactly the vanishing of lambda-weighted outward derivative sums.  Each
    non-isolated vertex is one block: a vertex of degree d owns its slots
    (ascending), one Y1 column and the d - 1 Y0 columns of an orthonormal
    basis of (1, ..., 1)-perp in C^d, one basis per degree.  Columns are
    numbered in vertex order, so Y1 is ``continuity_space(g)``.  The blocks
    of one degree form a group, in vertex order, and the groups come in the
    order of their first vertex.
    """
    return _kirchhoff(g, coeffs, None)


def _kirchhoff(g: MetricGraph, coeffs: EdgeCoefficients, coupling) -> BoundarySpacesBC:
    """``from_standard`` with local_U = -C X, for `coupling` X a trace-ordered
    COO matrix of nonzeros (None: no zeroth-order term).

    Converted (``to_boundary_matrices``), vertex v's flux row is W = c * lambda
    on its slots and U = c * sum_j mu_j local_U_j, for one scalar c: heat
    weights W by 1 / lambda(node), so the row is c times v's summed half-cell
    Kirchhoff balance plus its zeroth-order terms."""
    coeffs.validate_against(g.m, g.l)
    speeds = coeffs.mu_endpoint_diagonals()
    ends = endpoint_vertices(g)
    _, block = np.unique(ends, return_inverse=True)  # the blocks, in vertex order
    degree = np.bincount(block)
    groups = []
    for slots, value, flux in _stacked(block, np.arange(degree.size),
                                       np.repeat(np.arange(degree.size), degree - 1)):
        ones = np.ones((*slots.shape, 1), dtype=complex)
        groups.append(BlockGroup(slots, value, flux, ones,
                                 _hermitian_complement(ones[:1]) / speeds[slots][:, :, None]))
    local_u = None if coupling is None else scipy.sparse.csr_array(
        (-coupling.data / speeds[coupling.row], coupling.coords), shape=coupling.shape)
    return BoundarySpacesBC.from_blocks(groups, local_u, mu_endpoints=speeds)


def from_delta(g: MetricGraph, coeffs: EdgeCoefficients,
               delta: DeltaCoupling) -> BoundarySpacesBC:
    """Delta-type coupling: Kirchhoff flux sums equal alpha_v times the value.

    The vertex coefficient alpha_v is spread over the deg(v) endpoint traces,
    giving per-endpoint diagonal weights alpha_v / deg(v); the resulting
    zeroth-order term is folded into a diagonal local_U.
    """
    if delta.alpha.size != g.n:
        raise DimensionMismatchError(
            f"alpha has length {delta.alpha.size}, graph has {g.n} vertices"
        )
    ends = endpoint_vertices(g)
    deg = np.bincount(ends, minlength=g.n)
    isolated = np.flatnonzero((deg == 0) & (delta.alpha != 0))
    if isolated.size:
        v = int(isolated[0])
        raise ZeroDegreeVertexError(f"alpha[{v}] != 0 but vertex {v} is isolated")
    weights = delta.alpha[ends] / deg[ends]  # the COO conversion drops its zeros
    return _kirchhoff(g, coeffs, scipy.sparse.diags_array(weights, format="coo"))


def from_nonlocal_matrices(g: MetricGraph, coeffs: EdgeCoefficients,
                           m_e: np.ndarray, m_i_minus: np.ndarray,
                           m_i_plus: np.ndarray) -> BoundarySpacesBC:
    """Vertex flux sums driven by arbitrary linear combinations of all traces.

    The vertex condition couples each flux balance to M-weighted endpoint
    values of possibly distant edges; delta-type coupling is the diagonal
    special case.
    """
    blocks = [scipy.sparse.coo_array(np.asarray(x, dtype=complex).reshape(n, n))
              for x, n in ((m_e, g.l), (m_i_minus, g.m), (m_i_plus, g.m))]
    return _kirchhoff(g, coeffs, scipy.sparse.block_diag(blocks, format="coo"))


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
    d = y_basis.shape[1]  # the constructor checks its rank, block by block
    w = np.asarray(w, dtype=complex).reshape(d, d)
    speeds = coeffs.mu_endpoint_diagonals()
    perp = _hermitian_complement(y_basis[None])[0]
    y0 = perp / speeds[:, None]
    local_u = (y_basis @ w @ np.linalg.pinv(y_basis)) / speeds[:, None]
    return BoundarySpacesBC(y_basis, y0, local_U=local_u, mu_endpoints=speeds)


def from_nonlocal_interval(h0_samples, h1_samples) -> BoundarySpacesBC:
    """Single-interval conditions tying each endpoint value to a kernel integral.

    The kernels (sampled uniformly on [0,1], each on a grid of its own
    length; ``kernel_values`` reads them) are consumed by the heat assembler
    as quadrature rows.  The trace bases Y1 = C^2, Y0 = {0} are
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


def kernel_values(samples, x) -> np.ndarray:
    """A nonlocal kernel at the points `x` of [0, 1].

    The samples lie on a uniform grid on [0, 1] of their own length; the real
    and imaginary parts are interpolated linearly between them.
    """
    samples = np.asarray(samples, dtype=complex).ravel()
    grid = np.linspace(0.0, 1.0, samples.size)
    return np.interp(x, grid, samples.real) + 1j * np.interp(x, grid, samples.imag)


def _annihilators(bc: BoundarySpacesBC):
    """Value rows R1 and flux rows R0 as blocks, and the U-rows R0 @ local_U (CSR).

    ker R1 = span Y1 and ker R0 = span Y0 under the bilinear pairing.  Block
    b contributes the rows of its own slots, numbered block after block; only
    the U-rows may reach other blocks.  Nonlocal kernels have no row form:
    UnsupportedNonlocalConditionError.
    """
    if bc.nonlocal_kernels is not None:
        raise UnsupportedNonlocalConditionError(
            "nonlocal interval kernels have no trace-row form")
    r1 = [_annihilator_rows(g.value_block) for g in bc.groups]
    r0 = [_annihilator_rows(g.flux_block) for g in bc.groups]
    value_rows = _numbered([x.shape[:2] for x in r1])
    flux_rows = _numbered([x.shape[:2] for x in r0])
    groups = [BlockGroup(g.slots, v, f, a1, a0)
              for g, v, f, a1, a0 in zip(bc.groups, value_rows, flux_rows, r1, r0)]
    if bc.sparse_U is None:
        return groups, scipy.sparse.csr_array((sum(f.size for f in flux_rows), bc.trace_dim),
                                              dtype=complex)
    return groups, _assembled(groups, False, True, bc.trace_dim) @ bc.sparse_U


def joint_sigmas(bc: BoundarySpacesBC) -> tuple[float, float]:
    """``block_sigmas`` of the joint basis [Y0 | Y1], which are those of its blocks."""
    return block_sigmas(np.concatenate([g.flux_block, g.value_block], axis=2)
                        for g in bc.groups)


def to_boundary_matrices(bc: BoundarySpacesBC, l: int, m: int) -> BoundaryMatricesBC:
    """Row form of the two membership conditions.

    k0 rows annihilate Y1 (value conditions); k1 rows annihilate Y0 applied to
    the flux trace plus U-terms, with the endpoint speeds restoring the
    raw-derivative convention in W.  The rows keep the blocks of `bc`.
    Raises NotComplementaryError exactly when the DirectSum criterion fails.
    """
    dim = bc.trace_dim
    if l + 2 * m != dim:
        raise DimensionMismatchError(f"l + 2m = {l + 2 * m} does not match trace dim {dim}")
    if bc.d0 + bc.d1 != dim or not invertible(*joint_sigmas(bc), dim):
        raise NotComplementaryError(f"Y0 (dim {bc.d0}) and Y1 (dim {bc.d1}) are not "
                                    f"complementary in the trace space (dim {dim})")

    groups, u_rows = _annihilators(bc)
    if bc.mu_endpoints is not None:
        groups = [replace(g, flux_block=g.flux_block * bc.mu_endpoints[g.slots][:, None, :])
                  for g in groups]
    return BoundaryMatricesBC.from_blocks(groups, u_rows, m=m)


def trace_rows(bc):
    """V, W and U of `bc` in CSR of their nonzeros, so ascending slots within a
    row; a spaces form gives its annihilator rows, with unit speeds."""
    groups, u_rows = ((bc.groups, bc.sparse_U) if isinstance(bc, BoundaryMatricesBC)
                      else _annihilators(bc))
    u_rows = u_rows.tocoo()
    u_rows.eliminate_zeros()
    return (_assembled(groups, True, True, bc.trace_dim),
            _assembled(groups, False, True, bc.trace_dim), scipy.sparse.csr_array(u_rows))


def value_residual(bc, trace: TraceVector) -> np.ndarray:
    """Residual of the value conditions; zero iff the value trace is admissible."""
    v = trace.value_trace
    if v.size != bc.trace_dim:
        raise DimensionMismatchError("trace length does not match the conditions")
    return trace_rows(bc)[0] @ v


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
    _, w_rows, u_rows = trace_rows(bc)
    if coeffs is not None and isinstance(bc, BoundaryMatricesBC):
        f = f / coeffs.mu_endpoint_diagonals()
    return w_rows @ f + u_rows @ v
