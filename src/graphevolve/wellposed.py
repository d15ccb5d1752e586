"""Well-posedness checks for boundary conditions on a metric graph.

Three criteria are implemented, and ``require_well_posed`` picks the one
that fits the form of a boundary condition:

* Determinant -- invertibility of the criterion matrix ``[V; W C]`` (W rows
  scaled by the inverse endpoint speeds C) with its columns ordered
  (f_e(0), f_i(1), f_i(0)), for the matrices form;
* DirectSum -- ``dim Y0 + dim Y1 = l + 2m`` together with joint invertibility
  of the stacked bases for the spaces form;
* NonlocalYoung -- an L1 kernel-norm certificate for the nonlocal interval
  problem, backed by an explicit discretization of the resolvent-like block.

"Nonzero determinant" is always decided through singular values after row
equilibration, by the invertibility rule ``bc.invertible``; raw determinants
are reported as evidence only.

Both local criteria are computed on the blocks of the condition
(``bc.groups``: its vertices, or the connected components of dense input),
one stacked numpy call per block shape.  The criterion matrix and the
stacked basis are block-diagonal up to row and column permutations, and row
equilibration is row-local, so their singular values are those of the
blocks together and the determinant is the signed product of the block
determinants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .bc import (BoundaryMatricesBC, BoundarySpacesBC, block_matrix, block_sigmas,
                 component_labels, invertible, joint_sigmas, kernel_values, sigma_tol)
from .coeffs import EdgeCoefficients
from .errors import (
    BadT0Error,
    DimensionMismatchError,
    NonFiniteStateError,
    NotWellPosedError,
    SingularUpdateError,
    UnsupportedNonlocalConditionError,
)

WELL_POSED = "WellPosed"
NOT_WELL_POSED = "NotWellPosed"
INCONCLUSIVE = "Inconclusive"

_INDEPENDENCE_NOTE = ("verdict independent of U-terms and B-operators: the criterion "
                      "holds for every admissible zeroth-order perturbation")


@dataclass(frozen=True)
class VertexUpdate:
    """The vertex scattering map from incoming to outgoing characteristic values.

    Outgoing order: (q_e(0), p_i(1), q_i(0)); incoming: (p_e(0), q_i(1), p_i(0)).
    The update is  x = S @ y + value_map @ value_trace: the solution of
    m_out @ x = -(m_in @ y + u_rhs @ value_trace)  with m_in the criterion
    matrix with its rows halved, m_out the same with its flux rows negated,
    and u_rhs the zeroth-order rows.

    S is one d x d block per condition block.  ``stacks`` holds them per size d as
    (slots, blocks): the trace slots (count, d) and the blocks (count, d, d),
    in float64 when they are real.  ``order`` lists the slots, stack after
    stack, and ``inverse`` undoes it.  ``solve`` takes the incoming values into
    that order once, runs one matmul per stack whose core is one
    (d x d) @ (d x r) product per step and vertex, and takes the result back
    once: a real stack multiplies the float64 view of the complex values
    (r = 2), a complex stack the values (r = 1).  A step makes the same BLAS
    calls however many steps its block holds, so a block of K steps gives the
    bytes of K single steps.  ``scattering`` (S) and ``m_out``, the matrix the
    update inverts, are CSR assembled on first read.  ``value_map`` (CSR) is
    None without zeroth-order terms, and then ``solve`` does not read the
    value trace.  Nothing here changes after construction, so a deep copy
    shares it.
    """

    stacks: tuple[tuple[np.ndarray, np.ndarray], ...]
    order: np.ndarray
    inverse: np.ndarray
    value_map: scipy.sparse.csr_array | None
    m_out_blocks: tuple = field(repr=False)  # (rows, cols, block) of m_out per block group

    @cached_property
    def scattering(self) -> scipy.sparse.csr_array:
        return block_matrix([(slots, slots, s.astype(complex)) for slots, s in self.stacks],
                            (self.order.size,) * 2)

    @cached_property
    def m_out(self) -> scipy.sparse.csr_array:
        return block_matrix(self.m_out_blocks, (self.order.size,) * 2)

    def solve(self, incoming: np.ndarray, value_trace: np.ndarray | None) -> np.ndarray:
        """Outgoing values of one step, or one row per step for a (K, n) block."""
        x = np.atleast_2d(incoming).astype(complex, copy=False).take(self.order, axis=1)
        out = np.empty_like(x)
        k = x.shape[0]
        views = {np.dtype(float): (x.view(float).reshape(k, -1, 2),
                                   out.view(float).reshape(k, -1, 2)),
                 np.dtype(complex): (x[:, :, None], out[:, :, None])}
        start = 0
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite values fail below
            for slots, s in self.stacks:
                src, dst = views[s.dtype]
                end = start + slots.size
                shape = (k, *slots.shape, src.shape[2])  # splitting an axis keeps a view
                np.matmul(s, src[:, start:end].reshape(shape),
                          out=dst[:, start:end].reshape(shape))
                start = end
            outgoing = out.take(self.inverse, axis=1)
            if self.value_map is not None:
                outgoing = outgoing + (self.value_map @ value_trace.T).T
        if not np.isfinite(outgoing).all():
            raise NonFiniteStateError(
                "vertex values contain infs or NaNs: the data are not finite, or the run diverged")
        return outgoing.reshape(np.shape(incoming))

    def __deepcopy__(self, memo):
        return self


@dataclass(frozen=True)
class WellPosednessReport:
    verdict: str
    criterion: str
    determinant: complex | None = None
    sigma_min: float | None = None
    sigma_max: float | None = None
    tol: float | None = None
    dims: dict = field(default_factory=dict)
    young_bound: float | None = None
    notes: tuple[str, ...] = ()

    @property
    def well_posed(self) -> bool:
        return self.verdict == WELL_POSED


def _permutation_sign(p: np.ndarray) -> int:
    """+1 for an even permutation of 0..n-1, -1 for an odd one: (-1)^(n - cycles)."""
    cycles = np.unique(component_labels(np.arange(p.size), p, p.size)).size
    return -1 if (p.size - cycles) % 2 else 1


def _criterion_blocks(bc: BoundaryMatricesBC, coeffs: EdgeCoefficients | None):
    """The blocks of the criterion matrix [V; W C], columns (f_e(0), f_i(1), f_i(0)).

    Returns one (rows, cols, blocks) per block group of `bc`: the rows and
    the ascending columns of each block in the full criterion matrix, and
    the stacked dense blocks.
    """
    if bc.k0 + bc.k1 != bc.trace_dim:
        raise DimensionMismatchError(f"k0 + k1 = {bc.k0 + bc.k1} must equal "
                                     f"l + 2m = {bc.trace_dim}")
    if coeffs is not None:
        coeffs.validate_against(bc.m, bc.l)
        speeds = coeffs.mu_endpoint_diagonals()
    else:
        speeds = np.ones(bc.trace_dim)
    l, m = bc.l, bc.m
    # criterion column of each trace slot: the f_i(1) columns come before f_i(0)
    column = np.concatenate([np.arange(l), l + m + np.arange(m), l + np.arange(m)])
    out = []
    for g in bc.groups:
        order = np.argsort(column[g.slots], axis=1)  # each block's slots in column order
        slots = np.take_along_axis(g.slots, order, axis=1)
        order = order[:, None, :]
        blocks = np.concatenate([np.take_along_axis(g.value_block, order, axis=2),
                                 np.take_along_axis(g.flux_block, order, axis=2)
                                 / speeds[slots][:, None, :]], axis=1)
        out.append((np.concatenate([g.value, bc.k0 + g.flux], axis=1), column[slots], blocks))
    return out


def _sigma_report(criterion: str, sigmas, dim: int, dims: dict,
                  **fields) -> WellPosednessReport:
    """The verdict of ``bc.invertible`` on extreme singular values `sigmas`."""
    smin, smax = sigmas
    return WellPosednessReport(
        verdict=WELL_POSED if invertible(smin, smax, dim) else NOT_WELL_POSED,
        criterion=criterion, sigma_min=smin, sigma_max=smax, tol=sigma_tol(dim),
        dims=dims, notes=(_INDEPENDENCE_NOTE,), **fields)


def _determinant_report(bc: BoundaryMatricesBC, criterion) -> WellPosednessReport:
    """The Determinant verdict on the criterion blocks of `bc`."""
    rows, cols, blocks = zip(*criterion)
    det = complex(np.prod(np.concatenate([np.linalg.det(b) for b in blocks])))
    if _permutation_sign(np.concatenate([r.ravel() for r in rows])) != \
            _permutation_sign(np.concatenate([c.ravel() for c in cols])):
        det = -det
    det += 0j  # a zero part reads +0.0, not -0.0
    return _sigma_report("Determinant", block_sigmas(blocks), bc.trace_dim,
                         {"l": bc.l, "m": bc.m, "k0": bc.k0, "k1": bc.k1}, determinant=det)


def check_boundary_matrices(bc: BoundaryMatricesBC,
                            coeffs: EdgeCoefficients | None = None) -> WellPosednessReport:
    """Determinant criterion for the matrices form.

    Well-posed iff the speed-normalized block matrix is invertible, decided by
    sigma_min > tol * sigma_max after row equilibration; the raw determinant is
    reported as evidence.  U rows never influence the verdict.  Nothing is
    factored here; ``vertex_update_matrix`` builds the update from the same
    blocks.
    """
    return _determinant_report(bc, _criterion_blocks(bc, coeffs))


def check_boundary_spaces(bc: BoundarySpacesBC) -> WellPosednessReport:
    """Direct-sum criterion for the spaces form.

    Well-posed iff dim Y0 + dim Y1 equals the trace dimension and the stacked
    basis [Y0 | Y1] is invertible; local_U never influences the verdict.
    Conditions with nonlocal kernels raise UnsupportedNonlocalConditionError:
    their criterion is NonlocalYoung (``check_nonlocal_interval``).
    """
    if bc.nonlocal_kernels is not None:
        raise UnsupportedNonlocalConditionError(
            "the DirectSum criterion does not apply to nonlocal kernels; "
            "use check_nonlocal_interval")
    dim = bc.trace_dim
    dims = {"trace_dim": dim, "d0": bc.d0, "d1": bc.d1}
    if bc.d0 + bc.d1 != dim:
        return WellPosednessReport(
            verdict=NOT_WELL_POSED, criterion="DirectSum", tol=sigma_tol(dim), dims=dims,
            notes=(_INDEPENDENCE_NOTE, "d0 + d1 differs from the trace dimension"),
        )
    return _sigma_report("DirectSum", joint_sigmas(bc), dim, dims)


def vertex_update_matrix(bc: BoundaryMatricesBC, coeffs: EdgeCoefficients | None = None,
                         criterion=None) -> VertexUpdate:
    """The vertex scattering matrix of the wave step, built once per run.

    Decides the Determinant criterion on the criterion blocks and builds
    the update from the same blocks.  `criterion`, the blocks that
    ``require_well_posed`` found well-posed for `bc` at the same speeds, is
    taken as decided instead.  A criterion block B whose rows are
    signed by D (+1 on value rows, -1 on flux rows) scatters by
    S_b = -(D B)^-1 B, and the blocks of one shape are solved in one stacked
    ``np.linalg.solve``.  The S blocks are kept stacked by size d, real when
    their imaginary parts are all zero, for ``VertexUpdate.solve``; no sparse
    matrix is assembled for S or m_out until one is read.  Zeroth-order rows
    add the value map
    -m_out^-1 @ u_rhs, whose blocks are -2 (D B)^-1; it is built only when
    the U rows have nonzeros.  Raises SingularUpdateError exactly when the
    criterion fails: det(m_out) = (1/2)^(l+2m) * (-1)^k1 * det(criterion matrix).
    """
    if criterion is None:
        criterion = _criterion_blocks(bc, coeffs)
        report = _determinant_report(bc, criterion)
        if not report.well_posed:
            raise SingularUpdateError(
                f"vertex update matrix is singular (sigma_min = {report.sigma_min:.3e})")
    dim, k0, u = bc.trace_dim, bc.k0, bc.sparse_U
    m_out, by_size, minus_inverse = [], {}, []
    for rows, cols, blocks in criterion:
        signed = np.where(rows < k0, 1.0, -1.0)[:, :, None] * blocks  # D B
        m_out.append((rows, cols, 0.5 * signed))
        try:
            by_size.setdefault(cols.shape[1], []).append((cols, -np.linalg.solve(signed, blocks)))
            if u.nnz:
                minus_inverse.append((cols, rows, -2.0 * np.linalg.inv(signed)))
        except np.linalg.LinAlgError as exc:  # an exactly singular block
            raise SingularUpdateError(f"vertex update matrix is singular ({exc})") from exc
    value_map = None
    if u.nnz:
        u = u.tocoo()
        u_rhs = scipy.sparse.csr_array((u.data, (k0 + u.row, u.col)), shape=(dim, dim))
        value_map = block_matrix(minus_inverse, (dim, dim)) @ u_rhs
    stacks = []
    for size in sorted(by_size):
        cols, blocks = (np.concatenate(x) for x in zip(*by_size[size]))
        stacks.append((cols, np.ascontiguousarray(blocks if blocks.imag.any() else blocks.real)))
    order = np.concatenate([cols.ravel() for cols, _ in stacks])
    return VertexUpdate(tuple(stacks), order, np.argsort(order), value_map, tuple(m_out))


def _abs_l1_restricted(samples: np.ndarray, t0: float, reflected: bool) -> float:
    """Trapezoid L1 norm of |h| (or |h(1-.)|) over [0, t0]; samples on [0,1]."""
    t = np.linspace(0.0, t0, max(2, np.size(samples)))
    vals = kernel_values(samples, (1.0 - t) if reflected else t)
    return float(np.trapezoid(np.abs(vals), t))


def check_nonlocal_interval(h0_samples, h1_samples, t0: float) -> WellPosednessReport:
    """Young-bound certificate for the nonlocal interval problem.

    Computes per-block-row kernel norms over [0, t0]; beta < 1 certifies
    invertibility of the Id-minus-convolutions block by a Neumann series.
    The bound is the same in every L^p, 1 <= p < inf; ``dims`` reports p = 2.
    A failed bound is Inconclusive (not a disproof): retry with smaller t0.
    """
    if not 0.0 < t0 <= 1.0:
        raise BadT0Error(f"t0 = {t0} outside (0, 1]")
    b0 = _abs_l1_restricted(h0_samples, t0, reflected=False)
    b0_ref = _abs_l1_restricted(h0_samples, t0, reflected=True)
    b1 = _abs_l1_restricted(h1_samples, t0, reflected=False)
    b1_ref = _abs_l1_restricted(h1_samples, t0, reflected=True)
    beta = max(b1_ref + b1, b0_ref + b0)
    well = beta < 1.0
    return WellPosednessReport(
        verdict=WELL_POSED if well else INCONCLUSIVE,
        criterion="NonlocalYoung",
        young_bound=beta,
        dims={"t0": t0, "p": 2.0},
        notes=() if well else ("Young bound >= 1 is not a disproof; "
                               "retry with a smaller t0",),
    )


def _convolution_block(samples: np.ndarray, t0: float, n: int,
                       reflected: bool) -> np.ndarray:
    """Lower-triangular trapezoid discretization of the Volterra convolution.

    Entry (i, j), 0 <= j <= i, multiplies u(t_j) by w h((i - j) dt), with the
    trapezoid weight w = dt halved at j = 0 and j = i; row 0 is zero.
    """
    dt = t0 / (n - 1)
    s = np.arange(n) * dt  # the lags t_i - t_j
    h = kernel_values(samples, (1.0 - s) if reflected else s)
    i, j = (index[1:] for index in np.tril_indices(n))  # drop (0, 0): row 0 is zero
    w = np.where((j == 0) | (j == i), dt * 0.5, dt)
    block = np.zeros((n, n), dtype=complex)
    block[i, j] += w * h[i - j]  # onto +0, as a sum: a -0.0 product reads +0.0
    return block


def discretize_nonlocal_R(h0_samples, h1_samples, t0: float, n: int) -> np.ndarray:
    """Identity minus the 2x2 block of discretized convolutions, size 2n x 2n.

    Blocks: [[K1_reflected, -K1], [K0_reflected, K0]] with kernels sampled on
    [0,1] and reflection h(1 - .).
    """
    if not 0.0 < t0 <= 1.0:
        raise BadT0Error(f"t0 = {t0} outside (0, 1]")
    if n < 4:
        raise ValueError("n must be >= 4")
    k0 = _convolution_block(h0_samples, t0, n, reflected=False)
    k0r = _convolution_block(h0_samples, t0, n, reflected=True)
    k1 = _convolution_block(h1_samples, t0, n, reflected=False)
    k1r = _convolution_block(h1_samples, t0, n, reflected=True)
    block = np.block([[k1r, -k1], [k0r, k0]])
    return np.eye(2 * n, dtype=complex) - block


def auto_shrink_t0(h0_samples, h1_samples, t0: float) -> WellPosednessReport:
    """Probe t0, t0 / 2, t0 / 4, ... (not below 2^-10) until the Young bound certifies.

    The first probe is ``check_nonlocal_interval`` at t0 itself.  Returns the
    report of the last probe; its ``dims["t0"]`` is the t0 that probe used.
    """
    t = t0
    report = check_nonlocal_interval(h0_samples, h1_samples, t)
    while not report.well_posed and t / 2.0 >= 2.0**-10:
        t /= 2.0
        report = check_nonlocal_interval(h0_samples, h1_samples, t)
    return report


def require_well_posed(bc: BoundaryMatricesBC | BoundarySpacesBC,
                       coeffs: EdgeCoefficients | None = None):
    """Apply the criterion of the form of `bc`.

    Matrices -> Determinant (speed-normalized by `coeffs`); spaces with
    nonlocal kernels -> NonlocalYoung, halving t0 from 1 down to 2^-10;
    other spaces -> DirectSum.  Raises NotWellPosedError, with the failing
    report on ``exc.report``, and TypeError for any other `bc`.  Returns the
    criterion blocks of a matrices form, for ``vertex_update_matrix`` at the
    same speeds, and None for a spaces form.
    """
    criterion = None
    if isinstance(bc, BoundaryMatricesBC):
        criterion = _criterion_blocks(bc, coeffs)
        report = _determinant_report(bc, criterion)
    elif not isinstance(bc, BoundarySpacesBC):
        raise TypeError("bc must be BoundaryMatricesBC or BoundarySpacesBC")
    elif bc.nonlocal_kernels is not None:
        report = auto_shrink_t0(*bc.nonlocal_kernels, 1.0)
    else:
        report = check_boundary_spaces(bc)
    if not report.well_posed:
        raise NotWellPosedError(
            f"boundary conditions fail the {report.criterion} criterion "
            f"({report.verdict})", report)
    return criterion
