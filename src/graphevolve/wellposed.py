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
equilibration; raw determinants are reported as evidence only.

Both local criteria are computed per vertex block (``bc.vertex_blocks``).  The
criterion matrix and the stacked basis are block-diagonal up to row and
column permutations, and row equilibration is row-local, so their singular
values are those of the blocks together and the determinant is the signed
product of the block determinants.  A condition without a partition is one
block, the whole matrix.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .bc import BoundaryMatricesBC, BoundarySpacesBC, space_blocks, vertex_blocks
from .coeffs import EdgeCoefficients
from .errors import (
    BadT0Error,
    DimensionMismatchError,
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
    The update is  x = scattering @ y + value_map @ value_trace: the solution
    of  m_out @ x = -(m_in @ y + u_rhs @ value_trace)  with m_in the criterion
    matrix with its rows halved, m_out the same with its flux rows negated,
    and u_rhs the zeroth-order rows.  ``scattering`` (CSR) holds one block
    per vertex; ``value_map`` (CSR) is None without zeroth-order terms.
    ``m_out`` (CSR) is kept as the matrix the update inverts.  Nothing here
    changes after construction, so a deep copy shares it.
    """

    m_out: scipy.sparse.csr_array
    scattering: scipy.sparse.csr_array
    value_map: scipy.sparse.csr_array | None

    def solve(self, incoming: np.ndarray, value_trace: np.ndarray) -> np.ndarray:
        outgoing = self.scattering @ incoming
        if self.value_map is not None:
            outgoing = outgoing + self.value_map @ value_trace
        if not np.isfinite(outgoing).all():
            raise ValueError("array must not contain infs or NaNs")
        return outgoing

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


def _sigma_tol(dim: int) -> float:
    return dim * 1e-12


def _equilibrated_sigmas(m: np.ndarray) -> tuple[float, float]:
    """Smallest/largest singular values after scaling rows to unit inf-norm."""
    peak = np.abs(m).max(axis=1, initial=0.0)
    peak[peak == 0.0] = 1.0
    s = np.linalg.svd(m / peak[:, None], compute_uv=False)
    return float(s[-1]), float(s[0])


def _block_sigmas(blocks) -> tuple[float, float]:
    """Smallest and largest equilibrated singular value over all the blocks."""
    sigmas = [_equilibrated_sigmas(b) for b in blocks]
    return min(lo for lo, _ in sigmas), max(hi for _, hi in sigmas)


def _permutation_sign(p: np.ndarray) -> int:
    """+1 for an even permutation of 0..n-1, -1 for an odd one."""
    p = p.tolist()
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        if length % 2 == 0 and length:
            sign = -sign
    return sign


def _criterion_blocks(bc: BoundaryMatricesBC, coeffs: EdgeCoefficients | None):
    """Vertex blocks of the criterion matrix [V; W C], columns (f_e(0), f_i(1), f_i(0)).

    Yields (rows, cols, block): the rows and the ascending columns of the
    block in the full criterion matrix, and the dense block.
    """
    if coeffs is not None:
        coeffs.validate_against(bc.m, bc.l)
        speeds = coeffs.mu_endpoint_diagonals()
    else:
        speeds = np.ones(bc.trace_dim)
    l, m = bc.l, bc.m
    # criterion column of each trace slot: the f_i(1) columns come before f_i(0)
    column = np.concatenate([np.arange(l), l + m + np.arange(m), l + np.arange(m)])
    part = vertex_blocks(bc)
    for slots, value, flux in zip(part.slots, part.value, part.flux):
        order = slots[np.argsort(column[slots])]  # the block's slots in column order
        block = np.vstack([bc.v_rows[np.ix_(value, order)],
                           bc.w_rows[np.ix_(flux, order)] / speeds[order]])
        yield np.concatenate([value, bc.k0 + flux]), column[order], block


def check_boundary_matrices(bc: BoundaryMatricesBC,
                            coeffs: EdgeCoefficients | None = None) -> WellPosednessReport:
    """Determinant criterion for the matrices form.

    Well-posed iff the speed-normalized block matrix is invertible, decided by
    sigma_min > tol * sigma_max after row equilibration; the raw determinant is
    reported as evidence.  U rows never influence the verdict.  Nothing is
    factored here; ``vertex_update_matrix`` builds the update.
    """
    dim = bc.trace_dim
    if bc.k0 + bc.k1 != dim:
        raise DimensionMismatchError(f"k0 + k1 = {bc.k0 + bc.k1} must equal l + 2m = {dim}")
    rows, cols, blocks = zip(*_criterion_blocks(bc, coeffs))
    det = complex(np.prod([np.linalg.det(b) for b in blocks]))
    if _permutation_sign(np.concatenate(rows)) != _permutation_sign(np.concatenate(cols)):
        det = -det
    smin, smax = _block_sigmas(blocks)
    tol = _sigma_tol(dim)
    well = smin > tol * smax
    return WellPosednessReport(
        verdict=WELL_POSED if well else NOT_WELL_POSED,
        criterion="Determinant",
        determinant=det,
        sigma_min=smin,
        sigma_max=smax,
        tol=tol,
        dims={"l": bc.l, "m": bc.m, "k0": bc.k0, "k1": bc.k1},
        notes=(_INDEPENDENCE_NOTE,),
    )


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
    tol = _sigma_tol(dim)
    dims = {"trace_dim": dim, "d0": bc.d0, "d1": bc.d1}
    if bc.d0 + bc.d1 != dim:
        return WellPosednessReport(
            verdict=NOT_WELL_POSED, criterion="DirectSum", tol=tol, dims=dims,
            notes=(_INDEPENDENCE_NOTE, "d0 + d1 differs from the trace dimension"),
        )
    smin, smax = _block_sigmas(np.hstack([y0, y1]) for _, y1, y0 in space_blocks(bc))
    well = smin > tol * smax
    return WellPosednessReport(
        verdict=WELL_POSED if well else NOT_WELL_POSED,
        criterion="DirectSum",
        sigma_min=smin, sigma_max=smax, tol=tol, dims=dims,
        notes=(_INDEPENDENCE_NOTE,),
    )


def _block_matrix(groups, dim: int) -> scipy.sparse.csr_array:
    """A sparse dim x dim matrix from stacked blocks.

    Each group is (rows, cols, values) of shapes (count, n), (count, n) and
    (count, n, n): block b puts values[b, i, j] at (rows[b, i], cols[b, j]).
    """
    r, c, v = zip(*((np.broadcast_to(rows[:, :, None], values.shape).ravel(),
                     np.broadcast_to(cols[:, None, :], values.shape).ravel(),
                     values.ravel()) for rows, cols, values in groups))
    return scipy.sparse.csr_array((np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                                  shape=(dim, dim))


def vertex_update_matrix(bc: BoundaryMatricesBC,
                         coeffs: EdgeCoefficients | None = None) -> VertexUpdate:
    """The vertex scattering matrix of the wave step, built once per run.

    A criterion block B whose rows are signed by D (+1 on value rows, -1 on
    flux rows) scatters by S_b = -(D B)^-1 B, and the blocks of one size are
    solved in one stacked ``np.linalg.solve``.  Zeroth-order rows add the
    value map -m_out^-1 @ u_rhs, whose blocks are -2 (D B)^-1; it is built
    only when ``u_rows`` has nonzeros.  Raises SingularUpdateError exactly
    when the determinant criterion fails:
    det(m_out) = (1/2)^(l+2m) * (-1)^k1 * det(criterion matrix).
    """
    report = check_boundary_matrices(bc, coeffs)
    if not report.well_posed:
        raise SingularUpdateError(
            f"vertex update matrix is singular (sigma_min = {report.sigma_min:.3e})"
        )
    dim, k0 = bc.trace_dim, bc.k0
    by_size = defaultdict(list)
    for block in _criterion_blocks(bc, coeffs):
        by_size[block[1].size].append(block)
    u_r, u_c = np.nonzero(bc.u_rows)
    m_out, scattering, minus_inverse = [], [], []
    for group in by_size.values():
        rows, cols, blocks = (np.stack(a) for a in zip(*group))
        signed = np.where(rows < k0, 1.0, -1.0)[:, :, None] * blocks  # D B
        m_out.append((rows, cols, 0.5 * signed))
        try:
            scattering.append((cols, cols, -np.linalg.solve(signed, blocks)))
            if u_r.size:
                minus_inverse.append((cols, rows, -2.0 * np.linalg.inv(signed)))
        except np.linalg.LinAlgError as exc:  # an exactly singular block
            raise SingularUpdateError(f"vertex update matrix is singular ({exc})") from exc
    value_map = None
    if u_r.size:
        u_rhs = scipy.sparse.csr_array((bc.u_rows[u_r, u_c], (k0 + u_r, u_c)),
                                       shape=(dim, dim))
        value_map = _block_matrix(minus_inverse, dim) @ u_rhs
    return VertexUpdate(_block_matrix(m_out, dim), _block_matrix(scattering, dim), value_map)


def _abs_l1_restricted(samples: np.ndarray, t0: float, reflected: bool) -> float:
    """Trapezoid L1 norm of |h| (or |h(1-.)|) over [0, t0]; samples on [0,1]."""
    samples = np.asarray(samples, dtype=complex).ravel()
    grid = np.linspace(0.0, 1.0, samples.size)
    t = np.linspace(0.0, t0, max(2, samples.size))
    query = (1.0 - t) if reflected else t
    vals = np.interp(query, grid, samples.real) + 1j * np.interp(query, grid, samples.imag)
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
    """Lower-triangular trapezoid discretization of the Volterra convolution."""
    samples = np.asarray(samples, dtype=complex).ravel()
    grid = np.linspace(0.0, 1.0, samples.size)
    dt = t0 / (n - 1)
    block = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        s = np.arange(i + 1) * dt  # integration nodes on [0, t_i]
        arg = (1.0 - s) if reflected else s
        h = np.interp(arg, grid, samples.real) + 1j * np.interp(arg, grid, samples.imag)
        w = np.full(i + 1, dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        # entry (i, j) multiplies u(t_j) with s = t_i - t_j
        block[i, i::-1] += w * h
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
                       coeffs: EdgeCoefficients | None = None) -> None:
    """Apply the criterion of the form of `bc`.

    Matrices -> Determinant (speed-normalized by `coeffs`); spaces with
    nonlocal kernels -> NonlocalYoung, halving t0 from 1 down to 2^-10;
    other spaces -> DirectSum.  Raises NotWellPosedError, with the failing
    report on ``exc.report``, and TypeError for any other `bc`.
    """
    if isinstance(bc, BoundaryMatricesBC):
        report = check_boundary_matrices(bc, coeffs)
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
