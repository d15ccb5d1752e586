"""Well-posedness checks for boundary conditions on a metric graph.

Three criteria are implemented:

* Determinant -- invertibility of the block matrix
  ``[[V0e, V1i, V0i], [Wb0e, Wb1i, Wb0i]]`` (W-blocks scaled by inverse
  endpoint speeds) for the matrices form;
* DirectSum -- ``dim Y0 + dim Y1 = l + 2m`` together with joint invertibility
  of the stacked bases for the spaces form;
* NonlocalYoung -- an L1 kernel-norm certificate for the nonlocal interval
  problem, backed by an explicit discretization of the resolvent-like block.

"Nonzero determinant" is always decided through singular values after row
equilibration; raw determinants are reported as evidence only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .bc import BoundaryMatricesBC, BoundarySpacesBC
from .coeffs import EdgeCoefficients
from .errors import BadT0Error, DimensionMismatchError, SingularUpdateError

WELL_POSED = "WellPosed"
NOT_WELL_POSED = "NotWellPosed"
INCONCLUSIVE = "Inconclusive"

# The right-hand side of every vertex solve is complex (u_rhs is), so
# lu_solve would pick this routine for any factor dtype.
_zgetrs, = scipy.linalg.get_lapack_funcs(("getrs",), (np.zeros(1, dtype=complex),))

_INDEPENDENCE_NOTE = ("verdict independent of U-terms and B-operators: the criterion "
                      "holds for every admissible zeroth-order perturbation")


@dataclass(frozen=True)
class VertexUpdate:
    """Factorized coupling of outgoing to incoming characteristic values.

    Outgoing order: (q_e(0), p_i(1), q_i(0)); incoming: (p_e(0), q_i(1), p_i(0)).
    The update solves  m_out @ x = -(m_in @ y + u_rhs @ value_trace).
    """

    m_out: np.ndarray
    m_in: np.ndarray
    lu: tuple
    u_rhs: np.ndarray

    def solve(self, incoming: np.ndarray, value_trace: np.ndarray) -> np.ndarray:
        """The same LAPACK solve as ``scipy.linalg.lu_solve``, without its per-call overhead."""
        rhs = -(self.m_in @ incoming + self.u_rhs @ value_trace)
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        if rhs.size == 0:
            return rhs
        x, info = _zgetrs(*self.lu, rhs, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return x


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
    scaled = m.copy()
    for i in range(scaled.shape[0]):
        peak = np.max(np.abs(scaled[i]))
        if peak > 0:
            scaled[i] /= peak
    s = np.linalg.svd(scaled, compute_uv=False)
    return float(s[-1]), float(s[0])


def _criterion_matrix(bc: BoundaryMatricesBC,
                      coeffs: EdgeCoefficients | None) -> np.ndarray:
    """[[V0e, V1i, V0i], [Wb0e, Wb1i, Wb0i]] with speed-normalized W-blocks."""
    if coeffs is not None:
        coeffs.validate_against(bc.m, bc.l)
        mu_e0, mu_i0, mu_i1 = coeffs.mu_endpoint_diagonals()
    else:
        mu_e0, mu_i0, mu_i1 = np.ones(bc.l), np.ones(bc.m), np.ones(bc.m)
    top = np.hstack([bc.v0e, bc.v1i, bc.v0i])
    bottom = np.hstack([bc.w0e / mu_e0, bc.w1i / mu_i1, bc.w0i / mu_i0])
    return np.vstack([top, bottom])


def check_boundary_matrices(bc: BoundaryMatricesBC,
                            coeffs: EdgeCoefficients | None = None) -> WellPosednessReport:
    """Determinant criterion for the matrices form.

    Well-posed iff the speed-normalized block matrix is invertible, decided by
    sigma_min > tol * sigma_max after row equilibration; the raw determinant is
    reported as evidence.  U-blocks never influence the verdict.  Nothing is
    factored here; ``vertex_update_matrix`` builds the update.
    """
    dim = bc.trace_dim
    if bc.k0 + bc.k1 != dim:
        raise DimensionMismatchError(f"k0 + k1 = {bc.k0 + bc.k1} must equal l + 2m = {dim}")
    crit = _criterion_matrix(bc, coeffs)
    det = complex(np.linalg.det(crit))
    smin, smax = _equilibrated_sigmas(crit)
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
    basis [Y0 | Y1] is invertible; local_U and nonlocal kernels never influence
    the verdict.
    """
    dim = bc.trace_dim
    tol = _sigma_tol(dim)
    dims = {"trace_dim": dim, "d0": bc.d0, "d1": bc.d1}
    if bc.d0 + bc.d1 != dim:
        return WellPosednessReport(
            verdict=NOT_WELL_POSED, criterion="DirectSum", tol=tol, dims=dims,
            notes=(_INDEPENDENCE_NOTE, "d0 + d1 differs from the trace dimension"),
        )
    joint = np.hstack([bc.y0_basis, bc.y1_basis])
    smin, smax = _equilibrated_sigmas(joint)
    well = smin > tol * smax
    return WellPosednessReport(
        verdict=WELL_POSED if well else NOT_WELL_POSED,
        criterion="DirectSum",
        sigma_min=smin, sigma_max=smax, tol=tol, dims=dims,
        notes=(_INDEPENDENCE_NOTE,),
    )


def vertex_update_matrix(bc: BoundaryMatricesBC,
                         coeffs: EdgeCoefficients | None = None) -> VertexUpdate:
    """Outgoing/incoming characteristic coupling matrices with factorization.

    Raises SingularUpdateError exactly when the determinant criterion fails:
    det(m_out) = (1/2)^(l+2m) * (-1)^k1 * det(criterion matrix).
    """
    report = check_boundary_matrices(bc, coeffs)
    if not report.well_posed:
        raise SingularUpdateError(
            f"vertex update matrix is singular (sigma_min = {report.sigma_min:.3e})"
        )
    crit = _criterion_matrix(bc, coeffs)
    k0 = bc.k0
    sign = np.ones(bc.trace_dim)
    sign[k0:] = -1.0
    m_out = 0.5 * (sign[:, None] * crit)
    m_in = 0.5 * crit
    u_rhs = np.vstack([
        np.zeros((k0, bc.trace_dim), dtype=complex),
        np.hstack([bc.u0e, bc.u0i, bc.u1i]),
    ])
    lu = scipy.linalg.lu_factor(m_out)
    return VertexUpdate(m_out, m_in, lu, u_rhs)


def _abs_l1_restricted(samples: np.ndarray, t0: float, reflected: bool) -> float:
    """Trapezoid L1 norm of |h| (or |h(1-.)|) over [0, t0]; samples on [0,1]."""
    samples = np.asarray(samples, dtype=complex).ravel()
    grid = np.linspace(0.0, 1.0, samples.size)
    t = np.linspace(0.0, t0, max(2, samples.size))
    query = (1.0 - t) if reflected else t
    vals = np.interp(query, grid, samples.real) + 1j * np.interp(query, grid, samples.imag)
    return float(np.trapezoid(np.abs(vals), t))


def check_nonlocal_interval(h0_samples, h1_samples, t0: float,
                            p: float = 2.0) -> WellPosednessReport:
    """Young-bound certificate for the nonlocal interval problem.

    Computes per-block-row kernel norms over [0, t0]; beta < 1 certifies
    invertibility of the Id-minus-convolutions block by a Neumann series.
    A failed bound is Inconclusive (not a disproof): retry with smaller t0.
    """
    if not 0.0 < t0 <= 1.0:
        raise BadT0Error(f"t0 = {t0} outside (0, 1]")
    if p < 1.0:
        raise ValueError("p must be >= 1")
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
        dims={"t0": t0, "p": p},
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


def auto_shrink_t0(h0_samples, h1_samples, t0: float,
                   floor: float = 2.0**-10) -> WellPosednessReport:
    """Halve t0 until the Young bound certifies well-posedness or hits the floor."""
    t = t0
    report = check_nonlocal_interval(h0_samples, h1_samples, t)
    while not report.well_posed and t / 2.0 >= floor:
        t /= 2.0
        report = check_nonlocal_interval(h0_samples, h1_samples, t)
    return report
