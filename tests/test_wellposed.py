import dataclasses

import numpy as np
import pytest

import graphevolve as ge
from conftest import (coupled_endpoints_bc, dirichlet_interval_bc,
                      periodic_loop_bc, random_coeffs, random_graph, random_mesh, star3_bc)
from graphevolve.wellposed import _convolution_block, _permutation_sign


def test_star3_determinant():
    coeffs = ge.unit_coefficients(2, 1)
    rep = ge.check_boundary_matrices(star3_bc(1, 2, 3, 4, 0), coeffs)
    assert rep.well_posed
    assert rep.determinant == pytest.approx(24.0, abs=1e-9)

    rep0 = ge.check_boundary_matrices(star3_bc(1, 2, 3, 0, 0), coeffs)
    assert rep0.verdict == "NotWellPosed"


def test_interval_classics():
    coeffs = ge.unit_coefficients(1)
    assert ge.check_boundary_matrices(periodic_loop_bc(), coeffs).well_posed

    bad_dirichlet = ge.matrices_bc(l=0, m=1, k0=1, k1=1,
                                   v0i=[[1]], u1i=[[1]])
    rep = ge.check_boundary_matrices(bad_dirichlet, coeffs)
    assert rep.verdict == "NotWellPosed"
    assert rep.determinant == pytest.approx(0.0, abs=1e-12)

    rep2 = ge.check_boundary_matrices(dirichlet_interval_bc(), coeffs)
    assert rep2.well_posed
    assert abs(rep2.determinant) == pytest.approx(1.0, abs=1e-12)


def test_endpoint_dichotomy():
    bc = coupled_endpoints_bc()
    varying = ge.EdgeCoefficients((ge.quadratic_square(1.0, 1.0),), ())
    rep = ge.check_boundary_matrices(bc, varying)
    assert rep.well_posed
    assert rep.determinant == pytest.approx(0.5, abs=1e-9)

    rep_flat = ge.check_boundary_matrices(bc, ge.unit_coefficients(1))
    assert rep_flat.verdict == "NotWellPosed"
    assert rep_flat.determinant == pytest.approx(0.0, abs=1e-12)


def test_u_blocks_never_change_verdict():
    coeffs = ge.unit_coefficients(2, 1)
    with_u = star3_bc(1, 2, 3, 4, 5.0)
    without_u = star3_bc(1, 2, 3, 4, 0.0)
    ra = ge.check_boundary_matrices(with_u, coeffs)
    rb = ge.check_boundary_matrices(without_u, coeffs)
    assert ra.verdict == rb.verdict
    assert ra.determinant == pytest.approx(rb.determinant)
    assert any("independent" in n for n in ra.notes)


def test_check_boundary_spaces_examples(star, interval):
    assert ge.check_boundary_spaces(
        ge.from_standard(star, ge.unit_coefficients(2, 1))).well_posed

    e1 = np.array([[1.0], [0.0]])
    degenerate = ge.BoundarySpacesBC(e1, e1)
    assert ge.check_boundary_spaces(degenerate).verdict == "NotWellPosed"

    mixed = ge.from_matrix_mixed(interval, np.ones((2, 2)))
    assert ge.check_boundary_spaces(mixed).well_posed


def test_dimension_sum_failure(interval):
    short = ge.BoundarySpacesBC(np.array([[1.0], [0.0]]), np.zeros((2, 0)))
    rep = ge.check_boundary_spaces(short)
    assert rep.verdict == "NotWellPosed"
    assert rep.dims["d0"] + rep.dims["d1"] != rep.dims["trace_dim"]


def test_vertex_update_periodic_loop():
    upd = ge.vertex_update_matrix(periodic_loop_bc(), ge.unit_coefficients(1))
    assert np.allclose(upd.m_out.toarray(), 0.5 * np.array([[-1, 1], [-1, -1]]))
    assert np.linalg.det(upd.m_out.toarray()) == pytest.approx(0.5)


def test_vertex_update_dirichlet():
    upd = ge.vertex_update_matrix(dirichlet_interval_bc(), ge.unit_coefficients(1))
    assert np.allclose(np.abs(upd.m_out.toarray()), 0.5 * np.array([[0, 1], [1, 0]]))


def test_vertex_update_singular():
    bad = ge.matrices_bc(l=0, m=1, k0=1, k1=1, v0i=[[1]], u1i=[[1]])
    with pytest.raises(ge.SingularUpdateError):
        ge.vertex_update_matrix(bad, ge.unit_coefficients(1))


def test_kirchhoff_scattering_matrix(compact_star):
    """A Kirchhoff vertex of degree d with equal speeds scatters by (2/d) 11^T - I."""
    coeffs = ge.unit_coefficients(3)
    bc = ge.to_boundary_matrices(ge.from_standard(compact_star, coeffs), 0, 3)
    upd = ge.vertex_update_matrix(bc, coeffs)
    # criterion columns (f_0(1), f_1(1), f_2(1), f_0(0), f_1(0), f_2(0)): the center
    # owns f_0(1), f_1(0) and f_2(0); a leaf, Kirchhoff of degree 1, reflects by +1
    expected = np.eye(6)
    expected[np.ix_([0, 4, 5], [0, 4, 5])] = [[-1 / 3, 2 / 3, 2 / 3],
                                               [2 / 3, -1 / 3, 2 / 3],
                                               [2 / 3, 2 / 3, -1 / 3]]
    assert np.max(np.abs(upd.scattering.toarray() - expected)) <= 1e-14
    assert upd.value_map is None


def test_vertex_update_rejects_non_finite_traces():
    upd = ge.vertex_update_matrix(star3_bc(delta=0.5), ge.unit_coefficients(2, 1))
    assert upd.value_map is not None
    incoming, values = np.ones(5, dtype=complex), np.ones(5, dtype=complex)
    assert np.isfinite(upd.solve(incoming, values)).all()
    incoming[3] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        upd.solve(incoming, values)
    values[4] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        upd.solve(np.ones(5, dtype=complex), values)


def test_checker_update_equivalence_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        l = int(rng.integers(0, 3))
        m = int(rng.integers(0, 4))
        if l + 2 * m == 0:
            continue
        dim = l + 2 * m
        k0 = int(rng.integers(0, dim + 1))
        k1 = dim - k0
        blocks = {}
        for name, rows, cols in (("v0e", k0, l), ("v0i", k0, m), ("v1i", k0, m),
                                 ("w0e", k1, l), ("w0i", k1, m), ("w1i", k1, m)):
            blocks[name] = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        bc = ge.matrices_bc(l=l, m=m, k0=k0, k1=k1, **blocks)
        if rng.random() < 0.3 and dim >= 2:
            # force singularity by duplicating a criterion-matrix row
            rows = np.vstack([bc.v_rows, bc.w_rows])
            rows[-1] = rows[0]
            bc = ge.BoundaryMatricesBC(rows[:k0], rows[k0:], bc.u_rows, m)
        verdict = ge.check_boundary_matrices(bc).well_posed
        try:
            ge.vertex_update_matrix(bc)
            solvable = True
        except ge.SingularUpdateError:
            solvable = False
        assert verdict == solvable


def test_spaces_matrices_consistency_random():
    rng = np.random.default_rng(77)
    for _ in range(100):
        g = random_graph(rng, max_n=5, max_m=4, max_l=2)
        coeffs = random_coeffs(rng, g)
        spaces = ge.from_standard(g, coeffs)
        matrices = ge.to_boundary_matrices(spaces, g.l, g.m)
        assert (ge.check_boundary_spaces(spaces).well_posed
                == ge.check_boundary_matrices(matrices, coeffs).well_posed)


def test_row_scaling_does_not_change_verdict():
    coeffs = ge.unit_coefficients(2, 1)
    base = star3_bc()
    for scale in (1e6, 1e-6):
        w_rows = base.w_rows.copy()
        w_rows[1] *= scale
        scaled = dataclasses.replace(base, w_rows=w_rows)
        assert ge.check_boundary_matrices(scaled, coeffs).well_posed


def test_nonlocal_interval_values():
    ones = np.ones(101)
    zeros = np.zeros(101)
    assert ge.check_nonlocal_interval(zeros, zeros, 0.5).young_bound == 0.0
    rep = ge.check_nonlocal_interval(ones, ones, 0.25)
    assert rep.young_bound == pytest.approx(0.5, abs=1e-12)
    assert rep.well_posed
    rep2 = ge.check_nonlocal_interval(ones, ones, 0.9)
    assert rep2.young_bound == pytest.approx(1.8, abs=1e-12)
    assert rep2.verdict == "Inconclusive"


def test_nonlocal_bad_t0():
    with pytest.raises(ge.BadT0Error):
        ge.check_nonlocal_interval(np.ones(11), np.ones(11), 0.0)
    with pytest.raises(ge.BadT0Error):
        ge.check_nonlocal_interval(np.ones(11), np.ones(11), 1.5)


def test_discretize_zero_kernels_identity():
    r = ge.discretize_nonlocal_R(np.zeros(11), np.zeros(11), 0.5, 8)
    assert np.array_equal(r, np.eye(16))


def test_discretize_lower_triangular_structure():
    r = ge.discretize_nonlocal_R(np.ones(11), np.ones(11), 0.25, 8)
    blocks = np.eye(16) - r
    for block in (blocks[:8, :8], blocks[:8, 8:], blocks[8:, :8], blocks[8:, 8:]):
        assert np.allclose(np.triu(block, 1), 0.0)


@pytest.mark.parametrize("reflected", [False, True])
def test_convolution_block_closed_form(reflected):
    """Entry (i, j) is w h((i - j) dt), with the trapezoid weight w = dt halved at
    j = 0 and j = i, and row 0 is zero.  dt = 1/8 and the samples are dyadic, so
    interpolation and products are exact and the entries are asserted exactly."""
    n, t0 = 5, 0.5
    weights = np.array([[0, 0, 0, 0, 0],
                        [1, 1, 0, 0, 0],
                        [1, 2, 1, 0, 0],
                        [1, 2, 2, 1, 0],
                        [1, 2, 2, 2, 1]]) / 16.0
    lag = np.tril(np.subtract.outer(np.arange(n), np.arange(n))) / 8.0  # (i - j) dt
    s = 1.0 - lag if reflected else lag  # the kernel's argument
    constant = _convolution_block(np.full(9, 3.0 - 2.0j), t0, n, reflected)
    assert np.array_equal(constant, weights * (3.0 - 2.0j))
    linear = _convolution_block(np.array([1.0, 2.0, 3.0]), t0, n, reflected)  # h = 1 + 2s
    assert np.array_equal(linear, weights * (1.0 + 2.0 * s))


def per_row_convolution_block(samples, t0, n, reflected):
    """The per-row trapezoid loop that built the block before one gather did."""
    samples = np.asarray(samples, dtype=complex).ravel()
    grid = np.linspace(0.0, 1.0, samples.size)
    dt = t0 / (n - 1)
    block = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        s = np.arange(i + 1) * dt
        arg = (1.0 - s) if reflected else s
        h = np.interp(arg, grid, samples.real) + 1j * np.interp(arg, grid, samples.imag)
        w = np.full(i + 1, dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        block[i, i::-1] += w * h
    return block


@pytest.mark.parametrize("seed", range(6))
def test_convolution_block_matches_per_row_loop(seed):
    """Bit for bit, signed zeros included.  Samples of a few -5e-324 make
    products that underflow to -0.0 (in the real part, and with negative
    imaginary samples in the imaginary part), which the loop's sum onto +0
    turns into +0.0."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 60))
    samples = rng.normal(size=m) + 1j * rng.normal(size=m)
    if seed % 3 == 1:
        samples = -np.abs(samples) * 1e-323 + 0j
    if seed % 3 == 2:
        samples = -(np.abs(samples.real) + 1j * np.abs(samples.imag)) * 1e-323
    t0, n = float(rng.uniform(0.05, 0.9)), int(rng.choice([4, 17, 64]))
    for reflected in (False, True):
        assert (_convolution_block(samples, t0, n, reflected).tobytes()
                == per_row_convolution_block(samples, t0, n, reflected).tobytes())


def test_nonlocal_soundness():
    ones = np.ones(101)
    rep = ge.check_nonlocal_interval(ones, ones, 0.25)
    beta = rep.young_bound
    for n in (32, 64, 128):
        r = ge.discretize_nonlocal_R(ones, ones, 0.25, n)
        smin = np.linalg.svd(r, compute_uv=False)[-1]
        assert smin >= 1.0 - beta - 10.0 / n


def test_auto_shrink():
    ones = np.ones(101)
    rep = ge.auto_shrink_t0(ones, ones, 0.9)
    assert rep.well_posed
    assert rep.dims["t0"] <= 0.5


def test_permutation_sign_matches_cycle_walk():
    """The pointer-doubling parity against a walk over the cycles."""
    def walked(p):
        seen, sign = [False] * len(p), 1
        for i in range(len(p)):
            length = 0
            while not seen[i]:
                seen[i], i, length = True, p[i], length + 1
            if length and length % 2 == 0:
                sign = -sign
        return sign

    rng = np.random.default_rng(0)
    for n in [0, 1, 2, 3, 5, 8, 64, 1000, 1025]:
        for _ in range(20):
            p = rng.permutation(n)
            assert _permutation_sign(p) == walked(p.tolist())


def test_determinant_reports_no_negative_zero():
    """A zero real or imaginary part of the determinant is +0.0, so no report
    prints -0.0; negating a real determinant used to leave -0.0."""
    for seed in range(20):
        g, coeffs = random_mesh(np.random.default_rng(seed), 8, 12, 2)
        matrices = ge.to_boundary_matrices(ge.from_standard(g, coeffs), g.l, g.m)
        det = ge.check_boundary_matrices(matrices, coeffs).determinant
        assert det != 0.0
        assert not np.signbit([x for x in (det.real, det.imag) if x == 0.0]).any(), seed
