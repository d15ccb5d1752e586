import numpy as np
import pytest
import scipy.linalg

import graphevolve as ge
from graphevolve.bc import _full_column_rank
from conftest import random_coeffs, random_graph


def trace_from_function(f, df, mu_endpoints=None):
    """Interval trace of a scalar function on [0,1]."""
    return ge.make_trace([], [f(0.0)], [f(1.0)], [], [df(0.0)], [df(1.0)],
                         mu_endpoints)


def test_from_standard_interval(interval):
    bc = ge.from_standard(interval, ge.unit_coefficients(1))
    assert bc.d1 == 2 and bc.d0 == 0  # pure Neumann


def test_from_standard_loop(loop):
    bc = ge.from_standard(loop, ge.unit_coefficients(1))
    assert bc.d1 == 1 and bc.d0 == 1
    y1 = bc.y1_basis[:, 0]
    y0 = bc.y0_basis[:, 0]
    assert np.allclose(y1 / y1[0], [1, 1])
    assert np.allclose(y0 / y0[0], [1, -1])


def test_from_standard_star_orthogonal(star):
    bc = ge.from_standard(star, ge.unit_coefficients(2, 1))
    assert bc.d1 == 3 and bc.d0 == 2
    assert np.allclose(bc.y0_basis.conj().T @ bc.y1_basis, 0.0, atol=1e-12)
    joint = np.hstack([bc.y0_basis, bc.y1_basis])
    assert np.linalg.matrix_rank(joint) == 5


def test_standard_spans_trace_space_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = random_graph(rng)
        bc = ge.from_standard(g, random_coeffs(rng, g))
        joint = np.hstack([bc.y0_basis, bc.y1_basis])
        assert np.linalg.matrix_rank(joint) == g.trace_dim
        assert np.array_equal(bc.y1_basis, ge.continuity_space(g))  # columns in vertex order


def test_from_delta_zero_equals_standard(star):
    coeffs = ge.unit_coefficients(2, 1)
    std = ge.from_standard(star, coeffs)
    delta = ge.from_delta(star, coeffs, ge.DeltaCoupling(np.zeros(3)))
    assert np.array_equal(std.y1_basis, delta.y1_basis)
    assert np.array_equal(std.y0_basis, delta.y0_basis)
    assert np.allclose(delta.local_U, 0.0)


def test_from_delta_star_weights():
    g = ge.MetricGraph(4, [(0, 1), (0, 2), (0, 3)])
    coeffs = ge.unit_coefficients(3)
    bc = ge.from_delta(g, coeffs, ge.DeltaCoupling([3.0, 0, 0, 0]))
    # center has degree 3; every edge leaves it at s=0, weight alpha/deg = 1
    diag = np.diag(bc.local_U)
    assert np.allclose(diag[:3], -1.0)  # minus from the membership convention
    assert np.allclose(diag[3:], 0.0)


def test_from_delta_isolated_vertex_rejected():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = ge.MetricGraph(3, [(0, 1)])
    with pytest.raises(ge.ZeroDegreeVertexError):
        ge.from_delta(g, ge.unit_coefficients(1), ge.DeltaCoupling([0, 0, 1.0]))


def test_from_delta_interval_robin(interval):
    """Delta coupling on an interval gives Robin terms a0, a1 at the ends."""
    a0, a1 = 0.7, -1.3
    coeffs = ge.unit_coefficients(1)
    bc = ge.from_delta(interval, coeffs, ge.DeltaCoupling([a0, a1]))
    # f'(0) = a0 f(0) and -f'(1) = a1 f(1) satisfy the conditions
    f0, f1 = 2.0, -0.4
    trace = ge.make_trace([], [f0], [f1], [], [a0 * f0], [-a1 * f1])
    assert np.allclose(ge.value_residual(bc, trace), 0.0, atol=1e-12)
    assert np.allclose(ge.flux_residual(bc, trace), 0.0, atol=1e-12)


def test_from_nonlocal_diagonal_matches_delta():
    g = ge.MetricGraph(4, [(0, 1), (0, 2), (0, 3)])
    coeffs = ge.unit_coefficients(3)
    delta = ge.from_delta(g, coeffs, ge.DeltaCoupling([3.0, 0, 0, 0]))
    d_minus = np.diag([1.0, 1.0, 1.0])
    nl = ge.from_nonlocal_matrices(g, coeffs, np.zeros((0, 0)), d_minus,
                                   np.zeros((3, 3)))
    assert np.allclose(nl.local_U, delta.local_U)


def test_from_nonlocal_zero_matches_standard(star):
    coeffs = ge.unit_coefficients(2, 1)
    std = ge.from_standard(star, coeffs)
    nl = ge.from_nonlocal_matrices(star, coeffs, np.zeros((1, 1)),
                                   np.zeros((2, 2)), np.zeros((2, 2)))
    assert np.array_equal(nl.y1_basis, std.y1_basis)
    assert np.allclose(nl.local_U, 0.0)


def test_zeroth_order_terms_store_no_zeros():
    """The delta and nonlocal-matrices builders store only the nonzeros of
    local_U = -C M (unit speeds here, so C = I)."""
    g = ge.MetricGraph(4, [(0, 1), (0, 2), (0, 3)])
    coeffs = ge.unit_coefficients(3)
    zero, m = np.zeros((3, 3)), np.array([[0.5, 0, 0], [0, 0, 0], [0.25, 0, 1j]])
    for bc, local_u in (
            (ge.from_nonlocal_matrices(g, coeffs, np.zeros((0, 0)), zero, zero), np.zeros((6, 6))),
            (ge.from_nonlocal_matrices(g, coeffs, np.zeros((0, 0)), m, m.T),
             -np.block([[m, zero], [zero, m.T]])),
            (ge.from_delta(g, coeffs, ge.DeltaCoupling([3.0, 0, 0, 0])),
             -np.diag([1.0, 1, 1, 0, 0, 0]))):
        assert bc.sparse_U.nnz == np.count_nonzero(local_u)
        assert np.all(bc.sparse_U.data != 0)
        assert np.array_equal(bc.local_U, local_u)


def test_matrix_mixed_zero_is_neumann(interval):
    bc = ge.from_matrix_mixed(interval, np.zeros((2, 2)))
    assert bc.d0 == 0 and bc.d1 == 2
    trace = trace_from_function(lambda s: np.cos(np.pi * s),
                                lambda s: -np.pi * np.sin(np.pi * s))
    assert np.allclose(ge.flux_residual(bc, trace), 0.0, atol=1e-12)


def test_matrix_mixed_robin(interval):
    bc = ge.from_matrix_mixed(interval, [[-1.0, 0.0], [0.0, -1.0]])
    # f'(0) = -f(0), f'(1) = -f(1): f(s) = e^{-s}
    trace = trace_from_function(np.exp, lambda s: np.exp(s))
    trace = ge.make_trace([], [1.0], [np.e], [], [-1.0], [-np.e])
    assert np.allclose(ge.flux_residual(bc, trace), 0.0, atol=1e-12)


def test_matrix_mixed_requires_compact(star):
    with pytest.raises(ge.ExternalEdgesPresentError):
        ge.from_matrix_mixed(star, np.zeros((4, 4)))


def test_generalized_node_periodic(interval, loop):
    """Y = span(1,1), W = 0 accepts exactly the loop-periodic traces."""
    coeffs = ge.unit_coefficients(1)
    gen = ge.from_generalized_node(interval, np.array([[1.0], [1.0]]),
                                   np.zeros((1, 1)), coeffs)
    std_loop = ge.from_standard(loop, coeffs)
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        tr = ge.TraceVector(v, f)
        ok_gen = (np.allclose(ge.value_residual(gen, tr), 0, atol=1e-10)
                  and np.allclose(ge.flux_residual(gen, tr), 0, atol=1e-10))
        ok_std = (np.allclose(ge.value_residual(std_loop, tr), 0, atol=1e-10)
                  and np.allclose(ge.flux_residual(std_loop, tr), 0, atol=1e-10))
        assert ok_gen == ok_std


def test_generalized_node_full_space_neumann(interval):
    bc = ge.from_generalized_node(interval, np.eye(2), np.zeros((2, 2)),
                                  ge.unit_coefficients(1))
    assert bc.d0 == 0 and bc.d1 == 2


def test_generalized_node_rank_deficient(interval):
    with pytest.raises(ge.RankDeficientBasisError):
        ge.from_generalized_node(interval, np.array([[1.0, 2.0], [1.0, 2.0]]),
                                 np.zeros((2, 2)), ge.unit_coefficients(1))


def test_to_boundary_matrices_periodic(loop):
    coeffs = ge.unit_coefficients(1)
    bm = ge.to_boundary_matrices(ge.from_standard(loop, coeffs), 0, 1)
    assert bm.k0 == 1 and bm.k1 == 1
    # value row proportional to (1, -1); flux row to (1, 1) in trace order
    assert np.isclose(bm.v_rows[0, 0], -bm.v_rows[0, 1])
    assert np.isclose(bm.w_rows[0, 0], bm.w_rows[0, 1])


@pytest.mark.parametrize("l, m", [(2, 3), (0, 2), (3, 0)], ids=["l2-m3", "l0", "m0"])
def test_matrices_bc_places_blocks_at_trace_columns(l, m):
    """*0e blocks fill trace columns [0, l), *0i [l, l+m) and *1i [l+m, l+2m)."""
    dim = l + 2 * m
    k0, k1 = dim // 2, dim - dim // 2
    columns = {"0e": slice(0, l), "0i": slice(l, l + m), "1i": slice(l + m, dim)}
    for kind, k, field in (("v", k0, "v_rows"), ("w", k1, "w_rows"), ("u", k1, "u_rows")):
        for end, cols in columns.items():
            width = cols.stop - cols.start
            block = np.arange(1, k * width + 1).reshape(k, width)
            bc = ge.matrices_bc(l=l, m=m, k0=k0, k1=k1, **{kind + end: block})
            assert (bc.l, bc.m, bc.k0, bc.k1, bc.trace_dim) == (l, m, k0, k1, dim)
            expected = np.zeros((k, dim))
            expected[:, cols] = block
            assert np.array_equal(getattr(bc, field), expected)
            for other in ("v_rows", "w_rows", "u_rows"):
                if other != field:
                    assert not getattr(bc, other).any()


def test_boundary_matrices_rejects_bad_shapes():
    v, w = np.zeros((1, 3)), np.zeros((2, 3))
    assert ge.BoundaryMatricesBC(v, w, w, 1).l == 1
    with pytest.raises(ge.DimensionMismatchError, match="m = 2"):
        ge.BoundaryMatricesBC(v, w, w, 2)  # 2m > trace dim
    with pytest.raises(ge.DimensionMismatchError, match="u_rows"):
        ge.BoundaryMatricesBC(v, w, np.zeros((1, 3)), 1)
    with pytest.raises(ge.DimensionMismatchError, match="w_rows"):
        ge.BoundaryMatricesBC(v, np.zeros((2, 4)), np.zeros((2, 4)), 1)


def test_to_boundary_matrices_neumann(interval):
    bm = ge.to_boundary_matrices(ge.from_standard(interval, ge.unit_coefficients(1)), 0, 1)
    assert bm.k0 == 0 and bm.k1 == 2


def test_to_boundary_matrices_not_complementary():
    e1 = np.array([[1.0], [0.0]])
    bc = ge.BoundarySpacesBC(e1, e1)
    with pytest.raises(ge.NotComplementaryError):
        ge.to_boundary_matrices(bc, 0, 1)


def _tilted_conditions():
    """The two dim-2 pairs on which the conversion and the DirectSum check once
    disagreed, then seeded conditions of 1-3 dense vertex blocks in which one
    Y0 column lies 10^-k from a Y1 column, k = 8..16."""
    for y1, y0 in (((1, 1), (1, 1 + 1e-12)), ((1, 1e-14), (1, 2e-14))):
        yield ge.BoundarySpacesBC(np.array(y1)[:, None], np.array(y0)[:, None])
    rng = np.random.default_rng(25)
    for k in range(8, 17):
        for count in (1, 2, 3):
            y1s, y0s = [], []
            for _ in range(count):
                n = int(rng.integers(2, 5))
                a = int(rng.integers(1, n))
                basis = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                y1s.append(basis[:, :a])
                y0s.append(basis[:, a:])
            y0s[0][:, 0] = y1s[0][:, 0] + 10.0 ** -k * rng.standard_normal(y1s[0].shape[0])
            yield ge.BoundarySpacesBC(scipy.linalg.block_diag(*y1s), scipy.linalg.block_diag(*y0s))


def test_conversion_refuses_exactly_what_the_direct_sum_check_refuses():
    verdicts = set()
    for bc in _tilted_conditions():
        refused = ge.check_boundary_spaces(bc).verdict == "NotWellPosed"
        try:
            ge.to_boundary_matrices(bc, bc.trace_dim, 0)
            converted = True
        except ge.NotComplementaryError:
            converted = False
        assert converted != refused
        verdicts.add(refused)
    assert verdicts == {True, False}


def _reference_full_column_rank(stack):
    """Every (n x a) block has a singular values above max(n, a) * eps * sigma_max."""
    _, n, a = stack.shape
    if a == 0 or a > n:
        return a == 0
    s = np.linalg.svd(stack, compute_uv=False)
    return bool(np.all(s[:, -1] > max(n, a) * np.finfo(float).eps * s[:, 0]))


def test_full_column_rank_is_the_reference_rule_on_near_deficient_stacks():
    rng = np.random.default_rng(7)
    outcomes = set()
    for _ in range(1500):
        count, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        a = int(rng.integers(0, n + 2))
        shape = (count, n, a)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if a > 1:  # make the last column nearly a combination of the others
            mix = rng.standard_normal((count, a - 1, 1))
            noise = 10.0 ** -rng.uniform(13.0, 17.0) * rng.standard_normal((count, n))
            stack[:, :, -1] = (stack[:, :, :-1] @ mix)[:, :, 0] + noise
        want = _reference_full_column_rank(stack)
        assert _full_column_rank(stack) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_mu_endpoints_length_is_checked():
    with pytest.raises(ge.DimensionMismatchError, match="mu_endpoints"):
        ge.BoundarySpacesBC([[1], [1]], [[1], [-1]], mu_endpoints=np.ones(3))
    bc = ge.BoundarySpacesBC([[1], [1]], [[1], [-1]], mu_endpoints=[2, 2])
    assert bc.mu_endpoints.dtype == float and bc.mu_endpoints.shape == (2,)


def test_nonlocal_interval_has_no_trace_rows():
    """Y1 = C^2, Y0 = {0} only hold the kernels' place: read as trace
    conditions they would say Neumann."""
    bc = ge.from_nonlocal_interval(np.full(11, 0.8), np.full(11, 0.8))
    trace = trace_from_function(lambda s: 1.0 + s, lambda s: 1.0)
    for call in (lambda: ge.check_boundary_spaces(bc),
                 lambda: ge.to_boundary_matrices(bc, 0, 1),
                 lambda: ge.value_residual(bc, trace),
                 lambda: ge.flux_residual(bc, trace)):
        with pytest.raises(ge.UnsupportedNonlocalConditionError):
            call()


def test_kernel_values_reads_samples_on_a_grid_of_their_own_length():
    """Three samples lie at 0, 1/2, 1 and two at 0, 1, whatever the other
    kernel's length; real and imaginary parts are linear between them."""
    from graphevolve.bc import kernel_values
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(kernel_values([0.0, 1j, 2.0], x), [0.0, 0.5j, 1j, 1.0 + 0.5j, 2.0],
                       rtol=0.0, atol=1e-15)
    assert np.allclose(kernel_values(np.array([[1.0, 3.0 - 4j]]), x),
                       [1.0, 1.5 - 1j, 2.0 - 2j, 2.5 - 3j, 3.0 - 4j], rtol=0.0, atol=1e-15)


def test_round_trip_residual_equivalence():
    rng = np.random.default_rng(31)
    coeffs = ge.EdgeCoefficients((ge.constant(2.0), ge.constant(0.5)),
                                 (ge.constant(1.5),))
    g = ge.MetricGraph(3, [(0, 1), (1, 2)], [0])
    spaces = ge.from_delta(g, coeffs, ge.DeltaCoupling([0.4, -0.2, 1.0]))
    matrices = ge.to_boundary_matrices(spaces, 1, 2)
    dim = g.trace_dim
    for _ in range(100):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        f = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        tr = ge.TraceVector(v, f)
        res_s = np.concatenate([ge.value_residual(spaces, tr),
                                ge.flux_residual(spaces, tr)])
        res_m = np.concatenate([ge.value_residual(matrices, tr),
                                ge.flux_residual(matrices, tr, coeffs)])
        assert (np.max(np.abs(res_s)) < 1e-10) == (np.max(np.abs(res_m)) < 1e-10)
        # also check on a projected admissible trace
        if np.max(np.abs(res_s)) >= 1e-10:
            y1 = spaces.y1_basis
            v_ok = y1 @ np.linalg.lstsq(y1, v, rcond=None)[0]
            y0 = spaces.y0_basis
            target = f + spaces.local_U @ v_ok
            f_ok = y0 @ np.linalg.lstsq(y0, target, rcond=None)[0] - spaces.local_U @ v_ok
            tr_ok = ge.TraceVector(v_ok, f_ok)
            assert np.max(np.abs(ge.value_residual(matrices, tr_ok))) < 1e-10
            assert np.max(np.abs(ge.flux_residual(matrices, tr_ok, coeffs))) < 1e-10


def test_dirichlet_residual_examples():
    bc = ge.matrices_bc(l=0, m=1, k0=2, k1=0, v0i=[[1], [0]], v1i=[[0], [1]])
    tr_sine = trace_from_function(lambda s: np.sin(np.pi * s),
                                  lambda s: np.pi * np.cos(np.pi * s))
    assert np.allclose(ge.value_residual(bc, tr_sine), 0.0, atol=1e-15)
    tr_one = trace_from_function(lambda s: 1.0, lambda s: 0.0)
    assert np.allclose(ge.value_residual(bc, tr_one), [1.0, 1.0])


def test_kernel_witness_residuals():
    """f(s) = e^{sqrt(lam) s} - e^{sqrt(lam)(1-s)} satisfies the coupled conditions."""
    bc = ge.matrices_bc(l=0, m=1, k0=1, k1=1,
                        v0i=[[1]], v1i=[[1]], w0i=[[1]], w1i=[[1]])
    for lam in (1.0, 2.0, 2 + 3j):
        r = np.sqrt(complex(lam))
        f = lambda s: np.exp(r * s) - np.exp(r * (1 - s))
        df = lambda s: r * (np.exp(r * s) + np.exp(r * (1 - s)))
        tr = ge.make_trace([], [f(0.0)], [f(1.0)], [], [df(0.0)], [df(1.0)])
        assert np.max(np.abs(ge.value_residual(bc, tr))) < 1e-12
        assert np.max(np.abs(ge.flux_residual(bc, tr))) < 1e-12


def test_row_scaling_invariance():
    rng = np.random.default_rng(13)
    bc = ge.matrices_bc(l=0, m=1, k0=1, k1=1,
                        v0i=[[1]], v1i=[[-1]], w0i=[[1]], w1i=[[1]])
    scaled = ge.matrices_bc(l=0, m=1, k0=1, k1=1,
                            v0i=[[1e6]], v1i=[[-1e6]], w0i=[[1e-6]], w1i=[[1e-6]])
    for _ in range(20):
        v = rng.normal(size=2)
        f = rng.normal(size=2)
        tr = ge.TraceVector(v, f)
        zero_a = (np.max(np.abs(ge.value_residual(bc, tr))) < 1e-9
                  and np.max(np.abs(ge.flux_residual(bc, tr))) < 1e-9)
        zero_b = (np.max(np.abs(ge.value_residual(scaled, tr))) < 1e-9 * 1e6
                  and np.max(np.abs(ge.flux_residual(scaled, tr))) < 1e-9 * 1e-6)
        assert zero_a == zero_b
