import copy
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import graphevolve as ge
from conftest import dirichlet_interval_bc, random_coeffs, random_graph
from graphevolve import heat
from graphevolve.config import parse_config
from graphevolve.graph import continuity_space
from graphevolve.heat import energy, factorize, mass

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def dirichlet_spaces(interval):
    return dirichlet_interval_bc()


def sine_initial():
    return ge.InitialData((ge.EdgeInitial(ge.sine_mode(1)),), ())


def test_theta_range_validation(interval):
    with pytest.raises(ValueError):
        ge.heat_init(interval, ge.unit_coefficients(1), dirichlet_spaces(interval),
                     sine_initial(), dt=1e-3, theta=0.2)


def test_rejects_ill_posed_bc(interval):
    bad = ge.matrices_bc(l=0, m=1, k0=1, k1=1, v0i=[[1]], u1i=[[1]])
    coeffs = ge.unit_coefficients(1)
    with pytest.raises(ge.NotWellPosedError) as info:
        ge.heat_init(interval, coeffs, bad, sine_initial(), dt=1e-3)
    assert info.value.report == ge.check_boundary_matrices(bad, coeffs)
    assert info.value.report.verdict == "NotWellPosed"


def test_dirichlet_decay_rate(interval):
    st = ge.heat_init(interval, ge.unit_coefficients(1), dirichlet_spaces(interval),
                      sine_initial(), dt=1e-4, theta=0.5, n_per_edge=200)
    st, _, snaps = ge.heat_run(st, 0.1, record_stride=1000)
    u0 = np.max(np.abs(snaps[0][1][0]))
    u1 = np.max(np.abs(snaps[-1][1][0]))
    rate = -np.log(u1 / u0) / (snaps[-1][0] - snaps[0][0])
    assert rate == pytest.approx(np.pi**2, rel=1e-2)


def test_dirichlet_profile_stays_sinusoidal(interval):
    st = ge.heat_init(interval, ge.unit_coefficients(1), dirichlet_spaces(interval),
                      sine_initial(), dt=1e-3, theta=0.5, n_per_edge=100)
    for _ in range(50):
        ge.heat_step(st)
    u = st.internal[0].u.real
    shape = np.sin(np.pi * st.internal[0].s)
    scale = u[len(u) // 2] / shape[len(shape) // 2]
    assert np.max(np.abs(u - scale * shape)) <= 2e-3 * abs(scale)


def test_kirchhoff_constant_is_equilibrium(compact_star):
    coeffs = ge.EdgeCoefficients(tuple(ge.constant(c) for c in (1.0, 2.0, 0.5)), ())
    bc = ge.from_standard(compact_star, coeffs)
    one = ge.custom_samples(np.ones(11))
    init = ge.InitialData(tuple(ge.EdgeInitial(one) for _ in range(3)), ())
    st = ge.heat_init(compact_star, coeffs, bc, init, dt=1e-3, n_per_edge=40)
    st, _, _ = ge.heat_run(st, 0.2, record_stride=100)
    for e in st.internal:
        assert np.max(np.abs(e.u.real - 1.0)) <= 1e-10


def test_kirchhoff_mass_conservation(compact_star):
    coeffs = ge.EdgeCoefficients(tuple(ge.constant(c) for c in (1.0, 2.0, 0.5)), ())
    bc = ge.from_standard(compact_star, coeffs)
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.1)),
                           ge.EdgeInitial(ge.zero_profile()),
                           ge.EdgeInitial(ge.zero_profile())), ())
    st = ge.heat_init(compact_star, coeffs, bc, init, dt=1e-3, n_per_edge=100)
    st, diag, _ = ge.heat_run(st, 1.0, record_stride=50)
    mvals = np.array(diag.mass)
    assert np.max(np.abs(mvals - mvals[0])) <= 1e-8 * abs(mvals[0])


def test_delta_coupling_dissipates_mass(compact_star):
    coeffs = ge.unit_coefficients(3)
    bc = ge.from_delta(compact_star, coeffs, ge.DeltaCoupling([2.0, 0.0, 0.0, 0.0]))
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.3, 0.1)),
                           ge.EdgeInitial(ge.zero_profile()),
                           ge.EdgeInitial(ge.zero_profile())), ())
    st = ge.heat_init(compact_star, coeffs, bc, init, dt=1e-3, n_per_edge=60)
    m0 = mass(st)
    st, _, _ = ge.heat_run(st, 0.5, record_stride=100)
    assert mass(st) < 0.99 * m0


def test_implicit_euler_max_principle(interval):
    rng = np.random.default_rng(13)
    init = ge.InitialData(
        (ge.EdgeInitial(ge.custom_samples(rng.uniform(0.0, 1.0, 101))),), ())
    st = ge.heat_init(interval, ge.unit_coefficients(1), dirichlet_spaces(interval),
                      init, dt=1e-3, theta=1.0, n_per_edge=100)
    prev = np.max(np.abs(st.internal[0].u.real))
    for _ in range(200):
        ge.heat_step(st)
        cur = np.max(np.abs(st.internal[0].u.real))
        assert cur <= prev + 1e-10
        prev = cur


def test_crank_nicolson_refinement_order(interval):
    def error(n, dt):
        st = ge.heat_init(interval, ge.unit_coefficients(1),
                          dirichlet_spaces(interval), sine_initial(),
                          dt=dt, theta=0.5, n_per_edge=n)
        steps = round(0.02 / dt)
        for _ in range(steps):
            ge.heat_step(st)
        exact = np.exp(-np.pi**2 * st.t) * np.sin(np.pi * st.internal[0].s)
        return np.max(np.abs(st.internal[0].u.real - exact))

    # halving h and dt together should shrink the error ~4x for theta = 1/2
    assert error(50, 4e-4) / error(100, 2e-4) >= 3.5


def test_loop_periodic_mass_and_smoothing(loop):
    coeffs = ge.unit_coefficients(1)
    bc = ge.from_standard(loop, coeffs)
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.08)),), ())
    st = ge.heat_init(loop, coeffs, bc, init, dt=1e-3, n_per_edge=100)
    m0 = mass(st)
    e0 = energy(st)
    st, _, _ = ge.heat_run(st, 0.5, record_stride=100)
    assert mass(st) == pytest.approx(m0, rel=1e-8)
    assert energy(st) < e0
    # by t = 0.5 the loop profile is nearly flat at its mean value
    assert np.max(np.abs(st.internal[0].u.real - m0)) <= 1e-3


def test_nonlocal_interval_bc_residual(interval):
    kernels = ge.from_nonlocal_interval(np.full(101, 0.8), np.full(101, 0.8))
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.1)),), ())
    st = ge.heat_init(interval, ge.unit_coefficients(1), kernels, init,
                      dt=1e-3, n_per_edge=100)
    for _ in range(20):
        ge.heat_step(st)
    u = st.internal[0].u
    s = st.internal[0].s
    for endpoint, h in ((u[0], 0.8), (u[-1], 0.8)):
        quad = h * np.trapezoid(u, s)
        assert abs(endpoint - quad) <= 1e-12 * max(1.0, np.max(np.abs(u)))


def test_nonlocal_rejects_bad_kernels(interval):
    kernels = ge.from_nonlocal_interval(np.full(101, 5000.0), np.full(101, 5000.0))
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.1)),), ())
    with pytest.raises(ge.NotWellPosedError) as info:
        ge.heat_init(interval, ge.unit_coefficients(1), kernels, init, dt=1e-3)
    # the search halves t0 from 1 and gives up at 2^-10
    assert info.value.report == ge.auto_shrink_t0(*kernels.nonlocal_kernels, 1.0)
    assert info.value.report.dims["t0"] == 2.0**-10
    assert info.value.report.verdict == "Inconclusive"


def test_external_edge_decay(star):
    coeffs = ge.unit_coefficients(2, 1)
    bc = ge.from_standard(star, coeffs)
    init = ge.InitialData(
        (ge.EdgeInitial(ge.gaussian(0.5, 0.1)), ge.EdgeInitial(ge.zero_profile())),
        (ge.EdgeInitial(ge.zero_profile(length=5.0)),))
    st = ge.heat_init(star, coeffs, bc, init, dt=1e-3, n_per_edge=40,
                      external_lengths=(5.0,))
    m0 = mass(st)
    st, _, _ = ge.heat_run(st, 0.3, record_stride=100)
    # far-end absorption means total mass can only decrease slightly here
    assert 0.9 * m0 <= mass(st) <= m0 + 1e-10
    assert np.max(np.abs(st.external[0].u.real)) > 1e-6  # heat reached the lead


def gaussian_star_state(g, n_per_edge=100):
    coeffs = ge.EdgeCoefficients(tuple(ge.constant(0.5 + 1.5 * j / g.m)
                                       for j in range(g.m)), ())
    init = ge.InitialData(tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.1) if j == 0
                                               else ge.zero_profile())
                                for j in range(g.m)), ())
    return ge.heat_init(g, coeffs, ge.from_standard(g, coeffs), init, dt=1e-3,
                        n_per_edge=n_per_edge)


def test_deepcopy_steps_bit_identically(compact_star):
    st = gaussian_star_state(compact_star)
    twin = copy.deepcopy(st)
    for _ in range(10):
        ge.heat_step(st)
        ge.heat_step(twin)
    assert np.array_equal(st.vector(), twin.vector())
    assert twin.internal[0].u is not st.internal[0].u


def test_generic_y0_takes_matrices_path():
    """Y1 = continuity space with a Y0 other than C * Y1-perp is not Kirchhoff."""
    text = (CONFIGS / "kirchhoff-star-heat.cfg").read_text()
    kirchhoff = parse_config(text)
    y1 = continuity_space(kirchhoff.graph)
    y0 = np.random.default_rng(0).standard_normal((y1.shape[0], 2))

    def rows(x):
        return "[" + ", ".join("[" + ", ".join(repr(float(v)) for v in r) + "]"
                               for r in x.real) + "]"

    cfg = parse_config(text.replace(
        "kind: standard",
        f"kind: boundary_spaces\n  y1_basis: {rows(y1)}\n  y0_basis: {rows(y0)}"))
    assert ge.check_boundary_spaces(cfg.bc).well_posed

    def final(bc):
        st = ge.heat_init(cfg.graph, cfg.coeffs, bc, cfg.initial, cfg.sim.dt,
                          n_per_edge=cfg.sim.n_per_edge)
        st, _, _ = ge.heat_run(st, cfg.sim.T, cfg.sim.record_stride)
        return st

    spaces = final(cfg.bc)
    matrices = final(ge.to_boundary_matrices(cfg.bc, cfg.graph.l, cfg.graph.m))
    standard = final(kirchhoff.bc)
    assert (spaces.path, matrices.path, standard.path) == ("matrices", "matrices",
                                                           "continuity")
    assert np.array_equal(spaces.vector(), matrices.vector())
    assert mass(spaces) == pytest.approx(0.3402, abs=1e-4)
    assert mass(standard) == pytest.approx(0.4259, abs=1e-4)


@pytest.mark.parametrize("build", [
    lambda g, c: ge.from_standard(g, c),
    lambda g, c: ge.from_delta(g, c, ge.DeltaCoupling([2.0, 0.0, 0.0, 0.0])),
    lambda g, c: ge.from_nonlocal_matrices(g, c, np.zeros((0, 0)),
                                           0.3 * np.eye(3), 0.1 * np.ones((3, 3))),
], ids=["standard", "delta", "nonlocal-matrices"])
def test_continuity_builders_take_finite_volume_path(compact_star, build):
    coeffs = ge.EdgeCoefficients(tuple(ge.constant(c) for c in (1.0, 2.0, 0.5)), ())
    init = ge.InitialData(tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.1))
                                for _ in range(3)), ())
    st = ge.heat_init(compact_star, coeffs, build(compact_star, coeffs), init,
                      dt=1e-3, n_per_edge=40)
    assert st.path == "continuity"


def test_continuity_and_matrices_paths_converge_to_each_other():
    """Heat through a spaces BC (continuity path) and through its boundary
    matrices agree to second order in h; dt ~ h^2 keeps the time error below.
    One random graph per builder: Kirchhoff, delta, then nonlocal matrices."""
    rng = np.random.default_rng(0)
    T = 0.1
    for builder in ("standard", "delta", "nonlocal_matrices"):
        g = random_graph(rng, max_l=0)
        coeffs = random_coeffs(rng, g)
        if builder == "standard":
            bc = ge.from_standard(g, coeffs)
        elif builder == "delta":
            degree = np.bincount(np.ravel(g.internal_edges), minlength=g.n)
            alpha = np.where(degree > 0, rng.uniform(0.0, 2.0, g.n), 0.0)
            bc = ge.from_delta(g, coeffs, ge.DeltaCoupling(alpha))
        else:
            bc = ge.from_nonlocal_matrices(g, coeffs, np.zeros((0, 0)),
                                           rng.uniform(-1.0, 1.0, (g.m, g.m)),
                                           rng.uniform(-1.0, 1.0, (g.m, g.m)))
        init = ge.InitialData(tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.1))
                                    for _ in range(g.m)), ())
        gaps = []
        for n in (16, 32, 64):
            finals = []
            for form in (bc, ge.to_boundary_matrices(bc, g.l, g.m)):
                st = ge.heat_init(g, coeffs, form, init, T / (2 * n * n), n_per_edge=n)
                st, _, _ = ge.heat_run(st, T, record_stride=2 * n * n)
                finals.append((st.path, st.vector()))
            (path_a, a), (path_b, b) = finals
            assert (path_a, path_b) == ("continuity", "matrices")
            gaps.append(np.linalg.norm(a - b) / np.linalg.norm(a))
        # 16 -> 32 is still pre-asymptotic on some graphs (ratios down to 2.8)
        assert gaps[0] / gaps[1] >= 2.5, gaps
        assert gaps[1] / gaps[2] >= 3.0, gaps
        assert gaps[2] <= 1e-3, gaps


def test_gate_refuses_exactly_singular_matrix():
    a = scipy.sparse.csc_array(np.array([[1.0, 2.0, 0.0],
                                         [2.0, 4.0, 0.0],
                                         [0.0, 0.0, 1.0]], dtype=complex))
    with pytest.raises(ge.SingularSystemError, match="singular"):
        factorize(a)


def test_gate_refuses_ill_conditioned_matrix():
    n = 50
    diag = np.ones(n)
    diag[-1] = 1e-11  # cond_1 = 1e11 > 1e12 / n, yet SuperLU factors it
    a = scipy.sparse.diags_array(diag.astype(complex), format="csc")
    with pytest.raises(ge.SingularSystemError, match="cond_1"):
        factorize(a)
    diag[-1] = 1e-9  # cond_1 = 1e9 < 1e12 / n
    factor, cond = factorize(scipy.sparse.diags_array(diag.astype(complex), format="csc"))
    assert cond == pytest.approx(1e9, rel=1e-12)
    assert np.allclose(factor.solve(diag.astype(complex)), 1.0)


def test_gate_estimate_has_no_overflow_on_subnormal_solves(monkeypatch):
    """Solves with subnormal entries once made onenormest divide by ~0."""
    captured = []

    def spy(a):
        captured.append(a)
        return factorize(a)

    monkeypatch.setattr(heat, "factorize", spy)
    rng = np.random.default_rng(0)
    g = random_graph(rng, max_l=0)
    coeffs = random_coeffs(rng, g)
    init = ge.InitialData(tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.1))
                                for _ in range(g.m)), ())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = ge.heat_init(g, coeffs, ge.from_standard(g, coeffs), init, 0.02 / 8192,
                          n_per_edge=64)
    dense = captured[0].toarray()
    exact = np.linalg.norm(dense, 1) * np.linalg.norm(np.linalg.inv(dense), 1)
    assert exact / 3.0 <= st.cond_estimate <= exact * (1.0 + 1e-12)


def test_gate_estimate_bounds_condition_number():
    rng = np.random.default_rng(5)
    dense = 4.0 * np.eye(40) + rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.1)
    _, cond = factorize(scipy.sparse.csc_array(dense.astype(complex)))
    exact = np.linalg.norm(dense, 1) * np.linalg.norm(np.linalg.inv(dense), 1)
    assert exact / 3.0 <= cond <= exact * (1.0 + 1e-12)


@pytest.mark.parametrize("name", ["kirchhoff-star-heat", "nonlocal-interval"])
def test_shipped_heat_configs_pass_gate(name):
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    assert cfg.sim.equation == "heat"
    st = ge.heat_init(cfg.graph, cfg.coeffs, cfg.bc, cfg.initial, cfg.sim.dt,
                      theta=cfg.sim.theta, n_per_edge=cfg.sim.n_per_edge,
                      external_lengths=cfg.external_lengths)
    assert 1.0 <= st.cond_estimate < 1e12 / st.vector().size


def test_twenty_thousand_unknowns_fit_and_conserve_mass():
    """20-edge Kirchhoff star, N = 20,020: dense a and b would need 6.4 GB each."""
    g = ge.MetricGraph(21, [(0, j + 1) for j in range(20)])
    st = gaussian_star_state(g, n_per_edge=1000)
    n = st.vector().size
    assert n == 20020
    assert scipy.sparse.issparse(st.explicit) and st.explicit.nnz <= 5 * n
    m0 = mass(st)
    for _ in range(5):
        ge.heat_step(st)
    assert abs(mass(st) - m0) <= 1e-8 * abs(m0)
