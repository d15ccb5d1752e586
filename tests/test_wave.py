import copy
import math

import numpy as np
import pytest
import scipy.linalg

import graphevolve as ge
from conftest import dirichlet_interval_bc, periodic_loop_bc, star3_bc
from graphevolve.wave import energy, mass


def kirchhoff_star_matrices(g, coeffs):
    return ge.to_boundary_matrices(ge.from_standard(g, coeffs), g.l, g.m)


def right_moving_pulse(center=0.5, width=0.05):
    """u0 Gaussian, u1 = -u0': a purely right-moving d'Alembert solution."""
    prof = ge.gaussian(center, width)
    sgrid = np.linspace(0.0, 1.0, 4001)
    vel = ge.custom_samples(-prof.derivative(sgrid))
    return ge.EdgeInitial(prof, vel)


def test_init_snapping_arithmetic(interval):
    coeffs = ge.EdgeCoefficients((ge.constant(4.0),), ())
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.05)),), ())
    st = ge.wave_init(interval, coeffs, dirichlet_interval_bc(), init,
                      dt_target=1 / 100, T=1.0)
    assert st.internal[0].s.size - 1 == 50
    assert st.internal[0].mu == pytest.approx(2.0)


def test_init_dirichlet_riemann_invariants(interval):
    coeffs = ge.unit_coefficients(1)
    init = ge.InitialData((ge.EdgeInitial(ge.sine_mode(1)),), ())
    st = ge.wave_init(interval, coeffs, dirichlet_interval_bc(), init,
                      dt_target=1 / 200, T=1.0)
    s = st.internal[0].s
    assert np.allclose(st.internal[0].p.real, np.pi * np.cos(np.pi * s), atol=1e-12)
    assert np.allclose(st.internal[0].q.real, -np.pi * np.cos(np.pi * s), atol=1e-12)


def test_init_rejects_variable_coefficients(interval):
    coeffs = ge.EdgeCoefficients((ge.quadratic_square(1.0, 1.0),), ())
    init = ge.InitialData((ge.EdgeInitial(ge.zero_profile()),), ())
    with pytest.raises(ge.UnsupportedVariableCoefficientError):
        ge.wave_init(interval, coeffs, dirichlet_interval_bc(), init,
                     dt_target=1 / 100, T=1.0)


def test_init_rejects_ill_posed_bc(interval):
    bad = ge.matrices_bc(l=0, m=1, k0=1, k1=1, v0i=[[1]], u1i=[[1]])
    coeffs = ge.unit_coefficients(1)
    init = ge.InitialData((ge.EdgeInitial(ge.zero_profile()),), ())
    with pytest.raises(ge.NotWellPosedError) as info:
        ge.wave_init(interval, coeffs, bad, init, dt_target=1 / 100, T=1.0)
    assert info.value.report == ge.check_boundary_matrices(bad, coeffs)
    # spaces are judged by the direct sum before they are converted
    near = ge.BoundarySpacesBC(np.array([[1.0], [1.0]]), np.array([[1.0], [1.0 + 1e-14]]))
    with pytest.raises(ge.NotWellPosedError) as info:
        ge.wave_init(interval, coeffs, near, init, dt_target=1 / 100, T=1.0)
    assert info.value.report == ge.check_boundary_spaces(near)
    assert info.value.report.criterion == "DirectSum"


def test_init_rejects_snap_violation(interval):
    coeffs = ge.EdgeCoefficients((ge.constant(1.0),), ())
    init = ge.InitialData((ge.EdgeInitial(ge.zero_profile()),), ())
    with pytest.raises(ge.SpeedSnapExceededError):
        ge.wave_init(interval, coeffs, dirichlet_interval_bc(), init,
                     dt_target=0.7, T=1.4, snap_tol=0.05)


def test_init_rejects_support_violation(star):
    coeffs = ge.unit_coefficients(2, 1)
    bc = kirchhoff_star_matrices(star, coeffs)
    init = ge.InitialData(
        (ge.EdgeInitial(ge.zero_profile()), ge.EdgeInitial(ge.zero_profile())),
        (ge.EdgeInitial(ge.gaussian(4.5, 0.2, length=5.0)),))
    with pytest.raises(ge.SupportViolationError):
        ge.wave_init(star, coeffs, bc, init, dt_target=1 / 50, T=2.0,
                     external_lengths=(5.0,))


def test_zero_data_stays_zero(interval):
    init = ge.InitialData((ge.EdgeInitial(ge.zero_profile()),), ())
    st = ge.wave_init(interval, ge.unit_coefficients(1), dirichlet_interval_bc(),
                      init, dt_target=1 / 50, T=1.0)
    st, diag, _ = ge.wave_run(st, 1.0, record_stride=10)
    assert np.max(np.abs(st.internal[0].u)) == 0.0
    assert max(diag.energy) == 0.0 and max(map(abs, diag.mass)) == 0.0


def test_dalembert_exact_before_boundary_contact(interval):
    prof = ge.gaussian(0.5, 0.04)
    init = ge.InitialData((ge.EdgeInitial(prof),), ())
    st = ge.wave_init(interval, ge.unit_coefficients(1), dirichlet_interval_bc(),
                      init, dt_target=1 / 200, T=0.2)
    st, _, _ = ge.wave_run(st, 0.2, record_stride=1000)
    s = st.internal[0].s
    exact = 0.5 * (prof.value(s - st.t) + prof.value(s + st.t))
    assert np.max(np.abs(st.internal[0].u.real - exact)) < 1e-12


def test_standing_wave_error(interval):
    init = ge.InitialData((ge.EdgeInitial(ge.sine_mode(1)),), ())
    st = ge.wave_init(interval, ge.unit_coefficients(1), dirichlet_interval_bc(),
                      init, dt_target=1 / 200, T=2.0)
    s = st.internal[0].s
    worst = 0.0
    for _ in range(400):
        ge.wave_step(st)
        exact = np.sin(np.pi * s) * math.cos(np.pi * st.t)
        worst = max(worst, np.max(np.abs(st.internal[0].u.real - exact)))
    assert worst <= 0.02


def test_standing_wave_refinement():
    def error(n):
        g = ge.MetricGraph(2, [(0, 1)])
        init = ge.InitialData((ge.EdgeInitial(ge.sine_mode(1)),), ())
        st = ge.wave_init(g, ge.unit_coefficients(1), dirichlet_interval_bc(),
                          init, dt_target=1 / n, T=1.0)
        s = st.internal[0].s
        worst = 0.0
        for _ in range(n):
            ge.wave_step(st)
            exact = np.sin(np.pi * s) * math.cos(np.pi * st.t)
            worst = max(worst, np.max(np.abs(st.internal[0].u.real - exact)))
        return worst

    assert error(100) / error(200) >= 1.8


def test_energy_closed_form(interval):
    init = ge.InitialData((ge.EdgeInitial(ge.sine_mode(1)),), ())
    st = ge.wave_init(interval, ge.unit_coefficients(1), dirichlet_interval_bc(),
                      init, dt_target=1 / 200, T=1.0)
    from graphevolve.wave import energy, mass
    assert energy(st) == pytest.approx(np.pi**2 / 4.0, abs=1e-6)
    assert mass(st) == pytest.approx(2.0 / np.pi, rel=1e-4)


def test_energy_conservation_periodic(loop):
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.05)),), ())
    st = ge.wave_init(loop, ge.unit_coefficients(1), periodic_loop_bc(),
                      init, dt_target=1 / 200, T=10.0)
    st, diag, _ = ge.wave_run(st, 10.0, record_stride=100)
    e = np.array(diag.energy)
    assert np.max(np.abs(e - e[0])) / e[0] <= 1e-6


def test_energy_conservation_star(compact_star):
    coeffs = ge.unit_coefficients(3)
    bc = kirchhoff_star_matrices(compact_star, coeffs)
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.4, 0.05)),
                           ge.EdgeInitial(ge.zero_profile()),
                           ge.EdgeInitial(ge.zero_profile())), ())
    st = ge.wave_init(compact_star, coeffs, bc, init, dt_target=1 / 200, T=10.0)
    st, diag, _ = ge.wave_run(st, 10.0, record_stride=100)
    e = np.array(diag.energy)
    assert np.max(np.abs(e - e[0])) / e[0] <= 1e-6


def test_kirchhoff_scattering(compact_star):
    coeffs = ge.unit_coefficients(3)
    bc = kirchhoff_star_matrices(compact_star, coeffs)

    def run(n):
        init = ge.InitialData((right_moving_pulse(),
                               ge.EdgeInitial(ge.zero_profile()),
                               ge.EdgeInitial(ge.zero_profile())), ())
        st = ge.wave_init(compact_star, coeffs, bc, init, dt_target=1.0 / n, T=1.0)
        st, _, _ = ge.wave_run(st, 1.0, record_stride=10**9)
        refl = st.internal[0].u.real
        trans = st.internal[1].u.real
        return (refl[np.argmax(np.abs(refl))], trans[np.argmax(np.abs(trans))])

    refl, trans = run(400)
    refl_ref, trans_ref = run(3200)
    assert refl == pytest.approx(refl_ref, rel=0.02)
    assert trans == pytest.approx(trans_ref, rel=0.02)
    assert refl == pytest.approx(-1.0 / 3.0, rel=0.02)
    assert trans == pytest.approx(2.0 / 3.0, rel=0.02)


def test_external_edge_outflow(star):
    """A pulse leaving through an external edge carries energy away cleanly."""
    coeffs = ge.unit_coefficients(2, 1)
    bc = kirchhoff_star_matrices(star, coeffs)
    init = ge.InitialData(
        (ge.EdgeInitial(ge.gaussian(0.5, 0.05)), ge.EdgeInitial(ge.zero_profile())),
        (ge.EdgeInitial(ge.zero_profile(length=8.0)),))
    st = ge.wave_init(star, coeffs, bc, init, dt_target=1 / 100, T=4.0,
                      external_lengths=(8.0,))
    st, diag, _ = ge.wave_run(st, 4.0, record_stride=50)
    e = np.array(diag.energy)
    assert np.max(np.abs(e - e[0])) / e[0] <= 1e-6  # nothing reaches the cut by T=4


def reference_step(fields, n_external, update, dt):
    """The per-edge stepper that the packed rings replaced, kept as an oracle.

    ``fields`` holds one dict of grid-order arrays p, q, fwd, bwd, u per edge,
    external edges first; every interior value is copied one cell per step.
    """
    external, internal = fields[:n_external], fields[n_external:]
    old_q0 = [e["q"][0] for e in fields]
    old_p_end = [e["p"][-1] for e in fields]
    for e in fields:
        e["p"][:-1] = e["p"][1:]
        e["q"][1:] = e["q"][:-1]
    for e in external:
        e["p"][-1] = 0.0
    incoming = np.concatenate([[e["p"][0] for e in external], [e["q"][-1] for e in internal],
                               [e["p"][0] for e in internal]])
    values = np.concatenate([[e["u"][0] for e in external], [e["u"][0] for e in internal],
                             [e["u"][-1] for e in internal]])
    rhs = -(update.m_in @ incoming + update.u_rhs @ values)
    outgoing = scipy.linalg.lu_solve(update.lu, rhs)
    l, m = len(external), len(internal)
    for k, e in enumerate(external):
        e["q"][0] = outgoing[k]
    for j, e in enumerate(internal):
        e["p"][-1] = outgoing[l + j]
        e["q"][0] = outgoing[l + m + j]
    for idx, e in enumerate(fields):
        f_in = e["fwd"][0] + dt * (old_q0[idx] + e["q"][0]) / 4.0
        g_in = e["bwd"][-1] + dt * (old_p_end[idx] + e["p"][-1]) / 4.0
        e["fwd"][1:] = e["fwd"][:-1]
        e["bwd"][:-1] = e["bwd"][1:]
        e["fwd"][0] = f_in
        e["bwd"][-1] = g_in
        e["u"] = e["fwd"] + e["bwd"]


def reference_diagnostics(fields):
    e_total = m_total = 0.0
    for e in fields:
        e_total += 0.25 * np.trapezoid(np.abs(e["p"]) ** 2 + np.abs(e["q"]) ** 2, dx=e["h"])
        m_total += np.trapezoid(e["u"].real, dx=e["h"])
    return float(e_total), float(m_total)


def ring_bytes(state):
    return [a.tobytes() for a in (state.p, state.q, state.fwd, state.bwd)]


def test_packed_rings_match_per_edge_reference(star):
    """Bit-identical to the per-edge stepper, through several wraps of every ring."""
    # internal speeds 1 and 2, external speed 1 on length 2: 20, 10 and 40 cells
    coeffs = ge.EdgeCoefficients((ge.constant(1.0), ge.constant(4.0)), (ge.constant(1.0),))
    init = ge.InitialData(
        (ge.EdgeInitial(ge.gaussian(0.4, 0.1), ge.sine_mode(1, 0.5)),
         ge.EdgeInitial(ge.gaussian(0.6, 0.1, amplitude=-0.7))),
        (ge.EdgeInitial(ge.zero_profile(length=2.0)),))
    st = ge.wave_init(star, coeffs, star3_bc(delta=0.5), init, dt_target=1 / 20, T=10.0,
                      external_lengths=(2.0,))
    sizes = [e.s.size for e in st.edges()]
    assert len(set(sizes)) == len(sizes)
    fields = [{"p": e.p, "q": e.q, "fwd": e.fwd, "bwd": e.bwd, "u": e.u, "h": e.h}
              for e in st.edges()]
    for step in range(1, 201):
        ge.wave_step(st)
        reference_step(fields, star.l, st.update, st.dt)
        for e, ref in zip(st.edges(), fields):
            for key in ("u", "p", "q"):
                assert getattr(e, key).tobytes() == ref[key].tobytes(), (step, key)
        assert (energy(st), mass(st)) == reference_diagnostics(fields)
    assert st.step_count > 4 * max(sizes)
    assert np.max(np.abs(st.internal[0].u)) > 1e-3  # the vertex coupling kept data alive

    before = ring_bytes(st)
    twin = copy.deepcopy(st)
    for _ in range(7):
        ge.wave_step(twin)
    assert ring_bytes(st) == before and st.step_count == 200
    assert ring_bytes(twin) != before


def test_boundary_spaces_and_matrices_step_identically(star):
    coeffs = ge.EdgeCoefficients((ge.constant(1.0), ge.constant(4.0)), (ge.constant(1.0),))
    spaces = ge.from_standard(star, coeffs)
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.05)),
                           ge.EdgeInitial(ge.zero_profile())),
                          (ge.EdgeInitial(ge.zero_profile(length=8.0)),))
    states = [ge.wave_init(star, coeffs, bc, init, dt_target=1 / 50, T=1.0,
                           external_lengths=(8.0,))
              for bc in (spaces, ge.to_boundary_matrices(spaces, star.l, star.m))]
    for st in states:
        ge.wave_run(st, 1.0, record_stride=10)
    a, b = states
    assert ring_bytes(a) == ring_bytes(b)
    assert np.array_equal(a.update.m_out, b.update.m_out)


def test_init_rejects_nonlocal_kernels(interval):
    bc = ge.from_nonlocal_interval(np.ones(11), np.ones(11))
    init = ge.InitialData((ge.EdgeInitial(ge.zero_profile()),), ())
    with pytest.raises(ge.UnsupportedNonlocalConditionError):
        ge.wave_init(interval, ge.unit_coefficients(1), bc, init, dt_target=1 / 100, T=1.0)
