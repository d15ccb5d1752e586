import copy
import math

import numpy as np
import pytest

import graphevolve as ge
from conftest import (BUILDERS, CONFIGS, assert_runs_agree, complex_delta_star,
                      dirichlet_interval_bc, local_condition, nudged, periodic_loop_bc,
                      random_graph, random_mesh, star3_bc)
from graphevolve.config import parse_config
from graphevolve.wave import _BLOCK_ENTRIES, _snapshot, energy, mass


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


@pytest.mark.parametrize("data", [
    ge.EdgeInitial(ge.gaussian(2.0, 0.3, length=2.0)),
    ge.EdgeInitial(ge.sine_mode(1, length=2.0)),
    ge.EdgeInitial(ge.zero_profile(length=2.0), ge.gaussian(2.0, 0.3, length=2.0)),
], ids=["u0", "u0-slope", "u1"])
def test_init_rejects_data_that_do_not_vanish_at_the_cut(star, data):
    """u0, u0' or u1 nonzero at the cut (sin(pi s / 2) is 1.2e-16 there, its
    slope -pi/2) is refused, whatever T; the message names the edge and the cut."""
    coeffs = ge.unit_coefficients(2, 1)
    zero = ge.EdgeInitial(ge.zero_profile())
    for T in (0.02, 10.0):
        with pytest.raises(ge.SupportViolationError) as info:
            ge.wave_init(star, coeffs, kirchhoff_star_matrices(star, coeffs),
                         ge.InitialData((zero, zero), (data,)), dt_target=1 / 50, T=T,
                         external_lengths=(2.0,))
        assert str(info.value) == "external edge 0: initial data must vanish at the cut s = 2"


def bump(rng, length):
    """Samples of a sin^2 bump of random height on [0, 3/4 length] and zero after
    it: the profile and its derivative are exactly 0 from there on, beyond the
    length too, and its antiderivative is constant."""
    x = np.linspace(0.0, 1.0, 33)
    values = np.where(x < 0.75, np.sin(np.pi * x / 0.75) ** 2, 0.0) * rng.normal()
    return ge.custom_samples(values, length)


@pytest.mark.parametrize("builder", BUILDERS)
def test_a_cut_at_l_and_at_2l_give_the_same_bytes(builder):
    """The cut is exact: with data on [0, L] and zero beyond, external edges cut at
    L and at 2L give byte-identical u and u_t on the internal edges and on [0, L]
    at every record, long after waves have left through the cut at L."""
    rng = np.random.default_rng({"standard": 11, "delta": 12, "nonlocal_matrices": 13}[builder])
    L, dt, cases = 1.0, 1 / 40, 0
    while cases < 2:
        g = random_graph(rng, max_n=5, max_m=5, max_l=3)
        if g.l == 0:
            continue
        cases += 1
        squares = rng.choice([0.25, 1.0, 4.0], size=g.m + g.l).tolist()
        coeffs = ge.EdgeCoefficients(tuple(ge.constant(x) for x in squares[:g.m]),
                                     tuple(ge.constant(x) for x in squares[g.m:]))
        bc = local_condition(rng, g, coeffs, builder)
        init = ge.InitialData(
            tuple(ge.EdgeInitial(ge.gaussian(rng.uniform(0.3, 0.7), 0.1, amplitude=rng.normal()))
                  for _ in range(g.m)),
            tuple(ge.EdgeInitial(bump(rng, L), bump(rng, L)) for _ in range(g.l)))
        T = 4 * L / math.sqrt(min(squares))

        def run(cut):
            st = ge.wave_init(g, coeffs, bc, init, dt_target=dt, T=T,
                              external_lengths=(cut,) * g.l)
            return ge.wave_run(st, T, record_stride=8)

        (short, _, near), (long, _, far) = run(L), run(2 * L)
        assert [e.s.size for e in long.external] == [2 * e.s.size - 1 for e in short.external]
        assert len(near) == len(far) == round(T / dt) // 8 + 1
        for (t, u, ut), (t2, u2, ut2) in zip(near, far):
            assert t == t2
            for a, b in zip(u + ut, u2 + ut2):
                assert a.tobytes() == b[:a.size].tobytes()
        # the waves crossed the cut at L: by T, some of u lies beyond it
        assert max(np.max(np.abs(e.u[short.external[k].s.size:]))
                   for k, e in enumerate(long.external)) > 1e-3


@pytest.mark.parametrize("velocity", [ge.zero_profile(), ge.sine_mode(2, 0.8)],
                         ids=["at-rest", "moving"])
def test_initial_displacement_is_f_plus_g(star, velocity):
    """u = F + G from step 0 on.  At zero velocity F = G = u0 / 2 gives u0 bit for
    bit, except that halving a subnormal value may round off its last bit."""
    coeffs = ge.EdgeCoefficients((ge.constant(1.0), ge.constant(2.0)), (ge.constant(1.0),))
    data = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.1), velocity),
                           ge.EdgeInitial(ge.sine_mode(1, 0.5), velocity)),
                          (ge.EdgeInitial(ge.gaussian(1.0, 0.1, length=5.0)),))
    st = ge.wave_init(star, coeffs, kirchhoff_star_matrices(star, coeffs), data,
                      dt_target=0.01, T=0.5, external_lengths=(5.0,))
    u0 = [init.displacement.value(e.s)
          for e, init in zip(st.edges(), data.external + data.internal)]
    scale = max(np.max(np.abs(u)) for u in u0)
    for e, u in zip(st.edges(), u0):
        assert not e.u.imag.any()
        if velocity.kind == "zero":
            normal = np.abs(u) >= np.finfo(float).tiny
            assert np.array_equal(e.u.real[normal], u[normal])
            assert np.all(np.abs(e.u.real - u) <= np.finfo(float).smallest_subnormal)
        else:
            assert np.max(np.abs(e.u.real - u)) <= 1e-15 * scale
    h = [e.h for e in st.edges()]
    trapezoid = sum(hj * (u.sum() - 0.5 * (u[0] + u[-1])) for hj, u in zip(h, u0))
    assert mass(st) == pytest.approx(trapezoid, rel=1e-14)


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


def unitary_vertex_condition(g, rng, noise=0.0):
    """A dense spaces form with Λ = 0 in the (P_D, P_N, Λ) form: at each vertex a
    random unitary Q_v, whose first r_v columns span Y1 and the rest Y0 = Y1-perp.
    `noise` adds that multiple of complex noise to the Y0 columns on the same slots."""
    y1, y0 = [], []
    for slots in ge.vertex_slots(g):
        d = len(slots)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        r = int(rng.integers(1, d)) if d > 1 else int(rng.integers(2))
        q[:, r:] += noise * (rng.normal(size=(d, d - r)) + 1j * rng.normal(size=(d, d - r)))
        for cols, out in ((q[:, :r], y1), (q[:, r:], y0)):
            block = np.zeros((g.trace_dim, cols.shape[1]), dtype=complex)
            block[slots] = cols
            out.append(block)
    return ge.BoundarySpacesBC(np.hstack(y1), np.hstack(y0), mu_endpoints=np.ones(g.trace_dim))


@pytest.mark.parametrize("seed", range(4))
def test_self_adjoint_condition_conserves_energy(seed):
    """Λ = 0 makes the vertex scattering matrix unitary, so the exact-shift scheme
    conserves the energy to rounding; a Y0 tilted off Y1-perp does not."""
    drift = {}
    for noise in (0.0, 0.2):
        rng = np.random.default_rng(seed)
        g, _ = random_mesh(rng, 6, 10, 0)  # connected, compact, unit speeds below
        bc = unitary_vertex_condition(g, rng, noise)
        init = ge.InitialData(tuple(ge.EdgeInitial(ge.gaussian(rng.uniform(0.3, 0.7), 0.08,
                                                              amplitude=rng.normal()))
                                    for _ in range(g.m)), ())
        st = ge.wave_init(g, ge.unit_coefficients(g.m), bc, init, dt_target=1 / 64, T=2.0)
        _, diag, _ = ge.wave_run(st, 2.0, record_stride=16)
        e = np.array(diag.energy)
        drift[noise] = np.max(np.abs(e - e[0])) / e[0]
    assert drift[0.0] <= 1e-12
    assert drift[0.2] > 1e-3


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
    outgoing = update.solve(incoming, values)
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
    """Per-edge trapezoid energy and mass, and the mass of |u| as its scale."""
    e_total = m_total = m_scale = 0.0
    for e in fields:
        e_total += 0.25 * np.trapezoid(np.abs(e["p"]) ** 2 + np.abs(e["q"]) ** 2, dx=e["h"])
        m_total += np.trapezoid(e["u"].real, dx=e["h"])
        m_scale += np.trapezoid(np.abs(e["u"].real), dx=e["h"])
    return float(e_total), float(m_total), float(m_scale)


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
        # the packed diagnostics sum each ring whole: the same trapezoid, rounded differently
        e_ref, m_ref, m_scale = reference_diagnostics(fields)
        assert abs(energy(st) - e_ref) <= 1e-12 * e_ref
        assert abs(mass(st) - m_ref) <= 1e-12 * m_scale
    assert st.step_count > 4 * max(sizes)
    assert np.max(np.abs(st.internal[0].u)) > 1e-3  # the vertex coupling kept data alive

    before = ring_bytes(st)
    twin = copy.deepcopy(st)
    for _ in range(7):
        ge.wave_step(twin)
    assert ring_bytes(st) == before and st.step_count == 200
    assert ring_bytes(twin) != before


def test_snapshot_matches_the_edge_fields(star):
    """The all-edge snapshot equals the per-edge readers byte for byte, after every
    ring has wrapped several times, and shares no memory with the state."""
    coeffs = ge.EdgeCoefficients((ge.constant(1.0), ge.constant(4.0)), (ge.constant(1.0),))
    init = ge.InitialData(
        (ge.EdgeInitial(ge.gaussian(0.4, 0.1), ge.sine_mode(1, 0.5)),
         ge.EdgeInitial(ge.gaussian(0.6, 0.1, amplitude=-0.7))),
        (ge.EdgeInitial(ge.zero_profile(length=2.0)),))
    st = ge.wave_init(star, coeffs, star3_bc(delta=0.5), init, dt_target=1 / 20, T=10.0,
                      external_lengths=(2.0,))
    sizes = [e.s.size for e in st.edges()]
    for step in range(1, 4 * max(sizes) + 8):
        ge.wave_step(st)
        if step % 13:
            continue
        t, u, ut = _snapshot(st)
        assert t == st.t
        assert [a.tobytes() for a in u] == [e.u.tobytes() for e in st.edges()]
        assert [a.tobytes() for a in ut] == [((e.p + e.q) / 2).tobytes() for e in st.edges()]
        for a in u + ut:
            assert not any(np.shares_memory(a, f) for f in (st.fwd, st.bwd, st.p, st.q))


def test_rings_of_one_size_apart_in_edge_order():
    """On a square whose speeds alternate 1, 2, 1, 2, with an external edge of the
    first size, rings of one size are not neighbours in edges() order.  Through
    several wraps of every ring the snapshot equals the per-edge readers byte for
    byte and shares no memory with the state, and energy and mass equal per-edge
    trapezoid sums of the readers, each edge at its own spacing."""
    g = ge.MetricGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0])
    coeffs = ge.EdgeCoefficients(tuple(ge.constant(x) for x in (1.0, 4.0, 1.0, 4.0)),
                                 (ge.constant(1.0),))
    rng = np.random.default_rng(5)
    init = ge.InitialData(
        tuple(ge.EdgeInitial(ge.gaussian(rng.uniform(0.3, 0.7), 0.1, amplitude=rng.normal()),
                             ge.sine_mode(1, rng.normal())) for _ in range(4)),
        (ge.EdgeInitial(ge.gaussian(0.3, 0.05)),))
    st = ge.wave_init(g, coeffs, ge.from_standard(g, coeffs), init, dt_target=1 / 20,
                      T=10.0, external_lengths=(1.0,))
    sizes = [e.s.size for e in st.edges()]
    assert sizes == [21, 21, 11, 21, 11]
    assert sorted(st.start.tolist()) != st.start.tolist()  # not packed in edge order
    for step in range(1, 4 * max(sizes) + 8):
        ge.wave_step(st)
        if step % 7:
            continue
        t, u, ut = _snapshot(st)
        assert t == st.t
        assert [a.tobytes() for a in u] == [e.u.tobytes() for e in st.edges()]
        assert [a.tobytes() for a in ut] == [((e.p + e.q) / 2).tobytes() for e in st.edges()]
        for a in u + ut:
            assert not any(np.shares_memory(a, f) for f in (st.fwd, st.bwd, st.p, st.q))
        fields = [{"p": e.p, "q": e.q, "u": e.u, "h": e.h} for e in st.edges()]
        e_ref, m_ref, m_scale = reference_diagnostics(fields)
        assert abs(energy(st) - e_ref) <= 1e-12 * e_ref
        assert abs(mass(st) - m_ref) <= 1e-12 * m_scale
    assert [e.h for e in st.edges()] == [s[1] - s[0] for s in st.grids]
    assert np.max(np.abs(st.external[0].u)) > 1e-3  # data still on the external edge


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
    assert np.array_equal(a.update.m_out.toarray(), b.update.m_out.toarray())


def test_init_rejects_nonlocal_kernels(interval):
    bc = ge.from_nonlocal_interval(np.ones(11), np.ones(11))
    init = ge.InitialData((ge.EdgeInitial(ge.zero_profile()),), ())
    with pytest.raises(ge.UnsupportedNonlocalConditionError):
        ge.wave_init(interval, ge.unit_coefficients(1), bc, init, dt_target=1 / 100, T=1.0)


def test_matrices_wave_init_evaluates_the_criterion_once(monkeypatch, star):
    """One set of criterion blocks decides the Determinant verdict and feeds the
    scattering build; a direct vertex update of a failing condition still raises."""
    built = []
    original = ge.wellposed._criterion_blocks

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(ge.wellposed, "_criterion_blocks", counted)
    init = ge.InitialData((ge.EdgeInitial(ge.zero_profile()), ge.EdgeInitial(ge.zero_profile())),
                          (ge.EdgeInitial(ge.zero_profile(length=10.0)),))
    ge.wave_init(star, ge.unit_coefficients(2, 1), star3_bc(), init, dt_target=1 / 20, T=1.0,
                 external_lengths=(10.0,))
    assert len(built) == 1
    with pytest.raises(ge.SingularUpdateError):
        ge.vertex_update_matrix(star3_bc(eps=0.0))
    assert len(built) == 2


@pytest.mark.parametrize("builder, reads_values", [("standard", False), ("delta", True)])
def test_step_gathers_the_value_trace_only_for_a_value_map(monkeypatch, star, builder,
                                                           reads_values):
    seen = []
    original = ge.VertexUpdate.solve

    def solve(self, incoming, value_trace):
        seen.append(value_trace)
        return original(self, incoming, value_trace)

    monkeypatch.setattr(ge.VertexUpdate, "solve", solve)
    coeffs = ge.unit_coefficients(2, 1)
    bc = (ge.from_standard(star, coeffs) if builder == "standard"
          else ge.from_delta(star, coeffs, ge.DeltaCoupling([1.0, 0.5, 0.0])))
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.1)),) * 2,
                          (ge.EdgeInitial(ge.zero_profile(length=3.0)),))
    st = ge.wave_init(star, coeffs, bc, init, dt_target=1 / 40, T=1.0, external_lengths=(3.0,))
    ge.wave_step(st)
    assert (st.update.value_map is not None) == reads_values
    assert [v is not None and v.shape == (star.trace_dim,) for v in seen] == [reads_values]


def block_star(star, bc, dt_target=1 / 20, T=10.0):
    """The star with internal speeds 1 and 2 and an external edge of length 2: at
    dt 1/20 its rings hold 21, 11 and 41 nodes, so a block has at most 10 steps."""
    coeffs = ge.EdgeCoefficients((ge.constant(1.0), ge.constant(4.0)), (ge.constant(1.0),))
    init = ge.InitialData(
        (ge.EdgeInitial(ge.gaussian(0.4, 0.1), ge.sine_mode(1, 0.5)),
         ge.EdgeInitial(ge.gaussian(0.6, 0.1, amplitude=-0.7))),
        (ge.EdgeInitial(ge.zero_profile(length=2.0)),))
    return ge.wave_init(star, coeffs, bc, init, dt_target=dt_target, T=T,
                        external_lengths=(2.0,))


def snapshot_bytes(state):
    t, u, ut = _snapshot(state)
    return t, [a.tobytes() for a in u + ut]


def assert_blocks_match_single_steps(blocked, n, total):
    """Advancing `n` steps per call equals single steps byte for byte."""
    single = copy.deepcopy(blocked)
    while blocked.step_count < total:
        ge.wave_step(blocked, n)
        for _ in range(n):
            ge.wave_step(single)
        assert blocked.step_count == single.step_count
        assert ring_bytes(blocked) == ring_bytes(single), (n, blocked.step_count)
        assert snapshot_bytes(blocked) == snapshot_bytes(single), (n, blocked.step_count)


@pytest.mark.parametrize("n", [1, 9, 10, 11, 32])
def test_a_block_of_steps_equals_single_steps(star, n):
    """n in {1, K - 1, K, K + 1, 3K + 2} for the longest block K = min(size) - 1,
    through at least four wraps of every ring."""
    st = block_star(star, star3_bc())
    sizes = [e.s.size for e in st.edges()]
    assert st.update.value_map is None and sorted(sizes) == [11, 21, 41]
    assert_blocks_match_single_steps(st, n, 4 * max(sizes) + 1)
    assert np.max(np.abs(st.internal[0].u)) > 1e-3  # the vertex coupling kept data alive


def seeded_kirchhoff_wave(g, coeffs, rng, external_length=2.0):
    """A Kirchhoff wave on `g` at dt 1/20, seeded Gaussians on the internal edges."""
    init = ge.InitialData(
        tuple(ge.EdgeInitial(ge.gaussian(rng.uniform(0.3, 0.7), 0.1, amplitude=rng.normal()))
              for _ in range(g.m)),
        tuple(ge.EdgeInitial(ge.zero_profile(length=external_length)) for _ in range(g.l)))
    return ge.wave_init(g, coeffs, ge.from_standard(g, coeffs), init, dt_target=1 / 20,
                        T=10.0, external_lengths=(external_length,) * g.l)


@pytest.mark.parametrize("n", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 2)],
                         ids=["1", "K-1", "K", "K+1", "3K+2"])
@pytest.mark.parametrize("shape", ["hub", "mesh"])
def test_a_block_of_steps_equals_single_steps_on_a_hub_and_a_mesh(shape, n):
    """As above, for n = a K + b, through at least two wraps of every ring, where each
    step's vertex product has one large block (a star of 64 internal edges and one
    external edge: a 65 x 65 block) or many block sizes (a seeded mesh)."""
    rng = np.random.default_rng(7)
    if shape == "hub":
        g = ge.MetricGraph(65, [(0, j) for j in range(1, 65)], [0])
        coeffs = ge.unit_coefficients(64, 1)
    else:
        g, coeffs = random_mesh(rng, 30, 60, 2)
    st = seeded_kirchhoff_wave(g, coeffs, rng)
    sizes = [int(e.s.size) for e in st.edges()]
    block = min(min(sizes) - 1, _BLOCK_ENTRIES // g.trace_dim)
    assert st.update.value_map is None and block >= 10
    degrees = [len(slots) for slots in ge.vertex_slots(g)]
    assert max(degrees) >= 64 if shape == "hub" else len(set(degrees)) >= 5
    assert_blocks_match_single_steps(st, n[0] * block + n[1], 2 * max(sizes) + 1)
    assert max(np.max(np.abs(e.u)) for e in st.internal) > 1e-3


def record_block_shapes(monkeypatch):
    """Make VertexUpdate.solve record the shape of every incoming block."""
    shapes = []
    original = ge.VertexUpdate.solve

    def solve(self, incoming, value_trace):
        shapes.append(incoming.shape)
        return original(self, incoming, value_trace)

    monkeypatch.setattr(ge.VertexUpdate, "solve", solve)
    return shapes


def test_a_value_map_advances_one_step_per_block(monkeypatch, star):
    shapes = record_block_shapes(monkeypatch)
    st = block_star(star, star3_bc(delta=0.5))
    assert st.update.value_map is not None
    assert_blocks_match_single_steps(st, 32, 4 * 41 + 1)
    assert set(shapes) == {(1, star.trace_dim)}


def test_a_one_cell_edge_limits_blocks_to_one_step(monkeypatch, star):
    shapes = record_block_shapes(monkeypatch)
    st = block_star(star, star3_bc(), dt_target=0.5)
    assert min(e.s.size for e in st.edges()) == 2  # the speed-2 edge has one cell
    ge.wave_step(copy.deepcopy(st), 5)
    assert shapes == [(1, star.trace_dim)] * 5
    assert_blocks_match_single_steps(st, 5, 4 * 5 + 1)


def test_a_non_finite_ring_value_fails_inside_a_block(star):
    st = block_star(star, star3_bc())
    edge = star.l  # the first internal edge; its node 3 reaches node 0 at the third step
    st.p[st.start[edge] + (3 + st.step_count) % st.size[edge]] = np.nan
    ge.wave_step(copy.deepcopy(st), 2)  # the first two steps do not read it
    with pytest.raises(ValueError, match="infs or NaNs"):
        ge.wave_step(st, 10)


@pytest.mark.parametrize("n", [1, 10, 32])
def test_a_block_leaves_a_deep_copy_unchanged(star, n):
    st = block_star(star, star3_bc())
    ge.wave_step(st, 7)
    twin = copy.deepcopy(st)
    before = ring_bytes(twin), snapshot_bytes(twin)
    ge.wave_step(st, n)
    assert (ring_bytes(twin), snapshot_bytes(twin)) == before and twin.step_count == 7
    assert ring_bytes(st) != before[0]


@pytest.mark.parametrize("condition", ["star3", "nonlocal_matrices", "delta"])
def test_real_and_complex_arithmetic_agree(star, condition):
    """A real condition steps in float64; the same condition with a 1e-30j
    imaginary part steps in complex128, and its fields and diagnostics agree.
    star3's imaginary part is in a scattering block, the others' in the value map."""
    coeffs = ge.EdgeCoefficients((ge.constant(1.0), ge.constant(4.0)), (ge.constant(1.0),))

    def run(vary):
        if condition == "star3":
            bc = star3_bc(alpha=vary(1.0))
        elif condition == "delta":
            bc = ge.from_delta(star, coeffs, ge.DeltaCoupling(vary([0.7, -0.3, 0.4])))
        else:
            bc = ge.from_nonlocal_matrices(star, coeffs, vary([[0.3]]),
                                           [[0.2, -0.1], [0.1, 0.4]], [[-0.2, 0.1], [0.3, 0.1]])
        return ge.wave_run(block_star(star, bc), 2.0, record_stride=10)

    real, cplx = run(np.asarray), run(nudged)
    assert (cplx[0].update.value_map is not None) == (condition != "star3")
    for (st, _, _), want in ((real, np.float64), (cplx, np.complex128)):
        for field in (st.p, st.q, st.fwd, st.bwd, *st.blocks[1:]):
            assert field.dtype == want
    assert_runs_agree(real, cplx)


@pytest.mark.parametrize("text", [
    (CONFIGS / "dirichlet-standing-wave.cfg").read_text(),
    (CONFIGS / "zero-initial.cfg").read_text(),
    complex_delta_star("wave"),
], ids=["dirichlet-standing-wave", "zero-initial", "complex-delta"])
def test_wave_steps_in_float64_exactly_when_the_condition_is_real(text):
    cfg = parse_config(text)
    st = ge.wave_init(cfg.graph, cfg.coeffs, cfg.bc, cfg.initial, cfg.sim.dt, cfg.sim.T,
                      snap_tol=cfg.sim.snap_tol, external_lengths=cfg.external_lengths)
    ge.wave_step(st, 3)
    want = np.complex128 if cfg.bc_kind == "delta" else np.float64
    assert st.update.dtype == want
    for field in (st.p, st.q, st.fwd, st.bwd, *st.blocks[1:]):
        assert field.dtype == want
