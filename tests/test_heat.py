import copy
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import graphevolve as ge
from conftest import (BUILDERS, assert_runs_agree, block_indices, complex_delta_star,
                      dirichlet_interval_bc, local_condition, nudged, random_coeffs,
                      random_graph, star3_bc, with_block)
from graphevolve import heat
from graphevolve.bc import BlockGroup
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


@pytest.mark.parametrize("n_per_edge", [float("inf"), float("nan"), 5.5, 3, -4, 0])
def test_n_per_edge_must_be_a_finite_integer_of_at_least_four(interval, n_per_edge):
    coeffs = ge.unit_coefficients(1)
    with pytest.raises(ge.DomainError) as info:
        ge.heat_init(interval, coeffs, dirichlet_spaces(interval), sine_initial(), dt=1e-3,
                     n_per_edge=n_per_edge)
    assert str(info.value) == f"n_per_edge {n_per_edge!r} is not a finite integer >= 4"
    # 4.0 stays valid: a whole number given as a float
    state = ge.heat_init(interval, coeffs, dirichlet_spaces(interval), sine_initial(),
                         dt=1e-3, n_per_edge=4.0)
    assert state.grids[0].size == 5


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


def test_nonlocal_kernels_of_different_lengths_hold_at_both_ends(interval):
    """h0 has five samples and h1 three; each is read on its own grid."""
    kernels = ge.from_nonlocal_interval(np.full(5, 0.8), [0.2, 0.8, 0.2])
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.1)),), ())
    st = ge.heat_init(interval, ge.unit_coefficients(1), kernels, init,
                      dt=1e-3, n_per_edge=100)
    for _ in range(20):
        ge.heat_step(st)
    u = st.internal[0].u
    s = st.internal[0].s
    hat = 0.2 + 1.2 * np.minimum(s, 1.0 - s)
    for endpoint, h in ((u[0], 0.8), (u[-1], hat)):
        quad = np.trapezoid(h * u, s)
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


def test_partitioned_dirichlet_spaces_take_matrices_path(interval):
    """Vertex blocks mean "local", not "Kirchhoff": Dirichlet as spaces."""
    bc = ge.BoundarySpacesBC.from_blocks(  # vertex b owns slot b and Y0 column b
        [BlockGroup(np.array([[0], [1]]), np.zeros((2, 0), dtype=int), np.array([[0], [1]]),
                    np.zeros((2, 1, 0), dtype=complex), np.ones((2, 1, 1), dtype=complex))],
        None, mu_endpoints=np.ones(2))
    assert block_indices(bc) == [[0], [1]]
    init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.3, 0.1)),), ())
    st = ge.heat_init(interval, ge.unit_coefficients(1), bc, init, dt=1e-3, n_per_edge=100)
    st, _, _ = ge.heat_run(st, 0.1, record_stride=100)
    u = st.internal[0].u
    assert st.path == "matrices"
    assert abs(u[0]) <= 1e-12 and abs(u[-1]) <= 1e-12


def test_non_kirchhoff_blocks_take_matrices_path(compact_star):
    """The centre block of `from_standard` with its Y0 block replaced by one
    that is not the mu-weighted (1, ..., 1)-perp, or its Y1 column by a
    non-constant one, is not Kirchhoff.  Another basis of that perp is, but
    hand-built blocks carry no builder mark, so it too takes the matrices
    path; it agrees with the builder's continuity run to second order in h."""
    coeffs = ge.EdgeCoefficients(tuple(ge.constant(c) for c in (1.0, 2.0, 0.5)), ())
    standard = ge.from_standard(compact_star, coeffs)
    centre = block_indices(standard)[0]
    assert list(centre) == [1, 2, 3]  # vertex 0: head of edge 0, tails of edges 1 and 2
    perp = standard.y0_basis[np.ix_(centre, block_indices(standard, "flux")[0])]
    rng = np.random.default_rng(7)
    init = ge.InitialData(tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.1)) for _ in range(3)), ())

    def final(bc):
        st = ge.heat_init(compact_star, coeffs, bc, init, dt=1e-3, n_per_edge=40)
        st, _, _ = ge.heat_run(st, 0.1, record_stride=100)
        return st

    def centre_block(y1_block, y0_block):
        return with_block(standard, 0, value_block=y1_block, flux_block=y0_block)

    for bc in (centre_block(np.ones((3, 1)), rng.standard_normal((3, 2))),
               centre_block(np.array([[1.0], [2.0], [3.0]]), perp)):
        st = final(bc)
        assert st.path == "matrices"
        assert np.array_equal(st.vector(), final(ge.to_boundary_matrices(bc, 0, 3)).vector())
    rebased = centre_block(np.ones((3, 1)), perp @ rng.standard_normal((2, 2)))
    gaps = []
    for n in (16, 32, 64):
        finals = []
        for bc in (standard, rebased):
            st = ge.heat_init(compact_star, coeffs, bc, init, 0.1 / (2 * n * n), n_per_edge=n)
            st, _, _ = ge.heat_run(st, 0.1, record_stride=2 * n * n)
            finals.append((st.path, st.vector()))
        (path_a, a), (path_b, b) = finals
        assert (path_a, path_b) == ("continuity", "matrices")
        gaps.append(np.linalg.norm(a - b) / np.linalg.norm(a))
    assert gaps[0] / gaps[1] >= 3.0 and gaps[1] / gaps[2] >= 3.0, gaps
    assert gaps[2] <= 1e-3, gaps


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


@pytest.mark.parametrize("builder", BUILDERS)
def test_only_builder_output_takes_continuity_path(builder):
    """Heat picks its path by the builders' mark, not by the block values:
    every copy of a builder's Kirchhoff blocks that the builder did not return
    takes the matrices path, and the exact copies match the converted form."""
    rng = np.random.default_rng(4)  # 4 vertices, 6 internal and 2 external edges
    g = random_graph(rng, max_n=5, max_m=6, max_l=2)
    coeffs = random_coeffs(rng, g)
    bc = local_condition(rng, g, coeffs, builder)
    init = ge.InitialData(tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.1)) for _ in range(g.m)),
                          tuple(ge.EdgeInitial(ge.zero_profile()) for _ in range(g.l)))

    def start(form):
        return ge.heat_init(g, coeffs, form, init, dt=1e-3, n_per_edge=8,
                            external_lengths=[1.0] * g.l)

    d = bc.groups[0].flux_block.shape[2]
    rebased = with_block(bc, 0, flux_block=bc.groups[0].flux_block[0]
                         @ (np.eye(d) + 0.1 * rng.standard_normal((d, d))))
    copied = ge.BoundarySpacesBC.from_blocks(bc.groups, bc.sparse_U,
                                             mu_endpoints=bc.mu_endpoints)
    twin = dataclasses.replace(bc)
    converted = ge.to_boundary_matrices(bc, g.l, g.m)
    assert bc.kirchhoff and copy.deepcopy(bc).kirchhoff
    assert start(bc).path == start(copy.deepcopy(bc)).path == "continuity"
    for form in (rebased, copied, twin, converted):
        assert not isinstance(form, ge.BoundarySpacesBC) or not form.kirchhoff
        assert start(form).path == "matrices"
    states = [start(copied), start(converted)]
    for st in states:
        ge.heat_step(st, 5)
    assert np.array_equal(states[0].vector(), states[1].vector())


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


def reference_layout(g, coeffs, n_per_edge, external_lengths):
    """Per-edge fields, offsets and trace nodes as the set-up derived them
    before the per-slot table: external edges first, then internal."""
    edges, offsets, total = [], [], 0
    for k in range(g.l):
        L = external_lengths[k]
        s = np.linspace(0.0, L, max(4, round(n_per_edge * L)) + 1)
        edges.append(heat.HeatEdgeFields(s, np.zeros(s.size), np.asarray(coeffs.external[k](s))))
    for j in range(g.m):
        s = np.linspace(0.0, 1.0, n_per_edge + 1)
        edges.append(heat.HeatEdgeFields(s, np.zeros(s.size), np.asarray(coeffs.internal[j](s))))
    for e in edges:
        offsets.append(total)
        total += e.u.size
    trace_nodes = np.array(offsets + [offsets[g.l + j] + edges[g.l + j].u.size - 1
                                      for j in range(g.m)])
    return edges, offsets, trace_nodes


def reference_matrix_rows(a, row, bc, edges, trace_nodes, l, m):
    """The per-entry matrices-form assembly that one np.nonzero per row matrix
    replaced, kept as an oracle: a Python loop over (row, slot)."""
    for r in range(bc.k0):
        for slot in range(l + 2 * m):
            if bc.v_rows[r, slot] != 0.0:
                a.add(row, trace_nodes[slot], bc.v_rows[r, slot])
        row += 1

    def stencil_start(off, h):
        return ((off, -1.5 / h), (off + 1, 2.0 / h), (off + 2, -0.5 / h))

    def stencil_end(off, n, h):
        return ((off + n, 1.5 / h), (off + n - 1, -2.0 / h), (off + n - 2, 0.5 / h))

    for r in range(bc.k1):
        for k in range(l):
            coeff = bc.w_rows[r, k]
            if coeff != 0.0:
                for node, wgt in stencil_start(trace_nodes[k], edges[k].h):
                    a.add(row, node, coeff * wgt)
        for j in range(m):
            e = edges[l + j]
            off = trace_nodes[l + j]
            c0 = bc.w_rows[r, l + j]
            if c0 != 0.0:
                for node, wgt in stencil_start(off, e.h):
                    a.add(row, node, c0 * wgt)
            c1 = bc.w_rows[r, l + m + j]
            if c1 != 0.0:
                for node, wgt in stencil_end(off, e.u.size - 1, e.h):
                    a.add(row, node, -c1 * wgt)
        for slot in range(l + 2 * m):
            if bc.u_rows[r, slot] != 0.0:
                a.add(row, trace_nodes[slot], bc.u_rows[r, slot])
        row += 1
    return row


@pytest.mark.parametrize("n_per_edge", [4, 9])
@pytest.mark.parametrize("builder", BUILDERS)
def test_matrix_rows_match_per_entry_reference(monkeypatch, builder, n_per_edge):
    """The vectorized matrices-form rows give the solutions of the per-entry loop.

    Local conditions stripped of their builder mark take the matrices path; at
    n = 4 the two end stencils of an internal edge share its middle node.
    """
    rng = np.random.default_rng({"standard": 1, "delta": 2, "nonlocal_matrices": 3}[builder])
    cases = 0
    while cases < 10:
        g = random_graph(rng, max_n=6, max_m=6, max_l=3)
        if g.l == 0:
            continue
        cases += 1
        coeffs = random_coeffs(rng, g)
        bc = dataclasses.replace(local_condition(rng, g, coeffs, builder))  # no mark
        init = ge.InitialData(
            tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.1)) for _ in range(g.m)),
            tuple(ge.EdgeInitial(ge.gaussian(0.3, 0.1, length=1.5)) for _ in range(g.l)))

        def solution():
            st = ge.heat_init(g, coeffs, bc, init, dt=1e-3, n_per_edge=n_per_edge,
                              external_lengths=(1.5,) * g.l)
            for _ in range(20):
                ge.heat_step(st)
            assert st.path == "matrices"
            return st.vector()

        got = solution()
        edges, _, trace_nodes = reference_layout(g, coeffs, n_per_edge, (1.5,) * g.l)

        def adapter(a, row, bc, node, inward, h):
            return reference_matrix_rows(a, row, bc, edges, trace_nodes, g.l, g.m)

        with monkeypatch.context() as patch:
            patch.setattr(heat, "_assemble_matrix_rows", adapter)
            want = solution()
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_per_edge", [4, 9])
def test_matrices_path_reads_blocks_not_dense_fields(n_per_edge):
    """Heat's matrices path takes a condition's rows from its vertex blocks:
    no dense field is formed, and the result equals that of its
    ``dataclasses.replace`` twin, split from the dense fields.  The conditions
    are delta-coupled matrices forms on random graphs and spaces forms whose
    Y1 block at one vertex is not constant (converted)."""
    rng = np.random.default_rng(16)
    dense_fields = ("v_rows", "w_rows", "u_rows", "y1_basis", "y0_basis", "local_U")
    cases = 0
    while cases < 12:
        g = random_graph(rng, max_n=6, max_m=6, max_l=3)
        coeffs = random_coeffs(rng, g)
        delta = local_condition(rng, g, coeffs, "delta")
        big = [b for b, slots in enumerate(block_indices(delta)) if slots.size > 1]
        if cases % 2 == 0:
            bc = ge.to_boundary_matrices(delta, g.l, g.m)
        elif big:
            size = block_indices(delta)[big[0]].size
            bc = with_block(delta, big[0], value_block=rng.uniform(0.5, 2.0, (size, 1)))
        else:
            continue
        cases += 1
        init = ge.InitialData(
            tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.1)) for _ in range(g.m)),
            tuple(ge.EdgeInitial(ge.gaussian(0.3, 0.1, length=1.5)) for _ in range(g.l)))

        def run(condition):
            st = ge.heat_init(g, coeffs, condition, init, dt=1e-3, n_per_edge=n_per_edge,
                              external_lengths=(1.5,) * g.l)
            assert st.path == "matrices"
            st, diag, _ = ge.heat_run(st, 0.02, record_stride=5)
            return st.vector(), diag

        got, diag = run(bc)
        assert not set(dense_fields) & set(bc.__dict__)
        twin = dataclasses.replace(ge.to_boundary_matrices(bc, g.l, g.m)
                                   if isinstance(bc, ge.BoundarySpacesBC) else bc)
        want, want_diag = run(twin)
        assert np.array_equal(got, want)
        assert diag == want_diag


def reference_vertex_rows(a, b, row, g, bc, edges, offsets, trace_nodes, dt, theta):
    """The per-endpoint continuity assembly that the vertex blocks
    replaced, kept as an oracle: vertex membership from the edge lists."""
    # endpoint -> (vertex, trace slot, global trace node, neighbor node, h, lam_half)
    endpoint_info = []
    for k in range(g.l):
        e = edges[k]
        lam_half = 0.5 * (e.lam[0] + e.lam[1])
        endpoint_info.append((g.external_edges[k], k, offsets[k], offsets[k] + 1,
                              e.h, lam_half))
    for j in range(g.m):
        e = edges[g.l + j]
        off = offsets[g.l + j]
        n = e.u.size - 1
        tail, head = g.internal_edges[j]
        endpoint_info.append((tail, g.l + j, off, off + 1,
                              e.h, 0.5 * (e.lam[0] + e.lam[1])))
        endpoint_info.append((head, g.l + g.m + j, off + n, off + n - 1,
                              e.h, 0.5 * (e.lam[n] + e.lam[n - 1])))

    by_vertex: dict[int, list] = {}
    for info in endpoint_info:
        by_vertex.setdefault(info[0], []).append(info)

    # continuity rows: all endpoint values at a vertex agree
    for v in sorted(by_vertex):
        nodes = [info[2] for info in by_vertex[v]]
        for node in nodes[1:]:
            a.add(row, node, 1.0)
            a.add(row, nodes[0], -1.0)
            row += 1

    for v in sorted(by_vertex):
        for (_, slot, tr, adj, h, lam_half) in by_vertex[v]:
            cap = 0.5 * h / dt
            flux = lam_half / h
            a.add(row, tr, cap + theta * flux)
            a.add(row, adj, -theta * flux)
            b.add(row, tr, cap - (1.0 - theta) * flux)
            b.add(row, adj, (1.0 - theta) * flux)
        if bc.local_U is not None:
            # zeroth-order source: the flux sum at v equals src @ trace values
            slots = sorted(info[1] for info in by_vertex[v])
            src = bc.mu_endpoints[slots] @ bc.local_U[slots]
            nonzero = np.flatnonzero(src)
            a.add(row, trace_nodes[nonzero], -theta * src[nonzero])
            b.add(row, trace_nodes[nonzero], (1.0 - theta) * src[nonzero])
        row += 1
    return row


@pytest.mark.parametrize("n_per_edge", [4, 9])
@pytest.mark.parametrize("builder", BUILDERS)
def test_vertex_rows_match_per_endpoint_reference(monkeypatch, builder, n_per_edge):
    """The block-wise continuity rows give the solutions of the per-endpoint loop.

    The two pair each slot with a different first slot of its vertex, so the
    factorizations round differently: agreement is to 1e-12 relative.
    """
    rng = np.random.default_rng({"standard": 4, "delta": 5, "nonlocal_matrices": 6}[builder])
    cases = 0
    while cases < 10:
        g = random_graph(rng, max_n=6, max_m=6, max_l=3)
        if g.l == 0:
            continue
        cases += 1
        # lambda varies along each edge, so half-cell and nodal values differ
        coeffs = ge.EdgeCoefficients(
            tuple(ge.sampled(rng.uniform(0.25, 4.0, 5)) for _ in range(g.m)),
            tuple(ge.sampled(rng.uniform(0.25, 4.0, 5), 1.5) for _ in range(g.l)))
        bc = local_condition(rng, g, coeffs, builder)
        init = ge.InitialData(
            tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.1)) for _ in range(g.m)),
            tuple(ge.EdgeInitial(ge.gaussian(0.3, 0.1, length=1.5)) for _ in range(g.l)))
        dt, theta = 1e-3, 0.5

        def solution():
            st = ge.heat_init(g, coeffs, bc, init, dt=dt, theta=theta,
                              n_per_edge=n_per_edge, external_lengths=(1.5,) * g.l)
            for _ in range(20):
                ge.heat_step(st)
            assert st.path == "continuity"
            return st.vector()

        got = solution()
        edges, offsets, trace_nodes = reference_layout(g, coeffs, n_per_edge, (1.5,) * g.l)

        def adapter(a, b, row, bc, node, inward, h, lam_half, dt, theta):
            return reference_vertex_rows(a, b, row, g, bc, edges, offsets, trace_nodes,
                                         dt, theta)

        with monkeypatch.context() as patch:
            patch.setattr(heat, "_assemble_vertex_rows", adapter)
            want = solution()
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_interior_rows_match_per_edge_reference(monkeypatch, theta):
    """The interior theta-rows, built over the packed grid, are bit for bit
    those of the per-edge loop they replaced, in both a and b."""
    rng = np.random.default_rng(26)  # 6 vertices, 4 internal and 2 external edges
    g = random_graph(rng, max_n=6, max_m=8, max_l=3)
    coeffs = ge.EdgeCoefficients(
        tuple(ge.sampled(rng.uniform(0.25, 4.0, 5)) for _ in range(g.m)),
        tuple(ge.sampled(rng.uniform(0.25, 4.0, 5), 1.5) for _ in range(g.l)))
    init = ge.InitialData(tuple(ge.EdgeInitial(ge.zero_profile()) for _ in range(g.m)),
                          tuple(ge.EdgeInitial(ge.zero_profile(length=1.5)) for _ in range(g.l)))
    dt, n_per_edge = 1e-3, 9
    captured = []
    monkeypatch.setattr(heat, "factorize", lambda a: (captured.append(a), factorize(a))[1])
    st = ge.heat_init(g, coeffs, ge.from_standard(g, coeffs), init, dt=dt, theta=theta,
                      n_per_edge=n_per_edge, external_lengths=(1.5,) * g.l)
    edges, offsets, _ = reference_layout(g, coeffs, n_per_edge, (1.5,) * g.l)
    a, b = heat._Triplets(), heat._Triplets()
    row = 0
    for off, e in zip(offsets, edges):
        n = e.u.size - 1
        for i in range(1, n):
            r = e.h * e.h / (e.lam[i] * dt)
            for triplets, diag, side in ((a, r + 2.0 * theta, -theta),
                                         (b, r - 2.0 * (1.0 - theta), 1.0 - theta)):
                triplets.add(row, off + i, diag)
                triplets.add(row, off + i - 1, side)
                triplets.add(row, off + i + 1, side)
            row += 1
    total = st.u.size
    for got, want in ((captured[0].tocsr(), a), (st.explicit, b)):
        want = want.to_coo(total, st.u.dtype).tocsr()
        assert np.array_equal(got[:row].toarray(), want[:row].toarray())


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


def test_norm_bound_is_uniform_in_h():
    """Stability in h of both boundary paths: max_t ||u(t)|| / ||u(0)|| in L2 and
    L1 stays put as the cells shrink, for theta = 1/2 and 1.  The random
    nonlocal matrices (scaled by 5, not self-adjoint) make the norms grow
    1.7-7 fold by T = 0.2, so the bound is not the trivial 1 of dissipation;
    the matrices path must also reach the continuity path's bound.  A
    derivative stencil pointing the wrong way at f_i(1) grows 2-5 fold per
    halving of h on two of these graphs."""
    rng = np.random.default_rng(0)

    def growth(st, steps=200):
        w = np.concatenate([np.r_[0.5, np.ones(s.size - 2), 0.5] * (s[1] - s[0])
                            for s in st.grids])  # trapezoid weights

        def norms():
            a = np.abs(st.u)
            return np.array([np.sqrt(w @ a ** 2), w @ a])

        first = top = norms()
        for _ in range(steps):
            ge.heat_step(st)
            top = np.maximum(top, norms())
        return top / first

    for _ in range(4):
        g = random_graph(rng, max_n=5, max_m=8, max_l=0)
        coeffs = random_coeffs(rng, g)
        bc = ge.from_nonlocal_matrices(g, coeffs, np.zeros((0, 0)),
                                       5.0 * rng.uniform(-1.0, 1.0, (g.m, g.m)),
                                       5.0 * rng.uniform(-1.0, 1.0, (g.m, g.m)))
        init = ge.InitialData(tuple(ge.EdgeInitial(ge.gaussian(float(rng.uniform(0.2, 0.8)), 0.1))
                                    for _ in range(g.m)), ())
        for theta in (0.5, 1.0):
            bounds = {}
            for form in (bc, ge.to_boundary_matrices(bc, g.l, g.m)):
                ratios = []
                for n in (16, 32, 64):
                    st = ge.heat_init(g, coeffs, form, init, 1e-3, theta=theta, n_per_edge=n)
                    ratios.append(growth(st))
                assert np.all(ratios[1] <= 1.05 * ratios[0]), (st.path, ratios)
                assert np.all(ratios[2] <= 1.05 * ratios[1]), (st.path, ratios)
                bounds[st.path] = ratios[2]
            assert np.allclose(bounds["matrices"], bounds["continuity"], rtol=0.05), bounds


def per_edge_mass(state):
    return sum(np.trapezoid(e.u.real, dx=e.h) for e in state.edges())


def per_edge_energy(state):
    return sum(0.5 * np.trapezoid(e.lam * np.abs(np.gradient(e.u, e.h)) ** 2, dx=e.h)
               for e in state.edges())


@pytest.mark.parametrize("seed", range(3))
def test_diagnostics_match_per_edge_loop(seed):
    """Mass and energy over the packed vector equal the per-edge trapezoid loop,
    on seeded meshes with external edges and lambda varying along some edges."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_n=6, max_m=9, max_l=3)
    coeffs = random_coeffs(rng, g)
    coeffs = ge.EdgeCoefficients(tuple(ge.quadratic_square(float(rng.uniform(0.5, 2.0)), 0.5)
                                       if j % 2 else profile
                                       for j, profile in enumerate(coeffs.internal)),
                                 coeffs.external)
    init = ge.InitialData(
        tuple(ge.EdgeInitial(ge.gaussian(rng.uniform(0.3, 0.7), 0.1, amplitude=rng.normal()))
              for _ in range(g.m)),
        tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.2, length=3.0)) for _ in range(g.l)))
    st = ge.heat_init(g, coeffs, ge.from_standard(g, coeffs), init, dt=1e-3,
                      n_per_edge=int(rng.integers(4, 40)), external_lengths=(3.0,) * g.l)
    for _ in range(3):
        for got, want in ((mass(st), per_edge_mass(st)), (energy(st), per_edge_energy(st))):
            assert abs(got - want) <= 1e-12 * abs(want)
        ge.heat_step(st)
    assert per_edge_energy(st) > 0.0


def heat_path_run(path, vary):
    """A 40-step heat run of one assembly path, its condition's entries passed
    through `vary`: the state, diagnostics and snapshots."""
    if path == "nonlocal":
        g, coeffs = ge.MetricGraph(2, [(0, 1)]), ge.unit_coefficients(1)
        bc = ge.from_nonlocal_interval(vary(np.full(101, 0.8)), np.full(101, 0.8))
        init = ge.InitialData((ge.EdgeInitial(ge.sine_mode(1)),), ())
    else:  # the star with one external edge: δ-coupled continuity rows, or star3's matrices
        g = ge.MetricGraph(3, [(0, 1), (0, 2)], [0])
        coeffs = ge.EdgeCoefficients((ge.constant(1.0), ge.constant(2.0)), (ge.constant(0.5),))
        bc = (ge.from_delta(g, coeffs, ge.DeltaCoupling(vary([0.7, -0.3, 0.4])))
              if path == "continuity" else star3_bc(alpha=vary(1.0)))
        init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.4, 0.1)),
                               ge.EdgeInitial(ge.gaussian(0.6, 0.1, amplitude=-0.7))),
                              (ge.EdgeInitial(ge.gaussian(0.3, 0.1, length=1.5)),))
    st = ge.heat_init(g, coeffs, bc, init, dt=1e-3, n_per_edge=40, external_lengths=(1.5,) * g.l)
    assert st.path == path
    return ge.heat_run(st, 0.04, record_stride=10)


@pytest.mark.parametrize("path", ["continuity", "matrices", "nonlocal"])
def test_real_and_complex_arithmetic_agree(path):
    """A real condition steps in float64; the same condition with a 1e-30j
    imaginary part steps in complex128, and its fields and diagnostics agree."""
    real, cplx = heat_path_run(path, np.asarray), heat_path_run(path, nudged)
    assert real[0].u.dtype == real[0].explicit.dtype == np.float64
    assert cplx[0].u.dtype == cplx[0].explicit.dtype == np.complex128
    assert real[0].cond_estimate == pytest.approx(cplx[0].cond_estimate, rel=1e-12)
    assert_runs_agree(real, cplx)


@pytest.mark.parametrize("text", [
    (CONFIGS / "kirchhoff-star-heat.cfg").read_text(),
    (CONFIGS / "nonlocal-interval.cfg").read_text(),
    complex_delta_star("heat"),
], ids=["kirchhoff-star-heat", "nonlocal-interval", "complex-delta"])
def test_heat_steps_in_float64_exactly_when_the_condition_is_real(text):
    cfg = parse_config(text)
    st = ge.heat_init(cfg.graph, cfg.coeffs, cfg.bc, cfg.initial, cfg.sim.dt,
                      theta=cfg.sim.theta, n_per_edge=cfg.sim.n_per_edge,
                      external_lengths=cfg.external_lengths)
    ge.heat_step(st, 3)
    want = np.complex128 if cfg.bc_kind == "delta" else np.float64
    assert st.u.dtype == st.explicit.dtype == want


def test_the_gate_decides_alike_in_real_and_complex_arithmetic(monkeypatch):
    """onenormest runs another code path for a real operator: the same real
    system gets the same verdict and condition estimate either way."""
    captured = []
    monkeypatch.setattr(heat, "factorize", lambda a: (captured.append(a), factorize(a))[1])
    cfg = parse_config((CONFIGS / "kirchhoff-star-heat.cfg").read_text())
    ge.heat_init(cfg.graph, cfg.coeffs, cfg.bc, cfg.initial, cfg.sim.dt,
                 n_per_edge=cfg.sim.n_per_edge)
    a = captured[0]
    assert a.dtype == np.float64
    _, cond = factorize(a)
    _, cond_complex = factorize(a.astype(complex))
    assert cond_complex == pytest.approx(cond, rel=1e-12)
    diag = np.ones(50)
    diag[-1] = 1e-11  # cond_1 = 1e11 > 1e12 / 50
    for dtype in (float, complex):
        with pytest.raises(ge.SingularSystemError, match="cond_1"):
            factorize(scipy.sparse.diags_array(diag.astype(dtype), format="csc"))
