"""Per-vertex block algebra against the dense global algebra it replaced.

The reference functions below are the conversion, the checks and the vertex
solve as they were before the trace algebra was split into vertex blocks:
one global ``null_space`` for Y0 and for each annihilator, one SVD of the
whole stacked basis or criterion matrix, and a dense LU of ``m_out``.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import graphevolve as ge
from conftest import BUILDERS, local_condition, random_coeffs, random_graph


def reference_spaces(bc):
    """`bc` with Y0 = C * Y1-perp from one global null_space and no partition."""
    y0 = scipy.linalg.null_space(bc.y1_basis.conj().T) / bc.mu_endpoints[:, None]
    return ge.BoundarySpacesBC(bc.y1_basis, y0, local_U=bc.local_U,
                               mu_endpoints=bc.mu_endpoints)


def reference_to_matrices(bc, l, m):
    """The global conversion: one null_space per annihilator."""
    r_val = scipy.linalg.null_space(bc.y1_basis.T).T
    r_flux = scipy.linalg.null_space(bc.y0_basis.T).T
    u_rows = r_flux @ bc.local_U if bc.local_U is not None else 0.0 * r_flux
    return ge.BoundaryMatricesBC(r_val, r_flux * bc.mu_endpoints, u_rows, m)


def equilibrated_verdict(a):
    scaled = a / np.maximum(np.abs(a).max(axis=1), 1e-300)[:, None]
    s = np.linalg.svd(scaled, compute_uv=False)
    return s[-1] > a.shape[0] * 1e-12 * s[0]


def reference_criterion(bc, coeffs):
    """[V; W C] with its columns ordered (f_e(0), f_i(1), f_i(0))."""
    l, m = bc.l, bc.m
    columns = np.r_[0:l, l + m:l + 2 * m, l:l + m]
    return np.vstack([bc.v_rows, bc.w_rows / coeffs.mu_endpoint_diagonals()])[:, columns]


def reference_solve(bc, coeffs, incoming, values):
    """Dense LU of m_out = crit with halved rows, flux rows negated."""
    crit = reference_criterion(bc, coeffs)
    sign = np.where(np.arange(bc.trace_dim) < bc.k0, 1.0, -1.0)
    u_rhs = np.vstack([np.zeros((bc.k0, bc.trace_dim)), bc.u_rows])
    lu = scipy.linalg.lu_factor(0.5 * sign[:, None] * crit)
    return scipy.linalg.lu_solve(lu, -(0.5 * crit @ incoming + u_rhs @ values))


def relative_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("builder", BUILDERS)
def test_blocks_match_dense_reference(builder):
    rng = np.random.default_rng({"standard": 1, "delta": 2, "nonlocal_matrices": 3}[builder])
    for _ in range(25):
        g = random_graph(rng)
        coeffs = random_coeffs(rng, g)
        blocks = local_condition(rng, g, coeffs, builder)
        dense = reference_spaces(blocks)
        assert (ge.check_boundary_spaces(blocks).verdict
                == ge.check_boundary_spaces(dense).verdict
                == ("WellPosed" if equilibrated_verdict(np.hstack([dense.y0_basis,
                                                                   dense.y1_basis]))
                    else "NotWellPosed"))

        matrices = ge.to_boundary_matrices(blocks, g.l, g.m)
        reference = reference_to_matrices(dense, g.l, g.m)
        assert (ge.check_boundary_matrices(matrices, coeffs).verdict
                == ("WellPosed" if equilibrated_verdict(reference_criterion(reference, coeffs))
                    else "NotWellPosed"))

        # one vertex made degenerate: its Y0 block meets its Y1 block, and one
        # of its speed-normalized flux rows repeats one of its value rows
        degree = np.array([s.size for s in blocks.partition.slots])
        b = int(np.argmax(degree))
        if degree[b] >= 2:
            y0 = blocks.y0_basis.copy()
            y0[:, blocks.partition.flux[b][0]] = blocks.y1_basis[:, blocks.partition.value[b][0]]
            bad = dataclasses.replace(blocks, y0_basis=y0)
            assert not equilibrated_verdict(np.hstack([y0, bad.y1_basis]))
            for bc in (bad, dataclasses.replace(bad, partition=None)):
                assert ge.check_boundary_spaces(bc).verdict == "NotWellPosed"
            r, f = matrices.partition.value[b][0], matrices.partition.flux[b][0]
            w_rows = matrices.w_rows.copy()
            w_rows[f] = matrices.v_rows[r] * coeffs.mu_endpoint_diagonals()
            bad = dataclasses.replace(matrices, w_rows=w_rows)
            assert not equilibrated_verdict(reference_criterion(bad, coeffs))
            for bc in (bad, dataclasses.replace(bad, partition=None)):
                assert ge.check_boundary_matrices(bc, coeffs).verdict == "NotWellPosed"

        update = ge.vertex_update_matrix(matrices, coeffs)
        assert update.m_out.nnz <= np.sum(degree ** 2)
        for _ in range(3):
            incoming = rng.normal(size=g.trace_dim) + 1j * rng.normal(size=g.trace_dim)
            values = rng.normal(size=g.trace_dim) + 1j * rng.normal(size=g.trace_dim)
            assert relative_gap(update.solve(incoming, values),
                                reference_solve(reference, coeffs, incoming, values)) <= 1e-12


@pytest.mark.parametrize("builder", BUILDERS)
def test_wave_run_matches_dense_reference(builder):
    """Whole runs through the block update and through the dense global bases agree."""
    rng = np.random.default_rng({"standard": 4, "delta": 5, "nonlocal_matrices": 6}[builder])
    for _ in range(3):
        g = random_graph(rng, max_n=6, max_m=8, max_l=2)
        coeffs = random_coeffs(rng, g, lo=0.5, hi=2.0)
        blocks = local_condition(rng, g, coeffs, builder)
        init = ge.InitialData(
            tuple(ge.EdgeInitial(ge.gaussian(rng.uniform(0.3, 0.7), 0.08), ge.sine_mode(1, 0.3))
                  for _ in range(g.m)),
            tuple(ge.EdgeInitial(ge.zero_profile(length=3.0)) for _ in range(g.l)))
        runs = []
        for bc in (blocks, reference_spaces(blocks)):
            st = ge.wave_init(g, coeffs, bc, init, dt_target=1 / 40, T=2.0,
                              external_lengths=(3.0,) * g.l)
            runs.append(ge.wave_run(st, 2.0, record_stride=8)[1])
        a, b = runs
        assert a.times == b.times
        for key in ("energy", "mass"):
            got, ref = np.array(getattr(a, key)), np.array(getattr(b, key))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), key


def test_builders_partition_by_vertex(star):
    bc = ge.from_standard(star, ge.unit_coefficients(2, 1))
    # trace slots (f_e(0), f_1(0), f_2(0), f_1(1), f_2(1)); the center owns the first three
    assert [s.tolist() for s in bc.partition.slots] == [[0, 1, 2], [3], [4]]
    assert [v.tolist() for v in bc.partition.value] == [[0], [1], [2]]
    assert [f.tolist() for f in bc.partition.flux] == [[0, 1], [], []]
    matrices = ge.to_boundary_matrices(bc, star.l, star.m)
    assert [v.tolist() for v in matrices.partition.value] == [[0, 1], [], []]
    assert [f.tolist() for f in matrices.partition.flux] == [[0], [1], [2]]
    assert ge.to_boundary_matrices(reference_spaces(bc), star.l, star.m).partition is None


def test_partition_must_match_the_bases(star):
    bc = ge.from_standard(star, ge.unit_coefficients(2, 1))
    leaked = bc.y0_basis.copy()
    leaked[3, 0] = 1.0  # a center column reaching into a leaf slot
    with pytest.raises(ge.DimensionMismatchError, match="outside its vertex block"):
        dataclasses.replace(bc, y0_basis=leaked)
    part = bc.partition
    with pytest.raises(ge.DimensionMismatchError, match="1 slots but 2"):
        dataclasses.replace(bc, partition=ge.VertexPartition(
            part.slots, ([0], [1, 2], []), part.flux))
    with pytest.raises(ge.DimensionMismatchError, match="once"):
        dataclasses.replace(bc, partition=ge.VertexPartition(
            (part.slots[0], part.slots[1], part.slots[1]), part.value, part.flux))
    matrices = ge.to_boundary_matrices(bc, star.l, star.m)
    w_rows = matrices.w_rows.copy()
    w_rows[1, 1] = 1.0  # a leaf's flux row reaching into the center's slot f_1(0)
    with pytest.raises(ge.DimensionMismatchError, match="outside its vertex block"):
        dataclasses.replace(matrices, w_rows=w_rows)


def test_heat_dispatches_on_the_partition(compact_star):
    coeffs = ge.EdgeCoefficients(tuple(ge.constant(c) for c in (1.0, 2.0, 0.5)), ())
    init = ge.InitialData(tuple(ge.EdgeInitial(ge.gaussian(0.5, 0.1)) for _ in range(3)), ())
    tagged = ge.from_standard(compact_star, coeffs)
    paths = [ge.heat_init(compact_star, coeffs, bc, init, dt=1e-3, n_per_edge=20).path
             for bc in (tagged, dataclasses.replace(tagged, partition=None))]
    assert paths == ["continuity", "matrices"]


@pytest.mark.parametrize("builder", BUILDERS)
def test_scattering_matrix_is_an_involution(builder):
    """S = -(D C)^-1 C = -C^-1 D C squares to the identity, and zeroth-order rows
    add a value map exactly when they are nonzero."""
    rng = np.random.default_rng({"standard": 1, "delta": 2, "nonlocal_matrices": 3}[builder])
    has_value_map = []
    for _ in range(25):
        g = random_graph(rng)
        coeffs = random_coeffs(rng, g)
        matrices = ge.to_boundary_matrices(local_condition(rng, g, coeffs, builder), g.l, g.m)
        update = ge.vertex_update_matrix(matrices, coeffs)
        s = update.scattering.toarray()
        gap = np.linalg.norm(s @ s - np.eye(g.trace_dim), 2)
        assert gap <= 1e-12 * max(1.0, np.linalg.norm(s, 2) ** 2)
        assert (update.value_map is None) == (not matrices.u_rows.any())
        has_value_map.append(update.value_map is not None)
    assert set(has_value_map) == {builder != "standard"}  # delta and coupling matrices add U
