"""Per-vertex block algebra against the dense global algebra it replaced.

The reference functions below are the conversion, the checks and the vertex
solve as they were before the trace algebra was split into vertex blocks:
one global ``null_space`` for Y0 and for each annihilator, one SVD of the
whole stacked basis or criterion matrix, and a dense LU of ``m_out``.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph

import graphevolve as ge
from conftest import (BUILDERS, block_indices, local_condition, random_coeffs, random_graph,
                      random_mesh, star3_bc, with_block)
from graphevolve.bc import BlockGroup, block_matrix, component_labels


def reference_spaces(bc):
    """`bc` with Y0 = C * Y1-perp from one global null_space, given as dense arrays."""
    y0 = scipy.linalg.null_space(bc.y1_basis.conj().T) / bc.mu_endpoints[:, None]
    return ge.BoundarySpacesBC(bc.y1_basis, y0, local_U=bc.local_U,
                               mu_endpoints=bc.mu_endpoints)


def reference_to_matrices(bc, l, m):
    """The global conversion: one null_space per annihilator."""
    r_val = scipy.linalg.null_space(bc.y1_basis.T).T
    r_flux = scipy.linalg.null_space(bc.y0_basis.T).T
    u_rows = r_flux @ bc.local_U if bc.local_U is not None else 0.0 * r_flux
    return ge.BoundaryMatricesBC(r_val, r_flux * bc.mu_endpoints, u_rows, m)


def equilibrated_sigmas(a):
    scaled = a / np.maximum(np.abs(a).max(axis=1), 1e-300)[:, None]
    s = np.linalg.svd(scaled, compute_uv=False)
    return s[-1], s[0]


def equilibrated_verdict(a):
    smin, smax = equilibrated_sigmas(a)
    return smin > a.shape[0] * 1e-12 * smax


def assert_report_matches_dense(report, a, det=None):
    """σ_min, σ_max (and det) of `report` against one SVD (and LU) of the dense `a`."""
    smin, smax = equilibrated_sigmas(a)
    assert abs(report.sigma_min - smin) <= 1e-12 * smin
    assert abs(report.sigma_max - smax) <= 1e-12 * smax
    if det is not None:
        want = np.linalg.det(a)
        assert abs(det - want) <= 1e-12 * abs(want)


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
    """The stacked checks give the verdicts, σ's and determinants of the dense
    matrices; the sweep meets block groups of several vertices, degree-1
    vertices (no Y0 columns) and blocks with mixed speeds."""
    rng = np.random.default_rng({"standard": 1, "delta": 2, "nonlocal_matrices": 3}[builder])
    met = set()
    for _ in range(25):
        g = random_graph(rng)
        coeffs = random_coeffs(rng, g)
        blocks = local_condition(rng, g, coeffs, builder)
        speeds = coeffs.mu_endpoint_diagonals()
        for group in blocks.groups:
            if group.slots.shape[0] > 1:
                met.add("shared shape")
            if group.flux.shape[1] == 0:
                met.add("no Y0 columns")
            if np.ptp(speeds[group.slots], axis=1).max() > 0:
                met.add("mixed speeds")
        dense = reference_spaces(blocks)
        report = ge.check_boundary_spaces(blocks)
        assert (report.verdict
                == ge.check_boundary_spaces(dense).verdict
                == ("WellPosed" if equilibrated_verdict(np.hstack([dense.y0_basis,
                                                                   dense.y1_basis]))
                    else "NotWellPosed"))
        assert_report_matches_dense(report, np.hstack([blocks.y0_basis, blocks.y1_basis]))

        matrices = ge.to_boundary_matrices(blocks, g.l, g.m)
        reference = reference_to_matrices(dense, g.l, g.m)
        report = ge.check_boundary_matrices(matrices, coeffs)
        assert (report.verdict
                == ("WellPosed" if equilibrated_verdict(reference_criterion(reference, coeffs))
                    else "NotWellPosed"))
        assert_report_matches_dense(report, reference_criterion(matrices, coeffs),
                                    report.determinant)

        # one vertex made degenerate: its Y0 block meets its Y1 block, and one
        # of its speed-normalized flux rows repeats one of its value rows
        # (dataclasses.replace splits the same condition from its dense fields)
        degree = np.array([s.size for s in block_indices(blocks)])
        b = int(np.argmax(degree))
        if degree[b] >= 2:
            slots = block_indices(blocks)[b]
            y0 = blocks.y0_basis[np.ix_(slots, block_indices(blocks, "flux")[b])]
            y0[:, 0] = blocks.y1_basis[slots, block_indices(blocks, "value")[b][0]]
            bad = with_block(blocks, b, flux_block=y0)
            assert not equilibrated_verdict(np.hstack([bad.y0_basis, bad.y1_basis]))
            for bc in (bad, dataclasses.replace(bad)):
                assert ge.check_boundary_spaces(bc).verdict == "NotWellPosed"
            value, flux = block_indices(matrices, "value")[b], block_indices(matrices, "flux")[b]
            w = matrices.w_rows[np.ix_(flux, slots)]
            w[0] = matrices.v_rows[value[0], slots] * speeds[slots]
            bad = with_block(matrices, b, flux_block=w)
            assert not equilibrated_verdict(reference_criterion(bad, coeffs))
            for bc in (bad, dataclasses.replace(bad)):
                assert ge.check_boundary_matrices(bc, coeffs).verdict == "NotWellPosed"

        update = ge.vertex_update_matrix(matrices, coeffs)
        assert update.m_out.nnz <= np.sum(degree ** 2)
        for _ in range(3):
            incoming = rng.normal(size=g.trace_dim) + 1j * rng.normal(size=g.trace_dim)
            values = rng.normal(size=g.trace_dim) + 1j * rng.normal(size=g.trace_dim)
            assert relative_gap(update.solve(incoming, values),
                                reference_solve(reference, coeffs, incoming, values)) <= 1e-12
    assert met == {"shared shape", "no Y0 columns", "mixed speeds"}


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
    assert [s.tolist() for s in block_indices(bc)] == [[0, 1, 2], [3], [4]]
    assert [v.tolist() for v in block_indices(bc, "value")] == [[0], [1], [2]]
    assert [f.tolist() for f in block_indices(bc, "flux")] == [[0, 1], [], []]
    matrices = ge.to_boundary_matrices(bc, star.l, star.m)
    assert [v.tolist() for v in block_indices(matrices, "value")] == [[0, 1], [], []]
    assert [f.tolist() for f in block_indices(matrices, "flux")] == [[0], [1], [2]]
    # a global Y0 basis is zero on the leaves' slots: dense input splits by vertex too
    dense = ge.to_boundary_matrices(reference_spaces(bc), star.l, star.m)
    assert [s.tolist() for s in block_indices(dense)] == [[0, 1, 2], [3], [4]]


def test_partition_must_match_the_bases(star):
    """Blocks own each trace slot, value and flux index once and vertex blocks
    are square when there are several, or ``from_blocks`` refuses them; dense
    input is split into the components of its nonzero pattern."""
    bc = ge.from_standard(star, ge.unit_coefficients(2, 1))
    centre, leaves = bc.groups  # degree 3, then the two degree-1 leaves
    leaked = bc.y0_basis.copy()
    leaked[3, 0] = 1.0  # a center column reaching into a leaf slot
    assert ([s.tolist() for s in block_indices(dataclasses.replace(bc, y0_basis=leaked))]
            == [[0, 1, 2, 3], [4]])
    with pytest.raises(ge.DimensionMismatchError, match="trace slot once"):
        ge.BoundarySpacesBC.from_blocks(  # a leaf claims the center's slot 0
            [centre, dataclasses.replace(leaves, slots=np.array([[3], [0]]))], None)
    with pytest.raises(ge.DimensionMismatchError, match="value index once"):
        ge.BoundarySpacesBC.from_blocks(
            [centre, dataclasses.replace(leaves, value=np.array([[1], [1]]))], None)
    with pytest.raises(ge.DimensionMismatchError, match="3 slots but 2"):
        ge.BoundarySpacesBC.from_blocks(  # the center drops a Y0 column
            [dataclasses.replace(centre, flux=centre.flux[:, :1],
                                 flux_block=centre.flux_block[:, :, :1]), leaves], None)
    matrices = ge.to_boundary_matrices(bc, star.l, star.m)
    with pytest.raises(ge.DimensionMismatchError, match="flux index once"):
        ge.BoundaryMatricesBC.from_blocks(
            [matrices.groups[0], dataclasses.replace(matrices.groups[1],
                                                     flux=np.array([[0], [1]]))],
            matrices.sparse_U, m=star.m)
    with pytest.raises(ge.DimensionMismatchError, match="m = 3"):
        ge.BoundaryMatricesBC.from_blocks(matrices.groups, matrices.sparse_U, m=3)
    with pytest.raises(ge.DimensionMismatchError, match="mu_endpoints"):
        ge.BoundarySpacesBC.from_blocks(bc.groups, None, mu_endpoints=np.ones(4))


def block_shapes(bc):
    return [(g.value_block.shape, g.flux_block.shape) for g in bc.groups]


def sorted_slots(bc):
    return sorted(s.tolist() for s in block_indices(bc))


@pytest.mark.parametrize("builder", BUILDERS)
def test_replace_twins_match_their_condition(builder):
    """A ``dataclasses.replace`` twin of a builder condition, in the spaces or
    the matrices form, is split from its dense fields into the builder's
    vertex blocks: it gets the same block shapes, verdict, σ's and
    determinant, and runs the wave to the same bytes."""
    rng = np.random.default_rng({"standard": 7, "delta": 8, "nonlocal_matrices": 9}[builder])
    for _ in range(3):
        g, coeffs = random_mesh(rng, 8, 12, 2)
        spaces = local_condition(rng, g, coeffs, builder)
        init = ge.InitialData(
            tuple(ge.EdgeInitial(ge.gaussian(rng.uniform(0.3, 0.7), 0.08), ge.sine_mode(1, 0.3))
                  for _ in range(g.m)),
            tuple(ge.EdgeInitial(ge.zero_profile(length=3.0)) for _ in range(g.l)))
        for bc in (spaces, ge.to_boundary_matrices(spaces, g.l, g.m)):
            twin = dataclasses.replace(bc)
            assert sorted(block_shapes(twin)) == sorted(block_shapes(bc))
            assert sorted_slots(twin) == sorted_slots(bc)
            check = (ge.check_boundary_spaces if isinstance(bc, ge.BoundarySpacesBC)
                     else lambda x: ge.check_boundary_matrices(x, coeffs))
            want, got = check(bc), check(twin)
            assert got.verdict == want.verdict == "WellPosed"
            for key in ("sigma_min", "sigma_max", "determinant"):
                if getattr(want, key) is not None:
                    assert abs(getattr(got, key) - getattr(want, key)) <= \
                        1e-12 * abs(getattr(want, key)), key
            runs = []
            for condition in (bc, twin):
                st = ge.wave_init(g, coeffs, condition, init, dt_target=1 / 40, T=1.0,
                                  external_lengths=(3.0,) * g.l)
                st, diag, _ = ge.wave_run(st, 1.0, record_stride=8)
                runs.append(([a.tobytes() for a in (st.p, st.q, st.fwd, st.bwd)], diag))
            assert runs[0] == runs[1]


def test_component_labels_match_csgraph():
    """The least member of each node's component, against scipy's labels."""
    rng = np.random.default_rng(5)
    for n in [1, 2, 7, 50, 300]:
        for _ in range(10):
            k = int(rng.integers(0, 2 * n))
            a, b = rng.integers(n, size=k), rng.integers(n, size=k)
            graph = scipy.sparse.coo_array((np.ones(k), (a, b)), shape=(n, n))
            _, labels = scipy.sparse.csgraph.connected_components(graph, directed=False)
            least = np.full(labels.max() + 1, n)
            np.minimum.at(least, labels, np.arange(n))
            assert np.array_equal(component_labels(a, b, n), least[labels])


def test_dense_input_splits_by_its_pattern():
    """Dense input is split into the connected components of its nonzero
    pattern; what does not pair up stays one block, and the verdicts are those
    of the dense matrices."""
    # star3 with eps = 0: the third W row is zero and no row touches slot 4;
    # the two form one 1 x 1 zero block, so the condition stays NotWellPosed
    degenerate = star3_bc(eps=0.0)
    flux_rows = {tuple(slots.tolist()): flux.tolist() for slots, flux
                 in zip(block_indices(degenerate), block_indices(degenerate, "flux"))}
    assert flux_rows == {(0, 1, 2): [1], (3,): [0], (4,): [2]}
    assert ge.check_boundary_matrices(degenerate).verdict == "NotWellPosed"
    assert ge.check_boundary_matrices(star3_bc()).verdict == "WellPosed"

    # d0 + d1 differs from the trace dimension: one block, and the dims note
    short = ge.BoundarySpacesBC(np.eye(3)[:, :1], np.eye(3)[:, 1:2])
    assert [g.slots.shape for g in short.groups] == [(1, 3)]
    report = ge.check_boundary_spaces(short)
    assert report.verdict == "NotWellPosed"
    assert "d0 + d1 differs from the trace dimension" in report.notes

    # a path through every slot, in shuffled slot order, is one block
    rng = np.random.default_rng(11)
    for dim in (2, 5, 40):
        basis = np.eye(dim) + np.eye(dim, k=1)  # column j touches slots j - 1 and j
        basis = basis[rng.permutation(dim)][:, rng.permutation(dim)]
        spaces = ge.BoundarySpacesBC(basis[:, :dim // 2], basis[:, dim // 2:])
        assert [g.slots.shape for g in spaces.groups] == [(1, dim)]
        assert ge.check_boundary_spaces(spaces).verdict == "WellPosed"

    # from_blocks still refuses non-square blocks when there are several
    with pytest.raises(ge.DimensionMismatchError, match="one of several blocks"):
        ge.BoundaryMatricesBC.from_blocks(
            [BlockGroup(np.array([[0, 1]]), np.array([[0]]), np.zeros((1, 0), dtype=int),
                        np.ones((1, 1, 2)), np.ones((1, 0, 2))),
             BlockGroup(np.array([[2]]), np.array([[1]]), np.array([[0]]),
                        np.ones((1, 1, 1)), np.ones((1, 1, 1)))],
            scipy.sparse.csr_array((1, 3)), m=1)


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


def test_set_up_memory_grows_with_the_blocks():
    """The Kirchhoff set-up of a 1,000-vertex mesh (trace dim 4,010) peaks far
    below one dense trace_dim x trace_dim complex array (257 MB)."""
    g, coeffs = random_mesh(np.random.default_rng(0), n=1000, m=2000, l=10)
    tracemalloc.start()
    try:
        bc = ge.from_standard(g, coeffs)
        assert ge.check_boundary_spaces(bc).well_posed
        update = ge.vertex_update_matrix(ge.to_boundary_matrices(bc, g.l, g.m), coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert update.scattering.shape == (g.trace_dim, g.trace_dim) == (4010, 4010)
    assert peak < 32 * 2**20


def criterion_matrices(bc, coeffs):
    """S = -(D B)^-1 B and m_out = D B / 2 of every criterion block B, as CSR:
    the matrices the vertex update assembled for each block group before it
    stacked its blocks by shape."""
    scattering, m_out = [], []
    for rows, cols, blocks in ge.wellposed._criterion_blocks(bc, coeffs):
        signed = np.where(rows < bc.k0, 1.0, -1.0)[:, :, None] * blocks
        scattering.append((cols, cols, -np.linalg.solve(signed, blocks)))
        m_out.append((rows, cols, 0.5 * signed))
    shape = (bc.trace_dim, bc.trace_dim)
    return block_matrix(scattering, shape), block_matrix(m_out, shape)


def unitary_blocks(bc, rng):
    """The spaces form `bc` with each vertex block's [Y1 | Y0] a random complex unitary."""
    groups = []
    for group in bc.groups:
        count, d = group.slots.shape
        q, _ = np.linalg.qr(rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d)))
        a = group.value.shape[1]
        groups.append(dataclasses.replace(group, value_block=q[:, :, :a], flux_block=q[:, :, a:]))
    return ge.BoundarySpacesBC.from_blocks(groups, None, mu_endpoints=bc.mu_endpoints)


@pytest.mark.parametrize("case", ["real", "complex", "dense-real", "dense-complex", "delta"])
def test_solve_matches_the_csr_product(case):
    """The low-rank product equals the CSR product of the same blocks, for real
    and complex factors, the large block of a global-basis Y0, and a δ-coupling's
    value map, on one step and on a block of steps; a non-finite value raises
    ValueError."""
    rng = np.random.default_rng(23)
    g, coeffs = random_mesh(rng, 12, 20, 3)
    spaces = local_condition(rng, g, coeffs, "delta" if case == "delta" else "standard")
    if "complex" in case:
        spaces = unitary_blocks(spaces, rng)
    vertex = max(group.slots.shape[1] for group in spaces.groups)
    if "dense" in case:
        spaces = reference_spaces(spaces)  # a block larger than any vertex block
    matrices = ge.to_boundary_matrices(spaces, g.l, g.m)
    update = ge.vertex_update_matrix(matrices, coeffs)
    dim = g.trace_dim
    # a degree-1 vertex scatters by a real +-1 sign even when its block is complex
    factors = (update.factor_u, update.factor_vt)
    assert (np.dtype(complex) in {f.dtype for f in factors}) == ("complex" in case)
    widest = np.diff(update.factor_vt.indptr).max()  # a row of V^T spans its block
    assert (widest > vertex) == ("dense" in case)
    assert (update.value_map is not None) == (case == "delta")
    oracle, _ = criterion_matrices(matrices, coeffs)
    for shape in ((dim,), (1, dim), (7, dim)):
        incoming = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                  if update.value_map is not None else None)
        want = (oracle @ incoming.T).T
        if values is not None:
            want = want + (update.value_map @ values.T).T
        got = update.solve(incoming, values)
        assert got.shape == shape
        assert relative_gap(got, want) <= 1e-14
        for bad in (np.nan, np.inf, -np.inf):
            broken = incoming.copy()
            broken[..., dim // 2] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                update.solve(broken, values)
            if values is not None:
                values[..., 0] = bad
                with pytest.raises(ValueError, match="infs or NaNs"):
                    update.solve(incoming, values)
                values[..., 0] = 0.0


def test_wave_init_assembles_no_sparse_update(monkeypatch):
    """A Kirchhoff wave (no zeroth-order terms) sets up without assembling a
    sparse matrix for S or m_out; read later, they are the criterion blocks'."""
    calls = []
    original = ge.wellposed.block_matrix

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ge.wellposed, "block_matrix", counted)
    g, coeffs = random_mesh(np.random.default_rng(31), 20, 40, 2)
    bc = ge.from_standard(g, coeffs)
    init = ge.InitialData(tuple(ge.EdgeInitial(ge.zero_profile()) for _ in range(g.m)),
                          tuple(ge.EdgeInitial(ge.zero_profile(length=2.0)) for _ in range(g.l)))
    st = ge.wave_init(g, coeffs, bc, init, dt_target=1 / 20, T=1.0,
                      external_lengths=(2.0,) * g.l)
    assert calls == [] and st.update.value_map is None
    squares = [ge.constant(x**2) for x in st.mu.tolist()]
    snapped = ge.EdgeCoefficients(tuple(squares[g.l:]), tuple(squares[:g.l]))
    scattering, m_out = criterion_matrices(ge.to_boundary_matrices(bc, g.l, g.m), snapped)
    assert np.array_equal(st.update.scattering.toarray(), scattering.toarray())
    assert np.array_equal(st.update.m_out.toarray(), m_out.toarray())
    assert st.update.scattering.dtype == scattering.dtype
    assert len(calls) == 2


def one_dense_block(rng, a, b):
    """A matrices condition whose a value rows and b flux rows are random and
    dense: one block of a + b slots, l = a + b - 2 external edges and m = 1."""
    dim = a + b
    return ge.BoundaryMatricesBC(rng.normal(size=(a, dim)), rng.normal(size=(b, dim)),
                                 np.zeros((b, dim)), 1)


@pytest.mark.parametrize("case", [*BUILDERS, "complex", "dense", "a < b", "a > b"])
def test_low_rank_factors_are_the_scattering_blocks(case):
    """sigma I + U V^T equals S to rounding, and U and V^T each store the d r
    entries of every block, r = min(a, b) of its a value and b flux rows."""
    rng = np.random.default_rng(41)
    coeffs = None
    if case in ("a < b", "a > b"):
        matrices = one_dense_block(rng, *((2, 5) if case == "a < b" else (5, 2)))
    else:
        g, coeffs = random_mesh(rng, 12, 20, 3)
        spaces = local_condition(rng, g, coeffs, case if case in BUILDERS else "standard")
        if case == "complex":
            spaces = unitary_blocks(spaces, rng)
        elif case == "dense":
            spaces = reference_spaces(spaces)
        matrices = ge.to_boundary_matrices(spaces, g.l, g.m)
    update = ge.vertex_update_matrix(matrices, coeffs)
    s = update.scattering.toarray()
    low_rank = np.diag(update.sigma) + (update.factor_u @ update.factor_vt).toarray()
    assert relative_gap(low_rank, s) <= 1e-14
    entries = 0
    for rows, cols, _ in ge.wellposed._criterion_blocks(matrices, coeffs):
        a = np.count_nonzero(rows < matrices.k0, axis=1)
        entries += np.sum(cols.shape[1] * np.minimum(a, cols.shape[1] - a))
    assert update.factor_u.nnz == update.factor_vt.nnz == entries
    assert entries < matrices.trace_dim ** 2 / 2


def test_a_kirchhoff_hub_stores_one_rank_one_term():
    """The 64-edge hub with one external edge: its 65 x 65 Kirchhoff block is
    (2/65) J - I, -I plus a rank-one term (65 entries in each factor), and the
    Neumann leaves (r = 0) scatter by the sign +1 alone."""
    g = ge.MetricGraph(65, [(0, j) for j in range(1, 65)], [0])
    bc = ge.from_standard(g, ge.unit_coefficients(64, 1))
    update = ge.vertex_update_matrix(ge.to_boundary_matrices(bc, g.l, g.m))
    assert update.factor_u.shape == (g.trace_dim, 1) and update.factor_vt.shape == (1, 129)
    assert update.factor_u.nnz == update.factor_vt.nnz == 65
    hub = np.diff(update.factor_u.indptr) > 0
    assert hub.sum() == 65
    assert np.array_equal(update.sigma, np.where(hub, -1.0, 1.0))
    low_rank = np.diag(update.sigma) + (update.factor_u @ update.factor_vt).toarray()
    assert np.abs(low_rank[np.ix_(hub, hub)] - (2 / 65 - np.eye(65))).max() <= 1e-15
    assert np.array_equal(low_rank[~hub][:, ~hub], np.eye(64))
