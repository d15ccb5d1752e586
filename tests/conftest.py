import dataclasses

import numpy as np
import pytest

import graphevolve as ge


@pytest.fixture
def interval():
    return ge.MetricGraph(2, [(0, 1)])


@pytest.fixture
def loop():
    return ge.MetricGraph(1, [(0, 0)])


@pytest.fixture
def star():
    """Star with center 0, two internal edges out, and one external edge."""
    return ge.MetricGraph(3, [(0, 1), (0, 2)], [0])


@pytest.fixture
def compact_star():
    """Compact 3-star: pulse edge (leaf1 -> center), two outgoing edges."""
    return ge.MetricGraph(4, [(1, 0), (0, 2), (0, 3)])


def dirichlet_interval_bc():
    return ge.matrices_bc(l=0, m=1, k0=2, k1=0, v0i=[[1], [0]], v1i=[[0], [1]])


def periodic_loop_bc():
    return ge.matrices_bc(l=0, m=1, k0=1, k1=1,
                          v0i=[[1]], v1i=[[-1]], w0i=[[1]], w1i=[[1]])


def coupled_endpoints_bc():
    """f(0) + f(1) = 0, f'(0) + f'(1) = 0 (the a(0) != a(1) dichotomy family)."""
    return ge.matrices_bc(l=0, m=1, k0=1, k1=1,
                          v0i=[[1]], v1i=[[1]], w0i=[[1]], w1i=[[1]])


def star3_bc(alpha=1.0, beta=2.0, gamma=3.0, eps=4.0, delta=0.0):
    return ge.matrices_bc(
        l=1, m=2, k0=2, k1=3,
        v0e=[[0], [1]], v0i=[[1, -1], [0, -1]],
        w0e=[[0], [alpha], [0]], w0i=[[0, 0], [beta, gamma], [0, 0]],
        w1i=[[1, 0], [0, 0], [0, eps]],
        u1i=[[0, 0], [0, 0], [0, -delta]])


def random_graph(rng, max_n=8, max_m=12, max_l=4):
    while True:
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(0, max_m + 1))
        l = int(rng.integers(0, max_l + 1))
        if m + l == 0:
            continue
        internal = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)]
        external = [int(rng.integers(n)) for _ in range(l)]
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return ge.MetricGraph(n, internal, external)


def random_mesh(rng, n, m, l):
    """A connected graph: a random spanning tree on n vertices, more distinct
    vertex pairs up to m internal edges, l external edges at distinct vertices,
    and squared speeds drawn from {0.25, 1, 4}."""
    edges = [(v, int(rng.integers(v))) for v in range(1, n)]
    pairs = {frozenset(e) for e in edges}
    while len(edges) < m:
        a, b = (int(x) for x in rng.integers(n, size=2))
        if a != b and frozenset((a, b)) not in pairs:
            pairs.add(frozenset((a, b)))
            edges.append((a, b))
    g = ge.MetricGraph(n, edges, rng.choice(n, size=l, replace=False).tolist())
    squares = rng.choice([0.25, 1.0, 4.0], size=m + l).tolist()
    return g, ge.EdgeCoefficients(tuple(ge.constant(x) for x in squares[:m]),
                                  tuple(ge.constant(x) for x in squares[m:]))


def with_block(bc, b, **blocks):
    """`bc` rebuilt from its vertex blocks with the ``value_block`` and/or
    ``flux_block`` of block b (counted group after group) replaced."""
    groups = list(bc.groups)
    for i, group in enumerate(groups):
        if b < group.slots.shape[0]:
            stacks = {name: getattr(group, name).copy() for name in blocks}
            for name, block in blocks.items():
                stacks[name][b] = block
            groups[i] = dataclasses.replace(group, **stacks)
            break
        b -= group.slots.shape[0]
    fields = ({"m": bc.m} if isinstance(bc, ge.BoundaryMatricesBC)
              else {"mu_endpoints": bc.mu_endpoints, "nonlocal_kernels": bc.nonlocal_kernels})
    return type(bc).from_blocks(groups, bc.sparse_U, **fields)


def block_indices(bc, attr="slots"):
    """The trace slots (or ``value`` or ``flux`` indices) of the blocks of `bc`,
    block after block, group after group."""
    return [x for g in bc.groups for x in getattr(g, attr)]


def random_coeffs(rng, g, lo=0.25, hi=4.0):
    internal = tuple(ge.constant(float(rng.uniform(lo, hi))) for _ in range(g.m))
    external = tuple(ge.constant(float(rng.uniform(lo, hi))) for _ in range(g.l))
    return ge.EdgeCoefficients(internal, external)


BUILDERS = ("standard", "delta", "nonlocal_matrices")


def local_condition(rng, g, coeffs, builder):
    """A seeded local vertex condition from one of the vertex-block BUILDERS."""
    if builder == "standard":
        return ge.from_standard(g, coeffs)
    if builder == "delta":
        degree = np.bincount(np.concatenate([np.ravel(g.internal_edges), g.external_edges])
                             .astype(int), minlength=g.n)
        alpha = np.where(degree > 0, rng.uniform(-2.0, 2.0, g.n), 0.0)
        return ge.from_delta(g, coeffs, ge.DeltaCoupling(alpha))
    return ge.from_nonlocal_matrices(g, coeffs, rng.uniform(-1.0, 1.0, (g.l, g.l)),
                                     rng.uniform(-1.0, 1.0, (g.m, g.m)),
                                     rng.uniform(-1.0, 1.0, (g.m, g.m)))
