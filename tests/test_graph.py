import warnings

import numpy as np
import pytest

import graphevolve as ge


def test_interval_is_valid(interval):
    assert interval.m == 1 and interval.l == 0 and interval.trace_dim == 2


def test_empty_graph_rejected():
    with pytest.raises(ge.EmptyGraphError):
        ge.MetricGraph(1, [], [])


def test_vertex_index_out_of_range():
    with pytest.raises(ge.IndexOutOfRangeError):
        ge.MetricGraph(3, [(0, 5)], [])
    with pytest.raises(ge.IndexOutOfRangeError):
        ge.MetricGraph(2, [(0, 1)], [7])


def test_isolated_vertex_warns():
    with pytest.warns(UserWarning, match="isolated"):
        ge.MetricGraph(3, [(0, 1)], [])


def test_continuity_space_interval(interval):
    basis = ge.continuity_space(interval)
    assert basis.shape == (2, 2)
    assert np.linalg.matrix_rank(basis) == 2


def test_continuity_space_star(star):
    basis = ge.continuity_space(star)
    assert basis.shape == (5, 3)
    # the all-traces-at-center pattern lies in the span
    target = np.array([1, 1, 1, 0, 0], dtype=complex)
    coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
    assert np.allclose(basis @ coef, target, atol=1e-12)


def test_continuity_space_loop(loop):
    basis = ge.continuity_space(loop)
    assert basis.shape == (2, 1)
    assert np.allclose(basis[:, 0] / basis[0, 0], [1, 1])


def test_continuity_rank_equals_nonisolated_vertices():
    rng = np.random.default_rng(11)
    from conftest import random_graph
    for _ in range(25):
        g = random_graph(rng)
        touched = len({v for e in g.internal_edges for v in e} | set(g.external_edges))
        assert ge.continuity_space(g).shape[1] == touched


def test_incidence_round_trip():
    rng = np.random.default_rng(3)
    from conftest import random_graph
    for _ in range(25):
        g = random_graph(rng)
        ends = ge.endpoint_vertices(g)
        internal = tuple(zip(ends[g.l:g.l + g.m].tolist(), ends[g.l + g.m:].tolist()))
        assert internal == g.internal_edges
        assert tuple(ends[:g.l].tolist()) == g.external_edges
        untouched = sorted(set(range(g.n)) - {v for e in g.internal_edges for v in e}
                           - set(g.external_edges))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ge.MetricGraph(g.n, g.internal_edges, g.external_edges)
        assert [str(w.message) for w in caught] == (
            [f"isolated vertices present: {untouched}"] if untouched else [])
