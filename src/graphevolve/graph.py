"""Finite metric-graph model and its trace-slot bookkeeping.

A graph has ``n`` integer-indexed vertices, ``m`` internal edges
parametrized on [0, 1] (0 at the tail vertex, 1 at the head) and ``l``
external edges parametrized on the half line (0 at the anchor vertex).
Traces of edge functions are always ordered ``(f_e(0), f_i(0), f_i(1))``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGraphError, IndexOutOfRangeError


@dataclass(frozen=True)
class MetricGraph:
    """Vertex count plus internal (tail, head) and external (anchor) edge lists."""

    n: int
    internal_edges: tuple[tuple[int, int], ...] = ()
    external_edges: tuple[int, ...] = ()

    def __init__(self, n, internal_edges=(), external_edges=()):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(
            self, "internal_edges", tuple((int(t), int(h)) for t, h in internal_edges)
        )
        object.__setattr__(self, "external_edges", tuple(int(a) for a in external_edges))
        validate_graph(self)

    @property
    def m(self) -> int:
        return len(self.internal_edges)

    @property
    def l(self) -> int:
        return len(self.external_edges)

    @property
    def trace_dim(self) -> int:
        """Dimension of the endpoint trace space, l + 2m."""
        return self.l + 2 * self.m


def validate_graph(g: MetricGraph) -> None:
    """Raise unless the graph invariants hold; warn on isolated vertices."""
    if g.n < 1:
        raise IndexOutOfRangeError(f"vertex count must be >= 1, got {g.n}")
    if g.m + g.l == 0:
        raise EmptyGraphError("graph must have at least one edge (l + m > 0)")
    for j, (tail, head) in enumerate(g.internal_edges):
        for v in (tail, head):
            if not 0 <= v < g.n:
                raise IndexOutOfRangeError(
                    f"internal edge {j} endpoint {v} outside [0, {g.n})"
                )
    for k, anchor in enumerate(g.external_edges):
        if not 0 <= anchor < g.n:
            raise IndexOutOfRangeError(
                f"external edge {k} anchor {anchor} outside [0, {g.n})"
            )
    isolated = sorted(set(range(g.n)) - set(endpoint_vertices(g).tolist()))
    if isolated:
        warnings.warn(f"isolated vertices present: {isolated}", stacklevel=2)


def endpoint_vertices(g: MetricGraph) -> np.ndarray:
    """The vertex of each trace slot, in (f_e(0), f_i(0), f_i(1)) order."""
    return np.array(list(g.external_edges) + [t for t, _ in g.internal_edges]
                    + [h for _, h in g.internal_edges], dtype=np.intp)


def vertex_slots(g: MetricGraph) -> tuple[np.ndarray, ...]:
    """Trace slots of each non-isolated vertex, in vertex order, each ascending."""
    ends = endpoint_vertices(g)
    order = np.argsort(ends, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(ends, minlength=g.n))[:-1])
    return tuple(s for s in groups if s.size)


def continuity_space(g: MetricGraph) -> np.ndarray:
    """Basis of the traces of functions continuous across every vertex.

    Column j is the indicator of the trace slots of the j-th non-isolated
    vertex (``vertex_slots``).  The columns have disjoint supports, so they
    form a basis; its rank equals the number of non-isolated vertices.
    """
    slots = vertex_slots(g)
    basis = np.zeros((g.trace_dim, len(slots)), dtype=complex)
    basis[np.concatenate(slots), np.repeat(np.arange(len(slots)), [s.size for s in slots])] = 1.0
    return basis
