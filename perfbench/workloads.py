"""Seeded workload inputs for the graphevolve benchmark.

Each generated workload is one YAML config built from the benchmark seed; the
program under test receives only that text.  ``cli_small`` runs the shipped
``configs/*.cfg`` and does not depend on the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("heat_star", "wave_long", "wave_mesh", "cli_small")

# cli_small: (command, config, extra args, expected exit code), run in this order.
SHIPPED = ("dirichlet-standing-wave", "kirchhoff-star-heat", "nonlocal-interval",
           "periodic-equal-a", "star3-degenerate", "star3", "zero-initial")
CLI_SMALL_EXIT = {"periodic-equal-a": 2, "star3-degenerate": 2}
SIMULATED = ("dirichlet-standing-wave", "kirchhoff-star-heat", "nonlocal-interval",
             "zero-initial")

# BLAS threads per workload (capped at nproc).  heat_star's dense N = 2020
# factorizations gain from two threads; on the small matrices of the other
# workloads a second thread only adds stalls when the host is busy (wave_long
# set-up: 0.09-0.6 s with two threads, 0.081-0.084 s with one).
BLAS_THREADS = {"heat_star": 2}


def cli_small_commands() -> list[tuple[str, str, tuple[str, ...], int]]:
    cmds = [("check", name, (), CLI_SMALL_EXIT.get(name, 0)) for name in SHIPPED]
    cmds += [("simulate", name, (), 0) for name in SIMULATED]
    cmds.append(("transform", "star3", (), 0))
    cmds.append(("nonlocal-check", "nonlocal-interval", ("--auto-shrink-t0",), 0))
    return cmds


def _f(x: float) -> str:
    return repr(float(x))


def _gaussian(rng: random.Random) -> str:
    return (f"{{kind: gaussian, center: {_f(rng.uniform(0.2, 0.8))}, "
            f"width: {_f(rng.uniform(0.05, 0.15))}, "
            f"amplitude: {_f(rng.uniform(0.5, 1.5))}}}")


def _star(k: int, rng: random.Random) -> list[str]:
    edges = []
    for j in range(k):
        pair = ["c", f"l{j}"]
        if rng.random() < 0.5:
            pair.reverse()
        edges.append(f"[{pair[0]}, {pair[1]}]")
    names = ", ".join(["c"] + [f"l{j}" for j in range(k)])
    return ["graph:", f"  vertices: [{names}]",
            f"  internal_edges: [{', '.join(edges)}]"]


def heat_star(seed: int) -> str:
    """20-edge Kirchhoff star, N = 2020 heat unknowns, 500 implicit steps."""
    rng = random.Random(f"heat_star:{seed}")
    k = 20
    lines = _star(k, rng)
    lines += ["coefficients:", "  internal:"]
    lines += [f"    - {{kind: constant, value: {_f(rng.uniform(0.5, 2.0))}}}"
              for _ in range(k)]
    lines += ["bc:", "  kind: standard",
              "sim:", "  equation: heat", "  T: 0.5", "  dt: 0.001", "  theta: 0.5",
              "  n_per_edge: 100", "  record_stride: 250",
              "initial:", "  internal:"]
    lines += [f"    - {{u0: {_gaussian(rng)}}}" for _ in range(k)]
    return "\n".join(lines) + "\n"


def wave_long(seed: int) -> str:
    """100-edge unit-speed Kirchhoff star, 1000 cells per edge, 3000 steps."""
    rng = random.Random(f"wave_long:{seed}")
    k = 100
    lines = _star(k, rng)
    lines += ["coefficients:", "  internal:"]
    lines += ["    - {kind: constant, value: 1.0}"] * k
    lines += ["bc:", "  kind: standard",
              "sim:", "  equation: wave", "  T: 3.0", "  dt: 0.001", "  record_stride: 1500",
              "initial:", "  internal:"]
    lines += [f"    - {{u0: {_gaussian(rng)}, u1: {{kind: zero}}}}" for _ in range(k)]
    return "\n".join(lines) + "\n"


def wave_mesh(seed: int) -> str:
    """Random connected graph: 200 vertices, 400 internal and 20 external edges.

    Internal speeds squared are drawn from {0.25, 1, 4}.  External edges have
    length 2 and lambda = 0.25 (speed 0.5), so no wave reaches a truncation cut
    before T = 4 and the total energy is conserved: that makes conservation a
    valid correctness gate.
    """
    rng = random.Random(f"wave_mesh:{seed}")
    n, m, l = 200, 400, 20
    pairs: set[frozenset] = set()
    edges = []

    def add(a: int, b: int) -> None:
        pairs.add(frozenset((a, b)))
        edges.append((a, b) if rng.random() < 0.5 else (b, a))

    for v in range(1, n):  # random spanning tree keeps the graph connected
        add(v, rng.randrange(v))
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and frozenset((a, b)) not in pairs:
            add(a, b)
    anchors = rng.sample(range(n), l)

    lines = ["graph:", f"  vertices: {n}",
             "  internal_edges: [" + ", ".join(f"[{a}, {b}]" for a, b in edges) + "]",
             "  external_edges:"]
    lines += [f"    - {{vertex: {v}, length: 2.0}}" for v in anchors]
    lines += ["coefficients:", "  internal:"]
    lines += [f"    - {{kind: constant, value: {rng.choice((0.25, 1.0, 4.0))}}}"
              for _ in range(m)]
    lines += ["  external:"]
    lines += ["    - {kind: constant, value: 0.25}"] * l
    lines += ["bc:", "  kind: standard",
              "sim:", "  equation: wave", "  T: 4.0", "  dt: 0.02", "  record_stride: 50",
              "initial:", "  internal:"]
    lines += [f"    - {{u0: {_gaussian(rng)}, u1: {{kind: zero}}}}" for _ in range(m)]
    return "\n".join(lines) + "\n"


GENERATORS = {"heat_star": heat_star, "wave_long": wave_long, "wave_mesh": wave_mesh}
