"""The seed-0 benchmark workloads, run through the library.

The inputs come from ``perfbench/workloads.py`` and the expected diagnostics
from ``perfbench/reference/``; both, and the gates that compare them, are
imported read-only.
"""

import sys
from pathlib import Path

import pytest

import graphevolve as ge
from graphevolve.config import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gates  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["heat_star", "wave_long", "wave_mesh"])
def test_seed0_workload_matches_reference(name):
    cfg = parse_config(workloads.GENERATORS[name](gates.DEFAULT_SEED))
    sim = cfg.sim
    if sim.equation == "wave":
        state = ge.wave_init(cfg.graph, cfg.coeffs, cfg.bc, cfg.initial, sim.dt, sim.T,
                             snap_tol=sim.snap_tol, external_lengths=cfg.external_lengths)
        _, diag, _ = ge.wave_run(state, sim.T, sim.record_stride)
    else:
        state = ge.heat_init(cfg.graph, cfg.coeffs, cfg.bc, cfg.initial, sim.dt,
                             theta=sim.theta, n_per_edge=sim.n_per_edge,
                             external_lengths=cfg.external_lengths)
        _, diag, _ = ge.heat_run(state, sim.T, sim.record_stride)
    got = {"t": list(diag.times), "energy": list(diag.energy), "mass": list(diag.mass)}
    ref = gates.read_diagnostics(gates.generated_reference(name, gates.DEFAULT_SEED))
    key, tol = gates.CONSERVED[name]
    assert gates.compare_diagnostics(got, ref, name) + gates.conserved(got, key, tol, name) == []
