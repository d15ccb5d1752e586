"""The seed-0 benchmark workloads, run through the library.

The inputs come from ``perfbench/workloads.py`` and the expected diagnostics
from ``perfbench/reference/``; both, and the gates that compare them, are
imported read-only.  The wave runs also check every recorded snapshot against
the per-edge readers.  The config loader is checked against PyYAML's own
constructor on the generated texts and the shipped configs.
"""

import sys
from pathlib import Path

import pytest
import yaml

import graphevolve as ge
from graphevolve import config, wave
from graphevolve.config import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gates  # noqa: E402
import workloads  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def check_snapshots_against_edge_fields(monkeypatch) -> list:
    """Make every wave record compare its snapshot, byte for byte, with the
    per-edge readers; the returned list collects the times checked."""
    snapshot, checked = wave._snapshot, []

    def checking(state):
        t, u, ut = snapshot(state)
        edges = state.edges()
        assert [a.tobytes() for a in u] == [e.u.tobytes() for e in edges], t
        assert [a.tobytes() for a in ut] == [((e.p + e.q) / 2).tobytes() for e in edges], t
        checked.append(t)
        return t, u, ut

    monkeypatch.setattr(wave, "_snapshot", checking)
    return checked


@pytest.mark.parametrize("name", ["heat_star", "wave_long", "wave_mesh"])
def test_seed0_workload_matches_reference(name, monkeypatch):
    cfg = parse_config(workloads.GENERATORS[name](gates.DEFAULT_SEED))
    sim = cfg.sim
    if sim.equation == "wave":
        state = ge.wave_init(cfg.graph, cfg.coeffs, cfg.bc, cfg.initial, sim.dt, sim.T,
                             snap_tol=sim.snap_tol, external_lengths=cfg.external_lengths)
        checked = check_snapshots_against_edge_fields(monkeypatch)
        _, diag, _ = ge.wave_run(state, sim.T, sim.record_stride)
        assert checked == diag.times
    else:
        state = ge.heat_init(cfg.graph, cfg.coeffs, cfg.bc, cfg.initial, sim.dt,
                             theta=sim.theta, n_per_edge=sim.n_per_edge,
                             external_lengths=cfg.external_lengths)
        _, diag, _ = ge.heat_run(state, sim.T, sim.record_stride)
    got = {"t": list(diag.times), "energy": list(diag.energy), "mass": list(diag.mass)}
    ref = gates.read_diagnostics(gates.generated_reference(name, gates.DEFAULT_SEED))
    key, tol = gates.CONSERVED[name]
    assert gates.compare_diagnostics(got, ref, name) + gates.conserved(got, key, tol, name) == []


def test_loader_matches_pyyaml_on_every_shipped_text(monkeypatch):
    """On texts where YAML 1.1 and 1.2 agree, the event-stream loader gives
    what PyYAML's safe constructor gives, types and key order included, from
    libyaml's parser and from the pure-Python one of builds without it."""
    texts = [path.read_text() for path in sorted(CONFIGS.glob("*.cfg"))]
    texts += [make(seed) for make in workloads.GENERATORS.values() for seed in range(3)]
    for text in texts:
        want = repr(yaml.load(text, Loader=yaml.SafeLoader))
        assert repr(config._load(text)) == want
        with monkeypatch.context() as pure_python:
            pure_python.delattr(yaml, "CSafeLoader")
            assert repr(config._load(text)) == want
