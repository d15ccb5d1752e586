import json
import sys
from pathlib import Path

import numpy as np
import pytest

import graphevolve as ge
from graphevolve.cli import main
from graphevolve.config import parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "cli_small"


def test_parse_star3_fixture():
    cfg = parse_config((CONFIGS / "star3.cfg").read_text())
    assert cfg.graph.n == 3 and cfg.graph.m == 2 and cfg.graph.l == 1
    assert cfg.vertex_names == ("center", "leaf1", "leaf2")
    assert cfg.external_lengths == (10.0,)
    assert cfg.bc_kind == "boundary_matrices"
    assert cfg.bc.k0 == 2 and cfg.bc.k1 == 3
    assert cfg.sim is None  # check-only configs need no sim section


def test_parse_nonlocal_fixture():
    cfg = parse_config((CONFIGS / "nonlocal-interval.cfg").read_text())
    assert cfg.bc_kind == "nonlocal_interval"
    assert cfg.nonlocal_t0 == 0.25
    assert cfg.sim.equation == "heat"
    assert cfg.sim.dt == 0.001
    h0, h1 = cfg.bc.nonlocal_kernels
    assert np.allclose(h0, 1.0) and h0.size == 101


def test_parse_complex_entries():
    text = (CONFIGS / "star3.cfg").read_text().replace("[0], [1]", '["1+2j"], [1]')
    cfg = parse_config(text)
    assert cfg.bc.v0e[0, 0] == 1 + 2j


def test_unknown_bc_kind_rejected():
    text = (CONFIGS / "star3.cfg").read_text().replace(
        "kind: boundary_matrices", "kind: mystery")
    with pytest.raises(ge.ValidationError):
        parse_config(text)


def test_matrix_shape_mismatch_rejected():
    text = (CONFIGS / "star3.cfg").read_text().replace(
        "v0e: [[0], [1]]", "v0e: [[0], [1], [2]]")
    with pytest.raises(ge.ValidationError):
        parse_config(text)


def test_yaml_syntax_error_reports_line():
    with pytest.raises(ge.ParseError) as info:
        parse_config("graph:\n  vertices: [a, b\n")
    assert info.value.line is not None


def test_missing_section_rejected():
    with pytest.raises(ge.ValidationError):
        parse_config("graph:\n  vertices: 2\n  internal_edges: [[0, 1]]\n")


def test_vertex_count_form():
    cfg = parse_config(
        "graph:\n  vertices: 2\n  internal_edges: [[0, 1]]\n"
        "coefficients:\n  internal:\n    - {kind: constant, value: 1.0}\n"
        "bc:\n  kind: standard\n")
    assert cfg.graph.n == 2 and len(cfg.vertex_names) == 2


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_check_exit_codes(tmp_path):
    assert run_cli("check", CONFIGS / "star3.cfg", "--output-dir", tmp_path,
                   "--quiet") == 0
    assert run_cli("check", CONFIGS / "star3-degenerate.cfg", "--output-dir",
                   tmp_path, "--quiet") == 2
    assert run_cli("check", CONFIGS / "periodic-equal-a.cfg", "--output-dir",
                   tmp_path, "--quiet") == 2
    assert run_cli("check", tmp_path / "missing.cfg", "--quiet") == 1


def test_check_report_contents(tmp_path):
    assert run_cli("check", CONFIGS / "star3.cfg", "--output-dir", tmp_path,
                   "--quiet") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "WellPosed"
    assert report["criterion"] == "Determinant"
    assert abs(report["determinant"]["re"] - 24.0) <= 1e-9
    assert report["dims"] == {"l": 1, "m": 2, "k0": 2, "k1": 3}
    # check must not write any simulation artifacts
    assert not (tmp_path / "solution.csv").exists()
    assert not (tmp_path / "diagnostics.csv").exists()


def test_nonlocal_check_and_auto_shrink(tmp_path):
    assert run_cli("nonlocal-check", CONFIGS / "nonlocal-interval.cfg",
                   "--output-dir", tmp_path, "--quiet") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "WellPosed"
    assert abs(report["young_bound"] - 0.5) <= 1e-12
    assert report["certified_t0"] == 0.25

    text = (CONFIGS / "nonlocal-interval.cfg").read_text().replace(
        "t0: 0.25", "t0: 0.9")
    bad = tmp_path / "wide.cfg"
    bad.write_text(text)
    assert run_cli("nonlocal-check", bad, "--output-dir", tmp_path,
                   "--quiet") == 2
    assert run_cli("nonlocal-check", bad, "--output-dir", tmp_path, "--quiet",
                   "--auto-shrink-t0") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["requested_t0"] == 0.9
    assert report["certified_t0"] <= 0.5


def test_simulate_heat_outputs(tmp_path):
    assert run_cli("simulate", CONFIGS / "kirchhoff-star-heat.cfg",
                   "--output-dir", tmp_path, "--quiet") == 0
    header = (tmp_path / "solution.csv").read_text().splitlines()[0]
    assert header == "t,edge_kind,edge_index,s,u"
    dheader, *drows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert dheader == "t,energy,mass"
    masses = [float(r.split(",")[2]) for r in drows]
    assert abs(masses[-1] - masses[0]) <= 1e-8 * abs(masses[0])


def test_simulate_wave_outputs(tmp_path):
    assert run_cli("simulate", CONFIGS / "dirichlet-standing-wave.cfg",
                   "--output-dir", tmp_path, "--quiet") == 0
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert lines[0] == "t,edge_kind,edge_index,s,u,ut"
    t, kind, idx, s, u, ut = lines[1].split(",")
    assert (t, kind, idx, s) == ("0", "i", "0", "0")


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("simulate", CONFIGS / "dirichlet-standing-wave.cfg",
                       "--output-dir", out, "--quiet") == 0
    assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()
    assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()


def read_diagnostics(path):
    """(t, energy, mass) rows of a diagnostics.csv as an array."""
    header, *rows = path.read_text().splitlines()
    assert header == "t,energy,mass"
    return np.array([[float(x) for x in row.split(",")] for row in rows])


@pytest.mark.parametrize("name", ["dirichlet-standing-wave", "kirchhoff-star-heat",
                                  "nonlocal-interval", "zero-initial"])
def test_simulate_matches_reference_diagnostics(tmp_path, name):
    """Record times equal; energy and mass within 1e-12 of each column's initial value."""
    assert run_cli("simulate", CONFIGS / f"{name}.cfg", "--output-dir", tmp_path,
                   "--quiet") == 0
    got = read_diagnostics(tmp_path / "diagnostics.csv")
    ref = read_diagnostics(REFERENCE / f"{name}.csv")
    assert got.shape == ref.shape
    assert np.array_equal(got[:, 0], ref[:, 0])
    for col in (1, 2):
        scale = abs(ref[0, col]) or np.max(np.abs(ref[:, col]))
        assert np.max(np.abs(got[:, col] - ref[:, col])) <= 1e-12 * scale


# Interval whose Y0 and Y1 nearly coincide: the direct sum fails.
SPACES_Y0_NEAR_Y1 = (
    "graph:\n  vertices: [left, right]\n  internal_edges: [[left, right]]\n"
    "coefficients:\n  internal:\n    - {kind: constant, value: 1.0}\n"
    "bc:\n  kind: boundary_spaces\n  y1_basis: [[1], [1]]\n"
    "  y0_basis: [[1], [1.00000000000001]]\n")


def test_simulate_ill_posed_exits_two(tmp_path):
    """simulate refuses as check does: exit 2, the same report.json, no CSV."""
    periodic = (CONFIGS / "periodic-equal-a.cfg").read_text()
    cases = [(periodic, "heat"), (periodic, "wave"),
             (SPACES_Y0_NEAR_Y1, "heat"), (SPACES_Y0_NEAR_Y1, "wave")]
    for n, (bc_text, equation) in enumerate(cases):
        cfg = tmp_path / f"illposed{n}.cfg"
        cfg.write_text(bc_text + (
            f"sim:\n  equation: {equation}\n  T: 0.01\n  dt: 0.001\n"
            "initial:\n  internal:\n    - {u0: {kind: sine_mode, mode: 1}}\n"))
        checked, simulated = tmp_path / f"check{n}", tmp_path / f"simulate{n}"
        assert run_cli("check", cfg, "--output-dir", checked, "--quiet") == 2
        assert run_cli("simulate", cfg, "--output-dir", simulated, "--quiet") == 2
        assert [p.name for p in simulated.iterdir()] == ["report.json"]
        assert ((simulated / "report.json").read_bytes()
                == (checked / "report.json").read_bytes())


CRITERIA = ("check_boundary_matrices", "check_boundary_spaces",
            "check_nonlocal_interval", "auto_shrink_t0")


@pytest.mark.parametrize("name, equation, calls", [
    ("kirchhoff-star-heat", "heat", 1),
    ("nonlocal-interval", "heat", 1),
    ("dirichlet-standing-wave", "wave", 2),
    ("kirchhoff-star-heat", "wave", 2),
], ids=["heat-spaces", "heat-nonlocal", "wave-matrices", "wave-spaces"])
def test_simulate_checks_well_posedness_once(tmp_path, monkeypatch, name, equation, calls):
    """One outermost criterion call per simulate, in the init's gate; wave adds
    the vertex update's own determinant on the snapped speeds."""
    outermost, depth = [], [0]

    def counting(fn):
        def counted(*args, **kwargs):
            if depth[0] == 0:
                outermost.append(fn.__name__)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return counted

    for attr in CRITERIA:
        orig = getattr(ge.wellposed, attr)
        counted = counting(orig)
        for modname, mod in list(sys.modules.items()):
            if modname == "graphevolve" or modname.startswith("graphevolve."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, counted)
    text = (CONFIGS / f"{name}.cfg").read_text()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("equation: heat", f"equation: {equation}"))
    assert run_cli("simulate", cfg, "--output-dir", tmp_path, "--quiet") == 0
    assert len(outermost) == calls, outermost


def test_simulate_without_sim_section_is_config_error(tmp_path):
    assert run_cli("simulate", CONFIGS / "star3.cfg",
                   "--output-dir", tmp_path, "--quiet") == 1


def test_transform_outputs(tmp_path):
    assert run_cli("transform", CONFIGS / "star3.cfg", "--output-dir", tmp_path,
                   "--quiet") == 0
    lines = (tmp_path / "transform.csv").read_text().splitlines()
    assert lines[0].startswith("edge_kind,edge_index")
    assert len(lines) == 1 + 3  # two internal edges + one external edge


@pytest.mark.parametrize("config, old, new, key", [
    ("kirchhoff-star-heat", "theta: 0.5", "theta: 0.3", "theta"),
    ("kirchhoff-star-heat", "T: 1.0", "T: .nan", "T"),
    ("kirchhoff-star-heat", "record_stride: 100", "record_stride: 0", "record_stride"),
    ("kirchhoff-star-heat", "dt: 0.001", "dt: 0.003", "dt"),
    ("dirichlet-standing-wave", "dt: 0.005", "dt: 0.003", "dt"),
], ids=["theta", "T-nan", "record_stride", "dt-not-dividing-T", "wave-dt-not-dividing-T"])
def test_simulate_rejects_bad_sim_values(tmp_path, capsys, config, old, new, key):
    text = (CONFIGS / f"{config}.cfg").read_text()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    assert run_cli("simulate", cfg, "--output-dir", tmp_path, "--quiet") == 1
    assert capsys.readouterr().err.startswith(f"error: sim.{key}: ")
    assert not (tmp_path / "solution.csv").exists()
