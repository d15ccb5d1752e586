import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphevolve as ge
from graphevolve import cli
from graphevolve.cli import main
from graphevolve.config import parse_config
from graphevolve.timeloop import Diagnostics

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
    assert cfg.bc.v_rows[0, 0] == 1 + 2j  # v0e fills trace column 0


def test_numbers_with_an_exponent_are_floats():
    """YAML 1.2 floats that YAML 1.1 reads as strings: no dot, or no exponent sign."""
    text = (CONFIGS / "kirchhoff-star-heat.cfg").read_text()
    for old, new in (("T: 1.0", "T: 1.0e5"), ("dt: 0.001", "dt: 1e-3"),
                     ("value: 2.0", "value: 2e0"),
                     ("width: 0.1, amplitude: 0.7", "width: 0.1, amplitude: -2e3")):
        assert old in text
        text = text.replace(old, new)
    cfg = parse_config(text)
    assert (cfg.sim.T, cfg.sim.dt) == (1.0e5, 1e-3)
    assert cfg.coeffs.internal[1](0.0) == 2.0
    assert cfg.initial.internal[1].displacement.amplitude == -2e3


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


def test_nonlocal_kernels_of_different_sample_counts(tmp_path):
    """Each kernel is read on a uniform grid of its own length, so a constant h1
    of three samples simulates to the bytes of the shipped 101-sample one."""
    three = tmp_path / "three.cfg"
    three.write_text((CONFIGS / "nonlocal-interval.cfg").read_text()
                     .replace("h1: 1.0", "h1: [1.0, 1.0, 1.0]", 1))
    for cfg, out in ((CONFIGS / "nonlocal-interval.cfg", "shipped"), (three, "three")):
        assert run_cli("simulate", cfg, "--output-dir", tmp_path / out, "--quiet") == 0
    for name in ("solution.csv", "diagnostics.csv"):
        assert (tmp_path / "three" / name).read_bytes() == (
            tmp_path / "shipped" / name).read_bytes()


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


def test_simulate_decides_at_the_given_speeds(tmp_path, capsys):
    """A wave matrices form is decided at its given speeds, as check decides
    it; a singularity that only the snapped speeds bring is an error (exit 1).

    Speeds 1 and 1.3 on a path; dt = 0.001 snaps 1.3 to 1 / 0.769.  The flux
    row is the continuity row f_1(1) - f_2(0) times the speeds (1, c2), so the
    criterion matrix is singular at c2 and regular at any other speed."""
    snapped = 1.0 / (769 * (0.01 / 10))
    for n, (c2, check, simulate) in enumerate(((1.3, 2, 2), (snapped, 0, 1))):
        cfg = tmp_path / f"speeds{n}.cfg"
        cfg.write_text(
            "graph:\n  vertices: [a, b, c]\n  internal_edges: [[a, b], [b, c]]\n"
            "coefficients:\n  internal:\n    - {kind: constant, value: 1.0}\n"
            "    - {kind: constant, value: 1.69}\n"
            "bc:\n  kind: boundary_matrices\n  k0: 3\n  k1: 1\n"
            "  v0i: [[1, 0], [0, 0], [0, -1]]\n  v1i: [[0, 0], [0, 1], [1, 0]]\n"
            f"  w0i: [[0, {-c2!r}]]\n  w1i: [[1, 0]]\n"
            "sim:\n  equation: wave\n  T: 0.01\n  dt: 0.001\n"
            "initial:\n  internal:\n    - {u0: {kind: sine_mode, mode: 1}}\n"
            "    - {u0: {kind: sine_mode, mode: 1}}\n")
        checked, simulated = tmp_path / f"check{n}", tmp_path / f"simulate{n}"
        assert run_cli("check", cfg, "--output-dir", checked, "--quiet") == check
        capsys.readouterr()
        assert run_cli("simulate", cfg, "--output-dir", simulated, "--quiet") == simulate
        if simulate == 2:
            assert [p.name for p in simulated.iterdir()] == ["report.json"]
            assert ((simulated / "report.json").read_bytes()
                    == (checked / "report.json").read_bytes())
        else:
            assert "at the snapped wave speeds (edge 1: 1.3 -> 1.30039)" \
                in capsys.readouterr().err


# _determinant_report is every Determinant decision, also those of
# require_well_posed and vertex_update_matrix
CRITERIA = ("check_boundary_matrices", "check_boundary_spaces",
            "check_nonlocal_interval", "auto_shrink_t0", "_determinant_report")


@pytest.mark.parametrize("command, name, equation, calls", [
    ("simulate", "kirchhoff-star-heat", "heat", 1),
    ("simulate", "nonlocal-interval", "heat", 1),
    ("simulate", "dirichlet-standing-wave", "wave", 1),
    ("simulate", "kirchhoff-star-heat", "wave", 2),
    ("nonlocal-check", "nonlocal-interval", "heat", 1),
], ids=["heat-spaces", "heat-nonlocal", "wave-matrices", "wave-spaces",
        "nonlocal-check-shrinks"])
def test_simulate_checks_well_posedness_once(tmp_path, monkeypatch, command, name, equation,
                                             calls):
    """One outermost criterion call per simulate and criterion: the init's
    gate, and for a wave spaces form also the Determinant on the snapped
    speeds; a matrices form whose speeds snap exactly is decided once.
    nonlocal-check with --auto-shrink-t0 certifies once, even when t0 must
    shrink."""
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
    # t0 = 0.9 fails the Young bound, so nonlocal-check has to shrink it
    cfg.write_text(text.replace("equation: heat", f"equation: {equation}")
                   .replace("t0: 0.25", "t0: 0.9"))
    shrink = ("--auto-shrink-t0",) if command == "nonlocal-check" else ()
    assert run_cli(command, cfg, "--output-dir", tmp_path, "--quiet", *shrink) == 0
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


@pytest.mark.parametrize("config, old, new", [
    ("kirchhoff-star-heat", "n_per_edge: 100", "n_per_edge: 1000000000000"),
    ("dirichlet-standing-wave", "dt: 0.005", "dt: 1.0e-13"),
], ids=["heat-cells", "wave-steps"])
def test_simulate_reports_memory_error(tmp_path, capsys, config, old, new):
    """Grids numpy refuses to allocate (7 and 146 TiB here, refused before any
    memory is touched) end in `error: ...` and exit 1, not a traceback."""
    text = (CONFIGS / f"{config}.cfg").read_text()
    assert old in text
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text.replace(old, new))
    assert run_cli("simulate", cfg, "--output-dir", tmp_path, "--quiet") == 1
    assert capsys.readouterr().err.startswith("error: out of memory: ")
    assert not (tmp_path / "solution.csv").exists()


def test_simulate_reports_a_diverged_wave(tmp_path, capsys):
    """A delta coupling of 1e6 on a loop makes the explicit vertex update of the
    wave diverge within a few dozen steps: one `error:` line and exit 1."""
    cfg = tmp_path / "loop.cfg"
    cfg.write_text("graph: {vertices: 1, internal_edges: [[0, 0]]}\n"
                   "bc: {kind: delta, alpha: [1.0e+6]}\n"
                   "sim: {equation: wave, T: 1.0, dt: 0.01}\n"
                   "initial:\n  internal:\n    - {u0: {kind: sine_mode, mode: 2}}\n")
    assert run_cli("simulate", cfg, "--output-dir", tmp_path, "--quiet") == 1
    assert capsys.readouterr().err == ("error: vertex values contain infs or NaNs: "
                                       "the data are not finite, or the run diverged\n")
    assert not (tmp_path / "solution.csv").exists()


WAVE_WITH_A_CUT = (
    "graph:\n  vertices: [a, b]\n  internal_edges: [[a, b]]\n"
    "  external_edges: [{vertex: a, length: 4.0}]\n"
    "bc:\n  kind: standard\n"
    "sim:\n  equation: wave\n  T: 3.0\n  dt: 0.01\n  record_stride: 30\n"
    "initial:\n  internal:\n    - {u0: {kind: sine_mode, mode: 1}}\n"
    "  external:\n    - {u0: {kind: gaussian, center: 2.0, width: 0.05}}\n")


def test_simulate_wave_through_an_external_cut(tmp_path):
    """A pulse on the external edge leaves through its cut at s = 4 before T.  The
    Gaussian underflows to 0 from s = 4 on, so the run equals the half-line's: the
    same config cut at 8 writes the same rows for the internal edge and for
    s <= 4 of the external one."""
    rows = {}
    for length in ("4.0", "8.0"):
        cfg = tmp_path / f"cut{length}.cfg"
        cfg.write_text(WAVE_WITH_A_CUT.replace("length: 4.0", f"length: {length}"))
        out = tmp_path / length
        assert run_cli("simulate", cfg, "--output-dir", out, "--quiet") == 0
        rows[length] = [line.split(",") for line in
                        (out / "solution.csv").read_text().splitlines()[1:]]
    short, long = rows["4.0"], rows["8.0"]
    assert [r for r in short if r[1] == "i"] == [r for r in long if r[1] == "i"]
    assert short == [r for r in long if r[1] == "i" or float(r[3]) <= 4.0]
    assert max(abs(float(r[4])) for r in long if r[0] == "3" and float(r[3]) > 4.0) > 0.1


HEAT_WITH_LEAD = (
    "graph:\n  vertices: [a, b]\n  internal_edges: [[a, b]]\n"
    "  external_edges: [{vertex: a, length: 2.0}]\n"
    "coefficients:\n  internal:\n    - {kind: constant, value: 1.0}\n"
    "bc:\n  kind: standard\n"
    "sim:\n  equation: heat\n  T: 0.01\n  dt: 0.001\n"
    "initial:\n  internal:\n    - {u0: {kind: sine_mode, mode: 1}}\n")
WAVE_WITH_LEAD = HEAT_WITH_LEAD.replace("equation: heat", "equation: wave")
DIRICHLET_MATRICES = (
    "graph:\n  vertices: [a, b]\n  internal_edges: [[a, b]]\n"
    "bc:\n  kind: boundary_matrices\n  k0: 2\n  k1: 0\n"
    "  v0i: [[1], [0]]\n  v1i: [[0], [1]]\n")
U0 = "{u0: {kind: sine_mode, mode: 1}}"
STANDING_WAVE = (CONFIGS / "dirichlet-standing-wave.cfg").read_text()
ONE_VERTEX_LOOP = "graph:\n  vertices: 1\n  internal_edges: [[0, 0]]\nbc:\n  kind: standard\n"


@pytest.mark.parametrize("base, old, new, path", [
    (HEAT_WITH_LEAD, "coefficients:\n  internal:\n    - {kind: constant, value: 1.0}",
     "coefficients: [1]", "coefficients"),
    (HEAT_WITH_LEAD, "internal_edges: [[a, b]]", "internal_edges: 5", "graph.internal_edges"),
    (HEAT_WITH_LEAD, "external_edges: [{vertex: a, length: 2.0}]", "external_edges: 5",
     "graph.external_edges"),
    (HEAT_WITH_LEAD, "initial:\n  internal:\n    - " + U0, "initial: [1]", "initial"),
    (HEAT_WITH_LEAD, "- " + U0, "- 5", "initial.internal[0]"),
    (HEAT_WITH_LEAD, U0, "{u0: {kind: custom_samples, values: 5}}",
     "initial.internal[0].u0.values"),
    (HEAT_WITH_LEAD, U0, "{u0: {kind: custom_samples, values: [1, 2, 3]}}",
     "initial.internal[0]"),
    (WAVE_WITH_LEAD, U0, "{u0: {kind: zero}, u1: {kind: sine_mode, mode: 0}}",
     "initial.internal[0].u1.mode"),
    (HEAT_WITH_LEAD, U0, "{u0: {kind: gaussian, center: 0.5, width: 0}}",
     "initial.internal[0].u0.width"),
    (HEAT_WITH_LEAD, "length: 2.0", "length: -1", "graph.external_edges[0].length"),
    (HEAT_WITH_LEAD, "length: 2.0", "length: 0", "graph.external_edges[0].length"),
    (DIRICHLET_MATRICES, "k0: 2", "k0: 2.5", "bc.k0"),
    (HEAT_WITH_LEAD, "mode: 1}", "mode: 1.5}", "initial.internal[0].u0.mode"),
    (HEAT_WITH_LEAD, "{kind: constant, value: 1.0}", "{kind: sampled, values: [1]}",
     "coefficients.internal[0]"),
    ((CONFIGS / "nonlocal-interval.cfg").read_text(), "t0: 0.25", "t0: 2", "bc.t0"),
    (ONE_VERTEX_LOOP, "vertices: 1", "vertices: true", "graph.vertices"),
    (ONE_VERTEX_LOOP, "vertices: 1", "vertices: -1", "graph.vertices"),
    (HEAT_WITH_LEAD, "[[a, b]]", "[[false, true]]", "graph.internal_edges[0]"),
    (HEAT_WITH_LEAD, "vertex: a", "vertex: true", "graph.external_edges[0].vertex"),
    (HEAT_WITH_LEAD, "coefficients:\n", "coefficients:\n  epsilon: .nan\n", "coefficients"),
    (STANDING_WAVE, "amplitude: 1.0", "amplitude: .nan", "initial.internal[0].u0.amplitude"),
    (STANDING_WAVE, "value: 1.0", "value: .nan", "coefficients.internal[0].value"),
    (STANDING_WAVE, "v0i: [[1], [0]]", "v0i: [[.nan], [0]]", "bc.v0i[0][0]"),
    (STANDING_WAVE, "v0i: [[1], [0]]", "v0i: [[1], [1" + "0" * 400 + "]]", "bc.v0i[1][0]"),
    (SPACES_Y0_NEAR_Y1, "y1_basis: [[1], [1]]", "y1_basis: 5", "bc.y1_basis"),
    (SPACES_Y0_NEAR_Y1, "y1_basis: [[1], [1]]", "y1_basis: {a: 1}", "bc.y1_basis"),
    (SPACES_Y0_NEAR_Y1, "y0_basis: [[1], [1.00000000000001]]", "y0_basis: 5", "bc.y0_basis"),
    (SPACES_Y0_NEAR_Y1, "y0_basis: [[1], [1.00000000000001]]", "y0_basis: {a: 1}",
     "bc.y0_basis"),
    ((CONFIGS / "nonlocal-interval.cfg").read_text(), "h0: 1.0", "h0: [1]", "bc.h0"),
    ((CONFIGS / "nonlocal-interval.cfg").read_text(), "h1: 1.0", "h1: []", "bc.h1"),
    ((CONFIGS / "nonlocal-interval.cfg").read_text(), "equation: heat", "equation: wave",
     "sim.equation"),
], ids=["coefficients-list", "internal-edges-int", "external-edges-int", "initial-list",
        "initial-entry-int", "custom-samples-int", "custom-samples-short", "sine-mode-0",
        "gaussian-width-0", "length-negative", "length-0", "k0-fraction", "mode-fraction",
        "sampled-short", "t0-above-1", "vertices-bool", "vertices-negative",
        "internal-vertex-bool", "external-vertex-bool", "epsilon-nan", "amplitude-nan",
        "coefficient-nan", "matrix-entry-nan", "matrix-entry-beyond-float",
        "y1-basis-scalar", "y1-basis-map", "y0-basis-scalar", "y0-basis-map",
        "h0-one-sample", "h1-no-samples", "wave-nonlocal"])
def test_bad_config_is_a_path_qualified_error(tmp_path, capsys, base, old, new, path):
    """Bad input exits 1 with `error: <path>: ...`, never a traceback or a silent run."""
    assert old in base
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(base.replace(old, new, 1))
    command = "simulate" if "sim:" in base else "check"
    assert run_cli(command, cfg, "--output-dir", tmp_path, "--quiet") == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_isolated_vertex_warning_is_one_plain_line(tmp_path, capsys, command):
    """The library's UserWarning reaches the CLI user as one `warning:` line,
    the exit code stays 0, and main leaves the warning hook as it found it."""
    text = (CONFIGS / "kirchhoff-star-heat.cfg").read_text()
    cfg = tmp_path / "spare.cfg"
    cfg.write_text(text.replace("leaf3]\n", "leaf3, spare]\n", 1).replace("T: 1.0", "T: 0.1"))
    hook = warnings.showwarning
    assert run_cli(command, cfg, "--output-dir", tmp_path, "--quiet") == 0
    assert capsys.readouterr().err == "warning: isolated vertices present: [4]\n"
    assert warnings.showwarning is hook
    with warnings.catch_warnings():  # the caller's filters still apply inside main
        warnings.simplefilter("error", UserWarning)
        assert run_cli(command, cfg, "--output-dir", tmp_path, "--quiet") == 1
    assert capsys.readouterr().err == "error: graph: isolated vertices present: [4]\n"


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("lead", [b"\xff\x41", b"graph: [a, b\n"], ids=["not-utf8", "syntax"])
def test_unreadable_config_is_one_error_line(tmp_path, capsys, command, lead):
    """A config that is neither UTF-8 nor UTF-16, or not YAML, exits 1 with one
    `error:` line, although PyYAML's own message spans several."""
    cfg = tmp_path / "bytes.cfg"
    cfg.write_bytes(lead + (CONFIGS / "kirchhoff-star-heat.cfg").read_bytes())
    assert run_cli(command, cfg, "--output-dir", tmp_path, "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["bytes.cfg"]


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("encoding, line", [("utf-8", 1), ("utf-8", 5), ("utf-16", 5)])
def test_unreadable_character_names_its_line_and_file(tmp_path, capsys, command, encoding,
                                                      line):
    """A byte that is not UTF-8, or a control character in UTF-16, is reported at
    its line, in the config's path.  Lines are counted in characters: the
    U+010A on line 1 holds the byte 0a in UTF-16 but ends no line."""
    lines = (CONFIGS / "kirchhoff-star-heat.cfg").read_text(encoding="utf-8").split("\n")
    lines[0] += " \u010a"
    if encoding == "utf-16":
        lines[line - 1] += "\x07"
        data, bad = "\n".join(lines).encode("utf-16"), "#x0007"
    else:
        data, bad = [x.encode() for x in lines], "#x00ff"
        data[line - 1] = b"\xff\x41" + data[line - 1] if line == 1 else data[line - 1] + b"\xff"
        data = b"\n".join(data)
    cfg = tmp_path / "bytes.cfg"
    cfg.write_bytes(data)
    assert run_cli(command, cfg, "--output-dir", tmp_path, "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: unacceptable character {bad}")
    assert err.count("\n") == 1 and f'in "{cfg}", position' in err
    assert "<byte string>" not in err


def test_utf16_config_reads_as_its_utf8_twin(tmp_path):
    """YAML decodes the config's bytes, so a UTF-16 file with a byte-order mark
    gives the report of the same text in UTF-8, whatever the locale."""
    text = (CONFIGS / "star3.cfg").read_text(encoding="utf-8")
    for name, encoding in (("utf8", "utf-8"), ("utf16", "utf-16")):
        (tmp_path / f"{name}.cfg").write_text(text, encoding=encoding)
        assert run_cli("check", tmp_path / f"{name}.cfg", "--output-dir", tmp_path / name,
                       "--quiet") == 0
    assert ((tmp_path / "utf16" / "report.json").read_bytes()
            == (tmp_path / "utf8" / "report.json").read_bytes())


# Values whose 17-digit text the shipped configs never produce: signed zeros,
# infinities, nan, subnormals, and doubles whose repr needs all 17 digits.
SPECIAL = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072009e-308,
           0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, 1e300, -1.7976931348623157e308,
           123456789.12345679, 1.0, -7.0, 9007199254740993.0]


def _fmt17(x):
    return f"{float(x):.17g}"


def reference_solution_csv(snapshots, edge_tags, with_ut):
    """The per-row f-strings that wrote solution.csv before the row templates."""
    lines = ["t,edge_kind,edge_index,s,u" + (",ut" if with_ut else "") + "\n"]
    for snap in snapshots:
        t = _fmt17(snap[0])
        for n, (kind, idx, s_grid) in enumerate(edge_tags):
            prefix = f"{t},{kind},{idx},"
            columns = [s_grid.tolist(), *(field[n].real.tolist() for field in snap[1:])]
            if with_ut:
                lines += [f"{prefix}{s:.17g},{u:.17g},{ut:.17g}\n" for s, u, ut in zip(*columns)]
            else:
                lines += [f"{prefix}{s:.17g},{u:.17g}\n" for s, u in zip(*columns)]
    return "".join(lines)


def special_columns(rng, size):
    return rng.permutation(np.resize(np.array(SPECIAL), size))


def test_writers_keep_the_17_digit_bytes(tmp_path):
    """The row templates write what the per-row f-strings wrote, value for value."""
    rng = np.random.default_rng(7)
    edge_tags = [("e", 0, special_columns(rng, 3)), ("i", 0, special_columns(rng, 40)),
                 ("i", 1, np.linspace(0.0, 1.0, 17))]
    sizes = [tag[2].size for tag in edge_tags]
    times = [np.float64(-0.0), 0.1 + 0.2, 5e-324, np.inf]
    heat = [(t, [special_columns(rng, k) + 0j for k in sizes]) for t in times]
    for _, u in heat:  # an imaginary part, which the writer drops
        for field in u:
            field.imag = special_columns(rng, field.size)
    wave = [(t, [special_columns(rng, k) for k in sizes], [special_columns(rng, k) for k in sizes])
            for t in times]
    for records, with_ut in ((heat, False), (wave, True)):
        cli._write_solution_csv(tmp_path / "solution.csv", records, edge_tags)
        assert ((tmp_path / "solution.csv").read_text()
                == reference_solution_csv(records, edge_tags, with_ut))

    diag = Diagnostics()
    for t, e, m in zip(*(special_columns(rng, 20).tolist() for _ in range(3))):
        diag.record(t, e, m)
    cli._write_diagnostics_csv(tmp_path / "diagnostics.csv", diag)
    assert (tmp_path / "diagnostics.csv").read_text() == "t,energy,mass\n" + "".join(
        f"{_fmt17(t)},{_fmt17(e)},{_fmt17(m)}\n"
        for t, e, m in zip(diag.times, diag.energy, diag.mass))

    rows = [(kind, j, *special_columns(rng, 4)) for j, kind in enumerate("iie" * 7)]
    cli._write_transform_csv(tmp_path / "transform.csv", rows)
    assert (tmp_path / "transform.csv").read_text() == (
        "edge_kind,edge_index,phi_end,cbar,mu_start,mu_end\n" + "".join(
            f"{kind},{idx},{_fmt17(phi)},{_fmt17(cbar)},{_fmt17(mu0)},{_fmt17(mu1)}\n"
            for kind, idx, phi, cbar, mu0, mu1 in rows))
