"""End-to-end acceptance checks.

Each test prints one `[criterion N] PASS`/`FAIL` line; run with `-s` to see
them all on a green suite (pytest shows captured output for failures anyway).
"""

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import graphevolve as ge
from conftest import (coupled_endpoints_bc, dirichlet_interval_bc,
                      periodic_loop_bc, random_coeffs, random_graph, star3_bc)
from graphevolve.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(n, label):
    try:
        yield
    except Exception:
        print(f"[criterion {n:2d}] FAIL  {label}")
        raise
    print(f"[criterion {n:2d}] PASS  {label}")


def test_criterion_1_star_determinant():
    with criterion(1, "star-graph determinant"):
        coeffs = ge.unit_coefficients(2, 1)
        rep = ge.check_boundary_matrices(star3_bc(1, 2, 3, 4, 0), coeffs)
        assert rep.well_posed
        assert rep.determinant == pytest.approx(24.0, abs=1e-9)
        rep0 = ge.check_boundary_matrices(star3_bc(1, 2, 3, 0, 0), coeffs)
        assert rep0.verdict == "NotWellPosed"


def test_criterion_2_interval_classics():
    with criterion(2, "interval classics"):
        coeffs = ge.unit_coefficients(1)
        assert ge.check_boundary_matrices(periodic_loop_bc(), coeffs).well_posed
        bad = ge.matrices_bc(l=0, m=1, k0=1, k1=1, v0i=[[1]], u1i=[[1]])
        rep = ge.check_boundary_matrices(bad, coeffs)
        assert rep.verdict == "NotWellPosed"
        assert rep.determinant == pytest.approx(0.0, abs=1e-12)
        assert ge.check_boundary_matrices(dirichlet_interval_bc(), coeffs).well_posed


def test_criterion_3_endpoint_dichotomy():
    with criterion(3, "a(0) != a(1) dichotomy + kernel witness"):
        bc = coupled_endpoints_bc()
        varying = ge.EdgeCoefficients((ge.quadratic_square(1.0, 1.0),), ())
        rep = ge.check_boundary_matrices(bc, varying)
        assert rep.well_posed
        assert rep.determinant == pytest.approx(0.5, abs=1e-9)
        flat = ge.unit_coefficients(1)
        rep0 = ge.check_boundary_matrices(bc, flat)
        assert rep0.verdict == "NotWellPosed"
        assert rep0.determinant == pytest.approx(0.0, abs=1e-12)
        for lam in (1.0, 2.0 + 3.0j):
            root = np.sqrt(complex(lam))

            def f(s):
                return np.exp(root * s) - np.exp(root * (1.0 - s))

            def fprime(s):
                return root * (np.exp(root * s) + np.exp(root * (1.0 - s)))

            scale = max(abs(f(0.0)), abs(fprime(0.0)), 1.0)
            trace = ge.make_trace([], [f(0.0)], [f(1.0)],
                                  [], [fprime(0.0)], [fprime(1.0)])
            assert np.linalg.norm(ge.value_residual(bc, trace)) < 1e-10 * scale
            assert np.linalg.norm(ge.flux_residual(bc, trace, flat)) < 1e-10 * scale


def test_criterion_4_kirchhoff_always_well_posed():
    with criterion(4, "standard Kirchhoff on random graphs"):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            g = random_graph(rng, max_n=8, max_m=12, max_l=4)
            coeffs = random_coeffs(rng, g, lo=0.25, hi=4.0)
            rep = ge.check_boundary_spaces(ge.from_standard(g, coeffs))
            assert rep.well_posed
            assert rep.sigma_min > rep.tol * rep.sigma_max


def test_criterion_5_checker_update_equivalence():
    with criterion(5, "checker vs update-matrix solvability"):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 200:
            l = int(rng.integers(0, 3))
            m = int(rng.integers(0, 4))
            dim = l + 2 * m
            if dim == 0:
                continue
            k0 = int(rng.integers(0, dim + 1))
            k1 = dim - k0
            blocks = {
                name: rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
                for name, r, c in (("v0e", k0, l), ("v0i", k0, m), ("v1i", k0, m),
                                   ("w0e", k1, l), ("w0i", k1, m), ("w1i", k1, m))}
            bc = ge.matrices_bc(l=l, m=m, k0=k0, k1=k1, **blocks)
            if rng.random() < 0.3 and dim >= 2:
                rows = np.vstack([bc.v_rows, bc.w_rows])
                rows[-1] = rows[0]
                bc = ge.BoundaryMatricesBC(rows[:k0], rows[k0:], bc.u_rows, m)
            verdict = ge.check_boundary_matrices(bc).well_posed
            try:
                ge.vertex_update_matrix(bc)
                solvable = True
            except ge.SingularUpdateError:
                solvable = False
            assert verdict == solvable
            checked += 1


def test_criterion_6_nonlocal_interval():
    with criterion(6, "nonlocal interval Young certificate"):
        ones = np.ones(101)
        rep = ge.check_nonlocal_interval(ones, ones, 0.25)
        assert rep.well_posed
        assert rep.young_bound == pytest.approx(0.5, abs=1e-12)
        r = ge.discretize_nonlocal_R(ones, ones, 0.25, 128)
        assert np.linalg.svd(r, compute_uv=False)[-1] >= 0.42
        wide = ge.check_nonlocal_interval(ones, ones, 0.9)
        assert wide.verdict == "Inconclusive"
        shrunk = ge.auto_shrink_t0(ones, ones, 0.9)
        assert shrunk.well_posed and shrunk.dims["t0"] <= 0.5


def test_criterion_7_wave_exactness_and_conservation():
    with criterion(7, "wave exactness and conservation"):
        interval = ge.MetricGraph(2, [(0, 1)])
        coeffs = ge.unit_coefficients(1)

        prof = ge.gaussian(0.5, 0.04)
        st = ge.wave_init(interval, coeffs, dirichlet_interval_bc(),
                          ge.InitialData((ge.EdgeInitial(prof),), ()),
                          dt_target=1 / 200, T=0.2)
        st, _, _ = ge.wave_run(st, 0.2, record_stride=10**9)
        s = st.internal[0].s
        exact = 0.5 * (prof.value(s - st.t) + prof.value(s + st.t))
        assert np.max(np.abs(st.internal[0].u.real - exact)) < 1e-12

        st = ge.wave_init(interval, coeffs, dirichlet_interval_bc(),
                          ge.InitialData((ge.EdgeInitial(ge.sine_mode(1)),), ()),
                          dt_target=1 / 200, T=2.0)
        s = st.internal[0].s
        worst = 0.0
        for _ in range(400):
            ge.wave_step(st)
            ref = np.sin(np.pi * s) * math.cos(np.pi * st.t)
            worst = max(worst, np.max(np.abs(st.internal[0].u.real - ref)))
        assert worst <= 0.02

        loop = ge.MetricGraph(1, [(0, 0)])
        st = ge.wave_init(loop, coeffs, periodic_loop_bc(),
                          ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.05)),), ()),
                          dt_target=1 / 200, T=10.0)
        _, diag, _ = ge.wave_run(st, 10.0, record_stride=100)
        e = np.array(diag.energy)
        assert np.max(np.abs(e - e[0])) / e[0] <= 1e-6

        star = ge.MetricGraph(4, [(1, 0), (0, 2), (0, 3)])
        scoeffs = ge.unit_coefficients(3)
        bc = ge.to_boundary_matrices(ge.from_standard(star, scoeffs), 0, 3)
        init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.4, 0.05)),
                               ge.EdgeInitial(ge.zero_profile()),
                               ge.EdgeInitial(ge.zero_profile())), ())
        st = ge.wave_init(star, scoeffs, bc, init, dt_target=1 / 200, T=10.0)
        _, diag, _ = ge.wave_run(st, 10.0, record_stride=100)
        e = np.array(diag.energy)
        assert np.max(np.abs(e - e[0])) / e[0] <= 1e-6


def test_criterion_8_vertex_scattering():
    with criterion(8, "Kirchhoff star scattering -1/3 and 2/3"):
        star = ge.MetricGraph(4, [(1, 0), (0, 2), (0, 3)])
        coeffs = ge.unit_coefficients(3)
        bc = ge.to_boundary_matrices(ge.from_standard(star, coeffs), 0, 3)
        prof = ge.gaussian(0.5, 0.05)
        sgrid = np.linspace(0.0, 1.0, 4001)

        def run(n):
            init = ge.InitialData(
                (ge.EdgeInitial(prof, ge.custom_samples(-prof.derivative(sgrid))),
                 ge.EdgeInitial(ge.zero_profile()),
                 ge.EdgeInitial(ge.zero_profile())), ())
            st = ge.wave_init(star, coeffs, bc, init, dt_target=1.0 / n, T=1.0)
            st, _, _ = ge.wave_run(st, 1.0, record_stride=10**9)
            refl = st.internal[0].u.real
            trans = st.internal[1].u.real
            return (refl[np.argmax(np.abs(refl))], trans[np.argmax(np.abs(trans))])

        refl, trans = run(400)
        refl_ref, trans_ref = run(3200)
        assert refl == pytest.approx(refl_ref, rel=0.02)
        assert trans == pytest.approx(trans_ref, rel=0.02)
        assert refl == pytest.approx(-1.0 / 3.0, rel=0.02)
        assert trans == pytest.approx(2.0 / 3.0, rel=0.02)


def test_criterion_9_heat_accuracy_and_conservation():
    with criterion(9, "heat accuracy and conservation"):
        interval = ge.MetricGraph(2, [(0, 1)])
        coeffs = ge.unit_coefficients(1)
        sine = ge.InitialData((ge.EdgeInitial(ge.sine_mode(1)),), ())

        st = ge.heat_init(interval, coeffs, dirichlet_interval_bc(), sine,
                          dt=1e-4, theta=0.5, n_per_edge=200)
        st, _, snaps = ge.heat_run(st, 0.1, record_stride=1000)
        u0 = np.max(np.abs(snaps[0][1][0]))
        u1 = np.max(np.abs(snaps[-1][1][0]))
        rate = -np.log(u1 / u0) / (snaps[-1][0] - snaps[0][0])
        assert rate == pytest.approx(np.pi**2, rel=1e-2)

        star = ge.MetricGraph(4, [(1, 0), (0, 2), (0, 3)])
        scoeffs = ge.EdgeCoefficients(
            tuple(ge.constant(c) for c in (1.0, 2.0, 0.5)), ())
        init = ge.InitialData((ge.EdgeInitial(ge.gaussian(0.5, 0.1)),
                               ge.EdgeInitial(ge.zero_profile()),
                               ge.EdgeInitial(ge.zero_profile())), ())
        st = ge.heat_init(star, scoeffs, ge.from_standard(star, scoeffs), init,
                          dt=1e-3, n_per_edge=100)
        _, diag, _ = ge.heat_run(st, 1.0, record_stride=50)
        mvals = np.array(diag.mass)
        assert np.max(np.abs(mvals - mvals[0])) <= 1e-8 * abs(mvals[0])

        rng = np.random.default_rng(13)
        rough = ge.InitialData(
            (ge.EdgeInitial(ge.custom_samples(rng.uniform(0.0, 1.0, 101))),), ())
        st = ge.heat_init(interval, coeffs, dirichlet_interval_bc(), rough,
                          dt=1e-3, theta=1.0, n_per_edge=100)
        prev = np.max(np.abs(st.internal[0].u.real))
        for _ in range(200):
            ge.heat_step(st)
            cur = np.max(np.abs(st.internal[0].u.real))
            assert cur <= prev + 1e-10
            prev = cur


def test_criterion_10_transform_accuracy():
    with criterion(10, "transform accuracy and quadrature order"):
        prof = ge.quadratic_square(1.0, 1.0)
        tr = ge.internal_transform(prof, quad_panels=64)
        assert abs(tr.cbar - 1.0 / np.log(2.0)) <= 1e-8
        exact = np.log(2.0)
        e1 = abs(ge.internal_transform(prof, quad_panels=8).phi_end - exact)
        e2 = abs(ge.internal_transform(prof, quad_panels=16).phi_end - exact)
        assert math.log2(e1 / e2) >= 3.9


def test_criterion_11_determinism_and_interface(tmp_path):
    with criterion(11, "determinism and CLI exit-code contract"):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = cli_main(["simulate", str(CONFIGS / "dirichlet-standing-wave.cfg"),
                           "--output-dir", str(out), "--quiet"])
            assert rc == 0
        for name in ("solution.csv", "diagnostics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

        expected = {
            ("check", "star3.cfg"): 0,
            ("check", "star3-degenerate.cfg"): 2,
            ("check", "periodic-equal-a.cfg"): 2,
            ("nonlocal-check", "nonlocal-interval.cfg"): 0,
            ("simulate", "zero-initial.cfg"): 0,
            ("simulate", "kirchhoff-star-heat.cfg"): 0,
        }
        for (cmd, name), code in expected.items():
            out = tmp_path / f"{cmd}-{name}"
            rc = cli_main([cmd, str(CONFIGS / name),
                           "--output-dir", str(out), "--quiet"])
            assert rc == code, (cmd, name, rc)
        # check never writes solution files
        assert not (tmp_path / "check-star3.cfg" / "solution.csv").exists()
        report = json.loads(
            (tmp_path / "check-star3.cfg" / "report.json").read_text())
        assert report["verdict"] == "WellPosed"
        assert cli_main(["check", str(tmp_path / "no-such.cfg"), "--quiet"]) == 1
