"""Command-line interface: check, simulate, transform, nonlocal-check.

Exit codes: 0 = well-posed (and, for simulate, run completed); 2 = not
well-posed or inconclusive; 1 = configuration or runtime error.
All floating-point output uses 17 significant digits so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bc import BoundaryMatricesBC, BoundarySpacesBC
from .coeffs import external_transform, internal_transform, mu
from .config import RunConfig, parse_config
from .errors import ConfigError, GraphEvolveError, NotWellPosedError
from .heat import heat_init, heat_run
from .wave import wave_init, wave_run
from .wellposed import (
    WellPosednessReport,
    auto_shrink_t0,
    check_boundary_matrices,
    check_boundary_spaces,
    check_nonlocal_interval,
    discretize_nonlocal_R,
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _report_dict(report: WellPosednessReport, extra: dict | None = None) -> dict:
    det = report.determinant
    out = {
        "verdict": report.verdict,
        "criterion": report.criterion,
        "determinant": None if det is None else {"re": det.real, "im": det.imag},
        "sigma_min": report.sigma_min,
        "sigma_max": report.sigma_max,
        "tol": report.tol,
        "dims": report.dims,
        "young_bound": report.young_bound,
        "notes": list(report.notes),
    }
    if extra:
        out.update(extra)
    return out


def _write_report(report_dict: dict, output_dir: Path, quiet: bool) -> None:
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / "report.json"
    path.write_text(json.dumps(report_dict, indent=2, sort_keys=True) + "\n")
    if not quiet:
        print(f"verdict: {report_dict['verdict']} ({report_dict['criterion']})")
        det = report_dict.get("determinant")
        if det is not None:
            print(f"determinant: {det['re']:.12g}{det['im']:+.12g}j")
        if report_dict.get("sigma_min") is not None:
            print(f"sigma_min: {report_dict['sigma_min']:.6g}  "
                  f"sigma_max: {report_dict['sigma_max']:.6g}")
        if report_dict.get("young_bound") is not None:
            print(f"young_bound: {report_dict['young_bound']:.12g}")
        for note in report_dict.get("notes", []):
            print(f"note: {note}")
        print(f"report written to {path}")


def _run_check(cfg: RunConfig) -> WellPosednessReport:
    if cfg.bc_kind == "nonlocal_interval":
        h0, h1 = cfg.bc.nonlocal_kernels
        return check_nonlocal_interval(h0, h1, cfg.nonlocal_t0 or 0.25)
    if isinstance(cfg.bc, BoundaryMatricesBC):
        return check_boundary_matrices(cfg.bc, cfg.coeffs)
    return check_boundary_spaces(cfg.bc)


def cmd_check(cfg: RunConfig, output_dir: Path, quiet: bool) -> int:
    report = _run_check(cfg)
    _write_report(_report_dict(report), output_dir, quiet)
    return 0 if report.well_posed else 2


def cmd_nonlocal_check(cfg: RunConfig, output_dir: Path, quiet: bool,
                       auto_shrink: bool) -> int:
    if cfg.bc_kind != "nonlocal_interval":
        raise ConfigError("bc.kind", "nonlocal-check requires bc.kind = nonlocal_interval")
    h0, h1 = cfg.bc.nonlocal_kernels
    t0 = cfg.nonlocal_t0 or 0.25
    report = check_nonlocal_interval(h0, h1, t0)
    certified_t0 = t0
    if not report.well_posed and auto_shrink:
        report = auto_shrink_t0(h0, h1, t0)
        certified_t0 = report.dims.get("t0", t0)
    n = 128
    r_matrix = discretize_nonlocal_R(h0, h1, report.dims.get("t0", t0), n)
    sigma_min = float(np.linalg.svd(r_matrix, compute_uv=False)[-1])
    extra = {"requested_t0": t0, "certified_t0": certified_t0 if report.well_posed else None,
             "discretized_sigma_min": sigma_min, "discretization_n": n}
    _write_report(_report_dict(report, extra), output_dir, quiet)
    return 0 if report.well_posed else 2


def _write_solution_csv(path: Path, snapshots, edge_tags, with_ut: bool) -> None:
    """One row per node and snapshot; formats one edge's rows at a time."""
    with path.open("w") as f:
        f.write("t,edge_kind,edge_index,s,u" + (",ut" if with_ut else "") + "\n")
        for snap in snapshots:
            t = _fmt(snap[0])
            for n, (kind, idx, s_grid) in enumerate(edge_tags):
                prefix = f"{t},{kind},{idx},"
                # s, u and (wave only) ut of this edge as Python floats
                columns = [s_grid.tolist(), *(field[n].real.tolist() for field in snap[1:])]
                if with_ut:
                    f.writelines([f"{prefix}{s:.17g},{u:.17g},{ut:.17g}\n"
                                  for s, u, ut in zip(*columns)])
                else:
                    f.writelines([f"{prefix}{s:.17g},{u:.17g}\n" for s, u in zip(*columns)])


def _write_diagnostics_csv(path: Path, diag) -> None:
    with path.open("w") as f:
        f.write("t,energy,mass\n")
        for t, e, m in zip(diag.times, diag.energy, diag.mass):
            f.write(f"{_fmt(t)},{_fmt(e)},{_fmt(m)}\n")


def cmd_simulate(cfg: RunConfig, output_dir: Path, quiet: bool) -> int:
    if cfg.sim is None:
        raise ConfigError("sim", "simulate requires a sim section")
    if cfg.initial is None:
        raise ConfigError("initial", "simulate requires an initial section")
    sim = cfg.sim
    g = cfg.graph
    wave = sim.equation == "wave"
    if wave and isinstance(cfg.bc, BoundarySpacesBC) and cfg.bc.nonlocal_kernels is not None:
        raise ConfigError("sim.equation",
                          "the wave propagator does not support nonlocal kernels")
    output_dir.mkdir(parents=True, exist_ok=True)

    # the init functions run the one well-posedness check of the run
    try:
        if wave:
            state = wave_init(g, cfg.coeffs, cfg.bc, cfg.initial, sim.dt, sim.T,
                              snap_tol=sim.snap_tol, external_lengths=cfg.external_lengths)
        else:
            state = heat_init(g, cfg.coeffs, cfg.bc, cfg.initial, sim.dt,
                              theta=sim.theta, n_per_edge=sim.n_per_edge,
                              external_lengths=cfg.external_lengths)
    except NotWellPosedError as exc:
        _write_report(_report_dict(exc.report), output_dir, quiet)
        return 2
    state, diag, snapshots = (wave_run if wave else heat_run)(state, sim.T, sim.record_stride)

    edge_tags = ([("e", k, e.s) for k, e in enumerate(state.external)]
                 + [("i", j, e.s) for j, e in enumerate(state.internal)])
    sol_path = output_dir / "solution.csv"
    diag_path = output_dir / "diagnostics.csv"
    _write_solution_csv(sol_path, snapshots, edge_tags, with_ut=wave)
    _write_diagnostics_csv(diag_path, diag)
    if not quiet:
        print(f"simulation complete: t = {_fmt(state.t)}")
        print(f"solution written to {sol_path}")
        print(f"diagnostics written to {diag_path}")
    return 0


def cmd_transform(cfg: RunConfig, output_dir: Path, quiet: bool) -> int:
    rows = []
    for j, prof in enumerate(cfg.coeffs.internal):
        tr = internal_transform(prof)
        rows.append(("i", j, tr.phi_end, tr.cbar, float(mu(prof, 0.0)), float(mu(prof, 1.0))))
    for k, prof in enumerate(cfg.coeffs.external):
        L = cfg.external_lengths[k]
        tr = external_transform(prof, L)
        rows.append(("e", k, tr.phi_end, float("nan"),
                     float(mu(prof, 0.0)), float(mu(prof, L))))
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / "transform.csv"
    with path.open("w") as f:
        f.write("edge_kind,edge_index,phi_end,cbar,mu_start,mu_end\n")
        for kind, idx, phi_end, cbar, mu0, mu1 in rows:
            f.write(f"{kind},{idx},{_fmt(phi_end)},{_fmt(cbar)},{_fmt(mu0)},{_fmt(mu1)}\n")
    if not quiet:
        print(f"{'edge':>6} {'phi_end':>22} {'cbar':>22} {'mu_start':>10} {'mu_end':>10}")
        for kind, idx, phi_end, cbar, mu0, mu1 in rows:
            print(f"{kind}{idx:>5} {phi_end:>22.12g} {cbar:>22.12g} "
                  f"{mu0:>10.6g} {mu1:>10.6g}")
        print(f"table written to {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="graphevolve",
        description="Wave and heat equations on metric graphs: well-posedness "
                    "checks and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "simulate", "transform", "nonlocal-check"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a YAML run configuration")
        p.add_argument("--output-dir", default=".", help="directory for output files")
        p.add_argument("--quiet", action="store_true", help="suppress console output")
        if name == "nonlocal-check":
            p.add_argument("--auto-shrink-t0", action="store_true",
                           help="halve t0 until the Young bound certifies well-posedness")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
        output_dir = Path(args.output_dir)
        if args.command == "check":
            return cmd_check(cfg, output_dir, args.quiet)
        if args.command == "simulate":
            return cmd_simulate(cfg, output_dir, args.quiet)
        if args.command == "transform":
            return cmd_transform(cfg, output_dir, args.quiet)
        return cmd_nonlocal_check(cfg, output_dir, args.quiet, args.auto_shrink_t0)
    except (ConfigError, GraphEvolveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
