"""Command-line interface: check, simulate, transform, nonlocal-check.

Exit codes: 0 = well-posed (and, for simulate, run completed); 2 = not
well-posed or inconclusive; 1 = configuration or runtime error, printed as one
``error:`` line, also for a config that YAML cannot decode or parse.
All floating-point output uses 17 significant digits so repeated runs are
byte-identical.  Each CSV file is written from ``%.17g`` row templates; the
columns of solution.csv after s are the fields of the run's records (u for
heat, u and ut for wave).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
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
    out = dataclasses.asdict(report)
    det = report.determinant
    out["determinant"] = None if det is None else {"re": det.real, "im": det.imag}
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
        return check_nonlocal_interval(h0, h1, cfg.nonlocal_t0)
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
    t0 = cfg.nonlocal_t0
    # auto_shrink_t0 probes t0 itself first
    report = (auto_shrink_t0 if auto_shrink else check_nonlocal_interval)(h0, h1, t0)
    n = 128
    r_matrix = discretize_nonlocal_R(h0, h1, report.dims["t0"], n)
    sigma_min = float(np.linalg.svd(r_matrix, compute_uv=False)[-1])
    extra = {"requested_t0": t0, "certified_t0": report.dims["t0"] if report.well_posed else None,
             "discretized_sigma_min": sigma_min, "discretization_n": n}
    _write_report(_report_dict(report, extra), output_dir, quiet)
    return 0 if report.well_posed else 2


def _write_solution_csv(path: Path, snapshots, edge_tags) -> None:
    """One row per node and record.  A heat record is (t, u) and a wave record (t, u, ut):
    its fields after t are the columns after s.  An edge's rows of one record are one
    template, filled by one ``%`` over the edge's stacked columns."""
    fields = ("u", "ut")[:len(snapshots[0]) - 1]
    with path.open("w") as f:
        f.write(",".join(("t,edge_kind,edge_index,s", *fields)) + "\n")
        for snap in snapshots:
            t = _fmt(snap[0])
            for n, (kind, idx, s_grid) in enumerate(edge_tags):
                columns = np.column_stack([s_grid, *(field[n].real for field in snap[1:])])
                row = f"{t},{kind},{idx}" + ",%.17g" * len(snap) + "\n"
                f.write(row * len(columns) % tuple(columns.ravel().tolist()))


def _write_diagnostics_csv(path: Path, diag) -> None:
    values = np.column_stack([diag.times, diag.energy, diag.mass]).ravel().tolist()
    path.write_text("t,energy,mass\n" + "%.17g,%.17g,%.17g\n" * len(diag.times) % tuple(values))


def _write_transform_csv(path: Path, rows) -> None:
    path.write_text("edge_kind,edge_index,phi_end,cbar,mu_start,mu_end\n"
                    + "%s,%s,%.17g,%.17g,%.17g,%.17g\n" * len(rows)
                    % tuple(value for row in rows for value in row))


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
    _write_solution_csv(sol_path, snapshots, edge_tags)
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
    _write_transform_csv(path, rows)
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

    with warnings.catch_warnings():  # restores the hook and the filters on return
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                         file=sys.stderr)
        try:
            cfg = parse_config(Path(args.config).read_bytes(), args.config)  # YAML decodes it
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
        except MemoryError as exc:  # numpy names the size it could not allocate
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
