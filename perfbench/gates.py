"""Correctness gates on the program's outputs.

Every gate returns a list of failure messages; an empty list means the
command's output is correct.  Expected values come from the header comments
of the shipped configs, from conservation laws of Kirchhoff coupling, and from
reference diagnostics recorded at the seed commit (``reference/``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from workloads import CLI_SMALL_EXIT

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
REL_TOL = 1e-12  # agreement with a reference, relative to the initial value

# Kirchhoff heat conserves mass exactly for edgewise-constant coefficients and
# the wave scheme's exact shifts conserve energy; these bounds leave room for
# rounding only.
CONSERVED = {"heat_star": ("mass", 1e-8), "wave_long": ("energy", 1e-9),
             "wave_mesh": ("energy", 1e-9), "kirchhoff-star-heat": ("mass", 1e-8)}


def read_diagnostics(path: Path) -> dict[str, list[float]]:
    with path.open() as f:
        rows = list(csv.DictReader(f))
    return {key: [float(r[key]) for r in rows] for key in ("t", "energy", "mass")}


def compare_diagnostics(got: dict, ref: dict, what: str) -> list[str]:
    """Times equal; energy and mass within REL_TOL of each column's initial value."""
    if got["t"] != ref["t"]:
        return [f"{what}: record times differ from the reference"]
    errors = []
    for key in ("energy", "mass"):
        col = ref[key]
        scale = abs(col[0]) or max(abs(x) for x in col)
        worst = max(abs(a - b) for a, b in zip(got[key], col))
        if not worst <= REL_TOL * scale:
            errors.append(f"{what}: {key} differs from the reference by {worst:.3e} "
                          f"(allowed {REL_TOL * scale:.3e})")
    return errors


def conserved(diag: dict, key: str, tol: float, what: str) -> list[str]:
    col = diag[key]
    drift = max(abs(x - col[0]) for x in col) / abs(col[0])
    if not drift <= tol:
        return [f"{what}: {key} drifts by {drift:.3e} relative (allowed {tol:g})"]
    return []


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _close(value, target: float, tol: float) -> bool:
    return value is not None and abs(value - target) <= tol


def simulate_output(name: str, out: Path, reference: Path | None) -> list[str]:
    """Gates on the CSVs a ``simulate`` command wrote into ``out``."""
    try:
        diag = read_diagnostics(out / "diagnostics.csv")
        ref = read_diagnostics(reference) if reference is not None else None
    except (OSError, KeyError, ValueError) as exc:
        return [f"{name}: unreadable diagnostics ({exc})"]
    errors = []
    if name in CONSERVED:
        errors += conserved(diag, *CONSERVED[name], name)
    if ref is not None:
        errors += compare_diagnostics(diag, ref, name)
    if name == "dirichlet-standing-wave":
        u = _solution_values(out, lambda r: r["t"] == "1" and r["s"] == "0.5")
        if len(u) != 1 or not _close(u[0], -1.0, 1e-3):
            errors.append(f"{name}: u(1, 0.5) = {u}, expected -1")
    if name == "zero-initial":
        if any(v != 0.0 for v in _solution_values(out, lambda r: True, ("u", "ut"))):
            errors.append(f"{name}: the solution is not identically zero")
        if any(v != 0.0 for v in diag["energy"] + diag["mass"]):
            errors.append(f"{name}: energy or mass is not zero")
    return errors


def _solution_values(out: Path, keep, cols=("u",)) -> list[float]:
    with (out / "solution.csv").open() as f:
        return [float(r[c]) for r in csv.DictReader(f) if keep(r) for c in cols]


def cli_small_output(cmd: str, name: str, out: Path) -> list[str]:
    """Gates on one shipped-config command, from the config's header comment."""
    what = f"{cmd} {name}"
    try:
        if cmd == "simulate":
            return simulate_output(name, out, REFERENCE / "cli_small" / f"{name}.csv")
        if cmd == "transform":
            with (out / "transform.csv").open() as f:
                phi = [float(r["phi_end"]) for r in csv.DictReader(f)]
            if len(phi) != 3 or not all(_close(p, t, 1e-9) for p, t in zip(phi, (1, 1, 10))):
                return [f"{what}: phi_end = {phi}, expected [1, 1, 10]"]
            return []
        report = _report(out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{what}: unreadable output ({exc})"]
    expected = "NotWellPosed" if name in CLI_SMALL_EXIT else "WellPosed"
    errors = []
    if report["verdict"] != expected:
        errors.append(f"{what}: verdict {report['verdict']}, expected {expected}")
    if name == "star3":
        det = report["determinant"]
        if not (_close(det["re"], 24.0, 1e-9) and _close(det["im"], 0.0, 1e-9)):
            errors.append(f"{what}: determinant {det}, expected 24")
    if name == "nonlocal-interval":
        if not _close(report["young_bound"], 0.5, 1e-12):
            errors.append(f"{what}: Young bound {report['young_bound']}, expected 0.5")
        if cmd == "nonlocal-check" and not _close(report.get("certified_t0"), 0.25, 0.0):
            errors.append(f"{what}: certified t0 {report.get('certified_t0')}, expected 0.25")
    return errors


def generated_reference(workload: str, seed: int) -> Path | None:
    if seed != DEFAULT_SEED:
        return None
    return REFERENCE / f"{workload}-seed{seed}.csv"
