#!/usr/bin/env python3
"""Benchmark of graphevolve, driven through its CLI and its library API.

    python3 perfbench/run.py --workload heat_star --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

Run it from anywhere inside a source checkout: the program is imported from
``src/`` of the checkout that holds this file.  Workloads are described in
``workloads.py`` and in README.md.

``--trace 0`` measures the end-to-end metrics with tracing off:
  * CLI user: each ``graphevolve`` command runs in a fresh child process, one
    at a time; ``wall_s`` sums their spawn-to-exit times and ``peak_rss_mb``
    is the largest ``ru_maxrss`` that ``wait4`` reports for them;
  * library user: fresh children time ``import graphevolve`` (``import_s``),
    set-up from config text to a state ready to step (``setup_s``) and
    stepping throughput (``steps_per_s``).
``--trace 1`` runs the same commands in-process with a span around every
public call (see ``child.py``), alternating with untraced runs, and reports the
per-layer metrics, the layer shares and ``trace.overhead_s``.

Outputs are checked by ``gates.py``; a command that exits with the wrong code,
is killed, or fails a gate counts as failed.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the full record,
with the environment stamp and sample counts, goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gates
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
CHILD = str(HERE / "child.py")
RUN_LIMIT = 170.0  # seconds; a run must end within 180 s, so children are killed by then
IMPORT_PROBES = 3  # extra import-only children per round: import time is noisy and cheap
CLI = "import sys; from graphevolve.cli import main; sys.exit(main())"

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "import_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.parse_s": "s", "wellposed.check_s": "s", "wellposed.vertex_update_s": "s",
    "wellposed.vertex_solve_ms": "ms", "bc.convert_s": "s", "coeffs.transform_s": "s",
    "heat.init_s": "s", "heat.step_ms": "ms", "heat.step_ms_p99": "ms", "heat.diag_ms": "ms",
    "heat.unknowns": "count", "heat.dense_bytes": "bytes-computed",
    "wave.init_s": "s", "wave.step_ms": "ms", "wave.step_ms_p99": "ms", "wave.diag_ms": "ms",
    "wave.cells": "count", "wave.vertex_slots": "count", "wave.cell_updates_per_s": "1/s",
    "graph.trace_dim": "count", "cli.write_s": "s", "cli.write_bytes": "bytes",
    "cli.write_mb_per_s": "MB/s", "import.graphevolve_self_s": "s", "import.scipy_s": "s",
    "import.numpy_s": "s", "import.yaml_s": "s", "process.start_s": "s",
    "self.config_s": "s", "self.wellposed_s": "s", "self.bc_s": "s", "self.coeffs_s": "s",
    "self.heat_s": "s", "self.wave_s": "s", "self.cli_s": "s",
    "run.steps": "count", "trace.spans": "count", "trace.overhead_s": "s",
}
# What each workload is predicted to spend most of a CLI user's wait on.
# "share.*" split that wait by layer (self times, process start, import);
# "group.*" split it by pipeline phase (startup, setup, stepping, write, other).
PREDICTIONS = {
    "heat_star": ("the heat layer", ("share.heat",)),
    "wave_long": ("wave stepping + the CSV writers", ("group.stepping", "group.write")),
    "wave_mesh": ("set-up (parse, checks, conversion, init)", ("group.setup",)),
    "cli_small": ("process start + import", ("group.startup",)),
}


def judge(workload: str, shares: dict) -> dict:
    """Does the predicted part hold a majority, or at least the largest part?"""
    what, keys = PREDICTIONS[workload]
    prefix = keys[0].split(".")[0] + "."
    share = sum(shares[k] for k in keys)
    others = [v for k, v in shares.items() if k.startswith(prefix) and k not in keys]
    if share > 0.5:
        verdict = "agrees: majority"
    elif share > max(others):
        verdict = "agrees: largest part, not a majority"
    else:
        verdict = "DISAGREES"
    return {"prediction": what, "share": share, "verdict": verdict}


class Child:
    """One finished child process."""

    def __init__(self, argv: list[str], env: dict, out_name: str, timeout: float):
        WORK.mkdir(exist_ok=True)
        out, err = WORK / f"{out_name}.out", WORK / f"{out_name}.err"
        with out.open("w") as fo, err.open("w") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)
            killer = threading.Timer(max(1.0, timeout), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall = time.perf_counter() - start
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = out.read_text()
        self.stderr = err.read_text()

    def result(self) -> dict | None:
        """The JSON summary a child.py process prints last, or None."""
        if self.code != 0:
            return None
        try:
            return json.loads(self.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return None


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.threads = min(workloads.BLAS_THREADS.get(workload, 1),
                           len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.stop = time.perf_counter() + RUN_LIMIT
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.commands, self.lib_configs = self._plan()
        self.cli_diagnostics: dict[str, dict] = {}

    # ----------------------------------------------------------------- inputs
    def _plan(self):
        """CLI commands (argv tail, gate name, expected code) and library configs."""
        cmds, lib = [], []
        if self.workload == "cli_small":
            for cmd, name, extra, code in workloads.cli_small_commands():
                cfg = ROOT / "configs" / f"{name}.cfg"
                cmds.append(([cmd, str(cfg), *extra], (cmd, name), code))
            lib = [str(ROOT / "configs" / f"{name}.cfg") for name in workloads.SIMULATED]
        else:
            WORK.mkdir(exist_ok=True)
            cfg = WORK / f"{self.workload}-seed{self.seed}.yaml"
            cfg.write_text(workloads.GENERATORS[self.workload](self.seed))
            cmds.append((["simulate", str(cfg)], ("simulate", self.workload), 0))
            lib = [str(cfg)]
        return cmds, lib

    def _out_dir(self, i: int) -> Path:
        return WORK / f"out{i}"

    def _argv(self, i: int) -> list[str]:
        tail, _, _ = self.commands[i]
        return [*tail[:2], "--output-dir", str(self._out_dir(i)), "--quiet", *tail[2:]]

    # ------------------------------------------------------------------ gates
    def _gate(self, i: int, code: int) -> None:
        """Count command i as attempted, and failed if its output is wrong."""
        _, (cmd, name), expected = self.commands[i]
        self.attempted += 1
        out = self._out_dir(i)
        if code != expected:
            errors = [f"{cmd} {name}: exit code {code}, expected {expected}"]
        elif self.workload == "cli_small":
            errors = gates.cli_small_output(cmd, name, out)
        else:
            errors = gates.simulate_output(
                name, out, gates.generated_reference(self.workload, self.seed))
        if cmd == "simulate" and not errors:
            self.cli_diagnostics[self.commands[i][0][1]] = gates.read_diagnostics(
                out / "diagnostics.csv")
        self._count(errors)

    def _count(self, errors: list[str], commands: int = 1) -> None:
        """Count `commands` commands as failed if there are errors."""
        if errors:
            self.failed += commands
            self.failures += errors

    def _crashed(self, what: str, child: Child, commands: int = 1) -> None:
        self.attempted += commands
        self._count([f"{what}: exit code {child.code}: {child.stderr.strip()[-500:]}"],
                    commands)

    def _clear_outputs(self) -> None:
        for i in range(len(self.commands)):
            shutil.rmtree(self._out_dir(i), ignore_errors=True)

    # ------------------------------------------------------------ measurement
    def child(self, argv: list[str], out_name: str) -> Child:
        return Child(argv, self.env, out_name, self.stop - time.perf_counter())

    def environment(self) -> dict:
        """Import once untimed (compiles bytecode, warms the file cache); stamp."""
        child = self.child([sys.executable, CHILD, "env"], "env")
        env = child.result()
        if env is None:
            raise SystemExit(f"error: cannot import graphevolve from {SRC}:\n{child.stderr}")
        if not Path(env["graphevolve_file"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: graphevolve was imported from {env['graphevolve_file']}, "
                             f"not from {SRC}")
        env.update(nproc=len(os.sched_getaffinity(0)), blas_threads=self.threads,
                   git_commit=_git_commit(), src_sha256=_src_digest(),
                   workload=self.workload, seed=self.seed, seconds=self.seconds,
                   trace=int(self.trace))
        return env

    def measure(self) -> tuple[dict, dict]:
        """Alternate CLI commands and library children until the time is up.

        Returns the medians and the samples they were taken over.
        """
        samples = {name: [] for name in END_TO_END}
        deadline = time.perf_counter() + self.seconds
        while True:
            start = time.perf_counter()
            wall, rss = 0.0, 0.0
            for i in range(len(self.commands)):
                shutil.rmtree(self._out_dir(i), ignore_errors=True)
                child = self.child([sys.executable, "-c", CLI, *self._argv(i)], "cli")
                self._gate(i, child.code)
                wall += child.wall
                rss = max(rss, child.maxrss_mb)
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
            child = self.child([sys.executable, CHILD, "lib", *self.lib_configs], "lib")
            res = child.result()
            if res is None:
                self._crashed("library run", child)
            else:
                self.attempted += 1
                samples["import_s"].append(res["import_s"])
                samples["setup_s"].append(res["setup_s"])
                samples["steps_per_s"].append(res["steps_per_s"])
                self._count(self._check_library(res["diagnostics"]))
            for _ in range(IMPORT_PROBES):
                child = self.child([sys.executable, CHILD, "import"], "import")
                res = child.result()
                if res is None:
                    self._crashed("import", child)
                    continue
                self.attempted += 1
                samples["import_s"].append(res["import_s"])
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break
        self._clear_outputs()
        metrics = {k: statistics.median(v) for k, v in samples.items() if v}
        return metrics, samples

    def _check_library(self, diagnostics: dict) -> list[str]:
        """The library path must give the CLI's diagnostics."""
        errors = []
        for path, (times, energy, mass) in diagnostics.items():
            cli = self.cli_diagnostics.get(path)
            if cli is None:
                errors.append(f"library run of {path}: no CLI result that passed its gates")
                continue
            errors += gates.compare_diagnostics(
                {"t": times, "energy": energy, "mass": mass}, cli,
                f"library run of {Path(path).name} against the CLI")
        return errors

    def measure_traced(self) -> tuple[dict, dict]:
        """Traced and untraced in-process CLI runs, alternating, plus probes."""
        argvs = json.dumps([self._argv(i) for i in range(len(self.commands))])
        spans = RESULTS / f"spans-{self.workload}-seed{self.seed}.json"
        RESULTS.mkdir(exist_ok=True)
        runs = {True: [], False: []}
        probes = {"process.start_s": [], "importtime": []}
        deadline = time.perf_counter() + self.seconds
        while True:
            start = time.perf_counter()
            for traced in (True, False):
                self._clear_outputs()
                child = self.child([sys.executable, CHILD, "cli", "--trace", str(int(traced)),
                                    "--spans", str(spans), argvs], "trace")
                res = child.result()
                if res is None:
                    self._crashed("traced run" if traced else "untraced run", child,
                                  len(self.commands))
                    continue
                for i, code in enumerate(res["codes"]):
                    self._gate(i, code)
                runs[traced].append(res)
            probes["process.start_s"].append(
                self.child([sys.executable, "-c", "pass"], "probe").wall)
            imp = self.child([sys.executable, "-X", "importtime", "-c", "import graphevolve.cli"],
                             "probe")
            if imp.code == 0:
                probes["importtime"].append(_import_breakdown(imp.stderr))
            else:
                self._crashed("import-time probe", imp)
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break
        self._clear_outputs()
        if not runs[True] or not runs[False] or not probes["importtime"]:
            return {}, {}
        layers = {k: _median_or_exact([r["layers"][k] for r in runs[True]])
                  for k in runs[True][0]["layers"]}
        for key in ("import.graphevolve_self_s", "import.scipy_s", "import.numpy_s",
                    "import.yaml_s"):
            layers[key] = statistics.median(p[key] for p in probes["importtime"])
        layers["process.start_s"] = statistics.median(probes["process.start_s"])
        layers["trace.overhead_s"] = (statistics.median(r["work_s"] for r in runs[True])
                                      - statistics.median(r["work_s"] for r in runs[False]))
        layers["cli.write_mb_per_s"] = (layers["cli.write_bytes"] / 1e6 / layers["cli.write_s"]
                                        if layers["cli.write_s"] else 0.0)
        # Shares per traced child, so each one's parts add up to its own total.
        import_s = statistics.median(r["import_s"] for r in runs[False])
        per_child = [self._shares(r["layers"], layers["process.start_s"], import_s,
                                  r["work_s"]) for r in runs[True]]
        shares = {k: statistics.median(s[k] for s in per_child) for k in per_child[0]}
        return layers, shares

    def _shares(self, layers: dict, start_s: float, import_s: float, work_s: float) -> dict:
        """Fractions of the time a CLI user waits: one process per command."""
        n = len(self.commands)
        startup = n * (start_s + import_s)
        total = startup + work_s
        shares = {"share.process": n * start_s / total,
                  "share.import": n * import_s / total,
                  "group.startup": startup / total,
                  "group.setup": layers["setup_group_s"] / total,
                  "group.stepping": layers["step_group_s"] / total,
                  "group.write": layers["cli.write_s"] / total}
        shares["group.other"] = 1.0 - sum(v for k, v in shares.items() if k.startswith("group."))
        for key, value in layers.items():
            if key.startswith("self."):
                shares["share." + key[5:-2]] = value / total
        return shares


def _median_or_exact(values: list):
    """Counts repeat exactly across runs and are kept as they are; times get a median."""
    return values[0] if all(v == values[0] for v in values) else statistics.median(values)


def _import_breakdown(stderr: str) -> dict:
    """Self time per top-level package from ``python -X importtime`` output."""
    totals = {"graphevolve": 0, "scipy": 0, "numpy": 0, "yaml": 0}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m:
            top = m.group(2).split(".")[0].lstrip("_")
            if top in totals:
                totals[top] += int(m.group(1))
    out = {f"import.{k}_s": v / 1e6 for k, v in totals.items()}
    out["import.graphevolve_self_s"] = out.pop("import.graphevolve_s")
    return out


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # a plain source checkout; git would search upwards
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "graphevolve").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds, trace)
    env = run.environment()
    if trace:
        values, shares = run.measure_traced()
        units, samples = PER_LAYER, {}
    else:
        values, samples = run.measure()
        units, shares = END_TO_END, {}
    counts = {k: len(v) for k, v in samples.items()}
    failed = run.failed
    correct = failed == 0 and all(name in values for name in units)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}

    print(f"== {workload} (seed {seed}, trace {int(trace)})")
    for name, m in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}{n}")
    print(f"  {'fail_ratio':28s} {failed / max(1, run.attempted):>16.6g} 1"
          f"  ({failed} of {run.attempted} commands)")
    for msg in run.failures[:20]:
        print(f"  FAILED: {msg}")
    verdicts = {}
    if shares:
        for key in sorted(shares):
            print(f"  {key:28s} {shares[key]:>16.3f}")
        verdicts = judge(workload, shares)
        print(f"  prediction: {verdicts['prediction']} does most of {workload}: "
              f"share {verdicts['share']:.3f} -> {verdicts['verdict']}")
    print("  env: " + json.dumps(env, sort_keys=True))

    record = {"env": env, "metrics": metrics, "samples": samples, "shares": shares,
              "prediction": verdicts, "attempted": run.attempted, "failed": failed,
              "failures": run.failures}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return {"correct": correct, "attempted": run.attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=gates.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "graphevolve" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no graphevolve source tree (src/graphevolve, configs/) in {ROOT}",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
