"""Work done inside one fresh benchmark child process.

Modes (the last stdout line is a JSON summary):

    child.py env
        Import graphevolve and report the versions it runs with.
    child.py import
        Time ``import graphevolve``.
    child.py lib CFG...
        Library user: time ``import graphevolve``, then set up every config
        (parse, the check ``cli.cmd_simulate`` makes, conversion, init) and
        step each one to its end time.
    child.py cli --trace 0|1 --spans FILE ARGV_JSON
        CLI user in one process: time the import, then call ``cli.main`` on
        each argument list.  With ``--trace 1`` every public call named in
        ``TARGETS`` is wrapped in a span; the spans are written to FILE at the
        end and the per-layer metrics are computed from them.

Only the standard library is imported before the import timer starts.
"""

from __future__ import annotations

import copy
import json
import os
import statistics
import sys
import time
from collections import Counter

# (module, function, span name); the span name's prefix is the layer.
TARGETS = (
    ("graphevolve.config", "parse_config", "config.parse_config"),
    ("graphevolve.wellposed", "check_boundary_matrices", "wellposed.check_boundary_matrices"),
    ("graphevolve.wellposed", "check_boundary_spaces", "wellposed.check_boundary_spaces"),
    ("graphevolve.wellposed", "check_nonlocal_interval", "wellposed.check_nonlocal_interval"),
    ("graphevolve.wellposed", "auto_shrink_t0", "wellposed.auto_shrink_t0"),
    ("graphevolve.wellposed", "vertex_update_matrix", "wellposed.vertex_update_matrix"),
    ("graphevolve.bc", "to_boundary_matrices", "bc.to_boundary_matrices"),
    ("graphevolve.coeffs", "internal_transform", "coeffs.internal_transform"),
    ("graphevolve.coeffs", "external_transform", "coeffs.external_transform"),
    ("graphevolve.heat", "heat_init", "heat.heat_init"),
    ("graphevolve.heat", "heat_run", "heat.heat_run"),
    ("graphevolve.heat", "heat_step", "heat.heat_step"),
    ("graphevolve.heat", "energy", "heat.energy"),
    ("graphevolve.heat", "mass", "heat.mass"),
    ("graphevolve.wave", "wave_init", "wave.wave_init"),
    ("graphevolve.wave", "wave_run", "wave.wave_run"),
    ("graphevolve.wave", "wave_step", "wave.wave_step"),
    ("graphevolve.wave", "energy", "wave.energy"),
    ("graphevolve.wave", "mass", "wave.mass"),
    ("graphevolve.cli", "_write_solution_csv", "cli.write_solution_csv"),
    ("graphevolve.cli", "_write_diagnostics_csv", "cli.write_diagnostics_csv"),
    ("graphevolve.cli", "main", "cli.main"),
)
CHECKS = {"wellposed.check_boundary_matrices", "wellposed.check_boundary_spaces",
          "wellposed.check_nonlocal_interval", "wellposed.auto_shrink_t0"}
SETUP = CHECKS | {"config.parse_config", "bc.to_boundary_matrices",
                  "heat.heat_init", "wave.wave_init"}
WRITERS = {"cli.write_solution_csv", "cli.write_diagnostics_csv"}
LAYERS = ("config", "wellposed", "bc", "coeffs", "heat", "wave", "cli")
COUNTS = ("graph.trace_dim", "heat.unknowns", "heat.dense_bytes", "wave.cells",
          "wave.vertex_slots", "cli.write_bytes")
WARMUP_STEPS = 5


class Tracer:
    """In-memory spans: [name, start, end, parent index] plus exact counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def instrument(self) -> None:
        """Replace each target in every graphevolve namespace that binds it."""
        import importlib

        hooks = self._hooks()
        for modname, attr, span in TARGETS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapped = self.wrap(span, orig, hooks.get(span))
            for name, mod in list(sys.modules.items()):
                if name == "graphevolve" or name.startswith("graphevolve."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
        from graphevolve.wellposed import VertexUpdate
        VertexUpdate.solve = self.wrap("wellposed.vertex_solve", VertexUpdate.solve)

    def _hooks(self):
        c = self.counts

        def parsed(args, cfg):
            c["graph.trace_dim"] += cfg.graph.trace_dim

        def heat_ready(args, state):
            n = sum(e.u.size for e in state.edges())
            c["heat.unknowns"] += n
            c["heat.dense_bytes"] += 2 * n * n * 16  # complex a and b, computed

        def wave_ready(args, state):
            c["wave.cells"] += sum(e.s.size - 1 for e in state.edges())
            c["wave.vertex_slots"] += state.update.m_out.shape[0]

        def wave_done(args, result):
            state = result[0]
            c["wave.cell_steps"] += sum(e.s.size - 1 for e in state.edges()) * state.step_count

        def written(args, result):
            c["cli.write_bytes"] += os.path.getsize(args[0])

        return {"config.parse_config": parsed, "heat.heat_init": heat_ready,
                "wave.wave_init": wave_ready, "wave.wave_run": wave_done,
                "cli.write_solution_csv": written, "cli.write_diagnostics_csv": written}

    def metrics(self) -> dict:
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += dur[i]

        def outer(names) -> float:
            """Total time of the named spans, not counting one nested in another."""
            total = 0.0
            for i, s in enumerate(spans):
                if s[0] not in names:
                    continue
                p = s[3]
                while p >= 0 and spans[p][0] not in names:
                    p = spans[p][3]
                if p < 0:
                    total += dur[i]
            return total

        def durations(name):
            return sorted(dur[i] for i, s in enumerate(spans) if s[0] == name)

        def p99(values):
            return values[min(len(values) - 1, int(0.99 * len(values)))] if values else 0.0

        out = {}
        for layer in ("heat", "wave"):
            steps = durations(f"{layer}.{layer}_step")
            diag = durations(f"{layer}.energy") + durations(f"{layer}.mass")
            records = len(durations(f"{layer}.energy"))
            out[f"{layer}.init_s"] = outer({f"{layer}.{layer}_init"})
            out[f"{layer}.step_ms"] = statistics.median(steps) * 1e3 if steps else 0.0
            out[f"{layer}.step_ms_p99"] = p99(steps) * 1e3
            out[f"{layer}.step_samples"] = len(steps)
            out[f"{layer}.diag_ms"] = sum(diag) / records * 1e3 if records else 0.0
            out[f"{layer}.step_total_s"] = sum(steps)
        step_total = out["wave.step_total_s"]
        out["wave.cell_updates_per_s"] = (self.counts["wave.cell_steps"] / step_total
                                          if step_total else 0.0)
        solves = durations("wellposed.vertex_solve")
        out["wellposed.vertex_solve_ms"] = statistics.median(solves) * 1e3 if solves else 0.0
        out["config.parse_s"] = outer({"config.parse_config"})
        out["wellposed.check_s"] = outer(CHECKS)
        out["wellposed.vertex_update_s"] = outer({"wellposed.vertex_update_matrix"})
        out["bc.convert_s"] = outer({"bc.to_boundary_matrices"})
        out["coeffs.transform_s"] = outer({"coeffs.internal_transform",
                                           "coeffs.external_transform"})
        out["cli.write_s"] = outer(WRITERS)
        out["setup_group_s"] = outer(SETUP)
        out["step_group_s"] = outer({"heat.heat_run", "wave.wave_run"})
        out["run.steps"] = out["heat.step_samples"] + out["wave.step_samples"]
        out["trace.spans"] = len(spans)
        for layer in LAYERS:
            out[f"self.{layer}_s"] = 0.0
        for i, s in enumerate(spans):
            out[f"self.{s[0].split('.')[0]}_s"] += dur[i] - child_time[i]
        for key in COUNTS:
            out[key] = self.counts[key]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as [name, start, end, parent index, run id] rows."""
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": [[*s, self.run_id] for s in self.spans]}, f)


def _timed_import() -> float:
    t0 = time.perf_counter()
    import graphevolve  # noqa: F401
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    import graphevolve

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy.__config__.CONFIG),
            "scipy_blas": blas(scipy.__config__.CONFIG),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "graphevolve_file": graphevolve.__file__}


def _setup(ge, text: str):
    """The library calls ``cli.cmd_simulate`` makes before stepping."""
    from graphevolve.config import parse_config

    cfg = parse_config(text)
    g, sim = cfg.graph, cfg.sim
    if cfg.bc_kind == "nonlocal_interval":
        h0, h1 = cfg.bc.nonlocal_kernels
        t0 = cfg.nonlocal_t0 or 0.25
        report = ge.check_nonlocal_interval(h0, h1, t0)
        if not report.well_posed:
            report = ge.auto_shrink_t0(h0, h1, t0)
    elif isinstance(cfg.bc, ge.BoundaryMatricesBC):
        report = ge.check_boundary_matrices(cfg.bc, cfg.coeffs)
    else:
        report = ge.check_boundary_spaces(cfg.bc)
    if not report.well_posed:
        raise RuntimeError(f"config is not well-posed: {report.verdict}")
    if sim.equation == "wave":
        bc = cfg.bc
        if isinstance(bc, ge.BoundarySpacesBC):
            bc = ge.to_boundary_matrices(bc, g.l, g.m)
        state = ge.wave_init(g, cfg.coeffs, bc, cfg.initial, sim.dt, sim.T,
                             snap_tol=sim.snap_tol, external_lengths=cfg.external_lengths)
        return state, ge.wave_run, sim
    state = ge.heat_init(g, cfg.coeffs, cfg.bc, cfg.initial, sim.dt, theta=sim.theta,
                         n_per_edge=sim.n_per_edge, external_lengths=cfg.external_lengths)
    return state, ge.heat_run, sim


def lib_mode(paths: list[str]) -> dict:
    texts = [open(p).read() for p in paths]
    import_s = _timed_import()
    import graphevolve as ge

    t0 = time.perf_counter()
    ready = [_setup(ge, text) for text in texts]
    setup_s = time.perf_counter() - t0
    steps, run_s, diags = 0, 0.0, {}
    for path, (state, run, sim) in zip(paths, ready):
        # A few steps on a copy first: the first run in a process pays one-time
        # costs that would otherwise read as 10-20 % lower throughput.
        run(copy.deepcopy(state), WARMUP_STEPS * state.dt, 1)
        t0 = time.perf_counter()
        state, diag, _ = run(state, sim.T, sim.record_stride)
        run_s += time.perf_counter() - t0
        steps += state.step_count
        diags[path] = [diag.times, diag.energy, diag.mass]
    return {"import_s": import_s, "setup_s": setup_s, "steps_per_s": steps / run_s,
            "diagnostics": diags}


def cli_mode(trace: bool, spans_path: str, argvs: list[list[str]]) -> dict:
    import_s = _timed_import()
    import graphevolve.cli

    tracer = Tracer(f"{os.getpid()}-{time.time_ns()}") if trace else None
    if tracer is not None:
        tracer.instrument()
    codes, work_s = [], 0.0
    for argv in argvs:
        t0 = time.perf_counter()
        codes.append(graphevolve.cli.main(argv))
        work_s += time.perf_counter() - t0
    out = {"import_s": import_s, "work_s": work_s, "codes": codes}
    if tracer is not None:
        tracer.dump(spans_path)
        out["layers"] = tracer.metrics()
    return out


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "env":
        out = environment()
    elif mode == "import":
        out = {"import_s": _timed_import()}
    elif mode == "lib":
        out = lib_mode(argv[1:])
    else:
        out = cli_mode(argv[2] == "1", argv[4], json.loads(argv[5]))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
