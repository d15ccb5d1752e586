"""YAML run-configuration parsing and validation.

A config is a YAML map with sections ``graph``, ``coefficients``, ``bc``,
and optionally ``sim`` and ``initial``.  Vertices are referenced by name;
matrix entries may be numbers or strings parseable by ``complex()``
(e.g. ``"2+3j"``).  See the README for the full schema.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np
import yaml

from . import bc as bc_mod
from . import coeffs as coeffs_mod
from . import initial as initial_mod
from .errors import NonPositiveCoefficientError, ParseError, ValidationError
from .graph import MetricGraph


# libyaml's parser when PyYAML was built with it: the same documents, ~5x faster
class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, plus YAML 1.2's floats with an exponent but no dot or
    no exponent sign, as in 1e-3, 1.0e5 and -2e3: YAML 1.1 reads them as strings."""


# tried after every YAML 1.1 resolver, so only scalars none of them matched reach it
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+0123456789."))

BC_KINDS = ("standard", "delta", "nonlocal_matrices", "matrix_mixed",
            "generalized_node", "boundary_matrices", "boundary_spaces",
            "nonlocal_interval")


@dataclass(frozen=True)
class SimConfig:
    equation: str  # wave | heat
    T: float
    dt: float
    theta: float = 0.5
    n_per_edge: int = 100
    snap_tol: float = 0.05
    record_stride: int = 1


@dataclass(frozen=True)
class RunConfig:
    graph: MetricGraph
    vertex_names: tuple[str, ...]
    external_lengths: tuple[float, ...]
    coeffs: coeffs_mod.EdgeCoefficients
    bc_kind: str
    bc: object
    nonlocal_t0: float | None = None
    sim: SimConfig | None = None
    initial: initial_mod.InitialData | None = None


def _fail(path: str, message: str):
    raise ValidationError(path, message)


def _require(mapping, key, path):
    if not isinstance(mapping, dict):
        _fail(path, "expected a map")
    if key not in mapping:
        _fail(f"{path}.{key}", "missing required key")
    return mapping[key]


def _real(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "expected a finite number, got an integer beyond the float range")


def _number(value, path) -> float:
    """A finite real number."""
    value = _real(value, path)
    if not math.isfinite(value):
        _fail(path, f"expected a finite number, got {value!r}")
    return value


def _positive(value, path) -> float:
    """A finite number > 0."""
    value = _number(value, path)
    if not value > 0.0:
        _fail(path, f"expected a finite number > 0, got {value!r}")
    return value


def _count(value, path, least) -> int:
    """A whole number >= least."""
    value = _number(value, path)
    if not value.is_integer() or value < least:
        _fail(path, f"expected an integer >= {least}, got {value:g}")
    return int(value)


def _list(value, path) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {value!r}")
    return value


def _map(value, path) -> dict:
    """An optional map: None reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        _fail(path, f"expected a map, got {value!r}")
    return value


def _scalar(value, path) -> complex:
    """A finite real number or a string accepted by complex()."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = complex(_real(value, path))
    elif isinstance(value, str):
        try:
            number = complex(value.replace(" ", ""))
        except ValueError:
            _fail(path, f"cannot parse {value!r} as a complex number")
    else:
        _fail(path, f"expected a number or complex string, got {value!r}")
    if not cmath.isfinite(number):
        _fail(path, f"expected a finite number, got {value!r}")
    return number


def _matrix(value, rows, cols, path) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        _fail(path, f"expected a {rows}x{cols} matrix (list of {rows} rows)")
    out = np.zeros((rows, cols), dtype=complex)
    for i, r in enumerate(value):
        if not isinstance(r, list) or len(r) != cols:
            _fail(f"{path}[{i}]", f"expected a row of {cols} entries")
        for j, entry in enumerate(r):
            out[i, j] = _scalar(entry, f"{path}[{i}][{j}]")
    return out


def _width(value) -> int:
    """The row length of a matrix given as a list of rows; 0 for anything
    else, which ``_matrix`` then refuses with its path."""
    return len(value[0]) if isinstance(value, list) and value and isinstance(value[0], list) else 0


def _parse_graph(section, path="graph"):
    vertices = _require(section, "vertices", path)
    if isinstance(vertices, int) and not isinstance(vertices, bool):
        if vertices < 0:
            _fail(f"{path}.vertices", f"vertex count must not be negative, got {vertices}")
        names = tuple(f"v{i}" for i in range(vertices))
    elif isinstance(vertices, list) and all(isinstance(v, str) for v in vertices):
        names = tuple(vertices)
        if len(set(names)) != len(names):
            _fail(f"{path}.vertices", "duplicate vertex names")
    else:
        _fail(f"{path}.vertices", "expected a count or a list of names")
    index = {name: i for i, name in enumerate(names)}

    def resolve(ref, p):
        if isinstance(ref, str):
            if ref not in index:
                _fail(p, f"unknown vertex {ref!r}")
            return index[ref]
        if isinstance(ref, int) and not isinstance(ref, bool) and 0 <= ref < len(names):
            return ref
        _fail(p, f"cannot resolve vertex reference {ref!r}")

    internal = []
    for i, pair in enumerate(_list(section.get("internal_edges") or [],
                                   f"{path}.internal_edges")):
        p = f"{path}.internal_edges[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(p, "expected a [tail, head] pair")
        internal.append((resolve(pair[0], p), resolve(pair[1], p)))

    anchors, lengths = [], []
    for i, entry in enumerate(_list(section.get("external_edges") or [],
                                    f"{path}.external_edges")):
        p = f"{path}.external_edges[{i}]"
        if not isinstance(entry, dict):
            _fail(p, "expected a map with vertex and length")
        anchors.append(resolve(_require(entry, "vertex", p), f"{p}.vertex"))
        lengths.append(_positive(entry.get("length", 1.0), f"{p}.length"))

    try:
        g = MetricGraph(len(names), internal, anchors)
    except Exception as exc:  # graph invariant violations
        _fail(path, str(exc))
    return g, names, tuple(lengths), index


def _parse_profile(entry, path) -> coeffs_mod.CoefficientProfile:
    kind = _require(entry, "kind", path)
    if kind == "constant":
        return coeffs_mod.constant(_number(_require(entry, "value", path), f"{path}.value"))
    if kind == "quadratic_square":
        return coeffs_mod.quadratic_square(
            _number(_require(entry, "alpha", path), f"{path}.alpha"),
            _number(_require(entry, "beta", path), f"{path}.beta"))
    if kind == "sampled":
        values = _list(_require(entry, "values", path), f"{path}.values")
        return coeffs_mod.sampled([_number(v, f"{path}.values") for v in values],
                                  _number(entry.get("domain_length", 1.0),
                                          f"{path}.domain_length"))
    _fail(f"{path}.kind", f"unknown coefficient kind {kind!r}")


def _parse_coeffs(section, g, lengths, path="coefficients"):
    section = _map(section, path)
    # EdgeCoefficients refuses an epsilon outside (0, 1), NaN included
    eps = _real(section.get("epsilon", 1e-8), f"{path}.epsilon")

    def profiles(key, count, default_len):
        entries = section.get(key)
        if entries is None:
            return tuple(coeffs_mod.constant(1.0) for _ in range(count))
        if not isinstance(entries, list) or len(entries) != count:
            _fail(f"{path}.{key}", f"expected {count} profile entries")
        out = []
        for i, e in enumerate(entries):
            p = f"{path}.{key}[{i}]"
            try:
                prof = _parse_profile(e, p)
            except NonPositiveCoefficientError as exc:  # e.g. too few samples
                _fail(p, str(exc))
            if prof.kind == "sampled" and default_len[i] != prof.domain_length:
                _fail(p, "sampled domain_length must match the edge")
            out.append(prof)
        return tuple(out)

    internal = profiles("internal", g.m, [1.0] * g.m)
    external = profiles("external", g.l, list(lengths))
    try:
        return coeffs_mod.EdgeCoefficients(internal, external, eps)
    except Exception as exc:
        _fail(path, str(exc))


def _kernel_samples(entry, path) -> np.ndarray:
    if isinstance(entry, list) and len(entry) >= 2:
        return np.array([_scalar(v, path) for v in entry])
    if isinstance(entry, (int, float, str)):
        return np.full(101, _scalar(entry, path))
    _fail(path, "expected a constant or a list of at least two kernel samples")


def _parse_bc(section, g, coeffs, index, path="bc"):
    kind = _require(section, "kind", path)
    if kind not in BC_KINDS:
        _fail(f"{path}.kind", f"unknown bc kind {kind!r}")
    l, m = g.l, g.m
    t0 = None
    try:
        if kind == "standard":
            built = bc_mod.from_standard(g, coeffs)
        elif kind == "delta":
            raw = _require(section, "alpha", path)
            alpha = np.zeros(g.n, dtype=complex)
            if isinstance(raw, dict):
                for name, val in raw.items():
                    if name not in index:
                        _fail(f"{path}.alpha", f"unknown vertex {name!r}")
                    alpha[index[name]] = _scalar(val, f"{path}.alpha.{name}")
            elif isinstance(raw, list) and len(raw) == g.n:
                alpha = np.array([_scalar(v, f"{path}.alpha") for v in raw])
            else:
                _fail(f"{path}.alpha", "expected a vertex->value map or per-vertex list")
            built = bc_mod.from_delta(g, coeffs, bc_mod.DeltaCoupling(alpha))
        elif kind == "nonlocal_matrices":
            built = bc_mod.from_nonlocal_matrices(
                g, coeffs,
                _matrix(section.get("me", []) if l else [], l, l, f"{path}.me"),
                _matrix(_require(section, "mi_minus", path), m, m, f"{path}.mi_minus"),
                _matrix(_require(section, "mi_plus", path), m, m, f"{path}.mi_plus"))
        elif kind == "matrix_mixed":
            built = bc_mod.from_matrix_mixed(
                g, _matrix(_require(section, "k_matrix", path), 2 * m, 2 * m,
                           f"{path}.k_matrix"))
        elif kind == "generalized_node":
            y = _require(section, "y_basis", path)
            d = _width(y)
            y_basis = _matrix(y, 2 * m, d, f"{path}.y_basis")
            w = _matrix(section.get("w", [[0] * d for _ in range(d)]), d, d, f"{path}.w")
            built = bc_mod.from_generalized_node(g, y_basis, w, coeffs)
        elif kind == "boundary_matrices":
            k0 = _count(_require(section, "k0", path), f"{path}.k0", 0)
            k1 = _count(_require(section, "k1", path), f"{path}.k1", 0)
            blocks = {}
            shapes = {"v0e": (k0, l), "v0i": (k0, m), "v1i": (k0, m),
                      "w0e": (k1, l), "w0i": (k1, m), "w1i": (k1, m),
                      "u0e": (k1, l), "u0i": (k1, m), "u1i": (k1, m)}
            for name, (r, c) in shapes.items():
                if name in section:
                    blocks[name] = _matrix(section[name], r, c, f"{path}.{name}")
            built = bc_mod.matrices_bc(l=l, m=m, k0=k0, k1=k1, **blocks)
        elif kind == "boundary_spaces":
            y1 = _require(section, "y1_basis", path)
            y0 = _require(section, "y0_basis", path)
            dim = l + 2 * m
            d1, d0 = _width(y1), _width(y0)
            local_u = None
            if "local_u" in section:
                local_u = _matrix(section["local_u"], dim, dim, f"{path}.local_u")
            built = bc_mod.BoundarySpacesBC(
                _matrix(y1, dim, d1, f"{path}.y1_basis"),
                _matrix(y0, dim, d0, f"{path}.y0_basis"),
                local_U=local_u,
                mu_endpoints=coeffs.mu_endpoint_diagonals())
        else:  # nonlocal_interval
            if m != 1 or l != 0:
                _fail(path, "nonlocal_interval requires exactly one internal edge")
            h0 = _kernel_samples(_require(section, "h0", path), f"{path}.h0")
            h1 = _kernel_samples(_require(section, "h1", path), f"{path}.h1")
            t0 = _number(section.get("t0", 0.25), f"{path}.t0")
            if not 0.0 < t0 <= 1.0:
                _fail(f"{path}.t0", f"must lie in (0, 1], got {t0!r}")
            built = bc_mod.from_nonlocal_interval(h0, h1)
    except ValidationError:
        raise
    except Exception as exc:
        _fail(path, str(exc))
    return kind, built, t0


def _parse_field(entry, length, path) -> initial_mod.FieldProfile:
    if entry is None:
        return initial_mod.zero_profile(length)
    kind = _require(entry, "kind", path)
    if kind == "zero":
        return initial_mod.zero_profile(length)
    if kind == "sine_mode":
        return initial_mod.sine_mode(
            _count(entry.get("mode", 1), f"{path}.mode", 1),
            _number(entry.get("amplitude", 1.0), f"{path}.amplitude"), length)
    if kind == "gaussian":
        return initial_mod.gaussian(
            _number(_require(entry, "center", path), f"{path}.center"),
            _positive(_require(entry, "width", path), f"{path}.width"),
            _number(entry.get("amplitude", 1.0), f"{path}.amplitude"), length)
    if kind == "custom_samples":
        values = _list(_require(entry, "values", path), f"{path}.values")
        return initial_mod.custom_samples(
            [_number(v, f"{path}.values") for v in values], length)
    _fail(f"{path}.kind", f"unknown initial kind {kind!r}")


def _parse_initial(section, g, lengths, path="initial"):
    section = _map(section, path)

    def edge_entries(key, count, domain):
        entries = section.get(key)
        if entries is None:
            entries = [None] * count
        if not isinstance(entries, list) or len(entries) != count:
            _fail(f"{path}.{key}", f"expected {count} per-edge entries")
        out = []
        for i, e in enumerate(entries):
            p = f"{path}.{key}[{i}]"
            e = _map(e, p)
            try:
                out.append(initial_mod.EdgeInitial(
                    _parse_field(e.get("u0"), domain[i], f"{p}.u0"),
                    _parse_field(e.get("u1"), domain[i], f"{p}.u1")))
            except ValueError as exc:  # profile invariants, e.g. too few samples
                _fail(p, str(exc))
        return tuple(out)

    return initial_mod.InitialData(
        edge_entries("internal", g.m, [1.0] * g.m),
        edge_entries("external", g.l, list(lengths)))


def _parse_sim(section, path="sim") -> SimConfig:
    eq = _require(section, "equation", path)
    if eq not in ("wave", "heat"):
        _fail(f"{path}.equation", f"unknown equation {eq!r}")

    T = _positive(_require(section, "T", path), f"{path}.T")
    dt = _positive(_require(section, "dt", path), f"{path}.dt")
    steps = T / dt
    if not (math.isfinite(steps) and abs(round(steps) * dt - T) <= 1e-9 * max(1.0, T)):
        _fail(f"{path}.dt", f"T = {T!r} must be an integer multiple of dt = {dt!r}")
    theta = _number(section.get("theta", 0.5), f"{path}.theta")
    if not 0.5 <= theta <= 1.0:
        _fail(f"{path}.theta", f"must lie in [1/2, 1], got {theta!r}")
    snap_tol = _number(section.get("snap_tol", 0.05), f"{path}.snap_tol")
    if snap_tol < 0.0:
        _fail(f"{path}.snap_tol", f"must be non-negative, got {snap_tol!r}")
    return SimConfig(
        equation=eq, T=T, dt=dt, theta=theta,
        n_per_edge=_count(section.get("n_per_edge", 100), f"{path}.n_per_edge", 4),
        snap_tol=snap_tol,
        record_stride=_count(section.get("record_stride", 1), f"{path}.record_stride", 1),
    )


def parse_config(text: str | bytes, name: str | None = None) -> RunConfig:
    """Parse and validate a YAML config (text, or bytes that YAML decodes) into a RunConfig.

    `name`, the file the text was read from, names it in YAML's error messages.
    """
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:  # PyYAML's message spans lines; an error is one
        if isinstance(exc, yaml.reader.ReaderError):  # position: offset of the bad character
            before = text[:exc.position]
            if isinstance(before, bytes):  # UTF-16 after a byte-order mark, else UTF-8
                utf16 = before[:2] in (b"\xff\xfe", b"\xfe\xff")
                before = before.decode("utf-16" if utf16 else "utf-8", "replace")
            line = before.count("\n")
        else:
            line = getattr(getattr(exc, "problem_mark", None), "line", None)
        message = " ".join(str(exc).split())
        if name is not None:  # YAML names what it read "<byte string>" or "<unicode string>"
            message = re.sub(r'"<(byte|unicode) string>"', lambda _: f'"{name}"', message)
        raise ParseError(line + 1 if line is not None else "?", message)
    if not isinstance(doc, dict):
        _fail("<root>", "config must be a map of sections")

    g, names, lengths, index = _parse_graph(_require(doc, "graph", "<root>"))
    coeffs = _parse_coeffs(doc.get("coefficients"), g, lengths)
    kind, built, t0 = _parse_bc(_require(doc, "bc", "<root>"), g, coeffs, index)
    sim = _parse_sim(doc["sim"]) if "sim" in doc and doc["sim"] is not None else None
    init = _parse_initial(doc.get("initial"), g, lengths) if ("initial" in doc or sim) else None
    return RunConfig(g, names, lengths, coeffs, kind, built,
                     nonlocal_t0=t0, sim=sim, initial=init)
