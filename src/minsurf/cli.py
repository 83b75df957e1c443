"""Experiment runner for the minimal-surface Dirichlet-to-Neumann pipeline.

Each verification experiment is exposed as a subcommand driven by a JSON
config.  Every run writes a ``manifest.json`` (fully resolved config, library
versions, timings, assertion outcomes) plus one or more CSV data files into
the output directory, and exits 0 exactly when all configured assertions
pass.  A Newton solve or a recovery that gives up, and a DN trace with a
nodal |N_g| >= 1, fail their run (exit 1) through the same path, with a
manifest but no CSV data.  CSV payloads are
deterministic: repeated runs with the same config produce byte-identical
files.

Each config key is declared once in :data:`SCHEMAS`, with its default, type
and range; a config is checked in full before the first solve.

Boundary data, metric factors and interior weights are drawn from a small
library of named analytic families with numeric parameters rather than a
general expression parser, so a config is a complete, auditable record of an
experiment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import dnmap as dn
from . import forward as fwd
from . import geometry as geo
from . import identity as idn
from . import inverse as inv
from . import linearize as lin

__all__ = ["main", "run", "ConfigError"]


class ConfigError(ValueError):
    """Raised for malformed configs; the message names the offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


# ---------------------------------------------------------------------------
# config schema: rules, named analytic function library, subcommand tables
# ---------------------------------------------------------------------------

POSITIVE = (lambda v: 0.0 < v < np.inf, "finite and positive")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
NONZERO = (lambda v: v != 0.0, "finite and nonzero")


class Rule:
    """One config value's type or list shape, and its range.

    ``rule(value, key)`` returns the value typed or raises a ConfigError
    naming ``key``.  ``of`` completes the type: a Num's kind, the rule of a
    Seq entry or Maybe value, the ``{name: (default, rule)}`` table of Params.
    ``rng`` is ``(predicate(typed), phrase)``: a range reads its own value
    only, and :func:`_build` checks what relates two keys.
    """

    def __init__(self, of=None, rng=None):
        self.of, self.range = of, rng

    def __call__(self, value, key):
        typed = self.typed(value, key)
        if self.range and not self.range[0](typed):
            raise ConfigError(key, f"must be {self.range[1]}, got {value!r}")
        return typed


class Num(Rule):
    """A finite real number; a boolean, a string, NaN or an infinity, or for
    ``int`` a fractional number, is none."""

    def typed(self, value, key):
        try:
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)
                    or (self.of is int and not float(value).is_integer())):
                raise ValueError
            return self.of(value)
        except (ValueError, OverflowError):
            expected = "an integer" if self.of is int else "a finite number"
            raise ConfigError(key, f"expected {expected}, got {value!r}") from None


class Text(Rule):
    def typed(self, value, key):
        if not isinstance(value, str):
            raise ConfigError(key, f"expected a string, got {value!r}")
        return value


class Maybe(Rule):
    def typed(self, value, key):
        return None if value is None else self.of(value, key)


class Seq(Rule):
    """A list whose entry ``i`` is checked under the key ``key[i]``."""

    def typed(self, value, key):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(key, f"expected a list, got {value!r}")
        return [self.of(v, f"{key}[{i}]") for i, v in enumerate(value)]


def _fill(table, value, key, unknown="unknown key"):
    """``table``'s entries read from ``value``, typed; a missing one takes its
    default, which if callable is computed from the entries typed before it."""
    for name in value:
        if name not in table:
            raise ConfigError(f"{key}.{name}".lstrip("."), unknown)
    typed = {}
    for name, (default, rule) in table.items():
        v = (value[name] if name in value
             else default(typed) if callable(default) else default)
        typed[name] = rule(v, f"{key}.{name}".lstrip("."))
    return typed


class Params(Rule):
    """An object with the keys of a table; at the top of a schema, a key
    with this rule is a section, whose user values merge onto its defaults."""

    def typed(self, value, key):
        if not isinstance(value, dict):
            raise ConfigError(key or "<root>", "expected an object")
        return _fill(self.of, value, key)


class Tagged(Rule):
    """An object whose ``tag`` names a variant ``(make, table)``; typed, it is
    ``functools.partial(make, **params)`` with the parameters of ``table``."""

    def __init__(self, tag, variants, noun):
        super().__init__(variants)
        self.tag, self.noun = tag, noun

    def typed(self, value, key):
        if not isinstance(value, dict):
            raise ConfigError(key, f"expected an object with a '{self.tag}' field")
        name = value.get(self.tag)
        if not isinstance(name, str) or name not in self.of:
            raise ConfigError(f"{key}.{self.tag}", f"unknown {self.noun} '{name}'")
        make, table = self.of[name]
        params = {k: v for k, v in value.items() if k != self.tag}
        return functools.partial(make, **_fill(
            table, params, key, f"unknown parameter of {self.noun} '{name}'"))


NUMBER, INTEGER, TEXT = Num(float), Num(int), Text()
NUMBERS = Seq(NUMBER)
POINT = Seq(NUMBER, (lambda v: len(v) == 2, "[x, y]"))
THRESHOLD = Maybe(NUMBER)


# named analytic function library, mesh kinds and metric kinds

# the library evaluates these on float arrays, so arithmetic on x and y is
# elementwise
def _gaussian(x, y, amplitude, width, center, offset, k):
    cx, cy = center
    r2 = (x - cx) ** 2 + (y - cy) ** 2
    out = amplitude * np.exp(-r2 / width**2)
    if k:
        out = out * ((y - cy) / width) ** k
    return offset + out


def _fourier(x, y, cos, sin, offset):
    theta = np.arctan2(y, x)
    out = np.full_like(theta, offset)
    for k, ck in enumerate(cos, start=1):
        out = out + ck * np.cos(k * theta)
    for k, sk in enumerate(sin, start=1):
        out = out + sk * np.sin(k * theta)
    return out


def _catenoid(x, y, a):
    return a * np.arccosh(np.maximum(np.hypot(x, y) / a, 1.0))


# a constant family gives one number, not one per point: a metric of
# constants then keeps its inverse as three numbers and its quadrature
# weights as one row, as the flat one does
FAMILIES = {
    "zero": (lambda x, y: 0.0, {}),
    "constant": (lambda x, y, value: value, {"value": (0.0, NUMBER)}),
    "affine": (lambda x, y, a0, ax, ay: a0 + ax * x + ay * y,
               dict.fromkeys(("a0", "ax", "ay"), (0.0, NUMBER))),
    "quadratic": (lambda x, y, c0, cx, cy, cxx, cxy, cyy: (
        c0 + cx * x + cy * y + cxx * x * x + cxy * x * y + cyy * y * y),
        dict.fromkeys(("c0", "cx", "cy", "cxx", "cxy", "cyy"), (0.0, NUMBER))),
    "gaussian": (_gaussian, {
        "amplitude": (1.0, NUMBER), "width": (1.0, Num(float, POSITIVE)),
        "center": ([0.0, 0.0], POINT), "offset": (0.0, NUMBER),
        "k": (0, Num(int, NON_NEGATIVE))}),
    "fourier": (_fourier, {"cos": ([], NUMBERS), "sin": ([], NUMBERS),
                           "offset": (0.0, NUMBER)}),
    "catenoid": (_catenoid, {"a": (0.5, Num(float, POSITIVE))}),
}
FUNCTION = Tagged("name", FAMILIES, "function family")

# a typed mesh is its deferred constructor; _build calls it, and the
# constructor checks its own ranges
MESH = Tagged("kind", {
    "square": (geo.square, {"n": (32, INTEGER)}),
    "disc": (geo.disc, {"n_radial": (24, INTEGER),
                        "n_angular": (lambda p: 6 * p["n_radial"], INTEGER)}),
    "annulus": (geo.annulus, {"r0": (0.5, NUMBER), "r1": (1.5, NUMBER),
                              "n_radial": (16, INTEGER), "n_angular": (96, INTEGER)}),
}, "mesh kind")
METRIC = Tagged("kind", {
    "flat": (geo.flat_metric, {}),
    # no usable default: a conformal metric names its factor
    "conformal": (lambda factor: geo.conformal_metric(geo.flat_metric(), factor),
                  {"factor": (None, FUNCTION)}),
    "explicit": (lambda g11, g12, g22: geo.explicit_metric(
        lambda x, y: (g11(x, y), g12(x, y), g22(x, y))), {
            "g11": ({"name": "constant", "value": 1.0}, FUNCTION),
            "g12": ({"name": "zero"}, FUNCTION),
            "g22": ({"name": "constant", "value": 1.0}, FUNCTION)}),
}, "metric kind")


def named_function(spec, key):
    """Build a vectorized callable ``(x, y) -> values`` from a family spec
    (``constant`` and ``zero`` give one number, which broadcasts).

    The families of :data:`FAMILIES`, their parameters and values are listed
    in ``docs/experiments.md``.  The gaussian's integer ``k`` gives profiles
    with a zero of order k across a horizontal line.
    """
    return FUNCTION(spec, key)


# subcommand tables; each also takes an ``output_dir``

def _section(**table):
    """The ``(defaults, rule)`` schema entry of a section."""
    return {name: default for name, (default, _) in table.items()}, Params(table)


def _thresholds(**defaults):
    """The ``assertions`` section; a null threshold skips its check."""
    return _section(**{name: (d, THRESHOLD) for name, d in defaults.items()})


def _jet_label(profile):
    """The ``k`` of a boundary-jet profile, its CSV label; 0 if it has none."""
    return profile.keywords.get("k", 0)


SOLVER = _section(tol=(1e-12, Num(float, POSITIVE)),
                  max_iter=(30, Num(int, NON_NEGATIVE)))
FLAT = ({"kind": "flat"}, METRIC)
SMALL_DISC = ({"kind": "disc", "n_radial": 24, "n_angular": 144}, MESH)
SIN1, COS2 = {"name": "fourier", "sin": [1.0]}, {"name": "fourier", "cos": [0.0, 1.0]}

SCHEMAS = {name: Params({**table, "output_dir": (f"results/{name}", TEXT)})
           for name, table in {
    "forward": {
        "mesh": ({"kind": "square", "n": 64}, MESH),
        "metric": FLAT,
        # a saddle: the flat square with affine data is already minimal
        "boundary_data": ({"name": "quadratic", "cxx": 0.3, "cyy": -0.3}, FUNCTION),
        "solver": SOLVER,
        "assertions": _section(
            max_iterations=(25, THRESHOLD), residual_max=(1e-9, THRESHOLD),
            # null unless boundary_data is affine: checked by _build
            affine_sup_error_max=(None, THRESHOLD)),
    },
    "linearize-check": {
        "mesh": SMALL_DISC,
        "metric": FLAT,
        # the second difference runs along the first two, the third along all
        "directions": ([SIN1, COS2, {"name": "fourier", "sin": [0.0, 0.0, 1.0]}],
                       Seq(FUNCTION, (lambda v: len(v) == 3, "3 function specs"))),
        "amplitude": (0.05, Num(float, NONZERO)),
        "eps_sweep": ([0.1, 0.03162277660168379, 0.01], Seq(NUMBER, (
            lambda v: len(set(v)) >= 2 and all(0.0 < x < np.inf for x in v),
            "two or more distinct finite positive values for a slope fit"))),
        "third_h_eps": (0.02, Num(float, POSITIVE)),
        "solver": SOLVER,
        "assertions": _thresholds(second_slope_min=1.8, second_final_rel_max=1e-4,
                                  third_rel_max=0.05),
    },
    "identity-check": {
        # two or more distinct mesh sizes: checked by _build on the meshes
        "levels": ([[12, 72], [24, 144], [48, 288]], Seq(Seq(
            INTEGER, (lambda v: len(v) == 2, "[n_radial, n_angular]")))),
        "metric": ({"kind": "conformal",
                    "factor": {"name": "gaussian", "offset": 1.0, "amplitude": 0.3,
                               "width": 0.5, "center": [0.3, 0.2]}}, METRIC),
        "directions": ([SIN1, COS2, {"name": "fourier", "sin": [0.0, 1.0]},
                        {"name": "fourier", "cos": [1.0]}],
                       Seq(FUNCTION, (lambda v: len(v) == 4, "4 function specs"))),
        "amplitude": (1.0, Num(float, NONZERO)),
        "h_eps_factor": (None, Maybe(Num(float, POSITIVE))),
        "solver": SOLVER,
        "assertions": _thresholds(relative_residual_max=1e-3, order_min=1.0),
    },
    "area-pipeline": {
        "mesh": SMALL_DISC,
        "metric": FLAT,
        "boundary_data": ({"name": "fourier", "cos": [0.0, 0.02],
                           "sin": [0.05, 0.015]}, FUNCTION),
        "area_step": (1e-4, Num(float, POSITIVE)),
        "solver": SOLVER,
        "assertions": _thresholds(relative_sup_error_max=1e-3, roundtrip_max=1e-14),
    },
    "recover-q": {
        "mesh": ({"kind": "disc", "n_radial": 128, "n_angular": 768}, MESH),
        "metric": FLAT,
        # Q < 1 on the mesh: checked by _build
        "weight": ({"name": "gaussian", "amplitude": 0.1, "width": 0.35,
                    "center": [0.0, 0.0]}, FUNCTION),
        # one probe functional, q_form; the key stays for configs that name it
        "mode": ("synthetic", Text(rng=(lambda v: v == "synthetic", "'synthetic'"))),
        "point": ([0.0, 0.0], POINT),
        "tau_sweep": ([6.0, 8.0, 10.0], NUMBERS),
        "field": (None, Maybe(Params({"spacing": (0.2, Num(float, POSITIVE)),
                                      "margin": (0.3, Num(float, POSITIVE))}))),
        "assertions": _thresholds(center_error_max=0.02, fit_residual_max=0.2),
    },
    "boundary-jet": {
        "mesh": ({"kind": "square", "n": 192}, MESH),
        "metric": FLAT,
        "point": ([0.5, 0.0], POINT),
        "m": (2, INTEGER),
        "n_sweep": ([20.0, 28.0, 40.0, 56.0], Seq(Num(float, POSITIVE))),
        # each Q < 1 on the mesh: checked by _build
        "profiles": ([{"name": "gaussian", "amplitude": 0.1, "width": 0.2,
                       "center": [0.5, 0.0], "k": k} for k in (0, 1)], Seq(FUNCTION, (
            lambda v: 0 < len(v) == len(set(map(_jet_label, v))),
            "a non-empty list of function specs with distinct k"))),
        "assertions": _thresholds(exponent_tolerance=0.3, margin_min=0.5,
                                  fit_residual_max=0.2),
    },
}.items()}


# ---------------------------------------------------------------------------
# config resolution and artifact writing
# ---------------------------------------------------------------------------

def resolve_config(subcommand, user_config):
    """Merge ``user_config`` onto the defaults of ``subcommand`` and check it.

    Sections (``solver``, ``assertions``) merge key by key; any other value
    replaces its default whole.  Returns the merged config, which the
    manifest echoes, and its values typed for the runner.
    """
    schema = SCHEMAS[subcommand]
    if not isinstance(user_config, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    merged = {name: default for name, (default, _) in schema.of.items()}
    for name, value in user_config.items():
        section = isinstance(schema.of.get(name, (None, None))[1], Params)
        merged[name] = ({**merged[name], **value}
                        if section and isinstance(value, dict) else value)
    return merged, schema(merged, "")


def _build(cfg):
    """Check what relates two keys of a typed config, build its metric and
    meshes, and check what needs them.

    ``assertions.affine_sup_error_max`` must be null unless
    ``boundary_data`` is of family ``affine``.  A mesh constructor's range
    error names its key (``mesh`` or ``levels[i]``).  Then, before the
    first solve, the metric must be SPD at the quadrature points and on the
    boundary of every mesh (boundary vertices and edge quadrature points),
    each weight Q finite and below 1 at its vertices and quadrature points,
    the boundary data and every direction finite on the boundary vertices,
    every direction nonzero somewhere on the boundary, ``levels`` of two or
    more sizes, the metric SPD at ``point``, and a ``field`` grid with a
    point, which it adds as ``field["grid"]``.
    """
    limit = cfg["assertions"].get("affine_sup_error_max")
    if limit is not None and cfg["boundary_data"].func is not FAMILIES["affine"][0]:
        raise ConfigError("assertions.affine_sup_error_max", "must be null unless "
                          f"boundary_data is of family 'affine', got {limit!r}")
    cfg["metric"] = cfg["metric"]()
    if "levels" in cfg:
        builders = [(f"levels[{i}]", functools.partial(geo.disc, *level))
                    for i, level in enumerate(cfg["levels"])]
    else:
        builders = [("mesh", cfg["mesh"])]
    weights = [(f"profiles[{i}]", q) for i, q in enumerate(cfg.get("profiles", []))]
    if "weight" in cfg:
        weights.append(("weight", cfg["weight"]))
    meshes = []
    for key, build in builders:
        try:
            mesh = build()
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
        try:
            d = geo.discretization(mesh, cfg["metric"])
            d.mq, d.boundary
        except ValueError as exc:
            raise ConfigError("metric", str(exc)) from None
        for name, q in weights:
            for x, y in (mesh.vertices.T, mesh.quad_points):
                with np.errstate(all="ignore"):  # the overflow is what is reported
                    values = np.asarray(q(x, y))
                if not np.all(np.isfinite(values) & (values < 1.0)):
                    raise ConfigError(name, "Q must be finite and stay below 1 on "
                                            "the mesh so that c = 1/(1 - Q) is "
                                            "positive")
        bx, by = mesh.vertices[mesh.boundary_vertices].T
        data = [(f"directions[{j}]", fn) for j, fn in enumerate(cfg.get("directions", []))]
        if "boundary_data" in cfg:
            data.append(("boundary_data", cfg["boundary_data"]))
        for name, fn in data:
            with np.errstate(all="ignore"):  # the overflow is what is reported
                values = fn(bx, by)
            if not np.all(np.isfinite(values)):
                raise ConfigError(name, "is not finite on the mesh boundary")
            if name != "boundary_data" and not np.any(values):
                raise ConfigError(name, "is zero on the mesh boundary, "
                                  "so every linearization along it vanishes")
        meshes.append(mesh)
    if "levels" not in cfg:
        cfg["mesh"] = meshes[0]
    elif len({mesh.h for mesh in meshes}) < 2:
        raise ConfigError("levels", "a slope fit needs two or more distinct mesh sizes")
    else:
        cfg["levels"] = meshes
    if "point" in cfg:
        try:
            geo.metric_eval(cfg["metric"], cfg["point"])
        except ValueError as exc:
            raise ConfigError("point", str(exc)) from None
    if cfg.get("field") is not None:
        field = cfg["field"]
        field["grid"] = inv.interior_grid(cfg["mesh"], field["spacing"], field["margin"])
        if not len(field["grid"]):
            raise ConfigError("field", "no grid point lies in the chart at this margin")


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    """Write rows with repr'd floats and LF newlines for byte stability."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


class Assertions:
    """Collects named threshold checks; a None threshold skips the check.

    An undefined (NaN) value fails its check in either mode, and the
    manifest records it as null.
    """

    def __init__(self):
        self.records = []

    def check(self, name, value, threshold, mode="max"):
        if threshold is None:
            return
        value = float(value)
        threshold = float(threshold)
        passed = value <= threshold if mode == "max" else value >= threshold
        self.records.append({
            "name": name, "value": value, "threshold": threshold,
            "mode": mode, "passed": bool(passed),
        })

    def require(self, name, condition, detail):
        self.records.append({
            "name": name, "value": detail, "threshold": None,
            "mode": "bool", "passed": bool(condition),
        })

    @property
    def passed(self):
        return all(r["passed"] for r in self.records)


def _fit_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return float(inv._fit_line(np.log(xs), np.log(ys))[0])


def _directions(cfg):
    """The configured boundary directions, each scaled by ``amplitude``."""
    amplitude = cfg["amplitude"]
    return [(lambda x, y, fn=fn: amplitude * fn(x, y)) for fn in cfg["directions"]]


def _diagnostic(res, **extra):
    """The manifest record of one point's sweep fit."""
    return {"point": list(res.point), "sweep": list(res.sweep),
            "fit_residual": res.fit_residual, "reliable": res.reliable,
            "message": res.message, **extra}


# ---------------------------------------------------------------------------
# subcommand runners: each takes a config that resolve_config typed and
# _build completed
# ---------------------------------------------------------------------------

def run_forward(cfg, out_dir, log):
    mesh, metric, f = cfg["mesh"], cfg["metric"], cfg["boundary_data"]

    t0 = time.perf_counter()
    u, report = fwd.solve_minimal_surface(mesh, metric, f,
                                          fwd.SolveOptions(**cfg["solver"]))
    solve_s = time.perf_counter() - t0

    trace = dn._nonlinear_trace(mesh, metric, geo.boundary_values(mesh, f), u)
    write_csv(out_dir / "convergence.csv", ["iteration", "residual"],
              list(enumerate(report.residual_norms)))
    write_csv(out_dir / "solution.csv", ["x", "y", "u"],
              np.column_stack([mesh.vertices, u]))
    write_csv(out_dir / "dn_trace.csv", ["arclength", "value"],
              np.column_stack([trace.bg.arclength, trace.values]))

    checks, limit = Assertions(), cfg["assertions"]
    checks.check("iterations", report.iterations, limit["max_iterations"])
    checks.check("final_residual", report.final_residual, limit["residual_max"])
    exact = f(mesh.vertices[:, 0], mesh.vertices[:, 1])
    checks.check("affine_sup_error", np.abs(u - exact).max(),
                 limit["affine_sup_error_max"])

    log(f"solved in {report.iterations} iterations, "
        f"residual {report.final_residual:.3e}")
    results = {"iterations": report.iterations, "jacobians": report.jacobians,
               "final_residual": report.final_residual,
               "n_vertices": len(mesh.vertices), "mesh_h": mesh.h}
    return results, checks, {"solve_s": solve_s}


def run_linearize_check(cfg, out_dir, log):
    mesh, metric, directions = cfg["mesh"], cfg["metric"], _directions(cfg)
    third_h_eps, eps_sweep = cfg["third_h_eps"], cfg["eps_sweep"]
    combo = lin.EpsilonCombination(mesh, metric, directions,
                                   fwd.SolveOptions(**cfg["solver"]))

    # second linearization: the finite-difference estimate must vanish as the
    # stencil width shrinks, at second order
    t0 = time.perf_counter()
    sups = [float(np.abs(lin.linearization_fd(combo, (0, 1), h)).max())
            for h in eps_sweep]
    second_s = time.perf_counter() - t0
    write_csv(out_dir / "second_linearization.csv", ["h_eps", "sup_norm"],
              zip(eps_sweep, sups))
    slope = _fit_slope(eps_sweep, sups)

    f_sup = max(
        float(np.abs(d(mesh.vertices[:, 0], mesh.vertices[:, 1])).max())
        for d in directions
    )

    # third linearization: independent PDE solve against the FD estimate
    t0 = time.perf_counter()
    v = [fwd.solve_laplace_beltrami(mesh, metric, d) for d in directions]
    w_pde = lin.third_linearization_pde(mesh, metric, *v)
    w_fd = lin.linearization_fd(combo, (0, 1, 2), third_h_eps)
    third_s = time.perf_counter() - t0
    rel_third = float(np.abs(w_pde - w_fd).max() / np.abs(w_pde).max())
    write_csv(out_dir / "third_linearization.csv",
              ["h_eps", "pde_sup", "fd_sup", "rel_error"],
              [(third_h_eps, np.abs(w_pde).max(),
                np.abs(w_fd).max(), rel_third)])

    checks, limit = Assertions(), cfg["assertions"]
    checks.check("second_slope", slope, limit["second_slope_min"], mode="min")
    if limit["second_final_rel_max"] is not None:
        checks.check("second_final_sup", sups[-1],
                     limit["second_final_rel_max"] * f_sup)
    checks.check("third_rel_error", rel_third, limit["third_rel_max"])

    log(f"second-linearization slope {slope:.3f}, final sup {sups[-1]:.3e}; "
        f"third-linearization rel error {rel_third:.3e}")
    results = {
        "second_slope": slope,
        "second_sup_norms": sups,
        "boundary_sup": f_sup,
        "third_rel_error": rel_third,
        "mesh_h": mesh.h,
    }
    return results, checks, {"second_s": second_s, "third_s": third_s}


def run_identity_check(cfg, out_dir, log):
    directions = _directions(cfg)
    options = fwd.SolveOptions(**cfg["solver"])

    def level_report(mesh):
        h_eps = None if cfg["h_eps_factor"] is None else cfg["h_eps_factor"] * mesh.h
        return idn.integral_identity_check(mesh, cfg["metric"], directions,
                                           h_eps=h_eps, options=options)

    # the last level runs first: a sweep runs coarse to fine, and the coarser
    # meshes, built up front for the config checks, are small beside the
    # finest level's solves, whose peak memory is then the sweep's
    t0 = time.perf_counter()
    reports = [level_report(mesh) for mesh in reversed(cfg["levels"])][::-1]
    sweep_s = time.perf_counter() - t0

    hs = [r.h for r in reports]
    write_csv(out_dir / "identity_residuals.csv",
              ["h", "lhs", "rhs", "residual", "relative_residual"],
              [(r.h, r.lhs, r.rhs, r.residual, r.relative_residual)
               for r in reports])
    rels = [r.relative_residual for r in reports]
    order = _fit_slope(hs, rels)

    checks, limit = Assertions(), cfg["assertions"]
    checks.check("final_relative_residual", rels[-1], limit["relative_residual_max"])
    checks.check("order", order, limit["order_min"], mode="min")

    log(f"relative residuals {['%.3e' % r for r in rels]}, "
        f"fitted order {order:.2f}")
    results = {"h": hs, "relative_residuals": rels, "order": order}
    return results, checks, {"sweep_s": sweep_s}


def run_area_pipeline(cfg, out_dir, log):
    mesh = cfg["mesh"]

    t0 = time.perf_counter()
    trace, reference = dn.dn_from_area_data(
        mesh, cfg["metric"], cfg["boundary_data"], t=cfg["area_step"],
        options=fwd.SolveOptions(**cfg["solver"]))
    pipeline_s = time.perf_counter() - t0

    diff = np.abs(trace.values - reference.values)
    rel_sup = float(diff.max() / np.abs(reference.values).max())
    # algebraic round trip between the normalized flux and the DN value
    lam = dn.lambda_from_ng(reference.ng, reference.tangential_sq)
    back = dn.ng_from_lambda(lam, reference.tangential_sq)
    roundtrip = float(np.abs(back - reference.ng).max())

    write_csv(out_dir / "dn_comparison.csv",
              ["arclength", "dn_nonlinear", "dn_from_area", "abs_diff"],
              np.column_stack([reference.bg.arclength, reference.values,
                               trace.values, diff]))

    checks, limit = Assertions(), cfg["assertions"]
    checks.check("relative_sup_error", rel_sup, limit["relative_sup_error_max"])
    checks.check("roundtrip", roundtrip, limit["roundtrip_max"])

    log(f"area-data DN rel sup error {rel_sup:.3e}, "
        f"roundtrip {roundtrip:.3e}")
    results = {"relative_sup_error": rel_sup, "roundtrip": roundtrip,
               "dn_sup": float(np.abs(reference.values).max()), "mesh_h": mesh.h,
               "corrector_solves": trace.corrector_solves}
    return results, checks, {"pipeline_s": pipeline_s}


def run_recover_q(cfg, out_dir, log):
    mesh, metric, point = cfg["mesh"], cfg["metric"], cfg["point"]
    q_fn, taus = cfg["weight"], cfg["tau_sweep"]

    t0 = time.perf_counter()
    result = inv.recover_q_point(mesh, metric, q_fn, point, taus)
    point_s = time.perf_counter() - t0
    truth = float(q_fn(point[0], point[1]))
    # a sweep that was not fitted has no estimate
    q_hat = np.nan if result.q_estimate is None else float(result.q_estimate)
    rows = [(point[0], point[1], truth, q_hat, int(result.reliable))]
    diagnostics = [_diagnostic(result, functional_values=result.functional_values,
                               coefficient=result.coefficient,
                               intercept=result.intercept)]

    field_s = 0.0
    if cfg["field"] is not None:
        t0 = time.perf_counter()
        points = inv.recover_q_field(mesh, metric, q_fn, cfg["field"]["grid"], taus,
                                     probe_margin=cfg["field"]["margin"])
        field_s = time.perf_counter() - t0
        for res in points:
            px, py = res.point
            estimate = np.nan if res.q_estimate is None else float(res.q_estimate)
            rows.append((px, py, float(q_fn(px, py)), estimate,
                         int(res.reliable)))
            diagnostics.append(_diagnostic(res))

    write_csv(out_dir / "recovery.csv",
              ["x", "y", "Q_true", "Q_hat", "reliability"], rows)

    checks, limit = Assertions(), cfg["assertions"]
    checks.require("point_reliable", result.reliable, result.message)
    checks.check("center_error", abs(q_hat - truth),
                 limit["center_error_max"])
    checks.check("fit_residual", result.fit_residual, limit["fit_residual_max"])

    log(f"recovered {q_hat:.5f} at {tuple(point)} "
        f"(truth {truth:.5f}, fit residual {result.fit_residual:.3f})")
    results = {
        "point": list(point),
        "q_truth": truth,
        "q_estimate": q_hat,
        "fit_residual": result.fit_residual,
        "reliable": result.reliable,
        "n_field_points": len(rows) - 1,
        "sweep_diagnostics": diagnostics,
        "mesh_h": mesh.h,
    }
    return results, checks, {"point_s": point_s, "field_s": field_s}


def run_boundary_jet(cfg, out_dir, log):
    mesh, m, n_sweep, profiles = cfg["mesh"], cfg["m"], cfg["n_sweep"], cfg["profiles"]
    alpha = (m * m + 1.0) / (m * m + m + 1.0)

    t0 = time.perf_counter()
    outcomes = [inv.boundary_jet_probe(mesh, cfg["metric"], q, cfg["point"], m, n_sweep)
                for q in profiles]
    sweep_s = time.perf_counter() - t0

    rows = []
    per_profile = []
    checks, limit = Assertions(), cfg["assertions"]
    exponents = []
    for q, res in zip(profiles, outcomes):
        k = _jet_label(q)
        for n_freq, value in zip(n_sweep, res.functional_values):
            rows.append((k, n_freq, abs(value)))
        exponents.append(float(res.exponent))
        per_profile.append({
            "k": k,
            "exponent": res.exponent,
            "expected_exponent": 3.0 - k - alpha,
            "fit_residual": res.fit_residual,
            "reliable": res.reliable,
            "message": res.message,
        })
        checks.require(f"profile_k{k}_reliable", res.reliable, res.message)
        checks.check(f"profile_k{k}_exponent_error",
                     abs(res.exponent - (3.0 - k - alpha)), limit["exponent_tolerance"])
        checks.check(f"profile_k{k}_fit_residual", res.fit_residual,
                     limit["fit_residual_max"])
    if len(exponents) >= 2:
        checks.check("exponent_margin", exponents[0] - exponents[1],
                     limit["margin_min"], mode="min")

    write_csv(out_dir / "jet_sweep.csv", ["k", "n_freq", "functional_abs"],
              rows)

    log("fitted exponents " + ", ".join(f"{e:.3f}" for e in exponents)
        + f" (alpha = {alpha:.4f})")
    results = {
        "alpha": alpha,
        "profiles": per_profile,
        "mesh_h": mesh.h,
    }
    return results, checks, {"sweep_s": sweep_s}


RUNNERS = {
    "forward": run_forward,
    "linearize-check": run_linearize_check,
    "identity-check": run_identity_check,
    "area-pipeline": run_area_pipeline,
    "recover-q": run_recover_q,
    "boundary-jet": run_boundary_jet,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _failed_run(exc):
    """Results and the one failing assertion of a run a solver error ended."""
    checks = Assertions()
    if isinstance(exc, fwd.ConvergenceError):
        checks.require("converged", False, str(exc))
        return {"residual_norms": exc.report.residual_norms}, checks, {}
    if isinstance(exc, dn.GraphFluxError):
        checks.require("graph_flux", False, str(exc))
        return {}, checks, {}
    checks.require("recovery_reliable", False, str(exc))
    return {}, checks, {}


def _versions():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "artifact": __version__,
    }


def run(subcommand, config=None, out=None, verbose=False):
    """Run one experiment subcommand; returns the process exit code.

    ``config`` is a dict of overrides merged onto the subcommand defaults;
    ``out`` overrides the ``output_dir`` config field.  All artifacts
    (manifest.json plus CSVs) land in the output directory.  A config error
    returns 2 before any artifact is written.
    """

    def log(message):
        if verbose:
            print(f"[{subcommand}] {message}")

    start = time.perf_counter()
    try:
        merged, cfg = resolve_config(subcommand, config or {})
        if out is not None:
            merged["output_dir"] = cfg["output_dir"] = str(out)
        _build(cfg)
        out_dir = Path(cfg["output_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        results, checks, timings = RUNNERS[subcommand](cfg, out_dir, log)
    except (ConfigError, inv.ResolutionError) as exc:
        # a probe that cannot be built for this mesh, metric and centre is
        # a config problem too
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (fwd.ConvergenceError, dn.GraphFluxError,
            inv.UnreliableRecoveryError) as exc:
        # a solver that gives up, or a flux no graph realizes, fails the
        # run, which still leaves its manifest
        results, checks, timings = _failed_run(exc)
    timings["total_s"] = time.perf_counter() - start

    for record in checks.records:
        status = "PASS" if record["passed"] else "FAIL"
        if record["mode"] == "bool":
            print(f"{status} {record['name']}: {record['value']}")
        else:
            op = "<=" if record["mode"] == "max" else ">="
            print(f"{status} {record['name']}: {record['value']:.6g} "
                  f"{op} {record['threshold']:.6g}")

    manifest = {
        "subcommand": subcommand,
        "config": _json_safe(merged),
        "versions": _versions(),
        "timings": _json_safe(timings),
        "results": _json_safe(results),
        "assertions": _json_safe(checks.records),
        "passed": checks.passed,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    if not checks.passed:
        failing = [r["name"] for r in checks.records if not r["passed"]]
        print(f"FAILED criteria: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="minsurf",
        description="Run minimal-surface DN-map verification experiments.",
    )
    parser.add_argument("subcommand", choices=sorted(RUNNERS),
                        help="experiment to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config with overrides for the experiment")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: from config)")
    parser.add_argument("--verbose", action="store_true",
                        help="print progress details")
    args = parser.parse_args(argv)

    config = {}
    if args.config is not None:
        try:
            config = json.loads(args.config.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {args.config}: {exc}", file=sys.stderr)
            return 2

    return run(args.subcommand, config, out=args.out, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
