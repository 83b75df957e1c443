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

Boundary data, metric factors and interior weights are drawn from a small
library of named analytic families with numeric parameters rather than a
general expression parser, so a config is a complete, auditable record of an
experiment.
"""

from __future__ import annotations

import argparse
import copy
import importlib.metadata
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

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
# named analytic function library
# ---------------------------------------------------------------------------

def _number(kind, value, key):
    """``kind(value)`` (``int`` or ``float``) for the config value at ``key``.

    A value that is no number, a boolean, or for ``int`` a number with a
    fractional part raises a ConfigError naming the key.
    """
    try:
        if isinstance(value, bool) or (kind is int and not float(value).is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(key, f"expected {expected}, got {value!r}") from None


def _numbers(kind, values, key):
    """:func:`_number` of each entry of the config list at ``key``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(key, f"expected a list, got {values!r}")
    return [_number(kind, v, f"{key}[{i}]") for i, v in enumerate(values)]


def _point(value, key):
    """The config point ``[x, y]`` at ``key`` as a pair of floats."""
    xy = _numbers(float, value, key)
    if len(xy) != 2:
        raise ConfigError(key, f"expected [x, y], got {value!r}")
    return tuple(xy)


def _list(cfg, key):
    """The config list at ``key``; anything else raises a ConfigError naming it."""
    if not isinstance(cfg[key], (list, tuple)):
        raise ConfigError(key, f"expected a list, got {cfg[key]!r}")
    return cfg[key]


def _params(spec, key, allowed):
    extra = set(spec) - set(allowed) - {"name"}
    if extra:
        raise ConfigError(key, f"unknown parameter(s) {sorted(extra)} "
                               f"for family '{spec.get('name')}'")


def named_function(spec, key):
    """Build a vectorized callable ``(x, y) -> values`` from a family spec.

    Families
    --------
    zero
        Identically zero.
    constant : value
        Identically ``value``.
    affine : a0, ax, ay
        ``a0 + ax*x + ay*y``.
    quadratic : c0, cx, cy, cxx, cxy, cyy
        Full quadratic polynomial in (x, y).
    gaussian : amplitude, width, center, offset, k
        ``offset + amplitude * ((y-cy)/width)**k * exp(-|p-center|^2/width^2)``;
        ``k`` (default 0) raises the transverse coordinate to an integer power
        so profiles with a first-order zero across a horizontal line can be
        expressed.
    fourier : cos, sin, offset
        ``offset + sum_k cos[k-1]*cos(k*theta) + sin[k-1]*sin(k*theta)`` with
        ``theta = atan2(y, x)``; natural for circular boundaries.
    catenoid : a
        ``a * arccosh(max(r/a, 1))``, the embedded catenoid height profile.
    """
    if not isinstance(spec, dict):
        raise ConfigError(key, "expected an object with a 'name' field")
    name = spec.get("name")
    if name == "zero":
        _params(spec, key, ())
        return lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    if name == "constant":
        _params(spec, key, ("value",))
        value = _number(float, spec.get("value", 0.0), f"{key}.value")
        return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)
    if name == "affine":
        _params(spec, key, ("a0", "ax", "ay"))
        a0, ax, ay = (_number(float, spec.get(k, 0.0), f"{key}.{k}")
                      for k in ("a0", "ax", "ay"))
        return lambda x, y: (a0 + ax * np.asarray(x, dtype=float)
                             + ay * np.asarray(y, dtype=float))
    if name == "quadratic":
        _params(spec, key, ("c0", "cx", "cy", "cxx", "cxy", "cyy"))
        c = {k: _number(float, spec.get(k, 0.0), f"{key}.{k}")
             for k in ("c0", "cx", "cy", "cxx", "cxy", "cyy")}

        def quadratic(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            return (c["c0"] + c["cx"] * x + c["cy"] * y + c["cxx"] * x * x
                    + c["cxy"] * x * y + c["cyy"] * y * y)

        return quadratic
    if name == "gaussian":
        _params(spec, key, ("amplitude", "width", "center", "offset", "k"))
        amplitude = _number(float, spec.get("amplitude", 1.0), f"{key}.amplitude")
        width = _number(float, spec.get("width", 1.0), f"{key}.width")
        cx, cy = _point(spec.get("center", (0.0, 0.0)), f"{key}.center")
        offset = _number(float, spec.get("offset", 0.0), f"{key}.offset")
        k = _number(int, spec.get("k", 0), f"{key}.k")
        if width <= 0.0:
            raise ConfigError(key, "gaussian width must be positive")
        if k < 0:
            raise ConfigError(key, "gaussian k must be a non-negative integer")

        def gaussian(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            r2 = (x - cx) ** 2 + (y - cy) ** 2
            out = amplitude * np.exp(-r2 / width**2)
            if k:
                out = out * ((y - cy) / width) ** k
            return offset + out

        return gaussian
    if name == "fourier":
        _params(spec, key, ("cos", "sin", "offset"))
        cos = _numbers(float, spec.get("cos", ()), f"{key}.cos")
        sin = _numbers(float, spec.get("sin", ()), f"{key}.sin")
        offset = _number(float, spec.get("offset", 0.0), f"{key}.offset")

        def fourier(x, y):
            theta = np.arctan2(np.asarray(y, dtype=float),
                               np.asarray(x, dtype=float))
            out = np.full_like(theta, offset)
            for k, ck in enumerate(cos, start=1):
                out = out + ck * np.cos(k * theta)
            for k, sk in enumerate(sin, start=1):
                out = out + sk * np.sin(k * theta)
            return out

        return fourier
    if name == "catenoid":
        _params(spec, key, ("a",))
        a = _number(float, spec.get("a", 0.5), f"{key}.a")
        if a <= 0.0:
            raise ConfigError(key, "catenoid neck radius 'a' must be positive")

        def catenoid(x, y):
            r = np.hypot(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            return a * np.arccosh(np.maximum(r / a, 1.0))

        return catenoid
    raise ConfigError(key, f"unknown function family '{name}'")


def build_mesh(spec, key="mesh"):
    """Build a mesh from ``{"kind": "square"|"disc"|"annulus", ...}``."""
    if not isinstance(spec, dict):
        raise ConfigError(key, "expected an object with a 'kind' field")
    kind = spec.get("kind")
    if kind == "square":
        _params(spec, key, ("kind", "n"))
        constructor, args = geo.square, (_number(int, spec.get("n", 32), f"{key}.n"),)
    elif kind == "disc":
        _params(spec, key, ("kind", "n_radial", "n_angular"))
        n_radial = _number(int, spec.get("n_radial", 24), f"{key}.n_radial")
        constructor = geo.disc
        args = (n_radial,
                _number(int, spec.get("n_angular", 6 * n_radial), f"{key}.n_angular"))
    elif kind == "annulus":
        _params(spec, key, ("kind", "r0", "r1", "n_radial", "n_angular"))
        constructor = geo.annulus
        args = (_number(float, spec.get("r0", 0.5), f"{key}.r0"),
                _number(float, spec.get("r1", 1.5), f"{key}.r1"),
                _number(int, spec.get("n_radial", 16), f"{key}.n_radial"),
                _number(int, spec.get("n_angular", 96), f"{key}.n_angular"))
    else:
        raise ConfigError(f"{key}.kind", f"unknown mesh kind '{kind}'")
    try:
        return constructor(*args)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def build_metric(spec, key="metric"):
    """Build a metric from flat / conformal / explicit specs."""
    if not isinstance(spec, dict):
        raise ConfigError(key, "expected an object with a 'kind' field")
    kind = spec.get("kind")
    if kind == "flat":
        _params(spec, key, ("kind",))
        return geo.flat_metric()
    if kind == "conformal":
        _params(spec, key, ("kind", "factor"))
        factor = named_function(spec.get("factor", {}), f"{key}.factor")
        return geo.conformal_metric(geo.flat_metric(), factor)
    if kind == "explicit":
        _params(spec, key, ("kind", "g11", "g12", "g22"))
        g11 = named_function(spec.get("g11", {"name": "constant", "value": 1.0}),
                             f"{key}.g11")
        g12 = named_function(spec.get("g12", {"name": "zero"}), f"{key}.g12")
        g22 = named_function(spec.get("g22", {"name": "constant", "value": 1.0}),
                             f"{key}.g22")
        return geo.explicit_metric(lambda x, y: (g11(x, y), g12(x, y),
                                                 g22(x, y)))
    raise ConfigError(f"{key}.kind", f"unknown metric kind '{kind}'")


def weight_factor(weight_spec, key):
    """Quasilinear coefficient c = 1/(1 - Q) for a named weight Q."""
    q_fn = named_function(weight_spec, key)

    def factor(x, y):
        q = q_fn(x, y)
        if np.any(np.real(q) >= 1.0):
            raise ConfigError(key, "weight must stay below 1 so that "
                                   "c = 1/(1 - Q) is positive")
        return 1.0 / (1.0 - q)

    return q_fn, factor


# ---------------------------------------------------------------------------
# config resolution and artifact writing
# ---------------------------------------------------------------------------

# dict values under these keys are taken wholesale from the user config (no
# recursive merge): partially overriding e.g. a gaussian with a fourier spec
# would otherwise leave stray parameters behind
_REPLACE_KEYS = {
    "mesh", "metric", "boundary_data", "directions", "weight", "profiles",
    "point", "tau_sweep", "n_sweep", "eps_sweep", "levels", "field",
}


def _merge(defaults, user, prefix=""):
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(path, "unknown key")
        if isinstance(defaults[key], dict) and key not in _REPLACE_KEYS:
            if not isinstance(value, dict):
                raise ConfigError(path, "expected an object")
            out[key] = _merge(defaults[key], value, prefix=f"{path}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(subcommand, user_config):
    defaults = copy.deepcopy(DEFAULTS[subcommand])
    if not isinstance(user_config, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return _merge(defaults, user_config)


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


# ---------------------------------------------------------------------------
# subcommand defaults
# ---------------------------------------------------------------------------

_SOLVER_DEFAULTS = {"tol": 1e-12, "max_iter": 30}

DEFAULTS = {
    "forward": {
        "mesh": {"kind": "square", "n": 64},
        "metric": {"kind": "flat"},
        "boundary_data": {"name": "affine", "a0": 0.0, "ax": 0.05, "ay": 0.1},
        "solver": dict(_SOLVER_DEFAULTS),
        "output_dir": "results/forward",
        "assertions": {
            "max_iterations": 25,
            "residual_max": 1e-9,
            "affine_sup_error_max": None,
        },
    },
    "linearize-check": {
        "mesh": {"kind": "disc", "n_radial": 24, "n_angular": 144},
        "metric": {"kind": "flat"},
        "directions": [
            {"name": "fourier", "sin": [1.0]},
            {"name": "fourier", "cos": [0.0, 1.0]},
            {"name": "fourier", "sin": [0.0, 0.0, 1.0]},
        ],
        "amplitude": 0.05,
        "eps_sweep": [0.1, 0.03162277660168379, 0.01],
        "pair": [0, 1],
        "triple": [0, 1, 2],
        "third_h_eps": 0.02,
        "solver": dict(_SOLVER_DEFAULTS),
        "output_dir": "results/linearize-check",
        "assertions": {
            "second_slope_min": 1.8,
            "second_final_rel_max": 1e-4,
            "third_rel_max": 0.05,
        },
    },
    "identity-check": {
        "levels": [[12, 72], [24, 144], [48, 288]],
        "metric": {
            "kind": "conformal",
            "factor": {"name": "gaussian", "offset": 1.0, "amplitude": 0.3,
                       "width": 0.5, "center": [0.3, 0.2]},
        },
        "directions": [
            {"name": "fourier", "sin": [1.0]},
            {"name": "fourier", "cos": [0.0, 1.0]},
            {"name": "fourier", "sin": [0.0, 1.0]},
            {"name": "fourier", "cos": [1.0]},
        ],
        "amplitude": 1.0,
        "h_eps_factor": None,
        "solver": dict(_SOLVER_DEFAULTS),
        "output_dir": "results/identity-check",
        "assertions": {
            "relative_residual_max": 1e-3,
            "order_min": 1.0,
        },
    },
    "area-pipeline": {
        "mesh": {"kind": "disc", "n_radial": 24, "n_angular": 144},
        "metric": {"kind": "flat"},
        "boundary_data": {"name": "fourier", "cos": [0.0, 0.02],
                          "sin": [0.05, 0.015]},
        "area_step": 1e-4,
        "solver": dict(_SOLVER_DEFAULTS),
        "output_dir": "results/area-pipeline",
        "assertions": {
            "relative_sup_error_max": 1e-3,
            "roundtrip_max": 1e-14,
        },
    },
    "recover-q": {
        "mesh": {"kind": "disc", "n_radial": 128, "n_angular": 768},
        "metric": {"kind": "flat"},
        "weight": {"name": "gaussian", "amplitude": 0.1, "width": 0.35,
                   "center": [0.0, 0.0]},
        "mode": "synthetic",
        "point": [0.0, 0.0],
        "tau_sweep": [6.0, 8.0, 10.0],
        "field": None,
        "output_dir": "results/recover-q",
        "assertions": {
            "center_error_max": 0.02,
            "fit_residual_max": 0.2,
        },
    },
    "boundary-jet": {
        "mesh": {"kind": "square", "n": 192},
        "metric": {"kind": "flat"},
        "point": [0.5, 0.0],
        "m": 2,
        "n_sweep": [20.0, 28.0, 40.0, 56.0],
        "profiles": [
            {"name": "gaussian", "amplitude": 0.1, "width": 0.2,
             "center": [0.5, 0.0], "k": 0},
            {"name": "gaussian", "amplitude": 0.1, "width": 0.2,
             "center": [0.5, 0.0], "k": 1},
        ],
        "output_dir": "results/boundary-jet",
        "assertions": {
            "exponent_tolerance": 0.3,
            "margin_min": 0.5,
            "fit_residual_max": 0.2,
        },
    },
}


def _solve_options(cfg):
    return fwd.SolveOptions(
        tol=_number(float, cfg["solver"]["tol"], "solver.tol"),
        max_iter=_number(int, cfg["solver"]["max_iter"], "solver.max_iter"),
    )


def _direction_indices(cfg, key, length, n_directions):
    """The ``length`` indices into ``directions`` that config key ``key`` names."""
    indices = tuple(_numbers(int, cfg[key], key))
    if len(indices) != length:
        raise ConfigError(key, f"expected {length} indices, got {len(indices)}")
    if any(i not in range(n_directions) for i in indices):
        raise ConfigError(key, f"indices {list(indices)} must lie in "
                               f"0..{n_directions - 1}")
    return indices


def _slope_abscissae(xs, key):
    """Check that ``xs``, read from config key ``key``, can carry a slope fit.

    A log-log fit needs two or more distinct positive abscissae; one point
    or a repeated one gives no slope, and a non-positive one no logarithm.
    """
    if len(set(xs)) < 2 or not all(np.isfinite(x) and x > 0.0 for x in xs):
        raise ConfigError(key, f"a slope fit needs two or more distinct positive "
                               f"values, got {list(xs)!r}")


def _fit_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    design = np.column_stack([np.log(xs), np.ones(len(xs))])
    (slope, _), *_ = np.linalg.lstsq(design, np.log(ys), rcond=None)
    return float(slope)


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def run_forward(cfg, out_dir, log):
    mesh = build_mesh(cfg["mesh"])
    metric = build_metric(cfg["metric"])
    f = named_function(cfg["boundary_data"], "boundary_data")
    options = _solve_options(cfg)

    t0 = time.perf_counter()
    u, report = fwd.solve_minimal_surface(mesh, metric, f, options)
    solve_s = time.perf_counter() - t0

    trace = dn._nonlinear_trace(mesh, metric, geo.boundary_values(mesh, f), u.values)
    write_csv(out_dir / "convergence.csv", ["iteration", "residual"],
              list(enumerate(report.residual_norms)))
    write_csv(out_dir / "solution.csv", ["x", "y", "u"],
              np.column_stack([mesh.vertices, u.values]))
    write_csv(out_dir / "dn_trace.csv", ["arclength", "value"],
              np.column_stack([trace.bg.arclength, trace.values]))

    checks = Assertions()
    checks.check("iterations", report.iterations,
                 cfg["assertions"]["max_iterations"])
    checks.check("final_residual", report.final_residual,
                 cfg["assertions"]["residual_max"])
    if cfg["assertions"]["affine_sup_error_max"] is not None:
        if cfg["boundary_data"].get("name") != "affine":
            raise ConfigError("assertions.affine_sup_error_max",
                              "requires boundary_data of family 'affine'")
        exact = f(mesh.vertices[:, 0], mesh.vertices[:, 1])
        checks.check("affine_sup_error", np.abs(u.values - exact).max(),
                     cfg["assertions"]["affine_sup_error_max"])

    log(f"solved in {report.iterations} iterations, "
        f"residual {report.final_residual:.3e}")
    results = {
        "iterations": report.iterations,
        "final_residual": report.final_residual,
        "n_vertices": len(mesh.vertices),
        "mesh_h": mesh.h,
    }
    return results, checks, {"solve_s": solve_s}


def run_linearize_check(cfg, out_dir, log):
    mesh = build_mesh(cfg["mesh"])
    metric = build_metric(cfg["metric"])
    amplitude = _number(float, cfg["amplitude"], "amplitude")
    fns = [named_function(spec, f"directions[{i}]")
           for i, spec in enumerate(_list(cfg, "directions"))]
    directions = [
        (lambda x, y, fn=fn: amplitude * fn(x, y)) for fn in fns
    ]
    if len(directions) < 3:
        raise ConfigError("directions", "need at least 3 boundary directions")
    pair = _direction_indices(cfg, "pair", 2, len(directions))
    triple = _direction_indices(cfg, "triple", 3, len(directions))
    options = _solve_options(cfg)
    third_h_eps = _number(float, cfg["third_h_eps"], "third_h_eps")
    eps_sweep = _numbers(float, cfg["eps_sweep"], "eps_sweep")
    _slope_abscissae(eps_sweep, "eps_sweep")
    combo = lin.EpsilonCombination(mesh, metric, directions, options)

    # second linearization: the finite-difference estimate must vanish as the
    # stencil width shrinks, at second order
    t0 = time.perf_counter()
    sups = [float(np.abs(lin.second_linearization_fd(combo, pair, h)
                         .values).max())
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
    v = [fwd.solve_laplace_beltrami(mesh, metric, directions[j]).values
         for j in triple]
    w_pde = lin.third_linearization_pde(mesh, metric, v[0], v[1], v[2]).values
    w_fd = lin.third_linearization_fd(combo, triple, third_h_eps).values
    third_s = time.perf_counter() - t0
    rel_third = float(np.abs(w_pde - w_fd).max() / np.abs(w_pde).max())
    write_csv(out_dir / "third_linearization.csv",
              ["h_eps", "pde_sup", "fd_sup", "rel_error"],
              [(third_h_eps, np.abs(w_pde).max(),
                np.abs(w_fd).max(), rel_third)])

    checks = Assertions()
    checks.check("second_slope", slope, cfg["assertions"]["second_slope_min"],
                 mode="min")
    if cfg["assertions"]["second_final_rel_max"] is not None:
        checks.check("second_final_sup", sups[-1],
                     cfg["assertions"]["second_final_rel_max"] * f_sup)
    checks.check("third_rel_error", rel_third,
                 cfg["assertions"]["third_rel_max"])

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
    metric = build_metric(cfg["metric"])
    amplitude = _number(float, cfg["amplitude"], "amplitude")
    fns = [named_function(spec, f"directions[{i}]")
           for i, spec in enumerate(_list(cfg, "directions"))]
    directions = [
        (lambda x, y, fn=fn: amplitude * fn(x, y)) for fn in fns
    ]
    if len(directions) != 4:
        raise ConfigError("directions", f"need exactly 4 boundary directions, "
                                        f"got {len(directions)}")
    options = _solve_options(cfg)
    h_eps_factor = cfg["h_eps_factor"]
    if h_eps_factor is not None:
        h_eps_factor = _number(float, h_eps_factor, "h_eps_factor")

    def level_report(i, level):
        key = f"levels[{i}]"
        if not isinstance(level, (list, tuple)) or len(level) != 2:
            raise ConfigError(key, "expected [n_radial, n_angular]")
        mesh = build_mesh({"kind": "disc", "n_radial": level[0],
                           "n_angular": level[1]}, key)
        h_eps = None if h_eps_factor is None else h_eps_factor * mesh.h
        return idn.integral_identity_check(mesh, metric, directions,
                                           h_eps=h_eps, options=options)

    t0 = time.perf_counter()
    reports = [level_report(i, level)
               for i, level in enumerate(_list(cfg, "levels"))]
    sweep_s = time.perf_counter() - t0

    hs = [r.h for r in reports]
    # the mesh sizes are known only once each level is built, and a level's
    # mesh is freed before the next one is built, so they are checked here
    _slope_abscissae(hs, "levels")
    write_csv(out_dir / "identity_residuals.csv",
              ["h", "lhs", "rhs", "residual", "relative_residual"],
              [(r.h, r.lhs, r.rhs, r.residual, r.relative_residual)
               for r in reports])
    rels = [r.relative_residual for r in reports]
    order = _fit_slope(hs, rels)

    checks = Assertions()
    checks.check("final_relative_residual", rels[-1],
                 cfg["assertions"]["relative_residual_max"])
    checks.check("order", order, cfg["assertions"]["order_min"], mode="min")

    log(f"relative residuals {['%.3e' % r for r in rels]}, "
        f"fitted order {order:.2f}")
    results = {
        "h": hs,
        "relative_residuals": rels,
        "order": order,
    }
    return results, checks, {"sweep_s": sweep_s}


def run_area_pipeline(cfg, out_dir, log):
    mesh = build_mesh(cfg["mesh"])
    metric = build_metric(cfg["metric"])
    f = named_function(cfg["boundary_data"], "boundary_data")
    options = _solve_options(cfg)
    area_step = _number(float, cfg["area_step"], "area_step")
    if not (np.isfinite(area_step) and area_step > 0.0):
        raise ConfigError("area_step", f"must be finite and positive, got {area_step!r}")

    t0 = time.perf_counter()
    trace, reference = dn.dn_from_area_data(mesh, metric, f, t=area_step,
                                            options=options)
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

    checks = Assertions()
    checks.check("relative_sup_error", rel_sup,
                 cfg["assertions"]["relative_sup_error_max"])
    checks.check("roundtrip", roundtrip, cfg["assertions"]["roundtrip_max"])

    log(f"area-data DN rel sup error {rel_sup:.3e}, "
        f"roundtrip {roundtrip:.3e}")
    results = {
        "relative_sup_error": rel_sup,
        "roundtrip": roundtrip,
        "dn_sup": float(np.abs(reference.values).max()),
        "mesh_h": mesh.h,
    }
    return results, checks, {"pipeline_s": pipeline_s}


def run_recover_q(cfg, out_dir, log):
    point = _point(cfg["point"], "point")
    field_cfg = cfg["field"]
    if field_cfg is not None:
        if not isinstance(field_cfg, dict):
            raise ConfigError("field", f"expected an object or null, got {field_cfg!r}")
        extra = set(field_cfg) - {"spacing", "margin"}
        if extra:
            raise ConfigError("field", f"unknown parameter(s) {sorted(extra)}")
        spacing = _number(float, field_cfg.get("spacing", 0.2), "field.spacing")
        margin = _number(float, field_cfg.get("margin", 0.3), "field.margin")
        if not (np.isfinite(spacing) and spacing > 0.0):
            raise ConfigError("field.spacing",
                              f"must be finite and positive, got {spacing!r}")
    mesh = build_mesh(cfg["mesh"])
    metric = build_metric(cfg["metric"])
    q_fn, factor = weight_factor(cfg["weight"], "weight")
    taus = _numbers(float, cfg["tau_sweep"], "tau_sweep")
    mode = cfg["mode"]
    if mode not in ("synthetic", "dn"):
        raise ConfigError("mode", "expected 'synthetic' or 'dn'")

    t0 = time.perf_counter()
    result = inv.recover_q_point(mesh, metric, factor, point, taus, mode=mode)
    point_s = time.perf_counter() - t0
    truth = float(q_fn(point[0], point[1]))
    rows = [(point[0], point[1], truth,
             float(result.q_estimate), int(result.reliable))]
    diagnostics = [{
        "point": list(result.point),
        "sweep": list(result.sweep),
        "functional_values": _json_safe(result.functional_values),
        "coefficient": _json_safe(result.coefficient),
        "intercept": _json_safe(result.intercept),
        "fit_residual": result.fit_residual,
        "reliable": result.reliable,
        "message": result.message,
    }]

    field_s = 0.0
    if field_cfg is not None:
        grid = inv.interior_grid(mesh, spacing, margin)
        t0 = time.perf_counter()
        out = inv.recover_q_field(mesh, metric, factor, grid, taus, mode=mode,
                                  probe_margin=margin)
        field_s = time.perf_counter() - t0
        for res in out.points:
            px, py = res.point
            estimate = np.nan if res.q_estimate is None else float(res.q_estimate)
            rows.append((px, py, float(q_fn(px, py)), estimate,
                         int(res.reliable)))
            diagnostics.append({
                "point": [px, py],
                "sweep": list(res.sweep),
                "fit_residual": _json_safe(res.fit_residual),
                "reliable": res.reliable,
                "message": res.message,
            })

    write_csv(out_dir / "recovery.csv",
              ["x", "y", "Q_true", "Q_hat", "reliability"], rows)

    checks = Assertions()
    checks.require("point_reliable", result.reliable, result.message)
    checks.check("center_error", abs(float(result.q_estimate) - truth),
                 cfg["assertions"]["center_error_max"])
    checks.check("fit_residual", result.fit_residual,
                 cfg["assertions"]["fit_residual_max"])

    log(f"recovered {result.q_estimate:.5f} at {point} "
        f"(truth {truth:.5f}, fit residual {result.fit_residual:.3f})")
    results = {
        "point": list(point),
        "q_truth": truth,
        "q_estimate": float(result.q_estimate),
        "fit_residual": result.fit_residual,
        "reliable": result.reliable,
        "n_field_points": len(rows) - 1,
        "sweep_diagnostics": diagnostics,
        "mesh_h": mesh.h,
    }
    return results, checks, {"point_s": point_s, "field_s": field_s}


def run_boundary_jet(cfg, out_dir, log):
    point = _point(cfg["point"], "point")
    profiles = _list(cfg, "profiles")
    mesh = build_mesh(cfg["mesh"])
    metric = build_metric(cfg["metric"])
    m = _number(int, cfg["m"], "m")
    n_sweep = _numbers(float, cfg["n_sweep"], "n_sweep")
    alpha = (m * m + 1.0) / (m * m + m + 1.0)

    def profile_result(spec):
        _q_fn, factor = weight_factor(spec, "profiles[]")
        return inv.boundary_jet_probe(mesh, metric, factor, point, m, n_sweep)

    t0 = time.perf_counter()
    outcomes = [profile_result(spec) for spec in profiles]
    sweep_s = time.perf_counter() - t0

    rows = []
    per_profile = []
    checks = Assertions()
    exponents = []
    for spec, res in zip(profiles, outcomes):
        k = int(spec.get("k", 0))
        for n_freq, value in zip(n_sweep, res.functional_values):
            rows.append((k, n_freq, abs(value)))
        exponents.append(float(res.exponent))
        per_profile.append({
            "k": k,
            "exponent": _json_safe(res.exponent),
            "expected_exponent": 3.0 - k - alpha,
            "fit_residual": _json_safe(res.fit_residual),
            "reliable": res.reliable,
            "message": res.message,
        })
        checks.require(f"profile_k{k}_reliable", res.reliable, res.message)
        checks.check(f"profile_k{k}_exponent_error",
                     abs(res.exponent - (3.0 - k - alpha)),
                     cfg["assertions"]["exponent_tolerance"])
        checks.check(f"profile_k{k}_fit_residual", res.fit_residual,
                     cfg["assertions"]["fit_residual_max"])
    if len(exponents) >= 2:
        checks.check("exponent_margin", exponents[0] - exponents[1],
                     cfg["assertions"]["margin_min"], mode="min")

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
    try:
        artifact = importlib.metadata.version("artifact")
    except importlib.metadata.PackageNotFoundError:
        artifact = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "artifact": artifact,
    }


def run(subcommand, config=None, out=None, verbose=False):
    """Run one experiment subcommand; returns the process exit code.

    ``config`` is a dict of overrides merged onto the subcommand defaults;
    ``out`` overrides the ``output_dir`` config field.  All artifacts
    (manifest.json plus CSVs) land in the output directory.
    """
    cfg = resolve_config(subcommand, config or {})
    # thresholds are converted only after the run; reject a non-number first
    for name, threshold in cfg["assertions"].items():
        if threshold is not None:
            _number(float, threshold, f"assertions.{name}")
    if out is not None:
        cfg["output_dir"] = str(out)

    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    def log(message):
        if verbose:
            print(f"[{subcommand}] {message}")

    start = time.perf_counter()
    try:
        results, checks, timings = RUNNERS[subcommand](cfg, out_dir, log)
    except inv.ResolutionError as exc:
        # the probe cannot be built for this mesh, metric and centre: a
        # config problem, reported like one
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
        "config": _json_safe(cfg),
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
        except FileNotFoundError:
            print(f"config error: file not found: {args.config}",
                  file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"config error: {args.config}: {exc}", file=sys.stderr)
            return 2

    try:
        return run(args.subcommand, config, out=args.out, verbose=args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
