"""Tests for the experiment-runner CLI: configs, artifacts, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import minsurf
import minsurf.cli as cli
import minsurf.forward as fwd
import minsurf.identity as idn
import minsurf.inverse as inv

SMALL_SQUARE = {"kind": "square", "n": 24}
SMALL_LEVELS = [[8, 48], [12, 72], [16, 96]]


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def csv_digests(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.csv"))
    }


def test_forward_zero_boundary_data(tmp_path):
    # zero data solves in the initial linear step: no Newton iterations
    code = cli.run(
        "forward",
        {"mesh": SMALL_SQUARE, "boundary_data": {"name": "zero"}},
        out=tmp_path,
    )
    assert code == 0
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["iterations"] == 0
    assert manifest["results"]["jacobians"] == 0
    assert manifest["results"]["final_residual"] < 1e-12
    assert manifest["passed"] is True


def test_forward_affine_data_is_reproduced_exactly(tmp_path):
    code = cli.run(
        "forward",
        {
            "mesh": {"kind": "square", "n": 32},
            "boundary_data": {"name": "affine", "ax": 0.05, "ay": 0.1},
            "assertions": {"max_iterations": 2, "residual_max": 1e-10,
                           "affine_sup_error_max": 1e-10},
        },
        out=tmp_path,
    )
    assert code == 0
    header = (tmp_path / "convergence.csv").read_text().splitlines()[0]
    assert header == "iteration,residual"
    assert (tmp_path / "solution.csv").exists()
    assert (tmp_path / "dn_trace.csv").read_text().splitlines()[0] == \
        "arclength,value"


def test_identity_check_refinement_sweep(tmp_path):
    code = cli.run(
        "identity-check",
        {
            "levels": SMALL_LEVELS,
            "assertions": {"relative_residual_max": 0.2, "order_min": 1.0},
        },
        out=tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "identity_residuals.csv").read_text().splitlines()
    assert lines[0] == "h,lhs,rhs,residual,relative_residual"
    assert len(lines) == 1 + len(SMALL_LEVELS)
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["order"] >= 1.0
    # residual shrinks under refinement
    rels = manifest["results"]["relative_residuals"]
    assert rels[-1] < rels[0]


def test_linearize_check_reports_noise_floor_and_third_order_match(tmp_path):
    # the solution map is odd in the boundary data, so the symmetric stencil
    # for the second derivative cancels to roundoff at every stencil width;
    # the meaningful checks are the tiny absolute values and the third-order
    # PDE-vs-FD agreement, so the slope criterion is disabled here
    code = cli.run(
        "linearize-check",
        {
            "mesh": {"kind": "disc", "n_radial": 12, "n_angular": 72},
            "assertions": {"second_slope_min": None,
                           "second_final_rel_max": 1e-4,
                           "third_rel_max": 0.05},
        },
        out=tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "second_linearization.csv").read_text().splitlines()
    assert lines[0] == "h_eps,sup_norm"
    sups = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(sups) <= 1e-12  # second derivative vanishes identically
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["third_rel_error"] <= 0.05


def test_linearize_check_default_slope_criterion_fails(tmp_path, capsys):
    # with the default assertions the unattainable slope criterion must fail
    # loudly and name itself
    code = cli.run(
        "linearize-check",
        {"mesh": {"kind": "disc", "n_radial": 12, "n_angular": 72}},
        out=tmp_path,
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "second_slope" in captured.err


def test_area_pipeline_small(tmp_path):
    code = cli.run(
        "area-pipeline",
        {"mesh": {"kind": "disc", "n_radial": 16, "n_angular": 96}},
        out=tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "dn_comparison.csv").read_text().splitlines()
    assert lines[0] == "arclength,dn_nonlinear,dn_from_area,abs_diff"
    assert len(lines) == 1 + 96  # one row per boundary vertex
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["roundtrip"] <= 1e-14


def test_recover_q_zero_control_with_field(tmp_path):
    code = cli.run(
        "recover-q",
        {
            "mesh": {"kind": "disc", "n_radial": 48, "n_angular": 288},
            "weight": {"name": "constant", "value": 0.0},
            "tau_sweep": [3.0, 4.0, 5.0],
            "field": {"spacing": 0.35, "margin": 0.35},
            "assertions": {"center_error_max": 0.002,
                           "fit_residual_max": None},
        },
        out=tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "recovery.csv").read_text().splitlines()
    assert lines[0] == "x,y,Q_true,Q_hat,reliability"
    assert len(lines) >= 3  # the probe point plus at least two grid points
    for line in lines[1:]:
        x, y, q_true, q_hat, flag = line.split(",")
        assert float(q_true) == 0.0
        assert float(q_hat) == 0.0
        assert flag == "1"
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["q_estimate"] == 0.0
    assert manifest["results"]["n_field_points"] == len(lines) - 2


SMALL_DISC = {"kind": "disc", "n_radial": 24, "n_angular": 144}
JET_SQUARE = {"kind": "square", "n": 48}


@pytest.mark.parametrize("subcommand, config", [
    ("recover-q", {"mesh": SMALL_DISC, "tau_sweep": [12.0, 16.0, 20.0]}),
    ("recover-q", {"mesh": SMALL_DISC, "tau_sweep": [1.0, 2.0]}),
    ("recover-q", {"mesh": SMALL_DISC, "tau_sweep": [6.0]}),
    ("recover-q", {"mesh": SMALL_DISC,
                   "metric": {"kind": "explicit",
                              "g12": {"name": "constant", "value": 0.1}}}),
    ("boundary-jet", {"mesh": JET_SQUARE, "m": 0}),
    ("boundary-jet", {"mesh": JET_SQUARE, "n_sweep": [20.0]}),
], ids=["unresolved-tau", "centre-margin", "one-frequency", "not-conformal",
        "jet-order-zero", "one-jet-frequency"])
def test_recover_q_infeasible_sweep_is_a_config_error(tmp_path, capsys,
                                                      subcommand, config):
    code = cli.run(subcommand, config, out=tmp_path)
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_boundary_jet_small(tmp_path):
    code = cli.run(
        "boundary-jet",
        {
            "mesh": {"kind": "square", "n": 96},
            "n_sweep": [10.0, 14.0, 20.0, 28.0],
            "assertions": {"exponent_tolerance": 1.0, "margin_min": 0.3,
                           "fit_residual_max": 0.3},
        },
        out=tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "jet_sweep.csv").read_text().splitlines()
    assert lines[0] == "k,n_freq,functional_abs"
    assert len(lines) == 1 + 2 * 4  # two profiles, four frequencies
    manifest = read_manifest(tmp_path)
    exps = [p["exponent"] for p in manifest["results"]["profiles"]]
    assert exps[0] > exps[1]


def test_csv_outputs_are_byte_identical_across_runs(tmp_path):
    config = {
        "levels": SMALL_LEVELS,
        "assertions": {"relative_residual_max": 0.2, "order_min": 1.0},
    }
    digests = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.run("identity-check", config, out=out) == 0
        digests.append(csv_digests(out))
    assert digests[0] == digests[1]


def test_every_subcommand_default_passes_except_the_known_red(tmp_path):
    # the shipped defaults are the documented experiments: each passes, and
    # linearize-check fails exactly its documented second_slope criterion
    for subcommand in sorted(cli.RUNNERS):
        out = tmp_path / subcommand
        code = cli.run(subcommand, {}, out=out)
        failing = [r["name"] for r in read_manifest(out)["assertions"]
                   if not r["passed"]]
        if subcommand == "linearize-check":
            assert (code, failing) == (1, ["second_slope"])
        else:
            assert (code, failing) == (0, []), subcommand
    # at the shipped area_step every perturbed area passes the decrement
    # test at its tangent prediction, so no hat needs a corrector solve
    assert read_manifest(tmp_path / "area-pipeline")["results"]["corrector_solves"] == 0


def test_newton_failure_leaves_a_manifest(tmp_path, capsys):
    config = {
        "mesh": {"kind": "square", "n": 16},
        "boundary_data": {"name": "quadratic", "cxx": 2.0, "cyy": -2.0},
        "solver": {"max_iter": 1},
    }
    code = cli.main([
        "forward", "--config", _write(tmp_path, json.dumps(config)),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "FAILED criteria: converged" in err
    assert "Traceback" not in err
    manifest = read_manifest(tmp_path / "out")
    assert manifest["passed"] is False
    [record] = manifest["assertions"]
    assert record["name"] == "converged" and not record["passed"]
    assert "Newton did not reach" in record["value"]
    # the initial residual and the one step allowed (measured 0.0436, 0.00654)
    history = manifest["results"]["residual_norms"]
    assert len(history) == 2
    assert history[1] < history[0]
    assert not list((tmp_path / "out").glob("*.csv"))


def test_unreliable_field_recovery_leaves_a_manifest(tmp_path, capsys):
    # a sweep topping out below tau = 3 flags every grid point, so the field
    # recovery as a whole gives up
    code = cli.run(
        "recover-q",
        {
            "mesh": {"kind": "disc", "n_radial": 24, "n_angular": 144},
            "tau_sweep": [2.0, 2.5],
            "field": {"spacing": 0.35, "margin": 0.35},
        },
        out=tmp_path,
    )
    assert code == 1
    assert "FAILED criteria: recovery_reliable" in capsys.readouterr().err
    manifest = read_manifest(tmp_path)
    assert manifest["passed"] is False
    assert [r["name"] for r in manifest["assertions"]] == ["recovery_reliable"]
    assert "no grid point produced a reliable estimate" in \
        manifest["assertions"][0]["value"]


def test_two_point_sweep_fails_point_reliable(tmp_path, capsys):
    # two frequencies fit the affine model exactly: the fit residual is
    # undefined, so the point is unreliable and its gates fail with exit 1
    code = cli.run(
        "recover-q",
        {"mode": "dn3", "mesh": SMALL_DISC, "tau_sweep": [2.0, 3.0]},
        out=tmp_path,
    )
    assert code == 1
    out, err = capsys.readouterr()
    assert "FAIL fit_residual: nan <= 0.2" in out
    assert "point_reliable" in err
    records = {r["name"]: r for r in read_manifest(tmp_path)["assertions"]}
    assert records["point_reliable"]["passed"] is False
    assert "no residual degrees of freedom" in records["point_reliable"]["value"]
    assert records["fit_residual"]["passed"] is False
    assert records["fit_residual"]["value"] is None
    row = (tmp_path / "recovery.csv").read_text().splitlines()[1]
    assert row.endswith(",0")


@pytest.mark.parametrize("override", [
    {"export_solution": False},
    {"export_dn_trace": False},
    {"assertions": {"require_converged": False}},
    {"workers": 1},
])
def test_removed_forward_keys_are_unknown(tmp_path, capsys, override):
    code = cli.main([
        "forward", "--config", _write(tmp_path, json.dumps(override)),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_manifest_reports_the_package_version(tmp_path):
    # from a source checkout no distribution is installed, so the version is
    # the package's own, which must be the one pyproject.toml declares
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert minsurf.__version__ == version
    cli.run("forward", {"mesh": SMALL_SQUARE}, out=tmp_path)
    assert read_manifest(tmp_path)["versions"]["artifact"] == version


def test_manifest_embeds_fully_resolved_config(tmp_path):
    cli.run("forward", {"mesh": SMALL_SQUARE}, out=tmp_path)
    manifest = read_manifest(tmp_path)
    # defaults the user never wrote must appear in the echoed config
    assert manifest["config"]["solver"]["tol"] == 1e-12
    assert manifest["config"]["assertions"]["max_iterations"] == 25
    assert manifest["config"]["mesh"] == {"kind": "square", "n": 24}
    for key in ("python", "numpy", "scipy", "artifact"):
        assert key in manifest["versions"]
    assert manifest["timings"]["total_s"] > 0.0
    assert all("name" in rec and rec["passed"] is True
               for rec in manifest["assertions"])


def test_unknown_config_key_is_named(tmp_path, capsys):
    code = cli.main([
        "forward", "--config", _write(tmp_path, '{"mehs": {"kind": "square"}}'),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "mehs" in capsys.readouterr().err


def test_malformed_config_file_exits_2(tmp_path, capsys):
    code = cli.main([
        "forward", "--config", _write(tmp_path, "{not json"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_function_family_is_named(tmp_path, capsys):
    code = cli.main([
        "forward",
        "--config", _write(tmp_path, '{"boundary_data": {"name": "wavelet"}}'),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "boundary_data" in err and "wavelet" in err


def test_entry_point_runs_as_module(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mesh": SMALL_SQUARE, "boundary_data": {"name": "zero"},
    }), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "minsurf.cli", "forward",
         "--config", str(config), "--out", str(tmp_path / "out"), "--verbose"],
        capture_output=True, text=True,
        # the child imports minsurf from wherever this process found it,
        # including pytest's configured pythonpath
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "manifest.json").exists()
    assert "PASS" in proc.stdout


def test_importing_the_cli_leaves_scipy_spatial_unloaded():
    # only the recovery grid and its nearest-neighbour fill use scipy.spatial;
    # importing it with the CLI would add its import time to every run
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, minsurf.cli; print(sorted(m for m in sys.modules "
         "if m.startswith('scipy.spatial')))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_named_function_library_values():
    affine = cli.named_function({"name": "affine", "a0": 1.0, "ax": 2.0,
                                 "ay": -1.0}, "t")
    assert affine(0.5, 0.25) == pytest.approx(1.75)
    fourier = cli.named_function({"name": "fourier", "cos": [1.0],
                                  "sin": [0.0, 2.0]}, "t")
    theta = 0.7
    assert fourier(np.cos(theta), np.sin(theta)) == pytest.approx(
        np.cos(theta) + 2.0 * np.sin(2 * theta))
    catenoid = cli.named_function({"name": "catenoid", "a": 0.5}, "t")
    assert catenoid(0.5, 0.0) == pytest.approx(0.0)
    assert catenoid(1.0, 0.0) == pytest.approx(0.5 * np.arccosh(2.0))
    gauss = cli.named_function({"name": "gaussian", "amplitude": 2.0,
                                "width": 0.5, "center": [0.0, 0.0],
                                "offset": 1.0, "k": 1}, "t")
    assert gauss(0.0, 0.25) == pytest.approx(1.0 + 2.0 * 0.5 * np.exp(-0.25))
    with pytest.raises(cli.ConfigError, match="unknown parameter"):
        cli.named_function({"name": "affine", "slope": 1.0}, "t")


TINY_SQUARE = {"kind": "square", "n": 8}
TINY_DISC = {"kind": "disc", "n_radial": 6, "n_angular": 36}
SIN = {"name": "fourier", "sin": [1.0]}
NOT_SPD = {"kind": "explicit", "g12": {"name": "constant", "value": 2.0}}
# g11 = 1 - 1.0005 x^2: SPD at every quadrature point of TINY_DISC, whose
# largest |x| there is below 0.98, and not at its boundary vertex (1, 0)
RIM_NOT_SPD = {"kind": "explicit",
               "g11": {"name": "quadratic", "c0": 1.0, "cxx": -1.0005}}
# positive on the meshes below, negative at the point (-3, 0)
NOT_SPD_AT_POINT = {"metric": {"kind": "conformal",
                               "factor": {"name": "affine", "a0": 1.0, "ax": 0.5}},
                    "point": [-3.0, 0.0]}

# ((y - cy) / width)^k overflows to inf or NaN on the boundary of square(8)
# and of the default identity-check discs
NOT_FINITE = {"name": "gaussian", "width": 1e-3, "k": 200}


def _write(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("subcommand, config, key", [
    ("linearize-check", {"pair": [0, 5]}, "pair"),
    ("linearize-check", {"triple": [0, 1, 9]}, "triple"),
    ("identity-check", {"directions": [{"name": "fourier", "sin": [1.0]}]},
     "directions"),
    ("identity-check", {"levels": [[1, 72], [24, 144]]}, "levels[0]"),
    ("forward", {"mesh": {"kind": "square", "n": 0}}, "mesh"),
    ("forward", {"mesh": {"kind": "disc", "n_radial": 1}}, "mesh"),
    ("forward", {"mesh": {"kind": "square", "n": "many"}}, "mesh.n"),
    ("area-pipeline", {"mesh": {"kind": "disc", "n_radial": 6, "n_angular": 36},
                       "area_step": 0}, "area_step"),
    ("forward", {"solver": 5}, "solver"),
    ("forward", {"mesh": {"kind": "square", "n": 2.5}}, "mesh.n"),
    ("forward", {"mesh": {"kind": "square", "n": True}}, "mesh.n"),
    ("forward", {"mesh": {"kind": "square", "n": float("inf")}}, "mesh.n"),
    ("forward", {"mesh": {"kind": "square", "n": "8"}}, "mesh.n"),
    ("forward", {"solver": {"tol": "1e-11"}}, "solver.tol"),
    ("identity-check", {"amplitude": float("nan")}, "amplitude"),
    ("forward", {"boundary_data": {"name": "affine", "ax": float("inf")}},
     "boundary_data.ax"),
    ("linearize-check", {"eps_sweep": [0.1]}, "eps_sweep"),
    ("linearize-check", {"eps_sweep": [0.1, -0.1]}, "eps_sweep"),
    ("identity-check", {"levels": [[12, 72]]}, "levels"),
    ("identity-check", {"levels": 5}, "levels"),
    ("identity-check", {"directions": 5}, "directions"),
    ("boundary-jet", {"profiles": 5}, "profiles"),
    ("recover-q", {"field": 5}, "field"),
    ("recover-q", {"point": [0.0]}, "point"),
    ("boundary-jet", {"point": [0.0]}, "point"),
    ("recover-q", {"field": {"spacing": 0}}, "field.spacing"),
    ("forward", {"mesh": TINY_SQUARE, "metric": NOT_SPD}, "metric"),
    ("area-pipeline", {"mesh": TINY_SQUARE, "metric": NOT_SPD}, "metric"),
    ("linearize-check", {"mesh": TINY_SQUARE, "metric": NOT_SPD}, "metric"),
    ("boundary-jet", {"mesh": TINY_SQUARE, "metric": NOT_SPD}, "metric"),
    ("identity-check", {"metric": {"kind": "conformal",
                                   "factor": {"name": "constant", "value": 0.0}}},
     "metric"),
    ("linearize-check", {"third_h_eps": 0}, "third_h_eps"),
    ("identity-check", {"h_eps_factor": 0}, "h_eps_factor"),
    ("boundary-jet", {"profiles": []}, "profiles"),
    ("boundary-jet", {"profiles": [{"name": "zero"}, {"name": "constant"}]},
     "profiles"),
    ("boundary-jet", {"profiles": [{"name": "zero"}, 5]}, "profiles[1]"),
    ("boundary-jet", {"mesh": TINY_SQUARE, "profiles": [
        {"name": "zero"}, {"name": "gaussian", "offset": 1.0, "k": 1}]}, "profiles[1]"),
    ("recover-q", {"mesh": TINY_DISC, "weight": {"name": "constant", "value": 1.0}},
     "weight"),
    ("identity-check", {"levels": [[8, 48], [8, 48]]}, "levels"),
    ("forward", {"boundary_data": {"name": "zero"},
                 "assertions": {"affine_sup_error_max": 1e-10}},
     "assertions.affine_sup_error_max"),
    ("forward", {"solver": {"tol": -1.0}}, "solver.tol"),
    ("forward", {"output_dir": 5}, "output_dir"),
    ("recover-q", {"mode": "exact"}, "mode"),
    ("recover-q", {"mode": "dn"}, "mode"),
    ("boundary-jet", {"n_sweep": [-1, 2, 3]}, "n_sweep[0]"),
    ("boundary-jet", {"n_sweep": [20, 0, 40]}, "n_sweep[1]"),
    ("linearize-check", {"amplitude": 0}, "amplitude"),
    ("linearize-check", {"mesh": TINY_DISC, "directions": [
        SIN, {"name": "zero"}, SIN]}, "directions[1]"),
    ("forward", {"mesh": {"kind": "disc", "n_radial": 10, "n_angular": 6}}, "mesh"),
    ("forward", {"mesh": TINY_DISC, "metric": RIM_NOT_SPD}, "metric"),
    ("recover-q", {**NOT_SPD_AT_POINT, "tau_sweep": [2.0, 3.0, 4.0],
                   "mesh": {"kind": "disc", "n_radial": 24, "n_angular": 144}},
     "point"),
    ("boundary-jet", {**NOT_SPD_AT_POINT, "n_sweep": [4, 5, 6],
                      "mesh": {"kind": "square", "n": 48}}, "point"),
    ("forward", {"mesh": TINY_SQUARE, "boundary_data": NOT_FINITE}, "boundary_data"),
    ("linearize-check", {"mesh": TINY_SQUARE, "directions": [
        SIN, NOT_FINITE, SIN]}, "directions[1]"),
    ("identity-check", {"directions": [SIN, SIN, NOT_FINITE, SIN]}, "directions[2]"),
    ("identity-check", {"amplitude": 0.0}, "amplitude"),
    ("identity-check", {"directions": [{"name": "zero"}, SIN, SIN, SIN]},
     "directions[0]"),
    ("recover-q", {"mesh": {"kind": "disc", "n_radial": 48, "n_angular": 288},
                   "field": {"margin": -0.5}}, "field.margin"),
], ids=["pair-out-of-range", "triple-out-of-range", "one-direction",
        "level-too-coarse", "square-n-zero", "disc-one-ring", "square-n-many",
        "area-step-zero", "solver-not-an-object", "square-n-fractional",
        "square-n-boolean", "square-n-infinite", "square-n-string", "tol-string",
        "amplitude-nan", "affine-slope-infinite", "one-point-eps-sweep", "negative-eps-sweep",
        "one-level", "levels-not-a-list", "directions-not-a-list",
        "profiles-not-a-list", "field-not-an-object", "recover-point-one-coordinate",
        "jet-point-one-coordinate", "field-spacing-zero", "forward-metric-not-spd",
        "area-metric-not-spd", "linearize-metric-not-spd", "jet-metric-not-spd",
        "identity-conformal-factor-zero", "third-h-eps-zero", "h-eps-factor-zero",
        "no-profiles", "profiles-same-k", "profile-not-an-object",
        "profile-weight-one", "weight-one", "two-equal-levels",
        "affine-error-without-affine-data", "negative-tol", "output-dir-not-a-string",
        "unknown-mode", "retired-dn-mode", "negative-jet-frequency", "zero-jet-frequency",
        "amplitude-zero", "pair-direction-zero", "disc-ring-outside-next",
        "forward-metric-not-spd-on-boundary", "recover-metric-not-spd-at-point",
        "jet-metric-not-spd-at-point", "forward-data-not-finite",
        "linearize-direction-not-finite", "identity-direction-not-finite",
        "identity-amplitude-zero", "identity-direction-zero", "field-margin-negative"])
def test_invalid_config_values_are_config_errors(tmp_path, capsys, subcommand,
                                                 config, key):
    code = cli.main([
        subcommand, "--config", _write(tmp_path, json.dumps(config)),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config key '{key}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["forward", "area-pipeline"])
def test_graph_flux_failure_leaves_a_manifest(tmp_path, capsys, subcommand):
    # data this steep on so coarse a mesh gives a nodal |N_g| >= 1, which no
    # graph normal realizes
    config = {
        "mesh": {"kind": "disc", "n_radial": 6, "n_angular": 36},
        "boundary_data": {"name": "fourier", "cos": [0.0, 3.0]},
    }
    code = cli.main([
        subcommand, "--config", _write(tmp_path, json.dumps(config)),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "FAILED criteria: graph_flux" in err
    assert "Traceback" not in err
    manifest = read_manifest(tmp_path / "out")
    assert manifest["passed"] is False
    [record] = manifest["assertions"]
    assert record["name"] == "graph_flux" and not record["passed"]
    assert "must be < 1" in record["value"]
    assert not list((tmp_path / "out").glob("*.csv"))


def test_area_pipeline_solves_the_base_problem_once(tmp_path, counting):
    solves = counting(fwd, "solve_minimal_surface")
    code = cli.run(
        "area-pipeline",
        {"mesh": {"kind": "disc", "n_radial": 12, "n_angular": 48}},
        out=tmp_path,
    )
    assert code == 0

    def cold(args, kwargs):
        options = args[3] if len(args) > 3 else kwargs.get("options")
        return options is None or options.initial_guess is None

    assert sum(cold(*call) for call in solves) == 1


@pytest.mark.parametrize("subcommand, factorizations", [
    ("linearize-check", 1), ("area-pipeline", 2),
])
def test_default_run_factorizations(tmp_path, counting, subcommand, factorizations):
    # cold solves take chord steps on the owner's K[I, I] factor: the
    # linearize-check stencil solves factor nothing else, and area-pipeline
    # adds only the warm-start factor of J(u0) for its tangent and
    # decrement solves
    factors = counting(spla, "splu")
    cli.run(subcommand, {}, out=tmp_path)
    assert len(factors) == factorizations


@pytest.mark.parametrize("subcommand, config, module, name", [
    ("identity-check", {"levels": [[48, 288]]}, idn, "integral_identity_check"),
    ("identity-check", {"levels": [[48, 288], [48, 288]]}, idn,
     "integral_identity_check"),
    ("recover-q", {"weight": {"name": "gaussian", "amplitude": 1.5, "width": 0.35}},
     inv, "make_interior_probe"),
    ("linearize-check", {"amplitude": 0}, fwd, "solve_minimal_surface"),
    ("linearize-check", {"directions": [{"name": "zero"}] * 3}, fwd,
     "solve_minimal_surface"),
    ("linearize-check", {"directions": [SIN, SIN, {"name": "zero"}], "pair": [0, 1]},
     fwd, "solve_minimal_surface"),
], ids=["one-level", "two-equal-levels", "weight-above-one", "amplitude-zero",
        "all-directions-zero", "triple-direction-zero"])
def test_mesh_dependent_config_errors_precede_the_first_solve(
        tmp_path, capsys, counting, subcommand, config, module, name):
    calls = counting(module, name)
    assert cli.run(subcommand, config, out=tmp_path) == 2
    assert "config error" in capsys.readouterr().err
    assert calls == []


def _schema_key_paths():
    """Each key path the schema declares, with the docs section that lists it."""
    for subcommand, schema in cli.SCHEMAS.items():
        for name, (_, rule) in schema.of.items():
            yield subcommand, name
            rule = rule.of if isinstance(rule, cli.Maybe) else rule
            if isinstance(rule, cli.Params):
                for sub in rule.of:
                    yield subcommand, f"{name}.{sub}"
    for spec in (cli.MESH, cli.METRIC, cli.FUNCTION):
        for variant, (_, table) in spec.of.items():
            yield "Config basics", variant
            for param in table:
                yield "Config basics", f"{variant}.{param}"


def _documented_key_paths():
    """The first cells of the ``| key | ...`` tables in docs/experiments.md."""
    docs = Path(__file__).resolve().parents[1] / "docs" / "experiments.md"
    section, header, paths = None, None, set()
    for line in docs.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            section = line[3:].strip("` ")
        if not line.startswith("|"):
            header = None
        elif header is None:
            header = line
        elif header.startswith("| key |") and not line.startswith("|--"):
            paths.update((section, key) for key in re.findall(r"`([^`]+)`",
                                                               line.split("|")[1]))
    return paths


def test_docs_tables_list_every_config_key():
    declared = set(_schema_key_paths())
    documented = _documented_key_paths()
    assert sorted(declared - documented) == []
    assert sorted(documented - declared) == []
