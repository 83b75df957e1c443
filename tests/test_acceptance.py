"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single ``[PASS]``/``[FAIL]``
line with the measured quantities before asserting at the stated tolerance.

Criterion 3 checks that the second linearization vanishes at every stencil
width, not only at the smallest.  The discrete solution map is exactly odd in
the boundary data, so the four stencil solves come in bit-for-bit negated
pairs and the mixed second difference cancels to the rounding of its own
summation.  That floor is checked per vertex against machine epsilon times the
stencil values.  No h-power can be fitted to the estimate: the O(h^2) error
term of the centered stencil is the fourth derivative, which is even and so
also zero, and the rounding floor scales like eps/h because the stencil values
scale like h.  See README for the full discussion.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

import minsurf.cli as cli
import minsurf.dnmap as dn
import minsurf.forward as fwd
import minsurf.geometry as geo
import minsurf.identity as idn
import minsurf.inverse as inv
import minsurf.linearize as lin
from test_dnmap import area_first_variation

FLAT = geo.flat_metric()

CURVED = lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)

DIRS = [
    lambda x, y: x,
    lambda x, y: y,
    lambda x, y: x * y,
    lambda x, y: x * x - y * y,
]


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] acceptance {criterion}: {detail}")


def interior_bump(x, y, r0=0.7):
    r2 = (np.asarray(x) ** 2 + np.asarray(y) ** 2) / (r0 * r0)
    out = np.zeros_like(np.asarray(r2, dtype=float))
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def test_01_forward_affine_exactness():
    start = time.perf_counter()
    mesh = geo.square(64)
    f = lambda x, y: 0.05 * (x + 2.0 * y)
    u, rep = fwd.solve_minimal_surface(mesh, FLAT, f)
    err = np.abs(u - f(mesh.vertices[:, 0], mesh.vertices[:, 1])).max()
    elapsed = time.perf_counter() - start
    ok = rep.iterations <= 2 and err <= 1e-10 and elapsed < 1.0
    report("01 forward-affine", ok,
           f"{rep.iterations} Newton iterations, sup error {err:.2e}, "
           f"{elapsed:.2f} s")
    assert rep.iterations <= 2
    assert err <= 1e-10
    assert elapsed < 1.0


def test_02_forward_catenoid_accuracy():
    start = time.perf_counter()
    a, r0, r1 = 0.5, 0.55, 1.5
    exact = lambda r: a * np.arccosh(r / a)
    levels = [(24, 48), (48, 96), (96, 192)]
    errs, hs = [], []
    for n_r, n_a in levels:
        mesh = geo.annulus(r0, r1, n_r, n_a)
        u, rep = fwd.solve_minimal_surface(
            mesh, FLAT, lambda x, y: exact(np.hypot(x, y)))
        assert rep.final_residual <= 1e-10
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        errs.append(np.abs(u - exact(r)).max())
        hs.append(mesh.h)
    n_fine = (levels[-1][0] + 1) * levels[-1][1]
    rel = errs[-1] / exact(r1)
    design = np.column_stack([np.log(hs), np.ones(3)])
    (order, _), *_ = np.linalg.lstsq(design, np.log(errs), rcond=None)
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-3 and order >= 1.8 and elapsed < 30.0
    report("02 forward-catenoid", ok,
           f"rel Linf {rel:.2e} at {n_fine} vertices, order {order:.2f}, "
           f"{elapsed:.1f} s")
    assert rel <= 1e-3
    assert order >= 1.8
    assert elapsed < 30.0


def test_03_second_linearization_vanishes():
    mesh = geo.disc(16, 96)
    theta = lambda x, y: np.arctan2(y, x)
    f = lambda x, y: np.sin(theta(x, y))
    g = lambda x, y: np.cos(2.0 * theta(x, y))
    combo = lin.EpsilonCombination(mesh, FLAT, [f, g])
    sweep = [1e-1, 10.0**-1.5, 1e-2]
    eps = np.finfo(float).eps
    sups, odd, ratios = [], [], []
    for h in sweep:
        w2 = lin.linearization_fd(combo, (0, 1), h)
        sups.append(float(np.abs(w2).max()))
        # the combination solves u(++) and u(+-) and serves u(--) and u(-+)
        # by negation, so each of the four points is checked against a
        # direct solve at its own data, which never touches that cache
        u_pp, u_pm = combo.solve([h, h]), combo.solve([h, -h])
        odd.append(all(
            np.array_equal(combo.solve(e), fwd.solve_minimal_surface(
                mesh, FLAT, combo.boundary_data(e))[0])
            for e in ([h, h], [h, -h], [-h, h], [-h, -h])))
        # the stencil sum ((a - b) + b) - a rounds to at most about
        # 1.5 eps max(|a|, |b|) per vertex; the ratio to eps max(|a|, |b|)
        # measures 1.00 at all three widths
        num = np.abs(w2) * 4.0 * h * h
        scale = eps * np.maximum(np.abs(u_pp), np.abs(u_pm))
        ratios.append(float(np.max(num / scale)))
    f_sup = max(
        float(np.abs(d(mesh.vertices[:, 0], mesh.vertices[:, 1])).max())
        for d in (f, g))
    small_ok = sups[-1] <= 1e-4 * f_sup
    odd_ok = all(odd)
    floor_ok = bool(np.max(ratios) <= 4.0)
    report("03 second-linearization", small_ok and odd_ok and floor_ok,
           f"sup values {[f'{s:.1e}' for s in sups]} (bound {1e-4 * f_sup:.1e}"
           f" holds: {small_ok}), stencil solves odd bit for bit: {odd}, "
           f"worst floor ratio per width {[f'{r:.2f}' for r in ratios]}"
           f" (needs <= 4)")
    assert small_ok
    # No h-power is asserted: the stencil's O(h^2) error term is the fourth
    # derivative, which is even and so zero too, and the rounding left over
    # grows like eps/h since the stencil values scale like h.
    assert odd_ok, f"stencil solves not odd bit for bit at widths {sweep}: {odd}"
    assert floor_ok, (
        f"second difference above the rounding floor 4 eps max(|u++|, |u+-|):"
        f" worst ratios {', '.join(f'{r:.2e}' for r in ratios)}"
    )


def test_04_third_linearization_cross_check():
    mesh = geo.disc(16, 96)
    combo = lin.EpsilonCombination(mesh, FLAT, DIRS)
    rels = []
    for triple in [(0, 1, 2), (0, 2, 3), (1, 2, 3)]:
        vs = [fwd.solve_laplace_beltrami(mesh, FLAT, DIRS[j]) for j in triple]
        w_pde = lin.third_linearization_pde(mesh, FLAT, *vs)
        w_fd = lin.linearization_fd(combo, triple, 0.02)
        rels.append(float(np.abs(w_pde - w_fd).max() / np.abs(w_pde).max()))
    # exact argument symmetry of the assembled source/solve
    vs = [fwd.solve_laplace_beltrami(mesh, FLAT, DIRS[j]) for j in (0, 1, 2)]
    w_a = lin.third_linearization_pde(mesh, FLAT, vs[0], vs[1], vs[2])
    w_b = lin.third_linearization_pde(mesh, FLAT, vs[2], vs[0], vs[1])
    sym = float(np.abs(w_a - w_b).max())
    ok = max(rels) <= 0.05 and sym <= 1e-12
    report("04 third-linearization", ok,
           f"PDE-vs-FD rel errors {[f'{r:.1e}' for r in rels]}, "
           f"permuted-argument difference {sym:.1e}")
    assert max(rels) <= 0.05
    assert sym <= 1e-12


def test_05_integral_identity_refinement():
    start = time.perf_counter()
    levels = [(16, 96), (32, 192), (64, 384)]
    reports = [idn.integral_identity_check(geo.disc(n_r, n_a), CURVED, DIRS)
               for n_r, n_a in levels]
    rels = [r.relative_residual for r in reports]
    hs = [r.h for r in reports]
    design = np.column_stack([np.log(hs), np.ones(3)])
    (order, _), *_ = np.linalg.lstsq(design, np.log(rels), rcond=None)
    elapsed = time.perf_counter() - start
    ok = rels[-1] <= 1e-3 and order >= 1.0 and elapsed < 300.0
    report("05 integral-identity", ok,
           f"relative residuals {[f'{r:.1e}' for r in rels]}, "
           f"order {order:.2f}, {elapsed:.0f} s")
    assert rels[-1] <= 1e-3
    assert order >= 1.0
    assert elapsed < 300.0


def test_06_linear_dn_conformal_invariance():
    mesh = geo.disc(24, 144)
    factor = lambda x, y: 1.0 + 0.2 * interior_bump(x, y)
    cg = geo.conformal_metric(FLAT, factor)
    f = lambda x, y: np.sin(np.arctan2(y, x)) + 0.3 * np.cos(
        2.0 * np.arctan2(y, x))
    tr_flat = dn.dn_linear(mesh, FLAT, f)
    tr_cg = dn.dn_linear(mesh, cg, f)
    diff = float(np.abs(tr_flat.values - tr_cg.values).max())
    ok = diff <= 1e-10
    report("06 dn-conformal-invariance", ok, f"sup difference {diff:.2e}")
    assert diff <= 1e-10


def test_07_area_pipeline_reproduces_dn():
    mesh = geo.disc(24, 144)
    theta = lambda x, y: np.arctan2(y, x)
    f = lambda x, y: 0.05 * (np.sin(theta(x, y))
                             + 0.3 * np.cos(2.0 * theta(x, y))
                             + 0.2 * np.sin(3.0 * theta(x, y)))
    reference = dn.dn_nonlinear(mesh, FLAT, f)
    trace, _ = dn.dn_from_area_data(mesh, FLAT, f, t=1e-4)
    rel = float(np.abs(trace.values - reference.values).max()
                / np.abs(reference.values).max())
    lam = dn.lambda_from_ng(reference.ng, reference.tangential_sq)
    back = dn.ng_from_lambda(lam, reference.tangential_sq)
    roundtrip = float(np.abs(back - reference.ng).max())
    ok = rel <= 1e-3 and roundtrip <= 1e-14
    report("07 area-pipeline", ok,
           f"rel sup error {rel:.2e}, inversion roundtrip {roundtrip:.2e}")
    assert rel <= 1e-3
    assert roundtrip <= 1e-14


def test_08_first_variation_criticality():
    mesh = geo.disc(24, 144)
    tol = 1e-12
    f = lambda x, y: 0.3 * (x * x - y * y)
    u, rep = fwd.solve_minimal_surface(mesh, FLAT, f,
                                       fwd.SolveOptions(tol=tol))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        v = np.zeros(mesh.n_vertices)
        v[mesh.interior_vertices] = rng.standard_normal(
            len(mesh.interior_vertices))
        val = abs(area_first_variation(mesh, FLAT, u, v))
        worst = max(worst, val / np.linalg.norm(v))
    ok = worst <= 10.0 * tol
    report("08 first-variation", ok,
           f"max |dA(u)[v]|/|v| = {worst:.2e} (bound {10.0 * tol:.0e})")
    assert worst <= 10.0 * tol


def test_09_interior_weight_recovery():
    start = time.perf_counter()
    mesh = geo.disc(128, 768)
    amp = 0.1
    weight = lambda x, y: amp * np.exp(
        -(np.asarray(x) ** 2 + np.asarray(y) ** 2) / 0.35**2)
    sweep = [6.0, 8.0, 10.0]
    result = inv.recover_q_point(mesh, FLAT, weight, (0.0, 0.0), sweep)
    zero = inv.recover_q_point(
        mesh, FLAT, lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        (0.0, 0.0), sweep)
    elapsed = time.perf_counter() - start
    err = abs(result.q_estimate - amp)
    linear_dominance = abs(result.intercept) / (abs(result.coefficient)
                                                * max(sweep))
    ok = (err <= 0.2 * amp and abs(zero.q_estimate) <= 0.02 * amp
          and result.reliable and result.fit_residual <= 0.2
          and linear_dominance <= 0.3 and elapsed < 120.0)
    report("09 interior-recovery", ok,
           f"estimate {result.q_estimate:.4f} vs {amp} (err {err / amp:.1%}), "
           f"zero control {abs(zero.q_estimate):.1e}, fit residual "
           f"{result.fit_residual:.3f}, intercept/(slope*tau_max) "
           f"{linear_dominance:.2f}, {elapsed:.0f} s")
    assert err <= 0.2 * amp
    assert abs(zero.q_estimate) <= 0.02 * amp
    assert result.reliable and result.fit_residual <= 0.2
    assert linear_dominance <= 0.3
    assert elapsed < 120.0


def test_10_boundary_jet_exponents():
    mesh = geo.square(192)
    alpha = 5.0 / 7.0
    point = (0.5, 0.0)
    width = 0.2

    def weight(k):
        def q(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            out = 0.1 * np.exp(-(((x - 0.5) ** 2 + y**2)) / width**2)
            if k == 1:
                out = out * (y / width)
            return out
        return q

    sweep = [20.0, 28.0, 40.0, 56.0]
    res = [inv.boundary_jet_probe(mesh, FLAT, weight(k), point, 2, sweep) for k in (0, 1)]
    errs = [abs(res[k].exponent - (3.0 - k - alpha)) for k in (0, 1)]
    margin = res[0].exponent - res[1].exponent
    ok = max(errs) <= 0.3 and margin >= 0.5
    report("10 boundary-jet", ok,
           f"exponents {res[0].exponent:.3f}/{res[1].exponent:.3f} "
           f"(targets {3.0 - alpha:.3f}/{2.0 - alpha:.3f}), margin "
           f"{margin:.2f}")
    assert errs[0] <= 0.3
    assert errs[1] <= 0.3
    assert margin >= 0.5


DETERMINISM_CONFIGS = {
    "forward": {"mesh": {"kind": "square", "n": 24}},
    "linearize-check": {
        "mesh": {"kind": "disc", "n_radial": 12, "n_angular": 72},
    },
    "identity-check": {
        "levels": [[8, 48], [12, 72]],
        "assertions": {"relative_residual_max": 0.2, "order_min": 1.0},
    },
    "area-pipeline": {"mesh": {"kind": "disc", "n_radial": 16, "n_angular": 96}},
    "recover-q": {
        "mesh": {"kind": "disc", "n_radial": 48, "n_angular": 288},
        "tau_sweep": [3.0, 4.0, 5.0],
        "assertions": {"center_error_max": 0.05, "fit_residual_max": 0.3},
    },
    "boundary-jet": {
        "mesh": {"kind": "square", "n": 96},
        "n_sweep": [10.0, 14.0, 20.0, 28.0],
        "assertions": {"exponent_tolerance": 1.0, "margin_min": 0.3,
                       "fit_residual_max": 0.3},
    },
}


def test_11_subcommand_determinism(tmp_path):
    mismatched = []
    for sub, config in DETERMINISM_CONFIGS.items():
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}-{tag}"
            cli.run(sub, config, out=out)
            digests.append({
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out).glob("*.csv"))
            })
            assert digests[-1], f"{sub} wrote no CSV files"
        if digests[0] != digests[1]:
            mismatched.append(sub)
    ok = not mismatched
    report("11 determinism", ok,
           f"{len(DETERMINISM_CONFIGS)} subcommands, repeated runs "
           + ("byte-identical" if ok else f"MISMATCH in {mismatched}"))
    assert not mismatched
