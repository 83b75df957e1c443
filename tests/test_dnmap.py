"""Tests for DN traces, the algebraic inversion, and the DN map from areas."""

import numpy as np
import pytest
from scipy.integrate import quad

from minsurf import geometry as geo
from minsurf import forward as fwd
from minsurf import dnmap as dn
from minsurf import linearize as lin

from test_kernels import p1_gradients, pair_at_quadrature

FLAT = geo.flat_metric()
CURVED = geo.explicit_metric(
    lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)
)
CONFORMAL = geo.conformal_metric(CURVED, lambda x, y: 1.0 + 0.5 * x * x + 0.2 * y)
CAT_A = 0.5
CAT_R0, CAT_R1 = 1.1 * CAT_A, 3.0 * CAT_A


def catenoid(x, y):
    return CAT_A * np.arccosh(np.hypot(x, y) / CAT_A)


def riemannian_gradient(mesh, metric, field):
    """Riemannian gradient g^{-1} grad(u) per triangle (metric at centroids)."""
    grad = p1_gradients(mesh, geo.nodal_values(mesh, field))
    x, y = mesh.vertices[mesh.triangles].mean(axis=1).T
    g11, g12, g22 = geo._metric_entries(metric, x, y)
    det = g11 * g22 - g12**2
    gx = (g22 * grad[:, 0] - g12 * grad[:, 1]) / det
    gy = (-g12 * grad[:, 0] + g11 * grad[:, 1]) / det
    return np.column_stack([gx, gy])


def graph_area(mesh, metric, u):
    """Graph area sum w s, from the slope factor of the residual evaluation at u."""
    s = fwd.mse_residual(mesh, metric, u, with_slope=True)[1]
    return float((geo.discretization(mesh, metric).weights * s).sum())


def area_first_variation(mesh, metric, u, v):
    """Directional derivative of the area at u in the nodal direction v.

    Equals v . r(u) with the residual vector r exactly (the quadrature
    rules coincide); evaluated here by direct quadrature.
    """
    d = geo.discretization(mesh, metric)
    gu = p1_gradients(mesh, geo.nodal_values(mesh, u))
    gv = p1_gradients(mesh, geo.nodal_values(mesh, v))
    slope_sq = pair_at_quadrature(mesh, d.mq, gu, gu)
    integrand = pair_at_quadrature(mesh, d.mq, gu, gv) / np.sqrt(1.0 + slope_sq)
    return float((d.weights * integrand).sum())


def test_riemannian_gradient_raises_index():
    m = geo.square(5)
    u = m.vertices[:, 0]  # u = x
    g = geo.explicit_metric(
        lambda x, y: (np.full_like(x, 4.0), np.zeros_like(x), np.full_like(x, 2.0))
    )
    grad = riemannian_gradient(m, g, u)
    np.testing.assert_allclose(grad[:, 0], 0.25, atol=1e-14)
    np.testing.assert_allclose(grad[:, 1], 0.0, atol=1e-14)


def ng_map(mesh, metric, u):
    """Pointwise N_g trace of a solution field by gradient recovery.

    Averages the Riemannian gradients of the triangles around each
    boundary vertex (area-weighted) and evaluates
    g(nu, grad u)/sqrt(1+|grad_g u|^2) with the metric at the vertex.
    First-order accurate; an independent cross-check of the
    superconvergent weak-flux route used by ``dn_nonlinear``.
    """
    bg = geo.discretization(mesh, metric).boundary
    grads = riemannian_gradient(mesh, metric, u)  # per-triangle, g^{-1} grad
    acc = np.zeros((mesh.n_vertices, 2))
    wsum = np.zeros(mesh.n_vertices)
    for c in range(3):
        np.add.at(acc, mesh.triangles[:, c], grads * mesh.tri_areas[:, None])
        np.add.at(wsum, mesh.triangles[:, c], mesh.tri_areas)
    recovered = acc / wsum[:, None]

    idx = mesh.boundary_vertices
    p = mesh.vertices[idx]
    g11, g12, g22 = geo._metric_entries(metric, p[:, 0], p[:, 1])
    gv = recovered[idx]

    def form(a, b):
        return (
            g11 * a[:, 0] * b[:, 0]
            + g12 * (a[:, 0] * b[:, 1] + a[:, 1] * b[:, 0])
            + g22 * a[:, 1] * b[:, 1]
        )

    normal_part = form(bg.normal, gv)
    slope_sq = form(gv, gv)
    return normal_part / np.sqrt(1.0 + slope_sq)


@pytest.fixture(scope="module")
def catenoid_solution():
    mesh = geo.annulus(CAT_R0, CAT_R1, 32, 64)
    u, rep = fwd.solve_minimal_surface(mesh, FLAT, catenoid)
    assert rep.final_residual <= 1e-10
    return mesh, u


def test_catenoid_traces_match_closed_values(catenoid_solution):
    # For the catenoid, r u'/sqrt(1+u'^2) = a gives N_g = a/r on each circle
    # (sign from the outward normal) and Lambda = a/sqrt(r^2 - a^2).
    mesh, u = catenoid_solution
    tr = dn.dn_nonlinear(mesh, FLAT, catenoid)
    sl_out, sl_in = tr.bg.loop_slices
    assert np.abs(tr.ng[sl_out] - CAT_A / CAT_R1).max() < 1e-3
    assert np.abs(tr.ng[sl_in] + CAT_A / CAT_R0).max() < 3e-3
    lam_out = CAT_A / np.sqrt(CAT_R1**2 - CAT_A**2)
    lam_in = -CAT_A / np.sqrt(CAT_R0**2 - CAT_A**2)
    assert np.abs(tr.values[sl_out] - lam_out).max() < 1.5e-3
    # the inversion amplifies near |N| ~ 0.91, so the inner tolerance is looser
    assert np.abs(tr.values[sl_in] - lam_in).max() < 3e-2


def test_pointwise_ng_consistent_with_weak_flux(catenoid_solution):
    mesh, u = catenoid_solution
    tr = dn.dn_nonlinear(mesh, FLAT, catenoid)
    ngp = ng_map(mesh, FLAT, u)
    # gradient recovery is first-order (one-sided at the steep inner rim);
    # the weak flux is second-order
    assert np.abs(ngp - tr.ng).max() < 5e-2
    assert np.abs(ngp - tr.ng).mean() < 2e-2


def test_lambda_ng_roundtrip_and_validation():
    rng = np.random.default_rng(3)
    lam = rng.standard_normal(40) * 2.0
    tq = rng.random(40)
    ng = dn.ng_from_lambda(lam, tq)
    assert np.abs(ng).max() < 1.0
    np.testing.assert_allclose(dn.lambda_from_ng(ng, tq), lam, atol=1e-12)
    with pytest.raises(ValueError, match="must be < 1"):
        dn.lambda_from_ng(np.array([0.2, 1.0]), np.zeros(2))


def test_linear_dn_self_adjoint_and_accurate():
    d = geo.disc(16, 96)
    f1 = geo.boundary_values(d, lambda x, y: x * x - y * y)
    f2 = geo.boundary_values(d, lambda x, y: x * y)
    t1 = dn.dn_linear(d, FLAT, f1)
    t2 = dn.dn_linear(d, FLAT, f2)
    # weak self-adjointness is exact (symmetry of K)
    assert abs(t1.flux @ f2 - t2.flux @ f1) < 1e-12
    # nodal accuracy: Lambda_0(Re z^2) = 2 Re z^2 on the unit circle
    p = d.vertices[d.boundary_vertices]
    th = np.arctan2(p[:, 1], p[:, 0])
    assert np.abs(t1.values - 2 * np.cos(2 * th)).max() < 8e-3


def test_linear_dn_weak_flux_on_an_all_boundary_mesh():
    # with no interior vertices the extension is the data itself, so the
    # weak flux is K u with u = fb placed at the boundary vertices
    m = geo.annulus(0.5, 1.5, 1, 8)
    fb = np.sin(np.arange(float(m.n_vertices)))
    u = np.zeros(m.n_vertices)
    u[m.boundary_vertices] = fb
    K = geo.discretization(m, FLAT).stiffness
    flux = dn.dn_linear(m, FLAT, fb).flux
    assert np.array_equal(flux, (K @ u)[m.boundary_vertices])


def test_linear_dn_nodal_values_second_order():
    errs = []
    for nr, na in ((16, 96), (32, 192)):
        d = geo.disc(nr, na)
        tr = dn.dn_linear(d, FLAT, lambda x, y: x * x - y * y)
        p = d.vertices[d.boundary_vertices]
        th = np.arctan2(p[:, 1], p[:, 0])
        errs.append(np.abs(tr.values - 2 * np.cos(2 * th)).max())
    assert errs[0] / errs[1] > 3.0


def _pulled_back_flat(x, y):
    """psi^* of the flat metric, psi(x) = x + 0.35 (1 - r^2)(a + (-y, x) / 2).

    With a = (0.3, -0.2), psi fixes the unit circle pointwise and
    det D psi >= 0.748 on the unit disc.
    """
    c, (ax, ay) = 0.35, (0.3, -0.2)
    b = 1.0 - x * x - y * y
    vx, vy = ax - 0.5 * y, ay + 0.5 * x
    p11, p12 = 1.0 - 2.0 * c * vx * x, c * (-0.5 * b - 2.0 * vx * y)
    p21, p22 = c * (0.5 * b - 2.0 * vy * x), 1.0 - 2.0 * c * vy * y
    return p11 * p11 + p21 * p21, p11 * p12 + p21 * p22, p12 * p12 + p22 * p22


def test_nonlinear_dn_weak_form_cannot_see_a_boundary_fixing_diffeomorphism():
    # the gauge of the inverse problem: Lambda_{psi^* g} = Lambda_g when psi
    # fixes the boundary, so the discrete weak forms agree at second order
    # (the nodal values only at first order on such a chart)
    pulled = geo.explicit_metric(_pulled_back_flat)
    f = lambda x, y: 0.4 * (x * x - y * y) + 0.25 * x * y + 0.15 * y
    options = fwd.SolveOptions(tol=1e-12)
    diffs = []
    for n in (12, 24, 48):
        d = geo.disc(n, 6 * n)
        p = d.vertices[d.boundary_vertices]
        th = np.arctan2(p[:, 1], p[:, 0])
        phi = np.cos(th) + 0.5 * np.sin(2 * th) + 0.3 * np.cos(3 * th)
        pulled_form, flat_form = (
            dn.dn_nonlinear(d, g, f, options).flux @ phi for g in (pulled, FLAT)
        )
        diffs.append(abs(pulled_form - flat_form) / abs(flat_form))
    assert diffs[0] / diffs[1] > 3.5
    assert diffs[1] / diffs[2] > 3.5


def test_area_exact_for_affine_graph():
    m = geo.square(9)
    a, b = 0.6, -0.3
    u = a * m.vertices[:, 0] + b * m.vertices[:, 1]
    assert abs(graph_area(m, FLAT, u) - np.sqrt(1 + a * a + b * b)) < 1e-13


def test_catenoid_area(catenoid_solution):
    mesh, u = catenoid_solution
    exact = 2 * np.pi * quad(
        lambda r: r * r / np.sqrt(r * r - CAT_A**2), CAT_R0, CAT_R1
    )[0]
    assert abs(graph_area(mesh, FLAT, u) - exact) / exact < 3e-3


def test_first_variation_equals_residual_pairing(catenoid_solution):
    mesh, u = catenoid_solution
    rng = np.random.default_rng(1)
    v = rng.standard_normal(mesh.n_vertices)
    r = fwd.mse_residual(mesh, FLAT, u)
    assert abs(area_first_variation(mesh, FLAT, u, v) - v @ r) < 1e-12


def test_first_variation_vanishes_at_solution(catenoid_solution):
    mesh, u = catenoid_solution
    rng = np.random.default_rng(2)
    v = np.zeros(mesh.n_vertices)
    v[mesh.interior_vertices] = rng.standard_normal(len(mesh.interior_vertices))
    v /= np.linalg.norm(v)
    assert abs(area_first_variation(mesh, FLAT, u, v)) < 1e-10


def test_dn_from_area_data_matches_nonlinear():
    d = geo.disc(12, 48)
    f = lambda x, y: 0.4 * (x * x - y * y) + 0.2 * x
    ref = dn.dn_nonlinear(d, FLAT, f)
    tr, base = dn.dn_from_area_data(d, FLAT, f, t=1e-4)
    # the two pipelines compute the same discrete object; only the O(t^2)
    # differencing separates them
    assert np.abs(tr.flux - ref.flux).max() / np.abs(ref.flux).max() < 1e-5
    assert np.abs(tr.values - ref.values).max() / np.abs(ref.values).max() < 1e-5
    # the base trace is the direct trace of the same base solve
    assert np.array_equal(base.values, ref.values)
    assert np.array_equal(base.flux, ref.flux)


def test_dn_from_area_data_factors_the_base_jacobian_once(monkeypatch):
    d = geo.disc(12, 48)
    f = lambda x, y: 0.4 * (x * x - y * y) + 0.2 * x
    t = 1e-4
    u0, base = fwd.solve_minimal_surface(d, FLAT, f)
    builds = []
    build = fwd.mse_linearized_operator
    with monkeypatch.context() as m:
        m.setattr(fwd, "mse_linearized_operator",
                  lambda *a, **k: builds.append(1) or build(*a, **k))
        tr, _ = dn.dn_from_area_data(d, FLAT, f, t=t)
    # the base solve, then one J(u0) shared by the tangents, the decrement
    # test and any corrector solves of the 48 hats
    assert len(builds) <= base.iterations + 1

    # reference: the same perturbed solves from u0 with a fresh Jacobian at
    # every Newton step
    fb = geo.boundary_values(d, f)
    fresh = fwd.SolveOptions(initial_guess=fwd.WarmStart(u0, None))
    ref = np.empty(len(fb))
    for b in range(len(fb)):
        pert = np.zeros(len(fb))
        pert[b] = t
        up, _ = fwd.solve_minimal_surface(d, FLAT, fb + pert, fresh)
        um, _ = fwd.solve_minimal_surface(d, FLAT, fb - pert, fresh)
        ref[b] = (graph_area(d, FLAT, up) - graph_area(d, FLAT, um)) / (2 * t)
    # both converge far below the point where the solve error shows in the
    # area, so only the rounding of the two areas separates them
    floor = 4 * np.finfo(float).eps * graph_area(d, FLAT, u0) / (2 * t)
    assert np.abs(tr.flux - ref).max() <= floor


@pytest.mark.parametrize(
    "metric", [FLAT, CURVED, CONFORMAL], ids=["flat", "curved", "conformal"]
)
def test_solve_reports_the_area_of_its_solution_bit_for_bit(metric):
    d = geo.disc(8, 48)
    f = lambda x, y: 0.4 * (x * x - y * y) + 0.2 * x
    u0, cold = fwd.solve_minimal_surface(d, metric, f)
    assert cold.area == graph_area(d, metric, u0)
    fb = geo.boundary_values(d, f)
    fb[3] += 1e-3
    warm = fwd.SolveOptions(initial_guess=fwd.warm_start(d, metric, u0))
    u, report = fwd.solve_minimal_surface(d, metric, fb, warm)
    assert report.iterations > 0 and report.area == graph_area(d, metric, u)
    plain = fwd.SolveOptions(initial_guess=fwd.WarmStart(u0, None))
    u, report = fwd.solve_minimal_surface(d, metric, fb, plain)
    assert report.jacobians > 0 and report.area == graph_area(d, metric, u)


def _area_pipeline_reports(monkeypatch, d, f, t, metric=FLAT):
    """dn_from_area_data's flux and the SolveReports of its corrector solves."""
    reports = []
    solve = dn.solve_minimal_surface

    def recording(*args, **kwargs):
        u, report = solve(*args, **kwargs)
        reports.append(report)
        return u, report

    with monkeypatch.context() as m:
        m.setattr(dn, "solve_minimal_surface", recording)
        tr, _ = dn.dn_from_area_data(d, metric, f, t=t)
    return tr.flux, reports[1:]  # the first solve is the base solve


def _area_pipeline_from_u0(d, f, t, metric=FLAT):
    """The perturbed solves of dn_from_area_data without the predictor: every
    one starts at u0, on the same factor of J(u0)."""
    u0, _ = fwd.solve_minimal_surface(d, metric, f)
    warm = fwd.SolveOptions(initial_guess=fwd.warm_start(d, metric, u0))
    fb = geo.boundary_values(d, f)
    flux = np.empty(len(fb))
    for b in range(len(fb)):
        pert = np.zeros(len(fb))
        pert[b] = t
        up, _ = fwd.solve_minimal_surface(d, metric, fb + pert, warm)
        um, _ = fwd.solve_minimal_surface(d, metric, fb - pert, warm)
        flux[b] = (graph_area(d, metric, up) - graph_area(d, metric, um)) / (2 * t)
    floor = 4 * np.finfo(float).eps * graph_area(d, metric, u0) / (2 * t)
    return flux, floor


@pytest.mark.parametrize(
    "metric", [FLAT, CURVED, CONFORMAL], ids=["flat", "curved", "conformal"]
)
def test_areas_are_read_at_the_tangent_predictions(monkeypatch, metric):
    # at t = 1e-4 each prediction's Newton decrement is below the rounding of
    # its area, so no perturbed solve runs, and the areas differenced are
    # those of the converged solves up to that rounding.  A wrong tangent
    # fails the decrement test and would only cost corrector solves, which
    # the first assertion catches.
    d = geo.disc(12, 48)
    f = lambda x, y: 0.4 * (x * x - y * y) + 0.2 * x
    t = 1e-4
    flux, reports = _area_pipeline_reports(monkeypatch, d, f, t, metric)
    ref_flux, floor = _area_pipeline_from_u0(d, f, t, metric)
    assert reports == []
    assert np.abs(flux - ref_flux).max() <= floor


def test_a_rough_prediction_still_meets_the_tolerance(monkeypatch):
    # at t = 0.1 the O(t^2) predictor error is too large for chord steps
    # alone: the refresh rule takes fresh Jacobians, and the areas agree with
    # the solves from u0 up to their rounding
    d = geo.disc(12, 48)
    f = lambda x, y: 0.4 * (x * x - y * y) + 0.2 * x
    t = 0.1
    flux, reports = _area_pipeline_reports(monkeypatch, d, f, t)
    ref_flux, floor = _area_pipeline_from_u0(d, f, t)
    assert sum(r.jacobians for r in reports) > 0
    assert np.abs(flux - ref_flux).max() <= floor


def test_third_derivative_fd_matches_exact():
    mesh = geo.disc(16, 96)
    fs = [lambda X, Y: X, lambda X, Y: Y, lambda X, Y: X * X - Y * Y]
    ex = dn.dn_third_derivative_exact(mesh, FLAT, fs)
    combo = lin.EpsilonCombination(mesh, FLAT, fs)
    rels = []
    for h in (0.04, 0.02):
        fd = dn.dn_third_derivative(combo, (0, 1, 2), h)
        rels.append(np.abs(fd.values - ex.values).max() / np.abs(ex.values).max())
    assert rels[0] < 3e-2
    assert rels[1] < 8e-3
    assert rels[0] / rels[1] > 3.0  # O(h_eps^2)


def test_third_derivative_reads_one_trace_per_sign_pair(counting):
    # the trace of the odd cold solve is odd to the bit, so the eight-point
    # stencil reads one trace per +-eps pair and negates it for the other
    # sign; the result is that of eight traces of eight fresh solves
    mesh = geo.disc(12, 72)
    fs = [lambda X, Y: X, lambda X, Y: Y, lambda X, Y: X * X - Y * Y]
    combo = lin.EpsilonCombination(mesh, FLAT, fs)
    traces = counting(dn, "_nonlinear_trace")
    got = dn.dn_third_derivative(combo, (0, 1, 2), 0.02)
    assert len(traces) == 4

    def uncached(eps):
        fb = combo.boundary_data(eps)
        tr = dn._nonlinear_trace(mesh, FLAT, fb, fwd.solve_minimal_surface(mesh, FLAT, fb)[0])
        return np.stack([tr.values, tr.flux])

    values, flux = lin._mixed_difference(combo, (0, 1, 2), 0.02, uncached)
    assert np.array_equal(got.values, values)
    assert np.array_equal(got.flux, flux)


def test_exact_third_derivative_assembles_the_source_once(monkeypatch):
    mesh = geo.disc(10, 60)
    fs = [lambda X, Y: X, lambda X, Y: Y, lambda X, Y: X * X - Y * Y]
    calls = []
    source = lin.third_linearization_source
    counted = lambda *a, **k: calls.append(1) or source(*a, **k)
    with monkeypatch.context() as m:
        m.setattr(lin, "third_linearization_source", counted)
        m.setattr(dn, "third_linearization_source", counted)
        ex = dn.dn_third_derivative_exact(mesh, FLAT, fs)
    assert len(calls) == 1
    # the two-call formula: w from the PDE solve, L assembled again
    vs = [fwd.solve_laplace_beltrami(mesh, FLAT, f) for f in fs]
    w = lin.third_linearization_pde(mesh, FLAT, *vs)
    L = lin.third_linearization_source(mesh, FLAT, *vs)
    K = geo.discretization(mesh, FLAT).stiffness
    assert np.array_equal(ex.flux, (K @ w - L)[mesh.boundary_vertices])


def test_third_derivative_argument_validation():
    mesh = geo.disc(6, 36)
    with pytest.raises(ValueError, match="three directions"):
        dn.dn_third_derivative_exact(mesh, FLAT, [lambda x, y: x])
    combo = lin.EpsilonCombination(mesh, FLAT, [lambda x, y: x])
    with pytest.raises(ValueError, match="three directions"):
        dn.dn_third_derivative(combo, (0, 0), 0.02)
