"""Tests for the nonlinear minimal-surface solver and Laplace-Beltrami."""

import functools
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.optimize import brentq

from minsurf import geometry as geo
from minsurf import forward as fwd

FLAT = geo.flat_metric()

CAT_A = 0.5
CAT_R0, CAT_R1 = 1.1 * CAT_A, 3.0 * CAT_A


def catenoid_exact(r):
    return CAT_A * np.arccosh(r / CAT_A)


def catenoid_oracle_constant():
    """Independent route to the catenoid: radial shooting.

    A rotationally symmetric graph solves r u'/sqrt(1+u'^2) = C, i.e.
    u' = C / sqrt(r^2 - C^2).  Match the boundary increment by root finding
    on C, with no reference to the closed form.
    """
    target = catenoid_exact(CAT_R1) - catenoid_exact(CAT_R0)

    def increment(C):
        val, _ = quad(lambda r: C / np.sqrt(r * r - C * C), CAT_R0, CAT_R1)
        return val - target

    return brentq(increment, 1e-6, CAT_R0 - 1e-9, xtol=1e-14)


def test_catenoid_oracle_matches_closed_form():
    C = catenoid_oracle_constant()
    assert abs(C - CAT_A) < 1e-9
    # reconstruct u at interior radii by quadrature and compare
    for r in (0.7, 1.0, 1.3):
        val, _ = quad(lambda s: C / np.sqrt(s * s - C * C), CAT_R0, r)
        u_oracle = catenoid_exact(CAT_R0) + val
        assert abs(u_oracle - catenoid_exact(r)) < 1e-8


def test_affine_data_is_exact_with_zero_newton_iterations():
    m = geo.square(12)
    f = lambda x, y: 0.3 + 0.7 * x - 0.2 * y
    u, rep = fwd.solve_minimal_surface(m, FLAT, f)
    assert rep.final_residual <= 1e-10
    assert rep.iterations == 0
    exact = f(m.vertices[:, 0], m.vertices[:, 1])
    assert np.abs(u - exact).max() < 1e-12


def test_catenoid_convergence():
    # Far outside the small-slope regime: |grad u| ~ 2.2 at the inner rim.
    errs = []
    for n_r, n_a in ((24, 48), (48, 96)):
        mesh = geo.annulus(CAT_R0, CAT_R1, n_r, n_a)
        u, rep = fwd.solve_minimal_surface(mesh, FLAT, lambda x, y: catenoid_exact(np.hypot(x, y)))
        assert rep.final_residual <= 1e-10
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        errs.append(np.abs(u - catenoid_exact(r)).max())
    assert errs[0] < 5e-4
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8


def test_laplace_beltrami_reproduces_affine_exactly():
    # Affine functions are discrete-harmonic on any mesh (the weak flux of a
    # constant field vanishes on interior hats), flat metric or conformal.
    d = geo.disc(10, 60)
    c = geo.conformal_metric(FLAT, lambda x, y: 1.0 + 0.4 * x * x + 0.1 * y * y)
    f = lambda x, y: 1.0 - 0.2 * x + 0.5 * y
    u = fwd.solve_laplace_beltrami(d, c, f)
    exact = f(d.vertices[:, 0], d.vertices[:, 1])
    assert np.abs(u - exact).max() < 1e-12


def test_laplace_beltrami_keeps_boundary_order_on_an_all_boundary_mesh():
    # every vertex of this annulus is a boundary vertex (n_vertices == n_B),
    # and boundary-ordered data must not be read as a nodal field
    m = geo.annulus(0.5, 1.5, 1, 8)
    assert len(m.boundary_vertices) == m.n_vertices
    assert not np.array_equal(m.boundary_vertices, np.arange(m.n_vertices))
    b = np.arange(float(m.n_vertices))
    u = fwd.solve_laplace_beltrami(m, FLAT, b)
    assert np.array_equal(u[m.boundary_vertices], b)


def test_laplace_beltrami_complex_data_splits_into_parts():
    d = geo.disc(8, 48)
    f = lambda x, y: np.exp(1j * (2 * x - y))
    u = fwd.solve_laplace_beltrami(d, FLAT, f)
    ur = fwd.solve_laplace_beltrami(d, FLAT, lambda x, y: np.cos(2 * x - y))
    ui = fwd.solve_laplace_beltrami(d, FLAT, lambda x, y: np.sin(2 * x - y))
    np.testing.assert_allclose(u, ur + 1j * ui, atol=1e-14)


def test_residual_for_affine_is_scaled_stiffness_action():
    # For affine u the slope factor is the constant sqrt(1 + a^2 + b^2), so
    # the nonlinear residual equals (K u) / s exactly.
    m = geo.square(9)
    a, b = 0.8, -0.4
    u = a * m.vertices[:, 0] + b * m.vertices[:, 1]
    K = geo.assemble_weighted_stiffness(m, FLAT)
    s = np.sqrt(1.0 + a * a + b * b)
    r = fwd.mse_residual(m, FLAT, u)
    np.testing.assert_allclose(r, (K @ u) / s, atol=1e-14)


def test_linearized_operator_matches_finite_differences():
    d = geo.disc(8, 48)
    rng = np.random.default_rng(0)
    u0 = fwd.solve_laplace_beltrami(d, FLAT, lambda x, y: x * x - y * y + 0.5 * x)
    delta = rng.standard_normal(d.n_vertices)
    h = 1e-6
    J = fwd.mse_linearized_operator(d, FLAT, u0)
    fd = (fwd.mse_residual(d, FLAT, u0 + h * delta) - fwd.mse_residual(d, FLAT, u0 - h * delta)) / (
        2 * h
    )
    assert np.abs(J @ delta - fd).max() / np.abs(fd).max() < 1e-7


def test_linearized_operator_at_zero_is_stiffness():
    d = geo.disc(8, 48)
    K = geo.assemble_weighted_stiffness(d, FLAT)
    J0 = fwd.mse_linearized_operator(d, FLAT, np.zeros(d.n_vertices))
    assert abs(J0 - K).max() == 0.0


def test_newton_failure_is_actionable():
    d = geo.disc(6, 36)
    opts = fwd.SolveOptions(max_iter=1, tol=1e-14)
    with pytest.raises(RuntimeError, match="Newton did not reach"):
        fwd.solve_minimal_surface(d, FLAT, lambda x, y: 2 * (x * x - y * y), opts)


def test_newton_failure_carries_its_report():
    d = geo.square(16)
    opts = fwd.SolveOptions(max_iter=1)
    with pytest.raises(fwd.ConvergenceError) as info:
        fwd.solve_minimal_surface(d, FLAT, lambda x, y: 2 * (x * x - y * y), opts)
    rep = info.value.report
    assert rep.iterations == 1
    assert len(rep.residual_norms) == 2 and len(rep.step_sizes) == 1
    assert rep.final_residual == rep.residual_norms[-1] > opts.tol
    assert rep.message == str(info.value)


def test_warm_start_refresh_rule_drops_a_stale_factor():
    # J(0) is the stiffness matrix, a poor model of the Jacobian at the
    # solution for this data, and the guess u = 0 inside is far from it: the
    # first chord step needs a halving or leaves more than half of the
    # residual, so it trips the refresh rule (which drops the factor above
    # a quarter), and the rest of the solve builds a fresh Jacobian per step
    # like plain Newton.
    d = geo.disc(12, 48)
    f = lambda x, y: 0.5 * (x * x - y * y)
    u_cold, _ = fwd.solve_minimal_surface(d, FLAT, f)
    ws = fwd.warm_start(d, FLAT, np.zeros(d.n_vertices))
    u, rep = fwd.solve_minimal_surface(d, FLAT, f, initial_guess=ws)
    assert rep.final_residual <= 1e-10
    # the first (chord) step trips the rule: a halving or a contraction > 1/2
    assert rep.step_sizes[0] < 1.0 or rep.residual_norms[1] > 0.5 * rep.residual_norms[0]
    assert rep.jacobians == rep.iterations - 1
    assert np.abs(u - u_cold).max() < 1e-10


def _saddle(a):
    return lambda x, y: a * (x * x - y * y) + 0.3 * a * np.sin(3 * np.arctan2(y, x))


def test_cold_solve_chord_steps_converge_over_an_amplitude_sweep(monkeypatch):
    # A cold solve takes chord steps on K[I, I] = J(0)[I, I] from the
    # harmonic extension.  Small data converges on chord steps alone, larger
    # data trips the refresh rule and finishes with Newton steps; in between
    # the chord steps contract slowest, and the 1/4 rule bounds the steps
    # there.
    mesh = geo.disc(24, 144)
    opts = fwd.SolveOptions(tol=1e-12)
    for a in np.round(np.arange(0.08, 0.305, 0.01), 2):
        _, rep = fwd.solve_minimal_surface(mesh, FLAT, _saddle(a), opts)
        assert rep.iterations <= 16, a
    # with the looser 1/2 rule the chord steps creep on to max_iter
    monkeypatch.setattr(fwd, "_CHORD_CONTRACTION", 0.5)
    with pytest.raises(fwd.ConvergenceError, match="did not reach"):
        fwd.solve_minimal_surface(mesh, FLAT, _saddle(0.26), opts)


CURVED = lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)


def test_cold_solve_agrees_with_fresh_newton_on_a_curved_metric(counting):
    mesh = geo.disc(16, 96)
    metric = CURVED
    jacobians = counting(fwd, "mse_linearized_operator")
    systems = counting(geo, "InteriorSystem")
    # a = 0.1 converges on chord steps alone, a = 0.4 refreshes after one
    for a in (0.1, 0.4):
        u, rep = fwd.solve_minimal_surface(mesh, metric, _saddle(a))
        # the same start without a system: a fresh Jacobian, and a system
        # of it, at every step
        start = fwd.solve_laplace_beltrami(mesh, metric, _saddle(a))
        jacobians.clear()
        systems.clear()
        u_newton, newton = fwd.solve_minimal_surface(
            mesh, metric, _saddle(a), initial_guess=fwd.WarmStart(start, None))
        assert newton.jacobians == newton.iterations == len(jacobians) == len(systems)
        assert rep.jacobians < rep.iterations
        assert np.abs(u - u_newton).max() < 1e-10


def test_cold_solve_of_small_data_factors_only_the_stiffness(counting):
    factors = counting(spla, "splu")
    mesh = geo.disc(12, 48)
    _, rep = fwd.solve_minimal_surface(mesh, FLAT, _saddle(0.01))
    assert rep.iterations > 0 and rep.jacobians == 0
    # the one factor is the owner's K[I, I], shared with the Laplace solves
    assert len(factors) == 1
    fwd.solve_laplace_beltrami(mesh, FLAT, _saddle(0.02))
    assert len(factors) == 1


def _jacobian_system(mesh):
    """The warm start's interior system at a solution u0, and J(u0)."""
    u0, _ = fwd.solve_minimal_surface(mesh, CURVED, _saddle(0.4))
    J = fwd.mse_linearized_operator(mesh, CURVED, u0)
    return fwd.warm_start(mesh, CURVED, u0).system, J


def test_warm_start_extends_boundary_columns_on_the_jacobian_blocks():
    # the tangents of the solution map: phi_b on the boundary and
    # -J[I, I]^{-1} J[I, b] inside
    mesh = geo.disc(12, 48)
    system, J = _jacobian_system(mesh)
    I, B = mesh.interior_vertices, mesh.boundary_vertices
    unit = np.eye(len(B))
    w = system.extend(unit)
    want = spla.spsolve(J[I][:, I].tocsc(), -(J[I][:, B] @ unit))
    assert w.shape == (mesh.n_vertices, len(B))
    assert np.abs(w[I] - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(w[B], unit)


def test_interior_solve_ignores_the_boundary_and_returns_zeros_there():
    mesh = geo.disc(12, 48)
    system, J = _jacobian_system(mesh)
    I, B = mesh.interior_vertices, mesh.boundary_vertices
    rng = np.random.default_rng(5)
    r = rng.standard_normal(mesh.n_vertices)
    x = system.solve(r)
    assert np.array_equal(x[B], np.zeros(len(B)))
    want = spla.spsolve(J[I][:, I].tocsc(), r[I])
    assert np.abs(x[I] - want).max() <= 1e-12 * np.abs(want).max()
    moved = r.copy()
    moved[B] = 1e3 * rng.standard_normal(len(B))
    assert np.array_equal(system.solve(moved), x)
    # columns share one solve
    both = system.solve(np.column_stack([r, moved]))
    assert both.shape == (mesh.n_vertices, 2)
    assert np.abs(both - x[:, None]).max() <= 1e-13 * np.abs(x).max()


def test_warm_start_failure_is_actionable():
    d = geo.disc(12, 48)
    f = lambda x, y: 0.5 * (x * x - y * y)
    ws = fwd.warm_start(d, FLAT, np.zeros(d.n_vertices))
    opts = fwd.SolveOptions(max_iter=1, tol=1e-14)
    with pytest.raises(RuntimeError, match="Newton did not reach"):
        fwd.solve_minimal_surface(d, FLAT, f, opts, initial_guess=ws)


@pytest.mark.parametrize(
    "guess",
    [lambda d: np.zeros(d.n_vertices), lambda d: (lambda x, y: 0.0 * x)],
    ids=["array", "callable"],
)
def test_initial_guess_is_none_or_a_warm_start(guess):
    d = geo.disc(6, 36)
    with pytest.raises(TypeError, match="None or a WarmStart"):
        fwd.solve_minimal_surface(d, FLAT, lambda x, y: 0.1 * x,
                                  initial_guess=guess(d))


def test_complex_data_rejected_by_nonlinear_solver():
    d = geo.disc(6, 36)
    with pytest.raises(ValueError, match="real"):
        fwd.solve_minimal_surface(d, FLAT, lambda x, y: np.exp(1j * x))


@pytest.mark.parametrize(
    "kernel",
    [fwd.mse_residual, fwd.mse_linearized_operator,
     functools.partial(fwd.mse_residual, with_slope=True), fwd.warm_start],
    ids=["residual", "jacobian", "area", "warm_start"],
)
def test_complex_fields_rejected_by_the_slope_kernel(kernel):
    # all four share the slope factor sqrt(1 + |grad_g u|^2), which raises
    # before any of them could drop the imaginary part with a ComplexWarning;
    # the area is the sum of the slope factor the residual returns
    d = geo.disc(4, 24)
    x, y = d.vertices.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="defined for real fields only"):
            kernel(d, FLAT, 0.1 * (x + 1j * y))


def test_solve_report_history():
    d = geo.disc(10, 60)
    u, rep = fwd.solve_minimal_surface(d, FLAT, lambda x, y: x * x - y * y)
    assert rep.final_residual <= 1e-10
    assert len(rep.residual_norms) == rep.iterations + 1
    # Newton from the harmonic guess should decrease monotonically here
    assert all(b < a for a, b in zip(rep.residual_norms, rep.residual_norms[1:]))
