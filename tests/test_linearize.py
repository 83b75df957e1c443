"""Tests for the linearization chain of the solution map."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minsurf import geometry as geo
from minsurf import forward as fwd
from minsurf import linearize as lin

FLAT = geo.flat_metric()
CURVED = lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)
CONFORMAL = geo.conformal_metric(CURVED, lambda x, y: 1.0 + 0.5 * x * x + 0.2 * y)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


@pytest.fixture(scope="module")
def disc_setup():
    mesh = geo.disc(16, 96)
    fs = [lambda X, Y: X, lambda X, Y: Y, lambda X, Y: X * X - Y * Y]
    combo = lin.EpsilonCombination(mesh, FLAT, fs)
    vs = [fwd.solve_laplace_beltrami(mesh, FLAT, f) for f in fs]
    return mesh, fs, combo, vs


def test_affine_third_source_oracle():
    # For v = x the load integrand is 3 * g(grad x, grad phi_i), so the load
    # vector equals 3 K x — an independently assembled object.
    mesh = geo.disc(12, 72)
    K = geo.assemble_weighted_stiffness(mesh, FLAT)
    x = mesh.vertices[:, 0]
    L = lin.third_linearization_source(mesh, FLAT, x, x, x)
    np.testing.assert_allclose(L, 3.0 * (K @ x), atol=1e-13)


def test_affine_third_linearization_vanishes():
    # Affine data solves the nonlinear equation exactly, so every derivative
    # of the solution map beyond the first vanishes along it.
    mesh = geo.disc(12, 72)
    x = mesh.vertices[:, 0]
    w = lin.third_linearization_pde(mesh, FLAT, x, x, x)
    assert np.abs(w).max() < 1e-12
    combo = lin.EpsilonCombination(mesh, FLAT, [lambda X, Y: X])
    w_fd = lin.linearization_fd(combo, (0, 0, 0), 0.05)
    assert np.abs(w_fd).max() < 1e-9


def test_third_source_symmetric_in_fields(disc_setup):
    mesh, fs, combo, vs = disc_setup
    L0 = lin.third_linearization_source(mesh, FLAT, vs[0], vs[1], vs[2])
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        Lp = lin.third_linearization_source(
            mesh, FLAT, vs[perm[0]], vs[perm[1]], vs[perm[2]]
        )
        np.testing.assert_allclose(Lp, L0, atol=1e-14)


def test_mixed_difference_is_the_hand_written_sign_sum(disc_setup):
    # the one stencil behind every finite-difference derivative, against
    # the sign sums written out term by term in its summation order
    mesh, fs, combo, vs = disc_setup
    h = 0.05

    def u(*eps):
        return combo.solve(np.array(eps))

    def mixed(idx):
        return lin._mixed_difference(combo, idx, h, combo.solve)

    first = (u(h, 0, 0) - u(-h, 0, 0)) / (2.0 * h)
    assert np.array_equal(mixed((0,)), first)
    second = (u(h, 0, h) - u(h, 0, -h) - u(-h, 0, h) + u(-h, 0, -h)) / (4.0 * h**2)
    assert np.array_equal(mixed((0, 2)), second)
    third = (
        u(h, h, h) - u(h, h, -h) - u(h, -h, h) + u(h, -h, -h)
        - u(-h, h, h) + u(-h, h, -h) + u(-h, -h, h) - u(-h, -h, -h)
    ) / (8.0 * h**3)
    assert np.array_equal(mixed((0, 1, 2)), third)
    # a repeated direction accumulates its steps
    repeated = (
        u(2 * h, 0, h) - u(2 * h, 0, -h) - u(0, 0, h) + u(0, 0, -h)
        - u(0, 0, h) + u(0, 0, -h) + u(-2 * h, 0, h) - u(-2 * h, 0, -h)
    ) / (8.0 * h**3)
    assert np.array_equal(mixed((0, 0, 2)), repeated)


def test_first_linearization_fd_second_order(disc_setup):
    mesh, fs, combo, vs = disc_setup
    errs = []
    for h in (0.05, 0.025):
        v_fd = lin.linearization_fd(combo, (2,), h)
        errs.append(np.abs(v_fd - vs[2]).max())
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 3.0  # O(h^2)


def test_second_linearization_is_rounding_noise(disc_setup):
    # The discrete solution map is exactly odd, so the mixed second
    # difference cancels to rounding noise at any step size (and the noise
    # grows like eps/h as the step shrinks, since the stencil values scale
    # like h — there is no h-convergence to observe in exact arithmetic).
    mesh, fs, combo, vs = disc_setup
    scale = max(np.abs(combo.boundary_data([1.0, 1.0, 1.0])).max(), 1.0)
    for h in (0.05, 0.02):
        w2 = lin.linearization_fd(combo, (0, 2), h)
        assert np.abs(w2).max() < 1e-10 * scale


SMALL = geo.disc(6, 36)
_BX, _BY = SMALL.vertices[SMALL.boundary_vertices].T
_THETA = np.arctan2(_BY, _BX)
_MODES = np.arange(1, 4)[:, None]


@PROPERTY
@given(
    cos=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
    sin=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
    metric=st.sampled_from([FLAT, CURVED, CONFORMAL]),
)
def test_solution_map_is_odd_bitwise(cos, sin, metric):
    # the premise EpsilonCombination serves u(-eps) from: the cold Newton
    # solve of -f repeats the one of f with every sign flipped
    f = np.asarray(cos) @ np.cos(_MODES * _THETA) + np.asarray(sin) @ np.sin(_MODES * _THETA)
    up, rep_up = fwd.solve_minimal_surface(SMALL, metric, f)
    dn, rep_dn = fwd.solve_minimal_surface(SMALL, metric, -f)
    assert np.array_equal(up, -dn)
    assert rep_up.residual_norms == rep_dn.residual_norms


def test_third_fd_converges_to_pde_solution(disc_setup):
    mesh, fs, combo, vs = disc_setup
    w_exact = lin.third_linearization_pde(mesh, FLAT, *vs)
    assert np.abs(w_exact).max() > 1e-4  # nontrivial
    # w vanishes on the boundary by construction
    assert np.abs(w_exact[mesh.boundary_vertices]).max() == 0.0
    rels = []
    for h in (0.04, 0.02):
        w_fd = lin.linearization_fd(combo, (0, 1, 2), h)
        rels.append(np.abs(w_fd - w_exact).max() / np.abs(w_exact).max())
    assert rels[0] < 2e-2
    assert rels[1] < 5e-3
    assert rels[0] / rels[1] > 3.0  # O(h_eps^2)


def test_epsilon_combination_validation_and_cache(disc_setup):
    mesh, fs, combo, vs = disc_setup
    with pytest.raises(ValueError, match="at least one"):
        lin.EpsilonCombination(mesh, FLAT, [])
    with pytest.raises(ValueError, match="shape"):
        combo.boundary_data([1.0])
    u1 = combo.solve([0.1, 0.0, 0.0])
    u2 = combo.solve([0.1, 0.0, 0.0])
    assert u1 is u2  # cached


def test_combination_solves_each_sign_pair_once(counting):
    mesh = geo.disc(8, 48)
    fs = [lambda X, Y: X, lambda X, Y: Y, lambda X, Y: X * Y]
    combo = lin.EpsilonCombination(mesh, FLAT, fs)
    solves = counting(fwd, "solve_minimal_surface")
    lin.linearization_fd(combo, (0, 1, 2), 0.05)
    # the eight-point stencil is four +-eps pairs
    assert len(solves) == 4
    for eps in ([-0.05, 0.05, 0.05], [-0.05, -0.05, -0.05], [0.0, -0.05, 0.05]):
        direct, _ = fwd.solve_minimal_surface(mesh, FLAT, combo.boundary_data(eps))
        assert np.array_equal(combo.solve(eps), direct)
