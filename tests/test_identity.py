"""Tests for the third-order integral identity and the weighted functional."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from minsurf import geometry as geo
from minsurf import forward as fwd
from minsurf import identity as idn

from test_kernels import p1_gradients, pair_at_quadrature

FLAT = geo.flat_metric()
CURVED = geo.explicit_metric(
    lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)
)
EPS = np.finfo(float).eps

DIRS = [
    lambda x, y: x,
    lambda x, y: y,
    lambda x, y: x * y,
    lambda x, y: x * x - y * y,
]


def interior_bump(x, y, r0=0.7):
    # smooth, compactly supported inside r < r0, identically zero beyond
    r2 = (x * x + y * y) / (r0 * r0)
    out = np.zeros_like(np.asarray(r2, dtype=float))
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def test_q_functional_flat_identity_data_gives_three_areas():
    # all four fields x on the flat unit square: every pairing is 1, the
    # symmetric combination is 3, and the weighted integral is 3 * area
    mesh = geo.square(8)
    x = mesh.vertices[:, 0]
    val = idn.q_functional(mesh, FLAT, None, x, x, x, x)
    assert abs(val - 3.0) < 1e-13


def test_q_functional_symmetric_under_field_permutations():
    mesh = geo.disc(8, 48)
    rng = np.random.default_rng(11)
    fields = [rng.standard_normal(len(mesh.vertices)) for _ in range(4)]
    base = idn.q_functional(mesh, CURVED, None, *fields)
    for perm in [(1, 0, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0), (2, 3, 0, 1)]:
        permuted = idn.q_functional(mesh, CURVED, None, *[fields[p] for p in perm])
        assert abs(permuted - base) < 1e-12 * max(1.0, abs(base))


def test_one_form_serves_several_probes_as_fresh_calls_do():
    # a sweep builds Q at quadrature and M_t once and calls the form per
    # probe; q_functional builds the form afresh, and both give the same bits
    mesh = geo.disc(12, 72)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    weight = lambda x, y: 0.1 * np.exp(-(x * x + y * y))
    for metric in (FLAT, CURVED):
        form = idn.q_form(mesh, metric, weight)
        for tau in (1.0, 2.0, 3.0):
            u = np.exp(1j * tau * (x + 1j * y) ** 2)
            v = np.exp(1j * tau * (x - 1j * y) ** 2)
            for args in ((u, u, v, v), (u, v, u, v), (u, v, x, y * y)):
                assert form(*args) == idn.q_functional(mesh, metric, weight, *args)


def test_q_functional_is_bilinear_in_complex_fields():
    # grad(x + iy) pairs to zero with itself under the bilinear (unconjugated)
    # pairing, while grad(x + iy) . grad(x - iy) = 2
    mesh = geo.square(6)
    z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
    zbar = np.conj(z)
    assert abs(idn.q_functional(mesh, FLAT, None, z, z, z, z)) < 1e-13
    val = idn.q_functional(mesh, FLAT, None, z, z, zbar, zbar)
    assert abs(val - 8.0) < 1e-13


SMOOTH = geo.disc(8, 48)
_X, _Y = SMOOTH.vertices.T
FIELDS = [_X, _Y, _X * _Y, _X * _X - _Y * _Y,
          np.exp(2j * _X) * (1.0 + _Y), np.cos(3.0 * _Y) + 1j * _X]
scalars = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                             allow_nan=False, allow_infinity=False)


def _magnitude(metric, fields):
    """3 * integral of prod_k |grad v_k|_g, which bounds every q_functional term."""
    d = geo.discretization(SMOOTH, metric)
    out = 3.0 * d.weights
    for v in fields:
        g = p1_gradients(SMOOTH, v)
        out = out * np.sqrt(np.abs(pair_at_quadrature(SMOOTH, d.mq, g, np.conj(g))))
    return out.sum()


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    a=scalars,
    b=scalars,
    picks=st.lists(st.integers(0, len(FIELDS) - 1), min_size=5, max_size=5),
    metric=st.sampled_from([FLAT, CURVED]),
)
def test_q_functional_is_linear_in_its_first_argument(a, b, picks, metric):
    # by symmetry many picks give q = 0 on the disc, so rounding is bounded
    # against the termwise magnitude (measured below 1 eps of it)
    u, w, *rest = (FIELDS[i] for i in picks)

    def q(v):
        return idn.q_functional(SMOOTH, metric, None, v, *rest)

    err = abs(q(a * u + b * w) - (a * q(u) + b * q(w)))
    bound = abs(a) * _magnitude(metric, [u, *rest]) + abs(b) * _magnitude(metric, [w, *rest])
    assert err <= 16 * EPS * bound


def test_q_functional_weight_coercion_agrees_for_linear_weight():
    # a linear weight is interpolated exactly, so callable and nodal forms match
    mesh = geo.disc(8, 48)
    q_call = lambda x, y: 1.0 + 0.3 * x + 0.1 * y
    q_nodal = q_call(mesh.vertices[:, 0], mesh.vertices[:, 1])
    fields = [mesh.vertices[:, 0], mesh.vertices[:, 1]] * 2
    a = idn.q_functional(mesh, CURVED, q_call, *fields)
    b = idn.q_functional(mesh, CURVED, q_nodal, *fields)
    assert abs(a - b) < 1e-13 * abs(a)


def test_identity_holds_on_curved_disc():
    mesh = geo.disc(16, 96)
    rep = idn.integral_identity_check(mesh, CURVED, DIRS)
    assert abs(rep.rhs) > 1e-3  # non-degenerate configuration
    assert rep.relative_residual < 6e-3
    # report is self-consistent
    assert rep.lhs == rep.t3 - rep.t1
    assert rep.residual == rep.lhs - rep.rhs
    assert rep.h == mesh.h
    assert rep.h_eps == pytest.approx(0.25 * mesh.h)


def test_identity_residual_contracts_under_refinement():
    rels = []
    for n_r, n_a in [(16, 96), (32, 192)]:
        rep = idn.integral_identity_check(geo.disc(n_r, n_a), CURVED, DIRS)
        rels.append(rep.relative_residual)
    # with h_eps scaled proportionally to h both error sources are O(h^2)
    assert rels[1] < rels[0] / 3.0


def test_dn_difference_matches_weighted_functional_for_conformal_pair():
    mesh = geo.disc(16, 96)
    c_fun = lambda x, y: 1.0 + 0.5 * interior_bump(x, y)
    cg = geo.conformal_metric(FLAT, c_fun)
    weight = lambda x, y: 1.0 - 1.0 / c_fun(x, y)

    fx = lambda x, y: x
    fy = lambda x, y: y
    vs = [fwd.solve_laplace_beltrami(mesh, FLAT, f) for f in (fx, fx, fy, fy)]
    # the exact third linearization under both metrics (measured 7.1e-4)
    diff = idn.dn_difference_form(mesh, FLAT, cg)(*vs)

    target = idn.q_functional(mesh, FLAT, weight, *vs)
    assert abs(target) > 0.1  # non-degenerate direction set
    assert abs(diff - target) < 5e-3 * abs(target)


def test_identity_functions_validate_direction_count():
    mesh = geo.disc(6, 36)
    with pytest.raises(ValueError, match="four directions"):
        idn.integral_identity_check(mesh, FLAT, DIRS[:3])


def test_identity_check_builds_each_invariant_once(counting):
    # one (mesh, metric) pair has one Discretization: the metric at
    # quadrature and K are built once for the whole check, and the one LU
    # factor is that of K[I, I]: the Laplace solves run on it, and so do the
    # chord steps of the four cold stencil solves (one per +-eps pair of the
    # eight-point stencil), since J(0) = K and small data never trips the
    # refresh rule
    calls = {
        name: counting(module, name)
        for module, name in ((geo, "metric_at_quadrature"),
                             (geo, "assemble_weighted_stiffness"),
                             (spla, "splu"))
    }
    mesh = geo.disc(12, 48)
    idn.integral_identity_check(mesh, CURVED, DIRS)
    assert {name: len(c) for name, c in calls.items()} == {
        "metric_at_quadrature": 1,
        "assemble_weighted_stiffness": 1,
        "splu": 1,
    }
