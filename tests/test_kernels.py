"""Sum-then-contract element kernels against per-quadrature-point references.

The package sums every quadrature rule over the three points of a triangle
before contracting with the (constant) hat gradients.  The references below
keep the direct per-point formulas: the pairing b[t, q, i] = g(grad u,
grad phi_i)(x_q) and the pair tensor g(grad phi_i, grad phi_j)(x_q),
contracted point by point and scattered with ``np.add.at``; they read the
per-point data as (n_tri, 3) columns, transposed from the package's
(3, n_tri) rows.  The probe functional keeps its six-pairing formula as the
reference for the density form, the element kernel keeps its
broadcasting form as the bit-for-bit reference for the one on (n_tri,)
rows, and the factored blocks are checked to be the symmetric positive
definite matrices that ``geometry.factor_spd`` assumes.

The residual, the Jacobian's element data and K are pinned bit for bit to
the formulas of the (n_tri, 3) layout they were first written in (the
``columns_*`` helpers), and the layout itself, C-contiguous rows, is a
contract test.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from minsurf import geometry as geo
from minsurf import forward as fwd
from minsurf import identity as idn
from minsurf import linearize as lin

FLAT = geo.flat_metric()
CURVED = geo.explicit_metric(
    lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)
)
CONFORMAL = geo.conformal_metric(CURVED, lambda x, y: 1.0 + 0.5 * x * x + 0.2 * y)
EPS = np.finfo(float).eps


def p1_gradients(mesh, values):
    """Euclidean gradient of the P1 interpolant, one constant vector per triangle."""
    return np.column_stack(geo.p1_gradient_rows(mesh, values))


def pair_at_quadrature(mesh, mq, grad_u, grad_v):
    """g(grad u, grad v) at quadrature points, (3, n_tri) like ``mq``.

    ``grad_u``/``grad_v`` are per-triangle Euclidean gradients (n_tri, 2);
    ``mq`` is the output of ``geometry.metric_at_quadrature``.  Bilinear (no
    conjugation).
    """
    return (
        mq.inv11 * (grad_u[:, 0] * grad_v[:, 0])
        + mq.inv12 * (grad_u[:, 0] * grad_v[:, 1] + grad_u[:, 1] * grad_v[:, 0])
        + mq.inv22 * (grad_u[:, 1] * grad_v[:, 1])
    )


def _columns(mq):
    """The metric at quadrature as (n_tri, 3) columns (transposed views)."""
    return SimpleNamespace(inv11=mq.inv11.T, inv12=mq.inv12.T,
                           inv22=mq.inv22.T)


def _hat_columns(mesh):
    """The hat gradients as (n_tri, 3, 2), [t, i, c] (a transposed view)."""
    return mesh.hat_gradients.transpose(2, 1, 0)


def _hat_pairing(mesh, mq, grad):
    """g(grad u, grad phi_i) at quadrature points, (n_tri, 3, 3) as [t, q, i]."""
    mq, hg = _columns(mq), _hat_columns(mesh)
    return (
        mq.inv11[:, :, None] * grad[:, None, None, 0] * hg[:, None, :, 0]
        + mq.inv12[:, :, None]
        * (grad[:, None, None, 0] * hg[:, None, :, 1] + grad[:, None, None, 1] * hg[:, None, :, 0])
        + mq.inv22[:, :, None] * grad[:, None, None, 1] * hg[:, None, :, 1]
    )


def _pair_elements(mesh, mq, w):
    """sum_q w[q, t] g(grad phi_i, grad phi_j)(x_q), (n_tri, 3, 3)."""
    mq, hg = _columns(mq), _hat_columns(mesh)
    pair = (
        mq.inv11[:, :, None, None] * hg[:, None, :, None, 0] * hg[:, None, None, :, 0]
        + mq.inv12[:, :, None, None]
        * (hg[:, None, :, None, 0] * hg[:, None, None, :, 1]
           + hg[:, None, :, None, 1] * hg[:, None, None, :, 0])
        + mq.inv22[:, :, None, None] * hg[:, None, :, None, 1] * hg[:, None, None, :, 1]
    )
    return np.einsum("tq,tqij->tij", w.T, pair)


def _scatter(mesh, contrib):
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.triangles, contrib)
    return out


def _slope(mesh, mq, u):
    grad = p1_gradients(mesh, u)
    return np.sqrt(1.0 + pair_at_quadrature(mesh, mq, grad, grad)), grad


def reference_residual(mesh, metric, u):
    d = geo.discretization(mesh, metric)
    s, grad = _slope(mesh, d.mq, u)
    contrib = np.einsum("tq,tqi->ti", (d.weights / s).T, _hat_pairing(mesh, d.mq, grad))
    return _scatter(mesh, contrib)


def reference_jacobian(mesh, metric, u):
    d = geo.discretization(mesh, metric)
    s, grad = _slope(mesh, d.mq, u)
    b = _hat_pairing(mesh, d.mq, grad)
    data = _pair_elements(mesh, d.mq, d.weights / s) - np.einsum(
        "tq,tqi,tqj->tij", (d.weights / s**3).T, b, b
    )
    return geo.assemble_elements(mesh, data)


def reference_stiffness(mesh, metric):
    d = geo.discretization(mesh, metric)
    return geo.assemble_elements(mesh, _pair_elements(mesh, d.mq, d.weights))


def reference_third_source(mesh, metric, v_j, v_k, v_l):
    d = geo.discretization(mesh, metric)
    mq = d.mq
    gj, gk, gl = (p1_gradients(mesh, v) for v in (v_j, v_k, v_l))
    pair_kl = pair_at_quadrature(mesh, mq, gk, gl).T
    pair_jl = pair_at_quadrature(mesh, mq, gj, gl).T
    pair_jk = pair_at_quadrature(mesh, mq, gj, gk).T
    integrand = (
        _hat_pairing(mesh, mq, gj) * pair_kl[:, :, None]
        + _hat_pairing(mesh, mq, gk) * pair_jl[:, :, None]
        + _hat_pairing(mesh, mq, gl) * pair_jk[:, :, None]
    )
    return _scatter(mesh, np.einsum("tq,tqi->ti", d.weights.T, integrand))


def reference_q_functional(mesh, metric, Q, v1, v2, v3, v4):
    """The six-pairing formula: four gradients, each pairing formed afresh."""
    d = geo.discretization(mesh, metric)
    g1, g2, g3, g4 = (p1_gradients(mesh, geo.nodal_values(mesh, v))
                      for v in (v1, v2, v3, v4))

    def pair(a, b):
        return pair_at_quadrature(mesh, d.mq, a, b)

    combo = pair(g4, g1) * pair(g3, g2) + pair(g4, g2) * pair(g3, g1) + pair(g4, g3) * pair(g1, g2)
    weighted = idn._q_at_quadrature(mesh, Q) * combo
    out = (d.weights * weighted).sum()
    return complex(out) if np.iscomplexobj(weighted) else float(out)


def _rel(a, b):
    a = a.toarray() if hasattr(a, "toarray") else a
    b = b.toarray() if hasattr(b, "toarray") else b
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.fixture(scope="module")
def fields():
    mesh = geo.disc(12, 72)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    u = 0.4 * np.sin(2.0 * x) + 0.3 * x * y + 0.2 * y * y
    vs = [x + 0.1 * y, x * x - y * y, np.cos(x) * y]
    return mesh, u, vs


@pytest.mark.parametrize("metric", [CURVED, CONFORMAL], ids=["curved", "conformal"])
def test_kernels_match_per_quadrature_point_reference(fields, metric):
    mesh, u, vs = fields
    assert _rel(fwd.mse_residual(mesh, metric, u), reference_residual(mesh, metric, u)) < 1e-13
    assert _rel(
        fwd.mse_linearized_operator(mesh, metric, u), reference_jacobian(mesh, metric, u)
    ) < 1e-13
    assert _rel(
        geo.assemble_weighted_stiffness(mesh, metric), reference_stiffness(mesh, metric)
    ) < 1e-13
    assert _rel(
        lin.third_linearization_source(mesh, metric, *vs),
        reference_third_source(mesh, metric, *vs),
    ) < 1e-13


@pytest.mark.parametrize(
    "metric", [FLAT, CURVED, CONFORMAL], ids=["flat", "curved", "conformal"]
)
def test_q_functional_matches_six_pairing_reference(fields, metric, monkeypatch):
    # the density forms each pairing from a raised gradient, so it rounds
    # differently from the six pairings of the metric entries; 100-triangle
    # blocks split the 864 triangles into nine, the last ragged, and a
    # constant metric's one-column inverse must serve every block.  The
    # weights: a field, a constant (a plain number) and None (Q = 1)
    mesh = fields[0]
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    weights = (lambda x, y: 0.1 * np.exp(-(x * x + y * y)), lambda x, y: 0.3, None)
    u = np.exp(3j * (x + 0.5 * y)) * (1.0 + 0.2 * y)
    v = np.exp(-2j * (x - y))
    u_bar = np.conj(u)
    distinct = (u, v, np.exp(1j * x * y) + x, np.cos(2.0 * y) - 1j * x * x)
    for block in (idn._BLOCK, 100):
        monkeypatch.setattr(idn, "_BLOCK", block)
        for weight in weights:
            for args in ((u, u, v, v), (u, u, u_bar, u_bar), distinct):
                got = idn.q_functional(mesh, metric, weight, *args)
                want = reference_q_functional(mesh, metric, weight, *args)
                assert abs(got - want) <= 1e-13 * abs(want)


def reference_hat_pair_elements(mesh, m11, m12, m22):
    """The broadcasting element kernel: (n_tri, 3, 3) products, accumulated."""
    hx = _hat_columns(mesh)[:, :, None, 0]  # (n_tri, 3, 1)
    hy = _hat_columns(mesh)[:, :, None, 1]
    out = hx * hx.transpose(0, 2, 1)
    out *= geo._point_sum(m11)[:, None, None]
    xy = hx * hy.transpose(0, 2, 1)
    xy = xy + xy.transpose(0, 2, 1)
    xy *= geo._point_sum(m12)[:, None, None]
    out += xy
    yy = hy * hy.transpose(0, 2, 1)
    yy *= geo._point_sum(m22)[:, None, None]
    out += yy
    return out


@pytest.mark.parametrize("metric", [FLAT, CURVED, CONFORMAL], ids=["flat", "curved", "conformal"])
def test_hat_pair_elements_match_broadcasting_reference_bit_for_bit(fields, metric):
    # the six distinct entries on (n_tri,) rows repeat the broadcasting
    # kernel's operations in its order, so K and J do not move
    mesh, u, _ = fields
    d = geo.discretization(mesh, metric)
    mq, w = d.mq, d.weights
    rng = np.random.default_rng(2)
    for m in ((w * mq.inv11, w * mq.inv12, w * mq.inv22),
              tuple(rng.standard_normal((3, mesh.n_triangles)) for _ in range(3))):
        got = geo.hat_pair_elements(mesh, *m)
        assert np.array_equal(got, reference_hat_pair_elements(mesh, *m))
        assert np.array_equal(got, got.transpose(0, 2, 1))


# The formulas of the (n_tri, 3) layout, on (n_tri, 3) columns: the
# residual, the Jacobian's element data and K must not move by a bit.


def _column_sum(a):
    return a[:, 0] + a[:, 1] + a[:, 2]


def columns_gradient_rows(mesh, u):
    hg = _hat_columns(mesh)
    v = u[mesh.triangles]
    return [v[:, 0] * hg[:, 0, c] + v[:, 1] * hg[:, 1, c] + v[:, 2] * hg[:, 2, c]
            for c in (0, 1)]


def columns_raised_gradient(mq, gx, gy):
    gx, gy = gx[:, None], gy[:, None]
    return mq.inv11 * gx + mq.inv12 * gy, mq.inv12 * gx + mq.inv22 * gy


def columns_slope_factor(mesh, mq, u):
    gx, gy = columns_gradient_rows(mesh, u)
    ax, ay = columns_raised_gradient(mq, gx, gy)
    return np.sqrt(1.0 + (ax * gx[:, None] + ay * gy[:, None])), ax, ay


def columns_hat_flux_loads(mesh, fx, fy):
    hg = _hat_columns(mesh)
    contrib = hg[:, :, 0] * _column_sum(fx)[:, None] + hg[:, :, 1] * _column_sum(fy)[:, None]
    return np.bincount(
        mesh.triangles.ravel(), weights=contrib.ravel(), minlength=mesh.n_vertices
    )


def _same_csr(A, B):
    return all(np.array_equal(a, b) for a, b in
               ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)))


@pytest.mark.parametrize("metric", [FLAT, CURVED, CONFORMAL], ids=["flat", "curved", "conformal"])
def test_kernels_match_the_column_formulas_bit_for_bit(fields, metric, counting):
    mesh, u, _ = fields
    d = geo.discretization(mesh, metric)
    mq, w = _columns(d.mq), d.weights.T
    s, ax, ay = columns_slope_factor(mesh, mq, u)
    c, c3 = w / s, w / s**3
    assert np.array_equal(
        fwd.mse_residual(mesh, metric, u), columns_hat_flux_loads(mesh, c * ax, c * ay)
    )

    assemblies = counting(geo, "assemble_elements")
    J = fwd.mse_linearized_operator(mesh, metric, u)
    data = reference_hat_pair_elements(mesh, *(
        m.T for m in (c * mq.inv11 - c3 * (ax * ax),
                      c * mq.inv12 - c3 * (ax * ay),
                      c * mq.inv22 - c3 * (ay * ay))
    ))
    assert np.array_equal(assemblies[0][0][1], data)
    assert _same_csr(J, geo.assemble_elements(mesh, data))

    K = geo.assemble_weighted_stiffness(mesh, metric)
    data = reference_hat_pair_elements(
        mesh, *((w * g).T for g in (mq.inv11, mq.inv12, mq.inv22))
    )
    assert _same_csr(K, geo.assemble_elements(mesh, data))


SCALAR_ENTRIES = geo.explicit_metric(lambda x, y: (2.0, 0.5, 1.0))


@pytest.mark.parametrize(
    "metric", [FLAT, SCALAR_ENTRIES, CURVED, CONFORMAL],
    ids=["flat", "scalar-entries", "curved", "conformal"],
)
def test_quadrature_data_are_c_contiguous_rows(fields, metric, counting):
    # every elementwise kernel runs over contiguous rows; a ufunc on a
    # transposed view would return F-ordered arrays and lose that silently.
    # The metric data are kept at the shape the metric varies in: rows for
    # a varying metric; for a constant one, three numbers of the inverse,
    # one weight row read through a zero stride, and one raised gradient
    # per triangle
    mesh, u, _ = fields
    d = geo.discretization(mesh, metric)
    rows = (3, mesh.n_triangles)
    constant = metric in (FLAT, SCALAR_ENTRIES)
    assert d.mq.inverse.shape == ((3, 1, 1) if constant else (3,) + rows)
    assert d.mq.inverse.flags.c_contiguous
    raised = geo._raised_gradient(d.mq.inverse, geo.p1_gradient_rows(mesh, u))
    if constant:
        w = d.mq.weights
        assert w.shape == rows and w.strides == (0, w.itemsize)
        assert not w.flags.writeable and w[0].flags.c_contiguous
        g11, g12, g22 = geo._metric_entries(metric, 0.0, 0.0)
        want = (mesh.tri_areas[:, None] * geo._QUAD_WEIGHTS) * np.sqrt(g11 * g22 - g12**2)
        assert np.array_equal(w.T, want)
        assert raised.shape == (2, 1, mesh.n_triangles) and raised.flags.c_contiguous
        # the kernels it feeds still write (3, n_tri) rows
        s, _ = fwd._slope_factor(mesh, d.mq, u)
        loads = counting(fwd, "hat_flux_loads")
        fwd.mse_residual(mesh, metric, u)
        for a in (d.weights / s, loads[0][0][1]):
            assert a.shape[-2:] == rows and a.flags.c_contiguous
    else:
        for a in (d.mq.weights, d.weights, d.mq.inv11, d.mq.inv12, d.mq.inv22):
            assert a.shape == rows and a.flags.c_contiguous
        assert raised.shape == (2,) + rows and raised.flags.c_contiguous
    for a in (mesh.hat_gradients, mesh.quad_points):
        assert a.shape == (2,) + rows and a.flags.c_contiguous
    # the points and weights are those of the per-triangle rule, re-laid
    p = mesh.vertices[mesh.triangles]
    assert np.array_equal(mesh.quad_points, (geo._QUAD_BARY @ p).transpose(2, 1, 0))
    # the owner's weights are the metric block's, not a copy
    assert d.weights is d.mq.weights


FULL_FLAT = geo.explicit_metric(
    lambda x, y: (np.ones_like(x), np.zeros_like(x), np.ones_like(x))
)


@pytest.mark.parametrize(
    "build",
    [lambda: geo.disc(12, 72), lambda: geo.square(8), lambda: geo.annulus(0.5, 1.5, 8, 48)],
    ids=["disc", "square", "annulus"],
)
def test_flat_metric_keeps_three_numbers_and_moves_no_bit(build):
    # x * 1.0, x * 0.0 and their sums are the same floats whether the 1.0 is
    # one number or a row: the compact flat metric matches one that returns
    # an entry per point, bit for bit, in every kernel
    mesh = build()
    x, y = mesh.vertices.T
    u = 0.3 * np.sin(2.0 * x) + 0.2 * x * y
    compact, full = (geo.discretization(mesh, g) for g in (FLAT, FULL_FLAT))
    assert compact.mq.inverse.size == 3
    assert full.mq.inverse.shape == (3, 3, mesh.n_triangles)
    assert np.array_equal(compact.weights, full.weights)

    def both(f):
        return f(FLAT), f(FULL_FLAT)

    assert _same_csr(*both(lambda g: geo.assemble_weighted_stiffness(mesh, g)))
    assert _same_csr(*both(lambda g: fwd.mse_linearized_operator(mesh, g, u)))
    (r, s), (r_full, s_full) = both(lambda g: fwd.mse_residual(mesh, g, u, with_slope=True))
    assert np.array_equal(r, r_full) and np.array_equal(s, s_full)
    vs = (x + 0.1 * y, x * x - y * y, np.cos(x) * y)
    assert np.array_equal(*both(lambda g: lin.third_linearization_source(mesh, g, *vs)))
    # probe-like fields: complex exponentials of a harmonic phase
    z = x + 1j * y
    p, q = np.exp(2j * z * z), np.exp(2j * np.conj(z * z))
    weight = lambda x, y: 0.1 * np.exp(-(x * x + y * y))
    forms = both(lambda g: idn.q_form(mesh, g, weight))
    assert forms[0](p, p, q, q) == forms[1](p, p, q, q)
    assert forms[0](p, q, u, z) == forms[1](p, q, u, z)
    bg, bg_full = compact.boundary, full.boundary
    for name in ("ds", "arclength", "successor", "predecessor"):
        assert np.array_equal(getattr(bg, name), getattr(bg_full, name))
    assert bg.loop_lengths == bg_full.loop_lengths
    assert _same_csr(bg.mass, bg_full.mass)
    (value, point), (value_full, point_full) = (d.conformal_defect for d in (compact, full))
    assert value == value_full and np.array_equal(point, point_full)


@pytest.mark.parametrize(
    "metric", [FLAT, SCALAR_ENTRIES, CURVED, CONFORMAL],
    ids=["flat", "scalar-entries", "curved", "conformal"],
)
def test_weights_row_is_area_times_rule_weight_times_volume_factor(fields, metric):
    # the metric block keeps |T| w_q sqrt(det g) in place of sqrt(det g):
    # bit for bit the product of the per-triangle rule, with det g formed
    # here from the metric's own entries
    mesh = fields[0]
    x, y = (geo._QUAD_BARY @ mesh.vertices[mesh.triangles]).transpose(2, 1, 0)
    g11, g12, g22 = geo._metric_entries(metric, x, y)
    sqrt_det = np.sqrt(g11 * g22 - g12**2)
    want = (mesh.tri_areas[:, None] * geo._QUAD_WEIGHTS) * sqrt_det.T
    assert np.array_equal(geo.discretization(mesh, metric).mq.weights.T, want)


@pytest.mark.parametrize(
    "build",
    [lambda: geo.disc(12, 72), lambda: geo.disc(128, 768), lambda: geo.square(8),
     lambda: geo.annulus(0.5, 1.5, 16, 96)],
    ids=["disc12", "disc128", "square8", "annulus16"],
)
def test_quadrature_points_are_the_per_triangle_matmul_bit_for_bit(build):
    # Mesh writes the product straight into its (2, 3, n_tri) rows; the
    # reference forms the (n_tri, 3, 2) product and re-lays it
    mesh = build()
    p = mesh.vertices[mesh.triangles]
    want = np.ascontiguousarray((geo._QUAD_BARY @ p).transpose(2, 1, 0))
    assert mesh.quad_points.flags.c_contiguous
    assert np.array_equal(mesh.quad_points, want)


def test_p1_gradients_match_einsum_reference():
    # the unrolled sum adds in the einsum's order, so the result is bitwise equal
    mesh = geo.disc(12, 72)
    rng = np.random.default_rng(5)
    for v in (rng.standard_normal(mesh.n_vertices),
              np.exp(7j * mesh.vertices[:, 0]) * (1.0 + mesh.vertices[:, 1])):
        ref = np.einsum("ti,tic->tc", v[mesh.triangles], _hat_columns(mesh))
        got = p1_gradients(mesh, v)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


SMALL = geo.disc(5, 30)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
nodal = hnp.arrays(
    np.float64,
    SMALL.n_vertices,
    elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)
metrics = st.sampled_from([FLAT, CURVED, CONFORMAL])


@PROPERTY
@given(u=nodal, metric=metrics)
def test_residual_is_odd_bit_for_bit(u, metric):
    assert np.array_equal(
        fwd.mse_residual(SMALL, metric, -u), -fwd.mse_residual(SMALL, metric, u)
    )


@PROPERTY
@given(u=nodal, metric=metrics)
def test_jacobian_is_even_bit_for_bit(u, metric):
    J = fwd.mse_linearized_operator(SMALL, metric, u)
    J_neg = fwd.mse_linearized_operator(SMALL, metric, -u)
    assert (J != J_neg).nnz == 0


@PROPERTY
@given(u=nodal, metric=metrics)
def test_jacobian_is_symmetric(u, metric):
    J = fwd.mse_linearized_operator(SMALL, metric, u)
    assert abs(J - J.T).max() <= 4 * EPS * abs(J).max()


MEDIUM = geo.disc(12, 72)


@PROPERTY
@given(u=hnp.arrays(
    np.float64,
    MEDIUM.n_vertices,
    elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
))
def test_factored_blocks_are_exactly_symmetric_positive_definite(u):
    # geometry.factor_spd pivots on the diagonal without a threshold, which
    # needs K[I, I] and J(u)[I, I] symmetric positive definite
    I = MEDIUM.interior_vertices
    for A in (geo.assemble_weighted_stiffness(MEDIUM, CURVED)[I][:, I],
              fwd.mse_linearized_operator(MEDIUM, CURVED, u)[I][:, I]):
        assert (A != A.T).nnz == 0
        np.linalg.cholesky(A.toarray())
