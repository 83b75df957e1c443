"""Tests for meshes, metrics, assembly, boundary frames and the owner."""

import gc
import os
import re
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import pytest
from hypothesis import example, given, settings, strategies as st

from minsurf import forward as fwd
from minsurf import geometry as geo

from test_kernels import p1_gradients, pair_at_quadrature

CURVED = lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)
EPS = np.finfo(float).eps


def test_square_mesh_basics():
    m = geo.square(8)
    assert m.n_vertices == 81
    assert m.n_triangles == 128
    assert len(m.boundary_vertices) == 32
    assert abs(m.tri_areas.sum() - 1.0) < 1e-14
    assert abs(m.h - np.sqrt(2.0) / 8) < 1e-14


def test_structured_meshes_pin_their_triangles():
    # two triangles per cell, cells in row order; the last cell of an
    # annulus ring closes it back to the ring's first vertex
    assert geo.square(2).triangles.tolist() == [
        [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
        [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7],
    ]
    assert geo.annulus(0.5, 1.5, 1, 3).triangles.tolist() == [
        [0, 3, 4], [0, 4, 1], [1, 4, 5], [1, 5, 2], [2, 5, 3], [2, 3, 0],
    ]


def test_disc_mesh_basics():
    d = geo.disc(10, 60)
    # polygon boundary: area slightly below pi
    assert 0 < np.pi - d.tri_areas.sum() < 0.02
    assert len(d.boundary_loops) == 1
    assert len(d.boundary_vertices) == 60
    # quasi-uniform: no tiny or huge triangles relative to median
    med = np.median(d.tri_areas)
    assert d.tri_areas.min() > 0.1 * med
    assert d.tri_areas.max() < 10.0 * med


# every disc size of the CLI defaults, the benchmark workloads, the tests and
# the README examples
DISC_SIZES = [(5, 30), (6, 36), (8, 48), (10, 60), (12, 48), (12, 72), (16, 96),
              (24, 144), (48, 288), (64, 384), (96, 576), (128, 768)]


@pytest.mark.parametrize("n_radial, n_angular", DISC_SIZES)
def test_disc_strips_are_the_delaunay_triangulation(n_radial, n_angular):
    from scipy.spatial import Delaunay

    mesh = geo.disc(n_radial, n_angular)
    qhull = Delaunay(mesh.vertices).simplices
    np.testing.assert_array_equal(np.unique(np.sort(mesh.triangles, axis=1), axis=0),
                                  np.unique(np.sort(qhull, axis=1), axis=0))


def test_disc_tie_takes_the_inner_edge_first():
    # disc(2, 9): edge (1, 2) of ring 1 and edge (8, 9) of ring 2 both have
    # their midpoint at 1/6 turn, so their trapezoid is cocircular; the
    # inner edge first closes it with the diagonal 2-8
    mesh = geo.disc(2, 9)
    mid = mesh.vertices[[1, 8]] + mesh.vertices[[2, 9]]
    assert abs(np.arctan2(mid[:, 1], mid[:, 0]) - np.pi / 3).max() < 1e-15
    edges = {frozenset(e) for t in mesh.triangles.tolist()
             for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))}
    assert {2, 8} in edges and {1, 9} not in edges


def _opposite_angle_sums(mesh):
    """Sum of the two angles facing each interior edge."""
    t, p = mesh.triangles, mesh.vertices[mesh.triangles]
    keys, angles = [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        u, w = p[:, j] - p[:, i], p[:, k] - p[:, i]
        angles.append(np.arctan2(u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0],
                                 (u * w).sum(axis=1)))
        keys.append(np.minimum(t[:, j], t[:, k]) * mesh.n_vertices
                    + np.maximum(t[:, j], t[:, k]))
    _, edge, count = np.unique(np.concatenate(keys), return_inverse=True,
                               return_counts=True)
    return np.bincount(edge, weights=np.concatenate(angles))[count == 2]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_radial=st.integers(2, 40), extra=st.integers(0, 80))
def test_disc_interior_edges_are_locally_delaunay(n_radial, extra):
    # a property of the triangulation itself, whichever diagonal a cocircular
    # trapezoid gets
    mesh = geo.disc(n_radial, min(4 * n_radial + extra, 200))
    assert _opposite_angle_sums(mesh).max() <= np.pi + 1e-12


def _ring_outside_next(n_radial, n_angular):
    """Whether a vertex of some ring lies on or outside the next ring's polygon."""
    counts = [max(6, round(n_angular * i / n_radial)) for i in range(1, n_radial)]
    counts.append(n_angular)
    for i in range(1, n_radial):
        m, m_next = counts[i - 1], counts[i]
        theta = (2 * np.arange(m) + i % 2) * np.pi / m
        # angle to the nearest edge midpoint of ring i + 1
        step = 2 * np.pi / m_next
        offset = (theta - ((i + 1) % 2) * np.pi / m_next) % step - step / 2
        if np.any(i * np.cos(offset) >= (i + 1) * np.cos(np.pi / m_next) - 1e-12):
            return True
    return False


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n_radial=st.integers(2, 40), n_angular=st.integers(6, 200))
@example(n_radial=10, n_angular=6)
@example(n_radial=40, n_angular=32)
@example(n_radial=40, n_angular=33)
@example(n_radial=7, n_angular=6)
def test_disc_builds_one_polygon_unless_a_ring_leaves_the_next(n_radial, n_angular):
    if _ring_outside_next(n_radial, n_angular):
        assert n_angular < n_radial
        with pytest.raises(ValueError, match="is not inside ring"):
            geo.disc(n_radial, n_angular)
        return
    mesh = geo.disc(n_radial, n_angular)
    [loop] = mesh.boundary_loops
    assert len(loop) == n_angular
    q = mesh.vertices[loop]
    e = np.roll(q, -1, axis=0)
    assert (q[:, 0] * e[:, 1] - q[:, 1] * e[:, 0]).sum() > 0
    polygon = 0.5 * n_angular * np.sin(2 * np.pi / n_angular)
    assert abs(mesh.tri_areas.sum() - polygon) <= 1e-12


def test_annulus_mesh_two_loops():
    a = geo.annulus(0.5, 1.5, 8, 48)
    assert len(a.boundary_loops) == 2
    exact = np.pi * (1.5**2 - 0.5**2)
    assert abs(a.tri_areas.sum() - exact) / exact < 5e-3
    # outer loop first (sorted by enclosed signed area), and CCW
    outer = a.boundary_loops[0]
    q = a.vertices[outer]
    e = np.roll(q, -1, axis=0)
    signed = 0.5 * (q[:, 0] * e[:, 1] - q[:, 1] * e[:, 0]).sum()
    assert signed > 0
    radii = np.linalg.norm(q, axis=1)
    assert np.allclose(radii, 1.5)
    # loops start at their smallest vertex index (deterministic ordering)
    for loop in a.boundary_loops:
        assert loop[0] == loop.min()


def test_orientation_normalization_and_degenerate_rejection():
    verts = [[0, 0], [1, 0], [0, 1]]
    m = geo.Mesh(verts, [[0, 2, 1]])  # clockwise input
    assert m.tri_areas[0] > 0
    with pytest.raises(ValueError, match="degenerate"):
        geo.Mesh([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])


def test_metric_eval_flat_and_spd_rejection():
    g = geo.flat_metric()
    np.testing.assert_allclose(geo.metric_eval(g, (0.3, 0.7)), np.eye(2))
    bad = lambda x, y: (x - 10.0, 0.0 * x, np.ones_like(x))
    with pytest.raises(ValueError, match=r"not SPD at point .*\(x=0, y=0\.5\)"):
        geo.metric_eval(bad, (0.0, 0.5))
    m = geo.square(4)
    # the quadrature index prints as plain ints, not numpy scalars
    with pytest.raises(ValueError, match=r"SPD at quadrature point \(\d+, \d+\) "):
        geo.metric_at_quadrature(m, bad)


def test_spd_rejection_names_the_first_point_in_triangle_order():
    # the metric at quadrature is stored point by point, as (3, n_tri) rows,
    # but the first failing point is still found and printed triangle first
    m = geo.square(4)
    bad = (
        lambda x, y: (np.where(x + 0.3 * y > 0.9, -1.0, 1.0), 0.0 * x, np.ones_like(x))
    )
    x, y = m.quad_points
    failing = np.argwhere((x + 0.3 * y > 0.9).T)  # (triangle, point), in order
    t, q = failing[0]
    # the first failing point of the (point, triangle) order is another one
    assert (q, t) != tuple(np.argwhere(x + 0.3 * y > 0.9)[0])
    with pytest.raises(ValueError, match=rf"SPD at quadrature point \({t}, {q}\) "):
        geo.metric_at_quadrature(m, bad)


def _message(build, metric, *args):
    with pytest.raises(ValueError) as err:
        build(metric, *args)
    return str(err.value)


def test_scalar_entries_fail_as_their_arrays_do():
    # constant entries stay 0-d; every failure report broadcasts them to the
    # samples first and names the same point with the same numbers
    m = geo.square(4)
    x, y = m.quad_points
    scalar = lambda x, y: (-1.0, 0.0, 1.0)
    full = lambda x, y: (-np.ones_like(x), np.zeros_like(x), np.ones_like(x))
    builds = [
        lambda g: geo.metric_at_quadrature(m, g),
        lambda g: geo.metric_eval(g, (0.3, 0.7)),
        lambda g: geo.boundary_geometry(m, g),
    ]
    for build in builds:
        assert _message(build, scalar) == _message(build, full)
    assert _message(builds[0], scalar).startswith(
        f"metric is not SPD at quadrature point (0, 0) (x={x[0, 0]:.4g}, "
        f"y={y[0, 0]:.4g}): g11=-1, det=-1")
    assert "not SPD at point (0,) (x=0.3, y=0.7)" in _message(builds[1], scalar)
    negative = geo.conformal_metric(geo.flat_metric(), lambda x, y: -2.0)
    full = geo.conformal_metric(geo.flat_metric(), lambda x, y: -2.0 * np.ones_like(x))
    for build in builds:
        message = _message(build, negative)
        assert message == _message(build, full)
        assert message.startswith("conformal factor must be positive; got -2.000e+00")


def test_conformal_factor_positivity():
    g = geo.conformal_metric(geo.flat_metric(), lambda x, y: x - 0.5)
    m = geo.square(4)
    with pytest.raises(ValueError, match="positive"):
        geo.metric_at_quadrature(m, g)


def test_flat_stiffness_five_point_stencil():
    # On the uniform right-triangle square mesh, the P1 Laplace stiffness row
    # of an interior vertex is the classical 5-point stencil: 4 on the
    # diagonal, -1 to the four axis neighbors, independent of h.
    n = 6
    m = geo.square(n)
    K = geo.assemble_weighted_stiffness(m, geo.flat_metric()).tocsr()
    v = 3 * (n + 1) + 3  # interior vertex (3, 3)
    row = K[v].toarray().ravel()
    assert abs(row[v] - 4.0) < 1e-13
    for nb in (v - 1, v + 1, v - (n + 1), v + (n + 1)):
        assert abs(row[nb] + 1.0) < 1e-13
    assert abs(row.sum()) < 1e-13
    # symmetry
    assert abs((K - K.T)).max() < 1e-14


CHART = geo.disc(12, 72)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    scale=st.floats(1e-3, 1e3),
    bump=st.floats(0.0, 2.0),
    center=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    width=st.floats(0.2, 1.0),
)
def test_stiffness_conformal_invariance(scale, bump, center, width):
    # In 2D, sqrt(det(c g)) (c g)^{-1} = sqrt(det g) g^{-1} pointwise, so c
    # cancels at every quadrature point and K(c g) equals K(g) to rounding
    # (measured at most 2 eps relative to max |K|).
    cx, cy = center

    def factor(x, y):
        return scale * (1.0 + bump * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / width**2))

    K1 = geo.assemble_weighted_stiffness(CHART, CURVED)
    K2 = geo.assemble_weighted_stiffness(CHART, geo.conformal_metric(CURVED, factor))
    assert abs(K1 - K2).max() <= 16 * EPS * abs(K1).max()


def test_inner_product_is_bilinear_not_hermitian():
    # For u = x + i y on the flat metric, g(grad u, grad u) = 1 + i^2 = 0.
    # A Hermitian pairing would give 2; the bilinear extension is required.
    m = geo.square(5)
    u = m.vertices[:, 0] + 1j * m.vertices[:, 1]
    mq = geo.metric_at_quadrature(m, geo.flat_metric())
    gu = p1_gradients(m, u)
    ip = pair_at_quadrature(m, mq, gu, gu)
    assert np.abs(ip).max() < 1e-14
    ip_mixed = pair_at_quadrature(m, mq, gu, p1_gradients(m, np.conj(u)))
    np.testing.assert_allclose(ip_mixed, 2.0, atol=1e-14)


def test_quadrature_exact_for_quadratics():
    m = geo.square(5)
    w = geo.discretization(m, geo.flat_metric()).weights
    x, y = m.quad_points
    val = (w * (x**2 + y**2)).sum()
    assert abs(val - 2.0 / 3.0) < 1e-14


def test_boundary_measure_scales_with_metric():
    m = geo.square(6)
    g = geo.flat_metric()
    bg = geo.boundary_geometry(m, g)
    assert abs(bg.ds.sum() - 4.0) < 1e-12
    assert abs(bg.edge_lengths.sum() - 4.0) < 1e-12
    # constant conformal factor c scales lengths by sqrt(c)
    cg = geo.conformal_metric(g, lambda x, y: np.full_like(x, 4.0))
    bg2 = geo.boundary_geometry(m, cg)
    assert abs(bg2.ds.sum() - 8.0) < 1e-12
    # consistent mass integrates constants like the lumped weights
    ones = np.ones(len(m.boundary_vertices))
    assert abs(bg.pair(ones, ones) - bg.ds.sum()) < 1e-12


def _loop_slices(mesh):
    """Position of each boundary loop inside the concatenated boundary arrays."""
    stops = np.cumsum([len(loop) for loop in mesh.boundary_loops]).tolist()
    return [slice(a, b) for a, b in zip([0] + stops[:-1], stops)]


def test_tangential_derivative_second_order():
    # d/ds sin(2 theta) = +-2 cos(2 theta) / r: the outer loop runs
    # counterclockwise (+), the annulus' inner loop clockwise (-)
    g = geo.flat_metric()
    for build in (lambda n: geo.disc(n, 6 * n), lambda n: geo.annulus(0.5, 1.5, 4, 2 * n)):
        errs = []
        for n in (12, 24):
            mesh = build(n)
            bg = geo.boundary_geometry(mesh, g)
            f = geo.boundary_values(mesh, lambda x, y: np.sin(2 * np.arctan2(y, x)))
            dfds = geo.tangential_derivative(bg, f)
            p = mesh.vertices[mesh.boundary_vertices]
            exact = 2 * np.cos(2 * np.arctan2(p[:, 1], p[:, 0])) / np.linalg.norm(p, axis=1)
            errs.append([np.abs(dfds[sl] - sign * exact[sl]).max()
                         for sl, sign in zip(_loop_slices(mesh), (1, -1))])
        for coarse, fine in zip(*errs):
            assert fine < coarse / 3.0  # ~ 4x for O(h^2)


def test_boundary_values_coercion():
    m = geo.square(4)
    f = lambda x, y: x + 2 * y
    from_callable = geo.boundary_values(m, f)
    full = f(m.vertices[:, 0], m.vertices[:, 1])
    np.testing.assert_allclose(from_callable, full[m.boundary_vertices])
    np.testing.assert_allclose(geo.boundary_values(m, from_callable), from_callable)
    with pytest.raises(ValueError, match="shape"):
        geo.boundary_values(m, np.zeros(7))
    # layouts are checked, not guessed: a nodal array is no boundary data,
    # and a boundary-ordered array no field
    with pytest.raises(ValueError, match="boundary_vertices order"):
        geo.boundary_values(m, full)
    with pytest.raises(ValueError, match="nodal values"):
        geo.nodal_values(m, np.zeros(len(m.boundary_vertices)))
    with pytest.raises(ValueError, match="nodal values"):
        geo.nodal_values(m, np.zeros((m.n_vertices, 1)))


def _reference_boundary(mesh):
    """Boundary edges, loops and interior of the set-of-tuples construction."""
    t = mesh.triangles
    directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = set(map(tuple, directed.tolist()))
    boundary = [e for e in directed.tolist() if (e[1], e[0]) not in keys]
    succ = dict(boundary)
    loops = []
    remaining = set(succ)
    while remaining:
        start = min(remaining)
        loop = [start]
        remaining.discard(start)
        v = succ[start]
        while v != start:
            loop.append(v)
            remaining.discard(v)
            v = succ[v]
        loops.append(np.array(loop, dtype=np.int64))

    def loop_area(loop):
        q = mesh.vertices[loop]
        e = np.roll(q, -1, axis=0)
        return 0.5 * float((q[:, 0] * e[:, 1] - q[:, 1] * e[:, 0]).sum())

    loops.sort(key=lambda lp: -loop_area(lp))
    is_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    is_boundary[np.concatenate(loops)] = True
    return np.array(boundary, dtype=np.int64), loops, np.flatnonzero(~is_boundary)


BOUNDARY_MESHES = pytest.mark.parametrize(
    "build",
    [
        lambda: geo.disc(24, 144),
        lambda: geo.disc(128, 768),
        lambda: geo.square(10),
        lambda: geo.annulus(0.5, 1.5, 4, 24),
        lambda: geo.square(8),
        lambda: geo.disc(12, 72),
        lambda: geo.annulus(0.5, 1.5, 16, 96),
    ],
    ids=["disc24", "disc128", "square10", "annulus", "square8", "disc12",
         "annulus16"],
)


@BOUNDARY_MESHES
def test_boundary_extraction_matches_reference(build):
    mesh = build()
    edges, loops, interior = _reference_boundary(mesh)
    # each consecutive pair of a loop, wrapping around, is a directed
    # boundary edge, and together the loops walk every boundary edge once
    walked = np.concatenate(
        [np.column_stack([lp, np.roll(lp, -1)]) for lp in mesh.boundary_loops]
    )
    by_row = lambda e: e[np.lexsort(e.T[::-1])]
    np.testing.assert_array_equal(by_row(walked), by_row(edges))
    # the hashed np.isin membership test is the reference for the sorted lookup
    t, n = mesh.triangles, mesh.n_vertices
    directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    on_boundary = ~np.isin(directed[:, 1] * n + directed[:, 0],
                           directed[:, 0] * n + directed[:, 1])
    np.testing.assert_array_equal(by_row(walked), by_row(directed[on_boundary]))
    assert walked.dtype == edges.dtype
    assert len(mesh.boundary_loops) == len(loops)
    for got, want in zip(mesh.boundary_loops, loops):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(mesh.interior_vertices, interior)


@BOUNDARY_MESHES
def test_interior_order_is_a_repeatable_permutation_of_the_interior(build):
    mesh = build()
    order = mesh.interior_order
    assert order.dtype == mesh.interior_vertices.dtype
    np.testing.assert_array_equal(np.sort(order), mesh.interior_vertices)
    np.testing.assert_array_equal(build().interior_order, order)


def test_nested_dissection_leaves_less_fill_than_minimum_degree():
    # the ordered block with its columns kept in order, against SuperLU's
    # minimum-degree order of A^T + A on the sorted block
    mesh = geo.disc(96, 576)
    I, O = mesh.interior_vertices, mesh.interior_order
    K = geo.assemble_weighted_stiffness(mesh, geo.flat_metric())
    nested = geo.factor_spd(K[O][:, O])
    minimum_degree = spla.splu(K[I][:, I].tocsc(), permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    assert (nested.L.nnz + nested.U.nnz
            < minimum_degree.L.nnz + minimum_degree.U.nnz)


def _reference_boundary_geometry(mesh, metric):
    """Fields of the per-loop construction of the boundary measure."""
    verts = mesh.vertices
    n_b = len(mesh.boundary_vertices)
    ds = np.empty(n_b)
    arclength = np.empty(n_b)
    edge_lengths = np.empty(n_b)
    loop_slices = []
    rows, cols, vals = [], [], []
    pos = 0
    for loop in mesh.boundary_loops:
        m = len(loop)
        sl = slice(pos, pos + m)
        loop_slices.append(sl)
        p = verts[loop]
        edge = np.roll(p, -1, axis=0) - p
        elen = np.zeros(m)
        for t, wq in zip(geo._EDGE_QUAD_T, geo._EDGE_QUAD_W):
            q = p + t * edge
            g11, g12, g22 = geo._metric_entries(metric, q[:, 0], q[:, 1])
            quad = (g11 * edge[:, 0] ** 2 + 2 * g12 * edge[:, 0] * edge[:, 1]
                    + g22 * edge[:, 1] ** 2)
            elen += wq * np.sqrt(quad)
        edge_lengths[sl] = elen
        ds[sl] = 0.5 * (elen + np.roll(elen, 1))
        arclength[sl] = np.concatenate([[0.0], np.cumsum(elen[:-1])])
        for k in range(m):
            a = pos + k
            b = pos + (k + 1) % m
            rows.extend([a, a, b, b])
            cols.extend([a, b, a, b])
            vals.extend([elen[k] / 3.0, elen[k] / 6.0, elen[k] / 6.0, elen[k] / 3.0])
        pos += m
    mass = sp.coo_matrix((vals, (rows, cols)), shape=(n_b, n_b)).tocsr()
    return dict(ds=ds, arclength=arclength, mass=mass, edge_lengths=edge_lengths,
                loop_slices=loop_slices)


def _reference_tangential_derivative(ref, values):
    """Per-loop centered differences of the reference construction."""
    out = np.empty_like(values)
    for sl in ref["loop_slices"]:
        v = values[sl]
        ds_fwd = ref["edge_lengths"][sl]
        fwd = np.roll(v, -1) - v
        ds_bwd = np.roll(ds_fwd, 1)
        bwd = v - np.roll(v, 1)
        out[sl] = (ds_bwd * fwd / ds_fwd + ds_fwd * bwd / ds_bwd) / (ds_bwd + ds_fwd)
    return out


@BOUNDARY_MESHES
def test_boundary_geometry_matches_per_loop_reference(build):
    mesh = build()
    conformal = geo.conformal_metric(CURVED, lambda x, y: np.exp(0.3 * x - 0.2 * y))
    f = geo.boundary_values(mesh, lambda x, y: np.sin(3.0 * x + 0.7) + x * y * y)
    for metric in (geo.flat_metric(), CURVED, conformal):
        bg = geo.boundary_geometry(mesh, metric)
        ref = _reference_boundary_geometry(mesh, metric)
        for name in ("ds", "arclength", "edge_lengths"):
            np.testing.assert_array_equal(getattr(bg, name), ref[name], err_msg=name)
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(bg.mass, part),
                                          getattr(ref["mass"], part), err_msg=part)
        for sl in ref["loop_slices"]:
            pos = np.arange(sl.start, sl.stop)
            np.testing.assert_array_equal(bg.successor[sl], np.roll(pos, -1))
            np.testing.assert_array_equal(bg.predecessor[sl], np.roll(pos, 1))
        np.testing.assert_array_equal(geo.tangential_derivative(bg, f),
                                      _reference_tangential_derivative(ref, f))


def test_boundary_geometry_rejects_a_metric_not_spd_on_the_boundary():
    # SPD at every volume quadrature point, g11 = -1 at the boundary vertices
    mesh = geo.disc(6, 36)
    rim = (lambda x, y: (
        np.where(x * x + y * y > 0.999, -1.0, 1.0), 0.0 * x, 1.0 + 0.0 * x))
    geo.metric_at_quadrature(mesh, rim)
    with pytest.raises(ValueError, match="not SPD at boundary vertex"):
        geo.boundary_geometry(mesh, rim)


def test_dropping_a_mesh_frees_its_owner_without_a_collection():
    mesh = geo.disc(8, 48)
    d = geo.discretization(mesh, geo.flat_metric())
    for piece in ("mq", "weights", "boundary", "interior_system", "boundary_rows",
                  "conformal_defect"):
        getattr(d, piece)
    fwd.solve_minimal_surface(mesh, geo.flat_metric(), lambda x, y: 0.3 * x * y)
    owner = weakref.ref(d)
    del d
    enabled = gc.isenabled()
    gc.disable()
    try:
        del mesh
        assert owner() is None
    finally:
        if enabled:
            gc.enable()


def test_an_owner_whose_mesh_is_gone_says_so():
    d = geo.discretization(geo.disc(6, 36), geo.flat_metric())
    with pytest.raises(ReferenceError, match="mesh of this Discretization"):
        d.boundary_rows


def test_discretization_is_memoized_per_mesh_and_metric():
    mesh = geo.disc(8, 48)
    flat, curved = geo.flat_metric(), (
        lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)
    )
    d = geo.discretization(mesh, flat)
    assert geo.discretization(mesh, flat) is d
    assert geo.discretization(mesh, curved) is not d
    assert geo.discretization(geo.disc(8, 48), flat) is not d
    assert d.interior_system is d.interior_system
    assert d.boundary_rows is d.boundary_rows
    # the kept boundary rows are those of the K the builder assembles
    K = geo.assemble_weighted_stiffness(mesh, flat)
    assert abs(d.boundary_rows - K[mesh.boundary_vertices]).max() == 0.0
    # Dirichlet elimination reproduces affine data exactly, and the
    # zero-data solve honours a load
    f = geo.boundary_values(mesh, lambda x, y: 1.0 + 2.0 * x - y)
    u = d.interior_system.extend(f)
    exact = 1.0 + 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
    assert np.abs(u - exact).max() < 1e-13
    load = np.ones(mesh.n_vertices)
    w = d.interior_system.solve(load)
    I = mesh.interior_vertices
    assert np.abs((K @ w)[I] - 1.0).max() < 1e-12
    assert (w[mesh.boundary_vertices] == 0.0).all()


def test_every_flat_metric_shares_one_owner():
    # flat_metric() returns the one entries function, so the owners of a
    # mesh do not multiply with the calls: one assembly of K and one factor
    # serve them
    mesh = geo.disc(8, 48)
    assert geo.flat_metric() is geo.flat_metric()
    assert geo.discretization(mesh, geo.flat_metric()) is geo.discretization(
        mesh, geo.flat_metric())
    assert len(mesh._discretizations) == 1


def test_the_owner_is_keyed_by_the_metric_callable():
    # one metric object, one owner; equal values from two callables, or one
    # conformal metric built twice, are two metrics and two owners
    mesh = geo.disc(6, 36)
    first = lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)
    second = lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)
    assert geo.discretization(mesh, first) is geo.discretization(mesh, first)
    assert geo.discretization(mesh, first) is not geo.discretization(mesh, second)
    factor = lambda x, y: 1.0 + x * x
    conformal = [geo.conformal_metric(first, factor) for _ in range(2)]
    assert geo.discretization(mesh, conformal[0]) is not geo.discretization(
        mesh, conformal[1])
    assert len(mesh._discretizations) == 4


def test_a_nested_conformal_metric_evaluates_its_base_first():
    x = np.linspace(-1.0, 1.0, 9)
    y = 0.5 * x
    inner = lambda x, y: x - 0.5  # nonpositive for x <= 0.5
    outer = lambda x, y: np.full_like(x, -2.0)  # nonpositive everywhere
    nested = geo.conformal_metric(geo.conformal_metric(CURVED, inner), outer)
    with pytest.raises(ValueError, match=re.escape(
            "conformal factor must be positive; got -1.500e+00 at point (-1, -0.5)")):
        nested(x, y)
    # with both factors positive, the entries are c2 * (c1 * g), bit for bit
    c1 = lambda x, y: 1.0 + 0.5 * x * x + 0.2 * y
    c2 = lambda x, y: np.exp(0.3 * x - 0.2 * y)
    nested = geo.conformal_metric(geo.conformal_metric(CURVED, c1), c2)
    expected = [c2(x, y) * (c1(x, y) * g) for g in CURVED(x, y)]
    for got, want in zip(geo._metric_entries(nested, x, y), expected):
        assert got.tobytes() == want.tobytes()


def test_threads_sharing_a_mesh_build_the_owner_once(counting):
    # callers' threads may share one mesh: the first uses of the owner race,
    # and each piece must still be built exactly once, with every solve
    # equal bit for bit to the serial one; the owner's system takes its
    # factor at first use, so the one splu call also covers that race
    n_threads = 8
    metric = lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y)
    data = [
        (lambda x, y, k=k: np.cos(k * np.arctan2(y, x)) + 0.1 * k * x * y)
        for k in range(n_threads)
    ]
    serial_mesh = geo.disc(16, 96)
    serial = [fwd.solve_laplace_beltrami(serial_mesh, metric, f) for f in data]

    calls = {
        name: counting(module, name)
        for module, name in ((geo, "metric_at_quadrature"),
                             (geo, "assemble_weighted_stiffness"),
                             (geo, "boundary_geometry"), (spla, "splu"))
    }

    mesh = geo.disc(16, 96)
    start = threading.Barrier(n_threads)

    def solve(f):
        start.wait(timeout=60)
        geo.discretization(mesh, metric).boundary
        return fwd.solve_laplace_beltrami(mesh, metric, f)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = [pool.submit(solve, f) for f in data]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)

    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)
    for got, want in zip(results, serial):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "build",
    [lambda: geo.disc(12, 72), lambda: geo.square(8),
     lambda: geo.annulus(0.5, 1.5, 8, 48)],
    ids=["disc", "square", "annulus"],
)
@pytest.mark.parametrize("metric", [geo.flat_metric(), CURVED], ids=["flat", "curved"])
def test_boundary_rows_give_the_weak_flux_of_k_bit_for_bit(build, metric):
    # the owner keeps K[B] in place of K: every weak flux (K v)[B] is read
    # off the kept rows, and must not move by a bit
    mesh = build()
    K = geo.assemble_weighted_stiffness(mesh, metric)
    rows = geo.discretization(mesh, metric).boundary_rows
    rng = np.random.default_rng(7)
    for v in (rng.standard_normal(mesh.n_vertices),
              rng.standard_normal((mesh.n_vertices, 3))):
        assert (rows @ v).tobytes() == (K @ v)[mesh.boundary_vertices].tobytes()


def test_factor_spd_solves_match_the_default_factor():
    # on the sorted blocks and on the blocks in the mesh's elimination order
    mesh = geo.disc(12, 72)
    I, O = mesh.interior_vertices, mesh.interior_order
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    u = 0.4 * np.sin(2.0 * x) + 0.3 * x * y
    rhs = np.random.default_rng(3).standard_normal((len(I), 2))
    K = geo.assemble_weighted_stiffness(mesh, CURVED)
    J = fwd.mse_linearized_operator(mesh, CURVED, u)
    for A in (K[I][:, I], J[I][:, I], K[O][:, O], J[O][:, O]):
        want = spla.splu(A.tocsc()).solve(rhs)
        got = geo.factor_spd(A).solve(rhs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_factored_blocks_are_their_own_csc_arrays():
    # factor_spd hands SuperLU the sorted CSR arrays of A[O, O] as its CSC
    # arrays, which is exact only if the block is bit-symmetric
    mesh = geo.disc(24, 144)
    O = mesh.interior_order
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    u = 0.4 * np.sin(2.0 * x) + 0.3 * x * y
    K = geo.assemble_weighted_stiffness(mesh, CURVED)
    J = fwd.mse_linearized_operator(mesh, CURVED, u)
    for A in (K, J):
        block = A[O][:, O]
        block.sort_indices()
        csc = block.tocsc()
        for name in ("data", "indices", "indptr"):
            assert getattr(block, name).tobytes() == getattr(csc, name).tobytes()
    # relax > panel_size has crashed the interpreter at exit
    assert 0 < geo._SUPERLU_RELAX <= geo._SUPERLU_PANEL_SIZE


FACTOR_MEMORY = """
from minsurf import geometry as geo

mesh = geo.disc(128, 768)
O = mesh.interior_order
K = geo.assemble_weighted_stiffness(mesh, geo.flat_metric())
lu = geo.factor_spd(K[O][:, O])
with open("/proc/self/status") as fh:
    fields = dict(line.split(":", 1) for line in fh)
print(fields["VmHWM"].split()[0], fields["VmRSS"].split()[0])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_factor_scratch_does_not_set_the_peak():
    # the mesh build peaks below the RSS the factor keeps, so a high-water
    # mark above that RSS is the factor's own scratch: at SuperLU's default
    # panel_size 20 it is 16 MB on this block
    proc = subprocess.run(
        [sys.executable, "-c", FACTOR_MEMORY],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    hwm_kb, rss_kb = map(int, proc.stdout.split())
    assert hwm_kb - rss_kb <= 4 * 1024


def test_multi_column_extension_matches_per_column_solves():
    # k columns share one solve (2k real columns for complex data), both for
    # Dirichlet data and for loads
    mesh = geo.disc(12, 72)
    system = geo.discretization(mesh, CURVED).interior_system
    bx, by = mesh.vertices[mesh.boundary_vertices].T
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    data = np.column_stack([np.exp(k * 1j * bx) * (1.0 + by) for k in (1, 3, 5)])
    load = np.column_stack([np.exp(-k * 1j * y) * x for k in (1, 2, 3)])
    for method, arrays in ((system.extend, data), (system.solve, load)):
        for cols in (arrays, arrays.real, arrays[:, :1]):
            got = method(cols)
            want = np.column_stack([method(cols[:, k]) for k in range(cols.shape[1])])
            assert got.shape == want.shape == (mesh.n_vertices, cols.shape[1])
            assert got.dtype == want.dtype == cols.dtype
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    with pytest.raises(ValueError, match="boundary values"):
        system.extend(np.ones((len(bx), 2, 2)))


def test_complex_loads_are_the_loads_of_their_parts():
    # np.bincount takes real weights only: a complex integrand is scattered
    # as its real and its imaginary part, bit for bit
    mesh = geo.disc(8, 48)
    rng = np.random.default_rng(3)
    shape = (2, 3, mesh.n_triangles)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = geo.hat_flux_loads(mesh, f)
    assert got.dtype == complex
    assert np.array_equal(got.real, geo.hat_flux_loads(mesh, f.real))
    assert np.array_equal(got.imag, geo.hat_flux_loads(mesh, f.imag))
    # the residual, which shares the kernel, still rejects a complex field
    with pytest.raises(ValueError, match="real fields only"):
        fwd.mse_residual(mesh, CURVED, mesh.vertices @ np.array([1.0, 1j]))


def test_complex_extension_is_its_real_and_imaginary_extensions():
    # complex data and complex loads are solved as two columns of one solve
    mesh = geo.disc(12, 72)
    system = geo.discretization(mesh, CURVED).interior_system
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    data = geo.boundary_values(mesh, lambda x, y: np.exp(5j * x) * (1.0 + y))
    load = np.exp(-2j * y) * x
    for method, values in ((system.extend, data), (system.solve, load)):
        got = method(values)
        want = method(values.real) + 1j * method(values.imag)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 2)],
                         ids=["vector", "one-column", "two-columns"])
def test_complex_extension_without_interior_vertices(shape):
    # square(1) is two triangles on four boundary vertices: the extension is
    # the data itself
    mesh = geo.square(1)
    assert len(mesh.interior_vertices) == 0
    data = np.exp(1j * np.arange(8.0))[:np.prod(shape)].reshape(shape)
    system = geo.discretization(mesh, CURVED).interior_system
    got = system.extend(data)
    assert got.shape == shape and got.dtype == complex
    assert np.array_equal(got[mesh.boundary_vertices], data)
    # a load has no interior row to act on: the zero-data solve is zero
    x = system.solve(data)
    assert x.shape == shape and x.dtype == complex and not x.any()
