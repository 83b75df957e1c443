"""Triangulated 2D charts with Riemannian metrics.

This module provides the geometric substrate for the rest of the package:
meshes of linear (P1) triangles, metric fields evaluated at quadrature
points, weighted stiffness/mass assembly, and boundary frames that are
orthonormal with respect to the metric.

Conventions
-----------
* Triangles are stored positively oriented (counterclockwise); construction
  re-orients where necessary and rejects degenerate elements.
* All volume integrals use the order-2 quadrature rule with the three
  interior points at barycentric coordinates (2/3, 1/6, 1/6) and weights
  1/3.  The metric is sampled at the quadrature points, so conformal
  rescalings g -> c*g act on assembled operators exactly at quadrature
  level (in 2D, sqrt(det(c*g)) * (c*g)^{-1} == sqrt(det g) * g^{-1}
  pointwise, which makes the stiffness matrix conformally invariant to
  machine precision).
* Gradients of P1 fields are constant per triangle, so every quadrature
  sum against a hat gradient factors: sum_q w_q g^{-1}(x_q)(grad u,
  grad phi_i) = grad(phi_i) . F_t with the flux F_t = sum_q w_q
  g^{-1}(x_q) grad u, and sum_q w_q g^{-1}(x_q)(grad phi_i, grad phi_j) =
  grad(phi_i)^T M_t grad(phi_j) with the 2x2 tensor M_t = sum_q w_q
  g^{-1}(x_q).  The kernels sum over the quadrature points first and
  contract with ``Mesh.hat_gradients`` once (:func:`hat_flux_loads`,
  :func:`hat_pair_elements`).
* Metric pairings of complex fields are *bilinear*, not Hermitian:
  g(grad u, grad v) = (grad u)^T g^{-1} (grad v) with no conjugation.
  Several downstream functionals rely on this; conjugate explicitly at the
  call site when a Hermitian quantity is wanted.
* Boundary edges are oriented with the domain on the left, so the outer
  loop runs counterclockwise and interior hole loops run clockwise.  The
  Euclidean outward normal is then (t_y, -t_x) for forward tangent t, and
  the g-orthonormal frame is built by raising that normal with g^{-1},
  which keeps g(nu, tau) = 0 exact.  Boundary arrays follow
  ``Mesh.boundary_vertices`` (loops concatenated, outer loop first), and
  :class:`BoundaryGeometry` keeps two index arrays, the position of each
  vertex's successor and of its predecessor on its own loop, so its frame,
  measure, mass matrix and :func:`tangential_derivative` treat all loops
  at once.

One owner per (mesh, metric) pair
---------------------------------
Every operator of the package is computed on one (mesh, metric) pair, and
:func:`discretization` hands out that pair's single :class:`Discretization`.
It is memoized in a dict on the mesh, keyed by the metric, so it lives and
dies with the mesh.  The owner builds each invariant on first use, once,
under its own lock (callers' threads may share a mesh): the metric at
quadrature, the quadrature weights, the stiffness matrix K, the boundary
geometry, and the coupling block K[I, B] with a sparse LU factor of
K[I, I] (I interior, B boundary vertices).  :meth:`Discretization.extend`
solves K u = rhs with Dirichlet values on that factor; every
Laplace-Beltrami solve, harmonic extension and third-linearization solve
goes through it, and the chord steps of every cold minimal-surface solve
run on the same factor (K is the Jacobian at u = 0).  The builders stay
public and build afresh on each call (:func:`assemble_weighted_stiffness`
from the owner's metric at quadrature).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Mesh",
    "MetricField",
    "ScalarField",
    "BoundaryGeometry",
    "Discretization",
    "discretization",
    "square",
    "disc",
    "annulus",
    "flat_metric",
    "explicit_metric",
    "conformal_metric",
    "metric_eval",
    "pair_at_quadrature",
    "interpolate_at_quadrature",
    "quadrature_weights",
    "hat_flux_loads",
    "hat_pair_elements",
    "assemble_elements",
    "assemble_weighted_stiffness",
    "factor_spd",
    "boundary_geometry",
    "boundary_values",
    "tangential_derivative",
]

# Order-2 rule: three interior points, exact for quadratics.
_QUAD_BARY = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)
_QUAD_WEIGHTS = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])

# Two-point Gauss rule on [0, 1], used for g-lengths of boundary edges.
_EDGE_QUAD_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_EDGE_QUAD_W = np.array([0.5, 0.5])


def _cross2(a, b):
    """z-component of the cross product of stacked 2D vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------


class Mesh:
    """Conforming triangulation of a planar chart.

    Parameters
    ----------
    vertices : (n_vertices, 2) array_like
        Vertex coordinates.
    triangles : (n_triangles, 3) array_like of int
        Vertex indices per triangle.  Orientation is normalized to
        counterclockwise on construction.

    Attributes
    ----------
    tri_areas : (n_triangles,) ndarray
        Euclidean triangle areas (all positive).
    hat_gradients : (n_triangles, 3, 2) ndarray
        Euclidean gradients of the three P1 hat functions per triangle.
    quad_points : (n_triangles, 3, 2) ndarray
        Physical coordinates of the volume quadrature points.
    centroids : (n_triangles, 2) ndarray
    boundary_edges : (n_boundary_edges, 2) ndarray
        Directed boundary edges, domain on the left.
    boundary_loops : list of ndarray
        Boundary vertex indices per closed loop, in traversal order.  The
        outer loop (largest enclosed signed area) comes first; each loop is
        rotated to start at its smallest vertex index.
    boundary_vertices : (n_boundary,) ndarray
        Concatenation of the loops; this ordering is the canonical one for
        boundary traces throughout the package.
    is_boundary : (n_vertices,) bool ndarray
    interior_vertices : ndarray
    h : float
        Longest edge in the mesh (Euclidean).
    """

    def __init__(self, vertices, triangles):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError(
                f"vertices must have shape (n, 2), got {vertices.shape}"
            )
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError(
                f"triangles must have shape (m, 3), got {triangles.shape}"
            )
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertices contain non-finite coordinates")
        if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(vertices):
            raise ValueError("triangle indices out of range")

        # Normalize orientation: flip clockwise triangles.
        p = vertices[triangles]
        signed = 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        flip = signed < 0.0
        if np.any(flip):
            triangles = triangles.copy()
            triangles[flip] = triangles[flip][:, [0, 2, 1]]
            p = vertices[triangles]
            signed = 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        scale = max(np.abs(vertices).max(), 1.0)
        if np.any(signed <= 1e-14 * scale**2):
            bad = int(np.argmin(signed))
            raise ValueError(
                f"degenerate triangle {bad} (vertices {triangles[bad].tolist()}, "
                f"area {signed[bad]:.3e})"
            )

        self.vertices = vertices
        self.triangles = triangles
        self.tri_areas = signed

        # P1 hat gradients: grad(phi_i) = perp(p_{i+2} - p_{i+1}) / (2A).
        grads = np.empty((len(triangles), 3, 2))
        for i in range(3):
            e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
            grads[:, i, 0] = -e[:, 1]
            grads[:, i, 1] = e[:, 0]
        grads /= (2.0 * signed)[:, None, None]
        self.hat_gradients = grads

        self.quad_points = np.einsum("qi,tic->tqc", _QUAD_BARY, p)
        self.centroids = p.mean(axis=1)

        edges = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
        self.h = float(np.sqrt((edges**2).sum(axis=1).max()))

        self._build_boundary()

        # one Discretization per metric, see discretization()
        self._discretizations = {}
        self._discretizations_lock = threading.Lock()

    # -- derived structure ---------------------------------------------------

    def _build_boundary(self):
        """Extract directed boundary edges and assemble closed loops."""
        t = self.triangles
        n = len(self.vertices)
        directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        # An edge is on the boundary iff its reversal never occurs; edges are
        # compared as integer keys a * n + b, looked up in the sorted keys.
        keys = np.sort(directed[:, 0] * n + directed[:, 1])
        reversed_keys = directed[:, 1] * n + directed[:, 0]
        at = np.minimum(np.searchsorted(keys, reversed_keys), len(keys) - 1)
        boundary = directed[keys[at] != reversed_keys]
        if not len(boundary):
            raise ValueError("mesh has no boundary edges (closed surface?)")
        self.boundary_edges = boundary

        starts, first = np.unique(boundary[:, 0], return_index=True)
        if len(starts) < len(boundary):
            repeat = np.setdiff1d(np.arange(len(boundary)), first)[0]
            raise ValueError(
                f"non-manifold boundary at vertex {boundary[repeat, 0]} "
                f"(two outgoing edges)"
            )
        succ = dict(zip(boundary[:, 0].tolist(), boundary[:, 1].tolist()))
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
            q = self.vertices[loop]
            return 0.5 * float(_cross2(q, np.roll(q, -1, axis=0)).sum())

        loops.sort(key=lambda lp: -loop_area(lp))
        self.boundary_loops = loops
        self.boundary_vertices = np.concatenate(loops)
        self.is_boundary = np.zeros(len(self.vertices), dtype=bool)
        self.is_boundary[self.boundary_vertices] = True
        self.interior_vertices = np.flatnonzero(~self.is_boundary)

    # -- basic queries -------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def __repr__(self):
        return (
            f"Mesh(n_vertices={self.n_vertices}, n_triangles={self.n_triangles}, "
            f"n_boundary={len(self.boundary_vertices)}, h={self.h:.4g})"
        )


# ---------------------------------------------------------------------------
# Mesh generators
# ---------------------------------------------------------------------------


def square(n):
    """Uniform right-triangle mesh of the unit square [0,1]^2.

    ``n`` cells per side, (n+1)^2 vertices, 2 n^2 triangles.
    """
    if n < 1:
        raise ValueError(f"square(n) needs n >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return Mesh(vertices, np.array(tris))


def _ring_strip(a0, ma, sa, b0, mb, sb):
    """Triangles, counterclockwise, of the band between two adjacent rings.

    The inner ring has vertex ids ``a0 .. a0 + ma - 1``, the outer ring
    ``b0 .. b0 + mb - 1``; vertex k of a ring of m vertices and stagger s
    sits at (2k + s) / 2m turns.  The edges of both rings are merged in the
    angular order of their midpoints, an inner edge first on a tie, and each
    edge closes with the first vertex of the other ring's next edge.
    """
    # edge k joins vertices k and k + 1; its midpoint sits at
    # ((2k + 1 + s) mod 2m) / 2m turns, an exact integer once scaled by 2 ma mb
    key_a = (2 * np.arange(ma) + 1 + sa) % (2 * ma) * mb
    key_b = (2 * np.arange(mb) + 1 + sb) % (2 * mb) * ma
    order = np.lexsort((np.arange(ma + mb) >= ma, np.concatenate([key_a, key_b])))
    outer = order >= ma
    edge = order - ma * outer
    ea, eb = edge[~outer], edge[outer]
    # at each edge, the number of the other ring's edges merged before it
    next_b = eb[np.cumsum(outer)[~outer] % mb]
    next_a = ea[np.cumsum(~outer)[outer] % ma]
    tri = np.empty((ma + mb, 3), dtype=np.int64)
    tri[~outer] = np.column_stack([a0 + ea, b0 + next_b, a0 + (ea + 1) % ma])
    tri[outer] = np.column_stack([b0 + eb, b0 + (eb + 1) % mb, a0 + next_a])
    return tri


def disc(n_radial, n_angular):
    """Quasi-uniform mesh of the unit disc.

    Vertices sit on ``n_radial`` concentric rings (radius i/n_radial) whose
    angular count grows linearly to ``n_angular`` on the outermost ring, with
    alternate rings staggered by half a step.  This keeps triangles close to
    equilateral all the way to the center, where a fixed angular count would
    produce badly stretched elements.

    Connectivity is a ring-strip triangulation: a fan from the center to
    ring 1, then, between each pair of adjacent rings, the two rings' edges
    merged in the angular order of their midpoints (compared exactly, as
    integer fractions of a turn).  An inner edge closes with the current
    outer vertex and an outer edge with the current inner vertex; when two
    midpoints sit at the same angle the inner edge comes first.  For
    ``n_angular >= 4 * n_radial`` this is the Delaunay triangulation of the
    point set.  Below that, Delaunay joins rings that are not adjacent and
    the strips differ from it.  A ring that is not inside the polygon of the
    next one (``n_angular`` well below ``n_radial``) admits no strip and
    raises ValueError; ``n_angular >= n_radial`` always builds.
    """
    if n_radial < 2 or n_angular < 6:
        raise ValueError(
            f"disc(n_radial, n_angular) needs n_radial >= 2 and n_angular >= 6, "
            f"got ({n_radial}, {n_angular})"
        )
    counts = [max(6, int(round(n_angular * i / n_radial))) for i in range(1, n_radial)]
    counts.append(n_angular)
    xs, ys = [np.zeros(1)], [np.zeros(1)]
    for i, m in enumerate(counts, start=1):
        r = i / n_radial
        offset = (np.pi / m) * (i % 2)
        theta = 2.0 * np.pi * np.arange(m) / m + offset
        xs.append(r * np.cos(theta))
        ys.append(r * np.sin(theta))
    vertices = np.column_stack([np.concatenate(xs), np.concatenate(ys)])
    first = np.cumsum([1] + counts)

    ring = np.arange(1, first[1])
    strips = [np.column_stack([np.zeros_like(ring), ring, np.roll(ring, -1)])]
    for i in range(1, n_radial):
        tri = _ring_strip(first[i - 1], counts[i - 1], i % 2,
                          first[i], counts[i], (i + 1) % 2)
        p = vertices[tri]
        if np.any(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) <= 0.0):
            raise ValueError(
                f"disc({n_radial}, {n_angular}): ring {i} ({counts[i - 1]} "
                f"vertices) is not inside ring {i + 1} ({counts[i]} vertices); "
                f"n_angular >= n_radial always builds"
            )
        strips.append(tri)
    return Mesh(vertices, np.concatenate(strips))


def annulus(r0, r1, n_radial, n_angular):
    """Structured tensor-product mesh of the annulus r0 <= r <= r1."""
    if not (0.0 < r0 < r1):
        raise ValueError(f"annulus needs 0 < r0 < r1, got r0={r0}, r1={r1}")
    if n_radial < 1 or n_angular < 3:
        raise ValueError(
            f"annulus needs n_radial >= 1, n_angular >= 3, got "
            f"({n_radial}, {n_angular})"
        )
    rs = np.linspace(r0, r1, n_radial + 1)
    th = 2.0 * np.pi * np.arange(n_angular) / n_angular
    R, T = np.meshgrid(rs, th, indexing="ij")
    vertices = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])

    def vid(i, j):
        return i * n_angular + (j % n_angular)

    tris = []
    for i in range(n_radial):
        for j in range(n_angular):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return Mesh(vertices, np.array(tris))


# ---------------------------------------------------------------------------
# Metric fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricField:
    """Riemannian metric on a chart.

    Two variants:

    * ``kind == "explicit"``: ``entries(x, y)`` returns the matrix entries
      ``(g11, g12, g22)`` for arrays of coordinates.
    * ``kind == "conformal"``: a positive ``factor(x, y)`` multiplying a
      ``base`` metric, i.e. g = c * g_base.  Keeping the factor symbolic (
      rather than folding it into explicit entries) lets conformal pairs
      share quadrature data exactly.

    Use :func:`flat_metric`, :func:`explicit_metric`,
    :func:`conformal_metric` to construct instances.
    """

    kind: str
    entries: Optional[Callable] = None
    base: Optional["MetricField"] = None
    factor: Optional[Callable] = None

    def __post_init__(self):
        if self.kind == "explicit":
            if self.entries is None:
                raise ValueError("explicit metric requires an entries callable")
        elif self.kind == "conformal":
            if self.base is None or self.factor is None:
                raise ValueError("conformal metric requires base and factor")
        else:
            raise ValueError(f"unknown metric kind {self.kind!r}")


def flat_metric():
    """The Euclidean metric."""
    return explicit_metric(
        lambda x, y: (np.ones_like(x), np.zeros_like(x), np.ones_like(x))
    )


def explicit_metric(entries):
    """Metric from a callable ``entries(x, y) -> (g11, g12, g22)``."""
    return MetricField(kind="explicit", entries=entries)


def conformal_metric(base, factor):
    """Metric c * g_base with a positive scalar ``factor(x, y)``."""
    return MetricField(kind="conformal", base=base, factor=factor)


def _metric_entries(metric, x, y):
    """Evaluate (g11, g12, g22) on coordinate arrays, resolving conformal nesting."""
    if metric.kind == "explicit":
        g11, g12, g22 = metric.entries(x, y)
        shape = np.shape(x)
        g11 = np.broadcast_to(np.asarray(g11, dtype=float), shape)
        g12 = np.broadcast_to(np.asarray(g12, dtype=float), shape)
        g22 = np.broadcast_to(np.asarray(g22, dtype=float), shape)
        return g11, g12, g22
    b11, b12, b22 = _metric_entries(metric.base, x, y)
    c = np.broadcast_to(np.asarray(metric.factor(x, y), dtype=float), np.shape(x))
    if np.any(c <= 0.0):
        k = np.unravel_index(int(np.argmin(c)), np.shape(c))
        raise ValueError(
            f"conformal factor must be positive; got {np.min(c):.3e} at "
            f"point ({np.asarray(x)[k]:.4g}, {np.asarray(y)[k]:.4g})"
        )
    return c * b11, c * b12, c * b22


def metric_eval(metric, point):
    """Evaluate the metric at one point as a 2x2 matrix.

    Raises
    ------
    ValueError
        If the matrix is not symmetric positive definite there.
    """
    x = np.asarray([float(point[0])])
    y = np.asarray([float(point[1])])
    g11, g12, g22 = _metric_entries(metric, x, y)
    g = np.array([[g11[0], g12[0]], [g12[0], g22[0]]])
    det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    if not (np.isfinite(g).all() and g[0, 0] > 0.0 and det > 0.0):
        raise ValueError(
            f"metric is not SPD at point ({point[0]:.4g}, {point[1]:.4g}): "
            f"g11={g[0, 0]:.4g}, det={det:.4g}"
        )
    return g


@dataclass(frozen=True)
class _MetricQuad:
    """Metric data at the volume quadrature points (each array (n_tri, 3))."""

    sqrt_det: np.ndarray
    inv11: np.ndarray
    inv12: np.ndarray
    inv22: np.ndarray


def metric_at_quadrature(mesh, metric):
    """Evaluate the volume factor and inverse metric at quadrature points."""
    x = mesh.quad_points[..., 0]
    y = mesh.quad_points[..., 1]
    g11, g12, g22 = _metric_entries(metric, x, y)
    det = g11 * g22 - g12**2
    if not (np.all(np.isfinite(det)) and np.all(det > 0.0) and np.all(g11 > 0.0)):
        bad = tuple(int(i) for i in np.unravel_index(int(np.argmin(det)), det.shape))
        raise ValueError(
            f"metric is not SPD at quadrature point {bad} "
            f"(x={x[bad]:.4g}, y={y[bad]:.4g}): g11={g11[bad]:.4g}, det={det[bad]:.4g}"
        )
    return _MetricQuad(
        sqrt_det=np.sqrt(det),
        inv11=g22 / det,
        inv12=-g12 / det,
        inv22=g11 / det,
    )


# ---------------------------------------------------------------------------
# Scalar fields and P1 calculus
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Nodal P1 field on a mesh (real or complex values)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.mesh.n_vertices,):
            raise ValueError(
                f"field has {values.shape} values for a mesh with "
                f"{self.mesh.n_vertices} vertices"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", values)


def nodal_values(mesh, field):
    """Coerce a ScalarField / nodal array / callable(x, y) to a nodal array."""
    if isinstance(field, ScalarField):
        if field.mesh is not mesh:
            raise ValueError("field is attached to a different mesh")
        return field.values
    if callable(field):
        vals = np.asarray(field(mesh.vertices[:, 0], mesh.vertices[:, 1]))
        return np.broadcast_to(vals, (mesh.n_vertices,)).copy()
    vals = np.asarray(field)
    if vals.shape != (mesh.n_vertices,):
        raise ValueError(
            f"expected {mesh.n_vertices} nodal values, got shape {vals.shape}"
        )
    return vals


def p1_gradients(mesh, values):
    """Euclidean gradient of the P1 interpolant, one constant vector per triangle."""
    v = np.asarray(values)[mesh.triangles]  # (nt, 3)
    hg = mesh.hat_gradients
    return np.column_stack(
        [v[:, 0] * hg[:, 0, c] + v[:, 1] * hg[:, 1, c] + v[:, 2] * hg[:, 2, c] for c in (0, 1)]
    )


def pair_at_quadrature(mesh, mq, grad_u, grad_v):
    """g(grad u, grad v) at quadrature points, (n_tri, 3).

    ``grad_u``/``grad_v`` are per-triangle Euclidean gradients (n_tri, 2);
    ``mq`` is the output of :func:`metric_at_quadrature`.  Bilinear (no
    conjugation).
    """
    return (
        mq.inv11 * (grad_u[:, 0] * grad_v[:, 0])[:, None]
        + mq.inv12 * (grad_u[:, 0] * grad_v[:, 1] + grad_u[:, 1] * grad_v[:, 0])[:, None]
        + mq.inv22 * (grad_u[:, 1] * grad_v[:, 1])[:, None]
    )


def _raised_gradient(mq, grad):
    """g^{-1} grad u at the quadrature points as two (n_tri, 3) arrays (x, y).

    ``grad`` is the per-triangle Euclidean gradient (n_tri, 2).
    """
    gx, gy = grad[:, :1], grad[:, 1:]
    return mq.inv11 * gx + mq.inv12 * gy, mq.inv12 * gx + mq.inv22 * gy


def interpolate_at_quadrature(mesh, values):
    """P1 interpolation of nodal values to the quadrature points, (n_tri, 3)."""
    v = np.asarray(values)[mesh.triangles]
    return np.einsum("qi,ti->tq", _QUAD_BARY, v)


def quadrature_weights(mesh, mq):
    """Weights of the volume rule against dV_g at each quadrature point, (n_tri, 3)."""
    return (mesh.tri_areas[:, None] * _QUAD_WEIGHTS) * mq.sqrt_det


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _point_sum(a):
    """Sum over the three quadrature points, (n_tri, 3) -> (n_tri,).

    Adds in the order of ``a.sum(axis=1)``, several times faster than a
    numpy reduction over a length-3 axis.
    """
    return a[:, 0] + a[:, 1] + a[:, 2]


def hat_flux_loads(mesh, fx, fy):
    """Load vector with entries sum_t grad(phi_i) . F_t over the support of phi_i.

    ``fx``/``fy`` (each (n_tri, 3)) hold a weighted real vector integrand at
    the quadrature points; the flux F_t is its sum over the points.
    """
    hg = mesh.hat_gradients
    contrib = hg[:, :, 0] * _point_sum(fx)[:, None] + hg[:, :, 1] * _point_sum(fy)[:, None]
    return np.bincount(
        mesh.triangles.ravel(), weights=contrib.ravel(), minlength=mesh.n_vertices
    )


def hat_pair_elements(mesh, m11, m12, m22):
    """Element matrices grad(phi_i)^T M_t grad(phi_j), (n_tri, 3, 3).

    ``m11``, ``m12``, ``m22`` (each (n_tri, 3)) hold a weighted symmetric
    2x2 tensor field at the quadrature points; M_t is its sum over the
    points.  Each element matrix is exactly symmetric.
    """
    hx = mesh.hat_gradients[:, :, None, 0]  # (n_tri, 3, 1)
    hy = mesh.hat_gradients[:, :, None, 1]
    # m11 hx_i hx_j + m12 (hx_i hy_j + hy_i hx_j) + m22 hy_i hy_j, accumulated
    # in place so that at most three (n_tri, 3, 3) arrays are alive at once
    out = hx * hx.transpose(0, 2, 1)
    out *= _point_sum(m11)[:, None, None]
    xy = hx * hy.transpose(0, 2, 1)
    xy = xy + xy.transpose(0, 2, 1)
    xy *= _point_sum(m12)[:, None, None]
    out += xy
    yy = hy * hy.transpose(0, 2, 1)
    yy *= _point_sum(m22)[:, None, None]
    out += yy
    return out


def assemble_elements(mesh, data):
    """Sum per-triangle element matrices (n_tri, 3, 3) into a CSR matrix."""
    rows = np.broadcast_to(mesh.triangles[:, :, None], data.shape)
    cols = np.broadcast_to(mesh.triangles[:, None, :], data.shape)
    return sp.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())),
        shape=(mesh.n_vertices, mesh.n_vertices),
    ).tocsr()


def assemble_weighted_stiffness(mesh, metric):
    """Assemble the Laplace-Beltrami stiffness K_ij = integral of g(grad phi_i, grad phi_j) dV_g.

    Assembles afresh on every call; ``discretization(mesh, metric).stiffness``
    is the shared copy.

    Returns
    -------
    scipy.sparse.csr_matrix, symmetric.
    """
    d = discretization(mesh, metric)
    mq, w = d.mq, d.weights
    return assemble_elements(
        mesh, hat_pair_elements(mesh, w * mq.inv11, w * mq.inv12, w * mq.inv22)
    )


def factor_spd(A):
    """Sparse LU factor of a symmetric positive definite matrix.

    Every factored matrix of the package is SPD: the interior stiffness
    block K[I, I], and the interior Newton Jacobian block J(u)[I, I], whose
    area integrand sqrt(1 + |p|^2) is strictly convex.  A symmetric
    minimum-degree ordering of A^T + A (Liu, ACM TOMS 11, 1985) and
    diagonal pivots (SuperLU's symmetric mode, Li, ACM TOMS 31, 2005) then
    suit them: they cut the fill of the default COLAMD column ordering by
    about 40% on the interior stiffness block, and the solves with it.
    """
    return spla.splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


# ---------------------------------------------------------------------------
# Boundary geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundaryGeometry:
    """g-orthonormal frame and measure on the mesh boundary.

    All per-vertex arrays follow the ``mesh.boundary_vertices`` ordering
    (loops concatenated, outer loop first).

    Attributes
    ----------
    normal, tangent : (n_b, 2) ndarray
        Outward g-unit normal nu and forward g-unit tangent tau:
        g(nu, nu) = g(tau, tau) = 1 and g(nu, tau) = 0.
    ds : (n_b,) ndarray
        Lumped boundary measure dS_g (half the g-length of the two adjacent
        edges); sums to the total g-perimeter.
    arclength : (n_b,) ndarray
        Cumulative g-arclength, restarting at 0 on each loop.
    mass : csr_matrix (n_b, n_b)
        Consistent boundary mass matrix for dS_g pairings.
    loop_slices : list of slice
        Position of each loop inside the concatenated arrays.
    successor, predecessor : (n_b,) int ndarray
        Position of the next and of the previous vertex on the same loop;
        boundary edge k runs from position k to ``successor[k]``.
    loop_lengths : list of float
        Total g-length per loop.
    """

    normal: np.ndarray
    tangent: np.ndarray
    ds: np.ndarray
    arclength: np.ndarray
    mass: sp.csr_matrix
    loop_slices: list
    successor: np.ndarray
    predecessor: np.ndarray
    loop_lengths: list

    def pair(self, a, b):
        """Consistent pairing integral of (P1 traces) a * b dS_g (bilinear)."""
        return np.asarray(a) @ (self.mass @ np.asarray(b))


def _g_sq(g, a):
    """g(a, a) for stacked vectors a (n, 2) and metric entries g = (g11, g12, g22)."""
    g11, g12, g22 = g
    return g11 * a[:, 0] ** 2 + 2 * g12 * a[:, 0] * a[:, 1] + g22 * a[:, 1] ** 2


def boundary_geometry(mesh, metric):
    """Build the g-orthonormal boundary frame and boundary measure.

    The Euclidean forward tangent at a vertex averages the two adjacent
    edge directions; the outward normal is the raised Euclidean normal
    g^{-1} n (which is automatically g-orthogonal to the tangent), and both
    are normalized to unit g-length.  Edge g-lengths use two-point Gauss
    quadrature along each edge.
    """
    sizes = [len(loop) for loop in mesh.boundary_loops]
    stops = np.cumsum(sizes)
    starts = stops - sizes
    loop_slices = [slice(a, b) for a, b in zip(starts.tolist(), stops.tolist())]
    successor = np.arange(1, stops[-1] + 1)
    successor[stops - 1] = starts
    predecessor = np.arange(-1, stops[-1] - 1)
    predecessor[starts] = stops - 1

    p = mesh.vertices[mesh.boundary_vertices]
    edge = p[successor] - p  # edge k: position k -> successor[k]
    elen = np.zeros(len(p))
    for t, wq in zip(_EDGE_QUAD_T, _EDGE_QUAD_W):
        q = p + t * edge
        elen += wq * np.sqrt(_g_sq(_metric_entries(metric, q[:, 0], q[:, 1]), edge))

    # Vertex frame from averaged adjacent edge directions.
    unit = edge / np.linalg.norm(edge, axis=1)[:, None]
    t_avg = unit + unit[predecessor]
    g = g11, g12, g22 = _metric_entries(metric, p[:, 0], p[:, 1])
    tangent = t_avg / np.sqrt(_g_sq(g, t_avg))[:, None]
    # normal: raise the Euclidean normal covector (t_y, -t_x), then normalize in g
    det = g11 * g22 - g12**2
    nu = np.column_stack([g22 * t_avg[:, 1] + g12 * t_avg[:, 0],
                          -g12 * t_avg[:, 1] - g11 * t_avg[:, 0]]) / det[:, None]
    normal = nu / np.sqrt(_g_sq(g, nu))[:, None]
    _check_frame(g, normal, tangent)

    # Consistent boundary mass: per edge, elen * [[1/3, 1/6], [1/6, 1/3]].
    ends = np.column_stack([np.arange(len(p)), successor])
    entries = (elen[:, None] / [3.0, 6.0, 6.0, 3.0]).ravel()
    rows, cols = np.repeat(ends, 2, axis=1).ravel(), np.tile(ends, 2).ravel()
    mass = sp.coo_matrix((entries, (rows, cols)), shape=(len(p), len(p))).tocsr()
    return BoundaryGeometry(
        normal=normal,
        tangent=tangent,
        ds=0.5 * (elen + elen[predecessor]),
        # per loop, so each sum runs in the order of the loop alone
        arclength=np.concatenate(
            [np.cumsum(np.r_[0.0, elen[sl][:-1]]) for sl in loop_slices]
        ),
        mass=mass,
        loop_slices=loop_slices,
        successor=successor,
        predecessor=predecessor,
        loop_lengths=[float(elen[sl].sum()) for sl in loop_slices],
    )


def _check_frame(g, normal, tangent, tol=1e-12):
    """Verify g-orthonormality of the boundary frame (construction invariant).

    g(nu, tau) is read by polarization, (g(nu + tau) - g(nu - tau)) / 4.
    """
    err = max(
        np.abs(_g_sq(g, normal) - 1.0).max(),
        np.abs(_g_sq(g, tangent) - 1.0).max(),
        np.abs(_g_sq(g, normal + tangent) - _g_sq(g, normal - tangent)).max() / 4.0,
    )
    if err > tol:
        raise AssertionError(
            f"boundary frame failed g-orthonormality check: max error {err:.3e}"
        )


def boundary_values(mesh, data):
    """Evaluate boundary data as an array in ``boundary_vertices`` order.

    ``data`` may be a callable(x, y), a full nodal array/ScalarField, or an
    array already in boundary ordering.
    """
    bidx = mesh.boundary_vertices
    if isinstance(data, ScalarField):
        return data.values[bidx]
    if callable(data):
        p = mesh.vertices[bidx]
        vals = np.asarray(data(p[:, 0], p[:, 1]))
        return np.broadcast_to(vals, (len(bidx),)).copy()
    vals = np.asarray(data)
    if vals.shape == (mesh.n_vertices,):
        return vals[bidx]
    if vals.shape == (len(bidx),):
        return vals
    raise ValueError(
        f"boundary data has shape {vals.shape}; expected callable, "
        f"({mesh.n_vertices},) nodal array, or ({len(bidx)},) boundary array"
    )


def tangential_derivative(bg, values):
    """d(values)/ds_g along the boundary by centered differences per loop.

    ``values`` is in boundary ordering; second-order accurate on smooth
    loops with smoothly varying edge lengths.
    """
    values = np.asarray(values)
    s = bg.arclength
    fwd = values[bg.successor] - values
    ds_fwd = s[bg.successor] - s
    bwd = values - values[bg.predecessor]
    ds_bwd = s - s[bg.predecessor]
    # across each loop's seam the arclength restarts, so add the loop's length
    ds_fwd[[sl.stop - 1 for sl in bg.loop_slices]] += bg.loop_lengths
    ds_bwd[[sl.start for sl in bg.loop_slices]] += bg.loop_lengths
    # centered difference on a nonuniform grid
    return (ds_bwd * fwd / ds_fwd + ds_fwd * bwd / ds_bwd) / (ds_bwd + ds_fwd)


# ---------------------------------------------------------------------------
# One owner per (mesh, metric)
# ---------------------------------------------------------------------------


class Discretization:
    """Invariants of one (mesh, metric) pair, each built once on first use.

    Obtain it with :func:`discretization`; see the module docstring.  Each
    piece is built by the public builder of the same quantity
    (:func:`metric_at_quadrature`, :func:`quadrature_weights`,
    :func:`assemble_weighted_stiffness`, :func:`boundary_geometry`, and
    :func:`factor_spd` for the interior factor) under the owner's
    lock, so concurrent first uses build it once.  The lock is reentrant
    because building K reads the metric at quadrature.  K[I, I] is not kept
    once factored.

    Attributes
    ----------
    mq : _MetricQuad
        Metric at the quadrature points: ``sqrt_det``, ``inv11``, ``inv12``
        and ``inv22``, each (n_tri, 3).
    weights : (n_tri, 3) ndarray
        Quadrature weights against dV_g.
    stiffness : csr_matrix
        Laplace-Beltrami stiffness matrix K.
    boundary : BoundaryGeometry
    interior_system : (csr_matrix, SuperLU)
        The coupling block K[I, B] and the factor of K[I, I].  K is the
        minimal-surface Jacobian at u = 0, so the factor also serves the
        chord steps of a cold nonlinear solve.
    """

    def __init__(self, mesh, metric):
        self.mesh = mesh
        self.metric = metric
        self._lock = threading.RLock()
        self._built = {}

    def _piece(self, name, build):
        piece = self._built.get(name)
        if piece is None:
            with self._lock:
                piece = self._built.get(name)
                if piece is None:
                    piece = self._built[name] = build()
        return piece

    @property
    def mq(self):
        return self._piece("mq", lambda: metric_at_quadrature(self.mesh, self.metric))

    @property
    def weights(self):
        return self._piece("weights", lambda: quadrature_weights(self.mesh, self.mq))

    @property
    def stiffness(self):
        return self._piece(
            "stiffness", lambda: assemble_weighted_stiffness(self.mesh, self.metric)
        )

    @property
    def boundary(self):
        return self._piece("boundary", lambda: boundary_geometry(self.mesh, self.metric))

    def _factor_interior(self):
        K_I = self.stiffness[self.mesh.interior_vertices]
        coupling = K_I[:, self.mesh.boundary_vertices]
        return coupling, factor_spd(K_I[:, self.mesh.interior_vertices])

    @property
    def interior_system(self):
        return self._piece("interior_system", self._factor_interior)

    def extend(self, bvals, rhs=None):
        """Solve K u = rhs with u = ``bvals`` on the boundary vertices.

        Symmetric elimination on the cached factor: the interior unknowns
        solve K[I, I] u_I = rhs[I] - K[I, B] bvals.  ``bvals`` is in boundary
        ordering; ``rhs`` is a full-length load vector, None for the
        discrete-harmonic extension (rhs = 0).  Complex data is solved as its
        real and imaginary parts, two columns of one solve.
        """
        mesh = self.mesh
        bvals = np.asarray(bvals)
        if bvals.shape != (len(mesh.boundary_vertices),):
            raise ValueError(
                f"expected {len(mesh.boundary_vertices)} boundary values, "
                f"got shape {bvals.shape}"
            )
        coupling, lu = self.interior_system
        I = mesh.interior_vertices
        load = 0.0 if rhs is None else np.asarray(rhs)[I]
        reduced = load - coupling @ bvals
        u = np.zeros(mesh.n_vertices, dtype=np.result_type(reduced, float))
        u[mesh.boundary_vertices] = bvals
        if np.iscomplexobj(reduced):
            parts = lu.solve(np.column_stack([reduced.real, reduced.imag]))
            u[I] = parts[:, 0] + 1j * parts[:, 1]
        else:
            u[I] = lu.solve(reduced)
        return u


def discretization(mesh, metric):
    """The one :class:`Discretization` of (mesh, metric), memoized on the mesh."""
    with mesh._discretizations_lock:
        d = mesh._discretizations.get(metric)
        if d is None:
            d = mesh._discretizations[metric] = Discretization(mesh, metric)
    return d
