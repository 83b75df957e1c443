"""Triangulated 2D charts with Riemannian metrics.

This module provides the geometric substrate for the rest of the package:
meshes of linear (P1) triangles, metrics (callables ``(x, y) -> (g11,
g12, g22)``) evaluated at quadrature points, weighted stiffness assembly,
and the boundary measure of the metric with its loop indexing.

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
* Per-triangle data are laid out as rows over the triangles (structure of
  arrays; Cuvelier, Japhet & Scarella, BIT 56, 2016): data at the
  quadrature points as C-contiguous (3, n_tri) arrays, one row per point,
  and ``Mesh.hat_gradients`` and ``Mesh.quad_points`` as (2, 3, n_tri), x
  and y first.  Every kernel product with a per-triangle factor (n_tri,)
  then runs over contiguous rows, and sums over the points add the three
  rows (:func:`_point_sum`).  Each per-triangle quantity is kept once: the
  mesh keeps its areas and hat gradients and forms the quadrature points
  on each read, and the metric block keeps the weights |T| w_q sqrt(det g)
  in place of sqrt(det g).  The metric data are kept at the shape the
  metric varies in: a constant metric, the flat one included, keeps three
  numbers of the inverse and one weight row, read as (3, n_tri) through a
  zero stride (the rule's three weights are equal), and its raised
  gradient g^{-1} grad u of a P1 field is one (2, 1, n_tri) block, one
  vector per triangle; the kernels broadcast them against the rows.
* Metric pairings of complex fields are *bilinear*, not Hermitian:
  g(grad u, grad v) = (grad u)^T g^{-1} (grad v) with no conjugation.
  Several downstream functionals rely on this; conjugate explicitly at the
  call site when a Hermitian quantity is wanted.
* Boundary edges are oriented with the domain on the left, so the outer
  loop runs counterclockwise and interior hole loops run clockwise.  The
  boundary geometry is the g-measure (lumped dS_g, g-arclength, consistent
  mass matrix) plus its loop indexing: boundary arrays follow
  ``Mesh.boundary_vertices`` (loops concatenated, outer loop first), and
  :class:`BoundaryGeometry` keeps two index arrays, the position of each
  vertex's successor and of its predecessor on its own loop, and the
  g-length of each edge to its successor, so its measure, mass matrix and
  :func:`tangential_derivative` treat all loops at once.  Fluxes are read
  weakly against dS_g, so no per-vertex normal is needed.

One owner per (mesh, metric) pair
---------------------------------
Every operator of the package is computed on one (mesh, metric) pair, and
:func:`discretization` hands out that pair's single :class:`Discretization`.
It is memoized in a dict on the mesh, keyed by the metric callable (every
:func:`flat_metric` is one function, while a :func:`conformal_metric` built
twice is two, with two owners), and refers back to its mesh only weakly, so
it lives and dies with the mesh: dropping the last reference to a mesh
frees its owners at once, without waiting for a garbage collection.  The owner builds each invariant on first use, once,
under its own lock (callers' threads may share a mesh): the metric at
quadrature (the quadrature weights against dV_g and the inverse metric,
at the shape the metric varies in, so a flat chart keeps one weight row
and three numbers),
the boundary geometry, the conformal-flatness defect, and what is read
of the stiffness matrix K: its :class:`InteriorSystem` and its boundary
rows K[B], both from one assembly of K, which is then dropped.  An
:class:`InteriorSystem` is the package's one Dirichlet elimination, on a
factor taken at its first use in the mesh's elimination order
``Mesh.interior_order`` (a nested dissection built with the mesh, so it
needs no lock), which no other module reads.  The owner's system of K
serves every Laplace-Beltrami solve and harmonic extension
(:meth:`InteriorSystem.extend`, for Dirichlet data), every
third-linearization solve (:meth:`InteriorSystem.solve`, for a load with
zero Dirichlet data) and the chord steps of every cold minimal-surface
solve (K is the Jacobian at u = 0); the boundary rows give every weak
flux (K v)[B].  The builders stay public and build afresh on each call
(:func:`assemble_weighted_stiffness` from the owner's metric at
quadrature).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Mesh",
    "BoundaryGeometry",
    "Discretization",
    "discretization",
    "InteriorSystem",
    "square",
    "disc",
    "annulus",
    "flat_metric",
    "conformal_metric",
    "metric_eval",
    "hat_flux_loads",
    "hat_pair_elements",
    "assemble_elements",
    "assemble_weighted_stiffness",
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

# Geometric nested dissection (Mesh.interior_order): bits per coordinate of
# the Morton codes, and the mean size of the parts left undissected.
_ORDER_BITS = 16
_ORDER_LEAF = 8

# SuperLU's supernode relaxation and panel width (factor_spd); relax must
# not exceed panel_size.
_SUPERLU_RELAX = 4
_SUPERLU_PANEL_SIZE = 4


def _cross2(a, b):
    """z-component of the cross product of stacked 2D vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _spread_bits(v):
    """Move bit k of each 16-bit cell index in ``v`` to bit 2k of a uint64."""
    v = v.astype(np.uint64)
    for shift, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333),
                        (1, 0x55555555)):
        v = (v | (v << np.uint64(shift))) & np.uint64(mask)
    return v


def _nested_dissection(vertices, triangles, interior):
    """The vertices ``interior`` in a geometric nested-dissection order.

    Each vertex gets the Morton code of its 16-bit cell in the bounding box
    of ``interior``, x in the odd bits and y in the even ones.  The parts at
    depth d are the vertices that share the top d bits of their codes, so
    bit 2 * 16 - 1 - d bisects each of them, in x and in y by turns.  An
    edge whose ends' codes first differ there joins the two halves of a
    part at depth d: it is cut at depth d.  Level by level, from depth 0 to
    D = ceil(log2(n / 8)), the lower-code end of each edge cut at that
    depth joins its part's separator, if both ends are still undecided;
    the undecided vertices that remain fall into the parts at depth D + 1,
    about 8 each, with no edge between two parts.  A vertex of depth L
    belongs to the tree node of its top L bits, whose codes end at
    ((code >> (32 - L)) + 1) << (32 - L); numbering by that end, deeper
    vertices first, is the postorder in which both halves of a part come
    before its separator (George, SIAM J. Numer. Anal. 10, 1973; Lipton,
    Rose & Tarjan, SIAM J. Numer. Anal. 16, 1979).
    """
    n = len(interior)
    if n == 0:
        return interior
    p = vertices[interior]
    lo = p.min(axis=0)
    span = p.max(axis=0) - lo
    cells = (p - lo) / np.where(span > 0.0, span, 1.0) * (2**_ORDER_BITS - 1)
    cells = cells.astype(np.uint64)
    code = (_spread_bits(cells[:, 0]) << np.uint64(1)) | _spread_bits(cells[:, 1])

    # interior-interior edges, each once (it is in two triangles, once a < b)
    local = np.full(len(vertices), -1)
    local[interior] = np.arange(n)
    t = local[triangles]
    a, b = t.ravel(), t[:, [1, 2, 0]].ravel()
    keep = (a >= 0) & (a < b)
    a, b = a[keep], b[keep]
    # x = m 2^e with 1/2 <= m < 1 puts the highest differing bit at e - 1;
    # ends in one cell (x = 0, e = 0) are never cut
    depth = 2 * _ORDER_BITS - np.frexp((code[a] ^ code[b]).astype(float))[1]
    lower = np.where(code[a] < code[b], a, b)
    upper = a + b - lower

    deepest = max(int(np.ceil(np.log2(n / _ORDER_LEAF))), 0)
    level = np.full(n, deepest + 1)
    for d in range(deepest + 1):
        cut = depth == d
        ends, others = lower[cut], upper[cut]
        undecided = (level[ends] > deepest) & (level[others] > deepest)
        level[ends[undecided]] = d
    shift = (2 * _ORDER_BITS - level).astype(np.uint64)
    end = ((code >> shift) + np.uint64(1)) << shift
    # one stable sort by end, then deeper first: level <= D + 1 < 63 for any
    # n below 2^64, so 63 - level fits the 6 bits below end (at most 2^32)
    key = (end << np.uint64(6)) | (63 - level).astype(np.uint64)
    return interior[np.argsort(key, kind="stable")]


def _corner_rows(vertices, triangles):
    """The corner coordinates of every triangle as rows, x first.

    Yields the C-contiguous (3, n_tri) arrays x and y: ``x[i]`` holds the
    x coordinate of corner i of each triangle.
    """
    for c in range(2):
        yield np.take(vertices[:, c], triangles.T)


def _signed_areas(x, y):
    """Signed areas of the triangles with corner rows x, y, (n_tri,)."""
    return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))


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
    hat_gradients : (2, 3, n_triangles) ndarray
        Euclidean gradients of the three P1 hat functions per triangle:
        ``hat_gradients[c, i]`` is component c (x, y) of grad(phi_i), one
        C-contiguous row over the triangles.
    quad_points : (2, 3, n_triangles) ndarray
        Physical coordinates of the volume quadrature points, formed on
        each read (not stored): ``quad_points[c, q]`` is coordinate c of
        point q, one row over the triangles, so ``x, y = mesh.quad_points``.
    boundary_loops : list of ndarray
        Boundary vertex indices per closed loop, domain on the left: each
        vertex and the next, wrapping around, are a directed boundary edge.
        The outer loop (largest enclosed signed area) comes first; each loop
        is rotated to start at its smallest vertex index.
    boundary_vertices : (n_boundary,) ndarray
        Concatenation of the loops; this ordering is the canonical one for
        boundary traces throughout the package.
    interior_vertices : ndarray
        The other vertices, sorted.
    interior_order : ndarray
        ``interior_vertices`` in a geometric nested-dissection elimination
        order (see :func:`factor_spd`): every :class:`InteriorSystem` has
        its factored block's rows and columns in this order.
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
        x, y = _corner_rows(vertices, triangles)
        signed = _signed_areas(x, y)
        flip = signed < 0.0
        if np.any(flip):
            triangles = triangles.copy()
            triangles[flip] = triangles[flip][:, [0, 2, 1]]
            x, y = _corner_rows(vertices, triangles)
            signed = _signed_areas(x, y)
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

        # P1 hat gradients: grad(phi_i) = perp(p_{i+2} - p_{i+1}) / (2A); the
        # three edges e are also the ones whose longest is h
        grads = np.empty((2, 3, len(triangles)))
        longest = 0.0
        for i in range(3):
            ex = x[(i + 2) % 3] - x[(i + 1) % 3]
            ey = y[(i + 2) % 3] - y[(i + 1) % 3]
            np.negative(ey, out=grads[0, i])
            grads[1, i] = ex
            longest = max(longest, (ex**2 + ey**2).max())
        grads /= 2.0 * signed
        self.hat_gradients = grads
        self.h = float(np.sqrt(longest))
        del x, y  # free the corner rows before the boundary and order are built

        self._build_boundary()
        self.interior_order = _nested_dissection(
            vertices, triangles, self.interior_vertices
        )

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
        is_boundary = np.zeros(len(self.vertices), dtype=bool)
        is_boundary[self.boundary_vertices] = True
        self.interior_vertices = np.flatnonzero(~is_boundary)

    # -- basic queries -------------------------------------------------------

    @property
    def quad_points(self):
        """Physical coordinates of the volume quadrature points, (2, 3, n_tri).

        ``quad_points[c, q]`` is coordinate c of point q, one C-contiguous
        row over the triangles, so ``x, y = mesh.quad_points``.  Formed on
        each read, one matmul of the rule with the (3, n_tri) corner rows
        per coordinate: bit for bit the per-triangle product
        ``_QUAD_BARY @ vertices[triangles]``, re-laid.
        """
        points = np.empty((2, 3, self.n_triangles))
        for c, corners in enumerate(_corner_rows(self.vertices, self.triangles)):
            np.matmul(_QUAD_BARY, corners, out=points[c])
        return points

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
    # vertex (i, j) is j (n + 1) + i; cells row by row
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    return Mesh(vertices, _cell_triangles(v00, 1, n + 1))


def _cell_triangles(v00, a, b):
    """Two triangles per cell of a structured grid, in the cells' order.

    Cell k has the corners v00[k], v00[k] + a, v00[k] + b[k] and
    v11 = v00[k] + a + b[k]; it gives (v00, v00 + a, v11) and
    (v00, v11, v00 + b).  ``b`` is a scalar or one step per cell, as the
    angular step that closes an annulus ring is.
    """
    v11 = v00 + a + b
    return np.stack([v00, v00 + a, v11, v00, v11, v00 + b], axis=-1).reshape(-1, 3)


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
    # vertex (i, j) is i n_angular + j; the last cell of a ring steps back
    # to its first vertex
    j = np.arange(n_angular)
    v00 = (np.arange(n_radial)[:, None] * n_angular + j).ravel()
    step = np.tile(np.where(j == n_angular - 1, 1 - n_angular, 1), n_radial)
    return Mesh(vertices, _cell_triangles(v00, n_angular, step))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _flat_entries(x, y):
    return 1.0, 0.0, 1.0


def flat_metric():
    """The Euclidean metric, with scalar entries (1, 0, 1).

    The entries are constant, so the metric at quadrature keeps its inverse
    as three numbers (see :class:`_MetricQuad`).  Every call gives the one
    entries function, so all of them share one :func:`discretization` owner.
    """
    return _flat_entries


def conformal_metric(base, factor):
    """Metric c * g_base with a positive scalar ``factor(x, y)``.

    The base is evaluated first, so a nested conformal metric reports the
    innermost nonpositive factor.
    """

    def entries(x, y):
        g = base(x, y)
        c = np.asarray(factor(x, y), dtype=float)
        if np.any(c <= 0.0):
            c = np.broadcast_to(c, np.shape(x))
            k = _first_index(c, np.argmin)
            raise ValueError(
                f"conformal factor must be positive; got {np.min(c):.3e} at "
                f"point ({np.asarray(x)[k]:.4g}, {np.asarray(y)[k]:.4g})"
            )
        return tuple(c * e for e in g)

    return entries


def _metric_entries(metric, x, y):
    """Evaluate (g11, g12, g22) on coordinate arrays.

    Each entry is a float array at the shape the metric gives it, which
    broadcasts against ``x``: a constant entry stays a 0-d array, not one
    value per point.
    """
    return tuple(np.asarray(g, dtype=float) for g in metric(x, y))


def metric_eval(metric, point):
    """Evaluate the metric at one point as a 2x2 matrix.

    Raises
    ------
    ValueError
        If the matrix is not symmetric positive definite there.
    """
    x = np.asarray([float(point[0])])
    y = np.asarray([float(point[1])])
    g = _metric_entries(metric, x, y)
    _spd_determinant(g, x, y, "point")
    g11, g12, g22 = (np.broadcast_to(e, x.shape)[0] for e in g)
    return np.array([[g11, g12], [g12, g22]])


def _first_index(a, pick):
    """Index into ``a`` of ``pick(a.T)`` (``np.argmin`` or ``np.argmax``).

    Ties go to the first position counted along the last axis first: on
    (3, n_tri) rows, in (triangle, point) order.
    """
    return np.unravel_index(int(pick(a.T)), a.T.shape)[::-1]


def _spd_determinant(g, x, y, where):
    """det g of metric entries g = (g11, g12, g22) sampled at points (x, y).

    Raises ValueError naming the first sample (its index and coordinates)
    where g is not symmetric positive definite: non-finite, g11 <= 0 or
    det <= 0.  On (3, n_tri) rows the index is (triangle, point).  det g
    has the broadcast shape of the entries, so constant entries give a
    0-d det; the report broadcasts to the samples' shape first.
    """
    g11, g12, g22 = g
    det = g11 * g22 - g12**2
    spd = np.isfinite(det) & (det > 0.0) & (g11 > 0.0)
    if not spd.all():
        spd, g11, det = (np.broadcast_to(a, np.shape(x)) for a in (spd, g11, det))
        bad = _first_index(spd, np.argmin)
        raise ValueError(
            f"metric is not SPD at {where} {tuple(int(i) for i in bad[::-1])} "
            f"(x={x[bad]:.4g}, y={y[bad]:.4g}): g11={g11[bad]:.4g}, det={det[bad]:.4g}"
        )
    return det


@dataclass(frozen=True, eq=False)
class _MetricQuad:
    """Metric data at the volume quadrature points.

    ``weights`` holds the weights of the volume rule against dV_g,
    |T| w_q sqrt(det g), as (3, n_tri) rows; sqrt(det g) has no reader but
    the weights, so it is not kept apart.  For a varying metric they are a
    C-contiguous (3, n_tri) block.  For a constant one the three rows are
    equal, because the rule's weights are, and ``weights`` is a read-only
    view of one C-contiguous (n_tri,) row with a zero stride over the
    points.  ``inverse`` stacks the inverse metric entries g^11, g^12,
    g^22 (``inv11``, ``inv12``, ``inv22``) at the shape the metric varies
    in: (3, 3, n_tri) rows for a varying metric, (3, 1, 1) for a constant
    one, so a flat chart keeps three numbers.  Every kernel broadcasts them
    against its (3, n_tri) rows.  The two columns of g^{-1}, (g^11, g^12)
    and (g^12, g^22), are the consecutive slices ``inverse[0:2]`` and
    ``inverse[1:3]``.
    """

    weights: np.ndarray
    inverse: np.ndarray

    inv11 = property(lambda self: self.inverse[0])
    inv12 = property(lambda self: self.inverse[1])
    inv22 = property(lambda self: self.inverse[2])


def metric_at_quadrature(mesh, metric):
    """Evaluate the quadrature weights against dV_g, as (3, n_tri) rows, and
    the inverse metric at the quadrature points, both kept at the shape the
    metric varies in (see :class:`_MetricQuad`)."""
    x, y = mesh.quad_points
    g11, g12, g22 = _metric_entries(metric, x, y)
    det = _spd_determinant((g11, g12, g22), x, y, "quadrature point")
    if det.size == 1 and np.all(_QUAD_WEIGHTS == _QUAD_WEIGHTS[0]):
        # a constant metric, and a rule whose weights are equal: the three
        # point rows are one row, kept once and read through a zero stride
        row = (_QUAD_WEIGHTS[0] * mesh.tri_areas) * np.sqrt(det)
        weights = np.broadcast_to(row, (3, mesh.n_triangles))
    else:
        weights = _QUAD_WEIGHTS[:, None] * mesh.tri_areas
        weights *= np.sqrt(det)
    inverse = np.empty((3,) + np.broadcast_shapes(det.shape, (1, 1)))
    np.divide(g22, det, out=inverse[0])
    np.divide(-g12, det, out=inverse[1])
    np.divide(g11, det, out=inverse[2])
    return _MetricQuad(weights, inverse)


# ---------------------------------------------------------------------------
# Nodal fields and P1 calculus
# ---------------------------------------------------------------------------
# A field on a mesh is a plain (n_vertices,) array of nodal values, real or
# complex; boundary data is a callable(x, y) or an array in
# ``boundary_vertices`` order (:func:`boundary_values`).


def nodal_values(mesh, values):
    """``values`` as an array, checked to hold one value per vertex of ``mesh``."""
    vals = np.asarray(values)
    if vals.shape != (mesh.n_vertices,):
        raise ValueError(
            f"expected {mesh.n_vertices} nodal values, got shape {vals.shape}"
        )
    return vals


def p1_gradient_rows(mesh, values, block=slice(None)):
    """Euclidean gradient of the P1 interpolant as two rows (x, y), (2, nt).

    One entry per triangle of ``block`` (a slice of the triangles; all of
    them by default).
    """
    v = np.asarray(values)[mesh.triangles[block]]  # (nt, 3)
    hg = mesh.hat_gradients[..., block]
    g = v[:, 0] * hg[:, 0]
    g += v[:, 1] * hg[:, 1]
    g += v[:, 2] * hg[:, 2]
    return g


def _raised_gradient(inverse, g):
    """g^{-1} grad u at the quadrature points, x and y first.

    ``inverse`` is the inverse metric at the shape the metric varies in,
    ``mq.inverse`` of :class:`_MetricQuad` or a slice of its triangles; ``g``
    holds the rows (x, y) of the per-triangle Euclidean gradient, as
    :func:`p1_gradient_rows` gives them.  The result is a C-contiguous
    block at the point rows of the inverse: (2, 3, nt) for a varying
    metric, (2, 1, nt) for a constant one, whose three points share one
    vector per triangle.
    """
    gx, gy = g
    # g^{-1} grad u = (g^11, g^12) gx + (g^12, g^22) gy, at the point rows
    # of the inverse: one row for a constant one, three for a varying one
    shape = (2,) + np.broadcast_shapes(inverse.shape[1:], gx.shape)
    a = np.empty(shape, dtype=np.result_type(inverse, gx))
    np.multiply(inverse[0:2], gx, out=a)
    a += inverse[1:3] * gy
    return a


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _point_sum(a):
    """Sum over the three quadrature points, (..., 3, n_tri) -> (..., n_tri).

    Adds the rows in the order of ``a.sum(axis=-2)``.
    """
    out = a[..., 0, :] + a[..., 1, :]
    out += a[..., 2, :]
    return out


def hat_flux_loads(mesh, f):
    """Load vector with entries sum_t grad(phi_i) . F_t over the support of phi_i.

    ``f`` (2, 3, n_tri) holds a weighted vector integrand at the
    quadrature points, x and y first; the flux F_t is its sum over the
    points.  The entries are scattered in (triangle, corner) order.  A
    complex integrand gives the load of its real part plus i times the
    load of its imaginary part.
    """
    if np.iscomplexobj(f):
        # np.bincount takes real weights only
        return hat_flux_loads(mesh, f.real) + 1j * hat_flux_loads(mesh, f.imag)
    F = _point_sum(f)
    h = mesh.hat_gradients * F[:, None]
    # contrib[t, i] = grad(phi_i) . F_t, in the (triangle, corner) order of
    # mesh.triangles, which fixes the order bincount adds in
    contrib = np.empty((mesh.n_triangles, 3))
    np.add(h[0], h[1], out=contrib.T)
    return np.bincount(
        mesh.triangles.ravel(), weights=contrib.ravel(), minlength=mesh.n_vertices
    )


def hat_pair_elements(mesh, m11, m12, m22):
    """Element matrices grad(phi_i)^T M_t grad(phi_j), (n_tri, 3, 3).

    ``m11``, ``m12``, ``m22`` (each (3, n_tri)) hold a weighted symmetric
    2x2 tensor field at the quadrature points; M_t is its sum over the
    points.  The six distinct entries are computed on (n_tri,) rows and
    each is written to both of its places, so every element matrix is
    exactly symmetric.
    """
    s11, s12, s22 = _point_sum(m11), _point_sum(m12), _point_sum(m22)
    hx, hy = mesh.hat_gradients
    out = np.empty((mesh.n_triangles, 3, 3))
    for i in range(3):
        for j in range(i, 3):
            out[:, i, j] = out[:, j, i] = (
                hx[i] * hx[j] * s11 + (hx[i] * hy[j] + hx[j] * hy[i]) * s12
            ) + hy[i] * hy[j] * s22
    return out


def assemble_elements(mesh, data):
    """Sum per-triangle element matrices (n_tri, 3, 3) into a CSR matrix.

    The indices go in as int32, the type scipy converts them to for any
    mesh below 2^31 vertices, which saves it a conversion pass.
    """
    index = np.int32 if mesh.n_vertices < 2**31 else np.int64
    tri = mesh.triangles.astype(index)
    rows = np.broadcast_to(tri[:, :, None], data.shape)
    cols = np.broadcast_to(tri[:, None, :], data.shape)
    return sp.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())),
        shape=(mesh.n_vertices, mesh.n_vertices),
    ).tocsr()


def assemble_weighted_stiffness(mesh, metric):
    """Assemble the Laplace-Beltrami stiffness K_ij = integral of g(grad phi_i, grad phi_j) dV_g.

    Assembles afresh on every call, from the owner's metric at quadrature;
    the owner keeps only K's :class:`InteriorSystem` and boundary rows.

    Returns
    -------
    scipy.sparse.csr_matrix, symmetric.
    """
    mq = discretization(mesh, metric).mq
    w = mq.weights
    return assemble_elements(
        mesh, hat_pair_elements(mesh, w * mq.inv11, w * mq.inv12, w * mq.inv22)
    )


def factor_spd(A):
    """Sparse LU factor of a symmetric positive definite matrix.

    Every factored matrix of the package is SPD: the interior stiffness
    block K[I, I], and the interior Newton Jacobian block J(u)[I, I], whose
    area integrand sqrt(1 + |p|^2) is strictly convex.  So the factor
    pivots on the diagonal (SuperLU's symmetric mode, Li, ACM TOMS 31,
    2005) and keeps the columns in the order they come in, which must be
    the mesh's elimination order: ``A`` is the block A[O, O] that
    :class:`InteriorSystem` slices, O = ``mesh.interior_order``, a
    geometric nested dissection (George, SIAM J. Numer. Anal. 10, 1973;
    Lipton, Rose & Tarjan, SIAM J. Numer. Anal. 16, 1979), built once with
    the mesh.  On the interior stiffness block of disc(128, 768) it leaves
    about 10% less fill than SuperLU's minimum-degree order of A^T + A,
    which each factorization would recompute, and takes a third less time
    to factor; on the 1,657 unknowns of disc(24, 144) it leaves 6% more, at
    the same solve time.

    The panel constants keep SuperLU's scratch from setting the peak
    memory.  Its panel work arrays grow with n * panel_size (Demmel,
    Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20, 1999); at
    scipy's panel_size 20 and relax 10 they put a peak 16 MB above the 39
    MB the disc(128, 768) factor keeps.  At ``_SUPERLU_PANEL_SIZE`` 4 and
    ``_SUPERLU_RELAX`` 4 that peak is gone and the factor takes no longer.
    relax must not exceed panel_size: settings with relax > panel_size
    have crashed the interpreter at exit.

    ``A`` is a CSR matrix whose indices are sorted in place.  It is handed
    to SuperLU as its own CSC arrays, with no copy: every factored block is
    bit-symmetric, because :func:`hat_pair_elements` writes exactly
    symmetric element matrices and :func:`assemble_elements` sums the
    entries (i, j) and (j, i) in the same triangle order, so the sorted
    CSR arrays of A are the CSC arrays of A, bit for bit.
    """
    A.sort_indices()
    return spla.splu(
        sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        relax=_SUPERLU_RELAX,
        panel_size=_SUPERLU_PANEL_SIZE,
        options=dict(SymmetricMode=True),
    )


class InteriorSystem:
    """Dirichlet elimination on one factored interior block of a vertex matrix.

    ``A`` is a symmetric vertex matrix with an SPD interior block, K or a
    Newton Jacobian J(u).  The system keeps the blocks A[O, B] and A[O, O],
    O = ``mesh.interior_order`` and B = ``mesh.boundary_vertices``, and
    holds no reference to A.  The first call of either method takes the
    :func:`factor_spd` factor of A[O, O], once under the system's lock
    (threads may share the owner's system), and drops the block: the
    factor is then built beside the blocks alone, not beside A.  Each job
    has one method: :meth:`extend` takes Dirichlet data, :meth:`solve`
    takes loads and residuals with zero Dirichlet data.  Both return whole
    vertex arrays, so the order stays inside.  It holds the mesh's index
    arrays, not the mesh.
    """

    def __init__(self, mesh, A):
        self._order, self._boundary = mesh.interior_order, mesh.boundary_vertices
        rows = A[self._order]
        self._block, self._coupling = rows[:, self._order], rows[:, self._boundary]
        self._lu = None
        self._lock = threading.Lock()

    def _factor(self):
        """The factor of A[O, O], taken on first use."""
        if self._lu is None:
            with self._lock:
                if self._lu is None:
                    self._lu = factor_spd(self._block)
                    self._block = None
        return self._lu

    def extend(self, bvals):
        """The solution of A u = 0 with u = ``bvals`` on the boundary vertices.

        Symmetric elimination on the factor: the interior unknowns, in the
        elimination order O, solve A[O, O] u_O = -A[O, B] bvals.  ``bvals``
        is in boundary ordering, real or complex, shape (n_B,) for one field
        or (n_B, k) for k fields (one per column), which share one solve;
        the result has the shape (n_vertices,) + ``bvals.shape[1:]``.
        """
        lu = self._factor()  # before this call allocates anything
        O, B = self._order, self._boundary
        bvals = np.asarray(bvals)
        if bvals.ndim not in (1, 2) or len(bvals) != len(B):
            raise ValueError(
                f"expected {len(B)} boundary values (one column per field), "
                f"got shape {bvals.shape}"
            )
        # 0.0 - x, not -x: a zero of the data stays +0.0
        reduced = 0.0 - self._coupling @ bvals
        u = np.zeros((len(O) + len(B),) + bvals.shape[1:],  # every vertex is in O or B
                     dtype=np.result_type(reduced, float))
        u[B] = bvals
        u[O] = _solve_columns(lu, reduced)
        return u

    def solve(self, r):
        """x with A[O, O] x_O = r_O and x = 0 on the boundary vertices.

        ``r`` is a load or a residual: a vertex array, real or complex,
        (n_vertices,) or (n_vertices, k) for k columns of one solve; its
        boundary entries are not read.
        """
        lu = self._factor()  # before this call allocates anything
        r = np.asarray(r)
        x = np.zeros(r.shape, dtype=np.result_type(r, float))
        x[self._order] = _solve_columns(lu, r[self._order])
        return x


def _solve_columns(lu, b):
    """``lu.solve(b)`` for interior rows b, (n_O,) or (n_O, k).

    Complex b is solved as its real and imaginary parts, 2k real columns of
    one solve.
    """
    if not np.iscomplexobj(b):
        return lu.solve(b)
    k = b.shape[1] if b.ndim == 2 else 1  # len(b) may be 0
    cols = b.reshape(len(b), k)
    parts = lu.solve(np.hstack([cols.real, cols.imag]))
    return (parts[:, :k] + 1j * parts[:, k:]).reshape(b.shape)


# ---------------------------------------------------------------------------
# Boundary geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundaryGeometry:
    """The g-measure on the mesh boundary and its loop indexing.

    All per-vertex arrays follow the ``mesh.boundary_vertices`` ordering
    (loops concatenated, outer loop first).

    Attributes
    ----------
    ds : (n_b,) ndarray
        Lumped boundary measure dS_g (half the g-length of the two adjacent
        edges); sums to the total g-perimeter.
    arclength : (n_b,) ndarray
        Cumulative g-arclength, restarting at 0 on each loop.
    mass : csr_matrix (n_b, n_b)
        Consistent boundary mass matrix for dS_g pairings.
    successor, predecessor : (n_b,) int ndarray
        Position of the next and of the previous vertex on the same loop;
        boundary edge k runs from position k to ``successor[k]``.
    edge_lengths : (n_b,) ndarray
        g-length of boundary edge k.
    """

    ds: np.ndarray
    arclength: np.ndarray
    mass: sp.csr_matrix
    successor: np.ndarray
    predecessor: np.ndarray
    edge_lengths: np.ndarray

    def pair(self, a, b):
        """Consistent pairing integral of (P1 traces) a * b dS_g (bilinear)."""
        return np.asarray(a) @ (self.mass @ np.asarray(b))


def _g_sq(g, a):
    """g(a, a) for stacked vectors a (n, 2) and metric entries g = (g11, g12, g22)."""
    g11, g12, g22 = g
    return g11 * a[:, 0] ** 2 + 2 * g12 * a[:, 0] * a[:, 1] + g22 * a[:, 1] ** 2


def boundary_geometry(mesh, metric):
    """Build the boundary g-measure and the loop indexing of the boundary.

    Edge g-lengths use two-point Gauss quadrature along each edge.  Raises
    ValueError if the metric is not SPD at a boundary vertex or edge
    quadrature point.
    """
    sizes = [len(loop) for loop in mesh.boundary_loops]
    stops = np.cumsum(sizes)
    starts = stops - sizes
    successor = np.arange(1, stops[-1] + 1)
    successor[stops - 1] = starts
    predecessor = np.arange(-1, stops[-1] - 1)
    predecessor[starts] = stops - 1

    p = mesh.vertices[mesh.boundary_vertices]
    _spd_determinant(_metric_entries(metric, *p.T), *p.T, "boundary vertex")
    edge = p[successor] - p  # edge k: position k -> successor[k]
    elen = np.zeros(len(p))
    for t, wq in zip(_EDGE_QUAD_T, _EDGE_QUAD_W):
        q = p + t * edge
        gq = _metric_entries(metric, q[:, 0], q[:, 1])
        _spd_determinant(gq, q[:, 0], q[:, 1], "boundary edge point")
        elen += wq * np.sqrt(_g_sq(gq, edge))

    # Consistent boundary mass: per edge, elen * [[1/3, 1/6], [1/6, 1/3]].
    ends = np.column_stack([np.arange(len(p)), successor])
    entries = (elen[:, None] / [3.0, 6.0, 6.0, 3.0]).ravel()
    rows, cols = np.repeat(ends, 2, axis=1).ravel(), np.tile(ends, 2).ravel()
    mass = sp.coo_matrix((entries, (rows, cols)), shape=(len(p), len(p))).tocsr()
    return BoundaryGeometry(
        ds=0.5 * (elen + elen[predecessor]),
        # per loop, so each sum runs in the order of the loop alone
        arclength=np.concatenate(
            [np.cumsum(np.r_[0.0, e[:-1]]) for e in np.split(elen, stops[:-1])]
        ),
        mass=mass,
        successor=successor,
        predecessor=predecessor,
        edge_lengths=elen,
    )


def boundary_values(mesh, data):
    """Boundary data as an array in ``boundary_vertices`` order.

    ``data`` is a callable(x, y), evaluated at the boundary vertices, or an
    array already in that order, whose length is checked.
    """
    bidx = mesh.boundary_vertices
    if callable(data):
        p = mesh.vertices[bidx]
        vals = np.asarray(data(p[:, 0], p[:, 1]))
        return np.broadcast_to(vals, (len(bidx),)).copy()
    vals = np.asarray(data)
    if vals.shape != (len(bidx),):
        raise ValueError(
            f"boundary data has shape {vals.shape}; expected a callable or "
            f"({len(bidx)},) values in boundary_vertices order"
        )
    return vals


def tangential_derivative(bg, values):
    """d(values)/ds_g along the boundary by centered differences per loop.

    ``values`` is in boundary ordering; second-order accurate on smooth
    loops with smoothly varying edge lengths.
    """
    values = np.asarray(values)
    fwd = values[bg.successor] - values
    bwd = values - values[bg.predecessor]
    ds_fwd, ds_bwd = bg.edge_lengths, bg.edge_lengths[bg.predecessor]
    # centered difference on a nonuniform grid
    return (ds_bwd * fwd / ds_fwd + ds_fwd * bwd / ds_bwd) / (ds_bwd + ds_fwd)


# ---------------------------------------------------------------------------
# One owner per (mesh, metric)
# ---------------------------------------------------------------------------


class Discretization:
    """Invariants of one (mesh, metric) pair, each built once on first use.

    Obtain it with :func:`discretization`; see the module docstring.  Each
    piece is built by the public builder of the same quantity
    (:func:`metric_at_quadrature`, :func:`assemble_weighted_stiffness`,
    :func:`boundary_geometry`, and :class:`InteriorSystem` of K for the
    interior factor) under the owner's lock, so concurrent first uses build
    it once.  The lock is reentrant because building K reads the metric at
    quadrature.  K itself is not kept: one assembly gives its interior
    system and its boundary rows, and is then dropped, so no full vertex
    matrix is alive when the system takes its factor.

    Attributes
    ----------
    mq : _MetricQuad
        Metric at the quadrature points, each piece at the shape the
        metric varies in: ``weights``, (3, n_tri) rows, a C-contiguous
        block for a varying metric and a read-only zero-stride view of one
        row for a constant one; and ``inverse``, the entries ``inv11``,
        ``inv12`` and ``inv22`` stacked as (3, 3, n_tri) for a varying
        metric, (3, 1, 1) for a constant one.
    weights : (3, n_tri) ndarray
        Quadrature weights against dV_g, ``mq.weights``; read-only, one
        row under a zero stride, for a constant metric.
    boundary : BoundaryGeometry
    interior_system : InteriorSystem
        The :class:`InteriorSystem` of K: its ``extend`` is the harmonic
        extension of Dirichlet data, its ``solve`` the solve of a load with
        zero Dirichlet data.  K is the minimal-surface Jacobian at u = 0,
        so it also serves the chord steps of a cold nonlinear solve.
    boundary_rows : csr_matrix (n_boundary, n_vertices)
        The rows K[B] of the boundary vertices, in ``boundary_vertices``
        order: ``boundary_rows @ v`` is the weak flux (K v)[B], bit for bit.
    conformal_defect : (float, ndarray)
        How far g is from conformally flat (g = gamma * identity): the
        largest of |g^12| and |g^11 - g^22| relative to (g^11 + g^22) / 2
        over the quadrature points, and the point where it is largest.
        The interior probes check it once per (mesh, metric) pair.
    mesh : Mesh
        The mesh, held through a weak reference (the mesh holds the
        owner); reading it after the mesh is gone raises ReferenceError.
    """

    def __init__(self, mesh, metric):
        self._mesh = weakref.ref(mesh)
        self.metric = metric
        self._lock = threading.RLock()
        self._built = {}

    @property
    def mesh(self):
        mesh = self._mesh()
        if mesh is None:
            raise ReferenceError(
                "the mesh of this Discretization has been freed; keep a "
                "reference to the mesh for as long as its owner is used"
            )
        return mesh

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
        return self.mq.weights

    @property
    def boundary(self):
        return self._piece("boundary", lambda: boundary_geometry(self.mesh, self.metric))

    @property
    def interior_system(self):
        return self._piece("stiffness", self._stiffness)[0]

    @property
    def boundary_rows(self):
        return self._piece("stiffness", self._stiffness)[1]

    def _stiffness(self):
        # what is kept of K; K goes out of scope on return
        mesh = self.mesh
        K = assemble_weighted_stiffness(mesh, self.metric)
        return InteriorSystem(mesh, K), K[mesh.boundary_vertices]

    @property
    def conformal_defect(self):
        return self._piece("conformal_defect", self._conformal_defect)

    def _conformal_defect(self):
        # g = gamma * identity iff g^{-1} = identity / gamma
        mq = self.mq
        scale = 0.5 * (mq.inv11 + mq.inv22)
        defect = np.maximum(np.abs(mq.inv12), np.abs(mq.inv11 - mq.inv22)) / scale
        # a constant metric's defect is one number: a zero-stride view over
        # the points keeps ties at the first (triangle, point)
        defect = np.broadcast_to(defect, mq.weights.shape)
        q, t = _first_index(defect, np.argmax)
        # a copy: a view would keep every quadrature point alive
        return float(defect[q, t]), self.mesh.quad_points[:, q, t].copy()


def discretization(mesh, metric):
    """The one :class:`Discretization` of (mesh, metric), memoized on the mesh."""
    with mesh._discretizations_lock:
        d = mesh._discretizations.get(metric)
        if d is None:
            d = mesh._discretizations[metric] = Discretization(mesh, metric)
    return d
