"""Third-order integral identity linking boundary DN data to a volume form.

For four harmonic fields v_j, v_k, v_l, v_m (discrete-harmonic extensions
of boundary data f_j..f_m) the third derivative of the DN map satisfies

    integral_bdry f_m d^3Lambda dS
        = integral_bdry v_m (nu . F) dS  -  RHS,                    (***)

where F is the trilinear vector field of the third-linearization source,

    nu . F = d_nu v_j g(grad v_k, grad v_l) + d_nu v_k g(grad v_j, grad v_l)
           + d_nu v_l g(grad v_j, grad v_k),

and RHS is the symmetric volume functional

    RHS = integral of [ g(grad v_m, grad v_j) g(grad v_l, grad v_k)
                      + g(grad v_m, grad v_k) g(grad v_l, grad v_j)
                      + g(grad v_m, grad v_l) g(grad v_j, grad v_k) ] dV_g.

(***) follows from two Green identities applied to K w = L with
w|bdry = 0; the orientation shown here is the one consistent with the
positive-Laplacian convention used throughout, and is confirmed
numerically by the eps-differenced nonlinear fluxes.  The residual check
assembles

    lhs = T3 - T1,
    T1  = integral_bdry f_m d^3Lambda^{FD} dS     (full nonlinear pipeline),
    T3  = integral_bdry v_m (nu . F) dS,

(the Green identities' third boundary term, integral_bdry w d_nu v_m dS,
vanishes identically because w|bdry = 0) and compares against rhs = RHS.  All boundary pairings use the consistent
boundary mass matrix; normal derivatives come from weak fluxes and
tangential derivatives from the boundary data, which keeps every
ingredient second-order accurate on smooth charts.  With the epsilon step
scaled proportionally to the mesh size the whole residual contracts at
second order.

The weighted functional is one kernel, :func:`q_form`: it sums every
product of two pairings over the quadrature points into a symmetric 3x3
tensor M_t per triangle, so a probe costs a few passes over per-triangle
arrays.  A probe sweep builds the form once and calls it per probe;
:func:`q_functional` is the one-off call of the same form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    _point_sum,
    discretization,
    nodal_values,
    p1_gradient_rows,
)
from .forward import SolveOptions, solve_laplace_beltrami
from .linearize import EpsilonCombination
from .dnmap import _boundary_correction, dn_third_derivative

__all__ = [
    "IdentityReport",
    "q_form",
    "q_functional",
    "integral_identity_check",
]

# Defaults of the third-difference stencil behind T1: its step as a multiple
# of the mesh size, and the Newton tolerance of the differenced solves.
_H_EPS_PER_H = 0.25
_TOL = 1e-13

# Triangles per block of a q_form call: its dozen complex temporaries of one
# block (128 KB each) then stay in cache, which made a probe on disc(128,768)
# 2.3 times as fast as one pass over whole-mesh arrays (4096 to 8192 were
# fastest).
_BLOCK = 8192


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one integral-identity residual check.

    ``residual = lhs - rhs``; ``relative_residual`` normalizes by the
    larger magnitude of the two sides.  ``t1`` and ``t3`` expose the
    boundary terms.
    """

    lhs: float
    rhs: float
    residual: float
    relative_residual: float
    h: float
    h_eps: float
    t1: float
    t3: float


def _q_at_quadrature(mesh, Q):
    """The weight function ``Q(x, y)`` at the volume quadrature points,
    (3, n_tri); 1 for ``Q`` None."""
    return 1.0 if Q is None else np.asarray(Q(*mesh.quad_points))


def q_form(mesh, metric, Q):
    """The weighted trilinear-pairing functional as a form in four fields.

    Returns ``form(v1, v2, v3, v4)``, the integral of

        Q * [ g(grad v4, grad v1) g(grad v3, grad v2)
            + g(grad v4, grad v2) g(grad v3, grad v1)
            + g(grad v4, grad v3) g(grad v1, grad v2) ] dV_g,

    fully symmetric under permuting (v1, v2, v3, v4).  All pairings are
    bilinear — complex fields are *not* conjugated, which is what the
    oscillatory-probe asymptotics require.  ``Q`` is a weight function
    ``Q(x, y)``, evaluated at the quadrature points, or None for Q = 1.

    Gradients are constant per triangle, so with the pair basis
    p(a, b) = (a1 b1, a1 b2 + a2 b1, a2 b2) and G = (g^11, g^12, g^22) each
    pairing is g(a, b)(x_q) = G_q . p(a, b), and each product of two
    pairings summed over a triangle's quadrature points is the bilinear
    form p(a, b)^T M_t p(c, d) with the symmetric per-triangle tensor

        M_t = sum_q w_q Q(x_q) G_q G_q^T.

    The form's first call evaluates Q at quadrature and builds M_t (six
    (n_tri,) rows), so a sweep that builds the form before its probes
    holds no tensor while their extensions take the owner's factor; every
    call then runs on per-triangle arrays only, one block of triangles at
    a time.  Build it once per sweep and call it once per probe.  Arguments
    passed as the same object share one gradient, each unordered pair of
    them one p, and equal products one form: the probes pass (u, u, v, v),
    which takes two gradients, three p and two forms instead of four, six
    and three.
    """
    blocks = [slice(b, b + _BLOCK) for b in range(0, mesh.n_triangles, _BLOCK)]
    M = []  # M_t, built at the first call

    def build_tensor():
        mq = discretization(mesh, metric).mq
        c = mq.weights * _q_at_quadrature(mesh, Q)
        G = (mq.inv11, mq.inv12, mq.inv22)
        built = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                built[i][j] = built[j][i] = _point_sum(c * G[i] * G[j])
        M[:] = built  # one assignment: a thread sharing the form sees all or none

    def block_sum(values, slot, block):
        """The form summed over the triangles of ``block``."""
        grads = {j: p1_gradient_rows(mesh, v, block) for j, v in values.items()}
        m = [[entry[block] for entry in row] for row in M]
        pairs, products = {}, {}

        def pair(a, b):
            """Key of p(v_a, v_b) in ``pairs``, built on first use."""
            key = frozenset((slot[a], slot[b]))
            if key not in pairs:
                (ax, ay), (bx, by) = grads[slot[a]], grads[slot[b]]
                pairs[key] = (ax * bx, ax * by + ay * bx, ay * by)
            return key

        def product(ab, cd):
            """sum_t p(v_a, v_b)^T M_t p(v_c, v_d), built on first use."""
            pq = pair(*ab), pair(*cd)
            key = frozenset(pq)
            if key not in products:
                p, r = pairs[pq[0]], pairs[pq[1]]
                mr = [m[i][0] * r[0] + m[i][1] * r[1] + m[i][2] * r[2] for i in range(3)]
                # numpy's pairwise sum: a dot product sums in sequence, which
                # moved whole-mesh probe values by up to 2e-13 relative
                products[key] = (p[0] * mr[0] + p[1] * mr[1] + p[2] * mr[2]).sum()
            return products[key]

        return product((3, 0), (2, 1)) + product((3, 1), (2, 0)) + product((3, 2), (0, 1))

    def form(v1, v2, v3, v4):
        if not M:
            build_tensor()
        fields = (v1, v2, v3, v4)
        # slot[i]: the first argument that is the very object fields[i]
        slot = [next(j for j in range(4) if fields[j] is v) for v in fields]
        values = {j: nodal_values(mesh, fields[j]) for j in set(slot)}
        out = sum(block_sum(values, slot, block) for block in blocks)
        return complex(out) if np.iscomplexobj(out) else float(out)

    return form


def q_functional(mesh, metric, Q, v1, v2, v3, v4):
    """One value of :func:`q_form`: ``q_form(mesh, metric, Q)(v1, v2, v3, v4)``.

    Builds the form afresh; a sweep over many probes should build it once.
    """
    return q_form(mesh, metric, Q)(v1, v2, v3, v4)


def integral_identity_check(mesh, metric, directions, h_eps=None, options=None):
    """Assemble both sides of the identity (***) and report the residual.

    Parameters
    ----------
    directions : sequence of four boundary data (f_j, f_k, f_l, f_m)
    h_eps : float, optional
        Step of the third-difference stencil behind T1.  Default
        ``0.25 * mesh.h``: the O(h_eps^2) differencing error then contracts
        at the same rate as the O(h^2) spatial error, so refinement sweeps
        observe a single clean order.
    options : SolveOptions, optional
        Defaults to a tight Newton tolerance (1e-13); the differenced
        traces divide solver noise by 8 h_eps^3, so the forward solves must
        be substantially tighter than the identity tolerance.
    """
    if len(directions) != 4:
        raise ValueError(f"need exactly four directions, got {len(directions)}")
    options = options or SolveOptions(tol=_TOL)
    if h_eps is None:
        h_eps = _H_EPS_PER_H * mesh.h
    combo = EpsilonCombination(mesh, metric, directions, options)
    fbs = combo.boundary
    vs = [solve_laplace_beltrami(mesh, metric, fb) for fb in fbs]
    d = discretization(mesh, metric)

    # T1: eps-differenced nonlinear DN traces paired with f_m
    d3 = dn_third_derivative(combo, (0, 1, 2), h_eps)
    t1 = float(d.boundary.pair(fbs[3], d3.values))
    # T3: the trilinear boundary correction, in the g-orthonormal frame
    t3 = float(d.boundary.pair(fbs[3], _boundary_correction(d, vs[:3], fbs[:3])))
    rhs = q_functional(mesh, metric, None, vs[0], vs[1], vs[2], vs[3])
    lhs = t3 - t1
    residual = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return IdentityReport(
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        relative_residual=abs(residual) / scale,
        h=mesh.h,
        h_eps=h_eps,
        t1=t1,
        t3=t3,
    )

