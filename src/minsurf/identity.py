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

The weighted functional :func:`q_form` is linear in its weight Q: it is
the dot product of Q times the quadrature weights with one probe kernel,
the density of the four fields' pairing products at the quadrature points,
whose pairings are those of the residual and the third-linearization
source (``geometry._raised_gradient``).  A probe sweep builds the form once
and calls it per probe; :func:`q_functional` is the one-off call of the
same form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    _raised_gradient,
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

# Triangles per block of a q_form call: the density's complex temporaries of
# one block are (3, 8192) rows (384 KB each), and a probe on disc(128,768)
# then took 10.5 ms against 28 ms for one pass over whole-mesh rows (2048,
# 4096 and 16384 took 12 to 15 ms; 2-core x86 VM, numpy 2.4).
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


def _density(mesh, inverse, values, slot, block):
    """The probe density at the quadrature points of ``block``, at the point
    rows of ``inverse`` ((3, nt), or (1, nt) for a constant metric),

        S = g(grad v4, grad v1) g(grad v3, grad v2)
          + g(grad v4, grad v2) g(grad v3, grad v1)
          + g(grad v4, grad v3) g(grad v1, grad v2),

    v_i the field ``values[slot[i]]``; ``inverse`` is the whole mesh's
    ``mq.inverse``.  Each pairing is the bilinear ``_raised_gradient`` of
    its first field dotted with its second field's gradient.  Equal slots
    share one gradient and one raised gradient, and each unordered pair of
    slots one pairing.  A field's gradient is raised at the first pairing
    that reads it: four distinct fields raise three gradients, v2's never.
    """
    if inverse.shape[-1] > 1:  # a constant metric's (3, 1, 1) has one column
        inverse = inverse[..., block]
    grads = {j: p1_gradient_rows(mesh, v, block) for j, v in values.items()}
    raised, pairs = {}, {}

    def pair(a, b):
        """g(grad v_a, grad v_b), built on first use."""
        i, j = slot[a], slot[b]
        key = frozenset((i, j))
        if key not in pairs:
            if i not in raised:
                raised[i] = _raised_gradient(inverse, grads[i])
            pairs[key] = raised[i][0] * grads[j][0] + raised[i][1] * grads[j][1]
        return pairs[key]

    return pair(3, 0) * pair(2, 1) + pair(3, 1) * pair(2, 0) + pair(3, 2) * pair(0, 1)


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

    The form is linear in Q: its value is the dot product of Q times the
    quadrature weights with the probe density S of the four fields at the
    quadrature points (:func:`_density`), summed one block of triangles at
    a time.  The form's first call evaluates Q at quadrature, so a sweep
    that builds the form before its probes holds no (3, n_tri) weight while
    their extensions take the owner's factor.  Build it once per sweep and
    call it once per probe.  Arguments passed as the same object share one
    gradient and equal pairs one pairing: the probes pass (u, u, v, v),
    which takes two gradients and three pairings instead of four and six.
    """
    blocks = [slice(b, b + _BLOCK) for b in range(0, mesh.n_triangles, _BLOCK)]
    weighted = []  # Q times the quadrature weights, built at the first call

    def form(v1, v2, v3, v4):
        mq = discretization(mesh, metric).mq
        if not weighted:
            weighted.append(mq.weights * _q_at_quadrature(mesh, Q))
        fields = (v1, v2, v3, v4)
        # slot[i]: the first argument that is the very object fields[i]
        slot = [next(j for j in range(4) if fields[j] is v) for v in fields]
        values = {j: nodal_values(mesh, fields[j]) for j in set(slot)}
        qw = weighted[0]
        # numpy's pairwise sum: a dot product sums in sequence, which moved
        # whole-mesh probe values by up to 2e-13 relative
        out = sum((qw[:, b] * _density(mesh, mq.inverse, values, slot, b)).sum()
                  for b in blocks)
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

