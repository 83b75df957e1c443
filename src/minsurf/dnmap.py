"""Dirichlet-to-Neumann traces, their derivatives, and the DN map from areas.

Two boundary fields of the minimal-surface solution u with data f:

* the plain normal derivative  Lambda_g f = d_nu u,
* the tilted normal flux       N_g f = g(nu, grad u)/sqrt(1+|grad_g u|^2),

linked algebraically through the tangential slope of the data.  In the
g-orthonormal boundary frame |grad u|^2 = |d_tau f|^2 + (d_nu u)^2, so

    N = Lambda / sqrt(1 + |d_tau f|^2 + Lambda^2),
    Lambda = sign(N) sqrt( N^2 (1 + |d_tau f|^2) / (1 - N^2) ),

with |N| < 1 always (the tilted flux of a graph normal).  The
discretization natively produces *weak* fluxes: the boundary rows of the
nonlinear residual are exactly integral of N_g phi_b dS_g against the
boundary hats, and for the linear map the rows of K v.  Nodal values
divide by the lumped boundary measure; Lambda values then come from the
algebraic inversion.  Weak fluxes paired with smooth boundary functions
converge at second order in h on any chart, nodal values only at first
order on general charts (the flat metric on the symmetric disc shows
second order, a pulled-back metric on the same disc does not).

The third derivative of the DN map at zero boundary data is available two
ways, which agree to O(h_eps^2):

* :func:`dn_third_derivative`: third centered differences of the nonlinear
  traces of the cached solves of an EpsilonCombination;
* :func:`dn_third_derivative_exact`: from the third-linearization solution
  w via <d^3 N, phi_b> = (K w - L)_b  plus the boundary correction
  d^3 Lambda = d^3 N + [ d_nu v_j g(grad v_k, grad v_l) + (cyc) ],
  where the pairings on the boundary are evaluated in the orthonormal
  frame from tangential data derivatives and weak normal fluxes.

Area functional and its first variation:

    Area(u)  = integral of sqrt(1 + |grad_g u|^2) dV_g,
    dA(u; v) = integral of g(grad u, grad v)/sqrt(1+|grad_g u|^2) dV_g.

For P1 fields the first variation equals v . r(u) with the residual vector
r — exactly, at quadrature level.  Consequently differencing the area
under boundary-hat perturbations of the data recovers the weak N_g flux up
to pure FD truncation in t; ``dn_from_area_data`` implements that pipeline.
It reads each perturbed area at a solution predicted along the tangent of
the solution map, the Dirichlet extension of the perturbation on the base
Jacobian's interior system: the area is stationary at its minimizer, so
the prediction's O(t^2) error shows in the area only at O(t^4), which the
Newton decrement of the prediction measures.  A hat whose decrement
exceeds the area's rounding takes corrector solves, chord steps on the
same system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geometry import (
    BoundaryGeometry,
    boundary_values,
    discretization,
    tangential_derivative,
)
from .forward import (
    SolveOptions,
    mse_residual,
    solve_laplace_beltrami,
    solve_minimal_surface,
    warm_start,
)
from .linearize import _mixed_difference, _odd_cached, third_linearization_source

# Boundary hats per tangent solve in dn_from_area_data, and per decrement
# solve of each sign: dense (n_vertices, block) blocks.  At 16 hats, or with
# both signs in one solve, they raise the peak resident memory of the
# disc(24, 144) pipeline by 0.7-1.2%; at 8 per sign they leave it unchanged.
_TANGENT_BLOCK = 8

__all__ = [
    "DNTrace",
    "GraphFluxError",
    "dn_linear",
    "dn_nonlinear",
    "dn_third_derivative",
    "dn_third_derivative_exact",
    "dn_from_area_data",
    "lambda_from_ng",
    "ng_from_lambda",
]


@dataclass(frozen=True, eq=False)
class DNTrace:
    """Boundary trace of a DN-type map, in ``boundary_vertices`` ordering.

    Attributes
    ----------
    bg : BoundaryGeometry
        Boundary g-measure, arclength and loop indexing the trace lives on.
    values : ndarray
        Nodal values of the map output: the normal derivative Lambda for
        the linear and nonlinear maps, its third derivative for
        :func:`dn_third_derivative` and :func:`dn_third_derivative_exact`.
    flux : ndarray
        The weak flux vector the discretization provides natively: rows of
        K v for :func:`dn_linear`; the N_g flux per boundary hat for the
        nonlinear maps (boundary residual rows, or area differences in
        :func:`dn_from_area_data`); the d^3 N flux for the third
        derivatives ((K w - L) rows in :func:`dn_third_derivative_exact`).
    ng : ndarray or None
        Nodal N_g values (tilted flux) of the nonlinear maps.
    tangential_sq : ndarray or None
        |d_tau f|^2 of the boundary data, used by the algebraic inversion.
    corrector_solves : int or None
        For :func:`dn_from_area_data`, the boundary hats whose predicted
        areas failed the decrement test and were solved for.
    """

    bg: BoundaryGeometry
    values: np.ndarray
    flux: np.ndarray
    ng: Optional[np.ndarray] = None
    tangential_sq: Optional[np.ndarray] = None
    corrector_solves: Optional[int] = None


class GraphFluxError(ValueError):
    """A nodal N_g with |N_g| >= 1, which no graph normal realizes."""


def lambda_from_ng(ng, tangential_sq):
    """Algebraic inversion N_g -> Lambda given |d_tau f|^2.

    Raises
    ------
    GraphFluxError
        If any |N_g| >= 1 (not realizable by a graph normal).
    """
    ng = np.asarray(ng, dtype=float)
    tangential_sq = np.broadcast_to(np.asarray(tangential_sq, dtype=float), ng.shape)
    bad = np.abs(ng) >= 1.0
    if np.any(bad):
        k = int(np.argmax(np.abs(ng)))
        raise GraphFluxError(
            f"|N_g| must be < 1 for a graph flux; got {ng[k]:.6f} at boundary "
            f"position {k} — mesh too coarse or data too rough"
        )
    return np.sign(ng) * np.sqrt(ng**2 * (1.0 + tangential_sq) / (1.0 - ng**2))


def ng_from_lambda(lam, tangential_sq):
    """Algebraic map Lambda -> N_g given |d_tau f|^2 (inverse of the above)."""
    lam = np.asarray(lam, dtype=float)
    tangential_sq = np.broadcast_to(np.asarray(tangential_sq, dtype=float), lam.shape)
    return lam / np.sqrt(1.0 + tangential_sq + lam**2)


def _tangential_sq(bg, f_boundary):
    df = tangential_derivative(bg, f_boundary)
    return df * df


def dn_linear(mesh, metric, f):
    """DN trace of the Laplace-Beltrami extension: Lambda_0 f = d_nu v.

    The weak flux is exactly the boundary rows of K v; nodal values divide
    by the lumped boundary measure.  The map is self-adjoint at the weak
    level: flux(f) . g|_b == flux(g) . f|_b for any data f, g.
    """
    d = discretization(mesh, metric)
    bg = d.boundary
    fb = boundary_values(mesh, f)
    v = solve_laplace_beltrami(mesh, metric, fb)
    flux = d.boundary_rows @ v
    return DNTrace(bg=bg, values=flux / bg.ds, flux=flux)


def dn_nonlinear(mesh, metric, f, options=None):
    """DN trace of the minimal-surface solution: Lambda_g f = d_nu u.

    Solves the nonlinear problem, reads the N_g weak flux off the boundary
    residual rows, and recovers Lambda by the algebraic inversion with the
    tangential slope of the data.
    """
    fb = boundary_values(mesh, f)
    u, _ = solve_minimal_surface(mesh, metric, fb, options)
    return _nonlinear_trace(mesh, metric, fb, u)


def _nonlinear_trace(mesh, metric, fb, u):
    """The DNTrace of a nodal solution u with boundary values fb, from its residual."""
    bg = discretization(mesh, metric).boundary
    return _flux_trace(bg, fb, mse_residual(mesh, metric, u)[mesh.boundary_vertices])


def _flux_trace(bg, fb, flux):
    """The nonlinear DNTrace of a weak N_g flux for boundary values fb."""
    ng = flux / bg.ds
    tq = _tangential_sq(bg, fb)
    return DNTrace(
        bg=bg, values=lambda_from_ng(ng, tq), flux=flux, ng=ng, tangential_sq=tq
    )


def _normal_derivative(d, v):
    """Nodal d_nu v of a discrete-harmonic field of Discretization d, from its weak flux."""
    return (d.boundary_rows @ v) / d.boundary.ds


def _boundary_correction(d, vs, fbs):
    """Nodal nu . F of three harmonic fields vs with boundary data fbs.

    nu . F = d_nu v_j g(grad v_k, grad v_l) + (cyclic), where on the
    boundary g(grad v_a, grad v_b) = d_tau f_a d_tau f_b + d_nu v_a d_nu v_b
    in the g-orthonormal frame: normal derivatives from weak fluxes,
    tangential ones from the data.
    """
    dnu = [_normal_derivative(d, v) for v in vs]
    dtau = [tangential_derivative(d.boundary, fb) for fb in fbs]
    pair = lambda a, b: dtau[a] * dtau[b] + dnu[a] * dnu[b]
    return dnu[0] * pair(1, 2) + dnu[1] * pair(0, 2) + dnu[2] * pair(0, 1)


def dn_third_derivative(combo, triple, h_eps):
    """Third mixed derivative of the DN map at zero data, by differences.

    Parameters
    ----------
    combo : EpsilonCombination
        Boundary-data family whose cached solves the stencil reads.
    triple : sequence of three direction indices (j, k, l) into ``combo``
    h_eps : float
        Step of the centered eight-point sign stencil.

    Returns
    -------
    DNTrace whose ``values`` hold the nodal d^3 Lambda trace and ``flux``
    the weak d^3 N flux.
    """
    if len(triple) != 3:
        raise ValueError(f"need exactly three directions, got {len(triple)}")
    mesh, metric = combo.mesh, combo.metric
    cache = {}

    def trace(eps):
        tr = _nonlinear_trace(mesh, metric, combo.boundary_data(eps), combo.solve(eps))
        return np.stack([tr.values, tr.flux])

    # the residual and lambda_from_ng are odd, so is the trace of the odd
    # cold solve: one trace per +-eps pair, like the solves
    values, flux = _mixed_difference(
        combo, triple, h_eps, lambda eps: _odd_cached(cache, eps, trace))
    return DNTrace(bg=discretization(mesh, metric).boundary, values=values, flux=flux)


def dn_third_derivative_exact(mesh, metric, directions):
    """Third mixed derivative of the DN map at zero data, from the third
    linearization of three boundary data (module docstring)."""
    if len(directions) != 3:
        raise ValueError(f"need exactly three directions, got {len(directions)}")
    d = discretization(mesh, metric)
    bg = d.boundary
    fbs = [boundary_values(mesh, f) for f in directions]
    vs = [solve_laplace_beltrami(mesh, metric, fb) for fb in fbs]
    # weak d^3 N flux (K w - L)_B: L the third-linearization source, w its
    # solve with zero Dirichlet data
    L = third_linearization_source(mesh, metric, *vs)
    w = d.interior_system.solve(L)
    flux = d.boundary_rows @ w - L[mesh.boundary_vertices]
    values = flux / bg.ds + _boundary_correction(d, vs, fbs)
    return DNTrace(bg=bg, values=values, flux=flux)


# ---------------------------------------------------------------------------
# DN map from area data
# ---------------------------------------------------------------------------


def dn_from_area_data(
    mesh,
    metric,
    f,
    t=1e-4,
    options=None,
):
    """Recover the DN trace purely from area measurements.

    Perturbs the boundary data along every boundary-hat direction, differences
    the resulting areas to estimate integral N_g phi_b dS_g per hat, and
    runs the algebraic inversion to Lambda.  Produces the same discrete
    object as :func:`dn_nonlinear` up to the O(t^2) differencing error,
    because the area first variation along the solution path reduces to the
    boundary flux pairing exactly (the interior residual vanishes).

    Each perturbed area is read at a prediction, not at a solve.  With the
    base solution u0 and the tangent w_b of the solution map, the
    ``extend`` of phi_b on the interior system of J(u0) from
    :func:`~minsurf.forward.warm_start` (an Euler predictor; Allgower &
    Georg, *Introduction to Numerical Continuation Methods*, SIAM 2003,
    ch. 2), the prediction u0 +- t w_b carries the data f +- t phi_b
    exactly and is off the perturbed solution by O(t^2).  The area is
    stationary at its minimizer, so the predicted area, sum w s of one
    ``mse_residual(..., with_slope=True)``, is off by O(t^4): by the Newton
    decrement 1/2 r . ``solve(r)`` of the prediction's residual r on the
    same system (Boyd & Vandenberghe, *Convex Optimization*, 2004,
    Sec. 9.5.1).
    A hat whose decrement is at most eps |A| on both signs, the rounding of
    the area A itself, keeps its predicted areas.  Any other hat takes a
    corrector: for each sign, a chord solve on the same system, started at
    the prediction, to ``options.tol``, whose report gives the area.  The
    tangents, and the decrements of each sign, are solved _TANGENT_BLOCK
    hats at a time, one multi-column solve each.

    Parameters
    ----------
    t : float
        Centered FD step for the area differences.

    Returns
    -------
    (area_trace, base_trace)
        The DNTrace from the area differences, whose ``corrector_solves``
        counts the hats that needed a corrector, and the direct DNTrace of
        the base solution, read off its residual as :func:`dn_nonlinear`
        does.

    Raises
    ------
    ConvergenceError
        If the base solve or a corrector solve does not converge.
    """
    options = options or SolveOptions()
    d = discretization(mesh, metric)
    fb = boundary_values(mesh, f)
    n_b = len(mesh.boundary_vertices)
    signs = (1.0, -1.0)

    u0, _ = solve_minimal_surface(mesh, metric, fb, options)
    base_trace = _nonlinear_trace(mesh, metric, fb, u0)

    # the perturbations are O(t), so J(u0) is within O(t) of the Jacobian
    # at each perturbed solution
    warm = warm_start(mesh, metric, u0)
    flux = np.empty(n_b)
    correctors = 0
    for start in range(0, n_b, _TANGENT_BLOCK):
        hats = range(start, min(start + _TANGENT_BLOCK, n_b))
        unit = np.zeros((n_b, len(hats)))
        unit[hats, range(len(hats))] = 1.0
        tangents = warm.system.extend(unit)

        def prediction(k, sign):
            return u0 + sign * t * tangents[:, k]

        areas = np.empty((len(hats), 2))
        decrements = np.empty((len(hats), 2))
        for j, sign in enumerate(signs):
            residuals = np.empty((mesh.n_vertices, len(hats)))
            for k in range(len(hats)):
                r, s = mse_residual(mesh, metric, prediction(k, sign), with_slope=True)
                areas[k, j] = (d.weights * s).sum()
                residuals[:, k] = r
            steps = warm.system.solve(residuals)
            decrements[:, j] = 0.5 * np.einsum("ij,ij->j", residuals, steps)
        settled = decrements <= np.finfo(float).eps * np.abs(areas)
        for k in np.flatnonzero(~settled.all(axis=1)):
            correctors += 1
            for j, sign in enumerate(signs):
                data = fb + sign * t * unit[:, k]
                areas[k, j] = solve_minimal_surface(
                    mesh, metric, data, options,
                    initial_guess=replace(warm, values=prediction(k, sign)))[1].area
        flux[start:hats.stop] = (areas[:, 0] - areas[:, 1]) / (2.0 * t)
    area_trace = _flux_trace(d.boundary, fb, flux)
    return replace(area_trace, corrector_solves=correctors), base_trace
