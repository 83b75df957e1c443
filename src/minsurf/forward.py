"""Forward solvers: the minimal-surface equation and Laplace-Beltrami.

The graph of u over a chart (Sigma, g) is area-stationary iff

    div_g[ grad_g(u) / sqrt(1 + |grad_g u|^2) ] = 0,    u|boundary = f.

Discretely, with P1 elements, the residual entries are

    r_i(u) = integral of g(grad u, grad phi_i) / sqrt(1 + |grad_g u|^2) dV_g,

and a solution makes the interior entries vanish; the boundary entries are
the weak normal flux of the area functional and are consumed downstream by
the Dirichlet-to-Neumann machinery.  The Newton linearization is

    J_ij(u) = integral of [ g(grad phi_i, grad phi_j) / s
                            - g(grad u, grad phi_i) g(grad u, grad phi_j) / s^3 ] dV_g,

with s = sqrt(1 + |grad_g u|^2); at u = 0 it is the Laplace-Beltrami
stiffness matrix K.  Because the area integrand sqrt(1+|p|^2) is strictly
convex, J(u)[I, I] is SPD and the damped iteration is globally convergent
in practice, including far outside the small-slope regime (see the catenoid
tests).

A solve takes chord steps: it reuses one factor of an SPD approximation
of J[I, I] for every step instead of assembling and factoring J at each
iterate (Kelley, *Solving Nonlinear Equations with Newton's Method*, SIAM
2003, ch. 5).  Every factor is the one of a
:class:`~minsurf.geometry.InteriorSystem`.  The steps contract linearly,
at a rate set by how far J(u) is from the factored matrix.  A cold solve
starts at the Laplace-Beltrami extension of its data and steps on the
(mesh, metric) owner's system of K = J(0), which the Laplace solves share,
so small data costs no factorization at all.  A solve whose data perturb
those of a known solution u0 (as in the area-differencing pipeline) steps
on the system of J(u0) that :func:`warm_start` builds.  It starts at u0,
or nearer its own solution at a guess predicted along the tangent of the
solution map, the Dirichlet extension on that system.  The refresh rule
guards against a stale factor: after any chord step that needed a
line-search halving, or that left more than a quarter of the interior
residual norm, the factor is dropped and the remaining steps of that
solve are plain Newton steps with fresh Jacobians, as are all steps from
a :class:`WarmStart` whose ``system`` is None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import (
    InteriorSystem,
    _raised_gradient,
    assemble_elements,
    boundary_values,
    discretization,
    hat_flux_loads,
    hat_pair_elements,
    nodal_values,
    p1_gradient_rows,
)

__all__ = [
    "ConvergenceError",
    "SolveOptions",
    "SolveReport",
    "WarmStart",
    "warm_start",
    "mse_residual",
    "mse_linearized_operator",
    "solve_laplace_beltrami",
    "solve_minimal_surface",
]

# Armijo backtracking: at most _MAX_HALVINGS step halvings, and a step s is
# accepted when ||r_new|| <= (1 - _ARMIJO * s) ||r||.
_MAX_HALVINGS = 30
_ARMIJO = 1e-4
# Refresh rule: a chord step that needs a halving, or that leaves more than
# _CHORD_CONTRACTION of the residual norm, drops the factor.  With 1/2 a
# cold solve could creep along at a contraction near 1/2 until max_iter.
_CHORD_CONTRACTION = 0.25


@dataclass
class SolveOptions:
    """Options for the nonlinear solve.

    Attributes
    ----------
    tol : float
        Absolute tolerance on the Euclidean norm of the interior residual.
    max_iter : int
        Maximum steps, chord and Newton steps counted alike.
    """

    tol: float = 1e-10
    max_iter: int = 30


@dataclass
class SolveReport:
    """Record of a nonlinear solve, converged or (in a ConvergenceError) not.

    ``iterations`` counts every step; ``jacobians`` the fresh Jacobians the
    solve assembled and factored, so the other steps were chord steps.
    ``area`` is the graph area, the integral of sqrt(1 + |grad_g u|^2)
    dV_g, of the last accepted iterate, the returned solution of a
    converged solve: the sum of the owner's quadrature weights times the
    slope factor that ``mse_residual(..., with_slope=True)`` returns for it.
    """

    iterations: int
    final_residual: float
    area: float
    jacobians: int = 0
    residual_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    message: str = ""


class ConvergenceError(RuntimeError):
    """A Newton solve stopped before reaching its tolerance.

    ``report`` is the failed solve's :class:`SolveReport`: the iterations
    taken, the residual and step history, and the message.
    """

    def __init__(self, report):
        super().__init__(report.message)
        self.report = report


@dataclass(frozen=True, eq=False)
class WarmStart:
    """Initial guess plus the interior system of a Jacobian that models J near it.

    ``values`` are nodal values (the boundary entries are replaced by each
    solve's data); ``system`` is the
    :class:`~minsurf.geometry.InteriorSystem` of an SPD approximation of J
    near ``values``, whose ``solve`` takes the chord steps.  Its ``extend``
    of boundary data df is the tangent of the solution map, the first-order
    move of the solution, and 1/2 r . ``system.solve(r)`` the Newton
    decrement of a field with residual r, its area's excess over the
    minimum to leading order (see :func:`~minsurf.dnmap.dn_from_area_data`).
    :func:`warm_start` builds the system of J(values); the cold start pairs
    the harmonic extension of the data with the owner's system of K = J(0).
    Pass it, or a copy with predicted ``values``, as the ``initial_guess``
    of :func:`solve_minimal_surface`.  With ``system`` None the solve starts
    at ``values`` and takes a fresh Newton Jacobian at every step.
    """

    values: np.ndarray
    system: Optional[InteriorSystem]


def _slope_factor(mesh, mq, u):
    """s = sqrt(1 + |grad_g u|^2) and g^{-1} grad u (x, y) at quadrature points.

    Both are at the point rows of ``mq.inverse``: s is (3, n_tri) and
    g^{-1} grad u (2, 3, n_tri) for a varying metric, while a constant one
    gives (1, n_tri) and (2, 1, n_tri), one value per triangle, which the
    callers broadcast against the (3, n_tri) weights.  The one kernel of
    the residual (which also gives the graph area) and the Jacobian, so
    both reject a complex field here.
    """
    if np.iscomplexobj(u):
        raise ValueError(
            "the minimal-surface equation and the graph area are defined for "
            "real fields only"
        )
    g = p1_gradient_rows(mesh, u)
    a = _raised_gradient(mq.inverse, g)
    slope = a * g[:, None]
    s = slope[0]
    s += slope[1]
    s += 1.0
    return np.sqrt(s, out=s), a


def mse_residual(mesh, metric, u, *, with_slope=False):
    """Full residual vector of the minimal-surface equation.

    Entry i is the integral of g(grad u, grad phi_i)/sqrt(1+|grad_g u|^2)
    dV_g over the support of hat function phi_i — for interior i this is the
    equation residual, for boundary i the weak normal flux of the tilted
    normal field.  Raises ValueError for a complex field.  With
    ``with_slope`` it returns ``(r, s)``, s the slope factor of the
    evaluation, from which a solve reports its graph area: a read-only
    (3, n_tri) view, which for a constant metric reads one row per
    triangle through a zero stride over the points, as the weights do.
    """
    d = discretization(mesh, metric)
    s, a = _slope_factor(mesh, d.mq, nodal_values(mesh, u))
    a = a * (d.weights / s)
    r = hat_flux_loads(mesh, a)
    return (r, np.broadcast_to(s, d.weights.shape)) if with_slope else r


def mse_linearized_operator(mesh, metric, u):
    """Newton linearization J(u) of the minimal-surface residual.

    Symmetric sparse matrix; at u = 0 it reduces to the Laplace-Beltrami
    stiffness matrix.  Raises ValueError for a complex field.
    """
    u = nodal_values(mesh, u)
    d = discretization(mesh, metric)
    mq = d.mq
    s, (ax, ay) = _slope_factor(mesh, mq, u)
    c, c3 = d.weights / s, d.weights / s**3
    data = hat_pair_elements(
        mesh,
        c * mq.inv11 - c3 * (ax * ax),
        c * mq.inv12 - c3 * (ax * ay),
        c * mq.inv22 - c3 * (ay * ay),
    )
    return assemble_elements(mesh, data)


def warm_start(mesh, metric, u):
    """Factor J(u) once for chord-step solves that start at or near u.

    Assembles the Newton Jacobian at the nodal field ``u`` and builds its
    interior system, which takes the factor of J(u)[I, I] at its first
    solve or extension, after J(u) itself is dropped.  Every solve given
    the result as its ``initial_guess`` starts from ``u`` and takes its
    steps on that system (see the module docstring for the refresh rule);
    a solve given a copy with other ``values``, such as a tangent
    prediction, starts there instead.  Raises ValueError for a complex
    field.
    """
    u = nodal_values(mesh, u)
    system = InteriorSystem(mesh, mse_linearized_operator(mesh, metric, u))
    return WarmStart(values=u.astype(float), system=system)


def solve_laplace_beltrami(mesh, metric, boundary_data):
    """Discrete-harmonic extension: K u = 0 with u = f on the boundary.

    Returns the nodal array u.
    """
    return discretization(mesh, metric).interior_system.extend(
        boundary_values(mesh, boundary_data))


def solve_minimal_surface(mesh, metric, boundary_data, options=None, *,
                          initial_guess=None):
    """Damped chord/Newton solve of the discrete minimal-surface equation.

    Starts from the Laplace-Beltrami extension of the boundary data and
    takes chord steps on the owner's factor of K[I, I] = J(0)[I, I], unless
    ``initial_guess``, a :class:`WarmStart`, overrides both with its values
    and its system (Newton steps throughout if it has none).  Only the cold
    start is odd in the data (see :mod:`minsurf.linearize`).  Every step
    has Armijo backtracking on the interior residual norm, and the refresh
    rule replaces stale chord steps with Newton steps.

    Returns
    -------
    (u, SolveReport)
        u the nodal solution array.

    Raises
    ------
    TypeError
        If ``initial_guess`` is neither None nor a WarmStart.
    ConvergenceError
        If the tolerance is not met within ``max_iter`` iterations, the
        residual stops decreasing, or a non-finite value appears; the
        message reports the iteration and residual history tail, and the
        error's ``report`` the full history.
    """
    options = options or SolveOptions()
    f = boundary_values(mesh, boundary_data)
    if np.iscomplexobj(f):
        raise ValueError(
            "minimal-surface boundary data must be real (complex data is only "
            "supported by solve_laplace_beltrami)"
        )
    if initial_guess is None:
        # J(0) = K: the owner's system of K serves the chord steps
        system = discretization(mesh, metric).interior_system
        initial_guess = WarmStart(solve_laplace_beltrami(mesh, metric, f), system)
    elif not isinstance(initial_guess, WarmStart):
        raise TypeError(
            f"initial_guess must be None or a WarmStart, got "
            f"{type(initial_guess).__name__}"
        )
    system = initial_guess.system  # for chord steps; None: a fresh Jacobian per step
    u = nodal_values(mesh, initial_guess.values).astype(float)
    u[mesh.boundary_vertices] = f

    I = mesh.interior_vertices
    weights = discretization(mesh, metric).weights
    residual_norms = []
    step_sizes = []
    jacobians = 0

    def report(it, message):
        return SolveReport(
            iterations=it,
            final_residual=residual_norms[-1],
            area=float((weights * s).sum()),
            jacobians=jacobians,
            residual_norms=residual_norms,
            step_sizes=step_sizes,
            message=message,
        )

    r, s = mse_residual(mesh, metric, u, with_slope=True)
    rnorm = float(np.linalg.norm(r[I]))
    residual_norms.append(rnorm)

    for it in range(options.max_iter + 1):
        if not np.isfinite(rnorm):
            raise ConvergenceError(report(
                it, f"minimal-surface residual became non-finite at iteration {it}"
            ))
        if rnorm <= options.tol:
            return u, report(it, f"converged in {it} Newton iterations")
        if it == options.max_iter:
            break

        if system is None:
            J = mse_linearized_operator(mesh, metric, u)
            delta = InteriorSystem(mesh, J).solve(-r)
            jacobians += 1
        else:
            delta = system.solve(-r)

        # Armijo backtracking on the residual norm.
        step = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            u_trial = u + step * delta
            r_trial, s_trial = mse_residual(mesh, metric, u_trial, with_slope=True)
            rnorm_trial = float(np.linalg.norm(r_trial[I]))
            if np.isfinite(rnorm_trial) and rnorm_trial <= (1.0 - _ARMIJO * step) * rnorm:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise ConvergenceError(report(
                it,
                f"line search failed at Newton iteration {it}: residual {rnorm:.3e} "
                f"did not decrease (history tail {residual_norms[-3:]}); the "
                f"boundary data may be too rough for this mesh",
            ))
        # Refresh rule: the factor no longer models J(u) well enough.
        if step < 1.0 or rnorm_trial > _CHORD_CONTRACTION * rnorm:
            system = None
        u, r, s, rnorm = u_trial, r_trial, s_trial, rnorm_trial
        residual_norms.append(rnorm)
        step_sizes.append(step)

    raise ConvergenceError(report(
        options.max_iter,
        f"Newton did not reach tol={options.tol:g} in {options.max_iter} "
        f"iterations (final residual {rnorm:.3e}); residual history tail "
        f"{residual_norms[-3:]}",
    ))
