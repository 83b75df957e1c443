"""Linearizations of the minimal-surface solution map in the boundary data.

For boundary data f_eps = sum_j eps_j f_j let u(eps) be the discrete
minimal-surface solution.  At eps = 0:

* First derivative in direction f_j: the discrete-harmonic extension
  v_j (Laplace-Beltrami with data f_j).
* Second mixed derivatives vanish.  Discretely this is exact, not just
  O(tolerance): the residual map is odd in u (every term carries an odd
  power of grad u) and its Jacobian is even.  The cold solve's
  Laplace-Beltrami guess and its chord steps are linear solves on the one
  factor of K[I, I], which the data's sign does not change, the fresh
  Newton steps after a refresh solve on the even Jacobian, and the refresh
  rule and line search compare only residual norms.  So the cold solve
  gives u(-f) = -u(f) bit-for-bit and all even derivatives of the solution
  map at 0 are zero.  The central second-difference estimator therefore
  measures pure rounding noise, and :class:`EpsilonCombination` uses the
  oddness: it solves each +-eps pair of a stencil once and serves the
  other sign by negation.
* Third mixed derivative w_{jkl}: solves the linear problem

      K w = L,   w|boundary = 0,

  where K is the Laplace-Beltrami stiffness matrix and the load is the
  cubic correction from expanding 1/sqrt(1 + |grad u|^2):

      L_i = integral of [ g(grad v_j, grad phi_i) g(grad v_k, grad v_l)
                        + g(grad v_k, grad phi_i) g(grad v_j, grad v_l)
                        + g(grad v_l, grad phi_i) g(grad v_j, grad v_k) ] dV_g.

Finite-difference versions of any of them are provided for
cross-checking by :func:`linearization_fd`; it differences full nonlinear
solves on the centered stencils, e.g.

    second:  (u(++) - u(+-) - u(-+) + u(--)) / (4 h^2)
    third:   sum over sign triples of s1 s2 s3 u(s1 h, s2 h, s3 h) / (8 h^3).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    _raised_gradient,
    boundary_values,
    discretization,
    hat_flux_loads,
    nodal_values,
    p1_gradient_rows,
)
from .forward import SolveOptions, solve_minimal_surface

__all__ = [
    "EpsilonCombination",
    "linearization_fd",
    "third_linearization_source",
    "third_linearization_pde",
]


@dataclass
class EpsilonCombination:
    """Boundary-data family f_eps = sum_j eps_j f_j with cached solves.

    Parameters
    ----------
    mesh, metric
        Chart the family lives on.
    directions : sequence
        Boundary data f_j (callables, or arrays in ``boundary_vertices`` order).
    options : SolveOptions, optional
        Passed to every nonlinear solve, each a cold solve.

    ``boundary`` holds the boundary values of each f_j.  Nonlinear solves
    are cached once per +-eps pair, and u(-eps) is served as -u(eps)
    (module docstring).  Every finite-difference derivative in the package
    (:func:`_mixed_difference`) reads its stencil through :meth:`solve`, so
    points shared between stencils, or negated between them, are solved
    once.
    """

    mesh: object
    metric: object
    directions: Sequence
    options: Optional[SolveOptions] = None
    boundary: list = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if len(self.directions) == 0:
            raise ValueError("EpsilonCombination needs at least one direction")
        self.boundary = [boundary_values(self.mesh, f) for f in self.directions]

    @property
    def n_directions(self):
        return len(self.boundary)

    def boundary_data(self, eps):
        """Boundary values of f_eps for a coefficient vector eps."""
        eps = np.asarray(eps, dtype=float)
        if eps.shape != (self.n_directions,):
            raise ValueError(
                f"eps has shape {eps.shape}, expected ({self.n_directions},)"
            )
        out = np.zeros_like(self.boundary[0], dtype=float)
        for e, b in zip(eps, self.boundary):
            out = out + e * b
        return out

    def solve(self, eps):
        """Nonlinear solution u(eps) as a nodal array (cached per +-eps pair,
        see :func:`_odd_cached`)."""
        return _odd_cached(self._cache, eps, lambda e: solve_minimal_surface(
            self.mesh, self.metric, self.boundary_data(e), self.options)[0])


def _odd_cached(cache, eps, at):
    """``at(eps)`` of a map odd in eps, evaluated once per +-eps pair.

    The pair is evaluated at the sign that makes the first nonzero entry of
    eps positive and kept in ``cache``; the other sign gets the negated
    array, which is what its own evaluation would return bit for bit when
    ``at`` is odd to the bit, as the cold solve is (module docstring).
    """
    eps = np.asarray(eps, dtype=float)
    nonzero = eps[eps != 0.0]
    sign = -1.0 if nonzero.size and nonzero[0] < 0.0 else 1.0
    key = tuple(sign * eps)
    if key not in cache:
        cache[key] = at(sign * eps)
    return cache[key] if sign > 0.0 else -cache[key]


def _mixed_difference(combo, idx, h_eps, at):
    """Centered mixed difference of ``at`` in the directions ``idx`` of ``combo``.

    Returns the sum over sign tuples s in {+1, -1}^k of
    prod(s) at(eps_s) / (2 h_eps)^k, where eps_s puts s_i h_eps on direction
    idx[i] (a repeated index accumulates).  ``at`` maps a coefficient vector
    to an array, e.g. ``combo.solve``.
    """
    k = len(idx)
    acc = 0
    for signs in itertools.product((1, -1), repeat=k):
        eps = np.zeros(combo.n_directions)
        for j, s in zip(idx, signs):
            eps[j] += s * h_eps
        acc = acc + math.prod(signs) * at(eps)
    return acc / (2.0**k * h_eps**k)


def linearization_fd(combo, idx, h_eps):
    """Mixed derivative of the solution map in the directions ``idx``, by differences.

    The centered 2^k-point sign stencil of :func:`_mixed_difference` over
    the cached solves of ``combo``, k = len(idx).  For a pair the exact
    value is zero (odd solution map), and the return quantifies how close
    to zero the solver path keeps the even Taylor terms; for a triple it
    approximates :func:`third_linearization_pde` to O(h_eps^2).
    """
    return _mixed_difference(combo, idx, h_eps, combo.solve)


def third_linearization_source(mesh, metric, v_j, v_k, v_l):
    """Load vector L of the third-linearization problem K w = L.

    Symmetric in the three first-linearization fields; see the module
    docstring for the integrand.  Returns a full-length nodal vector whose
    boundary entries also carry the boundary part of the weak form (they
    are ignored by the Dirichlet solve but used by the flux bookkeeping of
    the DN third derivative).
    """
    d = discretization(mesh, metric)
    gj, gk, gl = (p1_gradient_rows(mesh, nodal_values(mesh, v)) for v in (v_j, v_k, v_l))
    j, k, l = (_raised_gradient(d.mq.inverse, g) for g in (gj, gk, gl))
    # g(grad v_a, grad v_b) at the quadrature points
    pair_kl = k[0] * gl[0] + k[1] * gl[1]
    pair_jl = j[0] * gl[0] + j[1] * gl[1]
    pair_jk = j[0] * gk[0] + j[1] * gk[1]
    return hat_flux_loads(mesh, d.weights * (j * pair_kl + k * pair_jl + l * pair_jk))


def third_linearization_pde(mesh, metric, v_j, v_k, v_l):
    """Third mixed derivative w_{jkl} of the solution map at 0.

    Solves K w = L with homogeneous Dirichlet data, where L is
    :func:`third_linearization_source` of the three harmonic fields.
    """
    L = third_linearization_source(mesh, metric, v_j, v_k, v_l)
    return discretization(mesh, metric).interior_system.solve(L)
