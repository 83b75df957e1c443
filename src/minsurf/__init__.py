"""Minimal-surface Dirichlet-to-Neumann toolkit on 2D Riemannian charts.

Submodules
----------
geometry
    Meshes, metrics (callables ``(x, y) -> (g11, g12, g22)``), quadrature,
    assembly, the boundary measure, and the per-(mesh, metric)
    Discretization owner, keyed by the metric callable.
forward
    Nonlinear minimal-surface solver and Laplace-Beltrami solves.
linearize
    Linearization chain of the solution map in the boundary data.
dnmap
    Dirichlet-to-Neumann traces, their derivatives, and the DN map from areas.
identity
    Third-order boundary/volume integral identity and its residual check.
inverse
    Interior and boundary probes for recovering a conformal perturbation.
cli
    Experiment runner (``minsurf`` console script).
"""

__version__ = "0.1.0"
