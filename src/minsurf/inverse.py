"""Recovery of the conformal discrepancy from probe functionals.

Implements the two probing mechanisms that turn the weighted trilinear
functional into pointwise information about Q = 1 - 1/c:

* **Interior probes** concentrate at an interior point P.  With the
  quadratic phase Phi(z) = (z - z_P)^2 the four fields
  (e^{i tau Phi}, e^{i tau Phi}, e^{i tau conj(Phi)}, e^{i tau conj(Phi)})
  are harmonic on conformally flat charts (holomorphic / antiholomorphic up
  to discretization), their pairwise products carry the pure oscillation
  e^{2 i tau (Phi + conj Phi)} = e^{4 i tau Re Phi}, and the weighted
  functional behaves like

      F(tau) = -2 pi tau Q(P) / gamma(P) + O(1),       tau -> infinity,

  where gamma(P) is the conformal factor of the metric at P (gamma = 1 on
  flat charts).  Sweeping tau and fitting the affine model A tau + B gives
  the point estimate Q_hat(P) = -A gamma(P) / (2 pi).

* **Boundary-jet probes** oscillate along the boundary near a boundary
  point P and decay into the interior.  The discrete-harmonic extension of

      Psi_N = zeta(N^{1/2} x2) e^{i N x1} e^{-kappa N x2} eta(N^alpha x1),
      kappa = sqrt(gamma(P)),  alpha = (m^2 + 1) / (m^2 + m + 1),

  (x1 tangential offset, x2 inward offset, eta a normalized bump with
  integral of eta^2 equal to 1, zeta a smooth step) makes the functional
  scale like N^{3 - k - alpha} where k is the order of the first
  nonvanishing inward normal derivative of Q at P.  Fitting log|F| against
  log N exposes k.

Both probes run many harmonic extensions against one factorized interior
system, the one the (mesh, metric) pair's ``geometry.Discretization`` owns;
sweeps and grids of probe points reuse the factorization.  The probe
functional is the weighted volume form ``identity.q_form``, built once per
sweep or grid.  It is also the boundary side of the identity (***): on the
mesh the weak third-DN fluxes under g and under c g, paired with the trace
of the fourth probe field, differ by this form to rounding (the probe
fields are discrete harmonic and, in 2-D, the same for both metrics), so
the third linearization of the DN map carries nothing the form does not.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import discretization, metric_eval
from .identity import q_form

__all__ = [
    "InteriorProbe",
    "RecoveryResult",
    "ResolutionError",
    "UnreliableRecoveryError",
    "make_interior_probe",
    "recover_q_point",
    "recover_q_field",
    "boundary_jet_probe",
    "jet_window",
    "jet_step",
    "interior_grid",
]


# Resolution guard: the shortest probe wavelength over the chart must span
# at least this many mesh cells.
_POINTS_PER_WAVELENGTH = 10.0

# A boundary-jet sweep whose functional magnitudes all sit at or below this
# absolute value is reported as vanishing instead of fitted.
_NOISE_FLOOR = 1e-13

# A sweep fit is trusted when its residual is at most this (see _verdict).
_TRUST = 0.2


class ResolutionError(ValueError):
    """The probe cannot be built for this mesh, metric and centre.

    The message names the failed condition; for an under-resolved mesh it
    states the needed size.
    """


class UnreliableRecoveryError(RuntimeError):
    """Fit diagnostics exceeded the trust threshold; estimate not usable."""


@dataclass(frozen=True)
class InteriorProbe:
    """Four probe fields concentrated at an interior point.

    ``fields`` holds (u, u, v, v) where u extends e^{i tau Phi} and v
    extends e^{i tau conj(Phi)} with Phi(z) = (z - center)^2; the phase
    vanishes to second order at the center with a nondegenerate quadratic
    part, so products u v oscillate without growing.
    ``points_per_wavelength`` is the measured resolution: the shortest
    wavelength over the chart in mesh cells (inf at tau = 0).
    """

    center: tuple
    tau: float
    fields: tuple
    boundary_modulus_max: float
    points_per_wavelength: float


@dataclass(frozen=True)
class RecoveryResult:
    """One probe-sweep fit at a point.

    For interior recovery the model is F ~ coefficient * tau + intercept
    (exponent fixed at 1) and ``q_estimate`` carries the point value; for
    boundary-jet probing the model is |F| ~ coefficient * N^exponent and
    ``q_estimate`` is None (the deliverable is the exponent).  The fit
    residual is always reported, never hidden; a sweep with only two
    distinct frequencies leaves the two-parameter fit no residual degrees
    of freedom, so its residual is undefined (NaN) and the result is
    unreliable.  A sweep that was not fitted (a flagged grid point, a
    functional value that is not finite, a jet sweep below the noise
    floor) is unreliable, with ``q_estimate`` None and every fit quantity
    NaN.
    """

    point: tuple
    q_estimate: Optional[float]
    sweep: np.ndarray
    functional_values: np.ndarray
    coefficient: float
    intercept: float
    exponent: float
    fit_residual: float
    reliable: bool
    message: str


def _conformal_scale_at(metric, point, context):
    """Conformal factor of a conformally flat metric at one point.

    Verifies g = gamma * identity there; raises ResolutionError with the
    offending entries otherwise.
    """
    g = metric_eval(metric, point)
    scale = 0.5 * (g[0, 0] + g[1, 1])
    if abs(g[0, 1]) > 1e-9 * scale or abs(g[0, 0] - g[1, 1]) > 1e-9 * scale:
        raise ResolutionError(
            f"{context} requires a conformally flat chart (g = gamma * identity); "
            f"at ({point[0]:.4g}, {point[1]:.4g}) got g11={g[0, 0]:.6g}, "
            f"g12={g[0, 1]:.6g}, g22={g[1, 1]:.6g}"
        )
    return float(scale)


def _check_conformally_flat(mesh, metric, context):
    """Check conformal flatness at every volume quadrature point.

    Reads the owner's ``conformal_defect`` (built once per (mesh, metric))
    with the tolerance of :func:`_conformal_scale_at`, which then reports
    the worst point.
    """
    defect, worst = discretization(mesh, metric).conformal_defect
    if defect > 1e-9:
        _conformal_scale_at(metric, worst, context)


def _modulus_exponent(mesh, center):
    """Largest boundary growth exponent max |Im Phi| of the probe phase.

    The probe trace e^{i tau Phi} has modulus e^{tau |Im Phi|} where
    Im Phi = 2 (x - x_P)(y - y_P); its maximum over the boundary sets how
    large the boundary data becomes relative to the unit-size values near
    the concentration point.
    """
    z_p = complex(center[0], center[1])
    z_b = mesh.vertices[mesh.boundary_vertices]
    z_b = z_b[:, 0] + 1j * z_b[:, 1] - z_p
    return float(np.abs((z_b * z_b).imag).max())


def _winding(mesh, pts):
    """Winding number of the boundary loops about each of the points (n, 2):
    the loops have the chart on their left, so it is 1 exactly in the chart."""
    verts = mesh.vertices
    x, y = pts[:, :1], pts[:, 1:]
    ax, ay = verts[mesh.boundary_vertices].T
    bx, by = verts[np.concatenate([np.roll(lp, -1) for lp in mesh.boundary_loops])].T
    left = (bx - ax) * (y - ay) - (by - ay) * (x - ax)  # > 0: left of a -> b
    # an edge a -> b crossing the ray right of (x, y) counts +1 up, -1 down
    return (((ay <= y) & (by > y) & (left > 0)).sum(axis=1)
            - ((ay > y) & (by <= y) & (left < 0)).sum(axis=1))


def _cells_per_wavelength(mesh, tau, wavelength):
    """``wavelength / mesh.h``, the resolution of a probe at frequency ``tau``.

    Raises ResolutionError, stating the needed mesh size, when the
    wavelength spans fewer than ``_POINTS_PER_WAVELENGTH`` cells.
    """
    ppw = wavelength / mesh.h
    if ppw < _POINTS_PER_WAVELENGTH:
        raise ResolutionError(
            f"probe at tau={tau:g} oscillates with wavelength "
            f"{wavelength:.3e} but the mesh size is {mesh.h:.3e}; "
            f"need h <= {wavelength / _POINTS_PER_WAVELENGTH:.3e} "
            f"({_POINTS_PER_WAVELENGTH:g} points per wavelength)"
        )
    return ppw


def _amplitude_budget(h):
    """Largest trustworthy boundary growth exponent tau * max|Im Phi|.

    The discrete-harmonic extension of boundary data with modulus up to
    e^{tau max|Im Phi|} carries an interpolation error of the same
    magnitude; it decays into the interior but overwhelms the unit-size
    probe values near the concentration point once the exponent passes a
    mesh-dependent threshold.  The threshold was calibrated on disc meshes
    (h in [0.009, 0.015]): the extension-induced functional error stays
    below a few percent for tau * max|Im Phi| <= 1.9 + 2 ln(1/h) and grows
    by roughly an order of magnitude per unit beyond it.
    """
    return 1.9 + 2.0 * np.log(1.0 / h)


def make_interior_probe(
    mesh,
    metric,
    center,
    tau,
    probe_margin=None,
):
    """Build the four concentrated probe fields for one frequency.

    Parameters
    ----------
    center : pair of floats
        Interior concentration point P; must lie in the chart and keep a
        margin from its boundary (default ``1/sqrt(tau)``).
    tau : float
        Probe frequency (tau = 0 degenerates to four constant fields).

    Raises
    ------
    ResolutionError
        If the shortest oscillation wavelength over the chart spans fewer
        than 10 mesh cells, or the boundary data outgrows the extension
        budget (the message states the required mesh size); if tau < 0,
        the chart is not conformally flat, or the center lies outside the
        chart or too close to its boundary.
    """
    if tau < 0:
        raise ResolutionError(f"probe frequency must be nonnegative, got {tau}")
    if _winding(mesh, np.array([center], dtype=float))[0] != 1:
        raise ResolutionError(
            f"probe center ({center[0]:.4g}, {center[1]:.4g}) lies outside the chart")
    _check_conformally_flat(mesh, metric, "interior probe")

    z_p = complex(center[0], center[1])
    verts = mesh.vertices
    z_all = verts[:, 0] + 1j * verts[:, 1]
    radius = float(np.abs(z_all - z_p).max())

    ppw = np.inf
    if tau > 0:
        bidx = mesh.boundary_vertices
        bdist = float(np.abs(z_all[bidx] - z_p).min())
        margin = float(probe_margin if probe_margin is not None else 1.0 / np.sqrt(tau))
        # the slack lets through a centre whose distance rounds just below
        # the margin (the unit disc's rim vertices lie at |z| = 1 - 1e-16);
        # the shortest repr of each number never prints the two as equal
        if bdist + 1e-9 < margin:
            raise ResolutionError(
                f"probe center ({center[0]:.4g}, {center[1]:.4g}) is at distance "
                f"{bdist!r} from the boundary; need at least {margin!r}"
            )
        # local wavelength of e^{i tau Phi} is pi / (tau |z - P|); the guard
        # uses the worst point of the chart
        ppw = _cells_per_wavelength(mesh, tau, np.pi / (tau * radius))
        # the boundary trace grows like e^{tau |Im Phi|}; past the
        # mesh-dependent budget the extension error of that rim data swamps
        # the unit-size field values near the center
        exponent = tau * _modulus_exponent(mesh, center)
        budget = _amplitude_budget(mesh.h)
        if exponent > budget + 1e-9:
            required = float(np.exp((1.9 - exponent) / 2.0))
            raise ResolutionError(
                f"probe at tau={tau:g} centred at ({center[0]:.4g}, "
                f"{center[1]:.4g}) has boundary data of modulus e^{exponent:.1f} "
                f"but the mesh (h={mesh.h:.3e}) resolves extensions only up to "
                f"e^{budget:.1f}; need h <= {required:.3e} or a smaller tau"
            )

    z_b = z_all[mesh.boundary_vertices] - z_p
    phi = z_b * z_b
    data_plus = np.exp(1j * tau * phi)
    data_minus = np.exp(1j * tau * np.conj(phi))
    # u and v: two columns, four real ones, of one solve
    uv = discretization(mesh, metric).interior_system.extend(
        np.column_stack([data_plus, data_minus]))
    u, v = np.ascontiguousarray(uv.T)
    modmax = float(max(np.abs(data_plus).max(), np.abs(data_minus).max()))
    return InteriorProbe(
        center=(float(center[0]), float(center[1])),
        tau=float(tau),
        fields=(u, u, v, v),
        boundary_modulus_max=modmax,
        points_per_wavelength=float(ppw),
    )


def _fit_line(x, y):
    """Least-squares line y ~ slope x + intercept through the points (x, y).

    Returns ``(slope, intercept, rms)``, rms the root mean square of the
    residuals y - (slope x + intercept).
    """
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ np.array([slope, intercept])
    return slope, intercept, float(np.sqrt(np.mean((y - fitted) ** 2)))


def _verdict(kind, sweep, residual, trusted, untrusted):
    """``(fit_residual, reliable, message)`` of a two-parameter ``kind`` fit.

    The fit is reliable, with message ``trusted``, when ``residual`` is at
    most ``_TRUST``; otherwise it is not, with message ``untrusted``.
    Through two distinct frequencies the fit passes every point exactly, so
    its residual says nothing about the model: it is NaN and the fit is
    unreliable.
    """
    n = np.unique(sweep).size
    if n <= 2:
        return np.nan, False, (
            f"{kind} fit through {n} distinct frequencies has no residual "
            "degrees of freedom, so its residual is undefined: use at least "
            "three distinct frequencies"
        )
    if residual <= _TRUST:
        return float(residual), True, trusted
    return float(residual), False, untrusted


def _fitted(point, sweep, values, verdict, coefficient, intercept, exponent,
            q_estimate=None):
    """The record of a sweep fit; ``verdict`` is :func:`_verdict`'s."""
    residual, reliable, message = verdict
    return RecoveryResult(
        point=(float(point[0]), float(point[1])),
        q_estimate=q_estimate,
        sweep=sweep,
        functional_values=values,
        coefficient=float(coefficient),
        intercept=float(intercept),
        exponent=float(exponent),
        fit_residual=residual,
        reliable=reliable,
        message=message,
    )


def _unfitted(point, sweep, values, message):
    """The record of a sweep that was not fitted: unreliable, every fit
    quantity NaN."""
    return _fitted(point, sweep, values, (np.nan, False, message),
                   np.nan, np.nan, np.nan)


def _not_finite(point, sweep, values):
    """The unfitted record of a sweep with a functional value that is not
    finite (a weight that overflows, say), None if every value is finite."""
    bad = ~np.isfinite(values)
    if not bad.any():
        return None
    return _unfitted(
        point, sweep, values,
        f"probe functional is not finite at frequency {sweep[bad][0]:g}, so "
        "the sweep is not fitted: the weight or the probe fields overflow",
    )


def recover_q_point(
    mesh,
    metric,
    weight,
    center,
    tau_sweep,
):
    """Estimate the weight Q at one interior point from a frequency sweep.

    Evaluates the weighted probe functional F(tau) for each frequency,
    fits the affine model A tau + B to Re F by least squares and returns
    Q_hat = -A gamma(P) / (2 pi) with gamma(P) the conformal factor of
    ``metric`` at the point.  The fit residual (relative to the fitted
    leading term |A| tau_max) is the trust diagnostic: above 20% the
    result comes back flagged unreliable, with the reason in its message.
    Two distinct frequencies fit the line exactly: the residual is then
    NaN and the result unreliable; fewer raise ResolutionError.  A sweep
    with a functional value that is not finite is not fitted and comes back
    unreliable.

    Parameters
    ----------
    weight : callable
        The weight Q(x, y) of the probe functional, Q = 1 - 1/c for a pair
        of metrics g and c g.
    """
    functional = q_form(mesh, metric, weight)
    return _recover_point(mesh, metric, functional, center, tau_sweep, None)


def _affine_sweep(tau_sweep):
    """The frequencies of ``tau_sweep`` as a float array, checked to hold at
    least two distinct values, as the affine fit needs."""
    taus = np.asarray(tau_sweep, dtype=float)
    if np.unique(taus).size < 2:
        raise ResolutionError("need at least two distinct frequencies to fit the affine model")
    return taus


def _recover_point(mesh, metric, functional, center, tau_sweep, probe_margin):
    """:func:`recover_q_point` with the probe functional already built."""
    taus = _affine_sweep(tau_sweep)
    gamma_p = _conformal_scale_at(metric, center, "interior recovery")

    values = np.empty(taus.size, dtype=complex)
    for i, tau in enumerate(taus):
        probe = make_interior_probe(mesh, metric, center, tau, probe_margin=probe_margin)
        values[i] = functional(*probe.fields)
    failed = _not_finite(center, taus, values)
    if failed is not None:
        return failed

    slope, intercept, rms = _fit_line(taus, values.real)
    leading = abs(slope) * taus.max()
    scale = max(leading, float(np.abs(values).max()))
    residual = rms / scale if scale > 0 else 0.0

    q_hat = -slope * gamma_p / (2.0 * np.pi)
    verdict = _verdict(
        "affine", taus, residual,
        "functional identically zero across the sweep (Q vanishes here)"
        if scale == 0.0 else "affine fit within trust threshold",
        f"fit residual {residual:.1%} of the leading term exceeds {_TRUST:.0%}: "
        "probe too close to the boundary, sweep outside the asymptotic "
        "regime, or mesh too coarse",
    )
    return _fitted(center, taus, values, verdict, slope, intercept, 1.0,
                   q_estimate=float(q_hat))


def interior_grid(mesh, spacing, margin):
    """Regular grid of chart points at least ``margin`` from every boundary vertex."""
    from scipy.spatial import cKDTree  # lazy: only a field grid needs it

    verts = mesh.vertices
    xs = np.arange(verts[:, 0].min(), verts[:, 0].max() + 0.5 * spacing, spacing)
    ys = np.arange(verts[:, 1].min(), verts[:, 1].max() + 0.5 * spacing, spacing)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    far = cKDTree(verts[mesh.boundary_vertices]).query(pts)[0] >= margin
    return pts[(_winding(mesh, pts) == 1) & far]


def recover_q_field(
    mesh,
    metric,
    weight,
    grid,
    tau_sweep,
    probe_margin=None,
):
    """Map pointwise recovery over a grid: one RecoveryResult per grid point.

    The probe trace grows like e^{tau max|Im Phi|} on the boundary, and the
    growth exponent increases towards the boundary; each grid point
    therefore scales the frequency sweep down to the mesh's extension
    budget (the actual frequencies used are recorded in each point's
    result).  Points whose sweep tops out below tau = 3 carry too little
    oscillation to concentrate and are flagged instead of probed; the flag
    blames the budget only where it scaled the sweep.  The results come
    back in grid order, unreliable points flagged; if no point is reliable
    the recovery fails as a whole.  An empty grid, or a sweep of fewer than
    two distinct frequencies, raises ResolutionError before any probe.  One
    probe functional, the :func:`identity.q_form` of ``weight``, serves the
    whole grid.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ResolutionError("the grid has no point to recover at")
    taus = _affine_sweep(tau_sweep)
    budget = _amplitude_budget(mesh.h)
    functional = q_form(mesh, metric, weight)

    results = []
    for point in grid:
        growth = _modulus_exponent(mesh, point)
        scale = 1.0
        if growth > 0 and taus.max() * growth > budget:
            scale = budget / (taus.max() * growth)
        sweep = taus * scale
        try:
            if sweep.max() < 3.0:
                raise ValueError(
                    f"amplitude budget at ({point[0]:.4g}, {point[1]:.4g}) "
                    f"limits the sweep to tau <= {sweep.max():.2g}: "
                    "probe too close to the boundary" if scale < 1.0 else
                    f"the configured sweep tops out at tau = {sweep.max():.2g}, "
                    "below 3: too little oscillation for the probe to concentrate"
                )
            res = _recover_point(mesh, metric, functional, point, sweep, probe_margin)
        except ValueError as exc:
            # flagged: no value of the functional was computed
            res = _unfitted(point, sweep, np.full(sweep.size, np.nan + 0j), str(exc))
        results.append(res)

    if not any(r.reliable for r in results):
        raise UnreliableRecoveryError(
            "no grid point produced a reliable estimate; "
            + "; ".join(sorted({r.message for r in results}))
        )
    return results


def jet_window(s):
    """Tangential bump eta(s) = c (1 - s^2)^4 on |s| < 1 with integral eta^2 = 1."""
    s = np.asarray(s, dtype=float)
    # int_{-1}^{1} (1-s^2)^8 ds = 2 * (2*4)!! ... computed once via the
    # double-factorial formula int_0^1 (1-s^2)^n ds = (2n)!!/(2n+1)!!
    n = 8
    num = np.prod(np.arange(2, 2 * n + 1, 2, dtype=float))
    den = np.prod(np.arange(3, 2 * n + 2, 2, dtype=float))
    norm = 1.0 / np.sqrt(2.0 * num / den)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = norm * (1.0 - s[inside] ** 2) ** 4
    return out


def jet_step(t):
    """Smooth step zeta: 1 for t <= 1, quintic ramp down to 0 at t = 2."""
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    ramp = (t > 1.0) & (t < 2.0)
    s = t[ramp] - 1.0
    out[ramp] = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
    return out


def _jet_frame(bverts, bg, i):
    """Unit tangent (mean of the two unit edge directions) and inward normal
    (the tangent turned left: each loop has the domain on its left) at
    boundary position ``i``; where g = gamma * identity, the g-orthonormal
    frame at unit Euclidean length."""
    ahead = bverts[bg.successor[i]] - bverts[i]
    behind = bverts[i] - bverts[bg.predecessor[i]]
    tangent = ahead / np.hypot(*ahead) + behind / np.hypot(*behind)
    tangent = tangent / np.hypot(*tangent)
    return tangent, np.array([-tangent[1], tangent[0]])


def boundary_jet_probe(
    mesh,
    metric,
    weight,
    point,
    m,
    n_sweep,
):
    """Fit the frequency exponent of the boundary-concentrated functional.

    Builds, for each N in the sweep, the discrete-harmonic extension u_N of
    the boundary trace of

        Psi_N = zeta(N^{1/2} x2) e^{i N x1} e^{-kappa N x2} eta(N^alpha x1)

    in local boundary coordinates at ``point`` (x1 along the boundary
    tangent, x2 inward), evaluates the functional

        F(N) = integral of Q [ 2 g(grad u_N, grad conj(u_N))^2
                               + |g(grad u_N, grad u_N)|^2 ] dV_g

    with Q = ``weight``, and fits log|F| against log N.  The fitted exponent
    estimates 3 - k - alpha with alpha = (m^2+1)/(m^2+m+1) and k the order
    of the first nonvanishing inward derivative of Q at the point; the
    caller compares candidate k values.

    A sweep whose functional magnitudes all sit at or below the absolute
    noise floor 1e-13, or with a value that is not finite, reports
    exponent and fit residual NaN with an explanatory message instead of
    fitting; a sweep of two distinct frequencies reports an undefined (NaN)
    fit residual and an unreliable result.  The sweep must hold at least
    two distinct frequencies, each N finite and positive with a wavelength
    2 pi / N of at least 10 mesh cells, and ``point`` must lie within one
    mesh size of its nearest boundary vertex, where the probe is built.
    The window half-width N^-alpha at the smallest N must not exceed the
    largest distance from that vertex to the boundary, or the window covers
    every boundary vertex and the probe cannot concentrate.  Otherwise the
    probe raises ResolutionError.
    """
    freqs = np.asarray(n_sweep, dtype=float)
    if np.unique(freqs).size < 2:
        raise ResolutionError("need at least two distinct frequencies to fit the exponent")
    positive = (0.0 < freqs) & (freqs < np.inf)
    if not positive.all():
        raise ResolutionError("jet frequency N must be finite and positive, "
                              f"got N={freqs[~positive][0]:g}")
    if isinstance(m, bool) or not (isinstance(m, numbers.Integral) and m >= 1):
        raise ResolutionError(f"jet order m must be a positive integer, got {m!r}")
    bverts = mesh.vertices[mesh.boundary_vertices]
    distance = np.hypot(*(bverts - np.asarray(point, dtype=float)).T)
    i_near = int(np.argmin(distance))
    base = bverts[i_near]
    if distance[i_near] > mesh.h:
        raise ResolutionError(
            f"boundary-jet point ({point[0]:.4g}, {point[1]:.4g}) is not on the "
            f"boundary: nearest boundary vertex ({base[0]:.4g}, {base[1]:.4g}) is "
            f"{distance[i_near]:.4g} away, more than the mesh size {mesh.h:.4g}")
    gamma_p = _conformal_scale_at(metric, base, "boundary-jet probe")
    kappa = float(np.sqrt(gamma_p))
    alpha = (m * m + 1.0) / (m * m + m + 1.0)
    form = q_form(mesh, metric, weight)

    d = discretization(mesh, metric)
    tangent, normal = _jet_frame(bverts, d.boundary, i_near)
    offsets = bverts - base
    reach = float(np.hypot(*offsets.T).max())
    if freqs.min() ** -alpha > reach:
        raise ResolutionError(
            f"jet window half-width N^-alpha = {freqs.min() ** -alpha:.4g} at "
            f"N={freqs.min():g} exceeds the largest distance {reach:.4g} from "
            f"({base[0]:.4g}, {base[1]:.4g}) to the boundary, so the probe "
            f"cannot concentrate: use N >= {reach ** (-1.0 / alpha):.4g}")
    x1 = offsets @ tangent
    x2 = np.maximum(offsets @ normal, 0.0)

    values = np.empty(freqs.size, dtype=complex)
    for i, N in enumerate(freqs):
        _cells_per_wavelength(mesh, N, 2.0 * np.pi / N)
        trace = (
            jet_step(np.sqrt(N) * x2)
            * np.exp(1j * N * x1)
            * np.exp(-kappa * N * x2)
            * jet_window(N**alpha * x1)
        )
        u = d.interior_system.extend(trace)
        u_bar = np.conj(u)
        values[i] = form(u, u, u_bar, u_bar)
    failed = _not_finite(base, freqs, values)
    if failed is not None:
        return failed

    mags = np.abs(values)
    if mags.max() <= _NOISE_FLOOR:
        return _unfitted(
            base, freqs, values,
            "functional below the noise floor across the sweep "
            "(Q and its derivatives vanish at this boundary point)",
        )

    exponent, log_pref, rms = _fit_line(np.log(freqs), np.log(mags))
    verdict = _verdict(
        "log-log", freqs, rms, "power-law fit within trust threshold",
        f"log-log fit residual {rms:.3f} exceeds {_TRUST:g}; sweep not in a clean "
        "power-law regime",
    )
    return _fitted(base, freqs, values, verdict, np.exp(log_pref), 0.0, exponent)
