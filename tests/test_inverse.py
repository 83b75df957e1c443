"""Tests for oscillatory interior probes and recovery of the quadratic weight.

Covers the probe builders (discrete harmonicity, agreement with the closed-form
plane solution, localization and decay envelopes, resolution guards), pointwise
recovery of the weight from the synthetic fourth-order functional, the
grid-mapped field recovery, and the boundary-jet exponent probe.
"""

import numpy as np
import pytest

import minsurf.forward as fwd
import minsurf.geometry as geo
import minsurf.inverse as inv

from test_kernels import p1_gradients, pair_at_quadrature

FLAT = geo.flat_metric()

# Smooth reference weight used by most recovery tests: a single Gaussian bump
# well inside the unit disc, with the matching quasilinear coefficient
# c = 1 / (1 - Q) so that the weight extracted from c is exactly Q.
AMP = 0.1
SIGMA = 0.35


def gaussian_weight(x, y):
    r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
    return AMP * np.exp(-r2 / SIGMA**2)


def gaussian_factor(x, y):
    return 1.0 / (1.0 - gaussian_weight(x, y))


@pytest.fixture(scope="module")
def mid_disc():
    """Unit disc, h ~ 0.015, with a factored flat-metric extension."""
    mesh = geo.disc(96, 576)
    return mesh, geo.discretization(mesh, FLAT)


@pytest.fixture(scope="module")
def fine_disc():
    """Unit disc, h ~ 0.011; resolves probe sweeps up to tau = 10."""
    mesh = geo.disc(128, 768)
    return mesh, geo.discretization(mesh, FLAT)


@pytest.fixture(scope="module")
def jet_square():
    """Unit square, h ~ 0.0074; resolves boundary jets up to N ~ 60."""
    mesh = geo.square(192)
    return mesh, geo.discretization(mesh, FLAT)


# ---------------------------------------------------------------------------
# harmonic extension
# ---------------------------------------------------------------------------


def test_extension_preserves_constants_and_complex_data(mid_disc):
    mesh, ext = mid_disc
    nb = len(mesh.boundary_vertices)
    ones = np.ones(nb)
    u = ext.extend(ones)
    np.testing.assert_allclose(u, 1.0, atol=1e-12)
    # complex data goes through two real solves and recombines exactly
    w = ext.extend(1j * ones)
    np.testing.assert_allclose(w, 1j, atol=1e-12)


def test_extension_rejects_wrong_boundary_length(mid_disc):
    mesh, ext = mid_disc
    with pytest.raises(ValueError, match="boundary"):
        ext.extend(np.ones(len(mesh.boundary_vertices) - 1))


# ---------------------------------------------------------------------------
# interior probe construction
# ---------------------------------------------------------------------------


def test_probe_at_zero_frequency_is_constant(mid_disc):
    mesh, ext = mid_disc
    probe = inv.make_interior_probe(mesh, FLAT, (0.0, 0.0), 0.0)
    for field in probe.fields:
        np.testing.assert_allclose(field, 1.0 + 0.0j, atol=1e-12)


def test_probe_fields_are_discretely_harmonic(mid_disc):
    mesh, ext = mid_disc
    probe = inv.make_interior_probe(mesh, FLAT, (0.0, 0.0), 5.0)
    K = ext.stiffness.tocsr()
    interior = mesh.interior_vertices
    for field in probe.fields:
        residual = np.abs((K @ field)[interior]).max()
        # measured 3.7e-13 against boundary data of modulus up to e^5 ~ 148
        assert residual <= 1e-10


def test_probe_harmonic_for_conformal_metric(mid_disc):
    # conformal rescaling leaves the 2d Laplace-Beltrami stiffness invariant in
    # exact arithmetic, but the probe must be harmonic for whatever stiffness
    # it was built from
    mesh, _ = mid_disc
    metric = geo.conformal_metric(FLAT, lambda x, y: 1.0 + 0.3 * np.exp(
        -(np.asarray(x) ** 2 + np.asarray(y) ** 2) / 0.25
    ))
    ext = geo.discretization(mesh, metric)
    probe = inv.make_interior_probe(mesh, metric, (0.0, 0.0), 5.0)
    K = ext.stiffness.tocsr()
    residual = np.abs((K @ probe.fields[2])[mesh.interior_vertices]).max()
    assert residual <= 1e-10


def test_probe_matches_analytic_plane_solution():
    # e^{i tau (z - p)^2} is harmonic, so the discrete extension of its trace
    # must reproduce it to O(h^2) in the interior
    tau = 3.0
    sups = []
    for n_r in (24, 48):
        mesh = geo.disc(n_r, 6 * n_r)
        probe = inv.make_interior_probe(mesh, FLAT, (0.0, 0.0), tau)
        z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
        exact = np.exp(1j * tau * z * z)
        sups.append(np.abs(probe.fields[0] - exact).max())
    assert sups[0] <= 3e-2  # measured 2.49e-2 on the coarse disc
    assert sups[1] <= 8e-3  # measured 6.25e-3 on the fine disc
    assert sups[0] / sups[1] >= 3.0  # measured contraction ratio 3.98


def test_probe_metadata_reports_boundary_modulus_and_resolution():
    mesh = geo.disc(48, 288)
    center = (0.1, 0.2)
    tau = 4.0
    probe = inv.make_interior_probe(mesh, FLAT, center, tau)
    # recompute the largest boundary modulus of e^{i tau (z-p)^2} directly
    zb = mesh.vertices[mesh.boundary_vertices]
    zb = zb[:, 0] + 1j * zb[:, 1] - complex(*center)
    expected = np.exp(tau * np.abs((zb * zb).imag).max())
    assert abs(probe.boundary_modulus_max - expected) <= 1e-12 * expected
    assert probe.points_per_wavelength > 10.0
    assert probe.tau == tau
    assert probe.center == center


def test_probe_oscillation_resolution_guard():
    # tau = 15 on this disc puts fewer than 10 mesh points per wavelength of
    # the boundary phase, which the builder must refuse
    mesh = geo.disc(64, 384)
    with pytest.raises(inv.ResolutionError, match="wavelength"):
        inv.make_interior_probe(mesh, FLAT, (0.0, 0.0), 15.0)


def test_probe_amplitude_resolution_guard():
    # off-centre probes carry boundary data of modulus e^{tau max|Im (z-p)^2|};
    # once that outruns what the mesh can extend accurately the builder must
    # refuse rather than return a silently wrong field
    mesh = geo.disc(64, 384)
    with pytest.raises(inv.ResolutionError, match="modulus"):
        inv.make_interior_probe(mesh, FLAT, (0.3, 0.0), 9.0)


def test_probe_margin_guard():
    mesh = geo.disc(24, 144)
    with pytest.raises(ValueError, match="boundary"):
        inv.make_interior_probe(mesh, FLAT, (0.9, 0.0), 4.0)


def test_probe_rejects_negative_frequency():
    mesh = geo.disc(24, 144)
    with pytest.raises(ValueError):
        inv.make_interior_probe(mesh, FLAT, (0.0, 0.0), -1.0)


def test_probe_requires_conformally_flat_metric():
    mesh = geo.disc(24, 144)
    skew = geo.explicit_metric(
        lambda x, y: (
            1.0 + 0.3 * np.asarray(x) ** 2,
            0.1 * np.asarray(x) * np.asarray(y),
            1.0 + 0.2 * np.asarray(y) ** 2,
        )
    )
    with pytest.raises(ValueError, match="conformally flat"):
        inv.make_interior_probe(mesh, skew, (0.0, 0.0), 2.0)


def test_conformal_flatness_error_names_the_metric_it_was_given():
    # g12 = 0.9999 printed to 3 digits reads 1, a singular metric
    mesh = geo.disc(12, 72)
    sheared = geo.explicit_metric(
        lambda x, y: (np.ones_like(x), np.full_like(x, 0.9999), np.ones_like(x)))
    with pytest.raises(inv.ResolutionError) as err:
        inv.recover_q_point(mesh, sheared, gaussian_factor, (0.0, 0.0), [2.0, 3.0])
    assert "g12=0.9999" in str(err.value)


def test_conformal_flatness_is_checked_away_from_sampled_vertices():
    # g12 is a small bump supported away from the seven vertices a spot
    # check would sample, so only a check at every quadrature point sees it
    mesh = geo.disc(12, 48)
    sampled = mesh.vertices[np.unique(np.linspace(0, mesh.n_vertices - 1, 7).astype(int))]
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    gap = np.linalg.norm(centroids[:, None, :] - sampled[None], axis=2).min(axis=1)
    centre = centroids[np.argmax(gap)]
    radius = 0.5 * gap.max()

    def entries(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        r2 = ((x - centre[0]) ** 2 + (y - centre[1]) ** 2) / radius**2
        bump = 1e-3 * np.maximum(1.0 - r2, 0.0) ** 2
        return np.ones_like(x), bump, np.ones_like(x)

    metric = geo.explicit_metric(entries)
    for v in sampled:
        g = geo.metric_eval(metric, v)
        assert g[0, 1] == 0.0 and g[0, 0] == g[1, 1]
    with pytest.raises(ValueError, match="conformally flat"):
        inv.make_interior_probe(mesh, metric, (0.0, 0.0), 0.0)


# ---------------------------------------------------------------------------
# probe asymptotics: annihilation and localization
# ---------------------------------------------------------------------------


def pairing_integral(mesh, metric, grad_u, grad_v, weight_values):
    """Integral of weight * g(grad u, grad v) over the mesh."""
    d = geo.discretization(mesh, metric)
    pair = pair_at_quadrature(mesh, d.mq, grad_u, grad_v)
    wq = geo.interpolate_at_quadrature(mesh, weight_values)
    return (d.weights * (wq * pair)).sum()


def test_same_route_probe_pairings_cancel_to_mesh_error():
    # both probe families solve the same holomorphic phase, so the weighted
    # pairing of a probe with a second probe at a nearby centre carries no
    # O(1) term: it is pure discretization error, O(h^2 tau^2)
    values = {}
    for n_r in (24, 48, 96):
        mesh = geo.disc(n_r, 6 * n_r)
        qv = gaussian_weight(mesh.vertices[:, 0], mesh.vertices[:, 1])
        for tau in (3.0, 6.0):
            if tau == 6.0 and n_r == 24:
                continue  # under-resolved: the oscillation guard would trip
            p1 = inv.make_interior_probe(mesh, FLAT, (0.0, 0.0), tau)
            p2 = inv.make_interior_probe(
                mesh, FLAT, (0.1, -0.05), tau
            )
            g1 = p1_gradients(mesh, p1.fields[0])
            g2 = p1_gradients(mesh, p2.fields[0])
            val = abs(pairing_integral(mesh, FLAT, g1, g2, qv))
            # measured prefactors val / (h^2 tau^2 AMP) of 0.6 at tau = 3 and
            # 14 at tau = 6, far below the loose ceiling frozen here
            assert val <= 30.0 * mesh.h**2 * tau**2 * AMP
            values[(n_r, tau)] = val
    # halving h cuts the defect by about 4x (measured ratios 4.0)
    assert values[(24, 3.0)] / values[(48, 3.0)] >= 3.0
    assert values[(48, 6.0)] / values[(96, 6.0)] >= 3.0


def test_probe_functional_mass_localizes_near_centre(mid_disc):
    # pairing the two probe families cancels their moduli, so the absolute
    # mass of the fourth-order integrand concentrates in a O(1/sqrt(tau))
    # window around the probe centre; at tau = 10 at least 90% of it must sit
    # within 3/sqrt(tau) (measured 95.3% on this mesh)
    mesh, ext = mid_disc
    tau = 10.0
    probe = inv.make_interior_probe(mesh, FLAT, (0.0, 0.0), tau)
    gu = p1_gradients(mesh, probe.fields[0])
    gv = p1_gradients(mesh, probe.fields[2])
    d = geo.discretization(mesh, FLAT)
    mq = d.mq
    cross = pair_at_quadrature(mesh, mq, gu, gv)
    same_u = pair_at_quadrature(mesh, mq, gu, gu)
    same_v = pair_at_quadrature(mesh, mq, gv, gv)
    qv = geo.interpolate_at_quadrature(
        mesh, gaussian_weight(mesh.vertices[:, 0], mesh.vertices[:, 1])
    )
    integrand = np.abs(qv * (2.0 * cross**2 + same_u * same_v))
    xq = geo.interpolate_at_quadrature(mesh, mesh.vertices[:, 0])
    yq = geo.interpolate_at_quadrature(mesh, mesh.vertices[:, 1])
    inside = (xq**2 + yq**2 <= 9.0 / tau).astype(float)
    total = (d.weights * integrand).sum()
    near = (d.weights * (integrand * inside)).sum()
    assert near / total >= 0.90


# ---------------------------------------------------------------------------
# pointwise recovery
# ---------------------------------------------------------------------------


def test_recover_point_gaussian_weight(fine_disc):
    mesh, ext = fine_disc
    result = inv.recover_q_point(
        mesh, FLAT, gaussian_factor, (0.0, 0.0), [6.0, 8.0, 10.0]
    )
    assert result.reliable
    # acceptance target is 20% of the peak amplitude; measured error 0.5%
    assert abs(result.q_estimate - AMP) <= 0.2 * AMP
    assert result.fit_residual <= 0.2  # measured 0.020
    # the affine fit must be dominated by its linear part
    assert abs(result.intercept) <= 0.3 * abs(result.coefficient) * 10.0


def test_recover_point_zero_weight_is_exact(fine_disc):
    mesh, ext = fine_disc
    result = inv.recover_q_point(
        mesh, FLAT, lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        (0.0, 0.0), [6.0, 8.0, 10.0]
    )
    assert result.reliable
    # c = 1 means zero weight: the synthetic functional vanishes identically
    np.testing.assert_array_equal(result.functional_values, 0.0)
    assert abs(result.q_estimate) <= 0.02 * AMP


def test_recover_point_invariant_under_constant_conformal_factor(mid_disc):
    # scaling the metric by a constant rescales stiffness, functional and
    # normalization coherently: the recovered value must not move at all
    mesh, ext = mid_disc
    sweep = [6.0, 8.0, 10.0]
    base = inv.recover_q_point(
        mesh, FLAT, gaussian_factor, (0.0, 0.0), sweep
    )
    scaled_metric = geo.conformal_metric(
        FLAT, lambda x, y: np.full_like(np.asarray(x, dtype=float), 2.5)
    )
    scaled = inv.recover_q_point(
        mesh, scaled_metric, gaussian_factor, (0.0, 0.0), sweep
    )
    assert abs(scaled.q_estimate - base.q_estimate) <= 1e-9 * abs(base.q_estimate)


def test_recover_point_compensates_varying_conformal_factor(mid_disc):
    # a varying conformal factor changes the probe normalization pointwise;
    # recovery divides it out at the probe centre (measured error 0.011)
    mesh, _ = mid_disc
    metric = geo.conformal_metric(FLAT, lambda x, y: 1.0 + 0.3 * np.exp(
        -(np.asarray(x) ** 2 + np.asarray(y) ** 2) / 0.25
    ))
    result = inv.recover_q_point(
        mesh, metric, gaussian_factor, (0.0, 0.0), [6.0, 8.0, 10.0]
    )
    assert result.reliable
    assert abs(result.q_estimate - AMP) <= 0.03


def test_recover_point_dn_mode_matches_synthetic_route():
    # the boundary-data route, the exact third linearization of the DN map
    # under g and c g, must reproduce the synthetic interior functional on
    # the same mesh (measured 1.3e-3 and 5.3e-3)
    mesh = geo.disc(24, 144)
    sweep = [2.0, 3.0]
    synth = inv.recover_q_point(mesh, FLAT, gaussian_factor, (0.0, 0.0), sweep)
    dn3 = inv.recover_q_point(
        mesh, FLAT, gaussian_factor, (0.0, 0.0), sweep, mode="dn3"
    )
    rel = np.abs(dn3.functional_values - synth.functional_values)
    rel /= np.abs(synth.functional_values)
    assert rel.max() <= 1e-2


def test_recover_point_dn3_mode_pins_the_synthetic_route(counting):
    # F within 4.5e-4, 3.7e-4 and 8.4e-4 of the synthetic values and Q_hat
    # 0.12030 against 0.12017 (measured); the form makes one source assembly
    # and one Dirichlet solve per metric and probe, and no nonlinear solve
    solves = counting(fwd, "solve_minimal_surface")
    mesh = geo.disc(48, 288)
    sweep = [4.0, 6.0, 8.0]
    synth = inv.recover_q_point(mesh, FLAT, gaussian_factor, (0.0, 0.0), sweep)
    dn3 = inv.recover_q_point(
        mesh, FLAT, gaussian_factor, (0.0, 0.0), sweep, mode="dn3"
    )
    rel = np.abs(dn3.functional_values - synth.functional_values)
    rel /= np.abs(synth.functional_values)
    assert np.all(rel <= [6e-4, 5e-4, 1e-3])
    assert synth.q_estimate == pytest.approx(0.12017, abs=1e-5)
    assert abs(dn3.q_estimate - synth.q_estimate) <= 1e-3
    assert dn3.reliable
    assert solves == []


def test_recover_point_flags_non_asymptotic_sweep():
    # an annular weight vanishing at the probe centre leaves the functional
    # dominated by oscillatory far-field terms: the tau-linear model misfits
    # (measured residual 0.29) and the result must be flagged
    mesh = geo.disc(48, 288)

    def ring_factor(x, y):
        r = np.sqrt(np.asarray(x) ** 2 + np.asarray(y) ** 2)
        q = 0.1 * np.exp(-(((r - 0.55) / 0.15) ** 2))
        return 1.0 / (1.0 - q)

    result = inv.recover_q_point(mesh, FLAT, ring_factor, (0.0, 0.0), [4.0, 6.0, 8.0])
    assert not result.reliable
    assert result.fit_residual > 0.2


def test_recover_point_rejects_short_sweep():
    mesh = geo.disc(24, 144)
    with pytest.raises(ValueError):
        inv.recover_q_point(mesh, FLAT, gaussian_factor, (0.0, 0.0), [4.0])


# ---------------------------------------------------------------------------
# field recovery on a grid
# ---------------------------------------------------------------------------


def test_recover_field_gaussian_bump(mid_disc):
    mesh, _ = mid_disc
    grid = inv.interior_grid(mesh, 0.2, 0.32)
    out = inv.recover_q_field(
        mesh, FLAT, gaussian_factor, grid, [6.0, 8.0, 10.0], probe_margin=0.32
    )
    assert len(out.points) == len(grid)
    assert out.reliable.sum() >= 30  # measured 37 of 37
    truth = gaussian_weight(grid[:, 0], grid[:, 1])
    got = np.array([r.q_estimate for r in out.points if r.reliable])
    want = truth[out.reliable]
    # errors measured against the peak amplitude: the centre estimate is
    # sharp (err 0.004) while far-tail points, probed at budget-capped
    # frequencies, carry junk of a few hundredths at most
    radii = np.linalg.norm(grid[out.reliable], axis=1)
    centre = np.argmin(radii)
    assert radii[centre] <= 1e-9
    assert abs(got[centre] - AMP) <= 0.2 * AMP
    assert np.sqrt(np.mean((got - want) ** 2)) <= 0.25 * AMP  # measured 0.0145
    assert np.abs(got - want).max() <= 0.40 * AMP  # measured 0.0265
    # the largest estimate sits at the true peak
    assert np.argmax(got) == centre
    # the nearest-neighbour fill must cover every vertex with a finite value
    assert np.all(np.isfinite(out.field))


def test_recover_field_zero_weight(mid_disc):
    mesh, _ = mid_disc
    grid = inv.interior_grid(mesh, 0.2, 0.32)
    out = inv.recover_q_field(
        mesh, FLAT,
        lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        grid, [6.0, 8.0, 10.0], probe_margin=0.32,
    )
    assert out.reliable.sum() >= 10
    for r in out.points:
        if r.reliable:
            assert r.q_estimate == 0.0
    np.testing.assert_array_equal(out.field, 0.0)


def test_recover_field_raises_when_nothing_is_reliable():
    # a coarse mesh caps usable frequencies below the floor at every point
    mesh = geo.disc(24, 144)
    grid = inv.interior_grid(mesh, 0.3, 0.5)
    with pytest.raises(inv.UnreliableRecoveryError, match="no grid point"):
        inv.recover_q_field(mesh, FLAT, gaussian_factor, grid, [6.0, 8.0, 10.0])


def test_recover_field_flags_budget_and_wavelength_points():
    # on this coarse disc the amplitude budget caps the sweep of the points
    # nearest the rim below tau = 3, and the wavelength guard rejects the
    # points whose capped sweep still oscillates too fast for the chart
    mesh = geo.disc(24, 144)
    grid = inv.interior_grid(mesh, 0.2, 0.2)
    out = inv.recover_q_field(
        mesh, FLAT, gaussian_factor, grid, [2.0, 3.0, 4.0], probe_margin=0.2
    )
    kinds = {"amplitude budget at": [], "oscillates with wavelength": []}
    for r in out.points:
        if r.reliable:
            assert r.q_estimate is not None and np.isfinite(r.fit_residual)
            continue
        [kind] = [k for k in kinds if k in r.message]
        kinds[kind].append(r)
        assert r.q_estimate is None
        assert np.isnan(r.fit_residual)
    # measured: 21 reliable, 8 budget-capped and 18 under-resolved of 47
    assert len(out.points) == 47 and out.reliable.sum() == 21
    assert [len(v) for v in kinds.values()] == [8, 18]
    reliable_values = {r.q_estimate for r in out.points if r.reliable}
    assert set(out.field.tolist()) <= reliable_values


def test_recover_field_dn3_mode_matches_the_synthetic_grid():
    # the grid serves the boundary-data form as it serves q_form: the same
    # points are flagged with the same messages, and the reliable estimates
    # agree (measured 6.5e-5 at worst)
    mesh = geo.disc(24, 144)
    grid = inv.interior_grid(mesh, 0.2, 0.2)
    out = {mode: inv.recover_q_field(mesh, FLAT, gaussian_factor, grid, [2.0, 3.0, 4.0],
                                     mode=mode, probe_margin=0.2)
           for mode in ("synthetic", "dn3")}
    synth, dn3 = out["synthetic"], out["dn3"]
    assert [r.message for r in dn3.points] == [r.message for r in synth.points]
    assert np.array_equal(dn3.reliable, synth.reliable) and synth.reliable.sum() == 21
    for a, b in zip(synth.points, dn3.points):
        if a.reliable:
            assert abs(b.q_estimate - a.q_estimate) <= 5e-4


@pytest.mark.xfail(
    reason=(
        "the affine estimator Q_hat = -A/(2 pi) reads Q off the tau -> "
        "infinity asymptote, but at tau <= 10 the probe kernel, about "
        "(tau d)^4 at distance d, weighs the other bump more than the point "
        "itself, even on exact data; the recovered field has no usable peak "
        "structure"
    ),
    raises=AssertionError,
    strict=True,
)
def test_recover_field_separates_two_bumps(mid_disc):
    mesh, _ = mid_disc

    def two_bump_factor(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        q = 0.1 * np.exp(-(((x - 0.4) ** 2 + y**2)) / 0.25**2)
        q = q + 0.1 * np.exp(-(((x + 0.4) ** 2 + y**2)) / 0.25**2)
        return 1.0 / (1.0 - q)

    grid = inv.interior_grid(mesh, 0.1, 0.35)
    out = inv.recover_q_field(
        mesh, FLAT, two_bump_factor, grid, [6.0, 8.0, 10.0], probe_margin=0.35
    )
    field = out.field.real
    for peak in ((0.4, 0.0), (-0.4, 0.0)):
        half = mesh.vertices[:, 0] * np.sign(peak[0]) > 0
        idx = np.flatnonzero(half)[np.argmax(field[half])]
        offset = np.linalg.norm(mesh.vertices[idx] - peak)
        assert offset <= 2.0 * mesh.h


def test_sweeps_evaluate_the_weight_once_and_cache_nothing_new(jet_square):
    # each sweep call builds its probe form (Q at quadrature, M_t) once; the
    # form lives for the call only, never on the (mesh, metric) owner
    mesh = geo.disc(48, 288)
    shapes = []

    def factor(x, y):
        shapes.append(np.shape(x))
        return gaussian_factor(x, y)

    inv.recover_q_point(mesh, FLAT, factor, (0.0, 0.0), [2.0, 3.0, 4.0])
    assert shapes == [mesh.quad_points.shape[1:]]
    grid = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]
    out = inv.recover_q_field(mesh, FLAT, factor, grid, [2.0, 3.0, 4.0],
                              probe_margin=0.3)
    assert out.reliable.all() and len(shapes) == 2
    jet_mesh, _ = jet_square
    inv.boundary_jet_probe(jet_mesh, FLAT, factor, JET_POINT, 2, JET_SWEEP)
    assert len(shapes) == 3
    for m in (mesh, jet_mesh):
        assert set(geo.discretization(m, FLAT)._built) <= {
            "mq", "weights", "stiffness", "boundary", "interior_system",
            "conformal_defect"}


def test_conformal_flatness_is_checked_once_per_owner(monkeypatch):
    built = []
    defect = geo.Discretization._conformal_defect
    monkeypatch.setattr(geo.Discretization, "_conformal_defect",
                        lambda self: built.append(self.metric) or defect(self))
    mesh = geo.disc(24, 144)
    curved = geo.explicit_metric(
        lambda x, y: (1.0 + 0.3 * x * x, 0.1 * x * y, 1.0 + 0.2 * y * y))
    for tau in (2.0, 3.0, 4.0):
        inv.make_interior_probe(mesh, FLAT, (0.0, 0.0), tau)
        with pytest.raises(inv.ResolutionError, match="conformally flat"):
            inv.make_interior_probe(mesh, curved, (0.0, 0.0), tau)
    assert built == [FLAT, curved]


def test_interior_grid_respects_margin():
    mesh = geo.disc(24, 144)
    margin = 0.4
    grid = inv.interior_grid(mesh, 0.25, margin)
    assert len(grid) > 0
    boundary = mesh.vertices[mesh.boundary_vertices]
    for point in grid:
        dist = np.linalg.norm(boundary - point, axis=1).min()
        assert dist >= margin - 1e-12
        assert np.linalg.norm(point) < 1.0


# ---------------------------------------------------------------------------
# boundary jet probe
# ---------------------------------------------------------------------------

JET_POINT = (0.5, 0.0)
JET_SWEEP = [20.0, 28.0, 40.0, 56.0]
JET_WIDTH = 0.2


def jet_profile_factor(k):
    """Factor whose weight has a k-th order zero pattern across the boundary."""

    def factor(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        q = AMP * np.exp(-(((x - 0.5) ** 2 + y**2)) / JET_WIDTH**2)
        if k == 1:
            q = q * (y / JET_WIDTH)
        return 1.0 / (1.0 - q)

    return factor


def test_jet_probe_recovers_profile_exponents(jet_square):
    # with window sharpness m = 2 the functional decays like N^{-(3 - k - a)}
    # with a = 5/7, so the fitted exponents should straddle 16/7 and 9/7 and
    # differ by about one
    mesh, ext = jet_square
    res0 = inv.boundary_jet_probe(
        mesh, FLAT, jet_profile_factor(0), JET_POINT, 2, JET_SWEEP
    )
    res1 = inv.boundary_jet_probe(
        mesh, FLAT, jet_profile_factor(1), JET_POINT, 2, JET_SWEEP
    )
    alpha = 5.0 / 7.0
    assert res0.reliable and res1.reliable
    assert abs(res0.exponent - (3.0 - 0.0 - alpha)) <= 0.3  # measured 2.090
    assert abs(res1.exponent - (3.0 - 1.0 - alpha)) <= 0.3  # measured 1.351
    assert res0.exponent - res1.exponent >= 0.5  # measured 0.74
    assert res0.fit_residual <= 0.2
    assert res1.fit_residual <= 0.2


def test_jet_probe_zero_weight_hits_noise_floor(jet_square):
    mesh, ext = jet_square
    res = inv.boundary_jet_probe(
        mesh, FLAT,
        lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        JET_POINT, 2, JET_SWEEP
    )
    assert not res.reliable
    assert np.isnan(res.exponent)
    assert np.isnan(res.fit_residual)  # no fit was made, so no gate passes
    assert "noise floor" in res.message
    np.testing.assert_array_equal(res.functional_values, 0.0)


def test_fits_through_two_frequencies_are_unreliable(jet_square):
    # a two-parameter fit through two distinct frequencies has no residual
    # degrees of freedom: its zero residual would pass any gate
    mesh, _ = jet_square
    results = [
        inv.boundary_jet_probe(
            mesh, FLAT, jet_profile_factor(0), JET_POINT, 2, JET_SWEEP[:2]
        ),
        *(inv.recover_q_point(geo.disc(24, 144), FLAT, gaussian_factor,
                              (0.0, 0.0), sweep)
          for sweep in ([2.0, 3.0], [2.0, 3.0, 3.0])),
    ]
    for res in results:
        assert not res.reliable
        assert np.isnan(res.fit_residual)
        assert "no residual degrees of freedom" in res.message


def test_jet_trace_extension_decays_away_from_the_point(jet_square):
    # the extended jet is boundary-concentrated: away from the window its
    # modulus must drop below e^{-sqrt(N)/2} times the trace maximum
    mesh, ext = jet_square
    n_freq = 28.0
    xb = mesh.vertices[mesh.boundary_vertices]
    x1 = xb[:, 0] - JET_POINT[0]
    x2 = np.maximum(xb[:, 1], 0.0)
    alpha = 5.0 / 7.0
    trace = (
        inv.jet_step(np.sqrt(n_freq) * x2)
        * np.exp(1j * n_freq * x1)
        * np.exp(-n_freq * x2)
        * inv.jet_window(n_freq**alpha * x1)
    )
    u = ext.extend(trace)
    dist = np.linalg.norm(mesh.vertices - JET_POINT, axis=1)
    far = dist >= 2.0 / np.sqrt(n_freq)
    bound = np.exp(-np.sqrt(n_freq) / 2.0) * np.abs(trace).max()
    # measured far maximum 4.6e-2 against a bound of 9.2e-2
    assert np.abs(u[far]).max() <= bound


def test_jet_probe_validation_and_resolution_guards():
    mesh = geo.square(64)
    with pytest.raises(ValueError, match="positive integer"):
        inv.boundary_jet_probe(mesh, FLAT, jet_profile_factor(0), JET_POINT, 0,
                               JET_SWEEP)
    with pytest.raises(ValueError):
        inv.boundary_jet_probe(mesh, FLAT, jet_profile_factor(0), JET_POINT, 2,
                               [28.0])
    with pytest.raises(inv.ResolutionError):
        inv.boundary_jet_probe(mesh, FLAT, jet_profile_factor(0), JET_POINT, 2,
                               [30.0, 50.0, 70.0])
    with pytest.raises(ValueError, match="positive integer"):
        inv.boundary_jet_probe(mesh, FLAT, jet_profile_factor(0), JET_POINT, True,
                               JET_SWEEP)
    for sweep in ([-1.0, 2.0, 3.0], [0.0, 2.0, 3.0]):
        with pytest.raises(inv.ResolutionError, match=f"positive, got N={sweep[0]:g}$"):
            inv.boundary_jet_probe(mesh, FLAT, jet_profile_factor(0), JET_POINT, 2,
                                   sweep)
    # the centre of the square is half a side from its nearest boundary vertex
    with pytest.raises(inv.ResolutionError,
                       match=r"\(0\.5, 0\.5\) is not on the boundary.* 0\.5 away"):
        inv.boundary_jet_probe(mesh, FLAT, jet_profile_factor(0), (0.5, 0.5), 2,
                               JET_SWEEP)


@pytest.mark.parametrize("mesh, point, tangent, normal", [
    (geo.disc(8, 48), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)),
    (geo.square(8), (0.5, 0.0), (1.0, 0.0), (0.0, 1.0)),
    # the inner loop of an annulus runs clockwise, with the domain on its left
    (geo.annulus(0.5, 1.5, 8, 48), (0.5, 0.0), (0.0, -1.0), (1.0, 0.0)),
], ids=["disc", "square", "annulus-inner"])
def test_jet_frame_is_the_unit_tangent_and_inward_normal(mesh, point, tangent, normal):
    bverts = mesh.vertices[mesh.boundary_vertices]
    i = int(np.argmin(np.hypot(*(bverts - point).T)))
    np.testing.assert_allclose(bverts[i], point, atol=1e-15)
    t, n = inv._jet_frame(bverts, geo.discretization(mesh, FLAT).boundary, i)
    assert abs(np.hypot(*t) - 1.0) <= 1e-15 and abs(np.hypot(*n) - 1.0) <= 1e-15
    assert abs(t @ n) <= 1e-15
    np.testing.assert_allclose(t, tangent, atol=1e-15)
    np.testing.assert_allclose(n, normal, atol=1e-15)


def test_jet_probe_accepts_a_numpy_integer_order():
    mesh = geo.square(48)
    sweep = [4.0, 5.0, 6.0]
    want = inv.boundary_jet_probe(mesh, FLAT, jet_profile_factor(0), JET_POINT, 2,
                                  sweep)
    got = inv.boundary_jet_probe(mesh, FLAT, jet_profile_factor(0), JET_POINT,
                                 np.int64(2), sweep)
    np.testing.assert_array_equal(got.functional_values, want.functional_values)
    assert (got.exponent, got.fit_residual, got.reliable, got.message) == (
        want.exponent, want.fit_residual, want.reliable, want.message)
