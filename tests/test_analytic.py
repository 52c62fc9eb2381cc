from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

import netspectra.analytic as an
from netspectra import (
    DegreeModel,
    NoDetachedEigenvalueError,
    PoleError,
    band_edges,
    density_grid,
    hub_critical_degree,
    hub_eigenvalues,
    hub_eigenvector_profile,
    leading_eigenvalue,
    leading_eigenvalue_approx,
    semicircle_cauchy_transform,
    semicircle_density,
    solve_h,
    spectral_density,
    stieltjes_transform,
)
from oracles import (
    central_difference,
    numeric_semicircle_cauchy,
    poisson_bulk_density,
    single_degree_h,
)


def random_bounded_model(rng: np.random.Generator,
                         c_lo: float = 50.0, c_hi: float = 200.0) -> DegreeModel:
    """Random atomic model with <= 5 atoms and mean degree in [c_lo, c_hi]."""
    n_atoms = int(rng.integers(1, 6))
    degrees = np.sort(rng.uniform(0.5, 2.0, size=n_atoms)) * rng.uniform(c_lo, c_hi)
    degrees += np.arange(n_atoms) * 1e-3
    weights = rng.uniform(0.2, 1.0, size=n_atoms)
    weights /= weights.sum()
    return DegreeModel.from_atoms(list(zip(degrees, weights)))


# ---------------------------------------------------------------- semicircle

def test_semicircle_density_center():
    assert semicircle_density(0.0, 1.0) == pytest.approx(1.0 / np.pi, rel=1e-14)


def test_semicircle_density_edge_and_outside():
    for c in (1.0, 100.0):
        assert semicircle_density(2.0 / np.sqrt(c), c) == 0.0
        assert semicircle_density(5.0 / np.sqrt(c), c) == 0.0


def test_semicircle_density_normalized():
    for c in (1.0, 100.0):
        edge = 2.0 / np.sqrt(c)
        total, _ = quad(lambda x: semicircle_density(x, c), -edge, edge,
                        limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_semicircle_cauchy_closed_form_vs_quadrature():
    got = semicircle_cauchy_transform(3.0, 1.0)
    assert got.imag == pytest.approx(0.0, abs=1e-14)
    assert got.real == pytest.approx(0.145898033750315, rel=1e-10)
    assert got.real == pytest.approx(numeric_semicircle_cauchy(3.0, 1.0),
                                     rel=1e-7)
    for c, z in ((1.0, -2.5), (100.0, 0.9), (7.0, 4.0)):
        assert semicircle_cauchy_transform(z, c).real == pytest.approx(
            numeric_semicircle_cauchy(z, c), rel=1e-6, abs=1e-9)


def test_semicircle_cauchy_second_moment_tail():
    for c in (1.0, 25.0):
        z = 1e6
        assert semicircle_cauchy_transform(z, c) * z * z == pytest.approx(
            1.0 / c, rel=1e-4)


def test_semicircle_cauchy_conjugate_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(25):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.01, 5))
        a = semicircle_cauchy_transform(np.conj(z), 3.0)
        b = np.conj(semicircle_cauchy_transform(z, 3.0))
        assert a == pytest.approx(b, rel=1e-13)


# ---------------------------------------------------------------- solve_h

def test_h_poisson_real_outside_band(poisson100):
    sol = solve_h(poisson100, 25.0)
    assert sol.h == pytest.approx(0.05, abs=1e-14)
    assert sol.method == "closed-form"


def test_h_poisson_at_band_edge(poisson100):
    sol = solve_h(poisson100, 20.0)
    assert sol.h == pytest.approx(0.1, abs=1e-12)


def test_h_matches_quadratic_oracle(poisson100):
    rng = np.random.default_rng(42)
    for _ in range(100):
        z = complex(rng.uniform(-30, 30), 10 ** rng.uniform(-6, 0))
        got = solve_h(poisson100, z).h
        assert abs(got - single_degree_h(z, 100.0)) < 1e-10


def test_h_two_degree_satisfies_cubic(two_degree_model):
    # d1 d2 h^3 - (d1+d2) z h^2 + (d1 d2 / c + z^2) h - z = 0
    d1, d2, c = 50.0, 100.0, 87.5
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.uniform(-30, 30), 10 ** rng.uniform(-6, 0))
        h = solve_h(two_degree_model, z).h
        val = d1 * d2 * h ** 3 - (d1 + d2) * z * h ** 2 \
            + (d1 * d2 / c + z * z) * h - z
        assert abs(val) < 1e-10 * max(1.0, abs(z) ** 2)


def test_h_polynomial_vs_iteration_routes(two_degree_model, monkeypatch):
    rng = np.random.default_rng(8)
    points = [complex(rng.uniform(-25, 25), 10 ** rng.uniform(-5, 0))
              for _ in range(20)]
    by_poly = [solve_h(two_degree_model, z).h for z in points]
    monkeypatch.setattr(an, "MAX_POLY_ATOMS", 0)
    by_iter = [solve_h(two_degree_model, z).h for z in points]
    for a, b in zip(by_poly, by_iter):
        assert abs(a - b) < 1e-9


def test_h_residual_and_conjugate(two_degree_model):
    z = complex(4.0, 0.1)
    up = solve_h(two_degree_model, z)
    dn = solve_h(two_degree_model, np.conj(z))
    assert up.residual < 1e-10 * max(1.0, abs(up.h))
    assert dn.h == pytest.approx(np.conj(up.h), rel=1e-12)


def test_h_warm_start_matches_cold(two_degree_model):
    z = complex(7.0, 1e-4)
    cold = solve_h(two_degree_model, z)
    near = solve_h(two_degree_model, complex(7.05, 1e-4))
    warm = solve_h(two_degree_model, z, ref=near.h)
    assert warm.h == pytest.approx(cold.h, rel=1e-10)


# ---------------------------------------------------------------- density

def test_density_poisson_near_zero(poisson100):
    got = spectral_density(poisson100, 0.001, 1e-6)
    assert got == pytest.approx(1.0 / (np.pi * 10.0), rel=1e-3)


def test_density_at_exact_zero(poisson100):
    got = spectral_density(poisson100, 0.0, 1e-6)
    assert got == pytest.approx(1.0 / (np.pi * 10.0), rel=1e-3)


def test_density_outside_band(poisson100):
    assert spectral_density(poisson100, 25.0, 1e-6) < 1e-6


def test_density_matches_poisson_closed_form(poisson100):
    for z in np.linspace(-19.5, 19.5, 21):
        assert spectral_density(poisson100, float(z), 1e-6) == pytest.approx(
            poisson_bulk_density(float(z), 100.0), abs=1e-3)


def test_density_eta_validation(poisson100):
    with pytest.raises(ValueError):
        spectral_density(poisson100, 1.0, 0.0)


def test_density_grid_poisson(poisson100):
    curve = density_grid(poisson100, -25.0, 25.0, 2001, eta=1e-6)
    assert curve.norm_defect < 2e-3
    assert curve.second_moment == pytest.approx(100.0, rel=0.01)
    assert np.all(curve.rho >= 0.0)
    assert curve.band == pytest.approx((-20.0, 20.0), abs=1e-9)
    # empty region beyond the band
    tail = curve.rho[curve.z >= 21.0]
    assert tail.max() < 1e-4


def test_density_grid_nudges_zero(poisson100):
    curve = density_grid(poisson100, -1.0, 1.0, 5, eta=1e-6)
    assert 0.0 not in curve.z
    assert np.all(np.diff(curve.z) > 0)


def test_density_grid_validation(poisson100):
    with pytest.raises(ValueError):
        density_grid(poisson100, 1.0, -1.0, 100)
    with pytest.raises(ValueError):
        density_grid(poisson100, -1.0, 1.0, 1)


def test_density_grid_two_degree_moments(two_degree_model):
    curve = density_grid(two_degree_model, -25.0, 25.0, 2001, eta=1e-6)
    assert curve.norm_defect < 5e-3
    assert curve.second_moment == pytest.approx(87.5, rel=0.02)
    assert abs(np.trapezoid(curve.rho * curve.z, curve.z)) < 5e-3 * np.sqrt(87.5)


# ---------------------------------------------------------------- stieltjes

def test_stieltjes_tail(poisson100, two_degree_model):
    for m in (poisson100, two_degree_model):
        z = 1e6
        assert stieltjes_transform(m, z) * z == pytest.approx(1.0, rel=1e-6)


def test_stieltjes_real_outside_band(poisson100):
    g = stieltjes_transform(poisson100, 30.0)
    assert g.imag == pytest.approx(0.0, abs=1e-12)


def test_gamma_composition_identity(two_degree_model):
    # c h(z)^2 must equal the degree Cauchy transform evaluated at z / h(z)
    rng = np.random.default_rng(17)
    c = two_degree_model.mean_degree()
    for _ in range(100):
        z = complex(rng.uniform(-40, 40), 10 ** rng.uniform(-6, 0))
        h = solve_h(two_degree_model, z).h
        assert abs(c * h * h - two_degree_model.cauchy_transform(z / h)) < 1e-9


# ---------------------------------------------------------------- band edges

def test_band_edges_poisson(poisson100):
    lo, hi = band_edges(poisson100)
    assert (lo, hi) == pytest.approx((-20.0, 20.0), abs=1e-9)
    lo1, hi1 = band_edges(DegreeModel.poisson(1.0))
    assert (lo1, hi1) == pytest.approx((-2.0, 2.0), abs=1e-9)


def test_band_edges_two_degree_bracket_and_sqrt_law(two_degree_model):
    lo, hi = band_edges(two_degree_model)
    assert 18.0 < hi < 21.0
    assert lo == pytest.approx(-hi, abs=1e-6)
    deltas = np.geomspace(1e-4, 1e-2, 25)
    rho = np.array([spectral_density(two_degree_model, hi - d, 1e-9)
                    for d in deltas])
    slope = np.polyfit(np.log(deltas), np.log(rho), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_band_edges_iteration_route():
    model = DegreeModel.uniform(50.0, 150.0, nodes=128)
    lo, hi = band_edges(model)
    assert lo == pytest.approx(-hi, abs=1e-6)
    # density must vanish just outside and be positive just inside
    assert spectral_density(model, hi + 0.5, 1e-9) < 1e-6
    assert spectral_density(model, hi - 0.5, 1e-6) > 1e-4


def test_edge_exponent_random_models():
    rng = np.random.default_rng(23)
    for _ in range(3):
        m = random_bounded_model(rng)
        lo, hi = band_edges(m)
        deltas = np.geomspace(1e-4, 1e-2, 20)
        rho = np.array([spectral_density(m, hi - d, 1e-9) for d in deltas])
        slope = np.polyfit(np.log(deltas), np.log(rho), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------- leading

def test_leading_poisson_exact(poisson100):
    assert leading_eigenvalue(poisson100) == 101.0
    assert solve_h(poisson100, 101.0).h == pytest.approx(0.01, abs=1e-14)


def test_leading_two_degree(two_degree_model):
    assert leading_eigenvalue(two_degree_model) == pytest.approx(93.893, abs=1e-3)
    assert leading_eigenvalue_approx(two_degree_model) == pytest.approx(
        92.857, abs=1e-3)
    gap = 1.0 - leading_eigenvalue_approx(two_degree_model) / leading_eigenvalue(
        two_degree_model)
    assert gap == pytest.approx(0.011, abs=0.004)  # the ~1% undershoot


def test_leading_poisson_approx_is_c(poisson100):
    assert leading_eigenvalue_approx(poisson100) == pytest.approx(100.0,
                                                                  rel=1e-14)


def test_leading_iteration_route_matches_polynomial(two_degree_model, monkeypatch):
    exact = leading_eigenvalue(two_degree_model)
    monkeypatch.setattr(an, "MAX_POLY_ATOMS", 0)
    an.band_edges.cache_clear()
    bisected = leading_eigenvalue(two_degree_model)
    an.band_edges.cache_clear()
    assert bisected == pytest.approx(exact, abs=1e-6)


def test_leading_consistency_check(two_degree_model):
    z = leading_eigenvalue(two_degree_model)
    h = solve_h(two_degree_model, z).h
    assert (z - 1.0) * h == pytest.approx(1.0, abs=1e-10)


def test_leading_five_atom_regression():
    # c = 90 is the leading polynomial coefficient, nine decades below the
    # largest one; dropping it as negligible loses the detached root
    model = DegreeModel.from_atoms([(30.0, 0.2), (60.0, 0.2), (90.0, 0.2),
                                    (120.0, 0.2), (150.0, 0.2)])
    z = leading_eigenvalue(model)
    assert z == pytest.approx(111.1153, abs=1e-4)
    assert abs((z - 1.0) * solve_h(model, z).h - 1.0) < 1e-12


def test_leading_no_detached_root_flagged():
    # at c = 1 the candidate root c + 1 = 2 sits exactly on the band edge,
    # so no eigenvalue separates from the band
    with pytest.raises(NoDetachedEigenvalueError):
        leading_eigenvalue(DegreeModel.poisson(1.0))


# ---------------------------------------------------------------- hubs

def test_hub_poisson_top(poisson100):
    pred = hub_eigenvalues(poisson100, 400.0)
    assert pred.exists
    assert pred.z_plus == pytest.approx(400.0 / np.sqrt(300.0), rel=1e-12)
    assert pred.z_minus == -pred.z_plus
    assert pred.z_plus >= band_edges(poisson100)[1]


def test_hub_critical_poisson(poisson100):
    assert hub_critical_degree(poisson100) == pytest.approx(200.0, abs=1e-6)
    pred = hub_eigenvalues(poisson100, 150.0)
    assert not pred.exists
    assert pred.z_plus is None and pred.z_minus is None
    assert pred.k_critical == pytest.approx(200.0, abs=1e-6)


def test_hub_large_degree_sqrt(poisson100):
    pred = hub_eigenvalues(poisson100, 1e6)
    assert pred.z_plus / np.sqrt(1e6) == pytest.approx(1.0, abs=1e-3)


def test_hub_pole_error(two_degree_model):
    with pytest.raises(PoleError):
        hub_eigenvalues(two_degree_model, 100.0)
    with pytest.raises(PoleError):
        hub_eigenvalues(two_degree_model, 99.0)


def test_hub_consistency_with_h(poisson100, two_degree_model):
    for model, kn in ((poisson100, 400.0), (two_degree_model, 300.0)):
        pred = hub_eigenvalues(model, kn)
        h = solve_h(model, pred.z_plus).h
        assert h == pytest.approx(pred.z_plus / kn, abs=1e-8)


def test_hub_localization_poisson(poisson100):
    pred = hub_eigenvector_profile(poisson100, 400.0)
    assert pred.vn_sq == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert pred.neighbor_vi_sq_mean == pytest.approx(100.0 / 300.0 ** 2,
                                                     rel=1e-12)


def test_hub_localization_vanishes_at_transition(poisson100):
    pred = hub_eigenvector_profile(poisson100, 200.0 + 1e-3)
    assert pred.vn_sq < 0.01


def test_hub_profile_requires_detachment(poisson100):
    with pytest.raises(NoDetachedEigenvalueError):
        hub_eigenvector_profile(poisson100, 150.0)


def test_hub_general_route_matches_finite_difference(two_degree_model):
    # h'(z) from implicit differentiation vs central differences on solve_h
    kn = 320.0
    pred = hub_eigenvalues(two_degree_model, kn)
    z = pred.z_plus
    fd = central_difference(lambda x: solve_h(two_degree_model, x).h.real,
                            z, 1e-5)
    vn_sq_fd = 1.0 / (1.0 - kn * fd)
    assert pred.vn_sq == pytest.approx(vn_sq_fd, rel=1e-4)


def test_hub_general_route_agrees_with_poisson_closed_form():
    # a two-atom model collapsing onto one degree must approach the closed form
    eps = 1e-5
    split = DegreeModel.from_atoms([(100.0 * (1 - eps), 0.5),
                                    (100.0 * (1 + eps), 0.5)])
    pred = hub_eigenvalues(split, 400.0)
    assert pred.z_plus == pytest.approx(400.0 / np.sqrt(300.0), rel=1e-6)
    assert pred.vn_sq == pytest.approx(1.0 / 3.0, rel=1e-5)
    assert pred.neighbor_vi_sq_mean == pytest.approx(100.0 / 90000.0, rel=1e-4)


def test_hub_monotone_in_degree(two_degree_model):
    kns = np.linspace(260.0, 900.0, 20)
    zs = [hub_eigenvalues(two_degree_model, float(k)).z_plus for k in kns]
    assert all(b > a for a, b in zip(zs, zs[1:]))


def test_two_hub_independence(poisson100):
    # predictions for two different hubs are independent of one another
    a = hub_eigenvalues(poisson100, 400.0)
    b = hub_eigenvalues(poisson100, 300.0)
    assert a.z_plus == pytest.approx(400.0 / np.sqrt(300.0), rel=1e-12)
    assert b.z_plus == pytest.approx(300.0 / np.sqrt(200.0), rel=1e-12)


# ---------------------------------------------------------------- properties

def test_random_models_moment_identities():
    rng = np.random.default_rng(99)
    for _ in range(5):
        m = random_bounded_model(rng)
        c = m.mean_degree()
        lo, hi = band_edges(m)
        curve = density_grid(m, lo - 2.0, hi + 2.0, 1501, eta=1e-6)
        assert curve.norm_defect < 5e-3
        assert abs(np.trapezoid(curve.rho * curve.z, curve.z)) < 5e-3 * np.sqrt(c)
        assert curve.second_moment == pytest.approx(c, rel=0.02)
