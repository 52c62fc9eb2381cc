from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from netspectra import (
    DegreeModel,
    NoDetachedEigenvalueError,
    NumericError,
    band_edges,
    density_grid,
    hub_critical_degree,
    hub_eigenvalues,
    hub_eigenvector_profile,
    hub_pairs,
    leading_eigenvalue,
    leading_eigenvalue_approx,
    semicircle_cauchy_transform,
    semicircle_density,
    solve_h,
    spectral_density,
    stieltjes_transform,
)
from netspectra import analytic, degree_model
from oracles import (
    central_difference,
    converged_homotopy_h,
    decimal_hub_eigenvalue,
    decimal_hub_weights,
    decimal_leading_root,
    leading_root,
    numeric_semicircle_cauchy,
    physical_root,
    poisson_band_edge,
    poisson_bulk_density,
    poisson_hub_weights,
    psi_roots,
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


def test_finish_rejects_root_with_positive_imaginary_part(two_degree_model):
    # at z = -5 + 0.1i the cubic above has a root h ~ -0.090536 + 0.001911i
    # whose residual (~1e-15) and density (+2.6e-4) pass; only Im h > 0
    # marks it as the non-physical branch
    z = complex(-5.0, 0.1)
    d1, d2, c = 50.0, 100.0, 87.5
    roots = np.roots([d1 * d2, -(d1 + d2) * z, d1 * d2 / c + z * z, -z])
    wrong = roots[np.argmin(np.abs(roots - complex(-0.090536, 0.001911)))]
    d, w = two_degree_model.degrees, two_degree_model.weights
    assert abs(wrong - np.sum(w * d / (z - d * wrong)) / c) < 1e-14
    assert wrong.imag > 0.0
    with pytest.raises(NumericError, match="non-physical branch"):
        analytic._finish(two_degree_model, np.array([z]), np.array([wrong]),
                         "homotopy-newton")


def test_h_matches_physical_root_oracle():
    # 2-12 atoms with degree ratios up to 100:1 against the unique root with
    # Im h < 0 of the cleared polynomial
    rng = np.random.default_rng(8)
    for _ in range(10):
        n_atoms = int(rng.integers(2, 13))
        lo = rng.uniform(1.0, 50.0)
        degrees = np.sort(lo * 100.0 ** rng.uniform(0.0, 1.0, size=n_atoms))
        degrees += np.arange(n_atoms) * 1e-3
        weights = rng.uniform(0.05, 1.0, size=n_atoms)
        weights /= weights.sum()
        model = DegreeModel.from_atoms(list(zip(degrees, weights)))
        edge = band_edges(model)[1]
        for _ in range(10):
            z = complex(rng.uniform(-1.5 * edge, 1.5 * edge),
                        10 ** rng.uniform(-3, 0))
            want = physical_root(model.degrees, model.weights, z)
            assert abs(solve_h(model, z).h - want) < 1e-9


def test_h_residual_and_conjugate(two_degree_model):
    z = complex(4.0, 0.1)
    up = solve_h(two_degree_model, z)
    dn = solve_h(two_degree_model, np.conj(z))
    assert up.residual < 1e-10 * max(1.0, abs(up.h))
    assert dn.h == pytest.approx(np.conj(up.h), rel=1e-12)


def test_density_grid_matches_pointwise_solve(two_degree_model):
    # the blocked grid solve against a cold solve_h at every point; 2001
    # points are 31 full blocks of 63 and a partial one at 257 nodes
    mixture = DegreeModel.from_spec(
        {"atoms": [[30.0, 0.25]],
         "continuous": {"kind": "uniform", "lo": 80.0, "hi": 120.0, "nodes": 256}})
    for model in (two_degree_model, mixture):
        hi = band_edges(model)[1]
        curve = density_grid(model, -1.2 * hi, 1.2 * hi, 2001, eta=1e-6)
        for x, rho in zip(curve.z, curve.rho):
            z = complex(x, 1e-6)
            h = solve_h(model, z).h
            g = np.sum(model.weights / (z - model.degrees * h))
            assert abs(rho - max(0.0, -g.imag / np.pi)) < 1e-12


def test_level_ratio_stress():
    # the homotopy's level ratio and one-step intermediate levels on hard
    # models: 2-12 atoms with degree ratios up to 1000:1, near the real axis
    # and away from it within 1.2 band edges, and, from a second generator
    # so the first draws the same models and points as before, out to 3
    # band edges and on the real axis outside the band, where every root is
    # real to roundoff
    rng, points = np.random.default_rng(1000), np.random.default_rng(1001)
    for _ in range(12):
        n_atoms = int(rng.integers(2, 13))
        lo = rng.uniform(1.0, 50.0)
        degrees = np.sort(lo * 1000.0 ** rng.uniform(0.0, 1.0, size=n_atoms))
        degrees += np.arange(n_atoms) * 1e-3
        weights = rng.uniform(0.05, 1.0, size=n_atoms)
        weights /= weights.sum()
        model = DegreeModel.from_atoms(list(zip(degrees, weights)))
        edge = band_edges(model)[1]
        near = [rng.uniform(-1.2 * edge, 1.2 * edge, size=12) + 1j * eta
                for eta in (1e-9, 1e-3)]
        real = points.choice([-1.0, 1.0], size=6) * points.uniform(edge, 3.0 * edge, size=6)
        for z in (*near,
                  points.uniform(-3.0 * edge, 3.0 * edge, size=12) + 1e-9j,
                  points.uniform(-3.0 * edge, 3.0 * edge, size=12) + 1e-3j,
                  real + 0j):
            h, _, _ = analytic._solve_h_batch(model, z)
            for zj, hj in zip(z, h):
                assert abs(hj - physical_root(model.degrees, model.weights, zj)) < 1e-9
    mixture = DegreeModel.from_spec(
        {"atoms": [[30.0, 0.25]],
         "continuous": {"kind": "uniform", "lo": 80.0, "hi": 120.0, "nodes": 256}})
    edge = band_edges(mixture)[1]
    curve = density_grid(mixture, -1.3 * edge, 1.3 * edge, 1501, eta=1e-9)
    h, res, _ = analytic._solve_h_batch(mixture, curve.z + 1j * curve.eta)
    assert np.all(res < analytic.RESIDUAL_RTOL * np.maximum(1.0, np.abs(h)))
    assert curve.norm_defect < 5e-3


@pytest.mark.parametrize("eta", [1e-6, 1e-9])
def test_one_step_levels_do_not_move_the_answer(eta):
    # levels above the goal take one Newton step at ratio 32; ratio 8 with
    # every level converged to NEWTON_TOL gives the same h and density on the
    # 257-node benchmark grid
    mixture = DegreeModel.from_spec(
        {"atoms": [[30.0, 0.25]],
         "continuous": {"kind": "uniform", "lo": 80.0, "hi": 120.0, "nodes": 256}})
    d, w = mixture.degrees, mixture.weights
    z = np.linspace(-25.0, 25.0, 2001) + 1j * eta
    h, _, rho = analytic._solve_h_batch(mixture, z)
    h_full = converged_homotopy_h(d, w, z, tol=analytic.NEWTON_TOL)
    rho_full = -np.sum(w / (z[:, None] - np.outer(h_full, d)), axis=1).imag / np.pi
    assert np.all(np.abs(h - h_full) <= 1e-13 * np.abs(h_full))
    assert np.all(np.abs(rho - rho_full) <= 1e-15)


PANEL_SPECS = {
    # the six models of the benchmark's analytic panel
    "poisson100": {"atoms": [[100.0, 1.0]]},
    "two_degree": {"atoms": [[50.0, 0.25], [100.0, 0.75]]},
    "three_atom": {"atoms": [[40.0, 0.3], [80.0, 0.5], [160.0, 0.2]]},
    "five_atom": {"atoms": [[30.0, 0.2], [60.0, 0.2], [90.0, 0.2],
                            [120.0, 0.2], [150.0, 0.2]]},
    "uniform64": {"continuous": {"kind": "uniform", "lo": 60.0, "hi": 140.0,
                                 "nodes": 64}},
    "mixture": {"atoms": [[30.0, 0.25]],
                "continuous": {"kind": "uniform", "lo": 80.0, "hi": 120.0,
                               "nodes": 256}},
}


@pytest.mark.parametrize("eta", [1e-6, 1e-9])
@pytest.mark.parametrize("name", list(PANEL_SPECS))
def test_panel_grids_solve(name, eta):
    # the homotopy schedule on the benchmark's density grids: a level ratio
    # too large for it loses the root at some point and raises
    model = DegreeModel.from_spec(PANEL_SPECS[name])
    grid = np.linspace(-25.0, 25.0, 2001)
    h, res, rho = analytic._solve_h_batch(model, grid + 1j * eta)
    assert np.all(res < analytic.RESIDUAL_RTOL * np.maximum(1.0, np.abs(h)))
    assert abs(float(np.trapezoid(np.maximum(rho, 0.0), grid)) - 1.0) < 5e-3


def test_no_overflow_near_the_largest_float(two_degree_model):
    # both parts of z near the largest float: 1/z is representable, but
    # 1/(z - d h) taken at full scale overflows to 0
    z = complex(1.7e308, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_h(two_degree_model, z)
    want = complex(0.5 / 1.7e308, -0.5 / 1.7e308)
    assert abs(sol.h - want) <= 1e-12 * abs(want)
    assert sol.residual < analytic.RESIDUAL_RTOL


def test_band_edge_at_the_largest_degree():
    # the critical-degree scan squares up to 3 times the largest degree;
    # at the cap it neither overflows nor warns, and degrees scaled by s
    # scale the band edge by sqrt(s)
    big = degree_model.MAX_DEGREE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = DegreeModel.from_atoms([(big, 0.5), (big / 2, 0.5)])
        edge = band_edges(scaled)[1]
        spread = DegreeModel.from_atoms([(big, 0.5), (1.0, 0.5)])
        assert np.isfinite(band_edges(spread)[1])
        assert np.all(np.isfinite(density_grid(spread, -1.0, 1.0, 5).rho))
    small = band_edges(DegreeModel.from_atoms([(2.0, 0.5), (1.0, 0.5)]))[1]
    assert edge == pytest.approx(np.sqrt(big / 2) * small, rel=1e-12)


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


def test_density_grid_point_near_zero(two_degree_model):
    # linspace puts a point at -3.55e-15 rather than at 0; the density there
    # must not lose accuracy to a 1/z
    curve = density_grid(two_degree_model, -26.0, 13.0, 70, eta=1e-6)
    assert np.all(np.diff(curve.z) > 0)
    i = int(np.argmin(np.abs(curve.z)))
    assert 0.0 < abs(curve.z[i]) < 1e-14
    assert curve.rho[i] == pytest.approx(
        spectral_density(two_degree_model, 0.0, 1e-6), rel=1e-6)


def test_density_grid_validation(poisson100):
    with pytest.raises(ValueError):
        density_grid(poisson100, 1.0, -1.0, 100)
    with pytest.raises(ValueError):
        density_grid(poisson100, -1.0, 1.0, 1)


def test_non_finite_point_rejected(two_degree_model):
    # the homotopy never reaches a NaN goal, so a NaN point used to hang
    nan = float("nan")
    with pytest.raises(ValueError, match="eta must be positive"):
        spectral_density(two_degree_model, 1.0, nan)
    with pytest.raises(ValueError, match="eta must be positive"):
        density_grid(two_degree_model, -25.0, 25.0, 11, eta=nan)
    with pytest.raises(ValueError, match="eta must be finite"):
        spectral_density(two_degree_model, 1.0, np.inf)
    with pytest.raises(ValueError, match="eta must be finite"):
        density_grid(two_degree_model, -25.0, 25.0, 11, eta=np.inf)
    with pytest.raises(ValueError, match="span z_max - z_min must be finite"):
        density_grid(two_degree_model, -25.0, np.inf, 11)
    with pytest.raises(ValueError, match="is not finite"):
        spectral_density(two_degree_model, nan, 1e-3)
    with pytest.raises(ValueError, match="is not finite"):
        solve_h(two_degree_model, complex(1.0, np.inf))


def test_density_grid_two_degree_moments(two_degree_model):
    # eta = 1e-9 puts the points just outside the band edges next to a
    # second, unphysical root of the cubic
    for eta in (1e-6, 1e-9):
        curve = density_grid(two_degree_model, -25.0, 25.0, 2001, eta=eta)
        assert curve.norm_defect < 5e-3
        assert curve.second_moment == pytest.approx(87.5, rel=0.02)
        assert abs(np.trapezoid(curve.rho * curve.z, curve.z)) < 5e-3 * np.sqrt(87.5)


# ---------------------------------------------------------------- stieltjes

def test_stieltjes_tail(poisson100, two_degree_model):
    for m in (poisson100, two_degree_model):
        z = 1e6
        assert stieltjes_transform(m, z) * z == pytest.approx(1.0, rel=1e-6)


def test_stieltjes_near_largest_float(two_degree_model):
    # both forms of g and the tolerance divide by z; none may overflow
    z = 1.7e308 + 1.7e308j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = stieltjes_transform(two_degree_model, z)
    assert g == pytest.approx(0.5 / (0.5 * z), rel=1e-12)


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


def test_band_edges_single_atom_on_the_general_curve():
    # one atom goes through the general curve z(u_c); it meets the closed
    # form 2 sqrt(c) to one ulp over log-uniform c, and exactly at the round
    # c the other tests use
    rng = np.random.default_rng(216)
    for c in 10.0 ** rng.uniform(-3.0, 6.0, 500):
        edge = band_edges(DegreeModel.poisson(c))[1]
        assert abs(edge - poisson_band_edge(c)) <= 2.5e-16 * poisson_band_edge(c)
    for c in (1.0, 100.0):
        edge = poisson_band_edge(c)
        assert band_edges(DegreeModel.poisson(c)) == (-edge, edge)


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


def test_real_axis_route_random_models():
    # band edge, critical degree, leading and hub eigenvalues of randomized
    # bounded models against the density support and independent oracles
    rng = np.random.default_rng(2012)
    models = [random_bounded_model(rng) for _ in range(10)]
    models.append(DegreeModel.uniform(50.0, 150.0, nodes=128))
    for m in models:
        lo, hi = band_edges(m)
        assert lo == -hi
        delta = 1e-3 * hi
        assert spectral_density(m, hi - delta, 1e-9) > 1e-5  # ~ sqrt(delta)
        assert spectral_density(m, hi + delta, 1e-9) < 1e-6
        roots = psi_roots(m.degrees, m.weights)
        assert len(roots) == 1
        k_c = hub_critical_degree(m)
        assert k_c == pytest.approx(roots[-1], rel=1e-10)
        assert leading_eigenvalue(m) > hi
        kn = 2.0 * k_c
        pred = hub_eigenvalues(m, kn)
        assert pred.exists and pred.z_plus > hi
        h = solve_h(m, pred.z_plus).h
        assert abs(h - pred.z_plus / kn) < 1e-10


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


def test_leading_matches_oracle_root(two_degree_model):
    # an atomic and a 64-node continuous model against the root of the
    # substituted equation c / (z-1)^2 = sum w d / (z^2 - z - d)
    for model in (two_degree_model, DegreeModel.uniform(60.0, 140.0, nodes=64)):
        z = leading_eigenvalue(model)
        assert z == pytest.approx(leading_root(model.degrees, model.weights),
                                  abs=1e-6)
        assert abs((z - 1.0) * solve_h(model, z).h - 1.0) < 1e-10


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


_SCALES = [2, 7, 12, 16, 21, 77, 150, "max"]


@pytest.mark.parametrize("family", ["with-1", "with-half"])
@pytest.mark.parametrize("e", _SCALES, ids=[f"1e{e}" for e in _SCALES[:-1]] + ["max"])
def test_leading_matches_decimal_oracle_at_any_degree_scale(e, family):
    # {(k, 1/2), (1, 1/2)} and {(k, 1/2), (k/2, 1/2)} with k = 10^e, or the
    # largest admitted degree.  Near the root u G(u) / c - 1 falls below the
    # float resolution of 1 as k grows, so a route that forms it loses about
    # a digit per decade of k
    k = degree_model.MAX_DEGREE if e == "max" else 10.0 ** e
    low = 1.0 if family == "with-1" else 0.5 * k
    model = DegreeModel.from_atoms([(k, 0.5), (low, 0.5)])
    want = decimal_leading_root(model.degrees, model.weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert leading_eigenvalue(model) == pytest.approx(want, rel=1e-12)


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
    assert pred.z_plus >= band_edges(poisson100)[1]


def test_hub_critical_poisson(poisson100):
    assert hub_critical_degree(poisson100) == pytest.approx(200.0, abs=1e-6)
    pred = hub_eigenvalues(poisson100, 150.0)
    assert not pred.exists
    assert pred.z_plus is None
    assert pred.k_critical == pytest.approx(200.0, abs=1e-6)


def test_hub_large_degree_sqrt(poisson100):
    pred = hub_eigenvalues(poisson100, 1e6)
    assert pred.z_plus / np.sqrt(1e6) == pytest.approx(1.0, abs=1e-3)


def test_hub_pole_error(two_degree_model):
    with pytest.raises(ValueError, match="must strictly exceed the maximum"):
        hub_eigenvalues(two_degree_model, 100.0)
    with pytest.raises(ValueError, match="must strictly exceed the maximum"):
        hub_eigenvalues(two_degree_model, 99.0)


@pytest.mark.parametrize("kn", [np.nan, np.inf])
def test_hub_degree_must_be_finite(two_degree_model, kn):
    with pytest.raises(ValueError, match=f"hub degree {kn!r} must be finite"):
        hub_eigenvalues(two_degree_model, kn)
    with pytest.raises(ValueError, match=f"hub degree {kn!r} must be finite"):
        hub_pairs(two_degree_model, np.array([300.0, kn]))


@pytest.mark.parametrize("kn", [1e160, 1e300, 1e308, 1.7976931348623157e308])
def test_hub_eigenvalue_where_the_degree_squared_overflows(two_degree_model, kn):
    # k_n^2 is not a float, but z = sqrt(k_n^2 G(k_n) / c) is, and so are
    # the weights, down to the subnormal neighbor weight at the largest float
    d, w = two_degree_model.degrees, two_degree_model.weights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = hub_eigenvalues(two_degree_model, kn)
    assert pred.z_plus == pytest.approx(decimal_hub_eigenvalue(d, w, kn), rel=1e-12)
    assert pred.vn_sq == pytest.approx(0.5, rel=1e-9)
    neighbor = decimal_hub_weights(d, w, kn)[1]
    assert pred.neighbor_vi_sq_mean == pytest.approx(neighbor, rel=1e-12)


def test_hub_weights_match_decimal_oracle_at_any_degree_scale():
    # v_n^2 = psi / (2 G) and 2 v_n^2 (1 - v_n^2) / k_n against the implicit
    # derivative at 60 digits, on atomic and mixed models scaled by 1e-3 to
    # 1e150, from just above the critical degree, where v_n^2 -> 0 and psi
    # cancels, to far above it
    rng = np.random.default_rng(29)
    cases = [(1.0 + 1e-9, 1e-6), (1.0 + 1e-5, 1e-10)] + [
        (r, 1e-14) for r in (1.1, 2.0, 1e3, 1e8)]
    for i in range(30):
        scale = 10.0 ** rng.uniform(-3.0, 150.0)
        n_atoms = int(rng.integers(1, 5))
        degrees = (np.sort(rng.uniform(0.5, 2.0, n_atoms))
                   + 1e-3 * np.arange(n_atoms)) * scale
        weights = rng.uniform(0.2, 1.0, n_atoms)
        weights /= weights.sum()
        if i % 3 == 2:  # half the mass on 8 nodes over [2.5, 3] scale
            model = DegreeModel.from_parts(list(zip(degrees, 0.5 * weights)),
                                           lambda x: np.ones_like(x),
                                           2.5 * scale, 3.0 * scale, nodes=8)
        else:
            model = DegreeModel.from_atoms(list(zip(degrees, weights)))
        k_c = hub_critical_degree(model)
        for ratio, rel in cases:
            kn = k_c * ratio
            want_vn, want_nb = decimal_hub_weights(model.degrees, model.weights, kn)
            vn_sq, neighbor = analytic._hub_localization(model, kn)
            assert abs(vn_sq - want_vn) <= rel * want_vn, (i, ratio)
            assert abs(neighbor - want_nb) <= rel * want_nb, (i, ratio)


def test_hub_consistency_with_h(poisson100, two_degree_model):
    for model, kn in ((poisson100, 400.0), (two_degree_model, 300.0)):
        pred = hub_eigenvalues(model, kn)
        h = solve_h(model, pred.z_plus).h
        assert h == pytest.approx(pred.z_plus / kn, abs=1e-8)


def test_hub_check_fires_on_perturbed_candidate(monkeypatch, two_degree_model):
    # a candidate z off by a relative 1e-6 must fail the batched cold check,
    # for the hub pairs and for the leading eigenvalue, which shares it
    curve_z = analytic._curve_z
    monkeypatch.setattr(analytic, "_curve_z",
                        lambda model, u: curve_z(model, u) * (1.0 + 1e-6))
    with pytest.raises(NumericError, match=r"fails h\(z\) = z / k_n"):
        hub_pairs(two_degree_model, np.linspace(101.0, 400.0, 30))
    with pytest.raises(NumericError, match=r"fails h\(z\) = z / k_n"):
        hub_eigenvalues(two_degree_model, 300.0)
    with pytest.raises(NumericError, match=r"leading eigenvalue .* fails h\(z\) = z / k_n"):
        leading_eigenvalue(two_degree_model)


def test_hub_localization_poisson(poisson100):
    pred = hub_eigenvector_profile(poisson100, 400.0)
    assert pred.vn_sq == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert pred.neighbor_vi_sq_mean == pytest.approx(100.0 / 300.0 ** 2,
                                                     rel=1e-12)


def test_hub_weights_single_atom_on_the_general_curve():
    # one atom goes through the general psi / (2 G) weights; they meet the
    # closed forms to roundoff away from the transition, and to 1e-10 just
    # above it, where v_n^2 -> 0
    rng = np.random.default_rng(25)
    for c in (0.5, 1.0, 3.0, 100.0, 1000.0):
        model = DegreeModel.poisson(c)
        kns = c * np.append(2.5, 10.0 ** rng.uniform(np.log10(2.5), 3.0, 8))
        cases = [(2.0 * c * (1.0 + 1e-5), 1e-10)] + [(k, 1e-14) for k in kns]
        for kn, rel in cases:
            pred = hub_eigenvalues(model, kn)
            vn_sq, neighbor = poisson_hub_weights(kn, c)
            assert abs(pred.vn_sq - vn_sq) <= rel * vn_sq
            assert abs(pred.neighbor_vi_sq_mean - neighbor) <= rel * neighbor


def test_hub_localization_vanishes_at_transition(poisson100):
    pred = hub_eigenvector_profile(poisson100, 200.0 + 1e-3)
    assert pred.vn_sq < 0.01


def test_hub_profile_requires_detachment(poisson100):
    with pytest.raises(NoDetachedEigenvalueError):
        hub_eigenvector_profile(poisson100, 150.0)


def test_hub_general_route_matches_finite_difference(two_degree_model):
    # psi / (2 G) vs 1 / (1 - k_n h'(z)) with h' by central differences on solve_h
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
