from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from scipy.integrate import quad

from netspectra import DegreeModel, DegreeSequence, degree_model


def random_atomic_model(rng: np.random.Generator) -> DegreeModel:
    n_atoms = int(rng.integers(1, 6))
    degrees = np.sort(rng.uniform(5.0, 300.0, size=n_atoms))
    degrees += np.arange(n_atoms)  # keep them clearly distinct
    weights = rng.uniform(0.1, 1.0, size=n_atoms)
    weights /= weights.sum()
    return DegreeModel.from_atoms(list(zip(degrees, weights)))


# ---------------------------------------------------------------- mean/moment

def test_mean_single_atom():
    assert DegreeModel.poisson(100.0).mean_degree() == 100.0


def test_mean_two_atoms(two_degree_model):
    assert two_degree_model.mean_degree() == pytest.approx(87.5, abs=1e-12)


def test_mean_uniform_matches_integral():
    model = DegreeModel.uniform(10.0, 20.0)
    exact = quad(lambda k: k / 10.0, 10.0, 20.0)[0]  # 15, via quadrature oracle
    assert model.mean_degree() == pytest.approx(exact, abs=1e-10)


def test_moment_two_atoms(two_degree_model):
    expected = 0.25 * 50.0 ** 2 + 0.75 * 100.0 ** 2
    assert two_degree_model.moment(2) == pytest.approx(expected, rel=1e-14)
    assert expected == 8125.0


def test_moment_single_atom_powers(poisson100):
    for r in (1, 2, 3, 5):
        assert poisson100.moment(r) == pytest.approx(100.0 ** r, rel=1e-13)


def test_first_moment_equals_mean():
    rng = np.random.default_rng(101)
    for _ in range(20):
        m = random_atomic_model(rng)
        assert m.moment(1) == pytest.approx(m.mean_degree(), rel=1e-14)


def test_moment_order_validated(poisson100):
    with pytest.raises(ValueError):
        poisson100.moment(0)


# ---------------------------------------------------------------- excess

def test_excess_two_atoms(two_degree_model):
    q = two_degree_model.excess_distribution()
    assert q.degrees.tolist() == [50.0, 100.0]
    assert q.weights[0] == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert q.weights[1] == pytest.approx(6.0 / 7.0, rel=1e-12)


def test_excess_single_atom_unchanged(poisson100):
    q = poisson100.excess_distribution()
    assert q.degrees.tolist() == [100.0]
    assert q.weights.tolist() == [1.0]


def test_excess_mean_is_moment_ratio():
    rng = np.random.default_rng(2222)
    for _ in range(25):
        m = random_atomic_model(rng)
        q = m.excess_distribution()
        assert q.mean_degree() == pytest.approx(m.moment(2) / m.moment(1),
                                                rel=1e-12)
        assert abs(q.weights.sum() - 1.0) < 1e-12


def test_weight_normalization_after_construction():
    rng = np.random.default_rng(333)
    for _ in range(25):
        m = random_atomic_model(rng)
        assert abs(m.weights.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------- cauchy

def test_cauchy_single_atom(poisson100):
    assert poisson100.cauchy_transform(200.0) == pytest.approx(1.0, rel=1e-14)


def test_cauchy_two_atoms(two_degree_model):
    expected = 12.5 / 150.0 + 75.0 / 100.0
    got = two_degree_model.cauchy_transform(200.0)
    assert got.real == pytest.approx(expected, rel=1e-13)
    assert got.imag == 0.0


def test_cauchy_leading_asymptotics(poisson100, two_degree_model):
    # Gamma_p(z) * z -> c with first correction <k^2>/z (1e-6 relative here)
    z = 1e8
    rng = np.random.default_rng(77)
    models = [poisson100, two_degree_model] + [random_atomic_model(rng)
                                             for _ in range(10)]
    for m in models:
        tol = 1.1 * m.moment(2) / (m.mean_degree() * z) + 1e-12
        assert tol < 2e-6 or m not in (poisson100, two_degree_model)
        assert m.cauchy_transform(z) * z == pytest.approx(m.mean_degree(),
                                                          rel=tol)


def test_cauchy_conjugate_symmetry():
    rng = np.random.default_rng(55)
    m = random_atomic_model(rng)
    for _ in range(20):
        z = complex(rng.uniform(-500, 500), rng.uniform(0.01, 50))
        assert m.cauchy_transform(np.conj(z)) == pytest.approx(
            np.conj(m.cauchy_transform(z)), rel=1e-13)


def test_cauchy_pole_error(two_degree_model):
    with pytest.raises(ValueError, match="coincides with a degree node"):
        two_degree_model.cauchy_transform(50.0)
    with pytest.raises(ValueError, match="coincides with a degree node"):
        two_degree_model.cauchy_transform(100.0 * (1.0 + 1e-15))


# ---------------------------------------------------------------- sampling

def test_sample_degrees_degenerate(poisson100):
    seq = poisson100.sample_degrees(5, seed=9)
    assert seq.k.tolist() == [100.0] * 5
    assert seq.two_m == 500.0


def test_sample_degrees_fraction(two_degree_model):
    # binomial concentration: fraction of 50s stays near 1/4
    for seed in range(10):
        seq = two_degree_model.sample_degrees(10_000, seed=seed)
        frac = np.mean(seq.k == 50.0)
        assert 0.22 <= frac <= 0.28


def test_sample_degrees_deterministic(two_degree_model):
    a = two_degree_model.sample_degrees(1000, seed=1234)
    b = two_degree_model.sample_degrees(1000, seed=1234)
    assert np.array_equal(a.k, b.k)
    c = two_degree_model.sample_degrees(1000, seed=1235)
    assert not np.array_equal(a.k, c.k)


# sha256 of the draws for seeds 0-4 at n = 5000, one sequence after another,
# as the separate atomic and mixed sampling branches gave them
@pytest.mark.parametrize("model, digest", [
    pytest.param(DegreeModel.poisson(100.0),
                 "6887d973ab6c414bea1835864aad9cc954801abf57a7c12761631e7c89cf49ec",
                 id="poisson100"),
    pytest.param(DegreeModel.from_atoms([(50.0, 0.25), (100.0, 0.75)]),
                 "aac950b8b1847d0f41b3abdd9c023eb00f339cdaad98c03615cd487d79fe1a93",
                 id="two_degree"),
    # weights summing to 1 - 4e-13: a uniform above the last cumulative
    # weight still picks the last atom
    pytest.param(DegreeModel.from_atoms([(20.0, 0.2), (60.0, 0.3),
                                         (90.0, 0.5 - 4e-13)]),
                 "08f564e761bf976086800860ebe54548075bf7dea3817ace69a552fc1672b2a9",
                 id="atoms_short_of_one"),
    pytest.param(DegreeModel.from_parts([(30.0, 0.25)], lambda k: np.ones_like(k),
                                        80.0, 120.0, 256),
                 "fa1aa4a1a77ec914cceec526df5c42cd794b4b99a5f8991f17f060ea880d8bf2",
                 id="mixture"),
    pytest.param(DegreeModel.uniform(60.0, 140.0, nodes=64),
                 "4131f7b5e2da1a487193583f2b1778d9933934ff8c39d2e046358444939d1dab",
                 id="uniform64"),
])
def test_sample_degrees_pinned(model, digest):
    sha = hashlib.sha256()
    for seed in range(5):
        sha.update(model.sample_degrees(5000, seed).k.tobytes())
    assert sha.hexdigest() == digest


def test_sample_degrees_continuous_range():
    model = DegreeModel.uniform(50.0, 150.0)
    seq = model.sample_degrees(5000, seed=3)
    assert seq.k.min() >= 50.0 and seq.k.max() <= 150.0
    assert seq.mean() == pytest.approx(100.0, abs=2.0)


def test_sample_degrees_mixed_parts():
    model = DegreeModel.from_parts(atoms=[(30.0, 0.5)],
                                   density=lambda k: np.ones_like(k),
                                   lo=80.0, hi=120.0)
    seq = model.sample_degrees(20_000, seed=11)
    atom_frac = np.mean(seq.k == 30.0)
    assert atom_frac == pytest.approx(0.5, abs=0.02)
    cont = seq.k[seq.k != 30.0]
    assert cont.min() >= 80.0 and cont.max() <= 120.0


# ---------------------------------------------------------------- quadrature

def test_quadrature_nodes_shared_across_builds():
    a, b = (DegreeModel.from_parts([(30.0, 0.25)], lambda k: np.sqrt(k),
                                   80.0, 120.0, 256) for _ in range(2))
    x, w = np.polynomial.legendre.leggauss(256)
    assert a.degrees.tobytes() == b.degrees.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.degrees[1:].tobytes() == (100.0 + 20.0 * x).tobytes()
    # the shared rule is read-only, so no build can change another's nodes
    assert not any(arr.flags.writeable for arr in degree_model._gauss_legendre(256))


def test_quadrature_convergence_smooth():
    for make in (lambda nodes: DegreeModel.uniform(50.0, 150.0, nodes=nodes),
                 lambda nodes: DegreeModel.from_parts(
                     density=lambda k: np.exp(-k / 50.0), lo=40.0, hi=200.0,
                     nodes=nodes)):
        coarse, fine = make(256), make(512)
        for r in range(1, 5):
            a, b = coarse.moment(r), fine.moment(r)
            assert abs(a - b) / abs(b) < 1e-9


# ---------------------------------------------------------------- validation

def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="weights must sum to 1"):
        DegreeModel.from_atoms([(10.0, 0.5), (20.0, 0.4)])


def test_degrees_must_be_positive():
    with pytest.raises(ValueError, match="atom degrees must be positive"):
        DegreeModel.from_atoms([(-5.0, 1.0)])
    with pytest.raises(ValueError, match="atom degrees must be positive"):
        DegreeModel.from_atoms([(0.0, 1.0)])


def test_degree_above_cap_rejected():
    # every square the solvers take stays finite up to the cap, and the
    # degree that passes it is named
    assert degree_model.MAX_DEGREE == 0.25 * np.sqrt(np.finfo(float).max)
    DegreeModel.from_atoms([(degree_model.MAX_DEGREE, 0.5), (1.0, 0.5)])
    above = float(np.nextafter(degree_model.MAX_DEGREE, np.inf))
    for atoms in ([(above, 0.5), (1.0, 0.5)], [(1e300, 1.0)]):
        named = re.escape(f"degree {max(atoms)[0]!r} exceeds the largest "
                          f"supported degree 3.35e+153")
        with pytest.raises(ValueError, match=f"^{named}$"):
            DegreeModel.from_atoms(atoms)
    with pytest.raises(ValueError, match="^degree .* exceeds"):
        DegreeModel.uniform(1.0, 1e154)


def test_infinite_support_rejected():
    with pytest.raises(ValueError, match="continuous support must be finite"):
        DegreeModel.from_parts(density=lambda k: np.exp(-k), lo=1.0,
                               hi=np.inf)


def test_atom_dedup_merges_close_degrees():
    m = DegreeModel.from_atoms([(100.0, 0.5), (100.0 * (1 + 1e-12), 0.5)])
    assert m.degrees.size == 1
    assert m.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_degree_sequence_validation():
    with pytest.raises(ValueError, match="must be strictly positive"):
        DegreeSequence.from_values([1.0, -2.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="expected degrees must be finite"):
            DegreeSequence.from_values([1.0, bad])
    seq = DegreeSequence.from_values([1.0, 2.0, 3.0])
    assert seq.n == 3
    assert seq.two_m == 6.0


def test_nan_fails_model_validation():
    # every NaN comparison is False, so each check must be one a NaN fails
    with pytest.raises(ValueError, match=r"weights must lie in \(0, 1\]"):
        DegreeModel.from_atoms([(50.0, 0.5), (100.0, np.nan)])
    with pytest.raises(ValueError, match="atom degrees must be finite"):
        DegreeModel.from_atoms([(np.nan, 1.0)])


# ---------------------------------------------------------------- spec files

def test_from_spec_atoms_only(two_degree_model):
    m = DegreeModel.from_spec({"atoms": [[50.0, 0.25], [100.0, 0.75]]})
    assert np.array_equal(m.degrees, two_degree_model.degrees)
    assert np.array_equal(m.weights, two_degree_model.weights)


def test_from_spec_uniform_and_remainder_mass():
    m = DegreeModel.from_spec({
        "atoms": [[30.0, 0.25]],
        "continuous": {"kind": "uniform", "lo": 80.0, "hi": 120.0,
                       "nodes": 64}})
    assert abs(m.weights.sum() - 1.0) < 1e-12
    assert m.weights[0] == 0.25
    assert m.weights[1:].sum() == pytest.approx(0.75, abs=1e-13)


def test_from_spec_tabulated():
    kk = [50.0, 100.0, 150.0]
    ff = [0.0, 1.0, 0.0]  # triangle density; mean = 100 by symmetry
    m = DegreeModel.from_spec({"continuous": {"kind": "tabulated",
                                              "k": kk, "density": ff}})
    assert m.mean_degree() == pytest.approx(100.0, rel=1e-3)
    assert abs(m.weights.sum() - 1.0) < 1e-12


def test_from_spec_rejects_unknown(tmp_path):
    with pytest.raises(ValueError, match="unknown continuous kind"):
        DegreeModel.from_spec({"continuous": {"kind": "lognormal"}})
    with pytest.raises(ValueError, match="model spec is empty"):
        DegreeModel.from_spec({})
