from __future__ import annotations

import numpy as np
import pytest

from netspectra import (
    DegreeModel,
    InternalConsistencyError,
    StagnationError,
    attach_hub,
    dense_symmetric_eigen,
    densify_modularity,
    empirical_density,
    ensemble_hub_top,
    ensemble_leading,
    hub_vector_stats,
    l1_distance,
    pooled_spectra,
    replicate_seed,
    sample_network,
    top_eigenpair,
    write_eigenvalue_dump,
    write_histogram_csv,
)
from netspectra.empirical import (_dense_matrix, _hub_network,
                                  _replicate_network, _top_eigenvalue)
from oracles import jacobi_eigenvalues


# ---------------------------------------------------------------- dense eigen

def test_exchange_matrix():
    rep = dense_symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]), "adjacency")
    assert rep.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_diagonal_matrix():
    rep = dense_symmetric_eigen(np.diag([5.0, 2.0, 1.0, 4.0, 3.0]), "adjacency")
    assert rep.eigenvalues == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0],
                                            abs=1e-14)


def test_against_jacobi_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(3):
        m = rng.standard_normal((50, 50))
        m = m + m.T
        fast = dense_symmetric_eigen(m, "adjacency").eigenvalues
        slow = jacobi_eigenvalues(m)
        assert np.abs(fast - slow).max() < 1e-8


def test_eigen_report_invariants():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((80, 80))
    m = m + m.T
    rep = dense_symmetric_eigen(m, "modularity", want_vector=True)
    assert np.all(np.diff(rep.eigenvalues) >= 0)
    assert rep.eigenvalues.sum() == pytest.approx(np.trace(m), rel=1e-8)
    assert (rep.eigenvalues ** 2).sum() == pytest.approx(np.sum(m * m),
                                                         rel=1e-8)
    lam = rep.eigenvalues[-1]
    assert np.abs(m @ rep.top_vector - lam * rep.top_vector).max() < 1e-10 * abs(lam)
    assert rep.residual < 1e-10 * abs(lam)


def test_asymmetric_rejected():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        dense_symmetric_eigen(m, "adjacency")


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        dense_symmetric_eigen(np.eye(2), "laplacian")


# ---------------------------------------------------------------- top pair

def test_top_eigenpair_rank_one():
    k = np.linspace(1.0, 9.0, 40)
    two_m = k.sum()
    mv = lambda x: k * (k @ x) / two_m
    lam, v = top_eigenpair(mv, 40, tol=1e-10)
    assert lam == pytest.approx(k @ k / two_m, rel=1e-10)
    kn = k / np.linalg.norm(k)
    assert abs(abs(v @ kn) - 1.0) < 1e-8


def test_top_eigenpair_vs_dense():
    model = DegreeModel.poisson(100.0)
    seq = model.sample_degrees(500, seed=21)
    net = sample_network(seq, seed=22)
    b = densify_modularity(net.modularity_view())
    dense_top = dense_symmetric_eigen(b, "modularity").eigenvalues[-1]
    lam, v = top_eigenpair(net.modularity_view().matvec, 500, tol=1e-10)
    assert abs(lam - dense_top) < 1e-8
    assert np.linalg.norm(b @ v - lam * v) < 1e-9 * abs(lam)


def test_top_eigenpair_picks_algebraic_top_not_magnitude():
    # most-negative eigenvalue dominates in magnitude; we still want the top
    d = np.concatenate([[-30.0], np.linspace(-1.0, 5.0, 30)])
    mv = lambda x: d * x
    lam, v = top_eigenpair(mv, d.size, tol=1e-10)
    assert lam == pytest.approx(5.0, rel=1e-9)


def test_top_eigenpair_large_sparse_band_edge():
    # no hub: the top sits at the band edge ~ 2 sqrt(c)
    model = DegreeModel.poisson(100.0)
    seq = model.sample_degrees(10_000, seed=31)
    net = sample_network(seq, seed=32)
    lam, _ = top_eigenpair(net.modularity_view().matvec, net.n, tol=1e-4)
    assert lam == pytest.approx(20.0, abs=0.5)


def test_top_eigenpair_stagnates_when_tol_unreachable():
    # a tight cluster leaves the residual floor above an extreme tolerance
    d = np.linspace(1.0 - 1e-9, 1.0, 400)
    mv = lambda x: d * x
    with pytest.raises(StagnationError):
        top_eigenpair(mv, d.size, tol=1e-16)


def test_top_eigenpair_deterministic():
    rng = np.random.default_rng(88)
    m = rng.standard_normal((60, 60))
    m = m + m.T
    a = top_eigenpair(lambda x: m @ x, 60, tol=1e-10)
    b = top_eigenpair(lambda x: m @ x, 60, tol=1e-10)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


# ---------------------------------------------------------------- ensembles

def test_replicate_seed_mixing():
    assert replicate_seed(5, 0) != replicate_seed(5, 1)
    assert replicate_seed(5, 0) != replicate_seed(6, 0)
    assert replicate_seed(5, 3) == replicate_seed(5, 3)
    assert 0 <= replicate_seed(2 ** 63, 9) < 2 ** 64


def test_first_replicate_stable_under_more_reps(two_degree_model):
    one = pooled_spectra(two_degree_model, 120, 1, base_seed=50)
    two = pooled_spectra(two_degree_model, 120, 2, base_seed=50)
    assert np.array_equal(one, two[:120])


def test_histogram_normalization(two_degree_model):
    hist = empirical_density(two_degree_model, 150, 2, bins=40, base_seed=7)
    widths = np.diff(hist.bin_edges)
    assert abs(np.sum(hist.density * widths) - 1.0) < 1e-12
    assert np.all(hist.density >= 0.0)
    assert hist.replicates == 2 and hist.n == 150


def test_histogram_default_range_covers_band(poisson100):
    hist = empirical_density(poisson100, 200, 1, bins=30, base_seed=3)
    assert hist.bin_edges[0] == pytest.approx(-22.0, abs=1e-9)
    assert hist.bin_edges[-1] == pytest.approx(22.0, abs=1e-9)


def test_l1_distance_semicircle_smallscale(poisson100):
    hist = empirical_density(poisson100, 500, 4, bins=60, base_seed=11)
    assert l1_distance(hist, poisson100) < 0.12


def test_ensemble_leading_poisson(poisson100):
    mean, stderr = ensemble_leading(poisson100, 500, 8, base_seed=99,
                                    kind="adjacency")
    assert mean == pytest.approx(101.0, abs=1.0)
    assert 0.0 < stderr < 1.0


def test_ensemble_leading_modularity_band_edge(poisson100):
    mean, _ = ensemble_leading(poisson100, 500, 6, base_seed=4,
                               kind="modularity")
    assert mean == pytest.approx(2.0 * np.sqrt(100.0), abs=1.0)


def test_ensemble_hub_top_above_and_below_critical(poisson100):
    above, _ = ensemble_hub_top(poisson100, 400.0, 500, 6, base_seed=17)
    assert above == pytest.approx(400.0 / np.sqrt(300.0), rel=0.05)
    below, _ = ensemble_hub_top(poisson100, 120.0, 500, 6, base_seed=18)
    assert below == pytest.approx(20.0, rel=0.05)


@pytest.mark.parametrize("case", ["adjacency", "hub_above", "hub_below"])
def test_ensemble_top_matches_dense_reference(case, poisson100,
                                              two_degree_model):
    # detached leading eigenvalue, detached hub eigenvalue, and a hub below
    # critical whose top sits at the band edge (the slowest Lanczos case)
    for r in range(3):
        if case == "adjacency":
            net, kind = _replicate_network(two_degree_model, 300, 41, r), "adjacency"
        else:
            k_n = 400.0 if case == "hub_above" else 120.0
            net, kind = _hub_network(poisson100, k_n, 300, 42, r), "modularity"
        dense_top = dense_symmetric_eigen(
            _dense_matrix(net, kind), kind).eigenvalues[-1]
        assert abs(_top_eigenvalue(net, kind) - dense_top) <= 1e-8


def test_hub_vector_stats_single_network(poisson100):
    seq = attach_hub(poisson100.sample_degrees(2000, seed=61), 400.0)
    net = sample_network(seq, seed=62)
    vn_sq, nb, bulk = hub_vector_stats(net, hub_index=net.n - 1)
    assert vn_sq == pytest.approx(1.0 / 3.0, rel=0.2)
    assert nb == pytest.approx(1.0 / 900.0, rel=0.25)
    assert bulk < 10.0 / net.n


def test_rep_count_validation(poisson100):
    with pytest.raises(ValueError):
        pooled_spectra(poisson100, 100, 0, base_seed=1)
    with pytest.raises(ValueError):
        empirical_density(poisson100, 100, 1, bins=0, base_seed=1)


# ---------------------------------------------------------------- exports

def test_histogram_csv_format(tmp_path, poisson100):
    hist = empirical_density(poisson100, 120, 1, bins=10, base_seed=2)
    out = tmp_path / "hist.csv"
    write_histogram_csv(hist, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,density"
    assert len(lines) == 11
    lo, hi, d = (float(p) for p in lines[1].split(","))
    assert lo == hist.bin_edges[0] and hi == hist.bin_edges[1]
    assert d == hist.density[0]


def test_eigenvalue_dump_with_sidecar(tmp_path):
    out = tmp_path / "eigs.csv"
    write_eigenvalue_dump(np.array([1.5, -2.25]), out,
                          manifest={"model": {"atoms": [[100.0, 1.0]]},
                                    "n": 2, "seed": 3, "kind": "modularity",
                                    "replicates": 1})
    lines = out.read_text().splitlines()
    assert lines == ["eigenvalue", "1.5", "-2.25"]
    import json

    side = json.loads((tmp_path / "eigs.csv.manifest.json").read_text())
    assert side["n"] == 2 and side["kind"] == "modularity"


# ---------------------------------------------------------------- interleaving

def test_interleaving_small_networks(two_degree_model, poisson100):
    models = [two_degree_model, poisson100,
              DegreeModel.from_atoms([(40.0, 0.3), (80.0, 0.5), (160.0, 0.2)])]
    for idx in range(6):
        model = models[idx % len(models)]
        seq = model.sample_degrees(200, seed=replicate_seed(123, idx))
        net = sample_network(seq, seed=replicate_seed(321, idx))
        a = net.adjacency_dense()
        b = densify_modularity(net.modularity_view())
        lam = dense_symmetric_eigen(a, "adjacency").eigenvalues[::-1]
        beta = dense_symmetric_eigen(b, "modularity").eigenvalues[::-1]
        assert np.all(lam + 1e-9 >= beta)
        assert np.all(beta[:-1] + 1e-9 >= lam[1:])
