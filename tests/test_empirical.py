from __future__ import annotations

import ctypes
import os
import subprocess
import sys

import numpy as np
import pytest

from netspectra import (
    DegreeModel,
    NumericError,
    attach_hub,
    dense_symmetric_eigen,
    densify_modularity,
    empirical_density,
    ensemble_hub,
    ensemble_hub_localization,
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
from netspectra import empirical, sampler
from netspectra.empirical import (MATRIX_KINDS, SYMMETRY_BLOCK_ROWS,
                                  _dense_matrix, _replicate_bytes,
                                  _replicate_network, _replicate_workers,
                                  _top_pair)
from oracles import jacobi_eigenvalues


# ---------------------------------------------------------------- dense eigen

def test_exchange_matrix():
    rep = dense_symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rep.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_diagonal_matrix():
    rep = dense_symmetric_eigen(np.diag([5.0, 2.0, 1.0, 4.0, 3.0]))
    assert rep.eigenvalues == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0],
                                            abs=1e-14)


def test_against_jacobi_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(3):
        m = rng.standard_normal((50, 50))
        m = m + m.T
        fast = dense_symmetric_eigen(m).eigenvalues
        slow = jacobi_eigenvalues(m)
        assert np.abs(fast - slow).max() < 1e-8


def test_eigen_report_invariants():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((80, 80))
    m = m + m.T
    rep = dense_symmetric_eigen(m)
    assert np.all(np.diff(rep.eigenvalues) >= 0)
    assert rep.eigenvalues.sum() == pytest.approx(np.trace(m), rel=1e-8)
    assert (rep.eigenvalues ** 2).sum() == pytest.approx(np.sum(m * m),
                                                         rel=1e-8)


def test_asymmetric_rejected():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        dense_symmetric_eigen(m)


def test_overwrite_is_keyword_only():
    # a matrix kind passed where it once went must not bind to overwrite_a
    with pytest.raises(TypeError):
        dense_symmetric_eigen(np.eye(2), "adjacency")


def _symmetric(n: int, seed: int) -> np.ndarray:
    m = np.random.default_rng(seed).standard_normal((n, n))
    return m + m.T


def test_matches_eigvalsh_oracle():
    m = _symmetric(300, 31)
    ref = np.linalg.eigvalsh(m)
    vals = dense_symmetric_eigen(m).eigenvalues
    assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()


def test_dsyevd_fallback_matches_two_stage(monkeypatch, two_degree_model):
    m = _symmetric(300, 31)
    two_stage = dense_symmetric_eigen(m).eigenvalues
    pooled = pooled_spectra(two_degree_model, 300, 2, base_seed=3)
    # _lapack as a build without dsyevd_2stage sees it
    capsule = empirical._capsule_dsyevd(), empirical._lapack()[1]
    monkeypatch.setattr(empirical, "_lapack", lambda: capsule)
    assert empirical._lapack()[0].__name__ == "dsyevd"
    fallback = dense_symmetric_eigen(m).eigenvalues
    assert (np.abs(fallback - two_stage).max()
            <= 1e-10 * np.abs(two_stage).max())
    pooled_fallback = pooled_spectra(two_degree_model, 300, 2, base_seed=3)
    for r in range(2):
        rows = slice(300 * r, 300 * (r + 1))
        assert (np.abs(pooled_fallback[rows] - pooled[rows]).max()
                <= 1e-10 * np.abs(pooled[rows]).max())


def test_lapack_finds_two_stage_solver():
    from scipy.linalg import cython_lapack

    library = ctypes.CDLL(cython_lapack.__file__)
    names = [name for name in ("scipy_dsyevd_2stage_", "dsyevd_2stage_")
             if getattr(library, name, None) is not None]
    if not names:
        pytest.skip("the LAPACK behind SciPy exports no dsyevd_2stage: "
                    "dense spectra fall back to dsyevd")
    assert empirical._lapack()[0].__name__ == names[0]


def test_input_unchanged_without_overwrite():
    m = _symmetric(120, 8)
    before = m.copy()
    dense_symmetric_eigen(m)
    assert np.array_equal(m, before)


@pytest.mark.parametrize("row, col", [(1, 5), (299, 290), (3, 290)],
                         ids=["first-block", "last-partial-block",
                              "first-and-last-block"])
def test_asymmetry_rejected_in_any_row_block(row, col):
    # the broken pair lies in the first block, the last, or across both, where
    # only the last block's rows (against their transposed columns) see it
    m = _symmetric(300, 12)
    assert 300 % SYMMETRY_BLOCK_ROWS != 0
    first, last = 0, 300 // SYMMETRY_BLOCK_ROWS
    blocks = {row // SYMMETRY_BLOCK_ROWS, col // SYMMETRY_BLOCK_ROWS}
    assert blocks in ({first}, {last}, {first, last})
    m[row, col] += 1e-9
    with pytest.raises(ValueError, match="not symmetric"):
        dense_symmetric_eigen(m, overwrite_a=True)


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
    dense_top = dense_symmetric_eigen(b).eigenvalues[-1]
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
    with pytest.raises(NumericError, match="top eigenpair stalled"):
        top_eigenpair(mv, d.size, tol=1e-16)


def test_top_eigenpair_deterministic():
    rng = np.random.default_rng(88)
    m = rng.standard_normal((60, 60))
    m = m + m.T
    a = top_eigenpair(lambda x: m @ x, 60, tol=1e-10)
    b = top_eigenpair(lambda x: m @ x, 60, tol=1e-10)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def _rotated(spectrum, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (spectrum.size, spectrum.size)))
    return (q * spectrum) @ q.T


def _random_symmetric(n, seed=606):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return m + m.T


@pytest.mark.parametrize("m", [
    *(pytest.param(_random_symmetric(n), id=f"random{n}")
      for n in (1, 2, 3, 21, 200)),
    # the matrix of test_eigen_report_invariants
    pytest.param(_random_symmetric(80, seed=5), id="random80_seed5"),
    pytest.param(_rotated(np.concatenate([[-50.0], np.linspace(-1.0, 3.0, 30)]),
                          7), id="negative_dominant"),
    pytest.param(_rotated(np.concatenate([np.linspace(-2.0, 1.0, 25),
                                          [4.0, 4.0]]), 8), id="degenerate_top"),
    pytest.param(np.zeros((7, 7)), id="zero"),
])
def test_top_eigenpair_matches_eigvalsh_oracle(m):
    tol = 1e-10
    lam, v = top_eigenpair(lambda x: m @ x, m.shape[0], tol=tol)
    ref = np.linalg.eigvalsh(m)[-1]
    assert abs(lam - ref) <= tol * max(1.0, abs(ref))
    assert np.linalg.norm(m @ v - lam * v) <= tol * max(abs(lam), 1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v[np.argmax(np.abs(v))] > 0


@pytest.mark.parametrize("failure", ["no_convergence", "arpack_error"])
def test_top_eigenpair_arpack_failure_is_stagnation(monkeypatch, failure):
    import scipy.sparse.linalg as sla

    def failing_eigsh(*args, **kwargs):
        if failure == "no_convergence":
            raise sla.ArpackNoConvergence("no convergence", np.empty(0),
                                          np.empty((0, 0)))
        raise sla.ArpackError(-8)

    monkeypatch.setattr(sla, "eigsh", failing_eigsh)
    message = {"no_convergence": "top eigenpair did not converge",
               "arpack_error": "top eigenpair stalled"}[failure]
    with pytest.raises(NumericError, match=message):
        top_eigenpair(lambda x: 2.0 * x, 10, tol=1e-8)


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


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_pooled_spectra_independent_of_workers(monkeypatch, two_degree_model,
                                               kind):
    # 4 workers on 4 replicates: more threads than the cores of a small box
    runs = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(empirical, "_replicate_workers",
                            lambda replicates, nbytes, w=workers: w)
        runs.append(pooled_spectra(two_degree_model, 150, 4, base_seed=21,
                                   kind=kind))
    assert runs[0].size == 600
    assert all(np.array_equal(runs[0], other) for other in runs[1:])


# each case sets BLAS thread variables, none of which may move the count
@pytest.mark.parametrize("env, cores, replicates, want", [
    ({}, 2, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, 2, 8, 2),
    ({"OMP_NUM_THREADS": "1"}, 4, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 8, 4),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "one", "GOTO_NUM_THREADS": "1"}, 4, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "-1"}, 4, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 1, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
], ids=["unset", "pinned", "two-blas", "blas-over-cores", "omp-alone",
        "openblas-over-omp", "goto-over-omp", "zero-is-unset",
        "non-integer-is-unset", "negative-is-unset", "one-replicate",
        "fewer-replicates"])
def test_replicate_workers(monkeypatch, env, cores, replicates, want):
    # min(replicates, cores) wherever BLAS has a per-thread setter
    monkeypatch.setattr(empirical, "_lapack", lambda: (None, lambda k: 0))
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    assert _replicate_workers(replicates, 1) == want


def test_replicate_workers_without_affinity(monkeypatch):
    monkeypatch.setattr(empirical, "_lapack", lambda: (None, lambda k: 0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _replicate_workers(8, 1) == 3
    assert _replicate_workers(2, 1) == 2


def test_replicate_workers_without_thread_setter(monkeypatch):
    monkeypatch.setattr(empirical, "_lapack", lambda: (None, None))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    assert _replicate_workers(8, 1) == 1


def test_replicate_workers_byte_budget(monkeypatch):
    monkeypatch.setattr(empirical, "_lapack", lambda: (None, lambda k: 0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)),
                        raising=False)
    # the default budget keeps both cores of a 2-core box busy at n = 2000,
    # for a dense replicate and for a top-eigen hub replicate
    for nbytes in (_replicate_bytes(2000, 2000 * 100.0, dense=True),
                   _replicate_bytes(2001, 2000 * 100.0 + 400.0, dense=False)):
        assert _replicate_workers(8, nbytes) == 2
    # and holds a 64-core pool of dense replicates at the cap to its bytes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    cap = _replicate_bytes(sampler.DENSE_CAP, sampler.DENSE_CAP * 100.0,
                           dense=True)
    workers = _replicate_workers(64, cap)
    assert 1 < workers < 64
    assert workers * cap <= sampler.POOL_BYTE_BUDGET
    for budget, want in ((3 * cap, 3), (3 * cap - 1, 2), (cap - 1, 1), (0, 1)):
        monkeypatch.setattr(sampler, "POOL_BYTE_BUDGET", budget)
        assert _replicate_workers(64, cap) == want


def test_top_eigen_ensembles_independent_of_workers(monkeypatch, poisson100,
                                                    two_degree_model):
    # 3 workers on 3 replicates: more threads than the cores of a small box
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(empirical, "_replicate_workers",
                            lambda replicates, nbytes, w=workers: w)
        runs.append((
            ensemble_leading(two_degree_model, 300, 3, 31, kind="adjacency"),
            ensemble_leading(two_degree_model, 300, 3, 31, kind="modularity"),
            ensemble_hub(poisson100, 400.0, 300, 3, 32)))
    assert runs[1] == runs[0] and runs[2] == runs[0]

    # a replicate loop over the public per-network functions
    def reference(model, base_seed, k_n, kind):
        tops, acc = [], np.zeros(3)
        for r in range(3):
            seed_r = replicate_seed(base_seed, r)
            seq = model.sample_degrees(300, seed_r)
            if k_n is not None:
                seq = attach_hub(seq, k_n)
            net = sample_network(seq, replicate_seed(seed_r, 1))
            if kind == "adjacency":
                adj = net.adjacency_sparse()
                top, vec = top_eigenpair(lambda x: adj @ x, net.n, tol=1e-8)
            else:
                top, vec = top_eigenpair(net.modularity_view().matvec, net.n,
                                         tol=1e-6)
            tops.append(top)
            if k_n is not None:
                acc += np.array(hub_vector_stats(net, net.n - 1))
        tops = np.array(tops)
        stats = (tops.mean(), tops.std(ddof=1) / np.sqrt(3))
        return stats if k_n is None else (*stats, *(acc / 3))

    assert runs[0] == (reference(two_degree_model, 31, None, "adjacency"),
                       reference(two_degree_model, 31, None, "modularity"),
                       reference(poisson100, 32, 400.0, "modularity"))


_ENSEMBLES = {
    "pooled_spectra": lambda model, reps: pooled_spectra(model, 60, reps, 5),
    "ensemble_leading": lambda model, reps: ensemble_leading(model, 60, reps, 5),
    "ensemble_hub": lambda model, reps: ensemble_hub(model, 400.0, 60, reps, 5),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("ensemble", list(_ENSEMBLES))
def test_failing_replicate_cancels_the_rest(monkeypatch, poisson100, ensemble,
                                            workers):
    calls = []

    def sample(*args, **kwargs):
        calls.append(1)
        raise ValueError("sampling failed")

    monkeypatch.setattr(empirical, "sample_network", sample)
    monkeypatch.setattr(empirical, "_replicate_workers",
                        lambda replicates, nbytes: workers)
    with pytest.raises(ValueError, match="^sampling failed$"):
        _ENSEMBLES[ensemble](poisson100, 12)
    assert 1 <= len(calls) <= workers


@pytest.mark.parametrize("ensemble", list(_ENSEMBLES))
def test_first_failing_replicate_is_raised(monkeypatch, poisson100, ensemble):
    # replicates 1 and 3 fail; every worker count raises replicate 1's error,
    # as a loop in replicate order does
    seeds = {replicate_seed(replicate_seed(5, r), 1): r for r in range(6)}

    def sample(degrees, seed):
        r = seeds[seed]
        if r in (1, 3):
            raise ValueError(f"replicate {r} failed")
        return sample_network(degrees, seed)

    monkeypatch.setattr(empirical, "sample_network", sample)
    for workers in (1, 2, 4):
        monkeypatch.setattr(empirical, "_replicate_workers",
                            lambda replicates, nbytes, w=workers: w)
        with pytest.raises(ValueError, match="^replicate 1 failed$"):
            _ENSEMBLES[ensemble](poisson100, 6)


@pytest.mark.parametrize("ensemble", [pooled_spectra, ensemble_leading],
                         ids=["pooled_spectra", "ensemble_leading"])
def test_ensemble_checks_kind_before_sampling(monkeypatch, two_degree_model,
                                              ensemble):
    def sample(*args, **kwargs):
        raise AssertionError("sampled a network before checking kind")

    monkeypatch.setattr(empirical, "sample_network", sample)
    with pytest.raises(ValueError, match="kind must be one of"):
        ensemble(two_degree_model, 50, 2, base_seed=1, kind="laplacian")


@pytest.mark.parametrize("ensemble", [
    pooled_spectra, ensemble_leading,
    lambda model, n, reps, base_seed: ensemble_hub(model, 400.0, n, reps,
                                                   base_seed)],
    ids=["pooled_spectra", "ensemble_leading", "hub_ensemble"])
def test_ensemble_checks_replicates_before_sampling(monkeypatch, poisson100,
                                                    ensemble):
    def sample(*args, **kwargs):
        raise AssertionError("sampled a network before checking replicates")

    monkeypatch.setattr(empirical, "sample_network", sample)
    with pytest.raises(ValueError, match="replicates must be >= 1"):
        ensemble(poisson100, 50, 0, base_seed=1)


@pytest.mark.parametrize("ensemble", [
    pooled_spectra, ensemble_leading,
    lambda model, n, reps, base_seed: ensemble_hub(model, 400.0, n, reps,
                                                   base_seed)],
    ids=["pooled_spectra", "ensemble_leading", "hub_ensemble"])
def test_ensemble_checks_n_before_sampling(monkeypatch, poisson100, ensemble):
    def sample(*args, **kwargs):
        raise AssertionError("sampled a network before checking n")

    def workers(*args):
        raise AssertionError("sized the pool before checking n")

    monkeypatch.setattr(empirical, "sample_network", sample)
    monkeypatch.setattr(empirical, "_replicate_workers", workers)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        ensemble(poisson100, 0, 2, base_seed=1)
    # the replicate count is checked first
    with pytest.raises(ValueError, match="^replicates must be >= 1$"):
        ensemble(poisson100, 0, 0, base_seed=1)


@pytest.mark.parametrize("ensemble, nbytes", [
    (pooled_spectra, _replicate_bytes(60, 60 * 100.0, dense=True)),
    (ensemble_leading, _replicate_bytes(60, 60 * 100.0, dense=False)),
    (lambda model, n, reps, base_seed: ensemble_hub(model, 400.0, n, reps,
                                                    base_seed),
     _replicate_bytes(61, 60 * 100.0 + 400.0, dense=False))],
    ids=["pooled_spectra", "ensemble_leading", "hub_ensemble"])
def test_pool_sized_from_one_replicate(monkeypatch, poisson100, ensemble,
                                       nbytes):
    # the hub adds one vertex and its expected degree to a replicate's bytes
    sizes = []

    def workers(replicates, replicate_bytes):
        sizes.append((replicates, replicate_bytes))
        return 1

    monkeypatch.setattr(empirical, "_replicate_workers", workers)
    ensemble(poisson100, 60, 2, base_seed=1)
    assert sizes == [(2, nbytes)]


@pytest.mark.parametrize("ensemble", [
    pooled_spectra,
    lambda model, n, reps, base_seed: empirical_density(model, n, reps, 10,
                                                        base_seed)],
    ids=["pooled_spectra", "empirical_density"])
def test_dense_ensemble_checks_cap_before_sampling(monkeypatch, poisson100,
                                                   ensemble):
    def sample(*args, **kwargs):
        raise AssertionError("sampled a network before checking the dense cap")

    monkeypatch.setattr(empirical, "sample_network", sample)
    monkeypatch.setattr(sampler, "DENSE_CAP", 10)
    with pytest.raises(ValueError, match="^n=50 exceeds the dense cap 10$"):
        ensemble(poisson100, 50, 2, base_seed=1)


_POOLED_HASH = """
import hashlib
from netspectra import DegreeModel, pooled_spectra
from netspectra.empirical import _lapack
model = DegreeModel.from_atoms([(50.0, 0.25), (100.0, 0.75)])
values = pooled_spectra(model, 145, 2, base_seed=7)
print(_lapack()[1] is not None, hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_pooled_spectra_independent_of_blas_setting(src_env):
    # n = 145: without the pool's per-thread setter, dsyevd_2stage (and dsyevd
    # before it) gives different bytes at 1 and 2 BLAS threads at this size
    runs = [subprocess.run([sys.executable, "-c", _POOLED_HASH],
                           env={**src_env, "OPENBLAS_NUM_THREADS": threads},
                           capture_output=True, text=True,
                           check=True).stdout.split()
            for threads in ("1", "2")]
    if runs[0][0] != "True":
        pytest.skip("BLAS has no per-thread setter: the pool has one worker "
                    "on the process's BLAS setting, which its bytes follow")
    assert runs[0] == runs[1]


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
            net, kind = _replicate_network(poisson100, 300, 42, r, k_n), "modularity"
        dense_top = dense_symmetric_eigen(_dense_matrix(net, kind)).eigenvalues[-1]
        assert abs(_top_pair(net, kind)[0] - dense_top) <= 1e-8


def test_replicate_network_with_hub_matches_public_construction(poisson100):
    for r in range(3):
        seed_r = replicate_seed(42, r)
        want = sample_network(
            attach_hub(poisson100.sample_degrees(300, seed_r), 400.0),
            replicate_seed(seed_r, 1))
        got = _replicate_network(poisson100, 300, 42, r, 400.0)
        assert np.array_equal(got.degrees.k, want.degrees.k)
        for field in ("edge_i", "edge_j", "edge_mult"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_hub_pass_is_both_hub_ensembles(poisson100):
    # the one pass returns exactly what the two public ensembles return, and
    # both equal a replicate loop over the public per-network functions
    args = (poisson100, 400.0, 300, 3, 42)
    both = (*ensemble_hub_top(*args), *ensemble_hub_localization(*args))
    assert ensemble_hub(*args) == both
    tops, acc = [], np.zeros(3)
    for r in range(3):
        net = _replicate_network(poisson100, 300, 42, r, 400.0)
        tops.append(top_eigenpair(net.modularity_view().matvec, net.n,
                                  tol=1e-6)[0])
        acc += np.array(hub_vector_stats(net, hub_index=net.n - 1))
    tops = np.array(tops)
    assert both == (tops.mean(), tops.std(ddof=1) / np.sqrt(3), *(acc / 3))


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
        lam = dense_symmetric_eigen(a).eigenvalues[::-1]
        beta = dense_symmetric_eigen(b).eigenvalues[::-1]
        assert np.all(lam + 1e-9 >= beta)
        assert np.all(beta[:-1] + 1e-9 >= lam[1:])
