"""Eigenvalue measurements on sampled networks and ensemble aggregation.

Full spectra go through LAPACK's two-stage symmetric eigenvalue solver
(dsyevd_2stage, eigenvalues only: dense to band by BLAS-3 blocks, band to
tridiagonal by bulge chasing, then dsterf) behind a report type that
enforces the trace and Frobenius identities; it is bounded by the dense cap
and used only where every eigenvalue is read (pooled spectra).  The solver
is SciPy's LAPACK, found by a symbol search of SciPy's Cython LAPACK
library; where no build exports the two-stage symbol, the
divide-and-conquer dsyevd stands in, through the function pointer SciPy
publishes for Cython.  The two-stage solver takes about 0.5 s per n = 2000
solve on one BLAS thread, against dsyevd's 0.8 s.  Either is called through
ctypes, which releases the interpreter lock for the call and lets it
overwrite the matrix it is given.
Ensembles that read only the top of the spectrum get the top eigenpair at
every size, computed matrix-free by ARPACK's implicitly restarted Lanczos
(scipy's eigsh, asked for the algebraically largest eigenvalue) and
accepted only on its true residual.  A hub ensemble reads the top
eigenvalue and the hub localization from the same eigenpair, so
`hub --empirical` samples and solves each replicate once.

Every ensemble runs its replicates on one kind of pool: min(replicates,
cores) threads, fewer where their replicates would hold more than
POOL_BYTE_BUDGET bytes at once, each set to one OpenBLAS thread.  Each
thread samples, assembles and solves whole replicates: a dense one in place
in about 8 n^2 bytes plus workspace (1.7 MB of two-stage workspace at
n = 2000), a top eigenpair in about 8 MB per 100k edges.  The dense solver
and the numpy work of the sampler release the interpreter lock, and so does
eigsh where SciPy runs its ARPACK without a lock of its own (SciPy 1.17
does; a release that keeps the lock solves one top eigenpair at a time).
Every replicate has its own stream key and the pool returns its results
in replicate order, which the ensembles reduce in that order, so every
pooled eigenvalue, mean and statistic depends neither on the worker count
nor on the BLAS setting (another CPU type may round differently).  Without
OpenBLAS's per-thread setter the pool has one worker on the process's BLAS
setting, which the results then follow.  On a LAPACK built with OpenMP,
iparam2stage may choose the two-stage band width from the OpenMP thread
count, and the pooled eigenvalues follow that too.

Replicate r of an ensemble uses the seed splitmix64(base_seed + (r+1) * GOLDEN)
with the published constants below, so replicates are independent,
reproducible and order-insensitive.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from . import analytic, sampler
from .degree_model import DegreeModel
from .errors import NumericError
from .sampler import (SampledNetwork, attach_hub, check_dense_cap,
                      densify_modularity, sample_network)

_T = TypeVar("_T")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

MATRIX_KINDS = ("adjacency", "modularity")

# rows per block of the symmetry check, so that it forms no n x n array
SYMMETRY_BLOCK_ROWS = 64
_INT_P = ctypes.POINTER(ctypes.c_int)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
# LAPACK's dsyevd_2stage from C: jobz, uplo, n, a, lda, w, work, lwork,
# iwork, liwork, info, then the lengths of jobz and uplo that Fortran passes
# unseen; the integers are C ints, as in SciPy's Cython declarations.  A
# CFUNCTYPE call releases the interpreter lock.
_SOLVER = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p, _INT_P,
                           _DOUBLE_P, _INT_P, _DOUBLE_P, _DOUBLE_P, _INT_P,
                           _INT_P, _INT_P, _INT_P, ctypes.c_size_t,
                           ctypes.c_size_t)


def replicate_seed(base_seed: int, r: int) -> int:
    """Derive the 64-bit stream key for replicate r (splitmix64 finalizer)."""
    z = (int(base_seed) + (r + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


# --------------------------------------------------------------------------
# eigen reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenReport:
    """Eigenvalues (ascending) of one matrix realization."""

    eigenvalues: np.ndarray


@dataclass(frozen=True)
class EnsembleHistogram:
    """Pooled eigenvalue histogram, density normalized over its bins."""

    eigenvalues: np.ndarray  # every pooled eigenvalue, in replicate order
    bin_edges: np.ndarray
    density: np.ndarray
    replicates: int
    n: int


def dense_symmetric_eigen(matrix: np.ndarray, *,
                          overwrite_a: bool = False) -> EigenReport:
    """Full spectrum of a dense symmetric matrix.

    Validates symmetry on entry and the trace / Frobenius identities of the
    returned eigenvalues to a relative 1e-8.  The solver is LAPACK's
    two-stage dsyevd_2stage (dsyevd where no build exports it): at
    n = 2000 on one BLAS thread it takes about 0.45-0.55 s against dsyevd's
    0.8 s, and below n of about 800 it is a few ms slower.  Its eigenvalues
    differ from dsyevd's in the last bits, so a manifest written by the
    dsyevd route replays to slightly different eigenvalue bytes.  Without
    overwrite_a the solve runs on a copy; with it, a C-ordered writable
    float64 matrix is solved in place and left destroyed.  The top
    eigenpair alone comes from `top_eigenpair`.

    Raises:
        ValueError: the matrix is not square, exceeds the dense cap or is
            not symmetric within 1e-12 of its largest magnitude.
        NumericError: LAPACK fails, or an identity above is broken.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    check_dense_cap(n)
    scale = max(1.0, abs(float(m.max())), abs(float(m.min())))
    # each row block against the columns up to its end: every pair once
    for lo in range(0, n, SYMMETRY_BLOCK_ROWS):
        hi = min(lo + SYMMETRY_BLOCK_ROWS, n)
        gap = float(np.abs(m[lo:hi, :hi] - m[:hi, lo:hi].T).max())
        if gap > 1e-12 * scale:
            raise ValueError("matrix is not symmetric within tolerance")

    if not (overwrite_a and m.flags.c_contiguous and m.flags.writeable):
        m = m.copy()
    tr, fro2 = float(np.trace(m)), float(np.vdot(m, m))
    vals = _eigvals_in_place(m)
    ref = max(1.0, abs(tr), float(np.sum(np.abs(vals))))
    if abs(vals.sum() - tr) > 1e-8 * ref:
        raise NumericError("eigenvalue sum disagrees with trace")
    ref2 = max(1.0, fro2)
    if abs(np.sum(vals * vals) - fro2) > 1e-8 * ref2:
        raise NumericError(
            "eigenvalue square sum disagrees with Frobenius norm")
    return EigenReport(eigenvalues=vals)


@functools.cache
def _lapack() -> tuple[Callable[..., None], Callable[[int], int] | None]:
    """LAPACK's dsyevd_2stage and OpenBLAS's per-thread thread-count setter
    (None where absent), both found by a symbol search of cython_lapack's
    library, which covers its LAPACK and BLAS.  Where no build exports
    dsyevd_2stage, `_capsule_dsyevd` stands in.  The solver's __name__ is
    the symbol it calls.
    """
    # imported here: the analytic commands never solve a dense spectrum
    from scipy.linalg import cython_lapack

    library = ctypes.CDLL(cython_lapack.__file__)
    for name in ("scipy_dsyevd_2stage_", "dsyevd_2stage_"):
        symbol = getattr(library, name, None)
        if symbol is not None:
            solver = ctypes.cast(symbol, _SOLVER)
            solver.__name__ = name
            break
    else:
        solver = _capsule_dsyevd()
    return solver, getattr(library, "openblas_set_num_threads_local", None)


def _capsule_dsyevd() -> Callable[..., None]:
    """dsyevd from the pointer SciPy publishes in cython_lapack, under the
    two-stage prototype: its arguments are dsyevd_2stage's without the two
    trailing character lengths, and under the C calling conventions the
    caller places and removes trailing arguments, so dsyevd never reads
    them."""
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["dsyevd"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    solver = _SOLVER(get_pointer(capsule, get_name(capsule)))
    solver.__name__ = "dsyevd"
    return solver


def _eigvals_in_place(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the C-ordered symmetric float64 a, by
    `_lapack`'s solver (jobz N, uplo L) on its F-ordered transpose; a is
    overwritten.  Both solvers size their workspace by a query call; the
    two-stage one takes about 1.7 MB at n = 2000."""
    solve = _lapack()[0]
    n = ctypes.c_int(a.shape[0])
    w = np.empty(a.shape[0])

    def call(work: np.ndarray, iwork: np.ndarray, lwork: int,
             liwork: int) -> None:
        info = ctypes.c_int(0)
        solve(b"N", b"L", n, a.ctypes.data_as(_DOUBLE_P), n,
              w.ctypes.data_as(_DOUBLE_P), work.ctypes.data_as(_DOUBLE_P),
              ctypes.c_int(lwork), iwork.ctypes.data_as(_INT_P),
              ctypes.c_int(liwork), info, 1, 1)
        if info.value != 0:
            raise NumericError(
                f"LAPACK {solve.__name__} failed: info={info.value}")

    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    call(work, iwork, -1, -1)  # the query: sizes come back in work, iwork
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, dtype=np.intc), lwork, liwork)
    return w


def top_eigenpair(matvec: Callable[[np.ndarray], np.ndarray], n: int,
                  tol: float = 1e-8) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of a symmetric operator.

    One call to ARPACK's implicitly restarted Lanczos (scipy's eigsh with
    which="LA", so the top wins even when the bottom dominates in magnitude)
    from a fixed-seed start vector, which makes the result deterministic.
    The pair is accepted only if its true residual satisfies
    |Mv - lam v| <= tol * max(|lam|, 1e-12); the eigenvector's
    largest-magnitude entry is positive.  A 1x1 operator is answered in
    closed form, and the zero operator (e.g. the adjacency of an edgeless
    network) gives (0.0, the normalized start vector).

    Raises:
        NumericError: ARPACK does not converge or fails, or its answer
            misses the residual bound above (the tolerance is finer than
            the operator's eigenvalues can be resolved in floating point).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return float(matvec(np.ones(1))[0]), np.ones(1)
    # imported here: the analytic commands never solve for an eigenpair, and
    # a module-level import adds about 9 MB and 0.15 s to every start-up
    from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                     LinearOperator, eigsh)

    rng = np.random.Generator(np.random.Philox(key=np.uint64(0x7073)))
    v0 = rng.standard_normal(n)
    try:
        vals, vecs = eigsh(LinearOperator((n, n), matvec=matvec, dtype=float),
                           k=1, which="LA", v0=v0, tol=tol)
        lam, vec = float(vals[0]), vecs[:, 0]
    except ArpackNoConvergence as exc:
        raise NumericError(f"top eigenpair did not converge: {exc}") from exc
    except ArpackError:
        # ARPACK rejects the zero operator (an edgeless network's adjacency),
        # of which the start vector is an eigenvector; the residual check
        # below turns any other ARPACK failure into a NumericError
        lam, vec = 0.0, v0 / np.linalg.norm(v0)
    res = float(np.linalg.norm(matvec(vec) - lam * vec))
    if res > tol * max(abs(lam), 1e-12):
        raise NumericError(
            f"top eigenpair stalled: residual {res:.3e} above tol {tol:g} "
            f"at eigenvalue {lam:.6g}")
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return lam, vec


# --------------------------------------------------------------------------
# ensembles
# --------------------------------------------------------------------------

def _replicate_network(model: DegreeModel, n: int, base_seed: int, r: int,
                       k_n: float | None = None) -> SampledNetwork:
    """Replicate r: n degrees from the model, plus a hub of expected degree
    k_n as the last vertex when k_n is given."""
    seed_r = replicate_seed(base_seed, r)
    seq = model.sample_degrees(n, seed_r)
    if k_n is not None:
        seq = attach_hub(seq, k_n)
    return sample_network(seq, replicate_seed(seed_r, 1))


def _dense_matrix(net: SampledNetwork, kind: str) -> np.ndarray:
    if kind == "adjacency":
        return net.adjacency_dense()
    return densify_modularity(net.modularity_view())


def _replicate_bytes(n: int, two_m: float, dense: bool) -> int:
    """Peak bytes of one replicate of n vertices and expected degree sum
    two_m: about 80 per expected edge (the sampler's draws, the edge arrays
    and the sparse adjacency) and 256 per vertex (ARPACK's Lanczos vectors),
    plus, for a dense solve, the n x n matrix and about 1 KB of LAPACK
    workspace per row."""
    dense_bytes = 8 * n * (n + 128) if dense else 0
    return int(80 * two_m / 2) + 256 * n + dense_bytes


def _replicate_workers(replicates: int, replicate_bytes: int) -> int:
    """Threads for a replicate pool: min(replicates, cores), where cores is
    this process's CPU affinity (the CPU count where that is not available),
    and no more than hold sampler.POOL_BYTE_BUDGET bytes at replicate_bytes
    each (but at least one); one where BLAS has no per-thread setter."""
    if _lapack()[1] is None:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return max(1, min(replicates, cores,
                      sampler.POOL_BYTE_BUDGET // replicate_bytes))


def _map_replicates(solve: Callable[[SampledNetwork], _T], model: DegreeModel,
                    n: int, replicates: int, base_seed: int, *,
                    k_n: float | None = None, dense: bool = False) -> list[_T]:
    """[solve(network r) for r in range(replicates)], each network sampled
    by `_replicate_network` and solved on `_replicate_workers` threads that
    each first set one OpenBLAS thread.

    Before any sampling it rejects replicates < 1, n < 1 and, for a dense
    solve, an n past the dense cap; the pool is sized from the bytes of one
    replicate of n vertices, plus the hub when k_n is given.  A replicate
    that raises stops every later replicate that has not begun; the pool is
    joined, and then the exception of the first failing replicate is
    raised, the one a loop in replicate order would raise.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if dense:
        check_dense_cap(n)
    nbytes = _replicate_bytes(n + (k_n is not None),
                              n * model.mean_degree() + (k_n or 0), dense)
    # imported here: it loads logging, about 7 ms of every start-up
    from concurrent.futures import ThreadPoolExecutor

    lock = threading.Lock()
    first_failure = [replicates]

    def run(r: int) -> _T | None:
        if r > first_failure[0]:
            return None  # never read: replicate first_failure[0] raises first
        try:
            return solve(_replicate_network(model, n, base_seed, r, k_n))
        except BaseException:
            with lock:
                first_failure[0] = min(first_failure[0], r)
            raise

    pool = ThreadPoolExecutor(_replicate_workers(replicates, nbytes),
                              initializer=_lapack()[1], initargs=(1,))
    try:
        return list(pool.map(run, range(replicates)))
    finally:
        pool.shutdown(cancel_futures=True)


def pooled_spectra(model: DegreeModel, n: int, replicates: int,
                   base_seed: int, kind: str = "modularity") -> np.ndarray:
    """All n * replicates eigenvalues, pooled in replicate order.

    Replicates are sampled, assembled and solved on the replicate pool
    (`_map_replicates`), in about workers * (8 n^2 + workspace) bytes; the
    result is the same for every worker count and BLAS setting on one CPU
    type.  Without a per-thread setter one worker solves on the process's
    BLAS setting, which the result then follows.  An n past the dense cap is
    rejected before any sampling.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"kind must be one of {MATRIX_KINDS}")

    def spectrum(net: SampledNetwork) -> np.ndarray:
        return dense_symmetric_eigen(_dense_matrix(net, kind),
                                     overwrite_a=True).eigenvalues

    return np.concatenate(_map_replicates(spectrum, model, n, replicates,
                                          base_seed, dense=True))


def empirical_density(model: DegreeModel, n: int, replicates: int, bins: int,
                      base_seed: int, kind: str = "modularity",
                      bin_range: tuple[float, float] | None = None,
                      ) -> EnsembleHistogram:
    """Pool full spectra over replicates into a normalized histogram.

    The default range pads the model's analytic band edges by 2 on both
    sides; eigenvalues outside the range (e.g. the detached adjacency
    leading eigenvalue) do not enter the normalization but stay in the
    returned `eigenvalues`.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if bin_range is None:
        lo, hi = analytic.band_edges(model)
        bin_range = (lo - 2.0, hi + 2.0)
    values = pooled_spectra(model, n, replicates, base_seed, kind)
    edges = np.linspace(bin_range[0], bin_range[1], bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    total = counts.sum()
    if total == 0:
        raise ValueError("no eigenvalues fell inside the histogram range")
    width = edges[1] - edges[0]
    density = counts / (total * width)
    return EnsembleHistogram(eigenvalues=values, bin_edges=edges,
                             density=density, replicates=replicates, n=n)


def _top_pair(net: SampledNetwork, kind: str) -> tuple[float, np.ndarray]:
    """Top eigenpair of one realization's matrix, computed matrix-free."""
    if kind == "adjacency":
        adj = net.adjacency_sparse()
        return top_eigenpair(lambda x: adj @ x, net.n, tol=1e-8)
    return top_eigenpair(net.modularity_view().matvec, net.n, tol=1e-6)


def _mean_stderr(tops: np.ndarray) -> tuple[float, float]:
    stderr = tops.std(ddof=1) / np.sqrt(tops.size) if tops.size > 1 else 0.0
    return float(tops.mean()), float(stderr)


def ensemble_leading(model: DegreeModel, n: int, replicates: int,
                     base_seed: int, kind: str = "adjacency",
                     ) -> tuple[float, float]:
    """Mean and standard error of the largest eigenvalue across replicates,
    each from the matrix-free top eigenpair (no dense cap on n), solved on
    the replicate pool."""
    if kind not in MATRIX_KINDS:
        raise ValueError(f"kind must be one of {MATRIX_KINDS}")
    tops = _map_replicates(lambda net: _top_pair(net, kind)[0], model, n,
                           replicates, base_seed)
    return _mean_stderr(np.array(tops))


def ensemble_hub(model: DegreeModel, k_n: float, n: int, replicates: int,
                 base_seed: int) -> tuple[float, float, float, float, float]:
    """One pass over the hub replicates: the mean and standard error of the
    top modularity eigenvalue, then the replicate means of `hub_vector_stats`,
    all read from one matrix-free top eigenpair per replicate (n background
    degrees from the model, plus a last vertex of expected degree k_n).
    The replicates are solved on the replicate pool and summed in replicate
    order.  `ensemble_hub_top` and `ensemble_hub_localization` return its
    first two and its last three values."""
    def hub(net: SampledNetwork) -> tuple[float, float, float, float]:
        top, vec = _top_pair(net, "modularity")
        return (top, *_vector_stats(net, vec, net.n - 1))

    values = np.array(_map_replicates(hub, model, n, replicates, base_seed,
                                      k_n=k_n))
    stats = values[:, 1:].sum(axis=0) / replicates
    return (*_mean_stderr(values[:, 0]), *stats.tolist())


def ensemble_hub_top(model: DegreeModel, k_n: float, n: int, replicates: int,
                     base_seed: int) -> tuple[float, float]:
    """Mean/stderr of the top modularity eigenvalue with one attached hub
    (the first two values of the hub pass)."""
    return ensemble_hub(model, k_n, n, replicates, base_seed)[:2]


def ensemble_hub_localization(model: DegreeModel, k_n: float, n: int,
                              replicates: int, base_seed: int,
                              ) -> tuple[float, float, float]:
    """Replicate-averaged hub_vector_stats for one attached hub (the last
    three values of the hub pass)."""
    return ensemble_hub(model, k_n, n, replicates, base_seed)[2:]


def _vector_stats(network: SampledNetwork, vec: np.ndarray,
                  hub_index: int) -> tuple[float, float, float]:
    vn_sq = float(vec[hub_index] ** 2)
    nbrs = network.neighbors_of(hub_index)
    neighbor_mean = float(np.mean(vec[nbrs] ** 2)) if nbrs.size else 0.0
    mask = np.ones(network.n, dtype=bool)
    mask[hub_index] = False
    mask[nbrs] = False
    bulk_mean = float(np.mean(vec[mask] ** 2)) if mask.any() else 0.0
    return vn_sq, neighbor_mean, bulk_mean


def hub_vector_stats(network: SampledNetwork,
                     hub_index: int) -> tuple[float, float, float]:
    """Square of the top modularity eigenvector at the hub, its realized
    neighbors (averaged), and everyone else (averaged)."""
    return _vector_stats(network, _top_pair(network, "modularity")[1],
                         hub_index)


# --------------------------------------------------------------------------
# comparison and export
# --------------------------------------------------------------------------

def compare_density(hist: EnsembleHistogram, model: DegreeModel,
                    eta: float = 1e-6) -> tuple[float, analytic.SpectralCurve]:
    """Integrated absolute difference between histogram and analytic density,
    and the analytic curve at the bin centres it was measured against."""
    centers = 0.5 * (hist.bin_edges[1:] + hist.bin_edges[:-1])
    curve = analytic.density_grid(model, float(centers[0]), float(centers[-1]),
                                  centers.size, eta=eta)
    width = hist.bin_edges[1] - hist.bin_edges[0]
    return float(np.sum(np.abs(hist.density - curve.rho) * width)), curve


def l1_distance(hist: EnsembleHistogram, model: DegreeModel,
                eta: float = 1e-6) -> float:
    """Integrated absolute difference between histogram and analytic density."""
    return compare_density(hist, model, eta)[0]


def write_histogram_csv(hist: EnsembleHistogram, path: str | Path) -> None:
    """Histogram CSV: one header line, then bin_lo,bin_hi,density rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_lo,bin_hi,density\n")
        for lo, hi, d in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.density):
            fh.write(f"{float(lo)!r},{float(hi)!r},{float(d)!r}\n")


def write_eigenvalue_dump(values: np.ndarray, path: str | Path,
                          manifest: dict) -> None:
    """Eigenvalue CSV (one value per line) plus a JSON sidecar manifest."""
    import json

    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("eigenvalue\n")
        for v in np.asarray(values).ravel():
            fh.write(f"{float(v)!r}\n")
    side = path.with_name(path.name + ".manifest.json")
    with open(side, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
