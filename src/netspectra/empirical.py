"""Eigenvalue measurements on sampled networks and ensemble aggregation.

Full spectra go through LAPACK's symmetric solver behind a report type that
enforces the trace and Frobenius identities; it is bounded by the dense cap
and used only where every eigenvalue is read (pooled spectra).  Ensembles
that read only the top of the spectrum get the top eigenpair at every size,
computed matrix-free by a restarted Lanczos iteration on a spectrally
shifted operator (the shift removes the +/- ambiguity between the two ends
of the band, so the algebraically largest eigenvalue dominates).

Replicate r of an ensemble uses the seed splitmix64(base_seed + (r+1) * GOLDEN)
with the published constants below, so replicates are independent,
reproducible and order-insensitive.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from . import analytic
from .degree_model import DegreeModel
from .errors import DenseCapError, InternalConsistencyError, StagnationError
from .sampler import (SampledNetwork, attach_hub, densify_modularity,
                      dense_cap, sample_network)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

MATRIX_KINDS = ("adjacency", "modularity")


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
    kind: str
    residual: float
    top_vector: np.ndarray | None = None


@dataclass(frozen=True)
class EnsembleHistogram:
    """Pooled eigenvalue histogram, density normalized over its bins."""

    bin_edges: np.ndarray
    density: np.ndarray
    replicates: int
    n: int
    base_seed: int


def dense_symmetric_eigen(matrix: np.ndarray, kind: str = "modularity",
                          want_vector: bool = False) -> EigenReport:
    """Full spectrum of a dense symmetric matrix.

    Validates symmetry on entry and the trace / Frobenius identities of the
    returned eigenvalues to a relative 1e-8.  With want_vector=True the
    eigenvector of the largest eigenvalue is attached and its residual
    max|Mv - lambda v| recorded.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    if n > dense_cap():
        raise DenseCapError(f"n={n} exceeds the dense cap {dense_cap()}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    if kind not in MATRIX_KINDS:
        raise ValueError(f"kind must be one of {MATRIX_KINDS}")

    residual = 0.0
    top = None
    if want_vector:
        vals, vecs = np.linalg.eigh(m)
        top = np.ascontiguousarray(vecs[:, -1])
        residual = float(np.abs(m @ top - vals[-1] * top).max())
    else:
        vals = np.linalg.eigvalsh(m)

    tr, fro2 = float(np.trace(m)), float(np.sum(m * m))
    ref = max(1.0, abs(tr), float(np.sum(np.abs(vals))))
    if abs(vals.sum() - tr) > 1e-8 * ref:
        raise InternalConsistencyError("eigenvalue sum disagrees with trace")
    ref2 = max(1.0, fro2)
    if abs(np.sum(vals * vals) - fro2) > 1e-8 * ref2:
        raise InternalConsistencyError(
            "eigenvalue square sum disagrees with Frobenius norm")
    return EigenReport(eigenvalues=vals, kind=kind, residual=residual,
                       top_vector=top)


def top_eigenpair(matvec: Callable[[np.ndarray], np.ndarray], n: int,
                  tol: float = 1e-8) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of a symmetric operator.

    Runs a restarted Lanczos iteration (full reorthogonalization) on the
    shifted operator M + s I, with s estimated from power steps so that the
    top of the spectrum dominates regardless of sign.  Deterministic: the
    start vector comes from a fixed-seed generator.

    Raises:
        StagnationError: the residual stalls and the two leading Ritz values
            are separated by less than tol, i.e. the dominant pair cannot be
            resolved at this tolerance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(0x7073)))
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    radius = 0.0
    for _ in range(40):
        y = matvec(x)
        nrm = float(np.linalg.norm(y))
        if nrm == 0.0:  # x in the kernel; re-randomize
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            continue
        radius = max(radius, nrm)
        x = y / nrm
    shift = 1.1 * radius + 1e-12

    kdim = min(n, 60)
    # fresh random start: the power-phase vector is biased toward the
    # magnitude-dominant end, which may be the bottom of the spectrum
    v_start = rng.standard_normal(n)
    best_res = np.inf
    lam = 0.0
    vec = x
    gap = np.inf
    for restart in range(80):
        basis = np.zeros((n, kdim))
        alpha = np.zeros(kdim)
        beta = np.zeros(max(kdim - 1, 0))
        q = v_start / np.linalg.norm(v_start)
        used = kdim
        for i in range(kdim):
            basis[:, i] = q
            u = matvec(q) + shift * q
            a = float(q @ u)
            alpha[i] = a
            u -= a * q
            if i > 0:
                u -= beta[i - 1] * basis[:, i - 1]
            # full reorthogonalization keeps the basis usable at high accuracy
            u -= basis[:, : i + 1] @ (basis[:, : i + 1].T @ u)
            b = float(np.linalg.norm(u))
            if i < kdim - 1:
                if b < 1e-13 * max(1.0, shift):
                    used = i + 1
                    break
                beta[i] = b
                q = u / b
        theta, s_vecs = scipy.linalg.eigh_tridiagonal(
            alpha[:used], beta[: max(used - 1, 0)])
        ritz = basis[:, :used] @ s_vecs[:, -1]
        ritz /= np.linalg.norm(ritz)
        cand = float(theta[-1] - shift)
        r = matvec(ritz) - cand * ritz
        res = float(np.linalg.norm(r))
        gap = float(theta[-1] - theta[-2]) if used >= 2 else np.inf
        if res < best_res:
            best_res, lam, vec = res, cand, ritz
        if best_res <= tol * max(abs(lam), 1e-12):
            if vec[np.argmax(np.abs(vec))] < 0:
                vec = -vec
            return lam, vec
        if res > 0.9 * best_res and gap < tol * max(1.0, abs(lam)):
            break
        v_start = ritz
    raise StagnationError(
        f"top eigenpair stalled: residual {best_res:.3e}, Ritz gap {gap:.3e} "
        f"below tol {tol:g}")


# --------------------------------------------------------------------------
# ensembles
# --------------------------------------------------------------------------

def _replicate_network(model: DegreeModel, n: int, base_seed: int,
                       r: int) -> SampledNetwork:
    seed_r = replicate_seed(base_seed, r)
    seq = model.sample_degrees(n, seed_r)
    return sample_network(seq, replicate_seed(seed_r, 1))


def _dense_matrix(net: SampledNetwork, kind: str) -> np.ndarray:
    if kind == "adjacency":
        return net.adjacency_dense()
    if kind == "modularity":
        return densify_modularity(net.modularity_view())
    raise ValueError(f"kind must be one of {MATRIX_KINDS}")


def pooled_spectra(model: DegreeModel, n: int, replicates: int,
                   base_seed: int, kind: str = "modularity") -> np.ndarray:
    """All n * replicates eigenvalues, pooled in replicate order."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    pooled = []
    for r in range(replicates):
        net = _replicate_network(model, n, base_seed, r)
        rep = dense_symmetric_eigen(_dense_matrix(net, kind), kind=kind)
        pooled.append(rep.eigenvalues)
    return np.concatenate(pooled)


def empirical_density(model: DegreeModel, n: int, replicates: int, bins: int,
                      base_seed: int, kind: str = "modularity",
                      bin_range: tuple[float, float] | None = None,
                      ) -> EnsembleHistogram:
    """Pool full spectra over replicates into a normalized histogram.

    The default range pads the model's analytic band edges by 2 on both
    sides; eigenvalues outside the range (e.g. the detached adjacency
    leading eigenvalue) do not enter the normalization.
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
    return EnsembleHistogram(bin_edges=edges, density=density,
                             replicates=replicates, n=n,
                             base_seed=int(base_seed))


def _top_eigenvalue(net: SampledNetwork, kind: str) -> float:
    """Largest eigenvalue of one realization's matrix, computed matrix-free."""
    if kind == "adjacency":
        adj = net.adjacency_sparse()
        return top_eigenpair(lambda x: adj @ x, net.n, tol=1e-8)[0]
    if kind == "modularity":
        return top_eigenpair(net.modularity_view().matvec, net.n, tol=1e-6)[0]
    raise ValueError(f"kind must be one of {MATRIX_KINDS}")


def _mean_stderr(tops: np.ndarray) -> tuple[float, float]:
    stderr = tops.std(ddof=1) / np.sqrt(tops.size) if tops.size > 1 else 0.0
    return float(tops.mean()), float(stderr)


def ensemble_leading(model: DegreeModel, n: int, replicates: int,
                     base_seed: int, kind: str = "adjacency",
                     ) -> tuple[float, float]:
    """Mean and standard error of the largest eigenvalue across replicates,
    each from the matrix-free top eigenpair (no dense cap on n)."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    return _mean_stderr(np.array([
        _top_eigenvalue(_replicate_network(model, n, base_seed, r), kind)
        for r in range(replicates)]))


def ensemble_hub_top(model: DegreeModel, k_n: float, n: int, replicates: int,
                     base_seed: int) -> tuple[float, float]:
    """Mean/stderr of the top modularity eigenvalue with one attached hub.

    Each replicate samples n background degrees from the model, appends one
    vertex of expected degree k_n, and measures the largest eigenvalue of the
    modularity matrix with the matrix-free top eigenpair, at every size.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    return _mean_stderr(np.array([
        _top_eigenvalue(_hub_network(model, k_n, n, base_seed, r), "modularity")
        for r in range(replicates)]))


def ensemble_hub_localization(model: DegreeModel, k_n: float, n: int,
                              replicates: int, base_seed: int,
                              ) -> tuple[float, float, float]:
    """Replicate-averaged hub_vector_stats for one attached hub."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    acc = np.zeros(3)
    for r in range(replicates):
        net = _hub_network(model, k_n, n, base_seed, r)
        acc += np.array(hub_vector_stats(net, hub_index=net.n - 1))
    out = acc / replicates
    return float(out[0]), float(out[1]), float(out[2])


def _hub_network(model: DegreeModel, k_n: float, n: int, base_seed: int,
                 r: int) -> SampledNetwork:
    seed_r = replicate_seed(base_seed, r)
    seq = attach_hub(model.sample_degrees(n, seed_r), k_n)
    return sample_network(seq, replicate_seed(seed_r, 1))


def hub_vector_stats(network: SampledNetwork, hub_index: int,
                     tol: float = 1e-6) -> tuple[float, float, float]:
    """Square of the top modularity eigenvector at the hub, its realized
    neighbors (averaged), and everyone else (averaged)."""
    view = network.modularity_view()
    _, vec = top_eigenpair(view.matvec, network.n, tol=tol)
    vn_sq = float(vec[hub_index] ** 2)
    nbrs = network.neighbors_of(hub_index)
    neighbor_mean = float(np.mean(vec[nbrs] ** 2)) if nbrs.size else 0.0
    mask = np.ones(network.n, dtype=bool)
    mask[hub_index] = False
    mask[nbrs] = False
    bulk_mean = float(np.mean(vec[mask] ** 2)) if mask.any() else 0.0
    return vn_sq, neighbor_mean, bulk_mean


# --------------------------------------------------------------------------
# comparison and export
# --------------------------------------------------------------------------

def l1_distance(hist: EnsembleHistogram, model: DegreeModel,
                eta: float = 1e-6) -> float:
    """Integrated absolute difference between histogram and analytic density."""
    centers = 0.5 * (hist.bin_edges[1:] + hist.bin_edges[:-1])
    curve = analytic.density_grid(model, float(centers[0]), float(centers[-1]),
                                  centers.size, eta=eta, compute_band=False)
    width = hist.bin_edges[1] - hist.bin_edges[0]
    return float(np.sum(np.abs(hist.density - curve.rho) * width))


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
