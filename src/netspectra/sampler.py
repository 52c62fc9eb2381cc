"""Sampling of networks with independent Poisson edge counts.

Each unordered vertex pair {i, j} receives a number of parallel edges drawn
from a Poisson distribution with mean k_i k_j / 2m, and each vertex a number
of self-loops with mean k_i^2 / 4m (a self-loop adds 2 to the realized
degree, so realized degrees average exactly k_i).  Instead of visiting all
O(n^2) pairs, the sampler draws the total edge count M ~ Poisson(m) and
places each edge's two endpoints independently with probability k_i / 2m;
Poisson thinning makes the per-pair counts come out independent with exactly
the means above, in O(m) expected time.

Random streams come from numpy's counter-based Philox generator keyed by the
64-bit seed (one Poisson draw for M, then 2M uniforms inverted through the
cumulative endpoint distribution), so a (degrees, seed) pair maps to one
fixed edge multiset.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .degree_model import DegreeSequence
from .errors import DenseCapError, MeanOverflowError

DEFAULT_DENSE_CAP = 4000
DENSE_CAP_ENV = "NETSPECTRA_DENSE_CAP"


def dense_cap() -> int:
    """Dense-matrix size cap; override with the NETSPECTRA_DENSE_CAP env var."""
    raw = os.environ.get(DENSE_CAP_ENV)
    try:
        return int(raw) if raw else DEFAULT_DENSE_CAP
    except ValueError:
        raise ValueError(
            f"{DENSE_CAP_ENV} must be an integer, got {raw!r}") from None


@dataclass(frozen=True, eq=False)
class SampledNetwork:
    """One sampled multigraph: expected degrees plus a sparse edge multiset.

    Edges are stored once per unordered pair with i <= j and a positive
    multiplicity; entries with i == j count self-loops.
    """

    degrees: DegreeSequence
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_mult: np.ndarray
    seed: int

    @property
    def n(self) -> int:
        return self.degrees.n

    @property
    def two_m_expected(self) -> float:
        return self.degrees.two_m

    def realized_degrees(self) -> np.ndarray:
        """Edge-endpoint counts per vertex; each self-loop contributes 2."""
        deg = np.bincount(self.edge_i, weights=self.edge_mult, minlength=self.n)
        deg += np.bincount(self.edge_j, weights=self.edge_mult, minlength=self.n)
        return deg

    def adjacency_sparse(self) -> sp.csr_matrix:
        """Symmetric sparse adjacency; A[i, j] is the edge multiplicity."""
        off = self.edge_i != self.edge_j
        rows = np.concatenate([self.edge_i, self.edge_j[off]])
        cols = np.concatenate([self.edge_j, self.edge_i[off]])
        vals = np.concatenate([self.edge_mult, self.edge_mult[off]]).astype(float)
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    def adjacency_dense(self) -> np.ndarray:
        if self.n > dense_cap():
            raise DenseCapError(
                f"n={self.n} exceeds the dense cap {dense_cap()}")
        return self.adjacency_sparse().toarray()

    def modularity_view(self) -> "ModularityView":
        return ModularityView(network=self)

    def neighbors_of(self, v: int) -> np.ndarray:
        """Distinct vertices joined to v by at least one edge (v excluded)."""
        out = np.concatenate([self.edge_j[self.edge_i == v],
                              self.edge_i[self.edge_j == v]])
        out = np.unique(out)
        return out[out != v]


@dataclass(frozen=True, eq=False)
class ModularityView:
    """The adjacency matrix minus its ensemble mean, held implicitly.

    The subtracted mean is the rank-one matrix k k^T / 2m, so products need
    only the sparse adjacency, the degree vector and one scalar.
    """

    network: SampledNetwork

    @cached_property
    def _adj(self) -> sp.csr_matrix:
        return self.network.adjacency_sparse()

    @property
    def n(self) -> int:
        return self.network.n

    def matvec(self, x: np.ndarray) -> np.ndarray:
        k = self.network.degrees.k
        return self._adj @ x - k * (k @ x) / self.network.two_m_expected


def sample_network(degrees: DegreeSequence, seed: int) -> SampledNetwork:
    """Sample one network realization for the given expected degrees.

    Deterministic per (degrees, seed).  Raises MeanOverflowError when some
    pairwise mean k_i k_j / 2m exceeds n, which signals a degree sequence
    far outside the model's regime.
    """
    if degrees.n < 2:
        raise ValueError("need at least 2 vertices")
    k, two_m = degrees.k, degrees.two_m
    k_max = float(k.max())
    if k_max * k_max / two_m > degrees.n:
        raise MeanOverflowError(
            f"largest pairwise mean {k_max * k_max / two_m:.3g} exceeds n={degrees.n}")

    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    total_edges = int(rng.poisson(two_m / 2.0))
    cum = np.cumsum(k / two_m)
    cum[-1] = 1.0
    ends = np.searchsorted(cum, rng.random(2 * total_edges), side="right")
    u, v = ends[0::2], ends[1::2]
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    key = lo * degrees.n + hi
    uniq, counts = np.unique(key, return_counts=True)
    return SampledNetwork(degrees=degrees,
                          edge_i=(uniq // degrees.n).astype(np.int64),
                          edge_j=(uniq % degrees.n).astype(np.int64),
                          edge_mult=counts.astype(np.int64),
                          seed=int(seed))


def attach_hub(degrees: DegreeSequence, k_n: float) -> DegreeSequence:
    """Append one vertex of expected degree k_n to the sequence."""
    if k_n <= 0:
        raise ValueError("hub degree must be positive")
    return DegreeSequence.from_values(np.append(degrees.k, float(k_n)))


def densify_modularity(view: ModularityView) -> np.ndarray:
    """Dense symmetric matrix A - k k^T / 2m (n capped by dense_cap)."""
    net = view.network
    if net.n > dense_cap():
        raise DenseCapError(f"n={net.n} exceeds the dense cap {dense_cap()}")
    k = net.degrees.k
    b = net.adjacency_dense() - np.outer(k, k) / net.two_m_expected
    return b


def write_edge_list(net: SampledNetwork, path: str | Path) -> None:
    """Write the edge multiset as text: header comment, then "i j mult" lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n={net.n} seed={net.seed} two_m={net.two_m_expected!r}\n")
        for i, j, m in zip(net.edge_i, net.edge_j, net.edge_mult):
            fh.write(f"{i} {j} {m}\n")
