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
64-bit seed (one Poisson draw for M, then 2M uniforms), so a (degrees, seed)
pair maps to one fixed edge multiset.  Each uniform is inverted through the
cumulative endpoint distribution by a guide table with 4n entries (Chen &
Asau's indexed search, Devroye 1986, section III.2.4): the table starts each
uniform within a step or two of its index, and the result equals a binary
search.

The edges come out of one in-place sort of their (i, j) keys, sorted by
(i, j), so the matrices are assembled without a further sort: the sparse
adjacency from the upper triangle's CSR arrays and their transpose, the
dense matrices by scattering the edge multiplicities into one buffer.  Dense matrices are built for at most
DENSE_CAP vertices, a fixed constant.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .degree_model import DegreeSequence

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# largest n of a dense matrix: one float64 n x n matrix takes 8 n^2 bytes,
# 128 MB at n = 4000, and each pooled-spectra worker holds one
DENSE_CAP = 4000
# bytes that the workers of one replicate pool may hold at once: at mean
# degree 100, 7 dense replicates at n = DENSE_CAP and 25 at n = 2000
POOL_BYTE_BUDGET = 1 << 30


def check_dense_cap(n: int) -> None:
    """Reject a dense matrix of more than DENSE_CAP vertices."""
    if n > DENSE_CAP:
        raise ValueError(f"n={n} exceeds the dense cap {DENSE_CAP}")


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

    def adjacency_sparse(self) -> csr_matrix:
        """Symmetric sparse adjacency; A[i, j] is the edge multiplicity.

        The edges are sorted by (i, j) with i <= j, so they are already the
        canonical CSR arrays of the upper triangle; the lower triangle is the
        transpose of its strict part, and the two share no entry.
        """
        # imported here: the analytic commands never build a sparse matrix,
        # and a module-level import adds about 0.3 s to every start-up
        from scipy.sparse import csr_matrix

        def upper(keep: np.ndarray | slice) -> csr_matrix:
            row_sizes = np.bincount(self.edge_i[keep], minlength=self.n)
            indptr = np.concatenate([[0], np.cumsum(row_sizes)])
            return csr_matrix((self.edge_mult[keep].astype(float),
                               self.edge_j[keep], indptr),
                              shape=(self.n, self.n))

        strict = upper(self.edge_i != self.edge_j).tocsc()
        # the CSC arrays of the strict upper triangle are the CSR arrays of
        # its transpose
        lower = csr_matrix((strict.data, strict.indices, strict.indptr),
                           shape=(self.n, self.n))
        return upper(slice(None)) + lower

    def _add_edges(self, dense: np.ndarray) -> np.ndarray:
        """Add each edge multiplicity to dense[i, j] and dense[j, i], in place."""
        flat = dense.reshape(-1)
        flat[self.edge_i * self.n + self.edge_j] += self.edge_mult
        off = self.edge_i != self.edge_j
        flat[self.edge_j[off] * self.n + self.edge_i[off]] += self.edge_mult[off]
        return dense

    def adjacency_dense(self) -> np.ndarray:
        """Dense symmetric adjacency (n capped by DENSE_CAP)."""
        check_dense_cap(self.n)
        return self._add_edges(np.zeros((self.n, self.n)))

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
    def _adj(self) -> csr_matrix:
        return self.network.adjacency_sparse()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        k = self.network.degrees.k
        return self._adj @ x - k * (k @ x) / self.network.two_m_expected


def sample_network(degrees: DegreeSequence, seed: int) -> SampledNetwork:
    """Sample one network realization for the given expected degrees.

    Deterministic per (degrees, seed).  Raises ValueError when some
    pairwise mean k_i k_j / 2m exceeds n, which signals a degree sequence
    far outside the model's regime.
    """
    if degrees.n < 2:
        raise ValueError("need at least 2 vertices")
    k, two_m = degrees.k, degrees.two_m
    k_max = float(k.max())
    if k_max * k_max / two_m > degrees.n:
        raise ValueError(
            f"largest pairwise mean {k_max * k_max / two_m:.3g} exceeds n={degrees.n}")

    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    total_edges = int(rng.poisson(two_m / 2.0))
    cum = np.cumsum(k / two_m)
    cum[-1] = 1.0
    ends = _invert_cumulative(cum, rng.random(2 * total_edges))
    # key = min * n + max per edge, built in place and sorted in place;
    # the runs of equal keys are the distinct pairs and their multiplicities
    u, v = ends[0::2], ends[1::2]
    key = np.minimum(u, v).astype(np.int64, copy=False)
    key *= degrees.n
    key += np.maximum(u, v, out=u)
    del ends, u, v
    key.sort()
    new_run = np.empty(key.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(key[1:], key[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    del new_run
    edge_i, edge_j = np.divmod(key[starts], degrees.n)
    mult = np.diff(starts, append=key.size).astype(np.int64, copy=False)
    return SampledNetwork(degrees=degrees, edge_i=edge_i, edge_j=edge_j,
                          edge_mult=mult, seed=int(seed))


def _invert_cumulative(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cum, u, side="right") for uniforms u in [0, 1) and a
    nondecreasing cum ending at 1.0, by a guide table with 4n entries."""
    size = 4 * cum.size
    table = np.searchsorted(cum, np.arange(size) / size, side="right")
    bucket = (u * size).astype(np.intp)
    np.minimum(bucket, size - 1, out=bucket)
    # bucket is in range, so clip mode takes in place (raise mode buffers)
    idx = np.take(table, bucket, out=bucket, mode="clip")
    # table[j] is exact for u >= j / size, but u * size can round up to the
    # next bucket; step back while the entry below idx still exceeds u
    below = np.concatenate([[-np.inf], cum])  # below[i] == cum[i - 1]
    live = np.flatnonzero(below[idx] > u)
    while live.size:
        idx[live] -= 1
        live = live[below[idx[live]] > u[live]]
    # then forward to the first entry above u (cum[-1] == 1.0 > u stops it)
    live = np.flatnonzero(cum[idx] <= u)
    while live.size:
        idx[live] += 1
        live = live[cum[idx[live]] <= u[live]]
    return idx


def attach_hub(degrees: DegreeSequence, k_n: float) -> DegreeSequence:
    """Append one vertex of expected degree k_n to the sequence."""
    if k_n <= 0:
        raise ValueError("hub degree must be positive")
    return DegreeSequence.from_values(np.append(degrees.k, float(k_n)))


def densify_modularity(view: ModularityView) -> np.ndarray:
    """Dense symmetric matrix A - k k^T / 2m (n capped by DENSE_CAP).

    Built as (-k) k^T / 2m with the edges added in place, so no dense
    adjacency is formed.  IEEE rounding is symmetric in sign, and a + (-x)
    is a - x, so every entry has the bits of A[i, j] - k_i k_j / 2m.
    """
    net = view.network
    check_dense_cap(net.n)
    k = net.degrees.k
    dense = np.outer(-k, k)
    dense /= net.two_m_expected
    return net._add_edges(dense)


def write_edge_list(net: SampledNetwork, path: str | Path) -> None:
    """Write the edge multiset as text: header comment, then "i j mult" lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n={net.n} seed={net.seed} two_m={net.two_m_expected!r}\n")
        for i, j, m in zip(net.edge_i, net.edge_j, net.edge_mult):
            fh.write(f"{i} {j} {m}\n")
