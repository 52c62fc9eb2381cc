"""Expected-degree distributions and their derived quantities.

A degree model is a probability distribution over positive expected degrees.
It may mix a discrete part (weighted atoms) with a continuous part on a finite
support; the continuous part is reduced at construction to Gauss-Legendre
nodes, so every downstream computation sees a single list of weighted degree
values.  The Gauss-Legendre rule for each node count is computed once per
process and shared, read-only, by every model built with that count.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

WEIGHT_TOL = 1e-12
ATOM_MERGE_RTOL = 1e-9
DEFAULT_QUAD_NODES = 256
# largest degree of a model: the solvers square up to three times it (the
# scan for the critical degree), so a quarter of the square root of the
# largest float keeps every such square finite
MAX_DEGREE = 0.25 * float(np.sqrt(np.finfo(float).max))  # about 3.35e153


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]; leggauss takes
    about 8 ms at 256 nodes, and every continuous model build needs them."""
    x, w = leggauss(nodes)
    return _as_readonly(x), _as_readonly(w)


@dataclass(frozen=True, eq=False)
class DegreeModel:
    """Immutable distribution of expected degrees.

    Attributes:
        degrees: node positions (atoms and/or quadrature nodes), ascending.
        weights: matching probability masses, summing to 1.
        support: (lo, hi) of the continuous part, or None.
    """

    degrees: np.ndarray
    weights: np.ndarray
    support: tuple[float, float] | None = None
    n_atoms: int = field(default=0)  # leading entries of `degrees` that are true atoms

    def __post_init__(self):
        # every check is written so that a NaN fails it
        if self.degrees.size == 0:
            raise ValueError("degree model must have at least one node")
        if not np.all(self.degrees > 0):
            raise ValueError("all degrees must be strictly positive")
        if not self.degrees.max() <= MAX_DEGREE:
            raise ValueError(f"degree {float(self.degrees.max())!r} exceeds "
                             f"the largest supported degree {MAX_DEGREE:.3g}")
        if not np.all(np.diff(self.degrees[: self.n_atoms]) > 0):
            raise ValueError("atoms must be ascending and distinct")
        if not np.all((self.weights > 0) & (self.weights <= 1)):
            raise ValueError("weights must lie in (0, 1]")
        total = float(self.weights.sum())
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise ValueError(
                f"weights must sum to 1 within {WEIGHT_TOL:g}, got {total!r}")

    # ---------------------------------------------------------------- builders

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple[float, float]]) -> "DegreeModel":
        """Build a purely discrete model from (degree, weight) pairs.

        Degrees closer than a relative 1e-9 are merged and their weights
        summed.  Weights must total 1.
        """
        d, w = _merge_atoms(atoms)
        return cls(degrees=_as_readonly(d), weights=_as_readonly(w),
                   n_atoms=len(d))

    @classmethod
    def poisson(cls, c: float) -> "DegreeModel":
        """All vertices share the same expected degree c."""
        return cls.from_atoms([(float(c), 1.0)])

    @classmethod
    def from_parts(cls, atoms: Sequence[tuple[float, float]] = (),
                   density: Callable[[np.ndarray], np.ndarray] | None = None,
                   lo: float = 0.0, hi: float = 0.0,
                   nodes: int = DEFAULT_QUAD_NODES) -> "DegreeModel":
        """Combine an optional atomic part with an optional continuous part.

        The continuous density is discretized to `nodes` Gauss-Legendre points
        on [lo, hi] and carries whatever probability mass the atoms leave
        over (all of it when there are no atoms).

        Args:
            atoms: (degree, weight) pairs; weights need not sum to 1 here.
            density: vectorized density handle, up to normalization.
            lo, hi: finite support of the continuous part, hi > lo >= 0.
            nodes: quadrature node count.
        """
        if density is None:
            if not atoms:
                raise ValueError("need atoms, a density, or both")
            return cls.from_atoms(atoms)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("continuous support must be finite")
        if not (hi > lo >= 0.0):
            raise ValueError("continuous support needs hi > lo >= 0")
        if nodes < 2:
            raise ValueError("quadrature needs at least 2 nodes")

        atom_d, atom_w = _merge_atoms(atoms) if atoms else (np.empty(0), np.empty(0))
        atom_mass = float(atom_w.sum())
        cont_mass = 1.0 - atom_mass
        if cont_mass <= WEIGHT_TOL:
            raise ValueError(
                "atom weights leave no mass for the continuous part")

        x, wq = _gauss_legendre(int(nodes))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        k = mid + half * x
        f = np.asarray(density(k), dtype=float)
        if np.any(f < 0) or not np.all(np.isfinite(f)):
            raise ValueError("density must be finite and non-negative")
        w = wq * half * f
        s = w.sum()
        if s <= 0:
            raise ValueError("density integrates to zero on the support")
        w *= cont_mass / s  # exact normalization; quadrature error folds in here
        if k[0] <= 0.0:
            raise ValueError("continuous support must stay positive")

        d_all = np.concatenate([atom_d, k])
        w_all = np.concatenate([atom_w, w])
        return cls(degrees=_as_readonly(d_all), weights=_as_readonly(w_all),
                   support=(float(lo), float(hi)),
                   n_atoms=len(atom_d))

    @classmethod
    def uniform(cls, lo: float, hi: float,
                nodes: int = DEFAULT_QUAD_NODES) -> "DegreeModel":
        """Uniform density on [lo, hi]."""
        return cls.from_parts(density=lambda k: np.ones_like(k),
                              lo=lo, hi=hi, nodes=nodes)

    @classmethod
    def from_spec(cls, spec: dict) -> "DegreeModel":
        """Build a model from its JSON-style dict description.

        Schema::

            {"atoms": [[degree, weight], ...],
             "continuous": {"kind": "uniform" | "tabulated",
                            "lo": .., "hi": .., "nodes": 256,
                            "k": [...], "density": [...]}}

        Either key may be omitted (not both).  "k"/"density" apply to the
        tabulated kind only and are interpolated linearly; "lo"/"hi" default
        to the tabulated endpoints.  The continuous block receives the mass
        the atoms leave over.  A spec of any other shape raises
        ValueError.
        """
        if not isinstance(spec, dict):
            raise ValueError("model spec must be a JSON object")
        try:
            atoms = [(float(d), float(p)) for d, p in spec.get("atoms", [])]
        except (TypeError, ValueError):
            raise ValueError(
                "atoms must be a list of numeric [degree, weight] pairs") from None
        cont = spec.get("continuous")
        if cont is not None and not isinstance(cont, dict):
            raise ValueError("continuous must be a JSON object")
        if cont is None:
            if not atoms:
                raise ValueError("model spec is empty")
            return cls.from_atoms(atoms)
        ckind = cont.get("kind", "uniform")
        try:
            nodes = int(cont.get("nodes", DEFAULT_QUAD_NODES))
        except OverflowError:  # int() of an infinite float
            raise ValueError("nodes must be finite") from None
        if ckind == "uniform":
            lo, hi = float(cont["lo"]), float(cont["hi"])
            return cls.from_parts(atoms, lambda k: np.ones_like(k), lo, hi, nodes)
        if ckind == "tabulated":
            kk = np.asarray(cont["k"], dtype=float)
            ff = np.asarray(cont["density"], dtype=float)
            if kk.ndim != 1 or kk.shape != ff.shape or kk.size < 2:
                raise ValueError("tabulated part needs matching k/density arrays")
            if not np.all(np.diff(kk) > 0):
                raise ValueError("tabulated k grid must be ascending")
            lo = float(cont.get("lo", kk[0]))
            hi = float(cont.get("hi", kk[-1]))
            dens = lambda x: np.interp(x, kk, ff, left=0.0, right=0.0)
            return cls.from_parts(atoms, dens, lo, hi, nodes)
        raise ValueError(f"unknown continuous kind {ckind!r}")

    # ------------------------------------------------------------- derived

    @property
    def max_degree(self) -> float:
        return float(self.degrees.max())

    def mean_degree(self) -> float:
        """Average expected degree c = sum_r w_r d_r."""
        return float(np.dot(self.weights, self.degrees))

    def moment(self, r: int) -> float:
        """r-th moment <k^r> of the distribution, r >= 1."""
        if r < 1:
            raise ValueError("moment order must be >= 1")
        return float(np.dot(self.weights, self.degrees ** r))

    def excess_distribution(self) -> "DegreeModel":
        """Distribution of the degree found by following a random edge.

        Each weight is tilted by its degree, q(k) = k p(k) / c, and the
        result is renormalized exactly.
        """
        w = self.weights * self.degrees
        return replace(self, weights=_as_readonly(w / w.sum()))

    def cauchy_transform(self, z: complex) -> complex:
        """Cauchy transform of k p(k): sum_r w_r d_r / (z - d_r).

        Real z is summed in real arithmetic and returns a float.  It must
        keep clear of every node; within a relative 1e-14 of a node the sum
        is dominated by roundoff and a ValueError is raised.
        """
        z = complex(z)
        if z.imag == 0.0:
            gap = z.real - self.degrees
            if np.any(np.abs(gap) < 1e-14 * self.degrees):
                raise ValueError(f"z={z.real!r} coincides with a degree node")
            return float(np.sum(self.weights * self.degrees / gap))
        return complex(np.sum(self.weights * self.degrees / (z - self.degrees)))

    def sample_degrees(self, n: int, seed: int) -> "DegreeSequence":
        """Draw n expected degrees, reproducibly for a given seed.

        One uniform per vertex: below the atoms' mass it picks an atom by
        cumulative weight, the last atom taking whatever rounding leaves
        above its cumulative weight; the rest maps through the continuous
        part's inverse CDF, built piecewise-linearly over the quadrature
        nodes.  Without a continuous part the atoms take all of [0, 1).  The
        stream is a Philox-keyed generator, so identical (model, n, seed)
        give identical sequences.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        u = rng.random(n)
        atom_w = self.weights[: self.n_atoms]
        atom_mass = 1.0 if self.support is None else float(atom_w.sum())
        k = np.empty(n)
        is_atom = u < atom_mass
        if self.n_atoms:
            idx = np.searchsorted(np.cumsum(atom_w), u[is_atom], side="right")
            k[is_atom] = self.degrees[np.minimum(idx, self.n_atoms - 1)]
        if self.support is not None:
            lo, hi = self.support
            grid = np.concatenate([[lo], self.degrees[self.n_atoms:], [hi]])
            cdf = np.concatenate([[0.0], np.cumsum(self.weights[self.n_atoms:])])
            cdf = np.concatenate([cdf, [cdf[-1]]])
            v = u[~is_atom] - atom_mass  # uniform on [0, continuous mass)
            k[~is_atom] = np.interp(v, cdf, grid)
        return DegreeSequence.from_values(k)

    def __repr__(self) -> str:
        return (f"DegreeModel(atoms={self.n_atoms}, nodes={self.degrees.size}, "
                f"c={self.mean_degree():.6g})")


def _merge_atoms(atoms: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    if not atoms:
        raise ValueError("at least one atom required")
    pairs = sorted((float(d), float(p)) for d, p in atoms)
    d_out: list[float] = []
    w_out: list[float] = []
    for d, p in pairs:
        if d <= 0:
            raise ValueError("atom degrees must be positive")
        if not np.isfinite(d):
            raise ValueError("atom degrees must be finite")
        if d_out and abs(d - d_out[-1]) <= ATOM_MERGE_RTOL * d:
            w_out[-1] += p
        else:
            d_out.append(d)
            w_out.append(p)
    return np.asarray(d_out), np.asarray(w_out)


@dataclass(frozen=True, eq=False)
class DegreeSequence:
    """Concrete expected degrees k_1..k_n for one network."""

    k: np.ndarray
    n: int
    two_m: float

    @classmethod
    def from_values(cls, values: Sequence[float] | np.ndarray) -> "DegreeSequence":
        k = _as_readonly(np.asarray(values, dtype=float))
        if k.ndim != 1 or k.size == 0:
            raise ValueError("degree sequence must be a non-empty vector")
        if not np.all(np.isfinite(k)):
            raise ValueError("expected degrees must be finite")
        if np.any(k <= 0):
            raise ValueError("expected degrees must be strictly positive")
        return cls(k=k, n=int(k.size), two_m=float(k.sum()))

    def mean(self) -> float:
        return self.two_m / self.n
