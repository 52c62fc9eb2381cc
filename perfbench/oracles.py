"""Plain-numpy oracles for the benchmark's correctness checks.

Nothing here imports netspectra: every expected value is re-derived from the
model spec with elementary numpy (Gauss-Legendre nodes, polynomial roots,
bisection), so a wrong answer from the program cannot also fix its own
reference value.
"""
from __future__ import annotations

from functools import reduce

import numpy as np


def model_nodes(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """Degree nodes and weights of a model spec.

    Atoms keep their weights; a uniform continuous block gets the mass the
    atoms leave over, spread over Gauss-Legendre nodes on [lo, hi].
    """
    d = [float(a[0]) for a in spec.get("atoms", [])]
    w = [float(a[1]) for a in spec.get("atoms", [])]
    cont = spec.get("continuous")
    if cont is not None:
        if cont.get("kind", "uniform") != "uniform":
            raise ValueError("oracle supports uniform continuous blocks only")
        lo, hi = float(cont["lo"]), float(cont["hi"])
        x, wq = np.polynomial.legendre.leggauss(int(cont.get("nodes", 256)))
        d.extend(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
        w.extend((1.0 - sum(w)) * wq / wq.sum())
    return np.asarray(d), np.asarray(w)


def mean_degree(spec: dict) -> float:
    d, w = model_nodes(spec)
    return float(w @ d)


def max_degree(spec: dict) -> float:
    """Largest degree a model can produce (the top of a continuous support)."""
    top = [float(a[0]) for a in spec.get("atoms", [])]
    if "continuous" in spec:
        top.append(float(spec["continuous"]["hi"]))
    return max(top)


def semicircle(z: np.ndarray, c: float) -> np.ndarray:
    """Single-degree bulk density sqrt(4c - z^2) / (2 pi c)."""
    return np.sqrt(np.clip(4.0 * c - z * z, 0.0, None)) / (2.0 * np.pi * c)


def _bisect(f, lo: float, hi: float, steps: int = 200) -> float:
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _last_sign_change(f, lo: float, hi: float, points: int = 4000) -> float:
    """Largest root of f on (lo, hi], located on a geometric grid, then bisected."""
    grid = np.geomspace(lo, hi, points)
    vals = np.array([f(x) for x in grid])
    pos = np.flatnonzero(vals > 0.0)
    if pos.size == 0 or pos[-1] == grid.size - 1:
        raise ValueError("no sign change to bracket")
    i = pos[-1]
    return _bisect(f, grid[i], grid[i + 1])


def leading_root(spec: dict) -> float:
    """Largest real z with  c / (z - 1)^2 = sum w d / (z^2 - z - d).

    With u = z^2 - z above the largest degree the right side falls from
    +inf, and (z - 1)^2 times it tends to c from below, so the largest sign
    change of the difference is the leading adjacency eigenvalue.
    """
    d, w = model_nodes(spec)
    c = float(w @ d)
    k_max = float(d.max())

    def f(z: float) -> float:
        u = z * z - z
        return (z - 1.0) ** 2 * float(np.sum(w * d / (u - d))) - c

    z_lo = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * k_max)) * (1.0 + 1e-12)
    z_hi = 10.0 * (float(w @ d ** 2) / c + 1.0)
    return _last_sign_change(f, z_lo, z_hi)


def hub_zsq(spec: dict, k_n: float) -> float:
    """Squared hub eigenvalue (k_n^2 / c) sum w d / (k_n - d)."""
    d, w = model_nodes(spec)
    return float(k_n * k_n / float(w @ d) * np.sum(w * d / (k_n - d)))


def hub_critical(spec: dict) -> tuple[float, float]:
    """Critical hub degree and the upper band edge it sets.

    With G(k) = sum w d / (k - d), z(k)^2 = k^2 G(k) / c has its last
    stationary point at the critical degree, where G(k) equals
    sum w d^2 / (k - d)^2; the upper band edge is z at that degree.
    """
    d, w = model_nodes(spec)
    k_max = float(d.max())

    def slope(k: float) -> float:
        # proportional to d z^2 / dk: G(k) - sum w d^2 / (k - d)^2
        return float(np.sum(w * d / (k - d)) - np.sum(w * d * d / (k - d) ** 2))

    k_c = _last_sign_change(lambda k: -slope(k), k_max * (1.0 + 1e-9),
                            1e3 * k_max)
    return k_c, float(np.sqrt(hub_zsq(spec, k_c)))


def atomic_density(spec: dict, z: np.ndarray, eta: float = 1e-3) -> np.ndarray:
    """Bulk density of a purely atomic model from polynomial roots in h.

    Clearing denominators in h = (1/c) sum w d / (z - d h) gives a polynomial
    of degree L + 1.  At z + i eta the physical root is the one with the most
    negative imaginary part, and the density is -Im g / pi with the Stieltjes
    transform g = sum w / (z - d h).
    """
    d = np.array([float(a[0]) for a in spec["atoms"]])
    w = np.array([float(a[1]) for a in spec["atoms"]])
    c = float(w @ d)
    out = np.empty(z.size)
    for i, x in enumerate(z):
        zz = complex(x, eta)
        factors = [np.array([-dr, zz]) for dr in d]  # z - d_r h, descending
        poly = np.polymul([1.0, 0.0], reduce(np.polymul, factors))
        for r in range(d.size):
            others = factors[:r] + factors[r + 1:]
            rest = reduce(np.polymul, others, np.array([1.0 + 0j]))
            poly = np.polysub(poly, (w[r] * d[r] / c) * rest)
        roots = np.roots(poly)
        h = roots[np.argmin(roots.imag)]
        g = np.sum(w / (zz - d * h))
        out[i] = max(0.0, -float(g.imag) / np.pi)
    return out
