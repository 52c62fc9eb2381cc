"""Independent brute-force oracles used to cross-check the fast paths.

Nothing here may import from netspectra's numerics: these re-derive expected
values by elementary means (Jacobi rotations, adaptive quadrature, direct
quadratic roots, finite differences, 60-digit `decimal` arithmetic).
"""
from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad


def jacobi_eigenvalues(matrix: np.ndarray, max_sweeps: int = 100,
                       tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    scale = max(1.0, np.abs(a).max())
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(np.diag(a))


def semicircle_pdf(x: float, c: float) -> float:
    """Semicircle on |x| <= 2/sqrt(c) with peak sqrt(4c)/(2 pi)."""
    if abs(x) >= 2.0 / np.sqrt(c):
        return 0.0
    return np.sqrt(4.0 * c - c * c * x * x) / (2.0 * np.pi)


def numeric_semicircle_cauchy(z: float, c: float) -> float:
    """Adaptive quadrature of the Cauchy transform of x * semicircle(x),
    for real z outside the support."""
    edge = 2.0 / np.sqrt(c)
    val, _ = quad(lambda x: x * semicircle_pdf(x, c) / (z - x),
                  -edge, edge, limit=400)
    return val


def single_degree_h(z: complex, c: float) -> complex:
    """Physical root of c h^2 - z h + 1 = 0 (quadratic equivalent of the
    self-consistency equation for one degree atom)."""
    roots = np.roots([c, -complex(z), 1.0])
    z = complex(z)
    if z.imag > 0:
        neg = roots[roots.imag < 0]
        assert neg.size == 1
        return complex(neg[0])
    # real z off the support: the branch decaying like 1/z has smaller modulus
    return complex(roots[np.argmin(np.abs(roots))])


def _cleared_roots(d: np.ndarray, w: np.ndarray, z: complex) -> np.ndarray:
    # roots in h of  h prod_r (z - d_r h) - (1/c) sum_r w_r d_r prod_{s!=r} (z - d_s h),
    # with prod_{s!=r} taken as (prod_{s<r}) (prod_{s>r})
    c = float(w @ d)
    factors = [np.array([-dr, z]) for dr in d]  # z - d_r h, descending in h
    before = [np.array([1.0 + 0.0j])]
    for f in factors[:-1]:
        before.append(np.convolve(before[-1], f))
    after = [np.array([1.0 + 0.0j])]
    for f in factors[:0:-1]:
        after.append(np.convolve(after[-1], f))
    poly = np.append(np.convolve(before[-1], factors[-1]), 0.0)
    for r in range(d.size):
        poly[2:] -= (w[r] * d[r] / c) * np.convolve(before[r], after[-1 - r])
    return np.roots(poly)


def physical_root(degrees: np.ndarray, weights: np.ndarray, z: complex) -> complex:
    """The physical root of the cleared self-consistency equation, Im z >= 0.

    Clearing denominators in h = (1/c) sum_r w_r d_r / (z - d_r h) gives the
    polynomial  h prod_r (z - d_r h) - (1/c) sum_r w_r d_r prod_{s!=r} (z - d_s h).
    For Im z > 0 the map h -> (1/c) sum w d / (z - d h) sends the lower half
    plane into itself, so by Schwarz-Pick it has at most one fixed point
    there.  Near the real axis outside the band every root is real to
    roundoff and the sign of Im h cannot pick it, so the root is followed
    instead: it is the unique root with Im h < 0 at z + i, and the added
    imaginary part is then divided by 4 per step, to 1e-3 Im z (or to
    1e-15 max(1, |z|) for real z) and finally to 0, each step taking the
    root nearest the last.  Where Im z > 0 and exactly one root at z has
    Im h < 0, the followed root must be that one.
    """
    d, w = np.asarray(degrees, dtype=float), np.asarray(weights, dtype=float)
    z = complex(z)
    roots = _cleared_roots(d, w, z + 1j)
    below = roots[roots.imag < 0.0]
    assert below.size == 1, f"{below.size} roots with Im h < 0 at z={z + 1j!r}"
    h = complex(below[0])
    stop = 1e-3 * z.imag if z.imag > 0.0 else 1e-15 * max(1.0, abs(z))
    s = 0.25
    while True:
        roots = _cleared_roots(d, w, z + 1j * s)
        h = complex(roots[np.argmin(np.abs(roots - h))])
        if s == 0.0:
            below = roots[roots.imag < 0.0]
            if z.imag > 0.0 and below.size == 1:
                assert h == below[0], f"followed root {h!r} is not {complex(below[0])!r} at z={z!r}"
            return h
        s = 0.25 * s if s > stop else 0.0


def converged_homotopy_h(degrees: np.ndarray, weights: np.ndarray, z: np.ndarray,
                         ratio: float = 8.0, tol: float = 1e-14,
                         max_steps: int = 40) -> np.ndarray:
    """h at every point of z (Im z > 0) by a vertical homotopy that converges every level.

    Each point starts at Im = 10 max(sqrt(<d^2>), |z|, 1), where h = 1/z.
    Im z is divided by ratio per level, never below the point's own Im z,
    and a level within 1.5 times of it goes straight to it.  At every level,
    not only the last, Newton's method on f(h) = h - (1/c) sum w d / (z - d h)
    runs until each step is at most tol max(1, |h|), or max_steps.
    """
    d, w = np.asarray(degrees, dtype=float), np.asarray(weights, dtype=float)
    z = np.asarray(z, dtype=complex)
    assert np.all(z.imag > 0.0)
    wd = w * d / float(w @ d)
    goal = z.imag
    level = 10.0 * np.maximum(max(np.sqrt(float(w @ d ** 2)), 1.0), np.abs(z))
    h = 1.0 / (z.real + 1j * level)
    while True:
        at = z.real + 1j * level
        for _ in range(max_steps):
            q = 1.0 / (at[:, None] - np.outer(h, d))
            step = (h - q @ wd) / (1.0 - (q * q) @ (wd * d))
            h = h - step
            if np.all(np.abs(step) <= tol * np.maximum(1.0, np.abs(h))):
                break
        if np.all(level == goal):
            return h
        level = np.where(level > 1.5 * goal, np.maximum(level / ratio, goal), goal)


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def poisson_bulk_density(z: float, c: float) -> float:
    """Bulk density of the single-degree model, sqrt(4c - z^2) / (2 pi c)."""
    if abs(z) >= 2.0 * np.sqrt(c):
        return 0.0
    return np.sqrt(4.0 * c - z * z) / (2.0 * np.pi * c)


def poisson_band_edge(c: float) -> float:
    """Upper band edge 2 sqrt(c) of the single-degree model."""
    return 2.0 * np.sqrt(c)


def poisson_hub_weights(k_n: float, c: float) -> tuple[float, float]:
    """Hub weight v_n^2 = (k_n / 2 - c) / (k_n - c) of a hub of degree k_n
    above a single-degree background of degree c, and the mean neighbor
    weight v_n^2 / (k_n - c)."""
    vn_sq = (0.5 * k_n - c) / (k_n - c)
    return vn_sq, vn_sq / (k_n - c)


def _bisect(f, lo: float, hi: float) -> float:
    f_lo = f(lo) > 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == f_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def geometric_sign_changes(f, lo: float, hi: float) -> list[float]:
    """Every sign change of a vectorized f on a 20000-point geometric grid
    over [lo, hi], each refined by bisection, in ascending order."""
    grid = np.geomspace(lo, hi, 20000)
    pos = f(grid) > 0.0
    return [_bisect(lambda x: float(f(np.array([x]))[0]), grid[i], grid[i + 1])
            for i in np.flatnonzero(pos[1:] != pos[:-1])]


def psi_roots(degrees: np.ndarray, weights: np.ndarray) -> list[float]:
    """Roots of psi(u) = sum w d (u - 2d) / (u - d)^2 above the largest degree,
    from a dense scan with u - k_max geometric over [1e-12, 1e3] k_max."""
    d, w = np.asarray(degrees), np.asarray(weights)
    k_max = float(d.max())

    def psi(gap: np.ndarray) -> np.ndarray:
        u = k_max + gap[:, None]
        return np.sum(w * d * (u - 2.0 * d) / (u - d) ** 2, axis=1)

    return [k_max + g for g in
            geometric_sign_changes(psi, 1e-12 * k_max, 1e3 * k_max)]


def leading_root(degrees: np.ndarray, weights: np.ndarray) -> float:
    """Largest real z with  c / (z - 1)^2 = sum w d / (z^2 - z - d).

    Substituting h = 1/(z - 1) into the self-consistency equation gives this
    form.  Just above the z where z^2 - z passes the largest degree the right
    side is +inf; at large z, (z - 1)^2 times it tends to c from below.  The
    grid is geometric in the distance from that pole.
    """
    d, w = np.asarray(degrees), np.asarray(weights)
    c = float(w @ d)
    z0 = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * float(d.max())))

    def f(gap: np.ndarray) -> np.ndarray:
        z = z0 + gap[:, None]
        return ((z[:, 0] - 1.0) ** 2 * np.sum(w * d / (z * z - z - d), axis=1)
                - c)

    hi = 10.0 * (float(w @ d ** 2) / c + 1.0)
    return z0 + geometric_sign_changes(f, 1e-12 * z0, hi)[-1]


def _decimals(degrees: np.ndarray, weights: np.ndarray) -> tuple[list, list, Decimal]:
    d = [Decimal(float(x)) for x in degrees]
    w = [Decimal(float(x)) for x in weights]
    return d, w, sum(wr * dr for wr, dr in zip(w, d))


def decimal_leading_root(degrees: np.ndarray, weights: np.ndarray) -> float:
    """The leading eigenvalue by 60-digit stdlib `decimal` bisection.

    With h = 1/(z - 1), the self-consistency equation becomes
    c / (z - 1)^2 = sum w d / (z^2 - z - d); subtracting c from (z - 1)^2
    times the right side leaves  F(z) = sum w d (d + 1 - z) / (z^2 - z - d),
    in which nothing cancels.  Just above z0, where z0^2 - z0 is the largest
    degree, F is +inf; at z = k_max + 2 every term is negative.  The sign
    change between them is bisected until the bracket is below 1e-40 of it.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        d, w, _ = _decimals(degrees, weights)
        k_max = max(d)

        def f(z: Decimal) -> Decimal:
            t = z * z - z
            return sum(wr * dr * (dr + 1 - z) / (t - dr) for wr, dr in zip(w, d))

        z0 = (1 + (1 + 4 * k_max).sqrt()) / 2
        lo, hi = z0 * (1 + Decimal("1e-50")), k_max + 2
        assert f(lo) > 0 > f(hi)
        while hi - lo > Decimal("1e-40") * lo:
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def decimal_hub_eigenvalue(degrees: np.ndarray, weights: np.ndarray,
                           k_n: float) -> float:
    """z = sqrt(k_n^2 G(k_n) / c), G(u) = sum w d / (u - d), in 60-digit
    stdlib `decimal`, whose exponent range holds k_n^2 for any float k_n."""
    with localcontext() as ctx:
        ctx.prec = 60
        d, w, c = _decimals(degrees, weights)
        k = Decimal(float(k_n))
        g = sum(wr * dr / (k - dr) for wr, dr in zip(w, d))
        return float((k * k * g / c).sqrt())


def decimal_hub_weights(degrees: np.ndarray, weights: np.ndarray,
                        k_n: float) -> tuple[float, float]:
    """Hub weight and mean neighbor weight of a hub of degree k_n, in
    60-digit stdlib `decimal`, from their definitions.

    At z = sqrt(k_n^2 G(k_n) / c), where h = z / k_n, implicit differentiation
    of F(h, z) = (1/c) sum w d / (z - d h) - h = 0 gives h'(z) = -F_z / F_h,
    and the hub weight is v_n^2 = 1 / (1 - k_n h'(z)).  The neighbor weight
    v_n^2 / (z (1 - d / k_n))^2 is averaged over the excess weights w d / c.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        d, w, c = _decimals(degrees, weights)
        k = Decimal(float(k_n))
        z = (k * k * sum(wr * dr / (k - dr) for wr, dr in zip(w, d)) / c).sqrt()
        h = z / k
        q = [1 / (z - dr * h) for dr in d]
        f_h = sum(wr * dr * dr * qr * qr for wr, dr, qr in zip(w, d, q)) / c - 1
        f_z = -sum(wr * dr * qr * qr for wr, dr, qr in zip(w, d, q)) / c
        vn_sq = 1 / (1 + k * f_z / f_h)
        neighbor = sum(wr * dr / c * vn_sq / (z * (1 - dr / k)) ** 2
                       for wr, dr in zip(w, d))
        return float(vn_sq), float(neighbor)
