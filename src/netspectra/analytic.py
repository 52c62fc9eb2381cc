"""Analytic spectrum of the modularity/adjacency matrix ensemble.

Everything here flows from one scalar self-consistency equation for the
degree-weighted resolvent trace h(z),

    h = (1/c) * sum_r w_r d_r / (z - d_r h),

where (d_r, w_r) are the degree nodes and c the mean degree.  Its boundary
values on the real axis give the bulk spectral density

    rho(z) = -Im g(z) / pi,   g = sum_r w_r / (z - d_r h) = (1 + c h^2) / z,

and its real solutions outside the band give the detached eigenvalues: the
leading adjacency eigenvalue solves (z - 1) h(z) = 1, and a hub of expected
degree k_n contributes the pair z with h(z) = z / k_n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .degree_model import DegreeModel
from .errors import NoDetachedEigenvalueError, NumericError

NEWTON_TOL = 1e-14           # step size, relative to max(1, |h|), that ends the goal level
NEWTON_MAX_STEPS = 40        # Newton steps at the goal level; a level above it takes one
LEVEL_RATIO = 32.0           # Im z is divided by this between homotopy levels
BLOCK_ENTRIES = 2 ** 14      # points x nodes per batched block, bounds peak memory
RESIDUAL_RTOL = 1e-10        # HSolution acceptance: residual < tol * max(1, |h|)
DENSITY_FLOOR = -1e-9        # pre-clamp density may not dip below this


# --------------------------------------------------------------------------
# result types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HSolution:
    """One converged solution of the self-consistency equation."""

    z: complex
    h: complex
    residual: float
    method: str  # "closed-form" | "homotopy-newton"


@dataclass(frozen=True)
class SpectralCurve:
    """Sampled bulk density rho(z) on an ascending grid."""

    z: np.ndarray
    rho: np.ndarray
    eta: float
    band: tuple[float, float]
    norm_defect: float
    second_moment: float


@dataclass(frozen=True)
class HubPrediction:
    """Detached-eigenvalue and localization prediction for one hub degree."""

    k_n: float
    exists: bool
    z_plus: float | None  # the pair is +-z_plus
    k_critical: float
    vn_sq: float
    neighbor_vi_sq_mean: float


# --------------------------------------------------------------------------
# semicircle building blocks
# --------------------------------------------------------------------------

def _sqrt_tail(z: complex | np.ndarray, a: float) -> complex | np.ndarray:
    # sqrt(z^2 - a^2) on the branch that behaves like z at infinity
    z = np.asarray(z, dtype=complex)
    return np.sqrt(z - a) * np.sqrt(z + a)


def semicircle_density(z: float, c: float) -> float:
    """Semicircle density of the normalized matrix, support |z| <= 2/sqrt(c)."""
    if c <= 0:
        raise ValueError("c must be positive")
    if abs(z) >= 2.0 / np.sqrt(c):
        return 0.0
    return float(np.sqrt(4.0 * c - c * c * z * z) / (2.0 * np.pi))


def semicircle_cauchy_transform(z: complex, c: float) -> complex:
    """Cauchy transform of x * rho_c(x) for the semicircle above.

    Closed form (c z / 2)(z - sqrt(z^2 - 4/c)) - 1, evaluated in the
    cancellation-free equivalent (4/c) / (z + sqrt(z^2 - 4/c))^2 so it stays
    accurate far from the support, where it decays like 1/(c z^2).
    """
    if c <= 0:
        raise ValueError("c must be positive")
    s = _sqrt_tail(z, 2.0 / np.sqrt(c))
    return (4.0 / c) / (complex(z) + s) ** 2


def _h_single_atom(z: np.ndarray, c: float) -> np.ndarray:
    # closed form for a single degree atom: h = (z - sqrt(z^2 - 4c)) / (2c),
    # written as 2 / (z + sqrt(z^2 - 4c)) to avoid cancellation at large |z|
    return 2.0 / (z + _sqrt_tail(z, 2.0 * np.sqrt(c)))


# --------------------------------------------------------------------------
# the self-consistency solve
# --------------------------------------------------------------------------

def _route(model: DegreeModel) -> str:
    return "closed-form" if model.degrees.size == 1 else "homotopy-newton"


def _homotopy_newton(model: DegreeModel, z: np.ndarray) -> np.ndarray:
    """h at every point of z (Im z >= 0) by Newton steps along a vertical homotopy.

    Each point starts at Im = 10 max(sqrt(<d^2>), min(|z|, 1e307), 1), where
    h = 1/z, and divides Im z by LEVEL_RATIO per level down to its target
    (or goes up to a goal above the start): Im z itself, or 1e-13 max(1, |Re z|)
    followed by a final step onto the real axis.  At each level Newton steps on
    f(h) = h - (1/c) sum w d / (z - d h) start from the previous level's root.
    A level above the point's goal only starts the next one, so it takes one
    Newton step; at the goal, points whose last step exceeded NEWTON_TOL
    max(1, |h|) take another, up to NEWTON_MAX_STEPS.  A level's cost is mostly
    overhead, so the ratio is large: a grid at Im z = 1e-6 takes 7 levels and
    about 9 Newton steps per point.  Divisions take half-scale terms, as in
    0.5 / ((z - d h) / 2), so none overflows near the largest float.
    """
    d = model.degrees
    wd = model.weights * d / model.mean_degree()
    half_d, wd_c, wdd_c = 0.5 * d, (0.5 * wd).astype(complex), (0.25 * wd * d).astype(complex)
    goal = z.imag
    target = np.where(goal > 0.0, goal, 1e-13 * np.maximum(1.0, np.abs(z.real)))
    switch = 1.5 * np.minimum(target, 1e307)  # a level above this is divided
    im = 10.0 * np.maximum(max(np.sqrt(model.moment(2)), 1.0), np.minimum(np.abs(z), 1e307))
    h = 0.5 / (0.5 * z.real + 0.5j * im)
    buf = np.empty((z.size, d.size), dtype=complex)  # (z - d h) / 2, then its powers
    todo = np.arange(z.size)  # points not yet solved at their goal
    while todo.size:
        zz = 0.5 * z.real[todo] + 0.5j * im[todo]
        hh = h[todo]
        done = im[todo] == goal[todo]
        live = np.arange(todo.size)
        for _ in range(NEWTON_MAX_STEPS):
            q = buf[:live.size]
            np.multiply.outer(hh[live], half_d, out=q)
            np.subtract(zz[live, None], q, out=q)
            np.reciprocal(q, out=q)
            g = q @ wd_c
            np.square(q, out=q)
            step = (hh[live] - g) / (1.0 - q @ wdd_c)
            hh[live] -= step
            big = np.abs(step) > NEWTON_TOL * np.maximum(1.0, np.abs(hh[live]))
            live = live[done[live] & big]
            if not live.size:
                break
        h[todo] = hh
        level, t = im[todo], target[todo]
        im[todo] = np.where(level > switch[todo], np.maximum(level / LEVEL_RATIO, t), goal[todo])
        todo = todo[~done]
    return h


def _finish(model: DegreeModel, z: np.ndarray, h: np.ndarray,
            method: str) -> tuple[np.ndarray, np.ndarray]:
    """Residual and density at each solved point, checked as post-conditions.

    The density is rho = -Im g / pi from the node sum g = sum w / (z - d h),
    which equals (1 + c h^2) / z on the solution but has no 1/z, so it stays
    accurate at z near 0.

    Raises:
        NumericError: a residual is not below RESIDUAL_RTOL * max(1, |h|),
            or a point with Im z > 0 is on a non-physical branch: Im h above
            RESIDUAL_RTOL * max(1, |h|) (the physical root has Im h < 0) or
            density below DENSITY_FLOOR.
    """
    d, w = model.degrees, model.weights
    q = 0.5 / (0.5 * z[:, None] - np.multiply.outer(h, 0.5 * d))  # half scale: no overflow
    res = np.abs(h - q @ (w * d) / model.mean_degree())
    rho = -(q @ w).imag / np.pi
    bad = ~(res <= RESIDUAL_RTOL * np.maximum(1.0, np.abs(h)))  # NaN counts as bad
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(
            f"solve for h stalled at z={complex(z[i])!r}: residual {res[i]:.3e} "
            f"via {method}")
    upper = h.imag > RESIDUAL_RTOL * np.maximum(1.0, np.abs(h))
    wrong = (z.imag > 0.0) & (upper | (rho < DENSITY_FLOOR))
    if wrong.any():
        i = int(np.argmax(wrong))
        raise NumericError(
            f"non-physical branch at z={complex(z[i])!r}: h={complex(h[i])!r}, "
            f"density {rho[i]:.3e}")
    return res, rho


def _solve_h_batch(model: DegreeModel,
                   z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h, residual and density rho = -Im g / pi at every point of z (Im z >= 0).

    Points are solved in blocks of BLOCK_ENTRIES // nodes, which bounds the
    (points x nodes) work arrays and so the peak memory of long grids.  A
    non-finite z raises ValueError: the homotopy never reaches a NaN goal.
    """
    z = np.asarray(z, dtype=complex)
    bad = ~np.isfinite(z)
    if bad.any():
        raise ValueError(f"z={complex(z[bad][0])!r} is not finite")
    method = _route(model)
    h = np.empty_like(z)
    res = np.empty(z.shape)
    rho = np.empty(z.shape)
    size = max(1, BLOCK_ENTRIES // model.degrees.size)
    for lo in range(0, z.size, size):
        part = slice(lo, lo + size)
        h[part] = (_h_single_atom(z[part], model.mean_degree())
                   if method == "closed-form" else _homotopy_newton(model, z[part]))
        res[part], rho[part] = _finish(model, z[part], h[part], method)
    return h, res, rho


def solve_h(model: DegreeModel, z: complex) -> HSolution:
    """Solve the self-consistency equation at one point.

    A single degree atom has a closed form; every other model takes the
    homotopy-Newton solve of `_homotopy_newton` at this one point.

    Args:
        model: degree distribution.
        z: evaluation point; Im z > 0, or real z outside the band (real z
           inside the band returns the boundary value from above).  Im z < 0
           is solved at the conjugate and reflected back.

    Returns:
        HSolution with residual below 1e-10 * max(1, |h|).

    Raises:
        ValueError: z is not finite.
        NumericError: residual tolerance not reached, or the solution
            induces a negative density.
    """
    z = complex(z)
    if z.imag < 0:  # conjugate symmetry: solve mirrored, reflect back
        sol = solve_h(model, z.conjugate())
        return HSolution(z=z, h=sol.h.conjugate(), residual=sol.residual,
                         method=sol.method)
    h, res, _ = _solve_h_batch(model, np.array([z]))
    return HSolution(z=z, h=complex(h[0]), residual=float(res[0]),
                     method=_route(model))


# --------------------------------------------------------------------------
# density and transforms
# --------------------------------------------------------------------------

def spectral_density(model: DegreeModel, z: float, eta: float) -> float:
    """Bulk spectral density at real z, smoothed at scale eta.

    Evaluates -Im g(z + i eta) / pi from the node sum
    g = sum w / (z + i eta - d h); tiny negative values (above -1e-9) are
    clamped to zero.
    """
    if not eta > 0:  # NaN fails too
        raise ValueError("eta must be positive")
    if eta == np.inf:  # z + i eta would not be finite
        raise ValueError("eta must be finite")
    _, _, rho = _solve_h_batch(model, np.array([complex(z, eta)]))
    return max(0.0, float(rho[0]))


def stieltjes_transform(model: DegreeModel, z: complex) -> complex:
    """Stieltjes transform g(z) = (1 + c h(z)^2) / z of the bulk density.

    Cross-checked against the equivalent node sum  sum_r w_r / (z - d_r h);
    disagreement beyond the propagated solver residual is an internal error.
    Every division by z is taken at half scale, 0.5 / (z / 2), so neither
    form nor the tolerance overflows where |z| is near the largest float.
    """
    z = complex(z)
    sol = solve_h(model, z)
    c = model.mean_degree()
    half_z = 0.5 * z
    g = 0.5 * (1.0 + c * sol.h ** 2) / half_z
    g_nodes = complex(np.sum(
        model.weights * (0.5 / (half_z - model.degrees * (0.5 * sol.h)))))
    tol = max(1e-9 * max(1.0, abs(g)),
              50.0 * c * max(1.0, abs(sol.h)) * max(sol.residual, 1e-16)
              * 0.5 / abs(half_z))
    if abs(g - g_nodes) > tol:
        raise NumericError(
            f"Stieltjes forms disagree at z={z!r}: {abs(g - g_nodes):.3e}")
    return g


def density_grid(model: DegreeModel, z_min: float, z_max: float, points: int,
                 eta: float | None = None) -> SpectralCurve:
    """Sweep the density over [z_min, z_max] in one batched solve.

    Every grid point is solved cold, with no warm start from its neighbor,
    and its density is taken from the node sum as in `spectral_density`.
    Records the band edges from `band_edges`, and the trapezoid
    normalization defect and second moment as diagnostics.
    """
    if not z_min < z_max:
        raise ValueError("need z_min < z_max")
    if not np.isfinite(z_max - z_min):
        raise ValueError("the span z_max - z_min must be finite")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    eta = float(eta) if eta is not None else max(1e-9, (z_max - z_min) / (10.0 * points))
    if not eta > 0:  # NaN fails too
        raise ValueError("eta must be positive")
    if eta == np.inf:  # z + i eta would not be finite
        raise ValueError("eta must be finite")

    grid = np.linspace(z_min, z_max, int(points))
    _, _, rho = _solve_h_batch(model, grid + 1j * eta)
    rho = np.maximum(rho, 0.0)

    band = band_edges(model)
    norm_defect = abs(float(np.trapezoid(rho, grid)) - 1.0)
    second = float(np.trapezoid(rho * grid * grid, grid))
    return SpectralCurve(z=grid, rho=rho, eta=eta, band=band,
                         norm_defect=norm_defect, second_moment=second)


# --------------------------------------------------------------------------
# the real axis outside the band
# --------------------------------------------------------------------------
#
# Outside the band h(z) is real.  With u = z / h the self-consistency
# equation reads h^2 = G(u) / c, G(u) = sum w d / (u - d), so the upper real
# branch is the curve  z(u)^2 = u^2 G(u) / c  for u in (k_max, inf).  Its
# derivative is u psi(u) / c with psi(u) = sum w d (u - 2 d) / (u - d)^2:
# coming down from u = inf, z falls to the band edge at the root u_c of psi
# and the branch ends there.  A hub of degree k_n detaches the pair +-z(k_n)
# when k_n > u_c, and the leading eigenvalue, (z - 1) h = 1, is the point of
# the branch with u = z^2 - z.

def _bisect(f, lo: float, hi: float) -> float:
    """Root of f between lo and hi (f changes sign there), to float resolution."""
    lo_positive = f(lo) > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (f(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid


def _hub_zsq(model: DegreeModel, k_n: float) -> float:
    # z(u)^2 = u^2 G(u) / c at u = k_n
    return k_n * k_n / model.mean_degree() * model.cauchy_transform(k_n)


def hub_critical_degree(model: DegreeModel) -> float:
    """Critical degree u_c: the root of psi(u) = sum w d (u - 2d) / (u - d)^2 above k_max.

    u_c is the smallest hub degree that detaches eigenvalues from the band,
    and z(u_c) is the upper band edge.  c z(u)^2 = sum w d (u + d + d^2/(u - d))
    is a sum of convex functions, so psi has exactly one root, below which it
    is negative.  Every term of psi is positive beyond 2 k_max, so the scan
    starts at 3 k_max and halves the gap u - k_max until psi is no longer
    positive; the last halving brackets the root, which is then bisected.  If
    psi stays positive down to a gap of 1e-12 k_max, the root is within
    roundoff of the pole and that point is returned.
    """
    d, w = model.degrees, model.weights
    k_max = model.max_degree

    def psi(u: float) -> float:
        return float(np.sum(w * d * (u - 2.0 * d) / (u - d) ** 2))

    hi, gap = 3.0 * k_max, 2.0 * k_max
    while psi(k_max + gap) > 0.0:
        hi = k_max + gap
        gap *= 0.5
        if gap < 1e-12 * k_max:
            return hi
    return _bisect(psi, k_max + gap, hi)


@lru_cache(maxsize=128)  # models are immutable; keyed by identity
def band_edges(model: DegreeModel) -> tuple[float, float]:
    """Outermost edges of the continuous spectral band, (-z_c, z_c).

    The upper edge is z(u_c) = u_c sqrt(G(u_c) / c) at the critical degree
    u_c of `hub_critical_degree`, for every model: a single atom of degree c
    goes through the same curve, with u_c = 2c and edge 2 sqrt(c).  The
    lower edge is its negative, because h(-z) = -h(z).
    """
    e = float(np.sqrt(_hub_zsq(model, hub_critical_degree(model))))
    return (-e, e)


# --------------------------------------------------------------------------
# detached eigenvalues
# --------------------------------------------------------------------------

def leading_eigenvalue(model: DegreeModel) -> float:
    """Largest adjacency eigenvalue: the real z above the band with (z-1) h(z) = 1.

    On the branch z = u h, h = sqrt(G(u) / c), the condition reads
    f(u) = u G(u) / c - sqrt(G(u) / c) - 1 = 0.  f approaches 0 from below
    like -1/sqrt(u) at large u, so f > 0 at the critical degree u_c (the
    band edge) brackets the root above u_c; the bracket is widened by
    doubling and bisected, and f(u_c) <= 0 means nothing detaches.  A single
    atom has the closed form c + 1, which detaches only for c > 1.  The
    result is checked against a cold solve of h(z).

    Raises:
        NoDetachedEigenvalueError: no root lies above the band edge.
    """
    c = model.mean_degree()
    if model.degrees.size == 1:
        if c <= 1.0:
            raise NoDetachedEigenvalueError(
                f"c + 1 = {c + 1.0:.6g} does not exceed the band edge "
                f"2 sqrt(c) = {2.0 * np.sqrt(c):.6g}")
        z = c + 1.0
    else:
        def f(u: float) -> float:
            g = model.cauchy_transform(u) / c
            return u * g - np.sqrt(g) - 1.0

        u_c = hub_critical_degree(model)
        if f(u_c) <= 0.0:
            raise NoDetachedEigenvalueError(
                f"(z-1) h(z) - 1 is non-positive at the band edge "
                f"{band_edges(model)[1]:.6g}")
        hi = 2.0 * u_c
        while f(hi) > 0.0:  # f -> 0- like -1/sqrt(u), so a finite hi ends this
            hi *= 2.0
        z = float(np.sqrt(_hub_zsq(model, _bisect(f, u_c, hi))))
    sol = solve_h(model, complex(z))
    if abs((z - 1.0) * sol.h - 1.0) > 1e-8 * max(1.0, abs(z)):
        raise NumericError(
            f"candidate leading eigenvalue {z!r} fails (z-1) h(z) = 1")
    return float(z)


def leading_eigenvalue_approx(model: DegreeModel) -> float:
    """Moment-ratio approximation <k^2> / <k> to the leading eigenvalue."""
    return model.moment(2) / model.mean_degree()


# --------------------------------------------------------------------------
# hubs
# --------------------------------------------------------------------------

def hub_pairs(model: DegreeModel, k_n: np.ndarray) -> tuple[float, np.ndarray]:
    """Critical degree, and z_plus at every hub degree of the array k_n.

    z_plus is NaN where k_n does not exceed the critical degree.  Each
    detached z = sqrt(k_n^2 G(k_n) / c) is checked against h(z) = z / k_n by
    one batched cold solve of h at all of them.  `hub_eigenvalues` is the
    one-degree view that adds the localization.

    Raises:
        ValueError: some k_n is not finite, does not exceed every degree
            in the model, or is so large that z^2 overflows.
        NumericError: some z fails h(z) = z / k_n.
    """
    k_n = np.asarray(k_n, dtype=float)
    nonfinite = ~np.isfinite(k_n)
    if nonfinite.any():
        raise ValueError(f"hub degree {float(k_n[nonfinite][0])!r} must be finite")
    k_max = model.max_degree
    pole = k_n <= k_max * (1.0 + 1e-12)
    if pole.any():
        raise ValueError(
            f"hub degree {float(k_n[pole][0])!r} must strictly exceed the "
            f"maximum model degree {k_max!r}")
    k_crit = hub_critical_degree(model)
    up = k_n > k_crit
    zsq = np.array([_hub_zsq(model, float(k)) for k in k_n[up]])
    overflow = ~np.isfinite(zsq)
    if overflow.any():
        raise ValueError(
            f"hub degree {float(k_n[up][overflow][0])!r} is too large: its "
            f"eigenvalue z^2 = k_n^2 G(k_n) / c overflows")
    z_up = np.sqrt(zsq)
    h, _, _ = _solve_h_batch(model, z_up)
    want = z_up / k_n[up]
    bad = ~(np.abs(h - want) <= 1e-8 * np.maximum(1.0, np.abs(h)))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(
            f"hub eigenvalue {float(z_up[i])!r} fails h(z) = z / k_n: "
            f"h={complex(h[i])!r} vs {float(want[i])!r}")
    z = np.full(k_n.shape, np.nan)
    z[up] = z_up
    return k_crit, z


def hub_eigenvalues(model: DegreeModel, k_n: float) -> HubPrediction:
    """Detached eigenvalue pair produced by a hub of expected degree k_n.

    The pair satisfies  z^2 = (k_n^2 / c) sum w d / (k_n - d)  and exists only
    for k_n above the critical degree; below it the prediction reports
    exists=False with the band edge as the top of the spectrum.

    Raises:
        ValueError: k_n is not finite, or does not exceed every degree in
            the model.
    """
    k_n = float(k_n)
    k_crit, z_plus = hub_pairs(model, np.array([k_n]))
    if np.isnan(z_plus[0]):
        return HubPrediction(k_n=k_n, exists=False, z_plus=None,
                             k_critical=k_crit, vn_sq=0.0, neighbor_vi_sq_mean=0.0)
    z = float(z_plus[0])
    vn_sq, neighbor = _hub_localization(model, k_n, z)
    return HubPrediction(k_n=k_n, exists=True, z_plus=z,
                         k_critical=k_crit, vn_sq=vn_sq,
                         neighbor_vi_sq_mean=neighbor)


def _hub_localization(model: DegreeModel, k_n: float, z: float) -> tuple[float, float]:
    """Hub weight v_n^2 = 1 / (1 - k_n h'(z)) and the mean neighbor weight.

    h'(z) comes from implicit differentiation of the self-consistency
    equation at h = z / k_n, for every model: a single atom of degree c goes
    through the same formula, which gives (k_n / 2 - c) / (k_n - c) there.
    """
    c = model.mean_degree()
    h = z / k_n
    d, w = model.degrees, model.weights
    q = 1.0 / (z - d * h)
    f_h = float(np.sum(w * d * d * q * q)) / c - 1.0
    f_z = -float(np.sum(w * d * q * q)) / c
    h_prime = f_z / (-f_h)
    vn_sq = 1.0 / (1.0 - k_n * h_prime)
    if not 0.0 <= vn_sq <= 1.0:
        raise NumericError(
            f"hub weight vn_sq={vn_sq!r} outside [0, 1]")
    excess_w = w * d / c
    vi_sq = vn_sq / (z * (1.0 - d / k_n)) ** 2
    neighbor = float(np.sum(excess_w * vi_sq))
    return float(vn_sq), neighbor


def hub_eigenvector_profile(model: DegreeModel, k_n: float) -> HubPrediction:
    """Localization profile of the hub eigenvector (requires a detached pair).

    The hub element squares to 1 / (1 - k_n h'(z)) with h' obtained by
    implicit differentiation; the expected neighbor element for background
    degree d is v_n / (z (1 - d/k_n)), averaged over the excess distribution.

    Raises:
        NoDetachedEigenvalueError: k_n is below the critical hub degree.
    """
    pred = hub_eigenvalues(model, k_n)
    if not pred.exists:
        raise NoDetachedEigenvalueError(
            f"hub degree {k_n!r} is below the critical degree {pred.k_critical!r}")
    return pred
