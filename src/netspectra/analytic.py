"""Analytic spectrum of the modularity/adjacency matrix ensemble.

Everything here flows from one scalar self-consistency equation for the
degree-weighted resolvent trace h(z),

    h = (1/c) * sum_r w_r d_r / (z - d_r h),

where (d_r, w_r) are the degree nodes and c the mean degree.  Its boundary
values on the real axis give the bulk spectral density

    rho(z) = -(c / (pi z)) * Im h(z)^2,

and its real solutions outside the band give the detached eigenvalues: the
leading adjacency eigenvalue solves (z - 1) h(z) = 1, and a hub of expected
degree k_n contributes the pair z with h(z) = z / k_n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .degree_model import DegreeModel
from .errors import (
    AmbiguousRootError,
    ConvergenceError,
    InternalConsistencyError,
    NoDetachedEigenvalueError,
    PoleError,
    RootNotFoundError,
)

MAX_POLY_ATOMS = 12          # polynomial root route up to this many nodes
FP_DAMPING = 0.5
FP_MAX_ITER = 10_000
FP_TOL = 1e-12
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
    method: str  # "closed-form" | "polynomial-roots" | "damped-iteration"


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
    z_plus: float | None
    z_minus: float | None
    k_critical: float
    vn_sq: float
    neighbor_vi_sq_mean: float


# --------------------------------------------------------------------------
# semicircle building blocks
# --------------------------------------------------------------------------

def _sqrt_tail(z: complex, a: float) -> complex:
    # sqrt(z^2 - a^2) on the branch that behaves like z at infinity
    z = complex(z)
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


def _h_single_atom(z: complex, c: float) -> complex:
    # closed form for a single degree atom: h = (z - sqrt(z^2 - 4c)) / (2c),
    # written as 2 / (z + sqrt(z^2 - 4c)) to avoid cancellation at large |z|
    s = _sqrt_tail(z, 2.0 * np.sqrt(c))
    return 2.0 / (complex(z) + s)


# --------------------------------------------------------------------------
# the self-consistency solve
# --------------------------------------------------------------------------

def _rhs(model: DegreeModel, z: complex, h: complex) -> complex:
    d, w = model.degrees, model.weights
    return complex(np.sum(w * d / (z - d * h))) / model.mean_degree()


def _rhs_dh(model: DegreeModel, z: complex, h: complex) -> complex:
    d, w = model.degrees, model.weights
    return complex(np.sum(w * d * d / (z - d * h) ** 2)) / model.mean_degree()


def _residual(model: DegreeModel, z: complex, h: complex) -> float:
    return abs(h - _rhs(model, z, h))


def _h_poly_coeffs(model: DegreeModel, z: complex) -> np.ndarray:
    """Coefficients (descending) of the degree-(L+1) polynomial in h.

    Clearing denominators in the self-consistency equation gives

        h * prod_r (z - d_r h) - (1/c) sum_r w_r d_r prod_{s!=r} (z - d_s h) = 0.
    """
    d, w = model.degrees, model.weights
    c = model.mean_degree()
    lead = np.array([1.0 + 0.0j])  # ascending coefficients in h
    for dr in d:
        lead = np.convolve(lead, np.array([z, -dr], dtype=complex))
    lead = np.concatenate([[0.0], lead])  # multiply by h
    rhs = np.zeros(1, dtype=complex)
    for r, (dr, wr) in enumerate(zip(d, w)):
        term = np.array([wr * dr / c], dtype=complex)
        for s, ds in enumerate(d):
            if s != r:
                term = np.convolve(term, np.array([z, -ds], dtype=complex))
        n = max(len(rhs), len(term))
        rhs = np.pad(rhs, (0, n - len(rhs))) + np.pad(term, (0, n - len(term)))
    n = max(len(lead), len(rhs))
    poly = np.pad(lead, (0, n - len(lead))) - np.pad(rhs, (0, n - len(rhs)))
    return poly[::-1]  # descending for np.roots


def _admissible(roots: np.ndarray, z: complex, c: float) -> np.ndarray:
    """Filter candidate roots down to those on (or near) the physical sheet.

    For Im z > 0 the physical branch has Im h <= 0; additionally the induced
    density -(c / (pi Re z)) Im h^2 may not be substantially negative.
    """
    keep = []
    pos_tol = 1e-9 * (1.0 + np.abs(roots))
    for h, tol in zip(roots, pos_tol):
        if z.imag > 0 and h.imag > tol:
            continue
        if abs(z.real) > 1e-12:
            dens = -(c / (np.pi * z.real)) * (h * h).imag
            if dens < DENSITY_FLOOR * 10 * max(1.0, abs(h) ** 2 * c):
                continue
        keep.append(h)
    return np.asarray(keep, dtype=complex)


def _pick_nearest(cands: np.ndarray, ref: complex) -> complex:
    if cands.size == 0:
        raise ConvergenceError("no admissible root candidate", method="polynomial-roots")
    dist = np.abs(cands - ref)
    order = np.argsort(dist)
    best = cands[order[0]]
    if order.size >= 2:
        second = cands[order[1]]
        d0, d1 = dist[order[0]], dist[order[1]]
        scale = max(1e-12, 1e-6 * abs(best))
        if abs(best - second) > scale and d1 < 1.05 * d0:
            raise AmbiguousRootError(
                f"two admissible roots {best!r} and {second!r} are equally close "
                f"to the tracked branch at distance {d0:.3e}")
    return complex(best)


def _solve_poly_at(model: DegreeModel, z: complex, ref: complex) -> complex:
    roots = np.roots(_h_poly_coeffs(model, z))
    cands = _admissible(roots, z, model.mean_degree())
    h = _pick_nearest(cands, ref)
    return _newton_polish(model, z, h)


def _newton_polish(model: DegreeModel, z: complex, h: complex,
                   steps: int = 8) -> complex:
    for _ in range(steps):
        f = h - _rhs(model, z, h)
        if abs(f) < 1e-16 * max(1.0, abs(h)):
            break
        fp = 1.0 - _rhs_dh(model, z, h)
        if fp == 0:
            break
        step = f / fp
        if abs(step) > 0.5 * max(1.0, abs(h)):
            break  # polish only; never jump branches
        h = h - step
    return h


def _solve_iter_at(model: DegreeModel, z: complex, ref: complex,
                   tol: float = FP_TOL) -> complex:
    h = complex(ref)
    for _ in range(FP_MAX_ITER):
        g = _rhs(model, z, h)
        nxt = (1.0 - FP_DAMPING) * h + FP_DAMPING * g
        if abs(nxt - h) < tol * max(1.0, abs(nxt)):
            h = nxt
            break
        h = nxt
    return _newton_polish(model, z, h, steps=40)


def _descent_path(z: complex, start_im: float) -> list[complex]:
    """Vertical homotopy levels from high in the upper half plane down to z."""
    target = z.imag if z.imag > 0 else 1e-13 * max(1.0, abs(z.real))
    levels = [complex(z.real, start_im)]
    im = start_im
    while im > target * 1.5:
        im /= 2.0
        levels.append(complex(z.real, max(im, target)))
    if z.imag > 0:
        levels[-1] = z
    else:
        levels.append(z)  # final step lands on the real axis
    return levels


def solve_h(model: DegreeModel, z: complex, ref: complex | None = None) -> HSolution:
    """Solve the self-consistency equation at one point.

    Args:
        model: degree distribution.
        z: evaluation point; Im z > 0, or real z outside the band (real z
           inside the band returns the boundary value from above).
        ref: optional warm start; when given, the root nearest to it is
           tracked directly instead of running the cold homotopy.

    Returns:
        HSolution with residual below 1e-10 * max(1, |h|).

    Raises:
        ConvergenceError: residual tolerance not reached.
        AmbiguousRootError: two admissible branches cannot be distinguished.
    """
    z = complex(z)
    if z.imag < 0:  # conjugate symmetry: solve mirrored, reflect back
        sol = solve_h(model, z.conjugate(),
                      ref=None if ref is None else np.conj(ref))
        return HSolution(z=z, h=sol.h.conjugate(), residual=sol.residual,
                         method=sol.method)

    c = model.mean_degree()
    if model.degrees.size == 1:
        h = _h_single_atom(z, c)
        return _finish(model, z, h, "closed-form")

    poly = model.degrees.size <= MAX_POLY_ATOMS
    method = "polynomial-roots" if poly else "damped-iteration"

    if ref is not None:
        h = (_solve_poly_at(model, z, complex(ref)) if poly
             else _solve_iter_at(model, z, complex(ref)))
        return _finish(model, z, h, method)

    start_im = 10.0 * max(np.sqrt(model.moment(2)), abs(z), 1.0)
    levels = _descent_path(z, start_im)
    h = 1.0 / levels[0]
    for i, zz in enumerate(levels):
        if poly:
            h = _solve_poly_at(model, zz, h)
        else:
            # intermediate homotopy levels only feed the next warm start
            h = _solve_iter_at(model, zz, h,
                               tol=FP_TOL if i == len(levels) - 1 else 1e-6)
    return _finish(model, z, h, method)


def _finish(model: DegreeModel, z: complex, h: complex, method: str) -> HSolution:
    res = _residual(model, z, h)
    if not np.isfinite(res) or res > RESIDUAL_RTOL * max(1.0, abs(h)):
        raise ConvergenceError(
            f"solve for h stalled at z={z!r}: residual {res:.3e} via {method}",
            residual=res, method=method)
    if 0.0 < z.imag <= 1.0 and abs(z.real) > 1e-12:
        dens = -(model.mean_degree() / (np.pi * z.real)) * (h * h).imag
        if dens < DENSITY_FLOOR:
            raise InternalConsistencyError(
                f"selected branch at z={z!r} induces negative density {dens:.3e}")
    return HSolution(z=z, h=h, residual=res, method=method)


# --------------------------------------------------------------------------
# density and transforms
# --------------------------------------------------------------------------

def spectral_density(model: DegreeModel, z: float, eta: float) -> float:
    """Bulk spectral density at real z, smoothed at scale eta.

    Evaluates -(c / (pi z)) Im h(z + i eta)^2; tiny negative values (above
    -1e-9) are clamped to zero.  z = 0 is handled through the Stieltjes
    transform, whose limit there is finite.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if z == 0.0:
        g = stieltjes_transform(model, 1j * eta)
        return max(0.0, -g.imag / np.pi)
    sol = solve_h(model, complex(z, eta))
    rho = -(model.mean_degree() / (np.pi * z)) * (sol.h ** 2).imag
    if rho < DENSITY_FLOOR:
        raise InternalConsistencyError(
            f"density {rho:.3e} below clamp floor at z={z!r}")
    return max(0.0, float(rho))


def stieltjes_transform(model: DegreeModel, z: complex) -> complex:
    """Stieltjes transform g(z) = (1 + c h(z)^2) / z of the bulk density.

    Cross-checked against the equivalent node sum  sum_r w_r / (z - d_r h);
    disagreement beyond the propagated solver residual is an internal error.
    """
    z = complex(z)
    sol = solve_h(model, z)
    c = model.mean_degree()
    g = (1.0 + c * sol.h ** 2) / z
    g_nodes = complex(np.sum(model.weights / (z - model.degrees * sol.h)))
    tol = max(1e-9 * max(1.0, abs(g)),
              50.0 * c * max(1.0, abs(sol.h)) * max(sol.residual, 1e-16) / abs(z))
    if abs(g - g_nodes) > tol:
        raise InternalConsistencyError(
            f"Stieltjes forms disagree at z={z!r}: {abs(g - g_nodes):.3e}")
    return g


def density_grid(model: DegreeModel, z_min: float, z_max: float, points: int,
                 eta: float | None = None) -> SpectralCurve:
    """Sweep the density over [z_min, z_max] with branch continuity tracking.

    Each grid point warm-starts the solve from its neighbor, which keeps the
    selected branch continuous across the band.  A grid point at exactly 0 is
    nudged by half a step.  Records the band edges from `band_edges`, and the
    trapezoid normalization defect and second moment as diagnostics.
    """
    if not z_min < z_max:
        raise ValueError("need z_min < z_max")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    eta = float(eta) if eta is not None else max(1e-9, (z_max - z_min) / (10.0 * points))
    if eta <= 0:
        raise ValueError("eta must be positive")

    grid = np.linspace(z_min, z_max, int(points))
    half = 0.5 * (grid[1] - grid[0])
    grid[grid == 0.0] += half

    c = model.mean_degree()
    rho = np.empty_like(grid)
    ref = None
    for i, x in enumerate(grid):
        sol = solve_h(model, complex(x, eta), ref=ref)
        ref = sol.h
        val = -(c / (np.pi * x)) * (sol.h ** 2).imag
        if val < DENSITY_FLOOR:
            raise InternalConsistencyError(
                f"density {val:.3e} below clamp floor at z={x!r}")
        rho[i] = max(0.0, val)

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


def _cauchy_real(model: DegreeModel, u: float) -> float:
    d, w = model.degrees, model.weights
    return float(np.sum(w * d / (u - d)))


def _hub_zsq(model: DegreeModel, k_n: float) -> float:
    # z(u)^2 = u^2 G(u) / c at u = k_n
    return float(k_n * k_n / model.mean_degree() * _cauchy_real(model, k_n))


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
    u_c of `hub_critical_degree`; a single atom has the closed form 2 sqrt(c).
    The lower edge is its negative, because h(-z) = -h(z).
    """
    c = model.mean_degree()
    if model.degrees.size == 1:
        e = float(2.0 * np.sqrt(c))
    else:
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
            g = _cauchy_real(model, u) / c
            return u * g - np.sqrt(g) - 1.0

        u_c = hub_critical_degree(model)
        if f(u_c) <= 0.0:
            raise NoDetachedEigenvalueError(
                f"(z-1) h(z) - 1 is non-positive at the band edge "
                f"{band_edges(model)[1]:.6g}")
        hi = 2.0 * u_c
        for _ in range(200):
            if f(hi) <= 0.0:
                break
            hi *= 2.0
        else:
            raise RootNotFoundError("failed to bracket the leading eigenvalue")
        z = float(np.sqrt(_hub_zsq(model, _bisect(f, u_c, hi))))
    sol = solve_h(model, complex(z))
    if abs((z - 1.0) * sol.h - 1.0) > 1e-8 * max(1.0, abs(z)):
        raise InternalConsistencyError(
            f"candidate leading eigenvalue {z!r} fails (z-1) h(z) = 1")
    return float(z)


def leading_eigenvalue_approx(model: DegreeModel) -> float:
    """Moment-ratio approximation <k^2> / <k> to the leading eigenvalue."""
    return model.moment(2) / model.mean_degree()


# --------------------------------------------------------------------------
# hubs
# --------------------------------------------------------------------------

def hub_eigenvalues(model: DegreeModel, k_n: float) -> HubPrediction:
    """Detached eigenvalue pair produced by a hub of expected degree k_n.

    The pair satisfies  z^2 = (k_n^2 / c) sum w d / (k_n - d)  and exists only
    for k_n above the critical degree; below it the prediction reports
    exists=False with the band edge as the top of the spectrum.

    Raises:
        PoleError: k_n does not exceed every degree in the model.
    """
    k_n = float(k_n)
    k_max = model.max_degree
    if k_n <= k_max * (1.0 + 1e-12):
        raise PoleError(
            f"hub degree {k_n!r} must strictly exceed the maximum model degree {k_max!r}")
    k_crit = hub_critical_degree(model)
    if k_n <= k_crit:
        return HubPrediction(k_n=k_n, exists=False, z_plus=None, z_minus=None,
                             k_critical=k_crit, vn_sq=0.0, neighbor_vi_sq_mean=0.0)
    z = float(np.sqrt(_hub_zsq(model, k_n)))
    sol = solve_h(model, complex(z))
    if abs(sol.h - z / k_n) > 1e-8 * max(1.0, abs(sol.h)):
        raise InternalConsistencyError(
            f"hub eigenvalue {z!r} fails h(z) = z / k_n: "
            f"h={sol.h!r} vs {z / k_n!r}")
    vn_sq, neighbor = _hub_localization(model, k_n, z)
    return HubPrediction(k_n=k_n, exists=True, z_plus=z, z_minus=-z,
                         k_critical=k_crit, vn_sq=vn_sq,
                         neighbor_vi_sq_mean=neighbor)


def _hub_localization(model: DegreeModel, k_n: float, z: float) -> tuple[float, float]:
    c = model.mean_degree()
    if model.degrees.size == 1:
        # closed form for a single-degree background
        vn_sq = (0.5 * k_n - c) / (k_n - c)
        neighbor = vn_sq / (k_n - c)
        return float(vn_sq), float(neighbor)
    h = z / k_n
    d, w = model.degrees, model.weights
    q = 1.0 / (z - d * h)
    f_h = float(np.sum(w * d * d * q * q)) / c - 1.0
    f_z = -float(np.sum(w * d * q * q)) / c
    h_prime = f_z / (-f_h)
    vn_sq = 1.0 / (1.0 - k_n * h_prime)
    if not 0.0 <= vn_sq <= 1.0:
        raise InternalConsistencyError(
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
