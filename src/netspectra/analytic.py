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
    band: tuple[float, float] | None
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
                 eta: float | None = None,
                 compute_band: bool | None = None) -> SpectralCurve:
    """Sweep the density over [z_min, z_max] with branch continuity tracking.

    Each grid point warm-starts the solve from its neighbor, which keeps the
    selected branch continuous across the band.  A grid point at exactly 0 is
    nudged by half a step.  Records the trapezoid normalization defect and
    second moment as diagnostics.
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

    band = None
    if compute_band or (compute_band is None and model.degrees.size <= MAX_POLY_ATOMS):
        band = band_edges(model)
    norm_defect = abs(float(np.trapezoid(rho, grid)) - 1.0)
    second = float(np.trapezoid(rho * grid * grid, grid))
    return SpectralCurve(z=grid, rho=rho, eta=eta, band=band,
                         norm_defect=norm_defect, second_moment=second)


# --------------------------------------------------------------------------
# band edges
# --------------------------------------------------------------------------

def _has_complex_pair(model: DegreeModel, x: float) -> bool:
    roots = np.roots(_h_poly_coeffs(model, complex(x)))
    return bool(np.any(np.abs(roots.imag) > 1e-9 * (1.0 + np.abs(roots))))


def _edge_system_newton(model: DegreeModel, h0: float, z0: float) -> tuple[float, float]:
    """Refine a band edge as the simultaneous solution of f = 0, df/dh = 0.

    f(h, z) = (1/c) sum w d / (z - d h) - h vanishes along the branch and its
    h-derivative vanishes exactly where the complex pair is born.
    """
    d, w = model.degrees, model.weights
    c = model.mean_degree()
    h, zz = float(h0), float(z0)
    for _ in range(200):
        q = 1.0 / (zz - d * h)
        f = float(np.sum(w * d * q)) / c - h
        fh = float(np.sum(w * d * d * q * q)) / c - 1.0
        fz = -float(np.sum(w * d * q * q)) / c
        fhh = 2.0 * float(np.sum(w * d ** 3 * q ** 3)) / c
        fhz = -2.0 * float(np.sum(w * d * d * q ** 3)) / c
        # 2x2 Newton step on (f, fh):
        #   [fh  fz ] [dh]   [f ]
        #   [fhh fhz] [dz] = [fh]
        det = fh * fhz - fz * fhh
        if det == 0.0:
            break
        dh = (f * fhz - fz * fh) / det
        dz = (fh * fh - fhh * f) / det
        h -= dh
        zz -= dz
        if abs(f) < 1e-14 and abs(fh) < 1e-14:
            break
    q = 1.0 / (zz - d * h)
    f = float(np.sum(w * d * q)) / c - h
    fh = float(np.sum(w * d * d * q * q)) / c - 1.0
    if not (abs(f) < 1e-9 and abs(fh) < 1e-7):
        raise RootNotFoundError("edge refinement did not converge")
    return h, zz


@lru_cache(maxsize=128)  # models are immutable; keyed by identity
def band_edges(model: DegreeModel) -> tuple[float, float]:
    """Locate the outermost edges of the continuous spectral band.

    Inside the band the equation's solution is complex, outside it is real;
    the edges are where the complex pair disappears.  Degree-node models up
    to the polynomial cutoff are bisected on that indicator; larger models
    refine a coarse scan with a Newton solve of the edge conditions.
    """
    c = model.mean_degree()
    if model.degrees.size == 1:
        e = float(2.0 * np.sqrt(c))
        return (-e, e)
    span = 10.0 * np.sqrt(model.moment(2))
    if model.degrees.size <= MAX_POLY_ATOMS:
        grid = np.linspace(-span, span, 4001)
        flags = np.fromiter((_has_complex_pair(model, x) for x in grid),
                            dtype=bool, count=grid.size)
        idx = np.flatnonzero(flags)
        if idx.size == 0 or idx[0] == 0 or idx[-1] == grid.size - 1:
            raise RootNotFoundError(
                f"band indicator found no clean bracket within [-{span:g}, {span:g}]")
        edges = []
        for inner, outer in ((grid[idx[0]], grid[idx[0] - 1]),
                             (grid[idx[-1]], grid[idx[-1] + 1])):
            a, b = inner, outer  # a inside (complex), b outside (real)
            for _ in range(60):
                m = 0.5 * (a + b)
                if _has_complex_pair(model, m):
                    a = m
                else:
                    b = m
            edges.append(float(0.5 * (a + b)))
        return (min(edges), max(edges))

    # large node sets: coarse scan of Im h, then Newton on the edge system
    eta = 1e-6 * span
    grid = np.linspace(-span, span, 1201)
    ims = np.empty_like(grid)
    hs = np.empty(grid.size, dtype=complex)
    ref = None
    for i, x in enumerate(grid):
        sol = solve_h(model, complex(x, eta), ref=ref)
        ref = sol.h
        hs[i] = sol.h
        ims[i] = abs(sol.h.imag)
    cutoff = 1e-3 * ims.max()
    idx = np.flatnonzero(ims > cutoff)
    if idx.size == 0 or idx[0] == 0 or idx[-1] == grid.size - 1:
        raise RootNotFoundError(
            f"band indicator found no clean bracket within [-{span:g}, {span:g}]")
    out = []
    for i_in, i_out in ((idx[0], idx[0] - 1), (idx[-1], idx[-1] + 1)):
        _, edge = _edge_system_newton(model, hs[i_out].real, grid[i_out])
        lo, hi = sorted((grid[i_in], grid[i_out]))
        width = hi - lo
        if not (lo - width <= edge <= hi + width):
            raise RootNotFoundError("edge refinement escaped its bracket")
        out.append(float(edge))
    return (min(out), max(out))


# --------------------------------------------------------------------------
# detached eigenvalues
# --------------------------------------------------------------------------

def leading_eigenvalue(model: DegreeModel) -> float:
    """Largest adjacency eigenvalue: the real z above the band with (z-1) h(z) = 1.

    For degree-node models within the polynomial cutoff, h = 1/(z-1) is
    substituted into the self-consistency equation and the resulting
    polynomial in z is solved exactly; otherwise the scalar equation is
    bracketed and bisected above the upper band edge.

    Raises:
        NoDetachedEigenvalueError: every real root lies inside the band.
    """
    z_up = band_edges(model)[1]
    if model.degrees.size <= MAX_POLY_ATOMS:
        z = _leading_poly(model, z_up)
    else:
        z = _leading_bisect(model, z_up)
    sol = solve_h(model, complex(z))
    if abs((z - 1.0) * sol.h - 1.0) > 1e-8 * max(1.0, abs(z)):
        raise InternalConsistencyError(
            f"candidate leading eigenvalue {z!r} fails (z-1) h(z) = 1")
    return float(z)


def _leading_poly(model: DegreeModel, z_up: float) -> float:
    # c prod_s (u - d_s) = sum_r w_r d_r (z-1)^2 prod_{s!=r} (u - d_s),  u = z^2 - z
    d, w = model.degrees, model.weights
    c = model.mean_degree()
    u = np.array([0.0, -1.0, 1.0])  # ascending: z^2 - z
    lhs = np.array([c])
    for ds in d:
        lhs = np.convolve(lhs, u + np.array([-ds, 0.0, 0.0]))
    rhs = np.zeros(1)
    zm1sq = np.array([1.0, -2.0, 1.0])  # ascending (z-1)^2
    for r, (dr, wr) in enumerate(zip(d, w)):
        term = np.array([wr * dr])
        term = np.convolve(term, zm1sq)
        for s, ds in enumerate(d):
            if s != r:
                term = np.convolve(term, u + np.array([-ds, 0.0, 0.0]))
        n = max(len(rhs), len(term))
        rhs = np.pad(rhs, (0, n - len(rhs))) + np.pad(term, (0, n - len(term)))
    n = max(len(lhs), len(rhs))
    poly = np.pad(lhs, (0, n - len(lhs))) - np.pad(rhs, (0, n - len(rhs)))
    # descending, without z^{2L}: that coefficient cancels exactly because
    # c = sum_r w_r d_r.  The next one is c itself, which can sit many decades
    # below the largest coefficient, so no relative cut may drop it.
    poly = poly[::-1][1:]
    roots = np.roots(poly)
    real = np.sort(roots.real[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots))])
    sep = 1e-12 * max(1.0, abs(z_up))
    detached = real[real > z_up + sep]
    if detached.size == 0:
        raise NoDetachedEigenvalueError(
            f"no real root above the band edge {z_up:.6g}")
    return float(detached[-1])


def _leading_bisect(model: DegreeModel, z_up: float) -> float:
    scale = model.moment(2) / model.mean_degree()
    phi_ref = [None]

    def phi(x: float) -> float:
        sol = solve_h(model, complex(x), ref=phi_ref[0])
        phi_ref[0] = sol.h
        return float(((x - 1.0) * sol.h - 1.0).real)

    lo = z_up + 1e-6 * max(1.0, z_up)
    if phi(lo) <= 0.0:
        raise NoDetachedEigenvalueError(
            f"(z-1) h(z) - 1 is non-positive just above the band edge {z_up:.6g}")
    hi = max(2.0 * scale, lo * 2.0)
    tries = 0
    while phi(hi) > 0.0:
        hi *= 2.0
        tries += 1
        if tries > 60:
            raise RootNotFoundError("failed to bracket the leading eigenvalue")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def leading_eigenvalue_approx(model: DegreeModel) -> float:
    """Moment-ratio approximation <k^2> / <k> to the leading eigenvalue."""
    return model.moment(2) / model.mean_degree()


# --------------------------------------------------------------------------
# hubs
# --------------------------------------------------------------------------

def _hub_zsq(model: DegreeModel, k_n: float) -> float:
    d, w = model.degrees, model.weights
    return float(k_n * k_n / model.mean_degree() * np.sum(w * d / (k_n - d)))


def hub_critical_degree(model: DegreeModel) -> float:
    """Smallest hub degree that detaches eigenvalues from the band.

    Solves  sum w d / (k - d) = sum w d^2 / (k - d)^2  by bisection on
    (k_max, 1e6 k_max]; the left side dominates for large k and the right
    side diverges faster at k_max, so the sign change is unique for the
    degree families exercised here.
    """
    d, w = model.degrees, model.weights
    k_max = model.max_degree

    def psi(k: float) -> float:
        return float(np.sum(w * d / (k - d)) - np.sum(w * d * d / (k - d) ** 2))

    lo = k_max * (1.0 + 1e-12) + 1e-12
    hi = 2.0 * k_max
    cap = 1e6 * k_max
    while psi(hi) <= 0.0:
        hi *= 2.0
        if hi > cap:
            raise RootNotFoundError(
                f"no critical hub degree found below {cap:.3g}")
    # psi(lo) may underflow its -inf limit; step lo up until it is finite
    while not np.isfinite(psi(lo)):
        lo = 0.5 * (lo + hi)
    if psi(lo) > 0.0:
        # transition is between k_max and lo within roundoff of the pole
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


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
