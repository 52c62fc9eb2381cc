"""The benchmark's workloads: model files, CLI operations and output checks.

Every operation is one call of ``netspectra.cli.run(argv)``.  Its check reads
what the call printed and wrote and returns a list of misses, each measured
against `oracles` (plain numpy) or against the acceptance targets.  Monte
Carlo targets allow the acceptance tolerance plus four standard errors of an
R-replicate mean, so that a correct program passes on every seed.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

DEFAULT_SEED = 20260808   # base seed of the two-degree acceptance histogram
N = 2000                  # sampled network size
REPS = 8                  # replicates per Monte Carlo command
BINS = 100

MODELS = {
    "poisson100": {"atoms": [[100.0, 1.0]]},
    "two_degree": {"atoms": [[50.0, 0.25], [100.0, 0.75]]},
    "three_atom": {"atoms": [[40.0, 0.3], [80.0, 0.5], [160.0, 0.2]]},
    "five_atom": {"atoms": [[30.0, 0.2], [60.0, 0.2], [90.0, 0.2],
                            [120.0, 0.2], [150.0, 0.2]]},
    "uniform64": {"continuous": {"kind": "uniform", "lo": 60.0, "hi": 140.0,
                                 "nodes": 64}},
    "mixture": {"atoms": [[30.0, 0.25]],
                "continuous": {"kind": "uniform", "lo": 80.0, "hi": 120.0,
                               "nodes": 256}},
}
PANEL = list(MODELS)

# Published leading eigenvalues and their stated tolerances.
KNOWN_LEADING = {"poisson100": (101.0, 1e-9), "two_degree": (93.893, 1e-3),
                 "five_atom": (111.1153, 1e-4)}

# Per-replicate standard deviations at n = 2000, measured over 24 replicates
# and rounded up; they size the sampling allowance of the Monte Carlo checks.
SIGMA = {"leading": 0.5, "hub_top_400": 0.6, "hub_top_160": 0.1,
         "hub_vn_sq": 0.025}

# Known failures: the five-atom leading eigenvalue is 111.1153, but the
# program finds no detached root and exits 3.  The call still counts as
# failed; only this exit code leaves `correct` true.
KNOWN_EXIT = {"leading five_atom": 3}

DENSITY_WINDOW = (-25.0, 25.0)
SWEEP_STEPS = 30


@dataclass
class Op:
    """One CLI invocation and the check of its outputs."""

    label: str
    command: str
    argv: list[str]
    outdir: Path
    check: Callable[[str, Path], list[str]]
    expect: int = 0
    networks: int = 0     # sampled networks solved at n = N
    known_exit: int | None = None   # a documented wrong exit code


@dataclass
class Workload:
    name: str
    models: list[str]
    warmup: Callable[[Path, Path], list[str]]
    build: Callable[["Context", Path], list[Op]]

    def oracle(self) -> dict:
        """Expected values the checks need, computed once per run."""
        return {"leading": {m: oracles.leading_root(MODELS[m])
                            for m in self.models},
                "critical": {m: oracles.hub_critical(MODELS[m])
                             for m in self.models}}


@dataclass
class Context:
    seed: int
    models_dir: Path
    oracle: dict

    def model(self, name: str) -> str:
        return str(self.models_dir / f"{name}.json")

    def seed_for(self, acceptance_seed: int) -> int:
        """Command seed: the acceptance seed, shifted by the workload seed."""
        return (acceptance_seed + self.seed - DEFAULT_SEED) % 2 ** 32


def write_models(names: list[str], models_dir: Path) -> None:
    models_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        (models_dir / f"{name}.json").write_text(json.dumps(MODELS[name]),
                                                 encoding="utf-8")


# ---------------------------------------------------------------- helpers

def _number(pattern: str, text: str) -> float | None:
    m = re.search(pattern + r"\s*([-+0-9.eEinfa]+)", text)
    return float(m.group(1)) if m else None


def _close(label: str, got: float | None, want: float, tol: float) -> list[str]:
    if got is None:
        return [f"{label}: value missing from output"]
    if not abs(got - want) <= tol:
        return [f"{label}: {float(got)!r} vs {float(want)!r} "
                f"(tolerance {tol:.3g})"]
    return []


def _rel(label: str, got: float | None, want: float, rtol: float) -> list[str]:
    return _close(label, got, want, rtol * abs(want))


def _files(outdir: Path, names: list[str]) -> list[str]:
    return [f"missing output {n}" for n in names
            if not (outdir / n).is_file() or (outdir / n).stat().st_size == 0]


def _replay_op(label: str, manifest: Path, original: Path, names: list[str],
               outdir: Path, networks: int = 0) -> Op:
    def check(stdout: str, out: Path) -> list[str]:
        misses = _files(out, names)
        return misses or [f"replayed {n} differs" for n in names
                          if (out / n).read_bytes() != (original / n).read_bytes()]
    return Op(label, "replay", ["replay", str(manifest), "--outdir", str(outdir)],
              outdir, check, networks=networks)


# ---------------------------------------------------------- analytic_panel

def _density_check(name: str):
    spec = MODELS[name]
    c = oracles.mean_degree(spec)

    def check(stdout: str, out: Path) -> list[str]:
        misses = _files(out, ["curve.csv", "curve.svg", "curve.csv.manifest.json"])
        if misses:
            return misses
        z, rho = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1,
                            unpack=True)
        misses += _close("normalization", float(np.trapezoid(rho, z)), 1.0, 5e-3)
        misses += _rel("second moment", float(np.trapezoid(rho * z * z, z)), c,
                       0.02)
        if len(spec.get("atoms", [])) == 1 and "continuous" not in spec:
            worst = float(np.abs(rho - oracles.semicircle(z, c)).max())
            misses += _close("max |rho - semicircle|", worst, 0.0, 1e-3)
        return misses
    return check


def _leading_check(name: str, oracle: dict, n_reps: int = 0):
    root = oracle["leading"][name]

    def check(stdout: str, out: Path) -> list[str]:
        misses = _rel("leading eigenvalue",
                      _number(r"exact leading eigenvalue:", stdout), root, 1e-8)
        if name in KNOWN_LEADING:
            value, tol = KNOWN_LEADING[name]
            misses += _close("oracle leading vs published", root, value, tol)
        if n_reps:
            tol = 0.15 + 4.0 * SIGMA["leading"] / np.sqrt(n_reps)
            misses += _close("ensemble leading mean",
                             _number(r"ensemble mean \(n=\d+, reps=\d+\):", stdout),
                             93.893, tol)
        return misses
    return check


def _sweep_check(name: str, oracle: dict):
    spec = MODELS[name]
    k_c, edge = oracle["critical"][name]

    def check(stdout: str, out: Path) -> list[str]:
        misses = _files(out, ["sweep.csv", "sweep.csv.manifest.json"])
        if misses:
            return misses
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != "kn,z_plus,band_edge" or len(lines) != SWEEP_STEPS + 1:
            return [f"sweep.csv has header {lines[0]!r} and {len(lines) - 1} rows"]
        for row in lines[1:]:
            kn, z_plus, band = row.split(",")
            kn = float(kn)
            misses += _rel(f"band edge at kn={kn:g}", float(band), edge, 1e-8)
            if abs(kn - k_c) < 1e-6 * k_c:
                continue
            if kn < k_c and z_plus:
                misses.append(f"kn={kn:g} below k_c={k_c:g} has z_plus {z_plus}")
            elif kn > k_c:
                want = float(np.sqrt(oracles.hub_zsq(spec, kn)))
                misses += _rel(f"z_plus at kn={kn:g}",
                               float(z_plus) if z_plus else None, want, 1e-9)
        return misses
    return check


def sweep_range(name: str) -> str:
    """From just above the largest degree to four times it."""
    k_max = oracles.max_degree(MODELS[name])
    return f"{1.01 * k_max!r}:{4.0 * k_max!r}:{SWEEP_STEPS}"


def _analytic_ops(ctx: Context, pass_dir: Path) -> list[Op]:
    ops = []
    zmin, zmax = DENSITY_WINDOW
    for name in PANEL:
        out = pass_dir / f"density-{name}"
        ops.append(Op(f"density {name}", "density",
                      ["density", ctx.model(name), "--zmin", repr(zmin),
                       "--zmax", repr(zmax), "--points", "2001", "--eta", "1e-6",
                       "--out", str(out / "curve.csv"),
                       "--svg", str(out / "curve.svg")],
                      out, _density_check(name)))
        ops.append(Op(f"leading {name}", "leading", ["leading", ctx.model(name)],
                      pass_dir / f"leading-{name}",
                      _leading_check(name, ctx.oracle),
                      known_exit=KNOWN_EXIT.get(f"leading {name}")))
        out = pass_dir / f"hub-{name}"
        ops.append(Op(f"hub --sweep {name}", "hub",
                      ["hub", ctx.model(name), "--sweep", sweep_range(name),
                       "--out", str(out / "sweep.csv")],
                      out, _sweep_check(name, ctx.oracle)))
    original = pass_dir / "density-poisson100"
    ops.append(_replay_op("replay density poisson100",
                          original / "curve.csv.manifest.json", original,
                          ["curve.csv", "curve.svg"], pass_dir / "replay"))
    return ops


def _analytic_warmup(models_dir: Path, out: Path) -> list[str]:
    return ["density", str(models_dir / "poisson100.json"), "--zmin", "-25",
            "--zmax", "25", "--points", "101", "--eta", "1e-6",
            "--out", str(out / "warmup.csv")]


# -------------------------------------------------------- mc_full_spectrum

def _empirical_check(stdout: str, out: Path) -> list[str]:
    names = ["hist.csv", "eigs.csv", "eigs.csv.manifest.json",
             "hist.csv.manifest.json"]
    misses = _files(out, names)
    if misses:
        return misses
    lo, hi, dens = np.loadtxt(out / "hist.csv", delimiter=",", skiprows=1,
                              unpack=True)
    eigs = np.loadtxt(out / "eigs.csv", skiprows=1)
    width = hi[0] - lo[0]
    misses += _close("printed L1", _number(r"L1 distance to analytic curve =",
                                           stdout), 0.0, 0.05)
    if eigs.size != N * REPS:
        misses.append(f"eigenvalue dump has {eigs.size} rows, want {N * REPS}")
    if dens.size != BINS:
        return misses + [f"histogram has {dens.size} bins, want {BINS}"]
    misses += _close("histogram mass", float(dens.sum() * width), 1.0, 1e-9)
    counts, _ = np.histogram(eigs, bins=np.append(lo, hi[-1]))
    misses += _close("histogram vs dump", float(np.abs(
        counts / (counts.sum() * width) - dens).max()), 0.0, 1e-9)
    rho = oracles.atomic_density(MODELS["two_degree"], 0.5 * (lo + hi), eta=1e-6)
    misses += _close("oracle L1", float(np.sum(np.abs(dens - rho)) * width),
                     0.0, 0.05)
    return misses


def _full_ops(ctx: Context, pass_dir: Path) -> list[Op]:
    out = pass_dir / "empirical"
    seed = ctx.seed_for(20260808)
    op = Op("empirical two_degree", "empirical",
            ["empirical", ctx.model("two_degree"), "--n", str(N),
             "--reps", str(REPS), "--bins", str(BINS), "--seed", str(seed),
             "--kind", "modularity", "--out", str(out / "hist.csv"),
             "--dump", str(out / "eigs.csv")],
            out, _empirical_check, networks=REPS)
    return [op, _replay_op("replay empirical two_degree",
                           out / "hist.csv.manifest.json", out,
                           ["hist.csv", "eigs.csv", "eigs.csv.manifest.json"],
                           pass_dir / "replay", networks=REPS)]


def _mc_warmup(models_dir: Path, out: Path) -> list[str]:
    return ["hub", str(models_dir / "poisson100.json"), "--kn", "400",
            "--empirical", "--n", "200", "--reps", "1"]


# ------------------------------------------------------------ mc_top_eigen

def _hub_check(kn: float, oracle: dict, n_reps: int):
    spec = MODELS["poisson100"]
    k_c, edge = oracle["critical"]["poisson100"]

    def check(stdout: str, out: Path) -> list[str]:
        mean = _number(r"ensemble top modularity eigenvalue:", stdout)
        if kn > k_c:
            z = float(np.sqrt(oracles.hub_zsq(spec, kn)))
            misses = _rel("z_plus", _number(r"z_plus  =", stdout), z, 1e-8)
            misses += _close("ensemble top mean", mean, z, 0.02 * z + 4.0
                             * SIGMA["hub_top_400"] / np.sqrt(n_reps))
            misses += _close("measured vn_sq",
                             _number(r"measured vn_sq =", stdout), 1.0 / 3.0,
                             0.05 / 3.0 + 4.0 * SIGMA["hub_vn_sq"] / np.sqrt(n_reps))
            return misses
        misses = _rel("band edge", _number(r"\(band edge", stdout), edge, 1e-5)
        return misses + _close("ensemble top mean", mean, edge, 0.02 * edge + 4.0
                               * SIGMA["hub_top_160"] / np.sqrt(n_reps))
    return check


def _top_ops(ctx: Context, pass_dir: Path) -> list[Op]:
    ops = []
    for kn, expect, networks in ((400, 0, 2 * REPS), (160, 3, REPS)):
        ops.append(Op(f"hub --kn {kn} --empirical poisson100", "hub",
                      ["hub", ctx.model("poisson100"), "--kn", str(kn),
                       "--empirical", "--n", str(N), "--reps", str(REPS),
                       "--seed", str(ctx.seed_for(9000 + kn))],
                      pass_dir / f"hub-{kn}", _hub_check(float(kn), ctx.oracle, REPS),
                      expect=expect, networks=networks))
    ops.append(Op("leading --empirical two_degree", "leading",
                  ["leading", ctx.model("two_degree"), "--empirical",
                   "--n", str(N), "--reps", str(REPS),
                   "--seed", str(ctx.seed_for(31415))],
                  pass_dir / "leading", _leading_check("two_degree", ctx.oracle,
                                                       REPS),
                  networks=REPS))
    return ops


WORKLOADS = {
    "analytic_panel": Workload("analytic_panel", PANEL, _analytic_warmup,
                               _analytic_ops),
    "mc_full_spectrum": Workload("mc_full_spectrum", ["poisson100", "two_degree"],
                                 _mc_warmup, _full_ops),
    "mc_top_eigen": Workload("mc_top_eigen", ["poisson100", "two_degree"],
                             _mc_warmup, _top_ops),
}

