"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with -s or in captured output) after
its assertions hold.  Protocol sizes follow the desk-scale settings in the
project contract; base seeds are fixed and documented inline.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from netspectra import (
    DegreeModel,
    band_edges,
    density_grid,
    empirical_density,
    ensemble_hub_localization,
    ensemble_hub_top,
    ensemble_leading,
    hub_critical_degree,
    hub_eigenvalues,
    l1_distance,
    leading_eigenvalue,
    leading_eigenvalue_approx,
    dense_symmetric_eigen,
    densify_modularity,
    replicate_seed,
    sample_network,
    solve_h,
)
from netspectra.cli import EXIT_OK, run
from oracles import jacobi_eigenvalues, poisson_bulk_density

POISSON = DegreeModel.poisson(100.0)
TWO_DEGREE = DegreeModel.from_atoms([(50.0, 0.25), (100.0, 0.75)])


def random_bounded_model(rng: np.random.Generator) -> DegreeModel:
    """<= 5 atoms, mean degree drawn uniformly in [50, 200]."""
    n_atoms = int(rng.integers(1, 6))
    shape = np.sort(rng.uniform(0.5, 2.0, size=n_atoms)) + 1e-3 * np.arange(n_atoms)
    weights = rng.uniform(0.2, 1.0, size=n_atoms)
    weights /= weights.sum()
    target_c = rng.uniform(50.0, 200.0)
    degrees = shape * (target_c / float(np.dot(weights, shape)))
    return DegreeModel.from_atoms(list(zip(degrees, weights)))


def test_acceptance_1_semicircle_recovery():
    t0 = time.perf_counter()
    curve = density_grid(POISSON, -25.0, 25.0, 2001, eta=1e-6)
    worst = max(abs(rho - poisson_bulk_density(float(z), 100.0))
                for z, rho in zip(curve.z, curve.rho))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-3
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: semicircle recovery, max |drho| = {worst:.2e} "
          f"(< 1e-3), runtime {elapsed:.2f}s (< 5s)")


def test_acceptance_2_two_degree_histogram():
    t0 = time.perf_counter()
    hist = empirical_density(TWO_DEGREE, n=2000, replicates=25, bins=100,
                             base_seed=20260808, kind="modularity")
    l1 = l1_distance(hist, TWO_DEGREE, eta=1e-6)
    elapsed = time.perf_counter() - t0
    assert l1 < 0.05
    assert elapsed < 15 * 60
    print(f"\nACCEPTANCE 2 PASS: two-degree histogram vs analytic curve, "
          f"L1 = {l1:.4f} (< 0.05), runtime {elapsed:.0f}s (< 900s)")


def test_acceptance_3_leading_eigenvalue():
    exact = leading_eigenvalue(TWO_DEGREE)
    approx = leading_eigenvalue_approx(TWO_DEGREE)
    assert exact == pytest.approx(93.893, abs=1e-3)
    assert approx == pytest.approx(92.857, abs=1e-3)
    assert leading_eigenvalue(POISSON) == 101.0
    mean, stderr = ensemble_leading(TWO_DEGREE, n=2000, replicates=25,
                                    base_seed=31415, kind="adjacency")
    assert abs(mean - 93.893) < 0.15
    print(f"\nACCEPTANCE 3 PASS: leading exact {exact:.4f} (93.893 +/- 1e-3), "
          f"approx {approx:.4f} (92.857 +/- 1e-3), Poisson exact 101 exactly, "
          f"ensemble {mean:.4f} +/- {stderr:.4f} (|diff| "
          f"{abs(mean - 93.893):.3f} < 0.15)")


def test_acceptance_4_hub_transition():
    k_crit = hub_critical_degree(POISSON)
    assert k_crit == pytest.approx(200.0, abs=1e-6)
    # prediction formula above the transition
    for kn in (210.0, 250.0, 300.0, 400.0, 800.0):
        pred = hub_eigenvalues(POISSON, kn)
        assert pred.exists
        assert pred.z_plus == pytest.approx(kn / np.sqrt(kn - 100.0), rel=1e-9)
    lines = [f"k_critical = {k_crit:.9f} (200 +/- 1e-6)"]
    for kn in (250.0, 300.0, 400.0):
        target = kn / np.sqrt(kn - 100.0)
        mean, stderr = ensemble_hub_top(POISSON, kn, n=2000, replicates=50,
                                        base_seed=int(9000 + kn))
        rel = abs(mean - target) / target
        assert rel < 0.02
        lines.append(f"kn={kn:.0f}: top {mean:.3f} vs {target:.3f} "
                     f"({100 * rel:.2f}% < 2%)")
    edge = 2.0 * np.sqrt(100.0)
    for kn in (120.0, 160.0):
        mean, stderr = ensemble_hub_top(POISSON, kn, n=2000, replicates=50,
                                        base_seed=int(9000 + kn))
        rel = abs(mean - edge) / edge
        assert rel < 0.02
        lines.append(f"kn={kn:.0f}: top {mean:.3f} vs band edge {edge:.1f} "
                     f"({100 * rel:.2f}% < 2%)")
    print("\nACCEPTANCE 4 PASS: hub transition; " + "; ".join(lines))


def test_acceptance_5_hub_localization():
    vn_sq, neighbor, bulk = ensemble_hub_localization(
        POISSON, 400.0, n=2000, replicates=50, base_seed=271828)
    assert abs(vn_sq - 1.0 / 3.0) / (1.0 / 3.0) < 0.05
    assert abs(neighbor - 1.0 / 900.0) / (1.0 / 900.0) < 0.10
    assert bulk < 10.0 / 2001.0
    print(f"\nACCEPTANCE 5 PASS: localization vn_sq {vn_sq:.4f} "
          f"(1/3 +/- 5%), neighbor {neighbor:.3e} (1/900 +/- 10%), "
          f"bulk {bulk:.2e} (< 10/n)")


def test_acceptance_6_moment_and_composition_suite():
    rng = np.random.default_rng(60606)
    worst_comp = 0.0
    for _ in range(20):
        model = random_bounded_model(rng)
        c = model.mean_degree()
        lo, hi = band_edges(model)
        curve = density_grid(model, lo - 2.0, hi + 2.0, 1501, eta=1e-6)
        assert curve.norm_defect < 5e-3
        first = float(np.trapezoid(curve.rho * curve.z, curve.z))
        assert abs(first) < 5e-3 * np.sqrt(c)
        assert curve.second_moment == pytest.approx(c, rel=0.02)
        scale = max(abs(lo), abs(hi))
        for _ in range(100):
            z = complex(rng.uniform(-2 * scale, 2 * scale),
                        10 ** rng.uniform(-6, 0))
            h = solve_h(model, z).h
            resid = abs(c * h * h - model.cauchy_transform(z / h))
            worst_comp = max(worst_comp, resid)
            assert resid < 1e-9
    print(f"\nACCEPTANCE 6 PASS: 20 random models, norm/first/second moment "
          f"within tolerance, worst composition residual {worst_comp:.2e} "
          f"(< 1e-9)")


def test_acceptance_7_interleaving_oracle():
    models = [POISSON, TWO_DEGREE,
              DegreeModel.from_atoms([(40.0, 0.3), (80.0, 0.5), (160.0, 0.2)]),
              DegreeModel.uniform(60.0, 140.0, nodes=64),
              DegreeModel.from_atoms([(30.0, 0.2), (60.0, 0.2), (90.0, 0.2),
                                      (120.0, 0.2), (150.0, 0.2)])]
    for idx in range(50):
        model = models[idx % len(models)]
        seq = model.sample_degrees(300, seed=replicate_seed(70707, idx))
        net = sample_network(seq, seed=replicate_seed(80808, idx))
        lam = dense_symmetric_eigen(net.adjacency_dense()).eigenvalues[::-1]
        beta = dense_symmetric_eigen(
            densify_modularity(net.modularity_view())).eigenvalues[::-1]
        assert np.all(lam + 1e-9 >= beta)
        assert np.all(beta[:-1] + 1e-9 >= lam[1:])
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(3):
        m = rng.standard_normal((50, 50))
        m = m + m.T
        fast = dense_symmetric_eigen(m).eigenvalues
        worst = max(worst, float(np.abs(fast - jacobi_eigenvalues(m)).max()))
    assert worst < 1e-8
    print(f"\nACCEPTANCE 7 PASS: interleaving holds for 50 networks (n=300); "
          f"eigensolver vs Jacobi oracle max diff {worst:.2e} (< 1e-8)")


def test_acceptance_8_manifest_replay(tmp_path):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps({"atoms": [[50.0, 0.25], [100.0, 0.75]]}))
    poisson_file = tmp_path / "poisson.json"
    poisson_file.write_text(json.dumps({"atoms": [[100.0, 1.0]]}))

    runs = [
        (["density", str(model_file), "--zmin", "-25", "--zmax", "25",
          "--points", "401", "--eta", "1e-6",
          "--out", str(tmp_path / "curve.csv"),
          "--svg", str(tmp_path / "curve.svg")],
         tmp_path / "curve.csv.manifest.json", ["curve.csv", "curve.svg"]),
        (["empirical", str(poisson_file), "--n", "300", "--reps", "3",
          "--bins", "50", "--seed", "77", "--out", str(tmp_path / "hist.csv"),
          "--dump", str(tmp_path / "eigs.csv")],
         tmp_path / "hist.csv.manifest.json",
         ["hist.csv", "eigs.csv", "eigs.csv.manifest.json"]),
        (["hub", str(poisson_file), "--sweep", "110:400:10",
          "--out", str(tmp_path / "sweep.csv")],
         tmp_path / "sweep.csv.manifest.json", ["sweep.csv"]),
    ]
    for argv, manifest_path, outputs in runs:
        assert run(argv) == EXIT_OK
        replay_dir = tmp_path / ("replay_" + outputs[0].split(".")[0])
        assert run(["replay", str(manifest_path),
                    "--outdir", str(replay_dir)]) == EXIT_OK
        for name in outputs + [manifest_path.name]:
            assert (replay_dir / name).read_bytes() == \
                (tmp_path / name).read_bytes(), f"{name} differs under replay"
    print("\nACCEPTANCE 8 PASS: density, empirical and hub-sweep manifests "
          "replay byte-identically (CSV, SVG and run manifest)")
