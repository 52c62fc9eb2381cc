from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from netspectra import (DegreeModel, analytic, band_edges, empirical_density,
                        ensemble_hub_localization, ensemble_hub_top,
                        hub_eigenvalues, l1_distance)
from netspectra.cli import (EXIT_ABSENT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                            RunManifest, run)
from netspectra.sampler import DENSE_CAP


@pytest.fixture()
def poisson_file(tmp_path):
    p = tmp_path / "poisson100.json"
    p.write_text(json.dumps({"atoms": [[100.0, 1.0]]}))
    return p


@pytest.fixture()
def two_degree_file(tmp_path):
    p = tmp_path / "two_degree.json"
    p.write_text(json.dumps({"atoms": [[50.0, 0.25], [100.0, 0.75]]}))
    return p


def test_density_writes_csv_and_manifest(tmp_path, poisson_file, capsys):
    out = tmp_path / "curve.csv"
    code = run(["density", str(poisson_file), "--zmin", "-25", "--zmax", "25",
                "--points", "301", "--eta", "1e-6", "--out", str(out),
                "--svg", str(tmp_path / "curve.svg")])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "z,rho"
    assert len(lines) == 302
    z, rho = (float(p) for p in lines[150].split(","))
    assert abs(z) < 0.2  # mid-grid near zero
    assert rho == pytest.approx(1.0 / (10.0 * np.pi), rel=1e-2)
    captured = capsys.readouterr().out
    assert "norm_defect" in captured
    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["command"] == "density"
    assert manifest["params"]["points"] == 301
    assert (tmp_path / "curve.svg").exists()


def test_density_rerun_is_byte_identical(tmp_path, two_degree_file):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert run(["density", str(two_degree_file), "--zmin", "-25",
                    "--zmax", "25", "--points", "201", "--out", str(out)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["params"]["eta"] is not None
    assert manifest["params"]["eta"] == max(1e-9, 50 / (10 * 201))


def test_density_usage_errors(tmp_path, poisson_file):
    assert run(["density", str(poisson_file), "--zmin", "-1", "--zmax", "1",
                "--points", "1", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert run(["density", str(poisson_file), "--zmin", "2", "--zmax", "1",
                "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE


@pytest.mark.parametrize("zmin, value", [("-1e1", -10.0), ("-1.5e-3", -1.5e-3),
                                         ("-.5", -0.5), ("-2.E+0", -2.0)])
def test_negative_number_in_any_form_is_a_value(tmp_path, two_degree_file,
                                                zmin, value):
    # argparse used to take -1e1 for an option: "expected one argument"
    out = tmp_path / "neg.csv"
    assert run(["density", str(two_degree_file), "--zmin", zmin, "--zmax",
                "1e1", "--points", "11", "--out", str(out)]) == EXIT_OK
    assert float(out.read_text().splitlines()[1].split(",")[0]) == value
    manifest = json.loads((tmp_path / "neg.csv.manifest.json").read_text())
    assert manifest["params"]["zmin"] == value


def test_density_nan_eta_is_usage_error(tmp_path, two_degree_file, capsys):
    # a NaN eta used to hang the homotopy solve
    out = tmp_path / "c.csv"
    assert run(["density", str(two_degree_file), "--zmin", "-25", "--zmax", "25",
                "--points", "11", "--eta", "nan", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: eta must be positive\n")
    assert [p.name for p in tmp_path.iterdir()] == [two_degree_file.name]


def test_density_huge_eta_returns(tmp_path, two_degree_file, src_env):
    # eta = 1e308 used to start the homotopy at Im z = inf, which it never
    # left; the subprocess timeout turns a hang into a failure
    out = tmp_path / "c.csv"
    done = subprocess.run(
        [sys.executable, "-m", "netspectra.cli", "density",
         str(two_degree_file), "--zmin", "-25", "--zmax", "25", "--points",
         "11", "--eta", "1e308", "--out", str(out)],
        env=src_env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    # far above the band g(z) = 1/z, so rho = 1 / (pi eta)
    rho = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert rho == pytest.approx([1.0 / (np.pi * 1e308)] * 11, rel=1e-12)


@pytest.mark.parametrize("command, message", [
    (["density", "--zmin", "-25", "--zmax", "25", "--points", "11",
      "--eta", "inf", "--out", "c.csv"], "eta must be finite"),
    (["hub", "--kn", "1e160"], "hub degree 1e+160 is too large"),
    (["hub", "--kn", "1e160", "--empirical", "--n", "100", "--reps", "1"],
     "hub degree 1e+160 is too large"),
    (["hub", "--sweep", "110:1e160:3", "--out", "s.csv"],
     "hub degree 5e+159 is too large"),
], ids=["eta-inf", "kn-overflow", "kn-overflow-empirical", "sweep-overflow"])
def test_overflowing_argument_is_named(tmp_path, two_degree_file, capsys,
                                       monkeypatch, command, message):
    # these used to report only the non-finite point z they led to
    monkeypatch.chdir(tmp_path)
    assert run([command[0], str(two_degree_file), *command[1:]]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == [two_degree_file.name]


# models with a degree whose square overflows: the first would start the
# homotopy at Im z = 10 sqrt(<d^2>) = inf and never reach its goal, the
# second would square its critical degree 2e300 into band = (-inf, inf)
_OVERLARGE = [({"atoms": [[1e200, 0.5], [1.0, 0.5]]}, "1e+200"),
              ({"atoms": [[1e300, 1.0]]}, "1e+300")]
_DENSITY_ARGS = ["--zmin", "-1", "--zmax", "1", "--points", "11",
                 "--out", "c.csv"]


@pytest.mark.parametrize("spec, degree", _OVERLARGE,
                         ids=["moment-overflow", "band-edge-overflow"])
def test_density_overlarge_degree_returns(tmp_path, src_env, spec, degree):
    # the subprocess timeout turns a hang into a failure
    (tmp_path / "big.json").write_text(json.dumps(spec))
    done = subprocess.run(
        [sys.executable, "-m", "netspectra.cli", "density", "big.json",
         *_DENSITY_ARGS],
        cwd=tmp_path, env=src_env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
    assert done.stderr == (f"error: degree {degree} exceeds the largest "
                           f"supported degree 3.35e+153\n")
    assert [p.name for p in tmp_path.iterdir()] == ["big.json"]


@pytest.mark.parametrize("spec, degree", _OVERLARGE,
                         ids=["moment-overflow", "band-edge-overflow"])
def test_overlarge_degree_is_named(tmp_path, capsys, monkeypatch, spec,
                                   degree):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text(json.dumps(spec))
    assert run(["density", "big.json", *_DENSITY_ARGS]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: degree {degree} exceeds")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["big.json"]


def test_unknown_flag_exits_one(poisson_file):
    with pytest.raises(SystemExit) as exc:
        run(["density", str(poisson_file), "--bogus", "1"])
    assert exc.value.code == EXIT_USAGE


def test_empirical_csv_and_l1(tmp_path, poisson_file, capsys):
    out = tmp_path / "hist.csv"
    code = run(["empirical", str(poisson_file), "--n", "300", "--reps", "2",
                "--bins", "40", "--seed", "9", "--out", str(out),
                "--dump", str(tmp_path / "eigs.csv")])
    assert code == EXIT_OK
    assert "L1 distance" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,density"
    assert len(lines) == 41
    dump = (tmp_path / "eigs.csv").read_text().splitlines()
    assert dump[0] == "eigenvalue"
    assert len(dump) == 601
    sidecar = json.loads((tmp_path / "eigs.csv.manifest.json").read_text())
    assert sidecar["replicates"] == 2
    manifest = json.loads((tmp_path / "hist.csv.manifest.json").read_text())
    lo, hi = band_edges(DegreeModel.from_spec(json.loads(poisson_file.read_text())))
    assert manifest["params"]["range"] == [lo - 2.0, hi + 2.0]


def test_cli_import_loads_no_scipy(src_env):
    # the analytic commands never need SciPy, and importing it would add
    # about 0.3 s to every start-up; the sampler and eigensolver import it
    # when they run
    code = ("import sys, netspectra.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_empirical_svg_solves_density_grid_once(tmp_path, poisson_file,
                                                 capsys, monkeypatch):
    calls = []
    density_grid = analytic.density_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return density_grid(*args, **kwargs)

    monkeypatch.setattr(analytic, "density_grid", counted)
    code = run(["empirical", str(poisson_file), "--n", "200", "--reps", "2",
                "--bins", "30", "--seed", "5", "--out", str(tmp_path / "h.csv"),
                "--svg", str(tmp_path / "h.svg")])
    assert code == EXIT_OK
    assert len(calls) == 1
    model = DegreeModel.poisson(100.0)
    l1 = l1_distance(empirical_density(model, 200, 2, 30, 5), model)
    assert f"L1 distance to analytic curve = {l1:.6g}\n" in capsys.readouterr().out


def test_empirical_usage_errors(tmp_path, poisson_file):
    assert run(["empirical", str(poisson_file), "--reps", "0",
                "--out", str(tmp_path / "h.csv")]) == EXIT_USAGE
    assert run(["empirical", str(poisson_file), "--bins", "0",
                "--out", str(tmp_path / "h.csv")]) == EXIT_USAGE


def test_empirical_seed_rerun_identical(tmp_path, poisson_file):
    a, b = tmp_path / "h1.csv", tmp_path / "h2.csv"
    for out in (a, b):
        assert run(["empirical", str(poisson_file), "--n", "200", "--reps", "2",
                    "--bins", "30", "--seed", "5", "--out", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_leading_report(two_degree_file, capsys):
    assert run(["leading", str(two_degree_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "93.8924724" in out
    assert "92.8571429" in out


def test_leading_no_detached_root_exits_three(tmp_path, capsys):
    sparse = tmp_path / "sparse.json"
    sparse.write_text(json.dumps({"atoms": [[1.0, 1.0]]}))
    assert run(["leading", str(sparse)]) == EXIT_ABSENT
    out = capsys.readouterr().out
    assert "none detached" in out
    assert "approximation" in out


def test_leading_empirical(poisson_file, capsys):
    code = run(["leading", str(poisson_file), "--empirical", "--n", "300",
                "--reps", "3", "--seed", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "ensemble mean" in out


def test_hub_report_and_exit_codes(poisson_file, capsys):
    assert run(["hub", str(poisson_file), "--kn", "400"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "k_critical = 200" in out
    assert "23.0940108" in out
    assert "z_minus = -23.0940108" in out
    assert run(["hub", str(poisson_file), "--kn", "150"]) == EXIT_ABSENT
    out = capsys.readouterr().out
    assert "inside band" in out


def test_hub_empirical_report_matches_library(poisson_file, capsys):
    code = run(["hub", str(poisson_file), "--kn", "400", "--empirical",
                "--n", "300", "--reps", "3", "--seed", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    args = (DegreeModel.poisson(100.0), 400.0, 300, 3, 5)
    mean, stderr = ensemble_hub_top(*args)
    vn, _, _ = ensemble_hub_localization(*args)
    assert (f"ensemble top modularity eigenvalue: {mean:.6g} +/- {stderr:.3g}"
            in out)
    assert f"measured vn_sq = {vn:.6g}\n" in out


def test_hub_out_without_sweep_is_usage_error(tmp_path, poisson_file, capsys):
    out = tmp_path / "hub.csv"
    assert run(["hub", str(poisson_file), "--kn", "400",
                "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --out requires --sweep\n")
    assert not out.exists()


def test_hub_pole_is_usage_error(poisson_file, capsys):
    # a hub degree at or below the largest model degree is an argument error
    code = run(["hub", str(poisson_file), "--kn", "50"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error: hub degree 50.0 must strictly exceed the maximum "
                   "model degree 100.0\n")


@pytest.mark.parametrize("flags, value", [
    (["--kn", "nan"], "nan"),
    (["--kn", "inf"], "inf"),
    (["--sweep", "110:nan:3", "--out", "s.csv"], "nan"),
], ids=["kn-nan", "kn-inf", "sweep-nan"])
def test_non_finite_hub_degree_is_usage_error(tmp_path, two_degree_file, capsys,
                                              monkeypatch, flags, value):
    monkeypatch.chdir(tmp_path)
    assert run(["hub", str(two_degree_file), *flags]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: hub degree {value} must be finite\n")
    assert [p.name for p in tmp_path.iterdir()] == [two_degree_file.name]


def test_broken_identity_is_numeric_failure(two_degree_file, capsys,
                                            monkeypatch):
    # a candidate z off by a relative 1e-6 fails the check h(z) = z / k_n
    zsq = analytic._hub_zsq
    monkeypatch.setattr(analytic, "_hub_zsq",
                        lambda model, k: zsq(model, k) * (1.0 + 1e-6) ** 2)
    assert run(["hub", str(two_degree_file), "--kn", "400"]) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: hub eigenvalue ")
    assert err.count("\n") == 1


def test_hub_sweep_csv(tmp_path, poisson_file):
    out = tmp_path / "sweep.csv"
    assert run(["hub", str(poisson_file), "--sweep", "110:400:8",
                "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "kn,z_plus,band_edge"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[1] == ""  # below critical: no detached value
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(400.0 / np.sqrt(300.0), rel=1e-9)
    assert float(last[2]) == pytest.approx(20.0, abs=1e-9)


@pytest.mark.parametrize("steps", ["0", "2.7"])
def test_hub_sweep_bad_steps_is_usage_error(tmp_path, poisson_file, capsys,
                                            steps):
    out = tmp_path / "sweep.csv"
    assert run(["hub", str(poisson_file), "--sweep", f"110:400:{steps}",
                "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --sweep expects lo:hi:steps\n"
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    {"atoms": [[50.0, 0.25], [100.0, 0.75]]},
    {"atoms": [[30.0, 0.2], [60.0, 0.2], [90.0, 0.2], [120.0, 0.2], [150.0, 0.2]]},
    {"continuous": {"kind": "uniform", "lo": 60.0, "hi": 140.0, "nodes": 64}},
], ids=["two_degree", "five_atom", "uniform64"])
def test_hub_sweep_matches_single_point(tmp_path, spec):
    # the sweep's batched check must not change a single bit of z_plus
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    model = DegreeModel.from_spec(spec)
    out = tmp_path / "sweep.csv"
    sweep = f"{1.01 * model.max_degree!r}:{4.0 * model.max_degree!r}:30"
    assert run(["hub", str(path), "--sweep", sweep, "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 30
    detached = 0
    for kn, z_plus, _ in rows:
        pred = hub_eigenvalues(model, float(kn))
        if z_plus:
            detached += 1
            assert float(z_plus) == pred.z_plus
        else:
            assert not pred.exists
    assert 0 < detached < 30


def test_replay_hub_sweep(tmp_path, poisson_file, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["hub", str(poisson_file), "--sweep", "110:400:3",
                "--out", str(out)]) == EXIT_OK
    path = tmp_path / "sweep.csv.manifest.json"
    assert run(["replay", str(path), "--outdir", str(tmp_path / "a")]) == EXIT_OK
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == out.read_bytes()
    # an edited step count cannot get past the check that --sweep has
    for steps in ("0", "2.7"):
        manifest = json.loads(path.read_text())
        manifest["params"]["sweep"] = f"110:400:{steps}"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        rep = tmp_path / f"replayed-{steps}"
        assert run(["replay", str(path), "--outdir", str(rep)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: --sweep expects lo:hi:steps\n"
        assert not (rep / "sweep.csv").exists()


@pytest.mark.parametrize("flags", [["--kn", "400", "--sweep", "110:400:3"], []],
                         ids=["both", "neither"])
def test_hub_needs_exactly_one_of_kn_and_sweep(tmp_path, poisson_file, flags):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(["hub", str(poisson_file), *flags, "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert not out.exists()


def test_replay_density_byte_identical(tmp_path, two_degree_file):
    out = tmp_path / "curve.csv"
    assert run(["density", str(two_degree_file), "--zmin", "-22", "--zmax", "22",
                "--points", "101", "--out", str(out)]) == EXIT_OK
    rep = tmp_path / "replayed"
    assert run(["replay", str(tmp_path / "curve.csv.manifest.json"),
                "--outdir", str(rep)]) == EXIT_OK
    assert (rep / "curve.csv").read_bytes() == out.read_bytes()


def test_replay_empirical_byte_identical(tmp_path, poisson_file):
    out = tmp_path / "hist.csv"
    assert run(["empirical", str(poisson_file), "--n", "150", "--reps", "2",
                "--bins", "24", "--seed", "31", "--out", str(out)]) == EXIT_OK
    rep = tmp_path / "replayed"
    assert run(["replay", str(tmp_path / "hist.csv.manifest.json"),
                "--outdir", str(rep)]) == EXIT_OK
    assert (rep / "hist.csv").read_bytes() == out.read_bytes()


def test_replay_writes_dump_by_role(tmp_path, poisson_file):
    # the dump is found by its role, not by its suffix
    out = tmp_path / "hist.csv"
    assert run(["empirical", str(poisson_file), "--n", "120", "--reps", "2",
                "--bins", "20", "--seed", "4", "--out", str(out),
                "--dump", str(tmp_path / "eigs.txt")]) == EXIT_OK
    rep = tmp_path / "replayed"
    assert run(["replay", str(tmp_path / "hist.csv.manifest.json"),
                "--outdir", str(rep)]) == EXIT_OK
    for name in ("hist.csv", "eigs.txt", "eigs.txt.manifest.json",
                 "hist.csv.manifest.json"):
        assert (rep / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_replay_svg_named_out_and_svg(tmp_path, poisson_file):
    # an SVG-suffixed primary output must not take the plot's place
    assert run(["density", str(poisson_file), "--zmin", "-25", "--zmax", "25",
                "--points", "51", "--out", str(tmp_path / "curve.svg"),
                "--svg", str(tmp_path / "plot.svg")]) == EXIT_OK
    rep = tmp_path / "replayed"
    assert run(["replay", str(tmp_path / "curve.svg.manifest.json"),
                "--outdir", str(rep)]) == EXIT_OK
    for name in ("curve.svg", "plot.svg", "curve.svg.manifest.json"):
        assert (rep / name).read_bytes() == (tmp_path / name).read_bytes(), name


@pytest.mark.parametrize("name", ["ABS", "../escaped.csv", "sub/x.csv", ".."])
def test_replay_stays_inside_outdir(tmp_path, poisson_file, capsys, name):
    out = tmp_path / "curve.csv"
    assert run(["density", str(poisson_file), "--zmin", "-25", "--zmax", "25",
                "--points", "51", "--out", str(out)]) == EXIT_OK
    target = tmp_path / "elsewhere" / "abs.csv"
    target.parent.mkdir()
    path = tmp_path / "curve.csv.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["outputs"]["out"] = str(target) if name == "ABS" else name
    path.write_text(json.dumps(manifest))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rep = tmp_path / "outdir"
    assert run(["replay", str(path), "--outdir", str(rep)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bare file name" in err
    assert err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("edit, message", [
    (lambda m: [m], ""),
    (lambda m: {**m, "outputs": ["curve.csv"]}, "format before roles"),
    (lambda m: {**m, "outputs": []}, "format before roles"),
    (lambda m: {**m, "params": {**m["params"], "zmin": "-25"}}, ""),
    (lambda m: {**m, "model": [[100.0, 1.0]]}, "must be a JSON object"),
    (lambda m: {**m, "outputs": {**m["outputs"], "plot": "curve.svg"}},
     "allow only out, svg"),
    (lambda m: {**m, "outputs": {"svg": "curve.svg"}}, "need the role 'out'"),
], ids=["list", "list_outputs", "empty_list_outputs", "string_zmin",
        "list_model", "unknown_role", "no_out_role"])
def test_malformed_manifest_is_usage_error(tmp_path, poisson_file, capsys,
                                           edit, message):
    # each case edits a valid density manifest into one malformed input
    assert run(["density", str(poisson_file), "--zmin", "-25", "--zmax", "25",
                "--points", "51", "--out", str(tmp_path / "curve.csv")]) == EXIT_OK
    path = tmp_path / "curve.csv.manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    rep = tmp_path / "replayed"
    assert run(["replay", str(path), "--outdir", str(rep)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1
    assert not rep.exists() or not any(rep.iterdir())


def test_replay_empirical_empty_range_is_usage_error(tmp_path, poisson_file,
                                                     capsys):
    out = tmp_path / "hist.csv"
    assert run(["empirical", str(poisson_file), "--n", "60", "--reps", "1",
                "--bins", "5", "--out", str(out)]) == EXIT_OK
    path = tmp_path / "hist.csv.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["params"]["range"] = [500.0, 501.0]
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    rep = tmp_path / "replayed"
    assert run(["replay", str(path), "--outdir", str(rep)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (rep / "hist.csv").exists()


def test_missing_model_file_is_usage_error(tmp_path):
    assert run(["leading", str(tmp_path / "nope.json")]) == EXIT_USAGE


@pytest.mark.parametrize("atoms", [[["abc", 1.0]], [[100.0, "heavy"]]])
def test_non_numeric_model_entry_is_usage_error(tmp_path, capsys, atoms):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"atoms": atoms}))
    assert run(["leading", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("spec, message", [
    ({"atoms": [[100.0, 0.5]]}, "weights must sum to 1"),
    ({"atoms": [[-5.0, 1.0]]}, "atom degrees must be positive"),
    ({"continuous": {"kind": "lognormal", "lo": 1.0, "hi": 9.0}},
     "unknown continuous kind"),
    ([[100.0, 1.0]], "model spec must be a JSON object"),
    ({"atoms": [100.0, 1.0]}, "[degree, weight] pairs"),
    ({"continuous": [60.0, 140.0]}, "continuous must be a JSON object"),
    # json writes and reads the NaN literal
    ({"atoms": [[50.0, 0.5], [100.0, float("nan")]]}, "weights must lie in (0, 1]"),
    ({"continuous": {"kind": "uniform", "lo": 80.0, "hi": 120.0,
                     "nodes": float("inf")}}, "nodes must be finite"),
])
def test_invalid_model_is_usage_error(tmp_path, capsys, spec, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    assert run(["leading", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


def test_empirical_past_dense_cap_is_usage_error(tmp_path, poisson_file, capsys):
    out = tmp_path / "hist.csv"
    code = run(["empirical", str(poisson_file), "--n", str(DENSE_CAP + 1),
                "--reps", "1", "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (f"error: n={DENSE_CAP + 1} exceeds the dense cap "
                   f"{DENSE_CAP}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["empirical", "--out", "hist.csv"],
                                     ["leading", "--empirical"]],
                         ids=["empirical", "leading"])
def test_mean_overflow_is_usage_error(tmp_path, capsys, monkeypatch, command):
    # half the degrees are 1000 on 20 vertices: the largest pairwise mean
    # k_i k_j / 2m is about 100 edges, more than n
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"atoms": [[1.0, 0.5], [1000.0, 0.5]]}))
    monkeypatch.chdir(tmp_path)
    code = run([command[0], str(path), *command[1:], "--n", "20", "--reps", "1"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: largest pairwise mean") and err.count("\n") == 1
    assert not (tmp_path / "hist.csv").exists()


@pytest.mark.parametrize("command", [["empirical", "--out", "hist.csv"],
                                     ["leading", "--empirical"],
                                     ["hub", "--kn", "400", "--empirical"]],
                         ids=["empirical", "leading", "hub"])
def test_zero_n_is_usage_error(tmp_path, two_degree_file, capsys, monkeypatch,
                               command):
    # n is checked before the replicate pool is sized: a replicate of no
    # vertices has no bytes to divide the pool's budget by
    monkeypatch.chdir(tmp_path)
    code = run([command[0], str(two_degree_file), *command[1:], "--n", "0",
                "--reps", "2"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: n must be >= 1\n"
    assert [p.name for p in tmp_path.iterdir()] == [two_degree_file.name]


def test_manifest_roundtrip(tmp_path):
    m = RunManifest(command="density", model={"atoms": [[1.0, 1.0]]},
                    params={"zmin": -1.0}, base_seed=None, version="0.1.0",
                    outputs={"out": "x.csv"})
    p = tmp_path / "m.json"
    m.write(p)
    again = RunManifest.from_file(p)
    assert again == m
