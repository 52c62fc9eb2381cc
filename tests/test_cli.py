from __future__ import annotations

import json

import numpy as np
import pytest

from netspectra.cli import EXIT_ABSENT, EXIT_OK, EXIT_USAGE, RunManifest, run


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


def test_density_usage_errors(tmp_path, poisson_file):
    assert run(["density", str(poisson_file), "--zmin", "-1", "--zmax", "1",
                "--points", "1", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert run(["density", str(poisson_file), "--zmin", "2", "--zmax", "1",
                "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE


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
    assert run(["hub", str(poisson_file), "--kn", "150"]) == EXIT_ABSENT
    out = capsys.readouterr().out
    assert "inside band" in out


def test_hub_pole_is_numeric_failure(poisson_file, capsys):
    code = run(["hub", str(poisson_file), "--kn", "50"])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


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


def test_missing_model_file_is_usage_error(tmp_path):
    assert run(["leading", str(tmp_path / "nope.json")]) == EXIT_USAGE


@pytest.mark.parametrize("atoms", [[["abc", 1.0]], [[100.0, "heavy"]]])
def test_non_numeric_model_entry_is_usage_error(tmp_path, capsys, atoms):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"atoms": atoms}))
    assert run(["leading", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_non_integer_dense_cap_is_usage_error(tmp_path, poisson_file, capsys,
                                              monkeypatch):
    monkeypatch.setenv("NETSPECTRA_DENSE_CAP", "lots")
    code = run(["empirical", str(poisson_file), "--n", "50", "--reps", "1",
                "--out", str(tmp_path / "hist.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "NETSPECTRA_DENSE_CAP" in err and err.count("\n") == 1


def test_manifest_roundtrip(tmp_path):
    m = RunManifest(command="density", model={"atoms": [[1.0, 1.0]]},
                    params={"zmin": -1.0}, base_seed=None, version="0.1.0",
                    outputs=["x.csv"])
    p = tmp_path / "m.json"
    m.write(p)
    again = RunManifest.from_file(p)
    assert again == m
