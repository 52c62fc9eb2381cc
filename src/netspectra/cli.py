"""Command-line front end.

Subcommands: density, empirical, leading, hub, replay.  Every file-writing
run drops a JSON manifest next to its primary output; `replay` re-runs a
manifest into a fresh directory and reproduces the same bytes.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 a well-defined
quantity does not exist (e.g. no eigenvalue detached from the band).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, analytic, empirical
from .degree_model import DegreeModel
from .errors import (ModelValidationError, NetspectraError,
                     NoDetachedEigenvalueError)
from .svgplot import render_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_ABSENT = 3

SWEEP_USAGE = "--sweep expects lo:hi:steps"


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to re-run one file-writing command."""

    command: str
    model: dict
    params: dict
    base_seed: int | None
    version: str
    outputs: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunManifest":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(command=data["command"], model=data["model"],
                   params=data["params"], base_seed=data["base_seed"],
                   version=data["version"], outputs=list(data["outputs"]))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the documented usage exit code is 1
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_curve_csv(path: Path, z: np.ndarray, rho: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("z,rho\n")
        for a, b in zip(z, rho):
            fh.write(f"{_fmt(a)},{_fmt(b)}\n")


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.name + ".manifest.json")


def _load_model_arg(path: str) -> tuple[DegreeModel, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return DegreeModel.from_spec(spec), spec


# --------------------------------------------------------------------------
# command cores (shared between argparse entry and replay)
# --------------------------------------------------------------------------

def _run_density(model: DegreeModel, spec: dict, params: dict,
                 out_csv: Path, out_svg: Path | None) -> int:
    curve = analytic.density_grid(model, params["zmin"], params["zmax"],
                                  params["points"], eta=params["eta"])
    params = {**params, "eta": curve.eta}  # the resolved eta, for replay
    _write_curve_csv(out_csv, curve.z, curve.rho)
    outputs = [out_csv.name]
    if out_svg is not None:
        render_svg(out_svg, curves=[(curve.z, curve.rho, "#d62728")],
                   title="spectral density")
        outputs.append(out_svg.name)
    manifest = RunManifest(command="density", model=spec, params=params,
                           base_seed=None, version=__version__,
                           outputs=outputs)
    manifest.write(_manifest_path(out_csv))
    print(f"wrote {out_csv}")
    print(f"norm_defect = {curve.norm_defect:.6g}")
    print(f"band = ({curve.band[0]:.9g}, {curve.band[1]:.9g})")
    return EXIT_OK


def _run_empirical(model: DegreeModel, spec: dict, params: dict,
                   out_csv: Path, out_svg: Path | None,
                   dump_csv: Path | None) -> int:
    hist = empirical.empirical_density(
        model, params["n"], params["reps"], params["bins"], params["seed"],
        params["kind"], bin_range=params.get("range"))
    # the resolved range, for replay
    params = {**params, "range": [float(hist.bin_edges[0]),
                                  float(hist.bin_edges[-1])]}
    empirical.write_histogram_csv(hist, out_csv)
    outputs = [out_csv.name]
    if dump_csv is not None:
        empirical.write_eigenvalue_dump(
            hist.eigenvalues, dump_csv,
            manifest={"model": spec, "n": params["n"], "seed": params["seed"],
                      "kind": params["kind"], "replicates": params["reps"]})
        outputs.extend([dump_csv.name, dump_csv.name + ".manifest.json"])
    l1 = empirical.l1_distance(hist, model)
    if out_svg is not None:
        centers = 0.5 * (hist.bin_edges[1:] + hist.bin_edges[:-1])
        curve = analytic.density_grid(model, float(centers[0]), float(centers[-1]),
                                      centers.size, eta=1e-6)
        render_svg(out_svg, curves=[(curve.z, curve.rho, "#d62728")],
                   steps=(hist.bin_edges, hist.density),
                   title="empirical vs analytic density")
        outputs.append(out_svg.name)
    manifest = RunManifest(command="empirical", model=spec, params=params,
                           base_seed=params["seed"], version=__version__,
                           outputs=outputs)
    manifest.write(_manifest_path(out_csv))
    print(f"wrote {out_csv}")
    print(f"L1 distance to analytic curve = {l1:.6g}")
    return EXIT_OK


def _run_hub_sweep(model: DegreeModel, spec: dict, params: dict,
                   out_csv: Path) -> int:
    lo, hi, steps = params["sweep"]
    # a replayed manifest's step count reaches here unchecked
    if type(steps) is not int or steps < 1:
        raise ValueError(SWEEP_USAGE)
    kns = np.linspace(lo, hi, steps)
    edge = analytic.band_edges(model)[1]
    _, z_plus = analytic._hub_pairs(model, kns)
    rows = []
    for kn, z in zip(kns, z_plus):
        row = [float(kn), None if np.isnan(z) else float(z), edge]
        if params.get("empirical"):
            mean, stderr = empirical.ensemble_hub_top(
                model, float(kn), params["n"], params["reps"], params["seed"])
            row.extend([mean, stderr])
        rows.append(row)
    with open(out_csv, "w", encoding="utf-8", newline="\n") as fh:
        head = "kn,z_plus,band_edge"
        if params.get("empirical"):
            head += ",emp_mean,emp_stderr"
        fh.write(head + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else _fmt(v) for v in row) + "\n")
    manifest = RunManifest(command="hub", model=spec, params=params,
                           base_seed=params.get("seed"), version=__version__,
                           outputs=[out_csv.name])
    manifest.write(_manifest_path(out_csv))
    print(f"wrote {out_csv}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argparse commands
# --------------------------------------------------------------------------

def _cmd_density(args) -> int:
    model, spec = _load_model_arg(args.model)
    params = {"zmin": args.zmin, "zmax": args.zmax,
              "points": args.points, "eta": args.eta}
    return _run_density(model, spec, params, Path(args.out),
                        Path(args.svg) if args.svg else None)


def _cmd_empirical(args) -> int:
    model, spec = _load_model_arg(args.model)
    params = {"n": args.n, "reps": args.reps, "bins": args.bins,
              "seed": args.seed, "kind": args.kind}
    return _run_empirical(model, spec, params, Path(args.out),
                          Path(args.svg) if args.svg else None,
                          Path(args.dump) if args.dump else None)


def _cmd_leading(args) -> int:
    model, _ = _load_model_arg(args.model)
    approx = analytic.leading_eigenvalue_approx(model)
    try:
        exact = analytic.leading_eigenvalue(model)
    except NoDetachedEigenvalueError as exc:
        print(f"exact leading eigenvalue: none detached from the band ({exc})")
        print(f"moment-ratio approximation: {approx:.9g}")
        return EXIT_ABSENT
    print(f"exact leading eigenvalue:    {exact:.9g}")
    print(f"moment-ratio approximation:  {approx:.9g}")
    if args.empirical:
        mean, stderr = empirical.ensemble_leading(
            model, args.n, args.reps, args.seed, kind="adjacency")
        print(f"ensemble mean (n={args.n}, reps={args.reps}): "
              f"{mean:.6g} +/- {stderr:.3g}")
    return EXIT_OK


def _cmd_hub(args) -> int:
    model, spec = _load_model_arg(args.model)
    if args.sweep:
        try:
            lo, hi, steps = args.sweep.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError:
            raise ValueError(SWEEP_USAGE) from None
        if not args.out:
            print("error: --sweep requires --out", file=sys.stderr)
            return EXIT_USAGE
        params = {"sweep": [lo, hi, steps], "empirical": args.empirical,
                  "n": args.n, "reps": args.reps, "seed": args.seed}
        return _run_hub_sweep(model, spec, params, Path(args.out))

    if args.kn is None:
        print("error: provide --kn or --sweep", file=sys.stderr)
        return EXIT_USAGE
    pred = analytic.hub_eigenvalues(model, args.kn)
    print(f"k_critical = {pred.k_critical:.9g}")
    if pred.exists:
        print(f"z_plus  = {pred.z_plus:.9g}")
        print(f"z_minus = {-pred.z_plus:.9g}")
        print(f"vn_sq = {pred.vn_sq:.6g}")
        print(f"neighbor vi_sq = {pred.neighbor_vi_sq_mean:.6g}")
    else:
        print(f"hub degree {args.kn:g}: inside band "
              f"(band edge {analytic.band_edges(model)[1]:.6g})")
    if args.empirical:
        mean, stderr, vn, nb, blk = empirical._hub_ensemble(
            model, args.kn, args.n, args.reps, args.seed)
        print(f"ensemble top modularity eigenvalue: {mean:.6g} +/- {stderr:.3g}")
        if pred.exists:
            print(f"measured vn_sq = {vn:.6g}")
            print(f"measured neighbor mean square = {nb:.6g}")
            print(f"measured bulk mean square = {blk:.3g}")
    return EXIT_OK if pred.exists else EXIT_ABSENT


def _cmd_replay(args) -> int:
    manifest = RunManifest.from_file(args.manifest)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    model = DegreeModel.from_spec(manifest.model)
    outs = [outdir / name for name in manifest.outputs]
    if manifest.command == "density":
        svg = next((p for p in outs if p.suffix == ".svg"), None)
        return _run_density(model, manifest.model, manifest.params, outs[0], svg)
    if manifest.command == "empirical":
        svg = next((p for p in outs if p.suffix == ".svg"), None)
        dump = next((p for p in outs[1:] if p.suffix == ".csv"), None)
        return _run_empirical(model, manifest.model, manifest.params,
                              outs[0], svg, dump)
    if manifest.command == "hub":
        return _run_hub_sweep(model, manifest.model, manifest.params, outs[0])
    print(f"error: manifest command {manifest.command!r} is not replayable",
          file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="netspectra",
                description="Analytic and sampled spectra of random graphs "
                            "with given expected degrees.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="analytic spectral density curve")
    d.add_argument("model", help="model spec JSON file")
    d.add_argument("--zmin", type=float, required=True)
    d.add_argument("--zmax", type=float, required=True)
    d.add_argument("--points", type=int, default=2001)
    d.add_argument("--eta", type=float, default=None,
                   help="imaginary offset (default: grid-based policy)")
    d.add_argument("--out", required=True, help="output CSV path")
    d.add_argument("--svg", default=None, help="optional SVG plot path")
    d.set_defaults(func=_cmd_density)

    e = sub.add_parser("empirical", help="sampled eigenvalue histogram")
    e.add_argument("model")
    e.add_argument("--n", type=int, default=2000)
    e.add_argument("--reps", type=int, default=25)
    e.add_argument("--bins", type=int, default=100)
    e.add_argument("--seed", type=int, default=1)
    e.add_argument("--kind", choices=list(empirical.MATRIX_KINDS),
                   default="modularity")
    e.add_argument("--out", required=True)
    e.add_argument("--svg", default=None)
    e.add_argument("--dump", default=None,
                   help="also dump pooled eigenvalues to this CSV")
    e.set_defaults(func=_cmd_empirical)

    l = sub.add_parser("leading", help="leading adjacency eigenvalue")
    l.add_argument("model")
    l.add_argument("--empirical", action="store_true")
    l.add_argument("--n", type=int, default=2000)
    l.add_argument("--reps", type=int, default=25)
    l.add_argument("--seed", type=int, default=1)
    l.set_defaults(func=_cmd_leading)

    h = sub.add_parser("hub", help="hub eigenvalues and localization")
    h.add_argument("model")
    h.add_argument("--kn", type=float, default=None)
    h.add_argument("--sweep", default=None, help="lo:hi:steps")
    h.add_argument("--out", default=None)
    h.add_argument("--empirical", action="store_true")
    h.add_argument("--n", type=int, default=2000)
    h.add_argument("--reps", type=int, default=25)
    h.add_argument("--seed", type=int, default=1)
    h.set_defaults(func=_cmd_hub)

    r = sub.add_parser("replay", help="re-run a manifest byte-identically")
    r.add_argument("manifest")
    r.add_argument("--outdir", required=True)
    r.set_defaults(func=_cmd_replay)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoDetachedEigenvalueError as exc:
        print(f"absent result: {exc}", file=sys.stderr)
        return EXIT_ABSENT
    except ModelValidationError as exc:
        # an invalid model is bad input, not a numeric failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NetspectraError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, KeyError, ValueError) as exc:
        # ValueError covers malformed JSON, non-numeric model entries and
        # other rejected inputs; library errors were caught above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
