"""Command-line front end.

Subcommands: density, empirical, leading, hub, replay.  Each file-writing
command (density, empirical, hub --sweep) is one runner in `_RUNNERS`, and
both its argparse entry and `replay` call that runner.  A run drops a JSON
manifest next to its primary output that names each output file by its
role; `replay` re-runs a manifest into a fresh directory, writes only
inside it, and reproduces the same bytes.

Exit codes: 0 success; 1 usage error, any ValueError (including an invalid
model and a NaN or infinite argument), or an unreadable or malformed file;
2 numeric failure, a NumericError (a missed residual bound or a broken
identity); 3 a well-defined quantity does not exist, a
NoDetachedEigenvalueError (e.g. no eigenvalue detached from the band).
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, analytic, empirical
from .degree_model import DegreeModel
from .errors import NoDetachedEigenvalueError, NumericError
from .svgplot import render_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_ABSENT = 3

@dataclass(frozen=True)
class RunManifest:
    """Everything needed to re-run one file-writing command.

    `outputs` maps each output role ("out", "svg", "dump") to a bare file
    name.  The eigenvalue dump's sidecar, `<dump>.manifest.json`, is implied.
    """

    command: str
    model: dict
    params: dict
    base_seed: int | None
    version: str
    outputs: dict[str, str]

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), sort_keys=True, indent=2)
                              + "\n", encoding="utf-8")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunManifest":
        manifest = cls(**json.loads(Path(path).read_text(encoding="utf-8")))
        if not isinstance(manifest.outputs, dict):
            raise ValueError("manifest outputs must map roles to file names "
                             "(a list of names is the format before roles)")
        return manifest


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse before 3.13 takes -1e1 for an option, not a negative number
        # as it does -25 and -.5; subparsers are made of this class too
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits 2 on bad flags; the documented usage exit code is 1
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """One line per row; None becomes an empty field."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else repr(float(v)) for v in row)
                     + "\n")


def _load_model_arg(path: str) -> tuple[DegreeModel, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return DegreeModel.from_spec(spec), spec


def _record(command: str, spec: dict, params: dict,
            paths: dict[str, Path]) -> None:
    out = paths["out"]
    RunManifest(command=command, model=spec, params=params,
                base_seed=params.get("seed"), version=__version__,
                outputs={role: p.name for role, p in paths.items()},
                ).write(out.with_name(out.name + ".manifest.json"))
    print(f"wrote {out}")


# --------------------------------------------------------------------------
# runners of the file-writing commands (shared by argparse entry and replay)
# --------------------------------------------------------------------------

def _run_density(model: DegreeModel, spec: dict, params: dict,
                 paths: dict[str, Path]) -> int:
    curve = analytic.density_grid(model, params["zmin"], params["zmax"],
                                  params["points"], eta=params["eta"])
    params = {**params, "eta": curve.eta}  # the resolved eta, for replay
    _write_csv(paths["out"], "z,rho", zip(curve.z, curve.rho))
    if "svg" in paths:
        render_svg(paths["svg"], curves=[(curve.z, curve.rho, "#d62728")],
                   title="spectral density")
    _record("density", spec, params, paths)
    print(f"norm_defect = {curve.norm_defect:.6g}")
    print(f"band = ({curve.band[0]:.9g}, {curve.band[1]:.9g})")
    return EXIT_OK


def _run_empirical(model: DegreeModel, spec: dict, params: dict,
                   paths: dict[str, Path]) -> int:
    hist = empirical.empirical_density(
        model, params["n"], params["reps"], params["bins"], params["seed"],
        params["kind"], bin_range=params.get("range"))
    # the resolved range, for replay
    params = {**params, "range": [float(hist.bin_edges[0]),
                                  float(hist.bin_edges[-1])]}
    empirical.write_histogram_csv(hist, paths["out"])
    if "dump" in paths:
        empirical.write_eigenvalue_dump(
            hist.eigenvalues, paths["dump"],
            manifest={"model": spec, "n": params["n"], "seed": params["seed"],
                      "kind": params["kind"], "replicates": params["reps"]})
    l1, curve = empirical.compare_density(hist, model)
    if "svg" in paths:
        render_svg(paths["svg"], curves=[(curve.z, curve.rho, "#d62728")],
                   steps=(hist.bin_edges, hist.density),
                   title="empirical vs analytic density")
    _record("empirical", spec, params, paths)
    print(f"L1 distance to analytic curve = {l1:.6g}")
    return EXIT_OK


def _run_hub_sweep(model: DegreeModel, spec: dict, params: dict,
                   paths: dict[str, Path]) -> int:
    try:
        lo, hi, steps = params["sweep"].split(":")
        if int(steps) < 1:
            raise ValueError
        kns = np.linspace(float(lo), float(hi), int(steps))
    except (AttributeError, ValueError):
        raise ValueError("--sweep expects lo:hi:steps") from None
    edge = analytic.band_edges(model)[1]
    _, z_plus = analytic.hub_pairs(model, kns)
    rows = []
    for kn, z in zip(kns, z_plus):
        row = [kn, None if np.isnan(z) else z, edge]
        if params["empirical"]:
            row.extend(empirical.ensemble_hub_top(
                model, float(kn), params["n"], params["reps"], params["seed"]))
        rows.append(row)
    head = "kn,z_plus,band_edge"
    if params["empirical"]:
        head += ",emp_mean,emp_stderr"
    _write_csv(paths["out"], head, rows)
    _record("hub", spec, params, paths)
    return EXIT_OK


_RUNNERS = {"density": _run_density, "empirical": _run_empirical,
            "hub": _run_hub_sweep}

# the flags each command hands its runner as `params` and as `paths`
_PARAMS = {"density": ("zmin", "zmax", "points", "eta"),
           "empirical": ("n", "reps", "bins", "seed", "kind"),
           "hub": ("sweep", "empirical", "n", "reps", "seed")}
_ROLES = {"density": ("out", "svg"), "empirical": ("out", "svg", "dump"),
          "hub": ("out",)}


# --------------------------------------------------------------------------
# argparse commands
# --------------------------------------------------------------------------

def _cmd_file(args) -> int:
    model, spec = _load_model_arg(args.model)
    params = {name: getattr(args, name) for name in _PARAMS[args.command]}
    paths = {role: Path(getattr(args, role)) for role in _ROLES[args.command]
             if getattr(args, role)}
    return _RUNNERS[args.command](model, spec, params, paths)


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
    if args.sweep is not None:
        if not args.out:
            raise ValueError("--sweep requires --out")
        return _cmd_file(args)
    if args.out:
        # only the sweep writes a file; --kn prints its report
        raise ValueError("--out requires --sweep")
    model, _ = _load_model_arg(args.model)
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
        mean, stderr, vn, nb, blk = empirical.ensemble_hub(
            model, args.kn, args.n, args.reps, args.seed)
        print(f"ensemble top modularity eigenvalue: {mean:.6g} +/- {stderr:.3g}")
        if pred.exists:
            print(f"measured vn_sq = {vn:.6g}")
            print(f"measured neighbor mean square = {nb:.6g}")
            print(f"measured bulk mean square = {blk:.3g}")
    return EXIT_OK if pred.exists else EXIT_ABSENT


def _cmd_replay(args) -> int:
    manifest = RunManifest.from_file(args.manifest)
    if manifest.command not in _RUNNERS:
        raise ValueError(f"manifest command {manifest.command!r} is not replayable")
    roles = _ROLES[manifest.command]
    if "out" not in manifest.outputs or not set(manifest.outputs) <= set(roles):
        raise ValueError(f"{manifest.command} outputs need the role 'out' and "
                         f"allow only {', '.join(roles)}")
    for name in manifest.outputs.values():
        # a path would let the manifest write outside --outdir
        if name in ("", "..") or Path(name).name != name:
            raise ValueError(f"manifest output {name!r} is not a bare file name")
    model = DegreeModel.from_spec(manifest.model)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[manifest.command](
        model, manifest.model, manifest.params,
        {role: outdir / name for role, name in manifest.outputs.items()})


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="netspectra",
                description="Analytic and sampled spectra of random graphs "
                            "with given expected degrees.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    ensemble = argparse.ArgumentParser(add_help=False)
    ensemble.add_argument("--n", type=int, default=2000)
    ensemble.add_argument("--reps", type=int, default=25)
    ensemble.add_argument("--seed", type=int, default=1)

    d = sub.add_parser("density", help="analytic spectral density curve")
    d.add_argument("model", help="model spec JSON file")
    d.add_argument("--zmin", type=float, required=True)
    d.add_argument("--zmax", type=float, required=True)
    d.add_argument("--points", type=int, default=2001)
    d.add_argument("--eta", type=float, default=None,
                   help="imaginary offset (default: grid-based policy)")
    d.add_argument("--out", required=True, help="output CSV path")
    d.add_argument("--svg", default=None, help="optional SVG plot path")
    d.set_defaults(func=_cmd_file)

    e = sub.add_parser("empirical", parents=[ensemble],
                       help="sampled eigenvalue histogram")
    e.add_argument("model")
    e.add_argument("--bins", type=int, default=100)
    e.add_argument("--kind", choices=list(empirical.MATRIX_KINDS),
                   default="modularity")
    e.add_argument("--out", required=True)
    e.add_argument("--svg", default=None)
    e.add_argument("--dump", default=None,
                   help="also dump pooled eigenvalues to this CSV")
    e.set_defaults(func=_cmd_file)

    l = sub.add_parser("leading", parents=[ensemble],
                       help="leading adjacency eigenvalue")
    l.add_argument("model")
    l.add_argument("--empirical", action="store_true")
    l.set_defaults(func=_cmd_leading)

    h = sub.add_parser("hub", parents=[ensemble],
                       help="hub eigenvalues and localization")
    h.add_argument("model")
    which = h.add_mutually_exclusive_group(required=True)
    which.add_argument("--kn", type=float)
    which.add_argument("--sweep", help="lo:hi:steps")
    h.add_argument("--out", default=None)
    h.add_argument("--empirical", action="store_true")
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
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, KeyError, TypeError, ValueError) as exc:
        # ValueError is every rejected input: malformed JSON, an invalid
        # model, a non-finite argument, an --n below 1 or past the dense cap,
        # degrees too large for --n or a --kn at a model degree; KeyError
        # and TypeError cover a manifest or model file of the wrong shape
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
