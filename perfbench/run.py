"""netspectra benchmark: drives ``netspectra.cli.run(argv)`` in one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload analytic_panel [--seed N]
        [--seconds S] [--trace 0|1]

One client runs the workload's CLI operations back to back (a closed loop:
each starts when the previous one has finished) and checks every output
against plain-numpy oracles.  A pass is one run through the workload's
operations; after the first, passes repeat while the next one is expected
to end within ``--seconds``.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by one traced pass, and the
line reports the per-layer metrics.
Earlier lines are a readable report: environment, every operation, and
every metric by name and unit.  Outputs, spans and the full result go under
``.perfbench_work/`` in the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh-process set-up probes, spread over the gaps between the first pass's
# operations.  A shared machine switches between fast and slow spells lasting
# seconds; probes in one bunch all land in one spell, and their median then
# jumped by 25% from run to run.
SETUP_PROBES = 16
COMMANDS = ("density", "leading", "hub", "empirical", "replay")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


# One BLAS thread, fixed before numpy loads.  On a shared two-core machine
# it kept the run-to-run spread of mc_top_eigen near 2%, against 25% with two.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def parse_args(argv=None):
    from workloads import DEFAULT_SEED, WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "libscipy_openblas*.so"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_",
                      None)
        if get is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            threads = get()
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": _nproc(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "git_commit": commit,
            "seed": seed}


def time_setup(workload: str, work: Path, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to run."""
    times = []
    for k in range(count):
        probe_dir = work / f"probe{k}"
        probe_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload,
                               str(probe_dir)], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(t1 - t0)
    return times


class Runner:
    """Runs operations through the CLI, times them and checks their outputs."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.results: list[dict] = []

    def run_op(self, op) -> dict:
        op.outdir.mkdir(parents=True, exist_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = self.cli.run(op.argv)
        except Exception as exc:  # the benchmark keeps going and reports it
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        misses = []
        if code == op.expect:
            try:
                misses = op.check(stdout.getvalue(), op.outdir)
            except Exception as exc:
                misses = [f"check raised {type(exc).__name__}: {exc}"]
        written = sum(f.stat().st_size for f in op.outdir.rglob("*")
                      if f.is_file())
        if self.tracer is not None:
            self.tracer.counts["cli.bytes_written"] += written
            self.tracer.op_id += 1
        result = {"label": op.label, "command": op.command, "exit": code,
                  "expect": op.expect, "seconds": seconds, "misses": misses,
                  "failed": code != op.expect or bool(misses),
                  "known": code == op.known_exit,
                  "networks": op.networks, "bytes_written": written}
        if code != op.expect:
            result["output"] = (stdout.getvalue() + stderr.getvalue()).strip()[-300:]
        self.results.append(result)
        return result

    def run_pass(self, workload, ctx, pass_dir: Path,
                 between=None) -> list[dict]:
        """Runs one pass; ``between(gap, gaps)`` runs before each operation
        and after the last, outside the timed calls."""
        if pass_dir.exists():
            shutil.rmtree(pass_dir)
        ops = workload.build(ctx, pass_dir)
        results = []
        for gap, op in enumerate(ops):
            if between is not None:
                between(gap, len(ops) + 1)
            results.append(self.run_op(op))
        if between is not None:
            between(len(ops), len(ops) + 1)
        return results


def pass_summary(results: list[dict]) -> dict:
    out = {"wall_s": sum(r["seconds"] for r in results)}
    for cmd in COMMANDS:
        times = [r["seconds"] for r in results if r["command"] == cmd]
        if times:
            out[f"{cmd}_s"] = sum(times)
    networks = sum(r["networks"] for r in results)
    if networks:
        out["replicates_per_s"] = networks / sum(
            r["seconds"] for r in results if r["networks"])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "netspectra" / "cli.py").is_file():
        print(f"error: no netspectra sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from netspectra import cli

    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = environment(args.seed)

    models_dir = work / "models"
    workloads.write_models(wl.models, models_dir)
    ctx = workloads.Context(args.seed, models_dir, wl.oracle())
    runner = Runner(cli)
    warm = runner.run_op(workloads.Op("warm-up", "warmup",
                                      wl.warmup(models_dir, work / "warmup"),
                                      work / "warmup", lambda out, d: []))
    runner.results.clear()
    if warm["exit"] != 0:
        print(f"error: warm-up call exited {warm['exit']}", file=sys.stderr)
        return 2

    setup_times: list[float] = []

    def probe(gap: int, gaps: int) -> None:
        count = (SETUP_PROBES * (gap + 1) // gaps) - (SETUP_PROBES * gap // gaps)
        setup_times.extend(time_setup(wl.name, work / "setup" / f"gap{gap}",
                                      count))

    passes = [pass_summary(runner.run_pass(wl, ctx, work / "pass", probe))]
    while not args.trace:
        measured = sum(p["wall_s"] for p in passes)
        if measured + measured / len(passes) > args.seconds:
            break
        passes.append(pass_summary(runner.run_pass(wl, ctx, work / "pass")))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = peak_rss_mb

    layer = {}
    if args.trace:
        tracer = Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            traced = pass_summary(runner.run_pass(wl, ctx, work / "traced"))
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.jsonl")
        layer = tracer.layer_metrics()
        layer["trace_overhead_ratio"] = (traced["wall_s"] / e2e["wall_s"], "ratio")

    attempted = len(runner.results)
    failed = sum(r["failed"] for r in runner.results)
    correct = not any(r["failed"] and not r["known"] for r in runner.results)
    e2e["fail_ratio"] = failed / attempted
    units = {"setup_s": "s", "peak_rss_mb": "MB", "replicates_per_s": "1/s",
             "fail_ratio": "fraction"}
    e2e_metrics = {k: (v, units.get(k, "s")) for k, v in e2e.items()}

    report(wl.name, env, runner.results, len(passes), e2e_metrics, layer,
           attempted, failed, setup_times)
    full = {"workload": wl.name, "env": env, "passes": passes,
            "setup_times": setup_times, "ops": runner.results,
            "end_to_end": e2e_metrics, "per_layer": layer}
    (work / "result.json").write_text(json.dumps(full, indent=1, default=str))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    chosen = layer if args.trace else e2e_metrics
    metrics = {m["name"]: {"value": chosen[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(name, env, results, n_passes, e2e, layer, attempted, failed,
           setup_times) -> None:
    print(f"workload {name}: {n_passes} untraced pass(es), "
          f"{len(setup_times)} set-up probes")
    print("env " + json.dumps(env))
    for r in results:
        status = ("KNWN" if r["known"] else "FAIL") if r["failed"] else "ok"
        print(f"  {status:4} exit={r['exit']!s:<3} {r['seconds']:8.3f} s  "
              f"{r['label']}")
        for miss in r["misses"]:
            print(f"         miss: {miss}")
        if r.get("output"):
            print("         output: " + r["output"].replace("\n", " | "))
    for key, (value, unit) in {**e2e, **layer}.items():
        extra = (f"  (ops_attempted {attempted}, failed {failed})"
                 if key == "fail_ratio" else "")
        print(f"  {key:48} {value:14.6g} {unit}{extra}")


if __name__ == "__main__":
    sys.exit(main())
