"""One fresh-process set-up, timed by run.py as setup_s.

Imports numpy, scipy and netspectra, writes the workload's model files and
makes one small warm-up call, then prints ``ready``.  Usage:

    python3 perfbench/probe.py <workload> <directory>
"""
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402,F401
import scipy.linalg  # noqa: E402,F401
import scipy.sparse  # noqa: E402,F401
from netspectra import cli  # noqa: E402

from workloads import WORKLOADS, write_models  # noqa: E402


def main(workload: str, directory: str) -> int:
    wl = WORKLOADS[workload]
    out = Path(directory)
    write_models(wl.models, out / "models")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(wl.warmup(out / "models", out))
    if code != 0:
        print(f"warm-up exited {code}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
