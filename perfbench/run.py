"""Run one workload of the end-to-end team-request benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload greedy-large --seed 1 --seconds 30 --trace 0

The library is pure Python and is imported from this checkout's
``src/``; nothing is built or installed.  With ``--trace 0`` the last
line of standard output is the result with every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric instead.  The line
before it records the run's inputs and environment.  Scratch files (the
snapshot, the server's Unix socket) live under ``.perfbench_tmp/`` in the
checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> module under ``perfbench``.
WORKLOADS = {
    "greedy-large": "greedy_large",
    "serve-mixed": "serve_mixed",
    "sharded-federated": "sharded_federated",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import result_line

    workload = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    tmp = Path(".perfbench_tmp") / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"info": outcome.info}, sort_keys=True))
    print(result_line(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
