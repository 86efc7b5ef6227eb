"""Benchmark of the adaptive-parallelism search system, in host time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload profile --seed 1 --seconds 18 --trace 0

Workloads are ``profile``, ``sweep`` and ``serve`` (see workloads.py).
The seed drives the order of the engine's query stream (and so which
queries share a batch), the simulator's seeds and the serve workload's
arrival schedules; the corpus, the query sets and the served system are
fixed, so that costs add up alike on every seed. Progress, digests of
model-time outputs, the seed and every figure as measured go to
standard output first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` (CPU times corrected for the host's speed,
see ``common.Calibration``), the per-layer metrics (from spans recorded
around calls into each layer, as measured) with ``--trace 1``. A traced run
also writes its spans to ``perfbench/out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("profile", "sweep", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    run = workloads.Run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    run.log(f"seconds={args.seconds:g} trace={args.trace}")
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    if run.spans.enabled:
        path = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        run.spans.write(path)
        run.log(f"{len(run.spans.records)} spans written to {path.relative_to(ROOT)}")
    for note in run.checks.notes[:20]:
        run.log(f"FAILED: {note}")
    print(json.dumps(workloads.result(run)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
