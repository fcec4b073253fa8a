#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay_locality --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a run with every layer's public entry points
wrapped.  Every line before the last describes the run (a JSON header
with the commit, host, method, seed and the workload's reason, then one
line per metric); the last line is the JSON result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every correctness check passed, 1 when one
failed, and 2 when the simulator sources are missing.  Workloads and
metric definitions are in ``BENCHMARK.json`` and ``perfbench/harness.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

METHOD = (
    "repeat a fresh build plus one run of the same inputs for --seconds "
    "(at least twice), timing a fixed pure-Python reference kernel between "
    "repetitions; ops_per_s is the median repetition's rate and setup_s the "
    "median build time, each scaled to a host on which the kernel takes "
    "{reference} s; sim_* come from the simulated machine and repeat exactly; "
    "replay latencies are per LLC miss from a traced run, serve ones per "
    "request from its due arrival cycle; per-layer self times come from "
    "wrappers installed around each layer's public entry points"
)


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the simulator sources, so runs name the code they ran."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"benchmark: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.calibrate import REFERENCE_S
    from perfbench.harness import run_benchmark
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import numpy

    workload = WORKLOADS[args.workload]
    header = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "method": METHOD.format(reference=REFERENCE_S),
    }
    print(json.dumps(header), flush=True)
    result = run_benchmark(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        str(ROOT / ".bench_work" / f"run-{os.getpid()}"),
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
