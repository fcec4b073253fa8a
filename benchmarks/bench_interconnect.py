#!/usr/bin/env python
"""Channel-count sweep for the pluggable memory interconnect.

The paper times every path access with one flat scalar ("a single ORAM
access saturates the available DRAM bandwidth", section 5.1).  The
channel interconnect instead lays the tree out subtree-by-subtree across
independent DRAM channels (:class:`~repro.oram.tree.PhysicalLayout`) and
streams each path's buckets through per-channel bank/row schedulers, so
aggregate bandwidth -- and with it path latency -- scales with the
channel count.  This benchmark runs the PrORAM scheme on the 80%-locality
synthetic mix under the flat model and under the channel model at 1, 2, 4
and 8 channels, reports the mean demand-path read latency (the streamed
``path_read`` phase cycles per ORAM request), and asserts the acceptance
gate: >= 1.3x path-latency reduction at 4 channels over the flat model.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_interconnect.py
    PYTHONPATH=src python benchmarks/bench_interconnect.py --accesses 4000

Writes ``BENCH_interconnect.json`` (override with ``-o``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.experiments import experiment_config
from repro.sim.system import SecureSystem
from repro.workloads.synthetic import locality_mix_trace

CHANNEL_COUNTS = [1, 2, 4, 8]
SCHEME = "dyn"
ACCEPTANCE_SPEEDUP_AT_4 = 1.3


def run(trace, dram_model: str, num_channels: int) -> dict:
    """One configuration: returns cycles + mean path-read latency."""
    config = experiment_config()
    config = dataclasses.replace(
        config,
        dram=dataclasses.replace(
            config.dram, model=dram_model, num_channels=num_channels
        ),
    )
    system = SecureSystem.build(SCHEME, trace.footprint_blocks, config)
    result = system.run(trace)
    system.backend.oram.check_invariants()
    requests = result.demand_requests + result.prefetch_requests + result.write_accesses
    mean_path_read = result.extra["phase_path_read_cycles"] / requests
    row = {
        "dram_model": dram_model,
        "num_channels": num_channels if dram_model == "channel" else 1,
        "cycles": result.cycles,
        "oram_requests": requests,
        "mean_path_read_cycles": round(mean_path_read, 2),
        "nominal_path_cycles": system.backend.interconnect.path_cycles,
    }
    if dram_model == "channel":
        for name in ("row_hits", "row_misses", "bank_wait_cycles"):
            row[name] = int(result.extra[f"interconnect_{name}"])
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=8_000)
    parser.add_argument("--locality", type=float, default=0.8)
    parser.add_argument("-o", "--output", default="BENCH_interconnect.json")
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="report only; skip the 1.3x acceptance assertion",
    )
    args = parser.parse_args(argv)
    if args.accesses < 1:
        parser.error("--accesses must be >= 1")

    trace = locality_mix_trace(args.locality, accesses=args.accesses)
    rows = [run(trace, "flat", 1)]
    flat = rows[0]
    print(
        f"flat model: {flat['cycles']:>12,} cycles, "
        f"mean path read {flat['mean_path_read_cycles']:.0f} cyc"
    )
    by_channels = {}
    for channels in CHANNEL_COUNTS:
        row = run(trace, "channel", channels)
        rows.append(row)
        by_channels[channels] = row
        reduction = flat["mean_path_read_cycles"] / row["mean_path_read_cycles"]
        row["path_latency_reduction_vs_flat"] = round(reduction, 3)
        print(
            f"{channels} channel(s): {row['cycles']:>12,} cycles, "
            f"mean path read {row['mean_path_read_cycles']:.0f} cyc "
            f"({reduction:.2f}x reduction vs flat)"
        )

    reduction_at_4 = (
        flat["mean_path_read_cycles"] / by_channels[4]["mean_path_read_cycles"]
    )
    verdict = reduction_at_4 >= ACCEPTANCE_SPEEDUP_AT_4
    print(
        f"4-channel path-latency reduction {reduction_at_4:.2f}x "
        f"(acceptance floor {ACCEPTANCE_SPEEDUP_AT_4:.1f}x): "
        + ("PASS" if verdict else "FAIL")
    )

    artifact = {
        "workload": f"locality:{args.locality:g}",
        "scheme": SCHEME,
        "accesses": args.accesses,
        "results": rows,
        "path_latency_reduction_at_4_channels": reduction_at_4,
        "acceptance_floor": ACCEPTANCE_SPEEDUP_AT_4,
        "acceptance_pass": verdict,
    }
    with open(args.output, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")

    if not args.no_assert and not verdict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
