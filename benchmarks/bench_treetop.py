#!/usr/bin/env python
"""Treetop-size sweep: pinned tree-top levels vs streamed path latency.

The treetop cache (DESIGN.md section 13) pins the top ``k`` levels of the
nominal tree in on-chip SRAM, so every path access streams only the
bottom ``L + 1 - k`` bucket-levels over the pins.  This benchmark runs
the PrORAM scheme on the 80%-locality synthetic mix for
``k in {0, 2, 4, 6}`` under both interconnect models and reports the
mean demand-path read latency (the ``path_read`` phase cycles per ORAM
request).

The measured bank is one *shard* of a sharded deployment -- a 32 MB slice
(17-level nominal tree) rather than the full 8 GB monolith -- with
LPDDR-class per-channel bandwidth (4 GB/s), so path streaming is
bandwidth-dominated and a 4-level treetop removes a meaningful fraction
(4 of 18 bucket-levels) of every path.  The channel layout's subtree
tiles are sized to the treetop (``subtree_levels = 4``): the pinned
region is then exactly the root tile, so pinning eliminates a whole row
activation burst per path -- including the tier-0 tile that the per-tier
rotation always places on channel 0, the one structurally hot channel of
the ``k = 0`` layout.

Acceptance gate: >= 1.25x path-latency reduction at ``k = 4`` over
``k = 0`` under the 4-channel model.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_treetop.py
    PYTHONPATH=src python benchmarks/bench_treetop.py --accesses 4000

Writes ``BENCH_treetop.json`` (override with ``-o``).
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

TREETOP_LEVELS = [0, 2, 4, 6]
SCHEME = "dyn"
ACCEPTANCE_SPEEDUP_AT_4 = 1.25
#: one shard of a sharded bank: 32 MB -> 17-level nominal tree
SHARD_CAPACITY_BYTES = 32 << 20
#: LPDDR-class per-channel pins: streaming is bandwidth-dominated
CHANNEL_BANDWIDTH_GBPS = 4.0
DRAM_LATENCY_CYCLES = 50
#: tile height == gate treetop height: the pinned region is whole tiles
SUBTREE_LEVELS = 4
GATE_CHANNELS = 4


def bench_config(dram_model: str, treetop: int):
    config = experiment_config(capacity_bytes=SHARD_CAPACITY_BYTES)
    return dataclasses.replace(
        config,
        oram=dataclasses.replace(config.oram, treetop_levels=treetop),
        dram=dataclasses.replace(
            config.dram,
            model=dram_model,
            num_channels=GATE_CHANNELS if dram_model == "channel" else 1,
            bandwidth_gbps=CHANNEL_BANDWIDTH_GBPS,
            latency_cycles=DRAM_LATENCY_CYCLES,
            subtree_levels=SUBTREE_LEVELS,
        ),
    )


def run(trace, dram_model: str, treetop: int) -> dict:
    """One configuration: returns cycles + mean path-read latency."""
    config = bench_config(dram_model, treetop)
    system = SecureSystem.build(SCHEME, trace.footprint_blocks, config)
    result = system.run(trace)
    system.backend.oram.check_invariants()
    interconnect = system.backend.interconnect
    requests = result.demand_requests + result.prefetch_requests + result.write_accesses
    mean_path_read = result.extra["phase_path_read_cycles"] / requests
    summary = interconnect.summary()
    row = {
        "dram_model": dram_model,
        "treetop_levels": treetop,
        "offchip_levels": interconnect.offchip_levels,
        "cycles": result.cycles,
        "oram_requests": requests,
        "mean_path_read_cycles": round(mean_path_read, 2),
        "nominal_path_cycles": interconnect.path_cycles,
        "treetop_hits": int(summary["treetop_hits"]),
        "treetop_bytes_saved": int(summary["treetop_bytes_saved"]),
    }
    cache = system.backend.oram.tree.treetop
    row["treetop_flushes"] = cache.flushes if cache is not None else 0
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=6_000)
    parser.add_argument("--locality", type=float, default=0.8)
    parser.add_argument("-o", "--output", default="BENCH_treetop.json")
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="report only; skip the 1.25x acceptance assertion",
    )
    args = parser.parse_args(argv)
    if args.accesses < 1:
        parser.error("--accesses must be >= 1")

    trace = locality_mix_trace(args.locality, accesses=args.accesses)
    rows = []
    baselines = {}
    for dram_model in ("flat", "channel"):
        for treetop in TREETOP_LEVELS:
            row = run(trace, dram_model, treetop)
            rows.append(row)
            if treetop == 0:
                baselines[dram_model] = row["mean_path_read_cycles"]
            reduction = baselines[dram_model] / row["mean_path_read_cycles"]
            row["path_latency_reduction_vs_k0"] = round(reduction, 3)
            print(
                f"{dram_model:>7} k={treetop}: {row['cycles']:>12,} cycles, "
                f"mean path read {row['mean_path_read_cycles']:.0f} cyc "
                f"({reduction:.2f}x vs k=0, "
                f"{row['treetop_bytes_saved'] / (1 << 20):.0f} MiB saved)"
            )

    at_4 = next(
        r
        for r in rows
        if r["dram_model"] == "channel" and r["treetop_levels"] == 4
    )
    reduction_at_4 = at_4["path_latency_reduction_vs_k0"]
    verdict = reduction_at_4 >= ACCEPTANCE_SPEEDUP_AT_4
    print(
        f"4-level treetop path-latency reduction {reduction_at_4:.2f}x under "
        f"the {GATE_CHANNELS}-channel model (acceptance floor "
        f"{ACCEPTANCE_SPEEDUP_AT_4:.2f}x): " + ("PASS" if verdict else "FAIL")
    )

    artifact = {
        "workload": f"locality:{args.locality:g}",
        "scheme": SCHEME,
        "accesses": args.accesses,
        "shard_capacity_bytes": SHARD_CAPACITY_BYTES,
        "gate_channels": GATE_CHANNELS,
        "results": rows,
        "path_latency_reduction_at_treetop_4": reduction_at_4,
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
