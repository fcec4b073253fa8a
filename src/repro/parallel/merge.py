"""Merging per-shard results into the aggregate the serial bank reports.

The contract that makes the parallel runtime testable: running a request
stream through ``N`` worker processes and merging must produce the *same*
:class:`~repro.sim.results.SimResult` -- bit-identical, field for field --
as replaying the stream through an in-process
:class:`~repro.controller.sharded.ShardedORAMBank` of the same width.
Both sides funnel through this module: the snapshots come from
:func:`repro.controller.sharded.snapshot_shard_stats` either way, and
:func:`merge_shard_snapshots` is the only place aggregate semantics live
(sum the counters, max the watermarks, lookup-weight the hit rate), so
identity is structural rather than a property to chase.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.sim.results import SimResult

#: merged-counter fields summed straight off each shard's ``stats`` dict
_SUMMED_STAT_FIELDS = (
    "demand_requests",
    "prefetch_requests",
    "write_accesses",
    "memory_accesses",
    "dummy_accesses",
    "posmap_accesses",
    "busy_cycles",
)


def requests_from_trace(trace) -> List[Tuple[int, int, bool]]:
    """Flatten a :class:`~repro.sim.trace.Trace` into a request stream.

    Every reference becomes a demand request with the trace's inter-access
    gaps accumulated into arrival cycles -- a cache-less stand-in for a
    miss stream when a pre-captured one (see
    :func:`repro.sim.multicore.capture_miss_stream`) is not available.
    """
    requests: List[Tuple[int, int, bool]] = []
    now = 0
    for gap, addr, is_write in trace.entries:
        now += gap
        requests.append((addr, now, bool(is_write)))
    return requests


def merge_shard_snapshots(
    snapshots: Sequence[dict],
    completions: Sequence[int],
    *,
    workload: str,
    scheme: str,
) -> SimResult:
    """Fold per-shard counter snapshots into one bank-level result.

    Args:
        snapshots: one :func:`snapshot_shard_stats` dict per shard, in
            shard order.
        completions: completion cycle of every request, in input order;
            the run's cycle count is the last finishing one.
        workload: label for the result's workload field.
        scheme: label for the result's scheme field.
    """
    result = SimResult(
        workload=workload,
        scheme=scheme,
        cycles=max(completions, default=0),
        trace_entries=len(completions),
        llc_misses=len(completions),
    )
    for name in _SUMMED_STAT_FIELDS:
        setattr(result, name, sum(snap["stats"][name] for snap in snapshots))
    result.stash_max_occupancy = max(
        snap["stash_max_occupancy"] for snap in snapshots
    )
    lookups = sum(snap["posmap_lookups"] for snap in snapshots)
    hits = sum(snap["posmap_cache_hits"] for snap in snapshots)
    result.posmap_cache_hit_rate = hits / lookups if lookups else 0.0
    for snap in snapshots:
        scheme_stats = snap["scheme_stats"]
        result.merges += scheme_stats["merges"]
        result.breaks += scheme_stats["breaks"]
        result.prefetched_blocks += scheme_stats["prefetched_blocks"]
        result.prefetch_hits += scheme_stats["prefetch_hits"]
        result.prefetch_misses += scheme_stats["prefetch_misses"]
    result.extra["num_shards"] = len(snapshots)
    result.extra["stash_soft_overflows"] = sum(
        snap["stash_soft_overflows"] for snap in snapshots
    )
    phase_totals: dict = {}
    for snap in snapshots:
        for name, cycles in snap["phase_cycles"].items():
            phase_totals[name] = phase_totals.get(name, 0) + cycles
    for name, cycles in phase_totals.items():
        result.extra[f"phase_{name}_cycles"] = cycles
    return result


def run_serial_reference(
    scheme: str,
    footprint_blocks: int,
    requests: Sequence[Tuple[int, int, bool]],
    config: Optional[SystemConfig] = None,
    num_shards: int = 1,
    *,
    static_sbsize: Optional[int] = None,
    workload: str = "parallel",
    fsck: bool = False,
) -> SimResult:
    """Replay a request stream through an in-process sharded bank.

    This is the golden oracle for the parallel runtime: same shard
    construction (:func:`~repro.sim.system.build_shard_backend`), same
    per-shard request sub-streams, same snapshot/merge path -- just no
    processes.  ``ParallelShardRuntime.run`` must match its return value
    exactly.
    """
    from repro.controller.sharded import ShardedORAMBank
    from repro.sim.system import build_shard_backend

    config = config or SystemConfig()
    shards = [
        build_shard_backend(
            scheme,
            footprint_blocks,
            config,
            index,
            num_shards,
            static_sbsize=static_sbsize,
        )
        for index in range(num_shards)
    ]
    bank = ShardedORAMBank(shards)
    results = bank.access_batch(list(requests))
    completions: List[int] = [r.completion_cycle for r in results]
    bank.finalize(max(completions, default=0))
    if fsck:
        from repro.faults.fsck import run_fsck_bank

        report = run_fsck_bank(bank)
        if not report.ok:
            raise RuntimeError(f"serial reference fsck failed: {report.summary()}")
    return merge_shard_snapshots(
        bank.snapshot_shards(), completions, workload=workload, scheme=scheme
    )


def replay_issued_schedule(
    scheme: str,
    footprint_blocks: int,
    issued: Sequence[Tuple[int, int, bool]],
    config: Optional[SystemConfig] = None,
    num_shards: int = 1,
    *,
    static_sbsize: Optional[int] = None,
    workload: str = "serve",
    parallel: bool = False,
) -> SimResult:
    """Replay a serving front end's issued-access schedule.

    :attr:`repro.serve.ServingFrontEnd.issued` records every ORAM access
    the front end performed as ``(addr, issue_cycle, is_write)`` in issue
    order.  Replaying that schedule through a fresh bank of the same shape
    must merge to the exact SimResult the front end reported -- serially
    (the default) or through a :class:`~repro.parallel.runtime.
    ParallelShardRuntime` when ``parallel`` is set, which pins the front
    end as a drop-in scheduler for the process-parallel executor.
    """
    if not parallel:
        return run_serial_reference(
            scheme,
            footprint_blocks,
            issued,
            config,
            num_shards,
            static_sbsize=static_sbsize,
            workload=workload,
        )
    from repro.parallel.runtime import ParallelShardRuntime

    runtime = ParallelShardRuntime(
        scheme,
        footprint_blocks,
        config,
        num_shards,
        static_sbsize=static_sbsize,
    )
    try:
        return runtime.run(issued, workload=workload)
    finally:
        runtime.close()
