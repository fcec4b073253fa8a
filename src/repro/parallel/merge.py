"""Merging per-shard results into the aggregate the serial bank reports.

The contract that makes the parallel runtime testable: running a request
stream through ``N`` worker processes and merging must produce the *same*
:class:`~repro.sim.results.SimResult` -- bit-identical, field for field --
as replaying the stream through an in-process
:class:`~repro.controller.sharded.ShardedORAMBank` of the same width.
Both sides funnel through this module: the records come from
:func:`repro.controller.sharded.snapshot_shard_stats` either way, and
:func:`merge_shard_snapshots` folds them with
:func:`repro.sim.results.fold_shard_records` -- the same fold
:meth:`repro.sim.system.SecureSystem.run` uses -- so identity is
structural rather than a property to chase.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.sim.results import SimResult, fold_shard_records


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
        snapshots: one :func:`~repro.controller.sharded.snapshot_shard_stats`
            record per shard, in shard order.
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
        extra={"num_shards": len(snapshots)},
    )
    return result.add_backend_record(fold_shard_records(snapshots))


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
    # Shards share no recorder, injector or health plane here, so serving
    # the stream in input order gives every shard its arrival-ordered
    # sub-stream -- exactly what a worker process sees.
    completions: List[int] = [
        bank.demand_access(addr, now, is_write).completion_cycle
        for addr, now, is_write in requests
    ]
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
