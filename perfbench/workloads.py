"""The benchmark workloads, driven through the simulator's public API.

Each workload turns a seed into inputs, builds a fresh system (caches and
trees start empty on every repetition, which is what users pay), runs it,
and checks what came out.  The harness in :mod:`perfbench.harness` times
``build`` as set-up and ``execute`` as the measured work.

Two replays are not timed workloads, because their host time spread
more than the benchmark's bound between runs on a shared 2-CPU host: the
durable process-parallel replay (it needs both CPUs) and TPC-C on the
channel DRAM model (it allocates heavily).  Both run inside
``replay_locality``'s traced run instead, where the first gives the
transport and checkpoint layers and the second the channel interconnect
and treetop layers.

Simulated results are deterministic given the inputs, so every
repetition of an input stream, and the traced run of stream 0, must
report the same simulated values.
"""

from __future__ import annotations

import cProfile
import dataclasses
import math
import os
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import experiment_config
from repro.config import ServeConfig, SystemConfig
from repro.faults.fsck import run_fsck, run_fsck_bank
from repro.memory.oram_backend import ORAMBackend
from repro.observability.metrics import CycleHistogram
from repro.oram.checkpoint import restore_backend, save_backend
from repro.parallel import ParallelShardRuntime, run_serial_reference
from repro.parallel.merge import replay_issued_schedule
from repro.serve import OpenLoopSource, ServingFrontEnd
from repro.sim.multicore import capture_miss_stream
from repro.sim.system import SecureSystem, build_shard_backend
from repro.workloads.dbms import tpcc_trace
from repro.workloads.synthetic import locality_mix_trace

from perfbench.tracer import Tracer

SCHEME = "dyn"


@dataclasses.dataclass
class Outcome:
    """What one repetition produced.

    ``signature`` holds every simulated value the run reports; it must be
    identical across repetitions and between traced and untraced runs.
    """

    attempted: int
    ops: int
    refused: int
    sim_cycles: int
    signature: object
    #: per-operation latency in cycles, when the run itself yields it
    latencies: Optional[List[int]] = None
    late: int = 0


def exact_quantile(ordered: Sequence[int], q: float) -> int:
    """Nearest-rank quantile of an ascending sequence."""
    if not ordered:
        return 0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def profiled_calls(function, *args) -> int:
    """Python-level function calls made by ``function(*args)``.

    Counts come from ``cProfile`` (every Python and builtin call), so they
    depend only on the code path taken, never on host speed.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        function(*args)
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


class Workload:
    """One named set of inputs and the way the benchmark drives it."""

    name = ""
    why = ""
    #: independent input streams a run cycles through; the simulated
    #: metrics cover all of them, the traced run uses stream 0
    STREAMS = 1

    def __init__(self, seed: int, scale: float, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.config = self.system_config()
        #: human-readable lines the harness prints before the result
        self.notes: List[str] = []
        #: operations run and checks failed outside the timed repetitions
        self.extra_ops = 0
        self.problems: List[str] = []

    def system_config(self) -> SystemConfig:
        return experiment_config()

    def size(self, full: int) -> int:
        return max(1, int(full * self.scale))

    # ---------------------------------------------------------- per repetition
    def prepare(self, stream: int):
        """Untimed input of one repetition (a fresh copy when runs consume it)."""
        return None

    def build(self):
        raise NotImplementedError

    def execute(self, subject, feed) -> Outcome:
        raise NotImplementedError

    def check(self, subject, outcome: Outcome) -> List[str]:
        """Errors in one repetition's output (empty when it is correct)."""
        return []

    def traced(self, tracer: Tracer, feed) -> Tuple[object, Outcome, float]:
        """Build and run with the layer wrappers installed."""
        with tracer.installed():
            subject = self.build()
            start = time.perf_counter()
            outcome = self.execute(subject, feed)
            wall = time.perf_counter() - start
        return subject, outcome, wall

    # ------------------------------------------------------------------ once
    def reference_check(self, subject, outcome: Outcome) -> List[str]:
        """Untimed comparison against an independent reference run."""
        return []

    def latencies(self, outcomes: Sequence[Outcome], tracer: Tracer) -> List[int]:
        """Latency samples of every stream (the traced run's, if runs yield none)."""
        if outcomes[0].latencies is not None:
            return [latency for outcome in outcomes for latency in outcome.latencies]
        return tracer.demand_latencies

    def layer_counters(self, subject, outcome: Outcome, tracer: Tracer) -> Dict[str, float]:
        return {}

    def extra_layer_metrics(self) -> Dict[str, float]:
        return {}

    def python_calls_per_op(self) -> float:
        raise NotImplementedError


def sim_counters(result: dict, backends: Sequence[ORAMBackend]) -> Dict[str, float]:
    """Per-layer simulated counters from a SimResult's fields and its backends."""
    extra = result["extra"]
    prefetched = result["prefetched_blocks"]
    counters = {
        "oram_backend.write_accesses": result["write_accesses"],
        "oram_backend.busy_cycles": result["busy_cycles"],
        "posmap.extra_paths": result["posmap_accesses"],
        "posmap.hit_ratio": result["posmap_cache_hit_rate"],
        "path_read.phase_cycles": extra.get("phase_path_read_cycles", 0),
        "remap.merges": result["merges"],
        "remap.breaks": result["breaks"],
        "remap.prefetched_blocks": prefetched,
        "remap.prefetch_useful_ratio": (
            result["prefetch_hits"] / prefetched if prefetched else 0.0
        ),
        "writeback.background_evictions": result["dummy_accesses"],
        "writeback.stash_max_occupancy": result["stash_max_occupancy"],
        "writeback.phase_cycles": extra.get("phase_writeback_cycles", 0),
    }
    row_hits = row_misses = bank_wait = streamed = streamed_cycles = 0
    treetop_hits = bytes_saved = flushed = 0
    for backend in backends:
        interconnect = backend.interconnect
        summary = interconnect.summary()
        row_hits += summary.get("row_hits", 0)
        row_misses += summary.get("row_misses", 0)
        bank_wait += summary.get("bank_wait_cycles", 0)
        streamed += summary["streamed_paths"]
        streamed_cycles += summary.get(
            "streamed_cycles", summary["streamed_paths"] * interconnect.path_cycles
        )
        treetop_hits += summary["treetop_hits"]
        bytes_saved += summary["treetop_bytes_saved"]
        treetop = backend.oram.tree.treetop
        if treetop is not None:
            flushed += treetop.flushed_buckets
    counters.update(
        {
            "interconnect.row_hit_ratio": (
                row_hits / (row_hits + row_misses) if row_hits + row_misses else 0.0
            ),
            "interconnect.bank_wait_cycles": bank_wait,
            "interconnect.mean_path_cycles": (
                streamed_cycles / streamed if streamed else 0.0
            ),
            "treetop.hits": treetop_hits,
            "treetop.bytes_saved": bytes_saved,
            "treetop.flushed_buckets": flushed,
        }
    )
    return counters


# --------------------------------------------------------------------- replay
class ReplayWorkload(Workload):
    """A trace replayed by one in-order core through L1, LLC and the ORAM."""

    def __init__(self, seed: int, scale: float, workdir: str):
        super().__init__(seed, scale, workdir)
        self.trace = self.make_trace()

    def make_trace(self):
        raise NotImplementedError

    def build(self) -> SecureSystem:
        return SecureSystem.build(SCHEME, self.trace.footprint_blocks, self.config)

    def execute(self, system: SecureSystem, feed) -> Outcome:
        result = system.run(self.trace)
        entries = len(self.trace)
        return Outcome(
            attempted=entries,
            ops=entries,
            refused=0,
            sim_cycles=result.cycles,
            signature=dataclasses.asdict(result),
        )

    def check(self, system: SecureSystem, outcome: Outcome) -> List[str]:
        errors = []
        result = outcome.signature
        if result["trace_entries"] != len(self.trace):
            errors.append("replay stopped before the end of the trace")
        if result["l1_hits"] + result["llc_hits"] + result["llc_misses"] != len(self.trace):
            errors.append("hits and misses do not add up to the trace length")
        if result["demand_requests"] != result["llc_misses"]:
            errors.append("LLC misses and ORAM demand requests differ")
        report = run_fsck(system.backend.oram)
        if not report.ok:
            errors.append(report.summary())
        return errors

    def layer_counters(self, system, outcome, tracer) -> Dict[str, float]:
        result = outcome.signature
        lookups = result["llc_hits"] + result["llc_misses"]
        counters = sim_counters(result, [system.backend])
        counters["cache.llc_miss_ratio"] = (
            result["llc_misses"] / lookups if lookups else 0.0
        )
        counters["cache.dirty_evictions"] = tracer.dirty_evictions
        return counters

    def python_calls_per_op(self) -> float:
        system = self.build()
        return profiled_calls(system.run, self.trace) / len(self.trace)


class ReplayLocality(ReplayWorkload):
    name = "replay_locality"
    why = (
        "default hot path: 80% sequential reads on flat DRAM, where PrORAM "
        "merges and prefetches most"
    )
    ACCESSES = 30_000

    def make_trace(self):
        return locality_mix_trace(0.8, accesses=self.size(self.ACCESSES), seed=self.seed)

    def extra_layer_metrics(self) -> Dict[str, float]:
        trace = locality_mix_trace(
            0.8, accesses=self.size(PARALLEL_ACCESSES), seed=self.seed
        )
        metrics = durable_parallel_layers(self, trace)
        metrics.update(channel_replay_layers(self))
        return metrics


class ReplayTpccChannel(ReplayWorkload):
    """TPC-C on the 4-channel DRAM model with a 4-level treetop.

    Rows are scattered and written, so the interconnect does most of the
    work and remap little.
    """

    TRANSACTIONS = 600

    def system_config(self) -> SystemConfig:
        config = experiment_config()
        return dataclasses.replace(
            config,
            oram=dataclasses.replace(config.oram, treetop_levels=4),
            dram=dataclasses.replace(config.dram, model="channel", num_channels=4),
        )

    def make_trace(self):
        return tpcc_trace(transactions=self.size(self.TRANSACTIONS), seed=self.seed)


#: per-layer metrics of the traced channel replay, reported as ``channel.<name>``
CHANNEL_LAYER_METRICS = (
    "interconnect.self_s",
    "interconnect.row_hit_ratio",
    "interconnect.bank_wait_cycles",
    "interconnect.mean_path_cycles",
    "remap.self_s",
    "remap.merges",
    "treetop.hits",
    "treetop.bytes_saved",
    "treetop.flushed_buckets",
    "oram_backend.write_accesses",
)


def channel_replay_layers(owner: Workload) -> Dict[str, float]:
    """Per-layer trace of TPC-C on the 4-channel DRAM model with a treetop.

    This replay is not a timed workload -- its host time spread more than
    the benchmark's bound between runs -- but its trace is the contrast
    to ``replay_locality``: the interconnect takes a large share of host
    time here and remap a small one.  Its operations and failed checks
    count toward ``owner``'s.
    """
    workload = ReplayTpccChannel(owner.seed, owner.scale, owner.workdir)
    tracer = Tracer()
    system, outcome, wall = workload.traced(tracer, None)
    owner.extra_ops += outcome.attempted
    owner.problems.extend(workload.check(system, outcome))
    counters = workload.layer_counters(system, outcome, tracer)
    counters["interconnect.self_s"] = tracer.self_s["interconnect"]
    counters["remap.self_s"] = tracer.self_s["remap"]
    shares = ", ".join(
        f"{layer} {100 * tracer.self_s[layer] / wall:.1f}%"
        for layer in ("interconnect", "writeback", "path_read", "oram_backend", "remap")
    )
    owner.notes.append(
        f"traced channel replay: {len(workload.trace)} TPC-C entries in "
        f"{wall:.3f} s, {outcome.sim_cycles} cycles; self time {shares}"
    )
    metrics = {f"channel.{name}": counters[name] for name in CHANNEL_LAYER_METRICS}
    metrics["channel.trace.wall_s"] = wall
    metrics["channel.sim_cycles"] = outcome.sim_cycles
    return metrics


# ---------------------------------------------------------------------- serve
class RecordingSource(OpenLoopSource):
    """Open-loop source that records each request's exact latency.

    Latency runs from the request's ``arrival_cycle``, the cycle it was
    due, so time a request spends queued behind others is counted.
    """

    def __init__(self, num_tenants: int, weights=None):
        super().__init__(num_tenants, weights)
        self.latencies: List[int] = []
        self.shed = 0
        self.late = 0

    def on_completion(self, request, cycle: int) -> None:
        latency = cycle - request.arrival_cycle
        self.latencies.append(latency)
        if latency > request.deadline_cycles:
            self.late += 1

    def on_shed(self, request, cycle: int) -> None:
        self.shed += 1


class ServeOpen(Workload):
    name = "serve_open"
    why = (
        "4 tenants in an open loop at 1.67 req/kcycle on a 4-shard bank: "
        "the only workload with admission, fair queues, coalescing and batching"
    )
    TENANTS = 4
    SHARDS = 4
    #: Two streams of 12k requests a tenant: 96k latency samples keep the
    #: exact p99's spread across ten seeds within 5-8% (one stream: up to
    #: 14%, when a burst in one seed's arrivals dominates the tail), while
    #: each repetition stays short enough (~3.5 s) for the reference
    #: kernel timed between repetitions to follow the host's speed.
    STREAMS = 2
    REQUESTS_PER_TENANT = 12_000
    FOOTPRINT_PER_TENANT = 2_048
    #: offered load in requests per thousand simulated cycles
    OFFERED_RATE = 1.67
    #: rates probed for the highest one that meets the latency limit
    LADDER = (1.2, 1.4, 1.5, 1.6, 1.67, 1.75, 1.85, 2.0, 2.2)

    def source(self, rate: float, requests_per_tenant: int, stream: int = 0) -> RecordingSource:
        return RecordingSource.synthetic(
            self.TENANTS,
            requests_per_tenant,
            footprint_per_tenant=self.FOOTPRINT_PER_TENANT,
            gap_mean=1000.0 * self.TENANTS / rate,
            seed=self.seed * self.STREAMS + stream,
        )

    def prepare(self, stream: int) -> RecordingSource:
        return self.source(
            self.OFFERED_RATE, self.size(self.REQUESTS_PER_TENANT), stream
        )

    def build(self) -> ServingFrontEnd:
        return ServingFrontEnd.build(
            SCHEME,
            self.TENANTS * self.FOOTPRINT_PER_TENANT,
            self.config,
            self.SHARDS,
            serve_config=ServeConfig(),
            workload=self.name,
        )

    def execute(self, frontend: ServingFrontEnd, source: RecordingSource) -> Outcome:
        report = frontend.run(source)
        summary = report.as_dict()
        return Outcome(
            attempted=report.offered,
            ops=report.served,
            refused=report.shed,
            sim_cycles=report.makespan_cycles,
            signature=(summary, tuple(source.latencies)),
            latencies=source.latencies,
            late=source.late,
        )

    def check(self, frontend, outcome: Outcome) -> List[str]:
        summary = outcome.signature[0]
        errors = []
        if summary["served"] + summary["shed"] != summary["offered"]:
            errors.append("served plus shed does not equal offered")
        if len(outcome.latencies) != summary["served"]:
            errors.append("completion callbacks do not match served requests")
        if any(latency < 0 for latency in outcome.latencies):
            errors.append("a request completed before it arrived")
        report = run_fsck_bank(frontend.bank)
        if not report.ok:
            errors.append(report.summary())
        return errors

    def reference_check(self, frontend: ServingFrontEnd, outcome: Outcome) -> List[str]:
        replayed = replay_issued_schedule(
            SCHEME,
            self.TENANTS * self.FOOTPRINT_PER_TENANT,
            frontend.issued,
            self.config,
            self.SHARDS,
            workload=self.name,
        )
        if dataclasses.asdict(replayed) != outcome.signature[0]["sim"]:
            return ["replaying the issued schedule gives a different SimResult"]
        return []

    def layer_counters(self, frontend, outcome, tracer) -> Dict[str, float]:
        summary = outcome.signature[0]
        counters = sim_counters(summary["sim"], frontend.bank.shards)
        registry = frontend.registry
        counters.update(
            {
                "serve.shed": summary["shed"],
                "serve.coalesced": summary["coalesced"],
                "serve.full_closes": summary["full_closes"],
                "serve.deadline_closes": summary["deadline_closes"],
                "serve.drain_closes": summary["drain_closes"],
                "serve.batch_occupancy_mean": registry.histogram(
                    "serve.batch_occupancy"
                ).mean,
                "serve.queue_wait_mean_cycles": registry.histogram(
                    "serve.queue_wait_cycles"
                ).mean,
            }
        )
        return counters

    def extra_layer_metrics(self) -> Dict[str, float]:
        """Highest ladder rate whose exact p99 meets the deadline, none shed.

        The ladder is walked upwards and stops at the first rate that
        misses.  Each rate runs half the main stream's requests.
        """
        deadline = ServeConfig().deadline_cycles
        best = 0.0
        for rate in self.LADDER:
            source = self.source(rate, self.size(self.REQUESTS_PER_TENANT // 2))
            self.build().run(source)
            p99 = exact_quantile(sorted(source.latencies), 0.99)
            ok = p99 <= deadline and source.shed == 0
            self.notes.append(
                f"ladder {rate:.2f} req/kcycle: exact p99 {p99} cycles, "
                f"shed {source.shed}: {'meets' if ok else 'misses'} the limit"
            )
            if not ok:
                break
            best = rate
        return {"sim_max_rate_under_slo": best}

    def python_calls_per_op(self) -> float:
        source = self.prepare(0)
        frontend = self.build()
        calls = profiled_calls(frontend.run, source)
        return calls / max(1, len(source.latencies))


# ------------------------------------------------------------------- parallel
#: worker processes of the durable parallel replay (the host has two CPUs)
PARALLEL_WORKERS = 2
#: locality-trace accesses whose LLC misses the parallel replay ships
PARALLEL_ACCESSES = 4_000


def durable_parallel_layers(owner: Workload, trace) -> Dict[str, float]:
    """Transport and checkpoint layers of a durable process-parallel replay.

    The LLC-miss stream of ``trace`` is shipped to a
    :class:`ParallelShardRuntime` at its defaults -- checkpoint after
    every batch -- and the merged result must equal the in-process serial
    reference.  Workers checkpoint in their own processes, out of the
    wrappers' reach, so ``checkpoint.self_s`` is the run's checkpoint
    count times the median save time of a shard backend of the same
    geometry, timed here.  The requests and failed checks count toward
    ``owner``'s.
    """
    config = owner.config
    workdir = owner.workdir
    requests = capture_miss_stream(SCHEME, [trace], config=config)
    footprint = trace.footprint_blocks
    checkpoint_dir = os.path.join(workdir, "checkpoints")
    tracer = Tracer()
    runtime = ParallelShardRuntime(
        SCHEME, footprint, config, PARALLEL_WORKERS, checkpoint_dir=checkpoint_dir
    )
    try:
        # Workers fork when the runtime is built; wrapping afterwards keeps
        # the trace on this process, where the transport runs.
        with tracer.installed():
            start = time.perf_counter()
            merged = runtime.run(requests, workload="parallel")
            wall = time.perf_counter() - start
        registry = runtime.registry
    finally:
        runtime.close()
    serial = run_serial_reference(
        SCHEME, footprint, requests, config, PARALLEL_WORKERS, workload="parallel"
    )
    owner.extra_ops += len(requests)
    if merged != serial:
        owner.problems.append(
            "the merged parallel result differs from the serial reference"
        )

    roundtrips = CycleHistogram("transport.roundtrip_us")
    for index in range(PARALLEL_WORKERS):
        hist = registry.histogram(f"parallel.worker{index}.batch_roundtrip_us")
        roundtrips.counts = [a + b for a, b in zip(roundtrips.counts, hist.counts)]
        roundtrips.total += hist.total
        roundtrips.sum += hist.sum
    # one genesis checkpoint per worker, then one per batch
    checkpoints = PARALLEL_WORKERS + sum(
        registry.counter(f"parallel.worker{index}.batches").value
        for index in range(PARALLEL_WORKERS)
    )
    checkpoint_bytes = sum(
        os.path.getsize(os.path.join(checkpoint_dir, name))
        for name in os.listdir(checkpoint_dir)
    )

    backend = build_shard_backend(SCHEME, footprint, config, 0, PARALLEL_WORKERS)
    path = os.path.join(workdir, "timed.ckpt")
    saves, restores = [], []
    for _ in range(5):
        start = time.perf_counter()
        save_backend(backend, path)
        saves.append(time.perf_counter() - start)
        start = time.perf_counter()
        restore_backend(backend, path)
        restores.append(time.perf_counter() - start)
    os.remove(path)
    save_s = statistics.median(saves)
    owner.notes.append(
        f"durable parallel replay: {len(requests)} requests on {PARALLEL_WORKERS} "
        f"workers in {wall:.3f} s ({len(requests) / wall:.1f} req/s), "
        f"{checkpoints} checkpoints of {save_s:.4f} s each"
    )
    return {
        "transport.calls": tracer.calls["transport"],
        "transport.self_s": tracer.self_s["transport"],
        "transport.roundtrip_p50_us": roundtrips.quantile(0.5),
        "transport.roundtrip_p99_us": roundtrips.quantile(0.99),
        "transport.roundtrip_mean_us": roundtrips.mean,
        "checkpoint.calls": checkpoints,
        "checkpoint.self_s": checkpoints * save_s,
        "checkpoint.save_s": save_s,
        "checkpoint.restore_s": statistics.median(restores),
        "checkpoint.bytes": checkpoint_bytes,
    }


WORKLOADS = {cls.name: cls for cls in (ReplayLocality, ServeOpen)}
