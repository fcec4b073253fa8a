"""Timed repetitions, correctness checks, the traced run, and the metrics.

One benchmark run of one workload:

1. Repeat *build + run* until ``seconds`` have passed (at least
   ``MIN_REPS`` times, and once per input stream), cycling through the
   workload's input streams, then build alone until ``MIN_SETUPS``
   builds are timed.  Between repetitions, time the fixed reference
   kernel of :mod:`perfbench.calibrate`, and scale each repetition's
   host times by the kernel's time around it over ``REFERENCE_S``.
   ``ops_per_s`` is the median repetition's scaled rate and ``setup_s``
   the median scaled build time: both are as a host would measure them
   on which the kernel takes ``REFERENCE_S`` seconds.  On a 2-CPU VM
   whose speed drifted by a factor of two over minutes, ten seeded
   40-second runs of ``replay_locality`` spread 29% (quartile distance
   over median) by the fastest repetition's raw rate, and 6% by the
   median scaled rate; ``serve_open``, whose speed the kernel follows
   less closely, spread 18% by the median scaled rate.
2. Check every repetition's output, and compare the first repetition of
   each stream, untimed, with an independent reference run.
3. Run stream 0 once more with the layer wrappers installed.  That run gives the
   per-layer self times and the per-miss latencies of the replay
   workloads.  Its simulated results must equal the untraced ones, and
   the layers' self times must add up to its wall time.  Because the
   outermost wrapped entry point spans nearly all of the run, that sum
   holds by construction once the run is traced at all: time outside
   every inner layer lands in the root layer's self time.  So the root
   layer's share of the traced wall is reported too
   (``trace.root_self_share``); it is the part the layers leave opaque.
4. With ``trace`` set, report the per-layer metrics, the Python call
   count per operation and the workload's extra probes instead of the
   end-to-end metrics.

Host times are wall-clock seconds on the machine that runs the benchmark;
only ``ops_per_s`` and ``setup_s`` are scaled to the reference host.  The
raw rates and the kernel's median time (``host.kernel_s``, per-layer) are
printed too, so the raw figures can be recovered.
Each repetition starts after a full garbage collection, so garbage left
by the one before is not charged to it.  Any failed check makes the
result incorrect and counts the operations of the affected run as
failed; refused requests count as failed too.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.calibrate import REFERENCE_S, kernel_seconds
from perfbench.tracer import LAYERS, Tracer
from perfbench.workloads import CHANNEL_LAYER_METRICS, WORKLOADS, Outcome, exact_quantile

MIN_REPS = 2
#: builds a run times at the least, so setup_s is a median of many even
#: when few repetitions fit into ``seconds``
MIN_SETUPS = 21
MAX_REPS = 500

#: name -> (unit, better); the end-to-end metrics, reported with trace off
END_TO_END = {
    "ops_per_s": ("ops/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_cycles": ("cycles", "lower"),
    "sim_p50_latency_cycles": ("cycles", "lower"),
    "sim_p99_latency_cycles": ("cycles", "lower"),
}

#: name -> (unit, better) of each layer's own counters
_LAYER_COUNTERS = {
    "cache.llc_miss_ratio": ("ratio", "lower"),
    "cache.dirty_evictions": ("count", "lower"),
    "oram_backend.write_accesses": ("count", "lower"),
    "oram_backend.busy_cycles": ("cycles", "lower"),
    "posmap.extra_paths": ("count", "lower"),
    "posmap.hit_ratio": ("ratio", "higher"),
    "path_read.phase_cycles": ("cycles", "lower"),
    "remap.merges": ("count", "higher"),
    "remap.breaks": ("count", "lower"),
    "remap.prefetched_blocks": ("count", "higher"),
    "remap.prefetch_useful_ratio": ("ratio", "higher"),
    "writeback.background_evictions": ("count", "lower"),
    "writeback.stash_max_occupancy": ("blocks", "lower"),
    "writeback.phase_cycles": ("cycles", "lower"),
    "interconnect.row_hit_ratio": ("ratio", "higher"),
    "interconnect.bank_wait_cycles": ("cycles", "lower"),
    "interconnect.mean_path_cycles": ("cycles", "lower"),
    "treetop.hits": ("count", "higher"),
    "treetop.bytes_saved": ("bytes", "higher"),
    "treetop.flushed_buckets": ("count", "lower"),
    "serve.shed": ("count", "lower"),
    "serve.coalesced": ("count", "higher"),
    "serve.full_closes": ("count", "higher"),
    "serve.deadline_closes": ("count", "lower"),
    "serve.drain_closes": ("count", "lower"),
    "serve.batch_occupancy_mean": ("accesses", "higher"),
    "serve.queue_wait_mean_cycles": ("cycles", "lower"),
    "transport.roundtrip_p50_us": ("us", "lower"),
    "transport.roundtrip_p99_us": ("us", "lower"),
    "transport.roundtrip_mean_us": ("us", "lower"),
    "checkpoint.calls": ("count", "lower"),
    "checkpoint.self_s": ("s", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.restore_s": ("s", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
}

#: name -> (unit, better); the per-layer metrics, reported with trace on
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER.update(_LAYER_COUNTERS)
for _name in CHANNEL_LAYER_METRICS:
    PER_LAYER[f"channel.{_name}"] = PER_LAYER[_name]
PER_LAYER.update(
    {
        "channel.trace.wall_s": ("s", "lower"),
        "channel.sim_cycles": ("cycles", "lower"),
        "sim.py_calls_per_op": ("calls/op", "lower"),
        "sim.latency_samples": ("count", "higher"),
        "sim.latency_max_pct": ("%", "higher"),
        "sim_max_rate_under_slo": ("req/kcycle", "higher"),
        "slo_miss_fraction": ("ratio", "lower"),
        "failed_fraction": ("ratio", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.untraced_wall_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.unattributed_s": ("s", "lower"),
        "trace.root_self_share": ("ratio", "lower"),
        "host.kernel_s": ("s", "lower"),
    }
)

#: largest share of the traced wall time the layer self times may miss
TRACE_SUM_TOLERANCE = 0.05


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    *,
    scale: float = 1.0,
    emit: Callable[[str], None] = print,
) -> dict:
    """Run one workload; return the result object the command prints."""
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(name, seed, seconds, trace, workdir, scale, emit)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, workdir, scale, emit) -> dict:
    workload = WORKLOADS[name](seed, scale, workdir)
    errors: List[str] = []
    attempted = failed = 0

    def account(outcome, problems: List[str]) -> None:
        nonlocal attempted, failed
        attempted += outcome.attempted
        failed += outcome.attempted if problems else outcome.refused
        errors.extend(problems)

    setups: List[float] = []
    walls: List[float] = []
    raw_rates: List[float] = []
    rates: List[float] = []
    kernels = [kernel_seconds()]
    # Only the first outcome of each input stream is kept; each later one
    # is compared with it and dropped, so peak memory does not grow with
    # the number of repetitions that fit into ``seconds``.
    firsts: List[Optional[Outcome]] = [None] * workload.STREAMS
    deadline = time.perf_counter() + seconds
    while len(walls) < max(MIN_REPS, workload.STREAMS) or (
        time.perf_counter() < deadline and len(walls) < MAX_REPS
    ):
        stream = len(walls) % workload.STREAMS
        feed = workload.prepare(stream)
        gc.collect()
        start = time.perf_counter()
        subject = workload.build()
        built = time.perf_counter()
        outcome = workload.execute(subject, feed)
        done = time.perf_counter()
        problems = workload.check(subject, outcome)
        first = firsts[stream]
        if first is None:
            problems += workload.reference_check(subject, outcome)
            firsts[stream] = outcome
        elif outcome.signature != first.signature:
            problems.append("a repetition simulated different results")
        account(outcome, problems)
        ops = outcome.ops
        subject = feed = outcome = None
        kernels.append(kernel_seconds())
        # > 1 while the host runs slower than the reference host
        slowdown = (kernels[-2] + kernels[-1]) / (2 * REFERENCE_S)
        setups.append((built - start) / slowdown)
        walls.append(done - built)
        raw_rates.append(ops / (done - built))
        rates.append(raw_rates[-1] * slowdown)
    slowdown = kernels[-1] / REFERENCE_S
    while len(setups) < MIN_SETUPS:
        gc.collect()
        start = time.perf_counter()
        workload.build()
        setups.append((time.perf_counter() - start) / slowdown)

    tracer = Tracer()
    subject, traced, traced_wall = workload.traced(tracer, workload.prepare(0))
    problems = workload.check(subject, traced)
    if traced.signature != firsts[0].signature:
        problems.append("tracing changed the simulated results")
    account(traced, problems)
    counters = workload.layer_counters(subject, traced, tracer) if trace else {}
    subject = None

    latencies = sorted(workload.latencies(firsts, tracer))
    if not latencies:
        errors.append("the run produced no latency samples")
    # highest percentile with at least ten samples above it
    supported_pct = 100.0 * (1.0 - 10.0 / len(latencies)) if len(latencies) >= 10 else 0.0
    attributed = tracer.total_self_s()
    untraced = statistics.median(walls)
    root = tracer.root_layer
    root_share = tracer.self_s.get(root, 0.0) / traced_wall
    if abs(traced_wall - attributed) > TRACE_SUM_TOLERANCE * traced_wall:
        errors.append(
            f"layer self times sum to {attributed:.4f} s, "
            f"not the traced wall time {traced_wall:.4f} s"
        )

    if not trace:
        metrics = {
            "ops_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "sim_cycles": sum(outcome.sim_cycles for outcome in firsts),
            "sim_p50_latency_cycles": exact_quantile(latencies, 0.50),
            "sim_p99_latency_cycles": exact_quantile(latencies, 0.99),
        }
        units = END_TO_END
    else:
        metrics = dict.fromkeys(PER_LAYER, 0)
        metrics.update(counters)
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = tracer.calls.get(layer, 0)
            metrics[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
        metrics.update(workload.extra_layer_metrics())
        attempted += workload.extra_ops
        if workload.problems:
            failed += workload.extra_ops
            errors.extend(workload.problems)
        metrics.update(
            {
                "sim.py_calls_per_op": workload.python_calls_per_op(),
                "sim.latency_samples": len(latencies),
                "sim.latency_max_pct": supported_pct,
                "slo_miss_fraction": sum(o.refused + o.late for o in firsts)
                / sum(o.attempted for o in firsts),
                "failed_fraction": failed / attempted,
                "trace.wall_s": traced_wall,
                "trace.untraced_wall_s": untraced,
                "trace.overhead_s": traced_wall - untraced,
                "trace.unattributed_s": traced_wall - attributed,
                "trace.root_self_share": root_share,
                "host.kernel_s": statistics.median(kernels),
            }
        )
        units = PER_LAYER
        for layer in LAYERS:
            self_s = tracer.self_s.get(layer, 0.0)
            emit(
                f"layer {layer:<13} calls {tracer.calls.get(layer, 0):>9} "
                f"self {self_s:9.4f} s  {100 * self_s / traced_wall:5.1f}% of the traced run"
            )

    emit(
        f"{len(walls)} timed repetitions: raw ops/s from {min(raw_rates):.1f} "
        f"to {max(raw_rates):.1f}; reference kernel from {min(kernels):.4f} s "
        f"to {max(kernels):.4f} s (reference host {REFERENCE_S} s); scaled ops/s "
        f"from {min(rates):.1f} to {max(rates):.1f}; {len(setups)} scaled builds "
        f"from {min(setups):.4f} s to {max(setups):.4f} s"
    )
    emit(
        f"traced run {traced_wall:.4f} s, untraced median {untraced:.4f} s, "
        f"layer self times sum to {attributed:.4f} s, "
        f"{100 * root_share:.1f}% of the traced wall in the root layer {root}'s own code"
    )
    emit(
        f"{len(latencies)} latency samples; the highest percentile with ten "
        f"samples beyond it is p{supported_pct:.3f}"
    )
    for line in workload.notes:
        emit(line)
    for problem in errors:
        emit(f"CHECK FAILED: {problem}")
    for key, value in metrics.items():
        emit(f"{key} = {value} {units[key][0]}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key][0]} for key, value in metrics.items()
        },
    }
