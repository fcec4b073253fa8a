"""Metric collection: one place that knows where every counter lives.

Historically each consumer walked the component graph itself -- the
profiler built one ad-hoc ``Dict[str, int]``, benchmarks another, and the
CLI a third.  This module centralizes that walk: :func:`collect_system`
samples a finished :class:`~repro.sim.system.SecureSystem` into a
:class:`~repro.observability.metrics.MetricsRegistry` under stable
dot-separated names, and :func:`system_counters` flattens the registry
back into the legacy profiler key set (the part after the first dot), so
existing artifacts keep their schema.

Collection is snapshot-style: components keep owning their cheap inline
counters (dataclass fields, bare attributes -- the hot path never touches
a registry), and the registry is populated by copying after the run.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Optional

from .metrics import CycleHistogram, MetricsRegistry
from .recorder import InMemoryRecorder
from .spans import is_span


def _treetop_flushes(registry: MetricsRegistry, prefix: str, oram) -> None:
    """Export ``{prefix}.treetop_flushes`` / ``.treetop_flushed_buckets``
    when the controller's tree carries a treetop cache."""
    cache = oram.tree.treetop
    if cache is None:
        return
    registry.counter(f"{prefix}.treetop_flushes").set(cache.flushes)
    registry.counter(f"{prefix}.treetop_flushed_buckets").set(cache.flushed_buckets)


def collect_system(system, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Sample every component counter of a finished system run.

    Registry names group by component: ``cache.*``, ``backend.*``,
    ``oram.*``, ``pipeline.*``, ``bank.*``, ``faults.*``, ``scheme.*``.
    The flat legacy key of each metric is the name after the first dot.
    """
    # Local imports: the controller and simulator import this package.
    from repro.controller.sharded import snapshot_shard_stats
    from repro.sim.results import fold_shard_records

    registry = registry if registry is not None else MetricsRegistry()
    hierarchy = system.hierarchy
    registry.counter("cache.l1_hits").set(hierarchy.l1.hits)
    registry.counter("cache.l1_misses").set(hierarchy.l1.misses)
    registry.counter("cache.llc_hits").set(hierarchy.llc.hits)
    registry.counter("cache.llc_misses").set(hierarchy.llc.misses)
    registry.counter("cache.llc_evictions").set(hierarchy.llc.evictions)
    registry.counter("cache.llc_tag_probes").set(hierarchy.llc.probe_count)

    backend = system.backend
    # A single controller and a sharded bank report the same fold of
    # their per-shard records; a DRAM backend has no controller.
    bank_shards = getattr(backend, "shards", None)
    shards = bank_shards or ([backend] if hasattr(backend, "oram") else [])
    total = fold_shard_records(snapshot_shard_stats(shard) for shard in shards)
    stats = total["stats"] if shards else asdict(backend.stats)
    for name in (
        "demand_requests",
        "write_accesses",
        "posmap_accesses",
        "dummy_accesses",
        "memory_accesses",
    ):
        registry.counter(f"backend.{name}").set(stats[name])

    if shards:
        registry.gauge("oram.stash_max_occupancy").set(total["stash_max_occupancy"])
        registry.counter("oram.stash_soft_overflows").set(total["stash_soft_overflows"])
        registry.counter("oram.real_path_accesses").set(total["real_path_accesses"])
        registry.counter("oram.dummy_path_accesses").set(total["dummy_path_accesses"])
        for name, cycles in total["phase_cycles"].items():
            registry.counter(f"pipeline.phase_{name}_cycles").set(cycles)
    if bank_shards:
        registry.gauge("bank.num_shards").set(backend.num_shards)
        health = backend.health
        if health is not None:
            health.to_registry(registry)

    # Memory-interconnect occupancy: per-channel gauges/counters for a
    # single controller, per-shard prefixes for a sharded bank.  The
    # treetop flush counter lives on the functional tree (write-back is a
    # tree-side event) but is exported under the interconnect namespace
    # next to its hit/bytes-saved siblings.
    if bank_shards:
        for index, shard in enumerate(bank_shards):
            prefix = f"interconnect.shard{index}"
            shard.interconnect.to_registry(registry, prefix=prefix)
            _treetop_flushes(registry, prefix, shard.oram)
    elif shards:
        backend.interconnect.to_registry(registry)
        _treetop_flushes(registry, "interconnect", backend.oram)

    for name, value in total.get("faults", {}).items():
        registry.counter(f"faults.{name}").set(value)
    # Bank shards share one injector: its count is read once, not summed.
    injector = shards[0].injector if shards else None
    if injector is not None:
        registry.counter("faults.injected_faults").set(injector.stats.total_injected)

    if shards:
        for name, value in total["scheme_stats"].items():
            registry.counter(f"scheme.{name}").set(value)
    return registry


#: serve.* counters forced to exist (as zero) in every collection -- a
#: report that says 0 sheds beats one that silently omits the counter
_SERVE_COUNTERS = (
    "serve.offered",
    "serve.admitted",
    "serve.served",
    "serve.shed",
    "serve.shed_queue_full",
    "serve.shed_backlog",
    "serve.shed_pressure",
    "serve.coalesced",
    "serve.rerouted",
    "serve.fallback_issues",
    "serve.batches",
    "serve.full_closes",
    "serve.deadline_closes",
    "serve.drain_closes",
    "serve.deadline_misses",
)


def collect_serve(frontend, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Copy a :class:`~repro.serve.ServingFrontEnd`'s telemetry across.

    The front end populates its own registry as the event loop runs
    (``serve.*`` counters, per-tenant queue-peak gauges, and
    admission->completion / queue-wait :class:`CycleHistogram`\\ s); this
    copies the live values into *registry*, forces the standard counter
    set to exist, and adds the bank-level ``bank.num_shards`` gauge plus
    any attached health plane's ``health.*`` instruments -- one collection
    call gives the full serving picture.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for instrument in frontend.registry:
        if isinstance(instrument, CycleHistogram):
            target = registry.histogram(instrument.name)
            target.counts = list(instrument.counts)
            target.total = instrument.total
            target.sum = instrument.sum
        elif instrument.kind == "gauge":
            registry.gauge(instrument.name).set(instrument.value)
        else:
            registry.counter(instrument.name).set(instrument.value)
    for name in _SERVE_COUNTERS:
        registry.counter(name)
    registry.gauge("bank.num_shards").set(frontend.bank.num_shards)
    health = getattr(frontend.bank, "health", None)
    if health is not None:
        health.to_registry(registry)
    return registry


def collect_parallel(runtime, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Merge a ``ParallelShardRuntime``'s worker telemetry into *registry*.

    The runtime populates ``parallel.worker<i>.queue_depth`` gauges,
    ``.batches`` / ``.restarts`` / ``.hangs`` / ``.fallback_batches``
    counters, and a ``.batch_roundtrip_us`` latency histogram in its own
    registry as it pumps batches; this copies the current values across
    (create-or-get, so repeated collection is idempotent for gauges and
    overwrites counters with the live totals).  Restart and hang counters
    are forced to exist for every worker -- a report that says ``0`` beats
    one that silently omits the healthy shards -- and a health control
    plane, when attached, lands under its usual ``health.*`` names.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for instrument in runtime.registry:
        if isinstance(instrument, CycleHistogram):
            target = registry.histogram(instrument.name)
            target.counts = list(instrument.counts)
            target.total = instrument.total
            target.sum = instrument.sum
        elif instrument.kind == "gauge":
            registry.gauge(instrument.name).set(instrument.value)
        else:
            registry.counter(instrument.name).set(instrument.value)
    registry.gauge("parallel.num_workers").set(runtime.num_workers)
    for index, restarts in enumerate(runtime.worker_restarts()):
        registry.counter(f"parallel.worker{index}.restarts").set(restarts)
    for index, hangs in enumerate(runtime.worker_hangs()):
        registry.counter(f"parallel.worker{index}.hangs").set(hangs)
    health = getattr(runtime, "health", None)
    if health is not None:
        health.to_registry(registry)
    return registry


def collect_recovery(recovery, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register a :class:`~repro.faults.resilient.RecoveryStats` snapshot
    under ``recovery.*`` names."""
    registry = registry if registry is not None else MetricsRegistry()
    for key, value in recovery.as_dict().items():
        registry.counter(f"recovery.{key}").set(value)
    return registry


def collect_trace(
    recorder: InMemoryRecorder, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Distill a recorded trace into registry metrics.

    Produces per-kind span counters (``trace.spans.demand`` ...), a
    per-kind latency :class:`CycleHistogram`, per-phase cycle counters
    matching the backend's ``phase_cycles``, and a stash-occupancy
    histogram -- the summary the ``repro trace`` report prints.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for record in recorder.records:
        if not is_span(record):
            registry.counter(f"trace.events.{record['event']}").inc()
            continue
        kind = record["kind"]
        registry.counter(f"trace.spans.{kind}").inc()
        registry.histogram(f"trace.latency.{kind}").record(
            record["end"] - record["start"]
        )
        registry.histogram("trace.stash_occupancy").record(record["stash"])
        for name, cycles in record["phases"].items():
            registry.counter(f"trace.phase_{name}_cycles").inc(cycles)
        registry.counter("trace.phase_fault_cycles").inc(record["fault_delay"])
        registry.counter("trace.retries").inc(record["retries"])
        registry.counter("trace.merges").inc(record["merges"])
        registry.counter("trace.breaks").inc(record["breaks"])
    return registry


def system_counters(system) -> Dict[str, int]:
    """Legacy flat counter dict (the profiler/benchmark artifact schema).

    Key = registry name after the first dot; the key set is exactly what
    ``Profiler._collect_counters`` used to hand-build.
    """
    counters: Dict[str, int] = {}
    for instrument in collect_system(system):
        if isinstance(instrument, CycleHistogram):
            continue
        counters[instrument.name.split(".", 1)[1]] = instrument.value
    return counters
