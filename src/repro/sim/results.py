"""Simulation results and the derived metrics the paper plots."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable

#: ``extra`` keys that describe the configuration rather than count events:
#: a measurement window keeps their final values instead of differencing,
#: and a fold over shards keeps one shard's value instead of summing.
_CONFIG_EXTRA_KEYS = frozenset({"num_shards", "interconnect_channels"})

#: shard-record counters that are high-water marks: a fold takes the max
_WATERMARK_KEYS = frozenset({"stash_max_occupancy", "busy_until"})

#: fields :meth:`SimResult.delta` does not difference: the labels, ``extra``
#: (differenced key by key), and the stash watermark and PosMap hit rate,
#: which keep their final values
_NOT_ADDITIVE = frozenset(
    {"workload", "scheme", "extra", "stash_max_occupancy", "posmap_cache_hit_rate"}
)


def fold_shard_records(records: Iterable[dict]) -> dict:
    """Fold per-shard counter records into one record of the same shape.

    This is the only place per-shard counters are combined.  The records
    come from :func:`repro.controller.sharded.snapshot_shard_stats`, so a
    single controller, an in-process bank, worker processes and the serve
    front end all aggregate through the same arithmetic: counters are
    summed (nested groups key by key), the watermarks in
    ``_WATERMARK_KEYS`` take the max, and the configuration keys in
    ``_CONFIG_EXTRA_KEYS`` keep the first shard's value.  A group only
    some records carry (fault counters, interconnect occupancy) folds over
    the records that have it.
    """
    total: dict = {}
    for record in records:
        _fold_into(total, record)
    return total


def _fold_into(total: dict, record: dict) -> None:
    for name, value in record.items():
        if isinstance(value, dict):
            _fold_into(total.setdefault(name, {}), value)
        elif name not in total:
            total[name] = value
        elif name in _WATERMARK_KEYS:
            total[name] = max(total[name], value)
        elif name not in _CONFIG_EXTRA_KEYS:
            total[name] += value


@dataclass
class SimResult:
    """Everything one simulation run produces.

    The paper's figures derive from three quantities: completion time
    (speedup is relative time saved), total memory accesses (the energy
    proxy), and prefetch hit/miss counts (Figure 9).
    """

    workload: str
    scheme: str
    cycles: int
    trace_entries: int
    # Cache behaviour
    l1_hits: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    # Backend behaviour
    demand_requests: int = 0
    prefetch_requests: int = 0
    write_accesses: int = 0
    memory_accesses: int = 0
    dummy_accesses: int = 0
    posmap_accesses: int = 0
    busy_cycles: int = 0
    # ORAM detail
    stash_max_occupancy: int = 0
    posmap_cache_hit_rate: float = 0.0
    # Super block scheme
    merges: int = 0
    breaks: int = 0
    prefetched_blocks: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------ derived
    @property
    def total_memory_accesses(self) -> int:
        """Real + dummy accesses: proportional to memory-subsystem energy."""
        return self.memory_accesses + self.dummy_accesses

    @property
    def llc_miss_rate(self) -> float:
        total = self.llc_hits + self.llc_misses
        return self.llc_misses / total if total else 0.0

    @property
    def prefetch_miss_rate(self) -> float:
        """The Figure 9 metric: unused prefetches over resolved prefetches."""
        resolved = self.prefetch_hits + self.prefetch_misses
        return self.prefetch_misses / resolved if resolved else 0.0

    @property
    def background_eviction_rate(self) -> float:
        total = self.demand_requests + self.dummy_accesses
        return self.dummy_accesses / total if total else 0.0

    def add_backend_record(self, record: dict) -> "SimResult":
        """Set the backend fields from one (folded) shard record.

        Request and scheme counters become fields, the PosMap hit rate is
        lookup-weighted (0.0 with no lookups), and the stash soft
        overflows, per-phase cycles, fault counters (only with a fault
        ladder attached) and interconnect occupancy (only for a non-flat
        model) land in ``extra``.
        """
        for name, value in record["stats"].items():
            setattr(self, name, value)
        for name, value in record["scheme_stats"].items():
            setattr(self, name, value)
        self.stash_max_occupancy = record["stash_max_occupancy"]
        lookups = record["posmap_lookups"]
        self.posmap_cache_hit_rate = (
            record["posmap_cache_hits"] / lookups if lookups else 0.0
        )
        extra = self.extra
        extra["stash_soft_overflows"] = record["stash_soft_overflows"]
        for name, cycles in record["phase_cycles"].items():
            extra[f"phase_{name}_cycles"] = cycles
        extra.update(record.get("faults", {}))
        extra.update(record.get("interconnect", {}))
        return self

    def speedup_over(self, baseline: "SimResult") -> float:
        """The paper's speedup: fraction of time saved relative to baseline.

        A value of 0.20 reads "20% performance gain"; negative values mean
        a slowdown (the figures' y-axes use exactly this scale).
        """
        if self.cycles == 0:
            raise ValueError("degenerate run with zero cycles")
        return baseline.cycles / self.cycles - 1.0

    def normalized_memory_accesses(self, baseline: "SimResult") -> float:
        """Figure 8's red markers: energy relative to the baseline ORAM."""
        if baseline.total_memory_accesses == 0:
            raise ValueError("baseline performed no memory accesses")
        return self.total_memory_accesses / baseline.total_memory_accesses

    def normalized_completion_time(self, baseline: "SimResult") -> float:
        """Figures 11-14's metric: completion time relative to a baseline."""
        if baseline.cycles == 0:
            raise ValueError("degenerate baseline with zero cycles")
        return self.cycles / baseline.cycles

    @staticmethod
    def delta(final: "SimResult", start: "SimResult") -> "SimResult":
        """Measurement-window result: ``final`` minus a warmup snapshot.

        Additive counters are differenced -- including every ``extra``
        counter (phase cycles, faults, interconnect occupancy), so the
        window's ``phase_*_cycles`` still sum to its ``busy_cycles``;
        watermark/rate fields and configuration keys keep the final
        values.  Used to discard cache/ORAM warmup so short traces
        measure steady-state behaviour like the paper's long runs.
        """
        additive = [f.name for f in fields(SimResult) if f.name not in _NOT_ADDITIVE]
        out = SimResult(
            workload=final.workload,
            scheme=final.scheme,
            cycles=0,
            trace_entries=0,
        )
        for name in additive:
            setattr(out, name, getattr(final, name) - getattr(start, name))
        out.stash_max_occupancy = final.stash_max_occupancy
        out.posmap_cache_hit_rate = final.posmap_cache_hit_rate
        out.extra = {
            name: value
            if name in _CONFIG_EXTRA_KEYS
            else value - start.extra.get(name, 0)
            for name, value in final.extra.items()
        }
        return out

    def summary(self) -> str:
        """One-line human-readable digest."""
        text = (
            f"{self.workload}/{self.scheme}: {self.cycles} cycles, "
            f"{self.llc_misses} LLC misses, "
            f"{self.total_memory_accesses} memory accesses "
            f"({self.dummy_accesses} dummy), "
            f"{self.merges} merges, {self.breaks} breaks"
        )
        soft = self.extra.get("stash_soft_overflows", 0)
        if soft:
            text += f", {int(soft)} stash soft overflows"
        return text
