"""Integration tests for the shared-memory multi-core simulator."""

import pytest

from repro.config import CacheConfig, ORAMConfig, SystemConfig
from repro.sim.multicore import MultiCoreSystem
from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng


def small_config():
    return SystemConfig(
        oram=ORAMConfig(levels=8, bucket_size=4, stash_blocks=50, utilization=0.5),
        l1=CacheConfig(capacity_bytes=2 * 1024, associativity=2),
        llc=CacheConfig(capacity_bytes=8 * 1024, associativity=8, hit_latency=8),
    )


def make_trace(name, footprint=512, n=800, gap=20, seed=1):
    rng = DeterministicRng(seed)
    trace = Trace(name, footprint_blocks=footprint)
    for _ in range(n):
        trace.append(gap, rng.randint(0, footprint - 1))
    return trace


class TestMultiCore:
    def test_single_core_works(self):
        system = MultiCoreSystem.build("oram", [make_trace("a")], config=small_config())
        results = system.run([make_trace("a")])
        assert len(results) == 1
        assert results[0].cycles > 0

    def test_core_count_validation(self):
        with pytest.raises(ValueError):
            MultiCoreSystem.build("oram", [], config=small_config()) if False else (
                MultiCoreSystem(small_config(), None, 0)
            )

    def test_trace_count_must_match(self):
        system = MultiCoreSystem.build(
            "oram", [make_trace("a"), make_trace("b", seed=2)], config=small_config()
        )
        with pytest.raises(ValueError):
            system.run([make_trace("a")])

    def test_contention_slows_cores_down(self):
        # Two memory-hungry cores sharing one serialized ORAM must each run
        # slower than a core owning the ORAM alone.
        alone_traces = [make_trace("w", gap=5, n=600)]
        alone = MultiCoreSystem.build("oram", alone_traces, config=small_config())
        alone_result = alone.run([make_trace("w", gap=5, n=600)])[0]

        pair_traces = [
            make_trace("w", gap=5, n=600),
            make_trace("w2", gap=5, n=600, seed=3),
        ]
        shared = MultiCoreSystem.build("oram", pair_traces, config=small_config())
        shared_results = shared.run(
            [make_trace("w", gap=5, n=600), make_trace("w2", gap=5, n=600, seed=3)]
        )
        assert all(r.cycles > alone_result.cycles * 1.3 for r in shared_results)

    def test_functional_state_consistent_after_shared_run(self):
        traces = [make_trace("a", seed=4), make_trace("b", seed=5)]
        system = MultiCoreSystem.build("dyn", traces, config=small_config())
        system.run([make_trace("a", seed=4), make_trace("b", seed=5)])
        system.backend.oram.check_invariants()

    def test_shared_llc_lets_cores_reuse_each_others_lines(self):
        # Both cores walk the same small array: the second toucher should
        # mostly hit in the shared LLC.
        def seq_trace(name):
            trace = Trace(name, footprint_blocks=64)
            for sweep in range(6):
                for addr in range(64):
                    trace.append(10, addr)
            return trace

        system = MultiCoreSystem.build(
            "oram", [seq_trace("a"), seq_trace("b")], config=small_config()
        )
        results = system.run([seq_trace("a"), seq_trace("b")])
        total_misses = sum(r.llc_misses for r in results)
        # 64 distinct lines; everything beyond startup is a (shared) hit.
        assert total_misses < 150

    def test_super_blocks_work_across_cores(self):
        # Core 0 touches even blocks, core 1 the odd partners: pairs are
        # co-resident in the *shared* LLC, so PrORAM can merge them even
        # though no single core sees both halves.
        def even_trace():
            trace = Trace("even", footprint_blocks=512)
            for sweep in range(8):
                for addr in range(0, 512, 2):
                    trace.append(12, addr)
            return trace

        def odd_trace():
            trace = Trace("odd", footprint_blocks=512)
            for sweep in range(8):
                for addr in range(1, 512, 2):
                    trace.append(12, addr)
            return trace

        system = MultiCoreSystem.build(
            "dyn", [even_trace(), odd_trace()], config=small_config()
        )
        system.run([even_trace(), odd_trace()])
        assert system.backend.scheme.stats.merges > 0
        system.backend.oram.check_invariants()

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_backend_work_split_between_cores(self, num_shards):
        # Each core reports the backend work its own misses caused, so the
        # per-core results add up to the shared backend's totals.
        def traces():
            return [make_trace("a", seed=6), make_trace("b", seed=7)]

        system = MultiCoreSystem.build(
            "dyn", traces(), config=small_config(), num_shards=num_shards
        )
        results = system.run(traces())
        totals = system.backend.stats
        for field in ("demand_requests", "memory_accesses", "dummy_accesses"):
            assert sum(getattr(r, field) for r in results) == getattr(totals, field)
        for result in results:
            assert result.llc_misses > 0
            assert result.demand_requests == result.llc_misses
