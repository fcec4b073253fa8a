"""Layer spans recorded from outside the simulator.

The benchmark never edits ``src/``: it times a layer by replacing the
layer's public entry points on their classes with a wrapper for the length
of one traced run, and puts the originals back afterwards.  Wrappers must
be installed before the system under test is built, because several
objects bind these methods at construction (``ORAMBackend`` caches the
scheme's hooks, ``SecureSystem.run`` binds the backend's methods into
locals at the top of the run).

Spans nest through one stack.  A layer's self time is the wall time of
its spans minus the time of the spans they enclose, so the self times of
all layers add up to the wall time of the outermost span by construction.
Time that no inner layer accounts for lands in the outermost (root)
layer's self time, which is why the benchmark reports that layer's share.
Spans are not kept: each one folds into per-layer call and self-time
totals as it ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def entry_points() -> List[Tuple[type, str, str]]:
    """Every public entry point the traced run wraps, as (class, method, layer).

    The imports are local so that importing this module does not import
    the simulator.
    """
    from repro.cache.hierarchy import CacheHierarchy
    from repro.controller.sharded import ShardedORAMBank
    from repro.core.dynamic import DynamicSuperBlockScheme
    from repro.memory.interconnect import ChannelInterconnect, FlatInterconnect
    from repro.memory.oram_backend import ORAMBackend
    from repro.oram.path_oram import PathORAM
    from repro.oram.recursion import PosMapHierarchy
    from repro.oram.tree import BinaryTree
    from repro.parallel.runtime import ParallelShardRuntime
    from repro.serve.frontend import ServingFrontEnd
    from repro.sim.system import SecureSystem

    return [
        (SecureSystem, "run", "system"),
        (CacheHierarchy, "access", "cache"),
        (CacheHierarchy, "fill_demand", "cache"),
        (CacheHierarchy, "fill_prefetch", "cache"),
        (ORAMBackend, "demand_access", "oram_backend"),
        (ORAMBackend, "evict_line", "oram_backend"),
        (PosMapHierarchy, "lookup", "posmap"),
        (PathORAM, "begin_access", "path_read"),
        (DynamicSuperBlockScheme, "members_for", "path_read"),
        (DynamicSuperBlockScheme, "process_fetch", "remap"),
        (PathORAM, "finish_access", "writeback"),
        (PathORAM, "drain_stash", "writeback"),
        (FlatInterconnect, "path_completion", "interconnect"),
        (ChannelInterconnect, "path_completion", "interconnect"),
        (BinaryTree, "flush_treetop", "treetop"),
        (ShardedORAMBank, "demand_access", "bank"),
        (ServingFrontEnd, "run", "serve"),
        (ParallelShardRuntime, "run", "transport"),
    ]


#: every layer the trace reports, in the order the output lists them
LAYERS = (
    "system", "cache", "oram_backend", "posmap", "path_read", "remap",
    "writeback", "interconnect", "treetop", "bank", "serve", "transport",
)


class Tracer:
    """Per-layer span totals plus the probes the benchmark reads.

    Besides timing, two wrappers record simulated values as they pass:
    every ``ORAMBackend.demand_access`` appends its latency in cycles
    (completion minus the cycle the request was issued), and every dirty
    ``ORAMBackend.evict_line`` counts one dirty LLC eviction.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.demand_latencies: List[int] = []
        self.dirty_evictions = 0
        #: layer of the last span that ended with no span around it
        self.root_layer: Optional[str] = None
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[type, str, Optional[Callable]]] = []

    # ----------------------------------------------------------- wrapping
    def _span(self, layer: str, method: Callable) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        @functools.wraps(method)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return method(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - children[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_layer = layer

        return span

    def _probe(self, cls: type, name: str, wrapped: Callable) -> Callable:
        """Add the latency / dirty-eviction probes on top of a span."""
        from repro.memory.oram_backend import ORAMBackend

        if cls is not ORAMBackend:
            return wrapped
        if name == "demand_access":
            latencies = self.demand_latencies

            @functools.wraps(wrapped)
            def demand_access(backend, addr, now, is_write):
                result = wrapped(backend, addr, now, is_write)
                latencies.append(result.completion_cycle - now)
                return result

            return demand_access
        if name == "evict_line":

            @functools.wraps(wrapped)
            def evict_line(backend, addr, dirty, now):
                if dirty:
                    self.dirty_evictions += 1
                return wrapped(backend, addr, dirty, now)

            return evict_line
        return wrapped

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the entry points for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for cls, name, layer in entry_points():
            self._saved.append((cls, name, cls.__dict__.get(name)))
            wrapped = self._span(layer, getattr(cls, name))
            setattr(cls, name, self._probe(cls, name, wrapped))
        try:
            yield self
        finally:
            for cls, name, original in reversed(self._saved):
                if original is None:
                    delattr(cls, name)
                else:
                    setattr(cls, name, original)
            self._saved.clear()

    # ------------------------------------------------------------ results
    def total_self_s(self) -> float:
        return sum(self.self_s.values())
