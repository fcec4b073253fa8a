"""The deadline-aware request-serving front end (DESIGN.md section 12).

:class:`ServingFrontEnd` sits between a multi-tenant request stream (a
:mod:`repro.serve.loadgen` source) and a
:class:`~repro.controller.sharded.ShardedORAMBank`.  It is a cycle-clocked
discrete-event loop over three event kinds -- request arrivals, ORAM access
completions, and batch deadline closes -- that applies four policies:

1. **Admission control**: bounded per-tenant ingress queues with a global
   backlog cap and a stash-pressure watermark, shedding load *before* the
   stash feels it.
2. **Weighted-fair batching**: queued requests drain into per-shard
   batches via smooth weighted round-robin (:class:`~repro.serve.queue.
   TenantQueues`); a shard runs at most one batch in flight, so overload
   backs up into the fair queues instead of the ORAM.
3. **Coalescing**: concurrent requests for the same super block dedupe
   onto one pending ORAM access (reads may also latch onto an
   already-issued access, MSHR-style) and the completion fans back out.
4. **Deadline-aware closes**: a batch issues when it fills its quota or
   when its oldest member has spent half (``deadline_close_fraction``) of
   its deadline budget waiting -- and drains immediately once the source
   is exhausted.

Health integration: DEGRADED shards get ``quota_for(throttled)``-sized
batches; QUARANTINED shards are rerouted at admission onto a serial
fallback lane whose accesses the bank pads with dummy paths.

Everything ties are broken on (cycle, sequence) pairs, so a run is a pure
function of (source, config, bank seed).  With ``ServeConfig.enabled``
False the loop degenerates to issuing each request at its arrival cycle
in arrival order -- bit-identical, via the shared snapshot/merge path, to
:func:`repro.parallel.merge.run_serial_reference` over the same stream.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.config import ServeConfig, SystemConfig
from repro.observability.metrics import MetricsRegistry
from repro.parallel.merge import merge_shard_snapshots
from repro.serve.loadgen import LoadSource
from repro.serve.queue import TenantQueues
from repro.serve.request import SERVED, SHED, Request, ServeReport, TenantReport


class _Access:
    """One pending/issued ORAM access serving >= 1 coalesced requests."""

    __slots__ = (
        "addr", "is_write", "requests", "shard", "key", "inflight_key",
        "completion_cycle",
    )

    def __init__(self, request: Request, key):
        self.addr = request.addr
        self.is_write = request.is_write
        self.requests: List[Request] = [request]
        self.shard = -1
        #: open-group coalescing key (None with coalescing off)
        self.key = key
        #: in-flight coalescing key, stamped at issue time
        self.inflight_key = None
        self.completion_cycle = -1


class ServingFrontEnd:
    """Deadline-aware serving layer over a sharded ORAM bank.

    Args:
        bank: the (already built) :class:`ShardedORAMBank`; its optional
            health plane drives quotas and quarantine rerouting.
        serve_config: policies (:class:`~repro.config.ServeConfig`).
        workload: label stamped on the report and merged SimResult.
        scheme: scheme label for the same.
        registry: metrics sink; a private one is created when omitted.

    A front end drives its bank's state forward, so :meth:`run` may be
    called once per instance.

    Every per-event step is constant-time: the loop keeps running
    bookkeeping (per-shard close cycles, the backlog count, a coalescing
    key memo, per-shard quotas, bound metric instruments) instead of
    rescanning its batches and queues (DESIGN.md section 12,
    "Incremental bookkeeping").
    """

    def __init__(
        self,
        bank,
        serve_config: Optional[ServeConfig] = None,
        *,
        workload: str = "serve",
        scheme: str = "dyn",
        registry: Optional[MetricsRegistry] = None,
    ):
        self.bank = bank
        self.config = serve_config or ServeConfig()
        self.health = bank.health
        self.workload = workload
        self.scheme = scheme
        self.registry = registry if registry is not None else MetricsRegistry()
        num_shards = bank.num_shards
        self.queues: Optional[TenantQueues] = None
        self._open_batches: List[List[_Access]] = [[] for _ in range(num_shards)]
        #: deadline-close cycle of each shard's open batch: the minimum of
        #: ``arrival + int(deadline * fraction)`` over its member requests,
        #: None while the batch is empty
        self._close_at: List[Optional[int]] = [None] * num_shards
        #: requests riding accesses in open batches (part of the backlog)
        self._batched = 0
        self._open_groups: Dict[Tuple[int, int], _Access] = {}
        self._inflight_groups: Dict[Tuple[int, int], _Access] = {}
        #: coalescing key per address; super-block membership only moves
        #: inside an access, so the memo is cleared on every issue
        self._keys: Dict[int, Tuple[int, int]] = {}
        #: batch quota per shard, set when the run starts; health state
        #: only moves on an access, which refreshes its shard's entry
        self._quotas: List[int] = []
        self._outstanding: List[int] = [0] * num_shards
        self._fallback: List[deque] = [deque() for _ in range(num_shards)]
        self._fallback_depth = 0
        self._comp_heap: List[Tuple[int, int, object]] = []
        self._event_seq = 0
        #: (addr, issue_cycle, is_write) in issue order -- replayable
        #: through ``run_serial_reference`` / ``ParallelShardRuntime.run``
        self.issued: List[Tuple[int, int, bool]] = []
        #: completion cycle per issued access, in issue order
        self.access_completions: List[int] = []
        self.all_requests: List[Request] = []
        self._makespan = 0
        self._sum_latency = 0
        self._ran = False

    # -------------------------------------------------------------- factories
    @classmethod
    def build(
        cls,
        scheme: str,
        footprint_blocks: int,
        config: Optional[SystemConfig] = None,
        num_shards: int = 1,
        *,
        serve_config: Optional[ServeConfig] = None,
        health_policy=None,
        static_sbsize: Optional[int] = None,
        workload: str = "serve",
        registry: Optional[MetricsRegistry] = None,
    ) -> "ServingFrontEnd":
        """Build a bank exactly as the serial reference does and wrap it.

        ``health_policy`` (a :class:`~repro.health.HealthPolicy`) attaches
        a control plane so admission rerouting and degraded quotas engage.
        """
        from repro.controller.sharded import ShardedORAMBank
        from repro.sim.system import build_shard_backend

        config = config or SystemConfig()
        shards = [
            build_shard_backend(
                scheme, footprint_blocks, config, index, num_shards,
                static_sbsize=static_sbsize,
            )
            for index in range(num_shards)
        ]
        bank = ShardedORAMBank(shards)
        if health_policy is not None:
            from repro.health.plane import HealthControlPlane

            bank.attach_health(HealthControlPlane(num_shards, health_policy))
        return cls(
            bank, serve_config, workload=workload, scheme=scheme,
            registry=registry,
        )

    # ------------------------------------------------------------------- run
    def run(self, source: LoadSource) -> ServeReport:
        """Drive the source to exhaustion; return the serving report."""
        if self._ran:
            raise RuntimeError("a front end drives its bank once; build a new one")
        self._ran = True
        self.queues = TenantQueues(source.weights, self.config.queue_capacity)
        self._tenant_counts = [TenantReport(tenant=t) for t in range(source.num_tenants)]
        registry = self.registry
        self._latency_hist = registry.histogram("serve.latency_cycles")
        self._tenant_latency = [
            registry.histogram(f"serve.tenant{t}.latency_cycles")
            for t in range(source.num_tenants)
        ]
        if self.config.enabled:
            self._bind_serve_metrics()
            self._quotas = [self._quota(s) for s in range(self.bank.num_shards)]
            self._serve_loop(source)
        else:
            self._bypass_loop(source)
        return self._finish(source)

    def _bind_serve_metrics(self) -> None:
        """Look every serving instrument up once, not once per event.

        The counters are the set :func:`~repro.observability.collect_serve`
        always exports.  The two issue-side histograms are bound on first
        use, so a run that never issues exports neither.
        """
        counter = self.registry.counter
        self._offered = counter("serve.offered")
        self._admitted = counter("serve.admitted")
        self._rerouted = counter("serve.rerouted")
        self._shed_total = counter("serve.shed")
        self._shed_reasons = {
            reason: counter(f"serve.shed_{reason}")
            for reason in ("queue_full", "pressure", "backlog")
        }
        self._coalesced = counter("serve.coalesced")
        self._served = counter("serve.served")
        self._deadline_misses = counter("serve.deadline_misses")
        self._fallback_issues = counter("serve.fallback_issues")
        self._batches = counter("serve.batches")
        self._closes = {
            reason: counter(f"serve.{reason}_closes")
            for reason in ("full", "deadline", "drain")
        }
        self._wait_hist = None
        self._occupancy_hist = None

    # ------------------------------------------------------------ event loops
    def _serve_loop(self, source: LoadSource) -> None:
        now = 0
        next_close = None
        comp_heap = self._comp_heap
        while True:
            next_event = source.next_arrival_cycle()
            if comp_heap and (next_event is None or comp_heap[0][0] < next_event):
                next_event = comp_heap[0][0]
            if next_close is not None and (next_event is None or next_close < next_event):
                next_event = next_close
            if next_event is None:
                break
            if next_event > now:
                now = next_event
            while comp_heap and comp_heap[0][0] <= now:
                self._complete(heapq.heappop(comp_heap)[2], source)
            for request in source.take_arrivals(now):
                self._admit(request, source, now)
            next_close = self._pump(source, now)

    def _bypass_loop(self, source: LoadSource) -> None:
        """Front end disabled: issue each request at its arrival cycle.

        Per-shard issue order equals arrival order and ``now`` equals the
        arrival cycle, which is exactly the request stream
        ``run_serial_reference`` replays -- so the merged SimResult is
        bit-identical to the no-front-end bank.
        """
        counters = self._tenant_counts
        latency_hist = self._latency_hist
        tenant_latency = self._tenant_latency
        comp_heap = self._comp_heap
        bank = self.bank
        while True:
            now = source.next_arrival_cycle()
            if comp_heap and (now is None or comp_heap[0][0] < now):
                now = comp_heap[0][0]
            if now is None:
                break
            while comp_heap and comp_heap[0][0] <= now:
                completion, _, request = heapq.heappop(comp_heap)
                source.on_completion(request, completion)
            for request in source.take_arrivals(now):
                self.all_requests.append(request)
                tenant = counters[request.tenant]
                tenant.offered += 1
                tenant.admitted += 1
                arrival = request.arrival_cycle
                completion = bank.demand_access(
                    request.addr, arrival, request.is_write
                ).completion_cycle
                self.issued.append((request.addr, arrival, request.is_write))
                self.access_completions.append(completion)
                request.status = SERVED
                request.completion_cycle = completion
                if completion > self._makespan:
                    self._makespan = completion
                latency = completion - arrival
                self._sum_latency += latency
                latency_hist.record(latency)
                tenant_latency[request.tenant].record(latency)
                tenant.served += 1
                heapq.heappush(comp_heap, (completion, self._event_seq, request))
                self._event_seq += 1

    # -------------------------------------------------------------- admission
    def _admit(self, request: Request, source: LoadSource, now: int) -> None:
        config = self.config
        self.all_requests.append(request)
        counts = self._tenant_counts[request.tenant]
        counts.offered += 1
        self._offered.inc()
        shard = self.bank.shard_of(request.addr)
        if self.health is not None and self.health.should_reroute(shard):
            lane = self._fallback[shard]
            if len(lane) >= config.queue_capacity:
                self._shed(request, source, now, "queue_full")
                return
            request.rerouted = True
            lane.append(request)
            self._fallback_depth += 1
            counts.admitted += 1
            self._admitted.inc()
            self._rerouted.inc()
            return
        if (
            config.stash_shed_fraction > 0.0
            and self.bank.stash_fraction(shard) >= config.stash_shed_fraction
        ):
            self._shed(request, source, now, "pressure")
            return
        if (
            config.max_backlog
            and self.queues.size + self._batched + self._fallback_depth
            >= config.max_backlog
        ):
            # admitted but unissued: queued, batched or in a fallback lane
            self._shed(request, source, now, "backlog")
            return
        if not self.queues.push(request):
            self._shed(request, source, now, "queue_full")
            return
        counts.admitted += 1
        self._admitted.inc()

    def _shed(
        self, request: Request, source: LoadSource, now: int, reason: str
    ) -> None:
        request.status = SHED
        self._tenant_counts[request.tenant].shed += 1
        self._shed_total.inc()
        self._shed_reasons[reason].inc()
        source.on_shed(request, now)

    # ----------------------------------------------------- batching/coalescing
    def _quota(self, shard: int) -> int:
        throttled = self.health is not None and self.health.throttled(shard)
        return self.config.quota_for(throttled)

    def _placeable(self, request: Request) -> bool:
        if self.config.coalesce:
            addr = request.addr
            key = self._keys.get(addr)
            if key is None:
                key = self._keys[addr] = self.bank.coalesce_key(addr)
            if key in self._open_groups:
                return True
            if not request.is_write and key in self._inflight_groups:
                return True
            shard = key[0]
        else:
            shard = self.bank.shard_of(request.addr)
        return len(self._open_batches[shard]) < self._quotas[shard]

    def _place(self, request: Request) -> None:
        key = None
        access = None
        if self.config.coalesce:
            # ``_placeable`` memoized the key when fair dequeue checked this
            # request, and no access has issued since.
            key = self._keys[request.addr]
            access = self._open_groups.get(key)
            if access is None and not request.is_write:
                inflight = self._inflight_groups.get(key)
                if inflight is not None:
                    # MSHR-style: the super block is already on its way;
                    # ride the pending access and share its completion.
                    inflight.requests.append(request)
                    self._mark_coalesced(request)
                    return
        if access is not None:
            access.requests.append(request)
            access.is_write = access.is_write or request.is_write
            self._mark_coalesced(request)
        else:
            access = _Access(request, key)
            access.shard = key[0] if key is not None else self.bank.shard_of(request.addr)
            self._open_batches[access.shard].append(access)
            if key is not None:
                self._open_groups[key] = access
        # The request now sits in an open batch: it counts towards the
        # backlog and may bring the batch's deadline close forward.
        self._batched += 1
        close = request.arrival_cycle + int(
            request.deadline_cycles * self.config.deadline_close_fraction
        )
        current = self._close_at[access.shard]
        if current is None or close < current:
            self._close_at[access.shard] = close

    def _mark_coalesced(self, request: Request) -> None:
        request.coalesced = True
        self._tenant_counts[request.tenant].coalesced += 1
        self._coalesced.inc()

    def _pump(self, source: LoadSource, now: int) -> Optional[int]:
        """Fill batches from the fair queues and issue every ready one.

        Runs to a fixpoint: issuing a batch frees quota (and may move
        coalescing keys), which may make more queued requests placeable,
        which may fill another batch.  A pass that issues nothing changes
        nothing a further pass would see, so it is the last.  It returns
        the earliest deadline close among shards left with an open batch
        and nothing in flight (None if there is none): that pass looked at
        every such shard.
        """
        queues = self.queues
        placeable = self._placeable
        outstanding = self._outstanding
        while True:
            while queues.size:
                request = queues.pop_where(placeable)
                if request is None:
                    break
                self._place(request)
            progress = False
            next_close = None
            drain = None
            for shard in range(self.bank.num_shards):
                if outstanding[shard]:
                    continue
                if self._fallback[shard]:
                    self._issue_fallback(shard, now)
                    progress = True
                    continue
                batch = self._open_batches[shard]
                if not batch:
                    continue
                close = self._close_at[shard]
                if len(batch) >= self._quotas[shard]:
                    reason = "full"
                elif now >= close:
                    reason = "deadline"
                else:
                    if drain is None:
                        drain = not queues.size and source.exhausted
                    if not drain:
                        if next_close is None or close < next_close:
                            next_close = close
                        continue
                    reason = "drain"
                self._issue_batch(shard, now, reason)
                progress = True
            if not progress:
                return next_close

    # ---------------------------------------------------------------- issuing
    def _issue_one(self, access: _Access, shard: int, now: int) -> None:
        addr = access.addr
        result = self.bank.demand_access(addr, now, access.is_write)
        # The access may have moved super-block membership (a merge, a
        # break, or the accessed block's new leaf) and fed the shard's
        # health breaker: memoized keys and the shard's quota are stale.
        self._keys.clear()
        if self.health is not None:
            self._quotas[shard] = self._quota(shard)
        access.shard = shard
        completion = result.completion_cycle
        access.completion_cycle = completion
        self.issued.append((addr, now, access.is_write))
        self.access_completions.append(completion)
        self._outstanding[shard] += 1
        if self.config.coalesce:
            key = self._keys[addr] = self.bank.coalesce_key(addr)
            access.inflight_key = key
            self._inflight_groups[key] = access
        wait_hist = self._wait_hist
        if wait_hist is None:
            wait_hist = self._wait_hist = self.registry.histogram(
                "serve.queue_wait_cycles"
            )
        for request in access.requests:
            wait_hist.record(now - request.arrival_cycle)
        heapq.heappush(self._comp_heap, (completion, self._event_seq, access))
        self._event_seq += 1

    def _issue_fallback(self, shard: int, now: int) -> None:
        """Serial fallback lane: one rerouted request, one padded access."""
        request = self._fallback[shard].popleft()
        self._fallback_depth -= 1
        self._fallback_issues.inc()
        self._issue_one(_Access(request, None), shard, now)

    def _issue_batch(self, shard: int, now: int, reason: str) -> None:
        batch = self._open_batches[shard]
        self._open_batches[shard] = []
        self._close_at[shard] = None
        for access in batch:
            self._batched -= len(access.requests)
            if access.key is not None:
                self._open_groups.pop(access.key, None)
        # Super-block membership may have shifted (merges/breaks) since the
        # group formed; requests no longer riding the leader's super block
        # get their own access so nobody is "served" by a path that never
        # touched their block.
        final: List[_Access] = []
        stride = self.bank.num_shards
        scheme = self.bank.shards[shard].scheme
        for access in batch:
            final.append(access)
            if len(access.requests) <= 1:
                continue
            members = set(scheme.members_for(access.addr // stride))
            keep = [access.requests[0]]
            for request in access.requests[1:]:
                if request.addr // stride in members:
                    keep.append(request)
                else:
                    split = _Access(request, None)
                    final.append(split)
            if len(keep) != len(access.requests):
                access.requests = keep
                access.is_write = any(r.is_write for r in keep)
        self._batches.inc()
        self._closes[reason].inc()
        occupancy = self._occupancy_hist
        if occupancy is None:
            occupancy = self._occupancy_hist = self.registry.histogram(
                "serve.batch_occupancy"
            )
        occupancy.record(len(final))
        for access in final:
            self._issue_one(access, shard, now)

    # ------------------------------------------------------------- completion
    def _complete(self, access: _Access, source: LoadSource) -> None:
        self._outstanding[access.shard] -= 1
        key = access.inflight_key
        if key is not None and self._inflight_groups.get(key) is access:
            del self._inflight_groups[key]
        cycle = access.completion_cycle
        if cycle > self._makespan:
            self._makespan = cycle
        latency_hist = self._latency_hist
        tenant_latency = self._tenant_latency
        counts = self._tenant_counts
        served = self._served
        for request in access.requests:
            request.status = SERVED
            request.completion_cycle = cycle
            latency = cycle - request.arrival_cycle
            self._sum_latency += latency
            latency_hist.record(latency)
            tenant_latency[request.tenant].record(latency)
            counts[request.tenant].served += 1
            served.inc()
            if latency > request.deadline_cycles:
                self._deadline_misses.inc()
            source.on_completion(request, cycle)

    # --------------------------------------------------------------- report
    def _finish(self, source: LoadSource) -> ServeReport:
        registry = self.registry
        bank = self.bank
        bank.finalize(self._makespan)
        for tenant in range(source.num_tenants):
            registry.gauge(f"serve.tenant{tenant}.queue_peak").set(
                self.queues.peak_depth[tenant]
            )
        latency_hist = registry.histogram("serve.latency_cycles")
        report = ServeReport(
            workload=self.workload,
            scheme=self.scheme,
            num_shards=bank.num_shards,
            makespan_cycles=self._makespan,
        )
        for counts in self._tenant_counts:
            hist = registry.histogram(
                f"serve.tenant{counts.tenant}.latency_cycles"
            )
            counts.p50_latency = hist.quantile(0.5)
            counts.p99_latency = hist.quantile(0.99)
            report.tenants.append(counts)
            report.offered += counts.offered
            report.admitted += counts.admitted
            report.shed += counts.shed
            report.served += counts.served
            report.coalesced += counts.coalesced
        report.rerouted = registry.counter("serve.rerouted").value
        report.batches = registry.counter("serve.batches").value
        report.full_closes = registry.counter("serve.full_closes").value
        report.deadline_closes = registry.counter("serve.deadline_closes").value
        report.drain_closes = registry.counter("serve.drain_closes").value
        report.deadline_misses = registry.counter("serve.deadline_misses").value
        if report.served:
            report.mean_latency = self._sum_latency / report.served
        report.p50_latency = latency_hist.quantile(0.5)
        report.p99_latency = latency_hist.quantile(0.99)
        # Deliberately no serve-specific keys in sim.extra: with the front
        # end bypassed this SimResult must compare equal, field for field,
        # to the no-front-end bank's (the pinned golden).
        report.sim = merge_shard_snapshots(
            bank.snapshot_shards(),
            self.access_completions,
            workload=self.workload,
            scheme=self.scheme,
        )
        return report
