"""The process-parallel shard runtime: N workers, one merged result.

:class:`ParallelShardRuntime` is the front-end.  It partitions an
address-tagged request stream across the bank's channels
(``shard = addr % N``, arrival order preserved within a shard -- the
sub-stream each shard of the serial reference sees), ships each shard's
sub-stream as sequence-numbered batches to a worker process, and merges
the per-shard completions and counter snapshots back into the exact
:class:`~repro.sim.results.SimResult` the in-process serial bank produces.
Shards share nothing by construction (own tree, stash, RNG fork), so the
cross-process cut is free of coherence traffic and the merged result is
bit-identical to serial for any worker count.

Failure model: every shard is a :class:`~repro.parallel.worker.ShardServer`
that checkpoints its whole backend after every ``checkpoint_every``
batches *before* acknowledging.  The front-end detects a dead worker
(liveness poll while waiting on its reply queue) and restarts the shard
from the latest checkpoint (:meth:`ParallelShardRuntime._restart`): the
restored server re-serves acknowledgements the crash swallowed out of
the checkpoint's reply window, and the batches the checkpoint had not yet
captured are replayed through the normal command path.  Every demand
access is therefore applied and counted exactly once -- "zero lost
writes" in a timing simulator means the merged accounting is
indistinguishable from a run that never crashed (completions of replayed
batches may differ, since a restarted shard draws a fresh deterministic
RNG stream).

Observability: per-worker queue-depth gauges, batch round-trip latency
histograms, and restart counters land in a
:class:`~repro.observability.metrics.MetricsRegistry` under
``parallel.worker<i>.*``.

Health control plane (optional): constructed with a
:class:`~repro.health.HealthPolicy`, the runtime wraps every worker in a
:class:`~repro.health.CircuitBreaker` and enforces the policy's
wall-clock deadlines.  Workers emit mid-batch ``heartbeat`` replies; a
worker whose in-flight batches make no progress (no ack, no heartbeat)
for ``batch_deadline_s`` is declared *hung* and terminated.  A dead or
hung worker lands in QUARANTINE: the restart runs the same server in the
front-end process instead of a new worker process, one batch at a time.
Quarantined and probing shards pad every request with one dummy path
access (the ``throttle`` command's padded flag), so sick-shard traffic
keeps the uniform-leaf access shape.  After the breaker's cooldown the
in-process server checkpoints and the shard restarts as a worker process
half-open (PROBING, in-flight cap 1); enough successful probe batches
re-admit it to full pipelining.  DEGRADED workers run with halved
inflight and their backend's super-block merges / prefetcher throttled.
Without a policy, behavior is bit-identical to the pre-health runtime.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.faults.injector import FaultConfig
from repro.health import HealthControlPlane, HealthPolicy, HealthState
from repro.observability.metrics import MetricsRegistry
from repro.parallel.merge import merge_shard_snapshots
from repro.parallel.protocol import ShardSpec
from repro.parallel.worker import InProcessShard, shard_worker_main
from repro.sim.results import SimResult

#: liveness-poll interval while waiting on a reply queue (seconds)
_POLL_S = 0.02

#: health states whose shard pads every request with a dummy path access
_PADDED = (HealthState.QUARANTINED, HealthState.PROBING)


class WorkerFailure(RuntimeError):
    """A shard worker failed beyond what the recovery ladder can heal."""


class _WorkerLost(WorkerFailure):
    """A worker process died or hung; ``reason`` names the breaker event."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class _Worker:
    """Front-end bookkeeping for one shard: a worker process and its
    queue pair, or an in-process server (``process is None``)."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.commands = None
        self.replies = None
        self.next_seq = 0
        #: sent, not yet acknowledged: seq -> (positions, batch)
        self.pending: Dict[int, Tuple[List[int], list]] = {}
        #: acknowledged but not yet covered by a checkpoint (replay fodder)
        self.unckpt: Dict[int, Tuple[List[int], list]] = {}
        self.sent_at: Dict[int, float] = {}
        self.restarts = 0
        self.hangs = 0
        #: last wall-clock instant this worker proved progress (spawn,
        #: send, heartbeat, or any reply) -- the deadline reference point
        self.last_progress = 0.0
        #: (degraded, padded) health flags last sent to the shard
        self.flags = (False, False)
        #: restart budget exhausted: stay in-process, never probe
        self.no_probe = False

    @property
    def inflight(self) -> int:
        return len(self.pending)


def _drain_nowait(replies):
    """``get_nowait`` that treats a crash-corrupted queue as empty.

    A worker killed mid-``put`` can leave a truncated pickle in the pipe;
    reading it raises instead of returning.  The abandoned queue is
    replaced on respawn, so any unreadable tail is equivalent to no reply.
    """
    try:
        return replies.get_nowait()
    except queue_module.Empty:
        return None
    except Exception:
        return None


class ParallelShardRuntime:
    """Run each channel of a sharded ORAM bank in its own process.

    Args:
        scheme: base scheme name ("oram", "stat", "dyn", ... -- no
            prefetch/periodic suffixes; prefetchers live core-side and the
            runtime replays a pre-captured miss stream).
        footprint_blocks: global workload footprint (shards are scaled to
            their slice exactly as :meth:`SecureSystem.build` does).
        num_workers: bank width; one worker process per shard.
        checkpoint_dir: directory for per-worker checkpoints (stale files
            from a previous runtime are removed at startup -- the runtime
            owns the directory).  ``None`` disables durability: a worker
            death becomes fatal.
        checkpoint_every: batches between worker checkpoints (1 = durable
            after every batch; 0 = genesis checkpoint only, recovery then
            replays the full history).
        batch_size: requests per shipped batch.
        max_inflight: per-worker cap on unacknowledged batches; bounded by
            the worker's reply replay window (sized to ``2 * max_inflight``)
            so a lost acknowledgement is always recoverable.
        max_restarts: per-worker respawn budget before giving up.
        metrics: optional shared registry for the per-worker gauges.
        health_policy: enable the health control plane (per-worker
            circuit breakers, in-process quarantine, half-open probing).
            Requires ``checkpoint_dir`` -- the quarantined shard is
            restored from the worker's checkpoint.  Also supplies the
            enforcement knobs ``batch_deadline_s``, ``heartbeat_every``
            and ``join_timeout_s``; without a policy they are 0 (no
            deadline), 0 (no heartbeats) and 5 s.
        fault_config: in-worker fault injection (seed salted per shard
            and per respawn); the chaos harness's storm knob.
    """

    def __init__(
        self,
        scheme: str,
        footprint_blocks: int,
        config: Optional[SystemConfig] = None,
        num_workers: int = 2,
        *,
        static_sbsize: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        batch_size: int = 64,
        max_inflight: int = 4,
        max_restarts: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        health_policy: Optional[HealthPolicy] = None,
        fault_config: Optional[FaultConfig] = None,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if scheme == "dram":
            raise ValueError("sharded banks model ORAM channels, not DRAM")
        if batch_size < 1 or max_inflight < 1:
            raise ValueError("batch_size and max_inflight must be positive")
        if health_policy is not None and not checkpoint_dir:
            raise ValueError(
                "the health control plane needs checkpoint_dir: a "
                "quarantined shard is restored from its worker's checkpoint"
            )
        self.scheme = scheme
        self.footprint_blocks = footprint_blocks
        self.config = config or SystemConfig()
        self.num_workers = num_workers
        self.static_sbsize = static_sbsize
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.batch_size = batch_size
        self.max_inflight = max_inflight
        self.max_restarts = max_restarts
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.health = None
        self.batch_deadline_s = 0.0
        self.heartbeat_every = 0
        self.join_timeout_s = 5.0
        if health_policy is not None:
            self.health = HealthControlPlane(
                num_workers, health_policy, metrics=self.registry
            )
            self.batch_deadline_s = health_policy.batch_deadline_s
            self.heartbeat_every = health_policy.heartbeat_every
            self.join_timeout_s = health_policy.join_timeout_s
        self.fault_config = fault_config
        self._ctx = multiprocessing.get_context()
        self._workers = [_Worker(index) for index in range(num_workers)]
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
            for worker in self._workers:
                path = self._checkpoint_path(worker.index)
                if os.path.exists(path):
                    os.remove(path)
        for worker in self._workers:
            self._start(worker)
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def _checkpoint_path(self, index: int) -> str:
        return os.path.join(self.checkpoint_dir, f"shard{index:02d}.ckpt")

    def _spec(self, index: int, restart_salt: int) -> ShardSpec:
        return ShardSpec(
            base_scheme=self.scheme,
            footprint_blocks=self.footprint_blocks,
            num_shards=self.num_workers,
            shard_index=index,
            config=self.config,
            static_sbsize=self.static_sbsize,
            checkpoint_path=(
                self._checkpoint_path(index) if self.checkpoint_dir else None
            ),
            checkpoint_every=self.checkpoint_every,
            replay_window=max(2 * self.max_inflight, 8),
            rng_restart_salt=restart_salt,
            heartbeat_every=self.heartbeat_every,
            fault_config=self.fault_config,
        )

    def _start(self, worker: _Worker, in_process: bool = False) -> Tuple[int, list]:
        """Start the shard's server -- in a fresh worker process, or in
        this process -- and return its ready announcement."""
        spec = self._spec(worker.index, worker.restarts)
        worker.flags = (False, False)
        if in_process:
            # The front-end process is the trusted domain (faults model
            # worker memory), so the in-process server runs without them.
            shard = InProcessShard(replace(spec, fault_config=None))
            worker.process = None
            worker.commands, worker.replies = shard, shard.replies
        else:
            worker.commands = self._ctx.Queue()
            worker.replies = self._ctx.Queue()
            worker.process = self._ctx.Process(
                target=shard_worker_main,
                args=(spec, worker.commands, worker.replies),
                daemon=True,
                name=f"repro-shard-{worker.index}",
            )
            worker.process.start()
        worker.last_progress = time.perf_counter()
        reply = self._await_reply(worker)
        if reply[0] == "error":
            raise WorkerFailure(f"worker {worker.index} failed to start: {reply[2]}")
        if reply[0] != "ready":
            raise WorkerFailure(
                f"worker {worker.index} sent {reply[0]!r} before ready"
            )
        return reply[1], reply[2]

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if getattr(self, "_closed", True):
            return
        self._closed = True
        for worker in self._workers:
            process = worker.process
            if process is None or not process.is_alive():
                continue
            try:
                worker.commands.put(("shutdown",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            process = worker.process
            if process is None:
                continue
            process.join(timeout=self.join_timeout_s)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self.join_timeout_s)

    def __enter__(self) -> "ParallelShardRuntime":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # --------------------------------------------------------------- pumping
    def _deadline_expired(self, worker: _Worker) -> bool:
        return (
            self.batch_deadline_s > 0
            and time.perf_counter() - worker.last_progress > self.batch_deadline_s
        )

    def _terminate_hung(self, worker: _Worker) -> None:
        """Declare a live-but-silent worker hung and take it down."""
        worker.hangs += 1
        self.registry.counter(f"parallel.worker{worker.index}.hangs").inc()
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=self.join_timeout_s)

    def _poll(self, worker: _Worker, timeout: float, deadline: bool = True):
        """The next reply from *worker*, or ``None`` if none arrived within
        *timeout* seconds (0: do not block).

        Heartbeats are consumed here -- they refresh the progress clock but
        are never surfaced.  Raises :class:`_WorkerLost` when the worker
        process died, or (with *deadline*) stayed silent past
        ``batch_deadline_s``, in which case it is terminated first.  The
        caller owns recovery, since only it knows which commands the lost
        incarnation's queue took with it.
        """
        if worker.process is None:
            # In-process server: put() already queued every reply it owes.
            while worker.replies:
                reply = worker.replies.popleft()
                if reply[0] != "heartbeat":
                    return reply
            return None
        while True:
            try:
                if timeout:
                    reply = worker.replies.get(timeout=timeout)
                else:
                    reply = worker.replies.get_nowait()
            except queue_module.Empty:
                if worker.process.is_alive():
                    if deadline and self._deadline_expired(worker):
                        self._terminate_hung(worker)
                        raise _WorkerLost(
                            f"worker {worker.index} hung: no progress for "
                            f"{self.batch_deadline_s:.3f}s",
                            "hang",
                        )
                    return None
                # One last drain: the worker may have replied, then died.
                reply = _drain_nowait(worker.replies)
                if reply is None:
                    raise _WorkerLost(
                        f"worker {worker.index} died "
                        f"(exitcode {worker.process.exitcode})",
                        "death",
                    )
            worker.last_progress = time.perf_counter()
            if reply[0] != "heartbeat":
                return reply
            timeout = 0

    def _await_reply(self, worker: _Worker, *, deadline: bool = False):
        """Block until *worker* replies (see :meth:`_poll`)."""
        while True:
            reply = self._poll(worker, _POLL_S, deadline)
            if reply is not None:
                return reply

    def _send_batch(
        self, worker: _Worker, positions: List[int], batch: list, seq=None
    ) -> None:
        if seq is None:
            seq = worker.next_seq
            worker.next_seq += 1
        worker.pending[seq] = (positions, batch)
        worker.sent_at[seq] = time.perf_counter()
        # A send restarts the progress clock: deadlines measure silence
        # *after* work was handed over, not idle time between batches.
        worker.last_progress = worker.sent_at[seq]
        worker.commands.put(("batch", seq, batch))
        self.registry.gauge(f"parallel.worker{worker.index}.queue_depth").set(
            worker.inflight
        )

    def _command(self, worker: _Worker, op: str, *args) -> None:
        """Send one seq-numbered non-batch command."""
        worker.commands.put((op, worker.next_seq) + args)
        worker.next_seq += 1

    def _record_ack(
        self,
        worker: _Worker,
        seq: int,
        completions: Sequence[int],
        checkpointed_seq: int,
        results: List[Optional[int]],
    ) -> bool:
        """Apply one ``batch_done``; True if it recorded new completions.

        A re-acknowledgement of a batch that was already recorded before a
        crash (replayed purely to reconstruct worker state) keeps the
        original completions and returns False.
        """
        newly_recorded = False
        entry = worker.pending.pop(seq, None)
        if entry is not None:
            positions, _batch = entry
            if results[positions[0]] is None:
                for position, cycle in zip(positions, completions):
                    results[position] = cycle
                newly_recorded = True
            if seq > checkpointed_seq:
                worker.unckpt[seq] = entry
            sent = worker.sent_at.pop(seq, None)
            roundtrip_us = 0
            if sent is not None:
                roundtrip_us = int((time.perf_counter() - sent) * 1e6)
                self.registry.histogram(
                    f"parallel.worker{worker.index}.batch_roundtrip_us"
                ).record(roundtrip_us)
            self.registry.counter(f"parallel.worker{worker.index}.batches").inc()
            self._feed_health_ack(worker, len(completions), roundtrip_us)
        for covered in [s for s in worker.unckpt if s <= checkpointed_seq]:
            del worker.unckpt[covered]
        self.registry.gauge(f"parallel.worker{worker.index}.queue_depth").set(
            worker.inflight
        )
        return newly_recorded

    # --------------------------------------------------------- health feeding
    def _feed_health_ack(
        self, worker: _Worker, accesses: int, roundtrip_us: int
    ) -> None:
        """One batch acknowledgement reached the front-end: feed the
        breaker.  Quarantined batches count toward the cooldown, probe acks
        toward re-admission; normal acks feed the latency window
        (microseconds stand in for cycles -- the policy knob is documented
        as round-trip µs for the parallel runtime)."""
        health = self.health
        if health is None:
            return
        index = worker.index
        state = health.state(index)
        if state is HealthState.QUARANTINED:
            for _ in range(accesses):
                health.record_fallback(index)
            self.registry.counter(f"parallel.worker{index}.fallback_batches").inc()
        elif state is HealthState.PROBING:
            health.record_probe(index, True)
        else:
            health.record_access(index, True, roundtrip_us)
        self._send_health_flags(worker)

    def _send_health_flags(self, worker: _Worker) -> None:
        """Hand the breaker's mitigations to the shard: degraded mode
        throttles merges and prefetcher, padding adds one dummy path
        access per request."""
        state = self.health.state(worker.index)
        flags = (state.throttled, state in _PADDED)
        if flags != worker.flags:
            worker.commands.put(("throttle", None) + flags)
            worker.flags = flags

    # -------------------------------------------------------------- recovery
    def _fail_worker(self, worker: _Worker, reason: str) -> None:
        """Route one dead or hung worker through the recovery ladder.

        Without a health plane the shard restarts as a fresh worker
        process.  With one, its breaker trips and the shard restarts in
        this process, where it is served one batch at a time until the
        breaker re-admits it (:meth:`_readmit`).
        """
        process = worker.process
        if process.is_alive():
            process.terminate()
        process.join(timeout=self.join_timeout_s)
        if self.health is not None:
            self.health.record_hard_failure(worker.index, reason)
            self._restart(worker, in_process=True)
            return
        if not self.checkpoint_dir:
            raise WorkerFailure(
                f"worker {worker.index} died (exitcode "
                f"{process.exitcode}) and checkpointing is disabled"
            )
        if worker.restarts >= self.max_restarts:
            raise WorkerFailure(
                f"worker {worker.index} exceeded its restart budget "
                f"({self.max_restarts})"
            )
        self._restart(worker, in_process=False)

    def _restart(self, worker: _Worker, in_process: bool) -> None:
        """Restore the shard from its checkpoint and replay the gap.

        Everything un-acknowledged or un-checkpointed goes back through
        the restored server.  Batches its reply window already covers are
        answered without re-execution; the rest re-run from the
        checkpointed state.  The restart salt advances, so the restored
        shard draws a fresh (still deterministic) leaf stream.
        """
        worker.restarts += 1
        self.registry.counter(f"parallel.worker{worker.index}.restarts").inc()
        restored_seq, window = self._start(worker, in_process)
        stored = {seq for seq, _completions in window}
        replay = dict(worker.unckpt)
        replay.update(worker.pending)
        worker.unckpt = {}
        worker.pending = {}
        worker.sent_at = {}
        if self.health is not None:
            self._send_health_flags(worker)
        for seq in sorted(replay):
            if seq <= restored_seq and seq not in stored:
                raise WorkerFailure(
                    f"worker {worker.index}: batch {seq} is inside the "
                    f"restored checkpoint but outside its reply window"
                )
            positions, batch = replay[seq]
            self._send_batch(worker, positions, batch, seq)

    def _readmit(self, worker: _Worker) -> bool:
        """Move a cooled-down quarantined shard back into a worker process,
        half-open (PROBING).  Returns True when it did.

        A worker whose restart budget is exhausted stays in-process for
        good (degraded-but-correct beats fatal)."""
        health = self.health
        if (
            worker.no_probe
            or worker.pending
            or not health.breakers[worker.index].ready_to_probe
        ):
            return False
        if worker.restarts >= self.max_restarts:
            worker.no_probe = True
            self.registry.counter(
                f"parallel.worker{worker.index}.probe_denied"
            ).inc()
            return False
        # Checkpoint everything the in-process server applied: the worker
        # process restores exactly that state, with nothing left to replay.
        self._command(worker, "checkpoint")
        reply = self._await_reply(worker)
        if reply[0] != "checkpoint_done":
            raise WorkerFailure(f"worker {worker.index} failed: {reply[2]}")
        worker.unckpt = {}
        health.begin_probe_if_ready(worker.index)
        self._restart(worker, in_process=False)
        return True

    def _inflight_cap(self, worker: _Worker) -> int:
        """Pipelining depth by health state: quarantined and probing shards
        go one batch at a time, degraded ones at half rate, healthy ones at
        full depth."""
        if self.health is None:
            return self.max_inflight
        state = self.health.state(worker.index)
        if state in _PADDED:
            return 1
        if state is HealthState.DEGRADED:
            return max(1, self.max_inflight // 2)
        return self.max_inflight

    # ------------------------------------------------------------------- run
    def run(
        self,
        requests: Sequence[Tuple[int, int, bool]],
        *,
        workload: str = "parallel",
        fsck: bool = False,
    ) -> SimResult:
        """Replay an ``(addr, now, is_write)`` stream; merge the results.

        Returns a :class:`SimResult` bit-identical to
        :func:`repro.parallel.merge.run_serial_reference` over the same
        stream, scheme, and shard count (restart telemetry stays in the
        metrics registry, deliberately outside the result).
        """
        if self._closed:
            raise WorkerFailure("runtime is closed")
        requests = list(requests)
        num_workers = self.num_workers
        # Partition by channel, preserving arrival order within a shard --
        # the sub-stream each shard of the serial reference serves.
        per_worker: List[List[Tuple[int, Tuple[int, int, bool]]]] = [
            [] for _ in range(num_workers)
        ]
        for position, (addr, now, is_write) in enumerate(requests):
            per_worker[addr % num_workers].append(
                (position, (addr // num_workers, now, is_write))
            )
        batches: List[List[Tuple[List[int], list]]] = []
        for assigned in per_worker:
            chunks = []
            for start in range(0, len(assigned), self.batch_size):
                chunk = assigned[start : start + self.batch_size]
                chunks.append(
                    ([position for position, _ in chunk], [r for _, r in chunk])
                )
            batches.append(chunks)
        results: List[Optional[int]] = [None] * len(requests)
        cursors = [0] * num_workers
        unrecorded = sum(len(chunks) for chunks in batches)
        while unrecorded:
            progressed = False
            for worker in self._workers:
                if self.health is not None and self._readmit(worker):
                    progressed = True
                chunks = batches[worker.index]
                cap = self._inflight_cap(worker)
                while (
                    cursors[worker.index] < len(chunks)
                    and worker.inflight < cap
                ):
                    positions, batch = chunks[cursors[worker.index]]
                    cursors[worker.index] += 1
                    self._send_batch(worker, positions, batch)
                    progressed = True
            for worker in self._workers:
                if not worker.pending:
                    continue
                try:
                    reply = self._poll(worker, 0)
                except _WorkerLost as lost:
                    self._fail_worker(worker, lost.reason)
                    progressed = True
                    continue
                if reply is None:
                    continue
                progressed = True
                if reply[0] == "error":
                    raise WorkerFailure(
                        f"worker {worker.index} failed: {reply[2]}"
                    )
                if reply[0] != "batch_done":
                    raise WorkerFailure(
                        f"worker {worker.index} sent unexpected "
                        f"{reply[0]!r} during a run"
                    )
                _op, seq, completions, checkpointed_seq = reply
                if self._record_ack(
                    worker, seq, completions, checkpointed_seq, results
                ):
                    unrecorded -= 1
            if not progressed:
                time.sleep(0.001)
        # Barrier: drain every worker at the globally last completion so
        # finalize semantics match the serial reference, then snapshot.
        horizon = max((c for c in results if c is not None), default=0)
        snapshots = self._barrier(horizon, fsck, results)
        completions_final = [c for c in results if c is not None]
        if len(completions_final) != len(requests):
            raise WorkerFailure("lost completions: merge would under-count")
        return merge_shard_snapshots(
            snapshots,
            completions_final,
            workload=workload,
            scheme=self.scheme,
        )

    def _barrier(
        self, horizon: int, fsck: bool, results: List[Optional[int]]
    ) -> List[dict]:
        """Drain + (optionally) fsck + snapshot every shard."""
        snapshots: List[Optional[dict]] = [None] * self.num_workers
        fsck_failures: List[str] = []
        for worker in self._workers:
            self._send_barrier_commands(worker, horizon, fsck)
        for worker in self._workers:
            while snapshots[worker.index] is None:
                try:
                    reply = self._await_reply(worker, deadline=True)
                except _WorkerLost as lost:
                    # Death (or hang) at the barrier: recover, then re-issue
                    # the barrier commands the lost incarnation took with it.
                    self._fail_worker(worker, lost.reason)
                    self._send_barrier_commands(worker, horizon, fsck)
                    continue
                if reply[0] == "error":
                    raise WorkerFailure(
                        f"worker {worker.index} failed: {reply[2]}"
                    )
                if reply[0] == "batch_done":
                    # Ack of a recovery replay: route through the normal
                    # bookkeeping (already-recorded completions are kept).
                    _op, seq, completions, checkpointed_seq = reply
                    self._record_ack(
                        worker, seq, completions, checkpointed_seq, results
                    )
                elif reply[0] == "stats":
                    snapshots[worker.index] = reply[2]
                elif reply[0] == "fsck_done" and not reply[2]:
                    fsck_failures.append(reply[3])
        if fsck and fsck_failures:
            raise WorkerFailure("parallel fsck failed: " + "; ".join(fsck_failures))
        return snapshots  # type: ignore[return-value]

    def _send_barrier_commands(
        self, worker: _Worker, horizon: int, fsck: bool
    ) -> None:
        worker.last_progress = time.perf_counter()
        self._command(worker, "drain", horizon)
        if fsck:
            self._command(worker, "fsck")
        self._command(worker, "stats")

    # ------------------------------------------------------------ inspection
    def metrics(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Return (or merge into) the registry holding the worker gauges."""
        if registry is None:
            return self.registry
        from repro.observability.collect import collect_parallel

        return collect_parallel(self, registry)

    def total_restarts(self) -> int:
        return sum(worker.restarts for worker in self._workers)

    def total_hangs(self) -> int:
        return sum(worker.hangs for worker in self._workers)

    def worker_restarts(self) -> List[int]:
        return [worker.restarts for worker in self._workers]

    def worker_hangs(self) -> List[int]:
        return [worker.hangs for worker in self._workers]

    def kill_worker(self, index: int) -> None:
        """Hard-kill one worker process (fault-injection hook for tests).

        A no-op while the shard is served in-process."""
        process = self._workers[index].process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=self.join_timeout_s)

    def hang_worker(self, index: int, seconds: float = 3600.0) -> None:
        """Stall one worker's command loop (chaos hook).

        The worker stays alive but stops serving batches and heartbeats
        for *seconds* -- the failure mode the old runtime could only wait
        out.  With deadline enforcement the front-end detects the silence,
        terminates the process, and runs the recovery ladder.  A no-op
        while the shard is served in-process."""
        worker = self._workers[index]
        if worker.process is not None and worker.process.is_alive():
            worker.commands.put(("hang", None, seconds))
