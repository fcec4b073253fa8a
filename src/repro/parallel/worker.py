"""The shard server: one ORAM controller and the commands that drive it.

A :class:`ShardServer` owns exactly one channel of the bank -- a complete
:class:`~repro.memory.oram_backend.ORAMBackend` with its own tree, stash,
position-map hierarchy, and phase counters -- rebuilt from the
:class:`~repro.parallel.protocol.ShardSpec` (specs are data; live
backends never cross a process boundary).  :meth:`ShardServer.handle`
serves one command tuple and emits its reply tuples; the shapes are
documented in :mod:`repro.parallel.protocol`.  Two transports drive it:
:func:`shard_worker_main` loops over a worker process's queue pair, and
:class:`InProcessShard` serves each command synchronously in the caller's
process (the runtime's quarantine fallback).

Durability: when the spec carries a checkpoint path, the server persists
its entire backend (via :func:`repro.oram.checkpoint.save_backend`) every
``checkpoint_every`` batches, *before* acknowledging the batch, and keeps
a window of recent ``(seq, completions)`` replies inside the checkpoint's
runtime section.  A restarted server therefore reports exactly which
batches survived (``last_seq``) and can re-serve acknowledgements the
crash swallowed -- the front-end replays only what is genuinely missing.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque

from repro.controller.sharded import snapshot_shard_stats
from repro.oram.checkpoint import restore_backend, save_backend
from repro.parallel.protocol import ShardSpec


def build_worker_backend(spec: ShardSpec):
    """Rebuild this worker's shard exactly as the serial bank would."""
    from repro.sim.system import build_shard_backend

    injector = None
    if spec.fault_config is not None:
        from dataclasses import replace

        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            replace(
                spec.fault_config,
                seed=spec.fault_config.seed
                + 1009 * spec.shard_index
                + 31 * spec.rng_restart_salt,
            )
        )
    return build_shard_backend(
        spec.base_scheme,
        spec.footprint_blocks,
        spec.config,
        spec.shard_index,
        spec.num_shards,
        static_sbsize=spec.static_sbsize,
        fault_injector=injector,
        rng_restart_salt=spec.rng_restart_salt,
    )


class ShardServer:
    """Build (or restore) one shard and serve the worker protocol on it."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.backend = build_worker_backend(spec)
        self.last_seq = -1
        self.window = []  # recent [seq, completions] pairs, oldest first
        #: health-plane padding: one dummy path access after every request
        self.padded = False
        self._since_checkpoint = 0
        if spec.checkpoint_path and os.path.exists(spec.checkpoint_path):
            runtime = restore_backend(self.backend, spec.checkpoint_path)
            self.last_seq = runtime.get("last_seq", -1)
            self.window = [list(entry) for entry in runtime.get("replies", [])]
            self.checkpointed_seq = self.last_seq
        elif spec.checkpoint_path:
            # Genesis checkpoint: a crash before the first periodic
            # checkpoint must still leave something to restore from.
            self._checkpoint()
        else:
            self.checkpointed_seq = self.last_seq

    def ready(self) -> tuple:
        return ("ready", self.last_seq, [list(entry) for entry in self.window])

    def _checkpoint(self) -> None:
        save_backend(
            self.backend,
            self.spec.checkpoint_path,
            {
                "last_seq": self.last_seq,
                "replies": [list(entry) for entry in self.window],
            },
        )
        self.checkpointed_seq = self.last_seq
        self._since_checkpoint = 0

    def handle(self, command: tuple, emit) -> bool:
        """Serve one command, passing each reply to *emit*; False on shutdown."""
        op = command[0]
        seq = command[1] if len(command) > 1 else None
        try:
            if op == "shutdown":
                return False
            if op == "batch":
                self._batch(seq, command[2], emit)
            elif op == "drain":
                backend = self.backend
                backend.finalize(max(command[2], backend.busy_until))
                emit(("drained", seq))
            elif op == "stats":
                emit(("stats", seq, snapshot_shard_stats(self.backend)))
            elif op == "fsck":
                from repro.faults.fsck import run_fsck

                report = run_fsck(self.backend.oram)
                emit(("fsck_done", seq, report.ok, report.summary()))
            elif op == "checkpoint":
                if self.spec.checkpoint_path:
                    self._checkpoint()
                emit(("checkpoint_done", seq, self.checkpointed_seq))
            elif op == "throttle":
                # Health flags from the front-end's breaker: no reply, so
                # they never perturb the seq/ack bookkeeping.
                _op, _seq, degraded, self.padded = command
                self.backend.set_degraded(degraded)
            elif op == "hang":
                # Chaos hook: stall the command loop without dying.  The
                # batches queued behind this command stop being served,
                # which is exactly the failure deadline enforcement must
                # catch (a kill is detectable by liveness; a hang is not).
                time.sleep(command[2])
            else:
                emit(("error", seq, f"unknown command {op!r}"))
        except Exception:
            emit(("error", seq, traceback.format_exc()))
        return True

    def _batch(self, seq: int, batch: list, emit) -> None:
        if seq <= self.last_seq:
            # Replay of already-applied work: the crash swallowed the
            # acknowledgement, not the effects.  Answer from the stored
            # window instead of re-executing.
            for stored_seq, stored in self.window:
                if stored_seq == seq:
                    emit(("batch_done", seq, stored, self.checkpointed_seq))
                    return
            emit(
                (
                    "error",
                    seq,
                    f"batch {seq} predates the replay window "
                    f"(last_seq={self.last_seq})",
                )
            )
            return
        backend = self.backend
        spec = self.spec
        heartbeat_every = spec.heartbeat_every
        completions = []
        for addr, now, is_write in batch:
            completion = backend.demand_access(addr, now, is_write).completion_cycle
            if self.padded:
                # Sick shard (quarantined or probing): every request gets
                # one dummy path access, the padding invariant of the bank.
                completion = backend.dummy_path_access(completion)
            completions.append(completion)
            # Mid-batch liveness proof: under deadline enforcement the
            # front-end must tell "slow" from "hung", and the only evidence
            # that crosses the process boundary is a reply.  The final
            # completion is announced by batch_done itself, so no heartbeat
            # follows it.
            if (
                heartbeat_every
                and len(completions) % heartbeat_every == 0
                and len(completions) < len(batch)
            ):
                emit(("heartbeat", seq, len(completions)))
        self.last_seq = seq
        self.window.append([seq, completions])
        del self.window[: -max(spec.replay_window, 1)]
        self._since_checkpoint += 1
        if (
            spec.checkpoint_path
            and spec.checkpoint_every
            and self._since_checkpoint >= spec.checkpoint_every
        ):
            self._checkpoint()
        emit(("batch_done", seq, completions, self.checkpointed_seq))


def shard_worker_main(spec: ShardSpec, commands, replies) -> None:
    """Entry point of the worker process (target of ``Process``)."""
    try:
        server = ShardServer(spec)
    except Exception:
        replies.put(("error", None, traceback.format_exc()))
        return
    replies.put(server.ready())
    while server.handle(commands.get(), replies.put):
        pass


class InProcessShard:
    """A :class:`ShardServer` driven from the caller's process.

    :meth:`put` serves each command synchronously and its replies queue up
    in :attr:`replies` -- the worker's queue pair without the process.
    """

    def __init__(self, spec: ShardSpec):
        self.server = ShardServer(spec)
        self.replies = deque([self.server.ready()])

    def put(self, command: tuple) -> None:
        self.server.handle(command, self.replies.append)
