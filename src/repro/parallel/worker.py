"""The shard worker: one process, one ORAM controller, one command loop.

A worker owns exactly one channel of the bank -- a complete
:class:`~repro.memory.oram_backend.ORAMBackend` with its own tree, stash,
position-map hierarchy, and phase counters -- rebuilt inside the child
process from the :class:`~repro.parallel.protocol.ShardSpec` (specs are
data; live backends never cross a process boundary).  It drains command
tuples from its queue and pushes reply tuples back; the shapes are
documented in :mod:`repro.parallel.protocol`.

Durability: when the spec carries a checkpoint path, the worker persists
its entire backend (via :func:`repro.oram.checkpoint.save_backend`) every
``checkpoint_every`` batches, *before* acknowledging the batch, and keeps
a window of recent ``(seq, completions)`` replies inside the checkpoint's
runtime section.  A respawned worker therefore reports exactly which
batches survived (``last_seq``) and can re-serve acknowledgements the
crash swallowed -- the front-end replays only what is genuinely missing.
"""

from __future__ import annotations

import os
import traceback

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


def _checkpoint(backend, spec: ShardSpec, last_seq: int, window) -> int:
    save_backend(
        backend,
        spec.checkpoint_path,
        {"last_seq": last_seq, "replies": [list(entry) for entry in window]},
    )
    return last_seq


def shard_worker_main(spec: ShardSpec, commands, replies) -> None:
    """Entry point of the worker process (target of ``Process``)."""
    try:
        backend = build_worker_backend(spec)
        last_seq = -1
        window = []  # recent [seq, completions] pairs, oldest first
        if spec.checkpoint_path and os.path.exists(spec.checkpoint_path):
            runtime = restore_backend(backend, spec.checkpoint_path)
            last_seq = runtime.get("last_seq", -1)
            window = [list(entry) for entry in runtime.get("replies", [])]
            checkpointed_seq = last_seq
        elif spec.checkpoint_path:
            # Genesis checkpoint: a crash before the first periodic
            # checkpoint must still leave something to restore from.
            checkpointed_seq = _checkpoint(backend, spec, last_seq, window)
        else:
            checkpointed_seq = last_seq
        replies.put(("ready", last_seq, [list(entry) for entry in window]))
    except Exception:
        replies.put(("error", None, traceback.format_exc()))
        return

    batches_since_checkpoint = 0
    while True:
        command = commands.get()
        op = command[0]
        seq = command[1] if len(command) > 1 else None
        try:
            if op == "shutdown":
                return
            if op == "batch":
                batch = command[2]
                if seq <= last_seq:
                    # Replay of already-applied work: the crash swallowed
                    # the acknowledgement, not the effects.  Answer from
                    # the stored window instead of re-executing.
                    for stored_seq, stored in window:
                        if stored_seq == seq:
                            replies.put(
                                ("batch_done", seq, stored, checkpointed_seq)
                            )
                            break
                    else:
                        replies.put(
                            (
                                "error",
                                seq,
                                f"batch {seq} predates the replay window "
                                f"(last_seq={last_seq})",
                            )
                        )
                    continue
                completions = []
                for addr, now, is_write in batch:
                    completions.append(
                        backend.demand_access(addr, now, is_write).completion_cycle
                    )
                    # Mid-batch liveness proof: under deadline enforcement
                    # the front-end must tell "slow" from "hung", and the
                    # only evidence that crosses the process boundary is a
                    # reply.  The final completion is announced by
                    # batch_done itself, so no heartbeat follows it.
                    if (
                        spec.heartbeat_every
                        and len(completions) % spec.heartbeat_every == 0
                        and len(completions) < len(batch)
                    ):
                        replies.put(("heartbeat", seq, len(completions)))
                last_seq = seq
                window.append([seq, completions])
                del window[: -max(spec.replay_window, 1)]
                batches_since_checkpoint += 1
                if (
                    spec.checkpoint_path
                    and spec.checkpoint_every
                    and batches_since_checkpoint >= spec.checkpoint_every
                ):
                    checkpointed_seq = _checkpoint(backend, spec, last_seq, window)
                    batches_since_checkpoint = 0
                replies.put(("batch_done", seq, completions, checkpointed_seq))
            elif op == "drain":
                backend.finalize(max(command[2], backend.busy_until))
                replies.put(("drained", seq))
            elif op == "stats":
                replies.put(("stats", seq, snapshot_shard_stats(backend)))
            elif op == "fsck":
                from repro.faults.fsck import run_fsck

                report = run_fsck(backend.oram)
                replies.put(("fsck_done", seq, report.ok, report.summary()))
            elif op == "checkpoint":
                if spec.checkpoint_path:
                    checkpointed_seq = _checkpoint(backend, spec, last_seq, window)
                replies.put(("checkpoint_done", seq, checkpointed_seq))
            elif op == "throttle":
                # Degraded-mode switch from the front-end's breaker: no
                # reply, so it never perturbs the seq/ack bookkeeping.
                backend.set_degraded(bool(command[2]))
            elif op == "hang":
                # Chaos hook: stall the command loop without dying.  The
                # batches queued behind this command stop being served,
                # which is exactly the failure deadline enforcement must
                # catch (a kill is detectable by liveness; a hang is not).
                import time

                time.sleep(command[2])
            else:
                replies.put(("error", seq, f"unknown command {op!r}"))
        except Exception:
            replies.put(("error", seq, traceback.format_exc()))
