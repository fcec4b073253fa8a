"""A fixed pure-Python kernel that measures how fast the host runs now.

On a shared host the speed available to one process drifts by up to a
factor of two over minutes, as other tenants come and go.  Within one
run the simulator's rate and this kernel's rate move together (on a
2-CPU VM: correlation 0.79 over 219 alternating repetitions of
``replay_locality``).  The harness times the kernel between repetitions
and scales each repetition's host times to a host on which the kernel
takes ``REFERENCE_S`` seconds.  The kernel shares no code with the
simulator, so a change to the simulator cannot move it.
"""

from __future__ import annotations

import gc
import random
import time

#: the kernel's time on the reference host the host metrics are scaled to
REFERENCE_S = 0.15


class _Block:
    __slots__ = ("addr", "leaf")


def kernel_seconds(levels: int = 13, blocks: int = 16_384, accesses: int = 24) -> float:
    """Wall time of a fixed run of a tiny Path ORAM.

    Every access looks up and remaps a position, reads a path into the
    stash and writes it back greedily, four blocks a bucket.  All blocks
    start in the stash, so write-back scans a large dict, as the
    simulator's stash and tree bookkeeping does.  The garbage collector
    is off while it runs, so its time does not depend on what the run
    left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        rng = random.Random(7)
        leaves = 1 << levels
        tree = [[] for _ in range(2 * leaves - 1)]
        position = {}
        stash = {}
        for addr in range(blocks):
            block = _Block()
            block.addr = addr
            block.leaf = position[addr] = rng.randrange(leaves)
            stash[addr] = block
        for _ in range(accesses):
            addr = rng.randrange(blocks)
            leaf = position[addr]
            position[addr] = rng.randrange(leaves)
            path = [(1 << level) - 1 + (leaf >> (levels - level)) for level in range(levels + 1)]
            for index in path:
                for block in tree[index]:
                    stash[block.addr] = block
                tree[index] = []
            stash[addr].leaf = position[addr]
            for level in range(levels, -1, -1):
                shift = levels - level
                bucket = tree[path[level]]
                placed = []
                for key, block in stash.items():
                    if len(bucket) == 4:
                        break
                    if block.leaf >> shift == leaf >> shift:
                        bucket.append(block)
                        placed.append(key)
                for key in placed:
                    del stash[key]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
