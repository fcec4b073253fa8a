"""Span schema for per-access traces.

One **span** describes one complete ORAM access
(``ORAMBackend._perform_access``): which request kind entered (demand /
prefetch / writeback / periodic dummy), which shard served it, the cycle
interval it occupied, how many cycles each access phase contributed, and the side effects it produced (super-block merges
and breaks, fault retries, stash occupancy after the access).

The hot path emits spans as plain dicts -- building a dataclass per
access would roughly double the allocation cost of tracing -- so this
module is the *schema* authority: :data:`SPAN_FIELDS` documents every
key an access span carries, and :class:`Span` is the typed wrapper used
when reading traces back (CLI reports, tests, offline analysis).

Recorders also carry **events**: non-access records such as run start /
end markers and periodic-schedule dummies.  Events share the trace
stream and are distinguished by their ``"event"`` key; spans have none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

#: Every key of an access span, in schema order.  ``phases`` maps phase
#: name -> cycles for the four phases of the access (posmap, path_read,
#: remap, writeback).
SPAN_FIELDS: Tuple[str, ...] = (
    "seq",          # global emission index (0-based, per recorder)
    "kind",         # "demand" | "prefetch" | "writeback"
    "addr",         # block address served (global address on a sharded bank)
    "shard",        # shard index (0 for a single controller)
    "start",        # cycle the access issued
    "end",          # cycle the access completed
    "phases",       # {phase name: cycles}
    "fault_delay",  # extra cycles spent in fault recovery
    "retries",      # fault retries consumed by this access
    "evictions",    # background evictions folded into this access
    "posmap_extra", # extra path accesses for PosMap recursion misses
    "stash",        # stash occupancy after the access completed
    "merges",       # super-block merges performed during the access
    "breaks",       # super-block breaks performed during the access
)


@dataclass
class Span:
    """Typed view of one access span (used on the *read* side)."""

    seq: int
    kind: str
    addr: int
    shard: int
    start: int
    end: int
    phases: Dict[str, int] = field(default_factory=dict)
    fault_delay: int = 0
    retries: int = 0
    evictions: int = 0
    posmap_extra: int = 0
    stash: int = 0
    merges: int = 0
    breaks: int = 0

    @property
    def latency(self) -> int:
        return self.end - self.start

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Span":
        """Build a span from a recorded dict (e.g. a parsed JSONL line)."""
        return cls(**{name: record[name] for name in SPAN_FIELDS if name in record})


def is_span(record: Mapping[str, Any]) -> bool:
    """True for access spans, False for event records."""
    return "event" not in record
