"""The ORAM controller layer: one protocol, many schemes.

Historically every ORAM scheme in this repository re-implemented its own
access loop and ``ORAMBackend._perform_access`` was welded to
:class:`~repro.oram.path_oram.PathORAM` internals.  This package is the
seam that separates *what an ORAM scheme must provide* from *how the
memory controller drives it*:

* :mod:`repro.controller.scheme` -- the :class:`ORAMScheme` protocol
  (begin/finish access, background eviction, stash drain, invariant
  check) that Path ORAM, Ring ORAM, the Shi et al. tree ORAM, and the
  square-root ORAM all implement, plus a registry for building any of
  them by name;
* :mod:`repro.controller.mixins` -- the stash/eviction/placement logic
  that used to be duplicated across the scheme zoo, hoisted into shared
  mixins;
* :mod:`repro.controller.sharded` -- the channel-interleaved
  :class:`ShardedORAMBank` that fans requests out over N independent
  scheme instances behind the single :class:`MemoryBackend` interface
  (imported directly, not re-exported here, to keep the package import
  acyclic with :mod:`repro.memory`).
"""

from repro.controller.mixins import (
    BoundedDrainMixin,
    DeepestPlacementMixin,
    GreedyWritebackMixin,
    SharedLeafMixin,
)
from repro.controller.scheme import ORAMScheme, SCHEME_FACTORIES, build_scheme

__all__ = [
    "BoundedDrainMixin",
    "DeepestPlacementMixin",
    "GreedyWritebackMixin",
    "ORAMScheme",
    "SCHEME_FACTORIES",
    "SharedLeafMixin",
    "build_scheme",
]
