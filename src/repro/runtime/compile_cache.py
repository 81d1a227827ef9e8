"""Content-addressed compilation cache.

The paper's JIT cost (~90 s on 5,000–10,000-node graphs, Sec 6.4.1) is
"introduced only once for all following iterations" — this module makes
that amortization real across *graph objects*, *sessions* and *process
runs*.  A compiled module is addressed by what produced it:

    (pipeline fingerprint, graph fingerprint, device spec)

The pipeline fingerprint is the compiler's identity (its name and every
pass signature, the simplification fixpoint included when optimizing);
the graph fingerprint is the structural hash of
:mod:`repro.ir.fingerprint`.  The spec enters by value, because adaptive
mapping and launch configuration read its fields (Sec 3.3, 4.5).  The
two tiers (memory LRU and ``<key_digest>.pkl`` files under
``REPRO_COMPILE_CACHE_DIR``) are the shared
:class:`~repro.store.TieredStore`, so warm compilations survive process
restarts and a stale or foreign file degrades to a miss, never a wrong
module.
"""

from __future__ import annotations

import dataclasses

from repro.compilers.base import CompiledModule
from repro.gpu.spec import GPUSpec
from repro.store import ProcessDefault, TieredStore

# Bump on any change to the key composition; invalidates every persisted
# entry at once.  v3: the key is (pipeline, graph, spec by value); the
# device name and the separate compiler identity are gone.
CACHE_FORMAT_VERSION = 3

# Default in-memory capacity: compiled modules are a few MB of Python
# objects at most; hundreds fit comfortably.
DEFAULT_CAPACITY = 256


@dataclasses.dataclass(frozen=True)
class CacheKey:
    """Full address of one compilation result.

    Attributes:
        pipeline: The compiler's pipeline fingerprint
            (:meth:`~repro.compilers.base.Compiler.pipeline_fingerprint`)
            for the requested ``optimize`` flag.
        graph: Structural graph fingerprint.
        spec: Device spec, by value — any field change is a miss.
    """

    pipeline: str
    graph: str
    spec: GPUSpec


class CompileCache(TieredStore[CacheKey, CompiledModule]):
    """Two-tier store of compiled modules (``<key_digest>.pkl`` on disk)."""

    prefix = ""
    version = CACHE_FORMAT_VERSION
    default_capacity = DEFAULT_CAPACITY
    value_type = CompiledModule


# The process-wide cache every service/session shares by default.
_default = ProcessDefault("compile", CompileCache.from_env)
default_cache = _default.get
set_default_cache = _default.set
