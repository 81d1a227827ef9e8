"""Content-addressed compilation cache.

The paper's JIT cost (~90 s on 5,000–10,000-node graphs, Sec 6.4.1) is
"introduced only once for all following iterations" — this module makes
that amortization real across *graph objects*, *sessions* and *process
runs*.  A compiled module is addressed by what produced it:

    (compiler fingerprint, graph fingerprint, device spec, optimize flag)

where the graph fingerprint is the structural content hash of
:mod:`repro.ir.fingerprint` and the compiler fingerprint covers the
strategy class plus its configuration.  The two tiers (memory LRU and
``<digest>.pkl`` files under ``REPRO_COMPILE_CACHE_DIR``) are the shared
:class:`~repro.store.TieredStore`, so warm compilations survive process
restarts and a stale or foreign file degrades to a miss, never a wrong
module.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.compilers.base import CompiledModule, Compiler
from repro.store import ProcessDefault, TieredStore

# Bump on any change to the key composition; invalidates every persisted
# entry at once.  v2: keys carry the compiler's pipeline fingerprint, so
# recomposing a pass pipeline invalidates its cached artifacts instead
# of aliasing them.
CACHE_FORMAT_VERSION = 2

# Default in-memory capacity: compiled modules are a few MB of Python
# objects at most; hundreds fit comfortably.
DEFAULT_CAPACITY = 256


def compiler_fingerprint(compiler: Compiler) -> str:
    """Identity of a compilation *strategy instance*.

    Covers the class (module + qualname guards against two strategies
    sharing a ``name``), the advertised name, and the configuration
    dataclass when the compiler carries one (``AStitchConfig`` ablations
    must not alias the full pipeline's artifacts).
    """
    cls = type(compiler)
    parts = [cls.__module__, cls.__qualname__, compiler.name]
    config = getattr(compiler, "config", None)
    if dataclasses.is_dataclass(config):
        fields = sorted(dataclasses.asdict(config).items())
        parts.append(";".join(f"{k}={v!r}" for k, v in fields))
    return "|".join(parts)


@dataclasses.dataclass(frozen=True)
class CacheKey:
    """Full address of one compilation result.

    Attributes:
        compiler: Compiler fingerprint (:func:`compiler_fingerprint`).
        graph: Structural graph fingerprint.
        spec: Device spec name (``V100``/``T4``/``A100``).
        optimize: Whether the retained simplification pipeline ran
            before kernel formation (``compile_optimized`` vs
            ``compile``).
        pipeline: The compiler's pipeline-composition fingerprint
            (:meth:`~repro.compilers.base.Compiler.pipeline_fingerprint`,
            "" for compilers without a declared pipeline) — reordering
            or reconfiguring a pass re-keys every artifact it produced.
    """

    compiler: str
    graph: str
    spec: str
    optimize: bool
    pipeline: str = ""

    def digest(self) -> str:
        """Stable hex digest — the persistent tier's file name."""
        text = "|".join([f"v{CACHE_FORMAT_VERSION}", self.compiler,
                         self.graph, self.spec, str(self.optimize),
                         self.pipeline])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CompileCache(TieredStore[CacheKey, CompiledModule]):
    """Two-tier store of compiled modules (``<digest>.pkl`` on disk)."""

    prefix = ""
    version = CACHE_FORMAT_VERSION
    default_capacity = DEFAULT_CAPACITY
    value_type = CompiledModule


# The process-wide cache every service/session shares by default.
_default = ProcessDefault("compile", CompileCache.from_env)
default_cache = _default.get
set_default_cache = _default.set
