"""Persistent, content-addressed tuning cache.

A tuned launch configuration is a pure function of two things: the
*group signature* (everything the candidate search reads from a
schedule group — dominant kind, reduce geometry, proxy traffic,
barrier/legality context) and the device :class:`GPUSpec`.
No compiler switch reaches the search: every configuration that tunes
searches the same space.  This module stores the winning
decision under exactly that key, so a shape that was tuned once — by any
session, in any process — never pays the candidate sweep again.

Decisions live in the shared :class:`~repro.store.TieredStore`, like
compiled modules and plans: a bounded in-memory LRU and
``tune_<key_digest>.pkl`` files in the same
``REPRO_COMPILE_CACHE_DIR`` directory.  A stale or foreign file degrades
to a miss, never a wrong config.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

from repro.gpu.spec import GPUSpec
from repro.store import ProcessDefault, TieredStore

if TYPE_CHECKING:
    from repro.tuning.tuner import GroupSignature

# Bump on any change to the decision payload, the candidate space, the
# signature encoding or the key composition; invalidates every
# persisted tuning entry at once.
TUNING_FORMAT_VERSION = 3

# Decisions are tiny (one ThreadMapping plus a few floats); thousands of
# distinct group shapes fit in a few MB.
DEFAULT_CAPACITY = 4096


@dataclasses.dataclass(frozen=True)
class TuningKey:
    """Full address of one tuned launch decision.

    Attributes:
        group: The group's :class:`~repro.tuning.tuner.GroupSignature`,
            by value, like ``spec``.
        spec: Device spec, by value — any field change is a miss.
    """

    group: GroupSignature
    spec: GPUSpec


class TuningCache(TieredStore[TuningKey, Any]):
    """Two-tier store of tuned decisions (``tune_<key_digest>.pkl`` on
    disk, beside the compiled modules and plans)."""

    prefix = "tune_"
    version = TUNING_FORMAT_VERSION
    default_capacity = DEFAULT_CAPACITY


# The process-wide tuning cache every compile shares by default.
_default = ProcessDefault("tuning", TuningCache.from_env)
default_tuning_cache = _default.get
set_default_tuning_cache = _default.set
