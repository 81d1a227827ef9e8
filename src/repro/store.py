"""Content-addressed, two-tier artifact store.

Every expensive artifact this package produces — compiled modules,
priced execution plans, tuned launch decisions, occupancy results — is
a pure function of a key, so one store serves them all.  The paper's
JIT cost is "introduced only once for all following iterations"
(Sec 6.4.1); this module is where that "once" is remembered.

Two tiers:

* a bounded in-memory LRU with hit/miss/eviction counters
  (:class:`StoreStats`);
* an optional on-disk tier of pickled entries under a cache directory,
  ``<prefix><key_digest(key)>.pkl``.  Point ``REPRO_COMPILE_CACHE_DIR``
  at a persistent location and the process-wide stores survive restarts.

Keys hold values, never names: compile, plan and tuning keys all carry
the whole device spec.  :func:`key_digest` names every persisted file.

Every process-wide memo of the package registers here by name
(:func:`register`); :func:`reset_caches` clears them all.
:func:`collector_paused` is the one place the package touches the
cyclic garbage collector.

An entry on disk carries a header — the store's format version, the
:func:`source_digest` of the code that wrote it, and the full key — and
is served only when all three match and the value has the expected
type.  A stale, foreign, corrupt or half-written file degrades to a
miss, never a wrong artifact.

This module is a leaf: it imports only the standard library, so every
layer (``repro.gpu`` included) can build on it.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import gc
import hashlib
import os
import pathlib
import pickle
import tempfile
import threading
from typing import Any, Callable, Generic, Hashable, Optional, TypeVar

CACHE_DIR_ENV = "REPRO_COMPILE_CACHE_DIR"

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")
S = TypeVar("S", bound="TieredStore")
T = TypeVar("T")
M = TypeVar("M")


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """sha256 over the relative path and bytes of every ``*.py`` file of
    the ``repro`` package.

    Folded into every persisted entry, so editing any pass, cost model
    or store invalidates what the old code wrote without a manual
    format-version bump.  Computed once per process, and only when a
    disk tier reads or writes.
    """
    root = pathlib.Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix()
                      for p in root.rglob("*.py")):
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update((root / rel).read_bytes())
    return digest.hexdigest()


def key_digest(key: Hashable) -> str:
    """The file-name stem of ``key``'s persisted entry: sha256 of its
    repr, which is stable across processes for the frozen-dataclass
    keys every store uses.  A load still checks the full key, format
    version and :func:`source_digest` in the entry's header."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


@dataclasses.dataclass
class StoreStats:
    """Store behaviour counters.

    Attributes:
        hits: Requests served from the in-memory tier.
        disk_hits: Requests served from the persistent tier (and
            promoted into memory).
        misses: Requests neither tier could serve.
        evictions: Entries dropped from memory by the LRU bound
            (entries already persisted remain on disk).
        disk_stores: Entries written to the persistent tier.
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_stores: int = 0

    @property
    def requests(self) -> int:
        """Every ``get``: each counts exactly one hit, disk hit or miss."""
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served by either tier (0.0 when idle)."""
        if not self.requests:
            return 0.0
        return (self.hits + self.disk_hits) / self.requests


class TieredStore(Generic[K, V]):
    """Two-tier (memory LRU + optional disk) store of ``V`` by ``K``.

    Keys must be hashable; a store with a disk tier names each entry's
    file by :func:`key_digest`, so its keys also need a stable repr.  A
    configured store is a subclass that sets the class attributes
    below; the bare class is a memory-only LRU.

    Thread-safe: concurrent caller threads (a shared ``Session``,
    serving threads) share the process-wide stores.

    Args:
        capacity: In-memory entry bound (``default_capacity`` when
            omitted); the least recently used entry is evicted past it.
        cache_dir: Directory for the persistent tier; ``None`` keeps
            the store memory-only.
    """

    #: File-name prefix of this store's entries in a shared directory.
    prefix: str = ""
    #: Payload format version, checked on load.
    version: int = 0
    #: In-memory bound when the constructor gets none.
    default_capacity: int = 256
    #: Loaded values of any other type are misses.
    value_type: type = object

    def __init__(self, capacity: Optional[int] = None,
                 cache_dir: Optional[str | os.PathLike] = None):
        if capacity is None:
            capacity = self.default_capacity
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.cache_dir = (pathlib.Path(cache_dir)
                          if cache_dir is not None else None)
        self.stats = StoreStats()
        self._entries: "collections.OrderedDict[K, V]" = \
            collections.OrderedDict()
        self._lock = threading.Lock()

    @classmethod
    def from_env(cls: type[S]) -> S:
        """A store with its persistent tier under ``REPRO_COMPILE_CACHE_DIR``
        (memory-only when unset): the process defaults' factory."""
        return cls(cache_dir=os.environ.get(CACHE_DIR_ENV) or None)

    # -- lookup / store -----------------------------------------------------

    def get(self, key: K, fresh: Optional[Callable[[V], bool]] = None,
            ) -> Optional[V]:
        """The stored value for ``key``, or None (counts a miss).

        Args:
            fresh: Optional check of an in-memory value; one it rejects
                is dropped and the lookup goes on as if it were absent.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None and fresh is not None \
                    and not fresh(value):
                del self._entries[key]
                value = None
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
            if self.cache_dir is not None:
                value = self._load(key)
                if value is not None:
                    self.stats.disk_hits += 1
                    self._insert(key, value)
                    return value
            self.stats.misses += 1
            return None

    def put(self, key: K, value: V) -> None:
        """Store ``value`` in both tiers (disk only when configured)."""
        with self._lock:
            self._insert(key, value)
            if self.cache_dir is not None:
                self._write(key, value)

    def _insert(self, key: K, value: V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the in-memory tier and zero the counters (the persistent
        tier is untouched)."""
        with self._lock:
            self._entries.clear()
            self.stats = StoreStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    # -- persistent tier ----------------------------------------------------

    def _path(self, key: K) -> pathlib.Path:
        return self.cache_dir / f"{self.prefix}{key_digest(key)}.pkl"

    def _load(self, key: K) -> Optional[V]:
        try:
            payload = pickle.loads(self._path(key).read_bytes())
        except Exception:
            # Unreadable, corrupt, or pickled by other code whose classes
            # no longer rebuild from it (a changed constructor raises
            # TypeError, a removed class ImportError, ...): a miss.
            return None
        if (isinstance(payload, dict)
                and payload.get("version") == self.version
                and payload.get("code") == source_digest()
                and payload.get("key") == key
                and isinstance(payload.get("value"), self.value_type)):
            return payload["value"]
        return None

    def _write(self, key: K, value: V) -> None:
        path = self._path(key)
        payload = {"version": self.version, "code": source_digest(),
                   "key": key, "value": value}
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            # A unique temp file per write: concurrent writers of one key
            # never share a name, and readers only ever see whole files.
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir,
                                       prefix=f".{path.stem}.",
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as file:
                    pickle.dump(payload, file,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)  # still there only if the write failed
        except OSError:
            return  # a read-only cache dir degrades to memory-only
        self.stats.disk_stores += 1

    def __repr__(self) -> str:
        tier = str(self.cache_dir) if self.cache_dir else "memory-only"
        return (f"{type(self).__name__}(entries={len(self)}/"
                f"{self.capacity}, dir={tier}, hits={self.stats.hits}, "
                f"disk_hits={self.stats.disk_hits}, "
                f"misses={self.stats.misses})")


# -- process-wide memos --------------------------------------------------------

#: Every process-wide memo by name.  A memo is anything with ``clear()``
#: and ``len()``; :func:`reset_caches` clears them all.
_REGISTRY: dict[str, Any] = {}


def register(name: str, memo: M) -> M:
    """Register ``memo`` under ``name`` and return it.

    Raises:
        ValueError: If another memo already holds ``name``.
    """
    if _REGISTRY.setdefault(name, memo) is not memo:
        raise ValueError(f"a memo named {name!r} is already registered")
    return memo


def registered() -> dict[str, Any]:
    """A snapshot of the registry: memo name to memo."""
    return dict(_REGISTRY)


def reset_caches() -> None:
    """Clear every registered memo, back to a fresh process's cold state
    (disk tiers untouched)."""
    for memo in _REGISTRY.values():
        memo.clear()


class ProcessDefault(Generic[T]):
    """A lazily created, registered process-wide instance.

    Args:
        name: Registry name.
        factory: Builds the instance on first :meth:`get`.
    """

    def __init__(self, name: str, factory: Callable[[], T]):
        self._factory = factory
        self._instance: Optional[T] = None
        self._lock = threading.Lock()
        register(name, self)

    def get(self) -> T:
        """The process-wide instance (created on first use)."""
        with self._lock:
            if self._instance is None:
                self._instance = self._factory()
            return self._instance

    def set(self, instance: Optional[T]) -> None:
        """Replace the instance (``None`` resets to lazy re-creation)."""
        with self._lock:
            self._instance = instance

    def clear(self) -> None:
        """Drop the instance back to lazy re-creation."""
        self.set(None)

    def __len__(self) -> int:
        return int(self._instance is not None)


class _CollectorPause(contextlib.ContextDecorator):
    """The cyclic collector, off while any thread is inside a pause.

    One depth count for the whole process, because the collector is
    process-wide: the outermost entry of any thread disables it, and
    the last exit re-enables it only if it was enabled at that entry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> "_CollectorPause":
        with self._lock:
            if not self._depth:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth and self._resume:
                gc.enable()


_COLLECTOR_PAUSE = _CollectorPause()


def collector_paused() -> _CollectorPause:
    """Pause the cyclic garbage collector, as a context manager or a
    decorator; the caller's collector state is restored on exit, also
    when the body raises.

    The package's graphs, modules and plans hold no reference cycles
    (``tests/test_acyclic_heap.py`` pins it): reference counting frees
    them, and a collection while one is built only re-walks a growing
    live heap.  A cycle made inside a pause is still collected, only
    later.
    """
    return _COLLECTOR_PAUSE
