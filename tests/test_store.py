"""The shared two-tier artifact store, over its three configurations,
and the registry of process-wide memos.

Every tier test runs against the compile, plan and tuning caches, which
differ only in file prefix, format version, default capacity and
expected value type.  Type-specific behaviour (key fields, disk-served
module equivalence, pickle hygiene) stays in the per-cache test files.
"""

import functools
import pickle

import pytest

from repro import store
from repro.compilers import XLACompiler
from repro.gpu.spec import V100
from repro.runtime.compile_cache import (CacheKey, CompileCache,
                                         default_cache, set_default_cache)
from repro.runtime.engine import EngineConfig
from repro.runtime.plan import (ExecutionPlan, PlanCache, PlanKey,
                                default_plan_cache, set_default_plan_cache)
from repro.tuning.cache import (TuningCache, TuningKey,
                                default_tuning_cache,
                                set_default_tuning_cache)
from repro.workloads import micro


@functools.lru_cache(maxsize=None)
def _module(i):
    return XLACompiler().compile(micro.row_reduce(4, 4 + i), V100)


CASES = {
    "compile": (
        CompileCache,
        lambda i: CacheKey(pipeline="xla", graph=f"g{i}", spec=V100),
        _module,
        (default_cache, set_default_cache),
    ),
    "plan": (
        PlanCache,
        lambda i: PlanKey(module=f"m{i}", graph="g", spec=V100,
                          config=EngineConfig.current()),
        lambda i: ExecutionPlan.from_steps(f"m{i}", "g", ()),
        (default_plan_cache, set_default_plan_cache),
    ),
    "tuning": (
        TuningCache,
        lambda i: TuningKey(group=f"g{i}", spec=V100),
        lambda i: ("decision", i),
        (default_tuning_cache, set_default_tuning_cache),
    ),
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


class TestMemoryTier:
    def test_lru_evicts_least_recently_used(self, case):
        cls, key, value, _ = case
        cache = cls(capacity=2)
        cache.put(key(0), value(0))
        cache.put(key(1), value(1))
        cache.get(key(0))              # refresh 0; 1 becomes LRU
        cache.put(key(2), value(2))    # evicts 1
        assert key(0) in cache and key(2) in cache
        assert key(1) not in cache
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_rejects_nonpositive_capacity(self, case):
        with pytest.raises(ValueError):
            case[0](capacity=0)

    def test_each_get_counts_exactly_one_outcome(self, case, tmp_path):
        cls, key, value, _ = case
        cache = cls(cache_dir=tmp_path)
        assert cache.get(key(0)) is None
        stored = value(0)
        cache.put(key(0), stored)
        assert cache.get(key(0)) is stored
        assert len(cache) == 1
        fresh = cls(cache_dir=tmp_path)
        assert fresh.get(key(0)) is not None
        assert (cache.stats.hits, cache.stats.disk_hits,
                cache.stats.misses) == (1, 0, 1)
        assert (fresh.stats.hits, fresh.stats.disk_hits,
                fresh.stats.misses) == (0, 1, 0)
        assert cache.stats.requests == 2 and fresh.stats.requests == 1
        assert cache.stats.hit_rate == 0.5
        assert fresh.stats.hit_rate == 1.0

    def test_memory_hit_does_no_disk_work(self, case, tmp_path,
                                          monkeypatch):
        cls, key, value, _ = case
        tiered = cls(cache_dir=tmp_path)
        tiered.put(key(0), value(0))
        memory_only = cls()

        def forbidden(*_args):
            raise AssertionError("disk work on the memory path")

        monkeypatch.setattr(store, "key_digest", forbidden)
        monkeypatch.setattr(store, "source_digest", forbidden)
        assert tiered.get(key(0)) is not None
        memory_only.put(key(1), value(1))
        assert memory_only.get(key(1)) is not None
        assert memory_only.get(key(2)) is None
        assert tiered.stats.hits == 1 and memory_only.stats.hits == 1

    def test_stale_memory_entry_counts_a_miss(self, case):
        cls, key, value, _ = case
        cache = cls()
        cache.put(key(0), value(0))
        assert cache.get(key(0), fresh=lambda _: True) is not None
        assert cache.get(key(0), fresh=lambda _: False) is None
        assert key(0) not in cache
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_clear_drops_memory_and_counters(self, case, tmp_path):
        cls, key, value, _ = case
        cache = cls(cache_dir=tmp_path)
        cache.put(key(0), value(0))
        cache.get(key(0))
        cache.clear()
        assert len(cache) == 0 and cache.stats.requests == 0
        assert cache.get(key(0)) is not None     # the disk copy stays
        assert cache.stats.disk_hits == 1


class TestPersistentTier:
    def test_survives_process_restart(self, case, tmp_path):
        cls, key, value, _ = case
        first = cls(cache_dir=tmp_path)
        first.put(key(0), value(0))
        assert first.stats.disk_stores == 1
        assert [p.name for p in tmp_path.iterdir()] \
            == [f"{cls.prefix}{store.key_digest(key(0))}.pkl"]
        # A fresh store over the same directory models a new process.
        second = cls(cache_dir=tmp_path)
        served = second.get(key(0))
        assert served is not None
        assert second.stats.disk_hits == 1
        # Promoted into memory: the next lookup is a memory hit.
        assert second.get(key(0)) is served
        assert second.stats.hits == 1

    def test_corrupt_file_degrades_to_miss(self, case, tmp_path):
        cls, key, value, _ = case
        cls(cache_dir=tmp_path).put(key(0), value(0))
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        cache = cls(cache_dir=tmp_path)
        assert cache.get(key(0)) is None
        assert cache.stats.misses == 1

    def test_format_version_bump_invalidates_disk(self, case, tmp_path,
                                                  monkeypatch):
        cls, key, value, _ = case
        cls(cache_dir=tmp_path).put(key(0), value(0))
        monkeypatch.setattr(cls, "version", cls.version + 1)
        stale = cls(cache_dir=tmp_path)
        assert stale.get(key(0)) is None
        assert stale.stats.misses == 1

    @pytest.mark.parametrize("field", ["version", "key"])
    def test_header_mismatch_degrades_to_miss(self, case, tmp_path, field):
        """A file whose format version or embedded key disagrees (a
        stale layout, a digest collision, a tampered entry) must not be
        served."""
        cls, key, value, _ = case
        cls(cache_dir=tmp_path).put(key(0), value(0))
        (path,) = tmp_path.glob("*.pkl")
        payload = pickle.loads(path.read_bytes())
        payload[field] = {"version": cls.version + 1, "key": key(1)}[field]
        path.write_bytes(pickle.dumps(payload))
        cache = cls(cache_dir=tmp_path)
        assert cache.get(key(0)) is None
        assert cache.stats.misses == 1

    def test_other_source_digest_degrades_to_miss(self, case, tmp_path,
                                                  monkeypatch):
        """An entry written by other code is stale even when no format
        version was bumped."""
        cls, key, value, _ = case
        cls(cache_dir=tmp_path).put(key(0), value(0))
        monkeypatch.setattr(store, "source_digest", lambda: "0" * 64)
        cache = cls(cache_dir=tmp_path)
        assert cache.get(key(0)) is None
        assert cache.stats.misses == 1

    def test_eviction_keeps_disk_copy(self, case, tmp_path):
        cls, key, value, _ = case
        cache = cls(capacity=1, cache_dir=tmp_path)
        cache.put(key(0), value(0))
        cache.put(key(1), value(1))   # evicts key 0 from memory
        assert cache.stats.evictions == 1
        assert cache.get(key(0)) is not None
        assert cache.stats.disk_hits == 1

    def test_unwritable_dir_degrades_to_memory_only(self, case, tmp_path):
        cls, key, value, _ = case
        not_a_dir = tmp_path / "file"
        not_a_dir.write_bytes(b"")
        cache = cls(cache_dir=not_a_dir)
        cache.put(key(0), value(0))
        assert cache.stats.disk_stores == 0
        assert cache.get(key(0)) is not None


class TestProcessDefault:
    def test_default_store_honours_env(self, case, tmp_path, monkeypatch):
        cls, _, _, (get_default, set_default) = case
        try:
            monkeypatch.setenv(store.CACHE_DIR_ENV, str(tmp_path))
            set_default(None)
            assert isinstance(get_default(), cls)
            assert get_default().cache_dir == tmp_path
            monkeypatch.delenv(store.CACHE_DIR_ENV)
            set_default(None)
            assert get_default().cache_dir is None
            replacement = cls()
            set_default(replacement)
            assert get_default() is replacement
        finally:
            set_default(None)

    def test_reset_caches_drops_every_default(self, fresh_caches):
        defaults = {name: memo for name, memo in store.registered().items()
                    if isinstance(memo, store.ProcessDefault)}
        assert set(defaults) == {"compile", "plan", "tuning", "service"}
        before = {name: default.get() for name, default in defaults.items()}
        store.reset_caches()
        assert [len(default) for default in defaults.values()] \
            == [0] * len(defaults)
        for name, default in defaults.items():
            assert default.get() is not before[name], name


class TestRegistry:
    def test_register_returns_the_memo(self, monkeypatch):
        monkeypatch.setattr(store, "_REGISTRY", {})
        memo = store.TieredStore()
        assert store.register("m", memo) is memo
        assert store.register("m", memo) is memo  # idempotent
        assert store.registered() == {"m": memo}

    def test_name_clash_rejected(self):
        with pytest.raises(ValueError, match="simplify"):
            store.register("simplify", store.TieredStore())

    def test_reset_clears_defaults_and_memos(self, monkeypatch):
        monkeypatch.setattr(store, "_REGISTRY", {})
        cleared = []

        class Memo:
            def clear(self):
                cleared.append(self)

        memo = store.register("memo", Memo())
        default = store.ProcessDefault("default", Memo)
        instance = default.get()
        store.reset_caches()
        assert cleared == [memo]
        assert len(default) == 0
        assert default.get() is not instance
