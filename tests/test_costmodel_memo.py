"""Memoized kernel pricing and the value-equality audit behind it.

The plan layer keys caches on :class:`GPUSpec` and
:class:`KernelCostInputs` *values*, so both must be frozen dataclasses
whose equality and hash track every field.  These tests audit that, and
pin down the cost-model memo.  The vectorized batch path's exact
agreement with the scalar reference is a property test
(``tests/test_property_pricing.py``).
"""

import dataclasses
import threading
import time

import pytest

from repro.gpu.costmodel import KernelCostInputs, KernelCostModel, cost_model_for
from repro.gpu.occupancy import occupancy, occupancy_cache_info
from repro.gpu.spec import A100, T4, V100, GPUSpec


def _inputs(i=0):
    return KernelCostInputs(
        grid_size=80 + i, block_size=256, bytes_read=1 << 20,
        bytes_written=(1 << 18) + i, fp_instructions=5e6,
        regs_per_thread=32, smem_per_block=4096,
        num_global_barriers=0, num_atomic_rounds=0)


def _bump(value):
    """A field value that is unequal to ``value`` but same-typed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, (int, float)):
        return value + 1
    raise TypeError(f"no bump rule for {type(value)!r}")


class TestValueEqualityAudit:
    @pytest.mark.parametrize("cls,factory", [
        (GPUSpec, lambda: V100),
        (KernelCostInputs, _inputs),
    ])
    def test_frozen(self, cls, factory):
        instance = factory()
        field = dataclasses.fields(cls)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field.name, _bump(getattr(instance, field.name)))

    def test_equal_specs_hash_equal(self):
        copy = dataclasses.replace(V100)
        assert copy is not V100
        assert copy == V100
        assert hash(copy) == hash(V100)

    def test_equal_inputs_hash_equal(self):
        assert _inputs() is not _inputs()
        assert _inputs() == _inputs()
        assert hash(_inputs()) == hash(_inputs())

    @pytest.mark.parametrize("cls,factory", [
        (GPUSpec, lambda: V100),
        (KernelCostInputs, _inputs),
    ])
    def test_every_field_breaks_equality(self, cls, factory):
        base = factory()
        for field in dataclasses.fields(cls):
            changed = dataclasses.replace(
                base, **{field.name: _bump(getattr(base, field.name))})
            assert changed != base, field.name
            assert hash(changed) != hash(base), field.name

    def test_distinct_devices_distinct(self):
        assert len({V100, T4, A100}) == 3


class TestCostModelMemo:
    def test_price_memoizes_by_value(self):
        model = KernelCostModel(V100)
        first = model.price(_inputs())
        assert model.memo_misses == 1
        # A *different object* with equal fields hits the memo.
        second = model.price(_inputs())
        assert second is first
        assert model.memo_hits == 1
        assert model.memo_misses == 1

    def test_memo_matches_uncached(self):
        model = KernelCostModel(V100)
        for i in range(8):
            assert model.price(_inputs(i)) == model._price_uncached(_inputs(i))

    def test_price_batch_seeds_memo(self):
        model = KernelCostModel(V100)
        batch = [_inputs(i) for i in range(4)]
        priced = model.price_batch(batch)
        misses = model.memo_misses
        for inputs, counters in zip(batch, priced):
            assert model.price(inputs) is counters
        assert model.memo_misses == misses

    def test_price_batch_dedupes(self):
        model = KernelCostModel(V100)
        out = model.price_batch([_inputs(), _inputs(), _inputs()])
        assert model.memo_misses == 1
        assert out[0] is out[1] is out[2]

    def test_shared_model_per_spec(self):
        assert cost_model_for(V100) is cost_model_for(V100)
        assert cost_model_for(V100) is not cost_model_for(T4)
        # Value-equal replacement spec maps to the same shared model.
        assert cost_model_for(dataclasses.replace(V100)) is cost_model_for(V100)

    def test_racing_first_use_shares_one_model(self, monkeypatch):
        """Compile workers race on a spec's first model; every racer
        must get the one shared model that ``clear_caches`` reaches."""
        spec = dataclasses.replace(V100, num_sms=V100.num_sms + 7)
        construct = KernelCostModel.__init__

        def slow_construct(self, *args):
            time.sleep(0.05)  # widen the check-then-insert window
            construct(self, *args)

        monkeypatch.setattr(KernelCostModel, "__init__", slow_construct)
        start = threading.Barrier(8)
        models = []

        def race():
            start.wait(timeout=10)
            models.append(cost_model_for(spec))

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(models) == 8
        assert all(model is cost_model_for(spec) for model in models)


class TestOccupancyMemo:
    def test_cached_matches_direct(self, fresh_caches):
        want = occupancy(V100, 256, regs_per_thread=64, smem_per_block=8192)
        info = occupancy_cache_info()
        assert info["misses"] == 1
        again = occupancy(V100, 256, regs_per_thread=64, smem_per_block=8192)
        assert again == want
        assert occupancy_cache_info()["hits"] == info["hits"] + 1
