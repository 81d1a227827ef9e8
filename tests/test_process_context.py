"""One process context: every process-wide memo is registered with
``repro.store``, ``repro.reset_caches()`` returns the process to the
cold state of a fresh interpreter, and ``repro.store.collector_paused``
leaves the garbage collector as it found it.
"""

import dataclasses
import gc
import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import threading
import weakref

import pytest

import repro
from repro import reset_caches, store
from repro.cli import main
from repro.core import AStitchCompiler
from repro.gpu.costmodel import SharedModels
from repro.gpu.occupancy import occupancy_cache_info
from repro.gpu.spec import V100
from repro.ir.interpreter import evaluate, random_feeds
from repro.ir.passes import SIMPLIFY_MEMO
from repro.pipeline import PassManager
from repro.runtime.compile_cache import default_cache
from repro.runtime.compile_service import default_service
from repro.runtime.engine import Engine
from repro.runtime.plan import default_plan_cache, module_pricing_signature
from repro.tuning import default_tuning_cache
from repro.workloads import registry

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

MEMO_TYPES = (store.TieredStore, store.ProcessDefault,
              weakref.WeakKeyDictionary, SharedModels)


def _modules():
    """Every module of the package (``__main__`` would run the CLI)."""
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.name != "repro.__main__"]


def snapshot() -> dict:
    """Compile BERT (batch 2) with AStitch, optimized, through the
    process-wide service, price it, and report everything a cold start
    decides: pass reports, pricing, and the process-wide store counters.
    """
    graph = registry.build("BERT", batch=2)
    module = default_service().compile(graph, AStitchCompiler(), V100,
                                       optimize=True)
    plan = Engine(V100).plan(module)
    stores = {"compile": default_cache(), "plan": default_plan_cache(),
              "tuning": default_tuning_cache(), "simplify": SIMPLIFY_MEMO}
    result = {
        "reports": [{field: value for field, value
                     in dataclasses.asdict(report).items()
                     if field != "seconds"}
                    for report in module.pass_reports],
        "signature": module_pricing_signature(module),
        "plan_total": plan.total_time,
        "stores": {name: [memo.stats.hits, memo.stats.misses,
                          memo.stats.evictions]
                   for name, memo in stores.items()},
        "occupancy": occupancy_cache_info(),
    }
    return json.loads(json.dumps(result, default=repr))


def _fresh_process_snapshot() -> dict:
    env = {key: value for key, value in os.environ.items()
           if key != store.CACHE_DIR_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import json; from tests.test_process_context import snapshot;"
            " print(json.dumps(snapshot()))")
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.usefixtures("fresh_caches")
class TestResetMatchesFreshProcess:
    def test_reset_compile_equals_fresh_interpreter(self, monkeypatch):
        monkeypatch.delenv(store.CACHE_DIR_ENV, raising=False)
        reset_caches()
        snapshot()
        warm = snapshot()
        fresh = _fresh_process_snapshot()
        assert warm != fresh  # the comparison sees warm state
        reset_caches()
        assert snapshot() == fresh


@pytest.mark.usefixtures("fresh_caches")
class TestRegistryCompleteness:
    def test_every_module_memo_is_registered(self):
        registered = {id(memo) for memo in store.registered().values()}
        missing = [f"{module.__name__}.{name}"
                   for module in _modules()
                   for name, value in vars(module).items()
                   if isinstance(value, MEMO_TYPES)
                   and id(value) not in registered]
        assert not missing, f"unregistered process-wide memos: {missing}"

    def test_every_memo_empty_after_reset(self):
        _modules()
        graph = registry.build_cached("CRNN")
        evaluate(graph, random_feeds(graph, seed=0))
        snapshot()
        memos = store.registered()
        assert [name for name, memo in memos.items() if not len(memo)] \
            == []
        reset_caches()
        assert {name: len(memo) for name, memo in memos.items()
                if len(memo)} == {}

    def test_cache_stats_lists_every_registered_store(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        for name, memo in store.registered().items():
            if isinstance(memo, store.ProcessDefault):
                memo = memo.get()
            if isinstance(memo, store.TieredStore):
                assert re.search(rf"^{re.escape(name)} +\d", out,
                                 re.MULTILINE), name


@pytest.fixture
def collector_enabled():
    """Run the test with the cyclic collector on; restore it after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.mark.usefixtures("collector_enabled")
class TestCollectorPause:
    def test_nested_pauses_restore_only_at_the_outermost_exit(self):
        with store.collector_paused():
            assert not gc.isenabled()
            with store.collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        with store.collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_restores_after_an_exception(self):
        @store.collector_paused()
        def fail():
            assert not gc.isenabled()
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            fail()
        assert gc.isenabled()

    def test_overlapping_threads_share_one_pause(self):
        """Thread A enters, B enters, A leaves, B leaves: off while
        either is inside, on after both."""
        entered, a_left = threading.Barrier(2), threading.Barrier(2)
        seen = {}

        def first():
            with store.collector_paused():
                entered.wait(timeout=10)
            a_left.wait(timeout=10)

        def second():
            with store.collector_paused():
                entered.wait(timeout=10)
                a_left.wait(timeout=10)
                seen["inside after A left"] = gc.isenabled()

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"inside after A left": False}
        assert gc.isenabled()

    def test_many_threads_never_see_the_collector_on_inside(self):
        """A lost update of the depth count would re-enable the
        collector while another thread is still inside, or leave it
        off after every thread left."""
        seen_on = []

        def enter_often():
            for _ in range(3000):
                with store.collector_paused():
                    if gc.isenabled():
                        seen_on.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=enter_often)
                       for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen_on == []
        assert gc.isenabled()

    @pytest.mark.usefixtures("fresh_caches")
    def test_no_collection_inside_build_compile_or_plan(self):
        """The parent ran 9 young collections inside these calls on
        BERT batch 2; the first allocation after each pause may still
        run the young collection it deferred."""
        paused = {getattr(function, "__wrapped__", function).__code__
                  for function in (registry.build, PassManager.run,
                                   Engine.build_plan)}
        inside = []

        def count(phase, info):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in paused:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                inside.append((info["generation"], frame.f_code.co_name))

        gc.collect()
        gc.callbacks.append(count)
        try:
            graph = registry.build("BERT", batch=2)
            module = AStitchCompiler().compile(graph, V100)
            Engine(V100).plan(module)
        finally:
            gc.callbacks.remove(count)
        assert inside == []
