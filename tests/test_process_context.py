"""One process context: every process-wide memo is registered with
``repro.store``, and ``repro.reset_caches()`` returns the process to the
cold state of a fresh interpreter.
"""

import dataclasses
import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
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
