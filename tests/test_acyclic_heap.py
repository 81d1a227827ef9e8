"""What the package builds holds no reference cycles.

``repro.store.collector_paused`` turns the cyclic garbage collector off
while graphs are built, compiled and priced.  That is free only because
reference counting alone frees everything those calls make: here each
step runs with the collector off, and once every memo is dropped a
collection after it must find nothing unreachable.  A step that starts
making cycles fails here, instead of holding its garbage until some
later collection.
"""

import gc

import pytest

from repro import AStitchCompiler, XLACompiler, reset_caches
from repro.cli import COMPILERS
from repro.compilers.tensorrt import UnsupportedWorkloadError
from repro.gpu.spec import V100
from repro.runtime.engine import Engine
from repro.serving import run_loadtest
from repro.workloads import micro, registry
from repro.workloads.transformer import build_transformer


@pytest.fixture
def collector_off():
    """Collect what earlier tests left, then keep the collector off for
    the test; its state is restored after."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def assert_acyclic(step: str) -> None:
    """Drop every memo, so what ``step`` left in one is unreachable
    too, then collect."""
    reset_caches()
    assert gc.collect() == 0, f"{step} left unreachable cycles"


SMALL_GRAPHS = {
    "CRNN": lambda: registry.build("CRNN", batch=1),
    "BERT": lambda: registry.build("BERT", batch=1),
    "softmax": lambda: micro.softmax_graph(256, 128),
}

LARGE_GRAPHS = {
    "ASR": lambda: registry.build("ASR", batch=1),
    "DIEN": lambda: registry.build("DIEN", batch=8),
    "Transformer": lambda: build_transformer(decode_steps=2, vocab=1024),
}


@pytest.mark.usefixtures("fresh_caches", "collector_off")
class TestAcyclicHeap:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_every_compiler_compiles_and_plans_without_cycles(self, name):
        graph = SMALL_GRAPHS[name]()
        assert_acyclic(f"building {name}")
        engine = Engine(V100)
        for compiler_name, compiler_cls in COMPILERS.items():
            for optimize in (False, True):
                step = f"{compiler_name} on {name} (optimize={optimize})"
                try:
                    module = compiler_cls().compile(graph, V100,
                                                    optimize=optimize)
                except UnsupportedWorkloadError:
                    continue
                engine.plan(module)
                del module
                assert_acyclic(step)

    @pytest.mark.parametrize("name", sorted(LARGE_GRAPHS))
    def test_xla_and_astitch_on_larger_graphs(self, name):
        graph = LARGE_GRAPHS[name]()
        assert_acyclic(f"building {name}")
        engine = Engine(V100)
        for compiler in (XLACompiler(), AStitchCompiler()):
            engine.plan(compiler.compile(graph, V100, optimize=True))
            assert_acyclic(f"{compiler.name} on {name}")

    def test_loadtest(self):
        run_loadtest({"CRNN": 40.0, "BERT": 4.0}, duration=2.0,
                     specs=(V100, V100), seed=3)
        assert_acyclic("run_loadtest")
