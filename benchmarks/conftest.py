"""Shared fixtures for the benchmark harness.

Every bench regenerates one table or figure of the paper: it computes the
same rows/series, prints them (run with ``-s`` to see), writes them under
``benchmarks/results/`` and asserts the paper's qualitative shape.

All heavyweight work (building the five workloads, compiling them under
every strategy, pricing them on the V100 model) happens once per session
in the fixtures below.  Compilation goes through the process-wide
:class:`~repro.runtime.compile_service.CompileService`: the fixtures
warm every (workload, compiler) pair in parallel first, so the
comparison loops below — and every bench that compiles on its own —
are cache hits.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis import ComparisonResult, compare_compilers
from repro.compilers import (
    TensorFlowCompiler,
    TensorRTCompiler,
    XLACompiler,
)
from repro.core import AStitchCompiler
from repro.gpu.spec import V100
from repro.runtime import convert_to_amp, default_service
from repro.workloads import WORKLOADS, build

from tests.conftest import fresh_caches  # noqa: F401  (shared fixture)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent

INFERENCE_COMPILERS = ["TensorFlow", "XLA", "TensorRT", "AStitch"]
TRAINING_COMPILERS = ["TensorFlow", "XLA", "AStitch"]


def save_report(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/ and print it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def record_bench(name: str, payload: dict, *,
                 sort_keys: bool = False) -> None:
    """Record a BENCH payload to both of its tracked locations.

    One JSON document, two readers: ``BENCH_<name>.json`` at the repo
    root (the at-a-glance perf trajectory) and a twin under
    ``benchmarks/results/`` next to the rendered report.  Every bench
    writes through here so the copies can never drift.
    """
    encoded = json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    for path in (REPO_ROOT / f"BENCH_{name}.json",
                 RESULTS_DIR / f"BENCH_{name}.json"):
        path.write_text(encoded)


def compile_cached(compiler, graph, spec=V100):
    """Compile through the shared service: structurally identical
    (graph, compiler, spec) requests across bench files hit the
    content-addressed cache instead of recompiling."""
    return default_service().compile(graph, compiler, spec)


def _compare(graph) -> ComparisonResult:
    return compare_compilers(
        graph,
        [TensorFlowCompiler(), XLACompiler(), TensorRTCompiler(),
         AStitchCompiler()],
        spec=V100,
    )


@pytest.fixture(scope="session")
def inference_graphs():
    """The five workloads' inference graphs, built once per session."""
    return {name: build(name) for name in WORKLOADS}


@pytest.fixture(scope="session")
def amp_graphs(inference_graphs):
    """AMP-converted inference graphs (Fig 12), built once per session."""
    return {name: convert_to_amp(graph)
            for name, graph in inference_graphs.items()}


@pytest.fixture(scope="session")
def inference_results(inference_graphs) -> dict[str, ComparisonResult]:
    """Every workload's inference graph under every compiler."""
    default_service().warmup(inference_graphs.values())
    return {name: _compare(graph)
            for name, graph in inference_graphs.items()}


@pytest.fixture(scope="session")
def training_results() -> dict[str, ComparisonResult]:
    """Training graphs (BERT / Transformer / DIEN) under TF/XLA/AStitch.

    TensorRT rejects training graphs and is skipped automatically,
    matching Fig 11b.
    """
    names = [n for n, spec in WORKLOADS.items() if spec.training]
    graphs = {name: build(name, training=True) for name in names}
    default_service().warmup(graphs.values())
    return {name: _compare(graph) for name, graph in graphs.items()}
