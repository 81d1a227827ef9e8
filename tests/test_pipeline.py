"""Tests for the pass/pipeline abstraction and its manager.

Covers the mechanics every compiler now rides on: pass signatures and
pipeline fingerprints, the instrumented ``PassManager``
run (reports, module provenance, error annotation), the inter-pass IR
validation, and the :class:`~repro.compilers.base.CompilationError`
context protocol.
"""

from __future__ import annotations

import pytest

from repro.compilers.base import CompilationError, Compiler
from repro.compilers.xla import XLACompiler
from repro.gpu.spec import V100
from repro.pipeline import (
    CompileState,
    GraphPass,
    Pass,
    PassManager,
    Pipeline,
    verify_graph,
)
from repro.pipeline.verify import check_graph
from repro.workloads import micro


def _noop_fn(graph):
    return graph, 0


class _ParamPass(Pass):
    name = "param-pass"
    kind = "lower"

    def __init__(self, knob: int = 3):
        self.knob = knob

    def params(self) -> str:
        return f"knob={self.knob}"

    def run(self, state):
        return {"knob": self.knob}


class TestSignatures:
    def test_signature_without_params(self):
        p = GraphPass("noop", _noop_fn)
        assert p.signature() == "noop@v1"

    def test_signature_with_params(self):
        assert _ParamPass(7).signature() == "param-pass@v1(knob=7)"

    def test_fingerprint_is_short_hex(self):
        pipeline = Pipeline("t", (GraphPass("noop", _noop_fn),))
        fp = pipeline.fingerprint()
        assert len(fp) == 16
        int(fp, 16)  # hex digest

    def test_fingerprint_changes_with_composition(self):
        a, b = GraphPass("a", _noop_fn), GraphPass("b", _noop_fn)
        base = Pipeline("t", (a, b)).fingerprint()
        assert Pipeline("t", (b, a)).fingerprint() != base
        assert Pipeline("t", (a,)).fingerprint() != base
        assert Pipeline("u", (a, b)).fingerprint() != base

    def test_fingerprint_changes_with_params(self):
        assert (Pipeline("t", (_ParamPass(3),)).fingerprint()
                != Pipeline("t", (_ParamPass(4),)).fingerprint())

    def test_fingerprint_is_stable_across_instances(self):
        assert (Pipeline("t", (_ParamPass(3),)).fingerprint()
                == Pipeline("t", (_ParamPass(3),)).fingerprint())

    def test_describe_rows(self):
        pipeline = Pipeline("t", (GraphPass("noop", _noop_fn),
                                  _ParamPass()))
        assert pipeline.describe() == [
            ("noop", "graph", "noop@v1"),
            ("param-pass", "lower", "param-pass@v1(knob=3)"),
        ]
        assert len(pipeline) == 2


class TestPassManager:
    def test_run_produces_module_and_reports(self):
        graph = micro.softmax_graph(64, 64)
        pipeline = XLACompiler().build_pipeline()
        run = PassManager(pipeline).run(graph, V100)
        assert run.module is not None
        assert len(run.reports) == len(pipeline)
        assert [r.pass_name for r in run.reports] == \
            [p.name for p in pipeline.passes]
        assert run.seconds == sum(r.seconds for r in run.reports)
        # the module carries its provenance
        assert run.module.pass_reports == run.reports
        assert run.module.pipeline_fingerprint == pipeline.fingerprint()

    def test_reports_track_deltas(self):
        graph = micro.softmax_graph(64, 64)
        pipeline = XLACompiler().build_pipeline()
        run = PassManager(pipeline).run(graph, V100)
        by_name = {r.pass_name: r for r in run.reports}
        formation = by_name["xla-fusion"]
        assert formation.kernel_delta > 0
        assert formation.node_delta == 0
        scheduling = by_name["schedule-steps"]
        assert scheduling.step_delta > 0

    def test_validation_passes_on_valid_graph(self):
        graph = micro.softmax_graph(64, 64)
        pipeline = XLACompiler().build_pipeline()
        run = PassManager(pipeline, validate=True).run(graph, V100)
        assert run.module is not None

    def test_missing_finalize_raises(self):
        pipeline = Pipeline("no-finalize",
                            (GraphPass("noop", _noop_fn),))
        with pytest.raises(CompilationError,
                           match="without producing a module") as info:
            PassManager(pipeline).run(micro.softmax_graph(16, 16), V100)
        assert info.value.pipeline == "no-finalize"

    def test_failing_pass_is_annotated(self):
        class Exploding(Pass):
            name = "exploding"

            def run(self, state):
                raise CompilationError("boom")

        pipeline = Pipeline("fragile", (Exploding(),))
        with pytest.raises(CompilationError) as info:
            PassManager(pipeline).run(micro.softmax_graph(16, 16), V100)
        assert info.value.pass_name == "exploding"
        assert info.value.pipeline == "fragile"

    def test_inner_context_is_preserved(self):
        class Exploding(Pass):
            name = "outer-name"

            def run(self, state):
                raise CompilationError("boom", pass_name="inner-name",
                                       node="n42")

        pipeline = Pipeline("fragile", (Exploding(),))
        with pytest.raises(CompilationError) as info:
            PassManager(pipeline).run(micro.softmax_graph(16, 16), V100)
        assert info.value.pass_name == "inner-name"  # innermost wins
        assert info.value.pipeline == "fragile"
        assert info.value.node == "n42"

    def test_graph_pass_breaking_invariants_is_caught(self):
        def truncate(graph):
            # drop the output node: verify must flag the dangling output
            graph._nodes = graph._nodes[:-1]
            return graph, 1

        pipeline = Pipeline(
            "bad", (GraphPass("truncate", truncate),
                    *XLACompiler().build_pipeline().passes))
        with pytest.raises(CompilationError,
                           match="violates") as info:
            PassManager(pipeline, validate=True).run(
                micro.softmax_graph(16, 16), V100)
        assert info.value.pass_name == "truncate"


class TestVerifyGraph:
    def test_valid_graph_has_no_violations(self):
        assert verify_graph(micro.softmax_graph(32, 32)) == []
        for name in ("fig7_subgraph",):
            assert verify_graph(getattr(micro, name)(64, 32)) == []

    def test_dangling_output_is_reported(self):
        graph = micro.softmax_graph(16, 16)
        graph._nodes = graph._nodes[:-1]
        violations = verify_graph(graph)
        assert any("is not in the graph" in v for v in violations)

    def test_check_graph_raises_with_pass_context(self):
        graph = micro.softmax_graph(16, 16)
        graph._nodes = graph._nodes[:-1]
        with pytest.raises(CompilationError) as info:
            check_graph(graph, pass_name="culprit")
        assert info.value.pass_name == "culprit"


class TestCompilationErrorContext:
    def test_str_without_context(self):
        assert str(CompilationError("boom")) == "boom"

    def test_str_renders_context_in_order(self):
        error = CompilationError("boom", pass_name="p", pipeline="pl",
                                 scope="s3", node="n1")
        assert str(error) == "boom [pass=p, pipeline=pl, scope=s3, n" \
                             "ode=n1]"
        assert error.context() == {"pass": "p", "pipeline": "pl",
                                   "scope": "s3", "node": "n1"}

    def test_add_context_never_overwrites(self):
        error = CompilationError("boom", pass_name="inner")
        error.add_context(pass_name="outer", pipeline="pl")
        assert error.pass_name == "inner"
        assert error.pipeline == "pl"


class TestCompilerIntegration:
    def test_compile_goes_through_pipeline(self):
        graph = micro.softmax_graph(64, 64)
        module = XLACompiler().compile(graph, V100)
        assert module.pipeline_fingerprint \
            == XLACompiler().build_pipeline().fingerprint()
        assert module.pass_reports

    def test_optimized_fingerprint_differs(self):
        compiler = XLACompiler()
        plain = compiler.pipeline_fingerprint()
        optimized = compiler.pipeline_fingerprint(optimize=True)
        assert plain and optimized and plain != optimized

    def test_run_pipeline_with_validation(self):
        graph = micro.softmax_graph(64, 64)
        run = XLACompiler().run_pipeline(graph, V100, validate=True)
        assert run.module is not None

    def test_compiler_without_pipeline(self):
        # A compiler is its pipeline: one that declares none cannot be
        # instantiated, whatever else it overrides.
        class Legacy(Compiler):
            name = "Legacy"

            def compile(self, graph, spec=V100, *, optimize=False):
                raise AssertionError("unused")

        with pytest.raises(TypeError, match="build_pipeline"):
            Legacy()

    def test_session_surfaces_pass_timing(self):
        from repro.runtime.compile_cache import CompileCache
        from repro.runtime.compile_service import CompileService
        from repro.runtime.session import Session

        service = CompileService(cache=CompileCache())
        session = Session(compiler=XLACompiler(), service=service,
                          optimize_graphs=False)
        graph = micro.softmax_graph(64, 64)
        reports = session.pass_reports(graph)
        assert [r.pass_name for r in reports] == \
            [p.name for p in XLACompiler().build_pipeline().passes]
        timing = session.pass_timing(graph)
        assert set(timing) == {r.pass_name for r in reports}
        assert all(seconds >= 0.0 for seconds in timing.values())

    def test_pass_trace_export(self, tmp_path):
        import json

        from repro.runtime.trace import (pass_reports_to_chrome_trace,
                                         write_chrome_trace)

        graph = micro.softmax_graph(64, 64)
        run = XLACompiler().run_pipeline(graph, V100)
        trace = pass_reports_to_chrome_trace(run.reports,
                                             pipeline="xla")
        assert len(trace["traceEvents"]) == len(run.reports)
        assert trace["otherData"]["pipeline"] == "xla"
        names = [e["name"] for e in trace["traceEvents"]]
        assert names == [r.pass_name for r in run.reports]
        # events tile the timeline sequentially
        cursor = 0.0
        for event in trace["traceEvents"]:
            assert event["ts"] == pytest.approx(cursor)
            cursor += event["dur"]
        path = tmp_path / "passes.json"
        write_chrome_trace(trace, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(trace))  # round-trips as plain JSON

    def test_state_defaults(self):
        state = CompileState(graph=micro.softmax_graph(16, 16),
                             spec=V100)
        assert state.kernels == []
        assert state.library_nodes == []
        assert state.steps is None
        assert state.module is None
        assert state.scratch == {}
