"""Lowering once per scope class.

Phase 2 gives every stitch scope a dims-free class id
(``repro.core.passes.scope_class``); phase 3 keys each scope by its
class id plus its dims, lowers only the first scope of each key and
phase 7 rebinds that representative's kernels onto the others.  The
oracle here compiles with every scope in a class of its own (the class
lookup monkeypatched inside the test), so it lowers every scope
itself: a compile must equal it kernel for kernel, field by field, and
in every pass detail but the class count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import reset_caches
from repro.codegen.builder import _derive_cost_inputs, kernel_cost_inputs
from repro.codegen.kernel import Kernel
from repro.core import AStitchCompiler, AStitchConfig
from repro.core import passes
from repro.core.passes import (DominantAnalysisPass,
                               SchedulePropagationPass,
                               StitchScopeIdentificationPass, scope_works)
from repro.gpu.spec import V100
from repro.ir.builder import GraphBuilder
from repro.ir.interpreter import evaluate, random_feeds
from repro.pipeline import CompileState
from repro.workloads import build

REGISTRY = ("CRNN", "ASR", "BERT", "DIEN")
ABLATIONS = {
    "tune=False": AStitchConfig(tune=False),
    "dominant_merging=False": AStitchConfig(dominant_merging=False),
    "enable_global_scheme=False": AStitchConfig(enable_global_scheme=False),
    "remote_stitching=False": AStitchConfig(remote_stitching=False),
}


def _capture(module) -> dict:
    """Every kernel field with nodes written as positions, the other
    steps by name, and every pass detail but the class count."""
    position = {node: i for i, node in enumerate(module.graph.nodes)}

    def at(nodes):
        return [position[node] for node in nodes]

    def keyed(mapping):
        return sorted((position[node], value)
                      for node, value in mapping.items())

    steps = []
    for step in module.steps:
        if not isinstance(step, Kernel):
            steps.append((type(step).__name__, step.name))
            continue
        cost = kernel_cost_inputs(step)
        assert cost == _derive_cost_inputs(step), step.name
        steps.append((step.name, at(step.nodes), at(step.inputs),
                      at(step.outputs), step.mapping,
                      keyed(step.placements), keyed(step.redundancy),
                      keyed(step.input_read_factors),
                      step.num_global_barriers, step.extra_atomic_rounds,
                      step.regs_per_thread, step.smem_per_block, cost))
    details = [(report.pass_name,
                {k: v for k, v in report.detail.items()
                 if k != "scope_classes"})
               for report in module.pass_reports]
    return {"steps": steps, "details": details}


_real_scope_class = passes.scope_class


def _own_class(graph, scope, analysis, outputs):
    key, externals = _real_scope_class(graph, scope, analysis, outputs)
    return (scope.scope_id, key), externals


def _compile(compiler, graph, optimize: bool):
    reset_caches()
    return (compiler.compile_optimized(graph, V100) if optimize
            else compiler.compile(graph, V100))


def _oracle(compiler, graph, optimize: bool):
    """The module with every scope lowered on its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(passes, "scope_class", _own_class)
        module = _compile(compiler, graph, optimize)
    reset_caches()
    return module


def _classes(module) -> tuple[int, int]:
    details = {r.pass_name: r.detail for r in module.pass_reports}
    return (details["stitch-scope-id"]["scopes"],
            details["schedule-propagation"]["scope_classes"])


def _assert_matches_oracle(graph, config=None, optimize=False):
    compiler = AStitchCompiler(config)
    module = _compile(compiler, graph, optimize)
    oracle = _oracle(compiler, graph, optimize)
    assert _capture(module) == _capture(oracle)
    scopes, classes = _classes(oracle)
    assert classes == scopes
    return module


@pytest.mark.parametrize("batch", [1, 2, 48])
@pytest.mark.parametrize("workload", REGISTRY)
def test_registry_matches_oracle(workload, batch):
    graph = build(workload, batch=batch)
    for optimize in (False, True):
        _assert_matches_oracle(graph, optimize=optimize)


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_ablations_match_oracle(name):
    for workload in REGISTRY:
        graph = build(workload)
        for optimize in (False, True):
            _assert_matches_oracle(graph, ABLATIONS[name], optimize)


def test_transformer_lowers_a_few_classes():
    module = _assert_matches_oracle(build("Transformer"))
    scopes, classes = _classes(module)
    assert scopes >= 2000 and classes <= 16
    # Every rebound kernel shares its representative's cost inputs.
    stitched = [k for k in module.kernels() if k.name.startswith("stitch_")]
    assert len(stitched) == scopes
    assert len({id(kernel_cost_inputs(k)) for k in stitched}) == classes


def test_transformer_optimized_matches_oracle():
    _assert_matches_oracle(build("Transformer"), optimize=True)


# -- key separation --------------------------------------------------------------

R = C = 8


def _block(b, source, index, *, k=4, axis=1, constant=(C,), shared=False):
    """One stitch scope fed by ``source`` (and its own parameters), a
    softmax-like body whose keyword arguments each change one thing
    phases 3-7 read.  Returns the ``dot`` after it and its first
    reduce."""
    other = source if shared else b.parameter(f"q{index}", (R, C))
    body = b.exp(b.add(source, other))
    reduced = b.reduce_sum(body, axes=(axis,))
    total = b.add(reduced, b.reduce_sum(b.parameter(f"p{index}", (R, k)),
                                        axes=(1,)))
    weights = b.constant(np.ones(constant, np.float32), constant)
    scale = b.broadcast(b.reduce_sum(weights, axes=(0,)), (R, C), dims=())
    result = b.multiply(b.divide(body, b.broadcast_rows(total, (R, C))),
                        scale)
    return b.dot(b.tanh(result), b.parameter(f"w{index}", (C, C))), reduced


def _two_scopes(outside_user=False, output=False, **variant):
    """Scope 0 plain and scope 1 with ``variant``, both followed by a
    ``dot``, then a third scope.  ``outside_user`` and ``output`` give
    scope 1's first reduce (a dominant candidate either way, so its
    analysis stays the same) a user in the third scope or make it a
    graph output."""
    b = GraphBuilder("two-scopes")
    first, _ = _block(b, b.parameter("x", (R, C)), 0)
    second, reduced = _block(b, first, 1, **variant)
    tail = b.exp(second)
    if outside_user:
        tail = b.add(tail, b.broadcast_rows(reduced, (R, C)))
    if output:
        b.output(reduced)
    b.output(tail)
    return b.build()


def _phase_three(graph):
    config = AStitchConfig()
    state = CompileState(graph=graph, spec=V100)
    for pass_obj in (StitchScopeIdentificationPass(config),
                     DominantAnalysisPass(config),
                     SchedulePropagationPass(config)):
        pass_obj.run(state)
    return scope_works(state)


def test_identical_scopes_share_a_class(fresh_caches):
    graph = _two_scopes()
    works = _phase_three(graph)
    assert len(works) == 3
    assert works[0].class_id == works[1].class_id
    assert works[1].representative is works[0]
    _assert_matches_oracle(graph)


@pytest.mark.parametrize("variant", [
    {"outside_user": True},
    {"output": True},
    {"constant": (1,)},
    {"axis": 0},
    {"shared": True},
], ids=lambda variant: next(iter(variant)))
def test_structural_difference_separates_classes(variant, fresh_caches):
    graph = _two_scopes(**variant)
    works = _phase_three(graph)
    assert works[0].class_id != works[1].class_id
    assert works[1].representative is None
    _assert_matches_oracle(graph)


def test_external_operand_dims_separate_shape_classes(fresh_caches):
    graph = _two_scopes(k=5)
    works = _phase_three(graph)
    first, second = ([node.shape.dims for node in work.scope.nodes]
                     for work in works[:2])
    assert first == second  # only the p1 parameter's dims differ
    assert works[0].class_id == works[1].class_id
    assert works[1].representative is None
    _assert_matches_oracle(graph)


# -- stamped recipes -------------------------------------------------------------

UNARY = ["tanh", "sigmoid", "negate", "relu", "abs"]
BINARY = ["add", "subtract", "multiply", "maximum"]


@st.composite
def recipes(draw):
    """A straight-line op list over a pool that starts with the copy's
    input and one parameter of its own: each entry names an op and the
    pool positions it reads."""
    steps = []
    for size in range(2, 2 + draw(st.integers(2, 9))):
        op = draw(st.integers(0, 4))
        picks = (draw(st.integers(0, size - 1)),
                 draw(st.integers(0, size - 1)))
        steps.append((op, picks, draw(st.sampled_from(UNARY)),
                      draw(st.sampled_from(BINARY))))
    return steps


def _stamp(recipe, copies: int, rows: int, cols: int):
    """``copies`` copies of ``recipe``, each followed by a ``dot``."""
    b = GraphBuilder("stamped")
    value = b.parameter("x", (rows, cols))
    for index in range(copies):
        pool = [value, b.parameter(f"p{index}", (rows, cols))]
        for op, (i, j), unary, binary in recipe:
            lhs, rhs = pool[i], pool[j]
            if op == 0:
                pool.append(getattr(b, unary)(lhs))
            elif op == 1:
                pool.append(getattr(b, binary)(lhs, rhs))
            elif op == 2:
                pool.append(b.broadcast_rows(
                    b.reduce_sum(lhs, axes=(1,)), (rows, cols)))
            elif op == 3:
                pool.append(b.broadcast(b.reduce_max(lhs, axes=(0,)),
                                        (rows, cols), dims=(1,)))
            else:
                pool.append(b.mul_scalar(lhs, 0.5))
        # Reading ``value`` again puts each copy after the previous dot.
        last = b.tanh(b.add(pool[-1], value))
        value = b.dot(last, b.parameter(f"w{index}", (cols, cols)))
    b.output(value)
    return b.build()


@given(recipes(), st.integers(2, 3), st.integers(2, 6), st.integers(2, 9))
@settings(max_examples=25, deadline=None)
def test_stamped_recipe_matches_oracle_and_interpreter(recipe, copies,
                                                       rows, cols):
    graph = _stamp(recipe, copies, rows, cols)
    module = _assert_matches_oracle(graph)
    feeds = random_feeds(graph, seed=3, scale=0.5)
    want = evaluate(graph, feeds)
    got = module.execute(feeds)
    assert set(got) == set(want)
    for key in want:
        np.testing.assert_allclose(got[key], want[key],
                                   rtol=1e-3, atol=1e-4)
