"""Property test at the tuner/cost-model boundary.

On random irregular geometries — row, column and element-wise
dominants, with and without a global barrier, on V100, T4 and A100 —
the tuned decision must never price worse than the heuristic, its
winner must be a legal launch, and the durations it reports must equal
the scalar reference :meth:`KernelCostModel._price_uncached` of the
candidates' proxy inputs bit for bit.  One level up, a tuned module of
a random irregular row reduce never plans slower than the heuristic
module: the lowered comparison keeps whichever is cheaper.
"""

from hypothesis import example, given, seed, settings, strategies as st

from repro.codegen.mapping import barrier_wave_limit, heuristic_mapping
from repro.codegen.schedule import MappingKind
from repro.core import AStitchCompiler, AStitchConfig
from repro.gpu.costmodel import KernelCostModel
from repro.gpu.spec import A100, T4, V100
from repro.runtime.engine import Engine
from repro.tuning import (GroupSignature, GroupTuner, TuningCache,
                          proxy_cost_inputs)
from repro.workloads import micro

SPECS = {spec.name: spec for spec in (V100, T4, A100)}


@st.composite
def signatures(draw):
    kind = draw(st.sampled_from(list(MappingKind)))
    itemsize = draw(st.sampled_from([2, 4]))
    if kind is MappingKind.ELEMENTWISE:
        rows = width = 1
        elements = draw(st.integers(1, 1 << 24))
        loaded = elements * draw(st.integers(1, 4))
        outputs = elements
    else:
        rows = draw(st.integers(1, 1 << 20))
        width = draw(st.integers(1, 1 << 18))
        loaded = rows * width
        outputs = elements = rows if kind is MappingKind.ROW_REDUCE \
            else width
    return GroupSignature(
        kind=kind.value, rows=rows, width=width, num_elements=elements,
        bytes_read=float(loaded * itemsize),
        bytes_written=float(outputs * itemsize),
        fp_instructions=float(loaded * draw(st.integers(0, 40))),
        needs_barrier=draw(st.booleans()))


def _row(kind, rows, width, barrier):
    elements = rows if kind is MappingKind.ROW_REDUCE else width
    return GroupSignature(
        kind=kind.value, rows=rows, width=width, num_elements=elements,
        bytes_read=4.0 * rows * width, bytes_written=4.0 * elements,
        fp_instructions=float(rows * width), needs_barrier=barrier)


@settings(max_examples=120, deadline=None)
@given(sig=signatures(), device=st.sampled_from(sorted(SPECS)))
@example(sig=_row(MappingKind.ROW_REDUCE, 200, 200_000, False),
         device="V100")
@example(sig=_row(MappingKind.ROW_REDUCE, 64, 30_000, True), device="T4")
@example(sig=_row(MappingKind.COLUMN_REDUCE, 3, 77_777, True),
         device="A100")
def test_tuned_decision_legal_and_never_worse(sig, device):
    spec = SPECS[device]
    decision = GroupTuner(spec, cache=TuningCache()).tune_signature(sig)

    assert decision.tuned_time <= decision.heuristic_time
    assert decision.heuristic_mapping == heuristic_mapping(
        sig.geometry, spec, barrier_wave_limit(spec, sig.needs_barrier))

    winner = decision.mapping
    assert winner.kind is MappingKind(sig.kind)
    assert winner.block_size <= spec.max_threads_per_block
    if sig.needs_barrier:
        assert winner.grid_size <= spec.blocks_per_wave(winner.block_size)

    reference = KernelCostModel(spec)
    for mapping, time in ((winner, decision.tuned_time),
                          (decision.heuristic_mapping,
                           decision.heuristic_time)):
        want = reference._price_uncached(proxy_cost_inputs(sig, mapping))
        assert time.hex() == want.duration.hex()


@st.composite
def row_reduce_shapes(draw):
    rows = draw(st.integers(1, 1 << 20))
    cols = draw(st.integers(1, max(1, (1 << 30) // rows)))
    return rows, cols


@seed(19)
@settings(max_examples=60, deadline=None)
@given(shape=row_reduce_shapes(), device=st.sampled_from(sorted(SPECS)))
@example(shape=(200, 200_000), device="V100")
@example(shape=(750_000, 32), device="T4")
def test_tuned_module_never_plans_slower(shape, device):
    spec = SPECS[device]
    graph = micro.row_reduce(*shape)
    engine = Engine(spec)
    tuned = engine.plan(AStitchCompiler().compile(graph, spec))
    heuristic = engine.plan(AStitchCompiler(
        AStitchConfig.heuristic_mappings()).compile(graph, spec))
    assert tuned.total_time <= heuristic.total_time * (1 + 1e-9)
