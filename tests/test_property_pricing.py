"""Property tests at the pricing boundary.

The vectorized, memoized :meth:`KernelCostModel.price_batch` and every
execution plan built on top of it must agree bit for bit with the scalar
reference :meth:`KernelCostModel._price_uncached`, evaluated on a
*fresh* model so no memo is shared with the path under test.  Inputs
cover atomic rounds and global barriers (with grids that fit one wave,
as the barrier requires) on random device specs.

Metamorphic laws hold for a fixed launch on both the array core (the
memo-free :meth:`KernelCostModel.launch_durations`) and the scalar
reference: more DRAM bandwidth never slows a kernel, more bytes or more
FP instructions never speed one up, and an fp16 variant of a graph
never moves more bytes than its fp32 original.  "More SMs is never
slower" is *not* a law of this model: with ``num_sms`` raised alone, a
sub-wave grid covers a smaller share of the SMs (lower achieved
occupancy, so less usable bandwidth), while ``fp32_throughput`` is a
separate, unchanged field.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.codegen.builder import kernel_cost_inputs
from repro.compilers import XLACompiler
from repro.core import AStitchCompiler
from repro.gpu.costmodel import KernelCostInputs, KernelCostModel
from repro.gpu.occupancy import occupancy
from repro.gpu.spec import V100
from repro.runtime.amp import convert_to_amp
from repro.runtime.engine import Engine
from repro.runtime.plan import PlanCache
from repro.workloads import micro


@st.composite
def cost_inputs(draw, spec):
    block = draw(st.integers(1, spec.max_threads_per_block))
    regs = draw(st.integers(1, spec.max_registers_per_thread))
    smem = draw(st.sampled_from(
        [0, 1024, 4096, 16384, spec.shared_memory_per_block]))
    barriers = draw(st.integers(0, 3))
    if barriers:
        wave = occupancy(spec, block, regs, smem).blocks_per_wave
        grid = draw(st.integers(1, wave))
    else:
        grid = draw(st.integers(1, 1 << 20))
    traffic = st.floats(0.0, 1e10, allow_nan=False)
    return KernelCostInputs(
        grid_size=grid, block_size=block,
        bytes_read=draw(traffic), bytes_written=draw(traffic),
        fp_instructions=draw(st.floats(0.0, 1e11, allow_nan=False)),
        regs_per_thread=regs, smem_per_block=smem,
        num_global_barriers=barriers,
        num_atomic_rounds=draw(st.integers(0, 4)))


@st.composite
def priced_cases(draw):
    spec = dataclasses.replace(
        V100,
        dram_bandwidth=draw(st.floats(100e9, 3000e9)),
        num_sms=draw(st.integers(8, 160)))
    batch = draw(st.lists(cost_inputs(spec), min_size=1, max_size=12))
    return spec, batch + batch[:2]  # repeats exercise the dedupe


def _fixed_batch():
    return [KernelCostInputs(
        grid_size=80 + i, block_size=256, bytes_read=1 << 20,
        bytes_written=(1 << 18) + i, fp_instructions=5e6,
        regs_per_thread=32, smem_per_block=4096)
        for i in range(16)]


def _same(got, want):
    return got == want and got.duration.hex() == want.duration.hex()


# Small graphs whose AStitch modules span the plain, atomic and
# global-barrier kernel forms, depending on shape and spec.
GRAPHS = {"fig7": micro.fig7_subgraph, "softmax": micro.softmax_graph,
          "row_reduce": micro.row_reduce}


@settings(max_examples=40, deadline=None)
@given(case=priced_cases(), graph=st.sampled_from(sorted(GRAPHS)),
       rows=st.integers(1, 128), cols=st.integers(1, 4096))
@example(case=(V100, _fixed_batch()), graph="fig7", rows=128, cols=64)
@example(case=(V100, _fixed_batch()), graph="softmax", rows=4, cols=2048)
def test_price_batch_and_plans_match_reference(case, graph, rows, cols):
    spec, batch = case
    reference = KernelCostModel(spec)

    priced = KernelCostModel(spec).price_batch(batch)
    for inputs, counters in zip(batch, priced):
        assert _same(counters, reference._price_uncached(inputs))

    module = AStitchCompiler().compile(GRAPHS[graph](rows, cols), spec)
    plan = Engine(spec, plan_cache=PlanCache()).plan(module)
    kernels = module.kernels()
    mem_steps = [s for s in plan.steps if s.category == "mem"]
    assert len(mem_steps) == len(kernels)
    for kernel, step in zip(kernels, mem_steps):
        want = reference._price_uncached(kernel_cost_inputs(kernel))
        assert _same(step.counters, want)
        assert step.duration == want.duration


def _durations(spec, launches):
    """Each launch's duration from the array core and from the scalar
    reference, after checking the two agree bit for bit."""
    model = KernelCostModel(spec)
    array = model.launch_durations(
        np.array([x.grid_size for x in launches]),
        np.array([x.block_size for x in launches]),
        np.array([x.bytes_read for x in launches]),
        np.array([x.bytes_written for x in launches]),
        np.array([x.fp_instructions for x in launches]),
        np.array([x.num_atomic_rounds for x in launches]),
        regs_per_thread=launches[0].regs_per_thread,
        smem_per_block=launches[0].smem_per_block).tolist()
    scalar = [model._price_uncached(x).duration for x in launches]
    assert [t.hex() for t in array] == [t.hex() for t in scalar]
    return scalar


@st.composite
def launches(draw):
    spec = dataclasses.replace(
        V100,
        dram_bandwidth=draw(st.floats(100e9, 3000e9)),
        num_sms=draw(st.integers(8, 160)))
    inputs = draw(cost_inputs(spec))
    # launch_durations prices barrier-free launches (the tuner's proxy).
    return spec, dataclasses.replace(inputs, num_global_barriers=0)


growth = st.floats(1.0, 1e3, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(case=launches(), factor=growth)
def test_more_bandwidth_never_slower(case, factor):
    spec, inputs = case
    faster = dataclasses.replace(spec,
                                 dram_bandwidth=spec.dram_bandwidth * factor)
    [base] = _durations(spec, [inputs])
    [sped] = _durations(faster, [inputs])
    assert sped <= base
    with_barrier = dataclasses.replace(inputs, num_global_barriers=1,
                                       grid_size=1)
    assert KernelCostModel(faster)._price_uncached(with_barrier).duration \
        <= KernelCostModel(spec)._price_uncached(with_barrier).duration


@settings(max_examples=60, deadline=None)
@given(case=launches(), extra_read=st.floats(0.0, 1e10),
       extra_written=st.floats(0.0, 1e10), extra_fp=st.floats(0.0, 1e11))
def test_more_bytes_or_instructions_never_faster(case, extra_read,
                                                 extra_written, extra_fp):
    spec, inputs = case
    heavier = [
        dataclasses.replace(inputs,
                            bytes_read=inputs.bytes_read + extra_read),
        dataclasses.replace(inputs, bytes_written=inputs.bytes_written
                            + extra_written),
        dataclasses.replace(inputs, fp_instructions=inputs.fp_instructions
                            + extra_fp),
    ]
    base, *more = _durations(spec, [inputs, *heavier])
    assert all(time >= base for time in more)


def _bytes_moved(module) -> float:
    return sum(inputs.bytes_read + inputs.bytes_written
               for inputs in map(kernel_cost_inputs, module.kernels()))


@settings(max_examples=25, deadline=None)
@given(graph=st.sampled_from(sorted(GRAPHS)), rows=st.integers(1, 512),
       cols=st.integers(1, 4096),
       device=st.sampled_from([V100, dataclasses.replace(V100, num_sms=20)]),
       compiler=st.sampled_from([AStitchCompiler(), XLACompiler()]))
def test_fp16_never_moves_more_bytes(graph, rows, cols, device, compiler):
    fp32 = GRAPHS[graph](rows, cols)
    assert _bytes_moved(compiler.compile(convert_to_amp(fp32), device)) \
        <= _bytes_moved(compiler.compile(fp32, device))
