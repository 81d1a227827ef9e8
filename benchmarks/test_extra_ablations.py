"""Extra ablations beyond Table 4, for the design choices DESIGN.md
calls out.

* global scheme on/off — "regional-only" approximates the
  FusionStitching predecessor ([57] in the paper), which AStitch's
  global scheme enlarges upon;
* remote stitching on/off (Sec 4.1);
* task packing/splitting benefits per irregular shape (Sec 3.3).
"""

from benchmarks.conftest import compile_cached, save_report
from repro.analysis import render_table
from repro.codegen import mapping as mappings
from repro.codegen.builder import kernel_cost_inputs
from repro.core import AStitchCompiler, AStitchConfig
from repro.gpu.costmodel import KernelCostModel
from repro.gpu.spec import V100
from repro.runtime import Engine
from repro.workloads import build, micro


def _total_time(config, graph):
    module = compile_cached(AStitchCompiler(config), graph)
    return Engine().run(module).total_time, len(module.kernels())


def test_extra_global_scheme_ablation(benchmark):
    def run():
        graph = micro.column_reduce_chain(size=256, steps=16)
        return {
            "full": _total_time(AStitchConfig.full(), graph),
            "regional-only": _total_time(AStitchConfig.regional_only(),
                                         graph),
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[name, kernels, f"{t*1e6:.1f}"]
            for name, (t, kernels) in data.items()]
    save_report("extra_global_scheme", render_table(
        ["config", "kernels", "time (us)"], rows,
        title="Extra ablation: global scheme vs regional-only "
              "(FusionStitching-style) on a column-normalization chain"))

    # The global scheme keeps the chain in one kernel (barriers are
    # cheaper than launches, Table 6); without it the scope shatters
    # into per-stage launches.
    assert data["full"][1] < data["regional-only"][1]
    assert data["full"][0] < data["regional-only"][0]


def test_extra_remote_stitching_ablation(benchmark, inference_graphs):
    def run():
        graph = inference_graphs["BERT"]
        with_remote = _total_time(AStitchConfig.full(), graph)
        without = _total_time(AStitchConfig(remote_stitching=False),
                              graph)
        return with_remote, without

    (t_on, k_on), (t_off, k_off) = benchmark.pedantic(run, rounds=1,
                                                      iterations=1)
    save_report("extra_remote_stitching", render_table(
        ["config", "kernels", "time (ms)"],
        [["remote stitching on", k_on, f"{t_on*1e3:.2f}"],
         ["remote stitching off", k_off, f"{t_off*1e3:.2f}"]],
        title="Extra ablation: remote stitching on BERT"))
    assert k_on < k_off
    assert t_on <= t_off * 1.02


def test_extra_packing_and_splitting(benchmark):
    """Per-shape benefit of each Sec 3.3 mechanism in isolation."""
    def run():
        cost = KernelCostModel(V100)
        out = {}
        for rows, cols, mechanism in [(750_000, 32, "packing"),
                                      (64, 30_000, "splitting")]:
            graph = micro.row_reduce(rows, cols)
            reduce_node = next(n for n in graph.nodes
                               if n.kind.value == "reduce")

            def price(mapping):
                from repro.codegen.builder import make_kernel
                kernel = make_kernel(graph, [reduce_node], mapping,
                                     outputs=[reduce_node])
                return cost.price(kernel_cost_inputs(kernel)).duration

            naive = price(mappings.naive_row_reduce(rows, cols, V100))
            adaptive = price(mappings.adaptive_row_reduce(rows, cols,
                                                          V100))
            out[mechanism] = (naive, adaptive)
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[m, f"{n*1e6:.1f}", f"{a*1e6:.1f}", f"{n/a:.2f}x"]
            for m, (n, a) in data.items()]
    save_report("extra_packing_splitting", render_table(
        ["mechanism", "naive (us)", "adaptive (us)", "gain"], rows,
        title="Extra ablation: task packing (Fig 8a) and task "
              "splitting (Fig 8b) in isolation"))
    for mechanism, (naive, adaptive) in data.items():
        assert adaptive < naive, mechanism
