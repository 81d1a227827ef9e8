"""Adaptive thread mapping on irregular production shapes (Fig 6 / 8).

Shows, for the two real production row-reductions the paper highlights,
the launch configuration each compiler picks and what it costs:

* ``<750000,32>`` (DIEN): XLA launches 750,000 blocks of 32 threads —
  AStitch packs 32 rows per 1024-thread block and vertically packs the
  grid into one wave;
* ``<64,30000>`` (Transformer): XLA launches 64 blocks on an 80-SM V100
  — AStitch splits each row across blocks with a cross-block atomic.

Run:  python examples/irregular_shapes.py
"""

from repro import Engine, V100, XLACompiler, render_table
from repro.core import AStitchCompiler
from repro.gpu.occupancy import achieved_occupancy
from repro.workloads import micro

SHAPES = [(750_000, 32), (64, 30_000), (4096, 1024)]


def main():
    engine = Engine()
    rows = []
    for shape in SHAPES:
        graph = micro.row_reduce(*shape)
        for compiler in (XLACompiler(), AStitchCompiler()):
            module = compiler.compile(graph)
            kernel = module.kernels()[0]
            profile = engine.run(module)
            mapping = kernel.mapping
            rows.append([
                f"<{shape[0]},{shape[1]}>",
                compiler.name,
                mapping.describe(),
                f"{achieved_occupancy(V100, mapping.grid_size, mapping.block_size):.2f}",
                f"{profile.mem_time * 1e6:.1f}",
            ])
    print(render_table(
        ["shape", "compiler", "thread mapping", "occupancy",
         "MEM time (us)"], rows,
        title="Row-reduce thread mappings on a model V100 "
              "(task packing fixes Fig 6a, task splitting fixes "
              "Fig 6b; regular shapes are unaffected)"))

    from repro.codegen import mapping as mappings
    from repro.codegen.mapping_viz import render_comparison
    for rows_, cols in ((750_000, 32), (64, 30_000)):
        print(f"\n=== <{rows_},{cols}> ===")
        print(render_comparison(
            mappings.naive_row_reduce(rows_, cols, V100),
            mappings.adaptive_row_reduce(rows_, cols, V100)))


if __name__ == "__main__":
    main()
