"""Tour of the AStitch compiler pipeline on the Fig 7 subgraph.

Walks every stage of Sec 4 on the paper's running example and prints
what the compiler decided:

1. stitch-scope identification (Sec 4.1),
2. dominant candidates, merging, groups (Sec 4.3 step 1),
3. adaptive thread mappings per group (step 2),
4. stitching schemes — regional vs global (step 3),
5. the final kernel: launch, shared memory, registers, barriers,
6. the prototype CUDA source a real backend would hand to NVRTC.

Run:  python examples/inspect_stitching.py
"""

from repro import AStitchCompiler, V100, render_table
from repro.codegen.cuda_source import emit_kernel_source
from repro.core.adaptive import unify_launch
from repro.core.dominants import analyze_scope, dominant_candidates
from repro.core.locality import assign_schemes
from repro.core.scope import identify_stitch_scopes
from repro.workloads import micro


def main():
    graph = micro.fig7_subgraph(rows=1024, cols=512)
    print(f"graph: {graph}")
    print("nodes:", ", ".join(f"{n.name}{n.shape!r}" for n in graph.nodes
                              if n.is_memory_intensive()))

    # 1. Scope identification.
    scopes = identify_stitch_scopes(graph)
    print(f"\n[1] stitch scopes: {len(scopes)}")
    for scope in scopes:
        print(f"    scope {scope.scope_id}: {len(scope)} ops")

    scope = scopes[0]

    # 2. Dominants and groups.
    candidates = dominant_candidates(graph, scope.nodes)
    print(f"\n[2] dominant candidates: "
          f"{', '.join(c.name for c in candidates)}")
    analysis = analyze_scope(graph, scope.nodes, dominant_merging=True)
    for group in analysis.groups:
        subs = ", ".join(s.name for s in group.sub_dominants) or "-"
        print(f"    group {group.group_id}: dominant={group.dominant.name}"
              f" sub-dominants=[{subs}] ops={len(group.nodes)}")
    print(f"    stages: {analysis.stages} "
          f"(barriers needed between stages when values go global)")

    # 3. Adaptive thread mapping + unified launch.
    launch = unify_launch(analysis.groups, V100,
                          needs_barrier=analysis.stages > 1)
    print("\n[3] per-group thread mappings:")
    for gid, mapping in launch.group_mappings.items():
        dominant = analysis.groups[gid].dominant.name
        print(f"    group {gid} ({dominant}): {mapping.describe()}")
    print(f"    unified launch: grid={launch.grid_size} "
          f"block={launch.block_size}")

    # 4. Stitching schemes.
    schemes = assign_schemes(graph, analysis, launch.group_mappings,
                             scope.node_set)
    print("\n[4] stitching schemes (everything else is local/register):")
    for node, scheme in schemes.items():
        print(f"    {node.name}{node.shape!r}: {scheme.value}")

    # 5. The compiled kernel.
    module = AStitchCompiler().compile(graph)
    kernel = module.kernels()[0]
    print("\n[5] compiled stitch op:")
    print(render_table(
        ["property", "value"],
        [["kernels for the whole subgraph", len(module.kernels())],
         ["launch", kernel.mapping.describe()],
         ["registers/thread (assume-relax-apply)",
          kernel.regs_per_thread],
         ["shared memory/block (B)", kernel.smem_per_block],
         ["global barriers", kernel.num_global_barriers],
         ["inputs", ", ".join(n.name for n in kernel.inputs)],
         ["outputs", ", ".join(n.name for n in kernel.outputs)]]))

    # 6. Prototype CUDA source.
    print("\n[6] emitted CUDA source:\n")
    print(emit_kernel_source(kernel))


if __name__ == "__main__":
    main()
