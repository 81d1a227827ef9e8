"""TensorFlow baseline: one kernel per operator, framework-dispatched.

This is the paper's normalization baseline: every memory-intensive op is
its own kernel launch, every value round-trips through global memory, and
each op pays the framework executor's scheduling cost on top of the launch
latency.
"""

from __future__ import annotations

from typing import Any

from repro.compilers.base import Compiler
from repro.codegen.builder import make_kernel
from repro.codegen.mapping import naive_mapping, root_geometry
from repro.ir.graph import Node
from repro.ir.ops import OpKind
from repro.pipeline.base import CompileState, Pass, Pipeline
from repro.pipeline.lowering import FinalizeModulePass, standard_tail


_VIEW_OPS = frozenset({OpKind.BROADCAST, OpKind.RESHAPE})


class OpPerKernelFormationPass(Pass):
    """Kernel-per-op formation (TensorFlow v1.15 without XLA).

    Broadcasts and reshapes are *views*: TensorFlow ops broadcast their
    operands implicitly and reshape is metadata-only, so neither
    materializes a tensor.  They are absorbed into their consumers'
    kernels; everything else is one kernel per op with a full global-
    memory round trip.
    """

    name = "op-per-kernel"
    kind = "lower"

    def run(self, state: CompileState) -> dict[str, Any]:
        graph = state.graph
        graph_outputs = set(graph.outputs)

        def absorbable(node: Node) -> bool:
            if node.kind not in _VIEW_OPS or node in graph_outputs:
                return False
            users = graph.users(node)
            return bool(users) and all(u.is_memory_intensive()
                                       for u in users)

        def view_closure(node: Node) -> list[Node]:
            """The node plus its chain of absorbable view operands."""
            nodes = [node]
            stack = list(node.operands)
            while stack:
                operand = stack.pop()
                if absorbable(operand) and operand not in nodes:
                    nodes.append(operand)
                    stack.extend(operand.operands)
            return nodes

        absorbed = 0
        for node in graph.topological_order():
            if node.kind in (OpKind.PARAMETER, OpKind.CONSTANT):
                continue
            if node.is_compute_intensive():
                # Library dispatch is the shared tail's job.
                continue
            if absorbable(node):
                absorbed += 1
                continue
            state.kernels.append(make_kernel(
                graph, view_closure(node),
                naive_mapping(root_geometry(node), state.spec),
                name=f"op_{node.name}", outputs=[node]))
        return {"kernels": len(state.kernels),
                "views_absorbed": absorbed}


class TensorFlowCompiler(Compiler):
    """Kernel-per-op execution (TensorFlow v1.15 without XLA)."""

    name = "TensorFlow"

    def build_pipeline(self) -> Pipeline:
        finalize = FinalizeModulePass(self.name, framework_mode=True)
        return Pipeline(name="tensorflow",
                        passes=(OpPerKernelFormationPass(),
                                *standard_tail(finalize)))
