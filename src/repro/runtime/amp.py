"""Automatic mixed precision (Fig 12).

NVIDIA's AMP runs float tensors in fp16, halving the bytes every
memory-intensive kernel moves (compute-intensive ops also speed up on
tensor cores, modeled as a throughput factor in the library price via the
halved traffic).  ``convert_to_amp`` rebuilds a graph with every floating
tensor demoted to fp16 — the relative compiler comparison then replays
under AMP exactly as the paper's Fig 12 does.
"""

from __future__ import annotations

from repro.ir.dtypes import F16, F32, TF32, F64
from repro.ir.graph import Graph, Node

_FLOAT_TYPES = {F32, TF32, F64}


def convert_to_amp(graph: Graph) -> Graph:
    """Clone ``graph`` with all float tensors in fp16.

    The clone preserves node order, names (modulo the automatic unique
    suffixes), attributes and outputs.
    """
    clone = Graph(f"{graph.name}-amp")
    mapping: dict[Node, Node] = {}
    for node in graph.topological_order():
        dtype = F16 if node.dtype in _FLOAT_TYPES else node.dtype
        operands = [mapping[op] for op in node.operands]
        new = clone.add(node.kind, operands, node.shape, dtype,
                        name=node.name.split(".")[0], **node.attrs)
        mapping[node] = new
    for out in graph.outputs:
        clone.mark_output(mapping[out])
    return clone
