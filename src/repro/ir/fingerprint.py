"""Structural graph fingerprinting.

A fingerprint is a content hash over everything that determines what a
compiler produces for a graph: topology (operand edges in topological
order), operator kinds, shapes, dtypes, operator attributes, the graph's
input/output interface names, and nothing else.  Two graphs built
independently — in different processes, on different days — hash equal
iff a compiler would treat them identically, which is what lets the
compilation cache (:mod:`repro.runtime.compile_cache`) be shared across
graph objects, sessions and process runs.

Deliberately excluded from the hash:

* object identity and ``node_id`` values (insertion order carries the
  topology already);
* internal node names (``add.3`` vs ``add.7`` is not a semantic
  difference) — except PARAMETER and output names, which *are* the
  execution interface (`execute` feeds/fetches by name);
* the graph's display ``name`` (a CRNN by any other name compiles the
  same).
"""

from __future__ import annotations

import enum
import hashlib
import weakref
from typing import Any

import numpy as np

from repro.ir.dtypes import DType
from repro.ir.graph import Graph, Node
from repro.ir.ops import OpKind
from repro.ir.shape import Shape
from repro.store import register

# Bump when the encoding below changes; keeps stale persistent-cache
# entries (keyed by fingerprints of the old scheme) from being served.
FINGERPRINT_VERSION = 1

# Memo of already-hashed graphs.  Graphs are append-only (``Graph.add`` /
# ``mark_output``), so (node count, output count) is a sufficient
# staleness guard; a graph mutated any other way is outside the IR's
# contract.
_MEMO: "weakref.WeakKeyDictionary[Graph, tuple[int, int, str]]" = register(
    "fingerprints", weakref.WeakKeyDictionary())


def canonical_attr(value: Any) -> str:
    """Render one attribute value into a stable, unambiguous string.

    Handles every attribute type the IR uses (ints, floats, strings,
    enums such as :class:`~repro.ir.ops.ReduceKind`, shapes, dtypes,
    nested tuples/lists/dicts, NumPy arrays).  Unknown objects fall back
    to ``repr`` — deterministic for any sanely-implemented value type,
    and wrong only in ways that make the cache *miss*, never alias.
    """
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, (int, np.integer)):
        return f"i:{int(value)}"
    if isinstance(value, (float, np.floating)):
        return f"f:{float(value)!r}"
    if isinstance(value, str):
        return f"s:{value}"
    if value is None:
        return "none"
    if isinstance(value, enum.Enum):
        return f"e:{type(value).__name__}.{value.value}"
    if isinstance(value, DType):
        return f"dt:{value.name}"
    if isinstance(value, Shape):
        return "sh:" + ",".join(str(d) for d in value.dims)
    if isinstance(value, np.ndarray):
        payload = hashlib.sha256(
            np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"nd:{value.dtype}:{value.shape}:{payload}"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(map(canonical_attr, value)) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical_attr(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted((canonical_attr(k), canonical_attr(v))
                       for k, v in value.items())
        return "{" + ",".join(f"{k}={v}" for k, v in items) + "}"
    return f"r:{type(value).__name__}:{value!r}"


def _encode_node(node: Node, index_of: dict[int, int]) -> str:
    """One line of the canonical form: kind, type, operands, attrs."""
    operands = ",".join(str(index_of[id(op)]) for op in node.operands)
    attrs = ";".join(f"{key}={canonical_attr(val)}"
                     for key, val in sorted(node.attrs.items()))
    interface = node.name if node.kind is OpKind.PARAMETER else ""
    dims = ",".join(str(d) for d in node.shape.dims)
    return (f"{node.kind.value}|{interface}|<{dims}>|{node.dtype.name}"
            f"|({operands})|{attrs}")


def canonical_form(graph: Graph) -> str:
    """The exact byte string the fingerprint hashes (for debugging)."""
    index_of = {id(node): i for i, node in
                enumerate(graph.topological_order())}
    lines = [f"repro-graph-fingerprint-v{FINGERPRINT_VERSION}"]
    lines.extend(_encode_node(node, index_of)
                 for node in graph.topological_order())
    outputs = ",".join(f"{index_of[id(out)]}:{out.name}"
                       for out in graph.outputs)
    lines.append(f"outputs|{outputs}")
    return "\n".join(lines)


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of ``graph``, stable across processes and identity.

    Results are memoized per graph object (guarded by node/output
    counts), so pricing loops that re-fingerprint the same graph on
    every request pay the O(nodes) walk only once.
    """
    cached = _MEMO.get(graph)
    signature = (len(graph), len(graph.outputs))
    if cached is not None and cached[:2] == signature:
        return cached[2]
    digest = hashlib.sha256(
        canonical_form(graph).encode("utf-8")).hexdigest()
    _MEMO[graph] = (*signature, digest)
    return digest


def fingerprints_equal(left: Graph, right: Graph) -> bool:
    """True when the two graphs are structurally interchangeable for
    every compiler in this repository."""
    return graph_fingerprint(left) == graph_fingerprint(right)
