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

The same walk also yields a *topology* fingerprint
(:func:`topology_fingerprint`): the same hash with each node's dims
replaced by its rank and two shape predicates.  It is equal across the
batch sizes of one workload, and keys the AStitch phases that do not
depend on them (``repro.core.passes.TOPOLOGY_MEMO``).
"""

from __future__ import annotations

import enum
import hashlib
import weakref
from typing import Any, Iterator

import numpy as np

from repro.ir.dtypes import DType
from repro.ir.graph import Graph
from repro.ir.ops import KIND_NAMES, OpKind
from repro.ir.shape import Shape
from repro.store import register

# Bump when the encoding below changes; keeps stale persistent-cache
# entries (keyed by fingerprints of the old scheme) from being served.
FINGERPRINT_VERSION = 1

# Memo of already-hashed graphs: (node count, output count, fingerprint,
# topology fingerprint).  Graphs are append-only (``Graph.add`` /
# ``mark_output``), so (node count, output count) is a sufficient
# staleness guard; a graph mutated any other way is outside the IR's
# contract.
_MEMO: "weakref.WeakKeyDictionary[Graph, tuple[int, int, str, str]]" = \
    register("fingerprints", weakref.WeakKeyDictionary())


def canonical_attr(value: Any) -> str:
    """Render one attribute value into a stable, unambiguous string.

    Handles every attribute type the IR uses (ints, floats, strings,
    enums such as :class:`~repro.ir.ops.ReduceKind`, shapes, dtypes,
    nested tuples/lists/dicts, NumPy arrays).  Unknown objects fall back
    to ``repr`` — deterministic for any sanely-implemented value type,
    and wrong only in ways that make the cache *miss*, never alias.
    """
    # Tuples first: int tuples (axes, dims, permutations) are most of
    # the attrs a walk renders, and no other attr type is a tuple.
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(map(canonical_attr, value)) + "]"
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
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical_attr(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted((canonical_attr(k), canonical_attr(v))
                       for k, v in value.items())
        return "{" + ",".join(f"{k}={v}" for k, v in items) + "}"
    return f"r:{type(value).__name__}:{value!r}"


_PARAMETER, _BROADCAST, _CONSTANT = \
    OpKind.PARAMETER, OpKind.BROADCAST, OpKind.CONSTANT


# Nodes per chunk of text the digests consume: the walk never holds a
# whole canonical form (a 33k-node graph's is 1.4 MB, times two).
_CHUNK = 4096


def _canonical_chunks(graph: Graph) -> Iterator[tuple[str, str]]:
    """Both canonical forms of ``graph``, in one walk, as consecutive
    ``(full, topology)`` chunks of text.

    The full form has one line per node (kind, interface, dims, dtype,
    operands, attrs) and hashes to the fingerprint.  The topology form
    replaces each node's dims with its rank plus the two shape
    predicates stitch-scope identification and dominant analysis read:
    whether a BROADCAST amplifies (``+``: more elements than its
    operand) and whether a CONSTANT is a scalar (``s``: one element).
    """
    nodes = graph.topological_order()
    index_of = {node: str(i) for i, node in enumerate(nodes)}
    # Dims -> (full, topology) shape text, rendered once per walk.
    dims_text: dict[tuple[int, ...], tuple[str, str]] = {}
    full = [f"repro-graph-fingerprint-v{FINGERPRINT_VERSION}"]
    topology = [f"repro-topology-fingerprint-v{FINGERPRINT_VERSION}"]
    for node in nodes:
        kind = node.kind
        shape = node.shape
        dims = shape.dims
        text = dims_text.get(dims)
        if text is None:
            text = dims_text[dims] = (
                "<" + ",".join(map(str, dims)) + ">", "<r" + str(len(dims)))
        head = KIND_NAMES[kind] + (
            "|" + node.name + "|" if kind is _PARAMETER else "||")
        tail = ("|" + node.dtype.name + "|("
                + ",".join(map(index_of.__getitem__, node.operands)) + ")|")
        attrs = node.attrs
        if attrs:
            tail += ";".join([key + "=" + canonical_attr(attrs[key])
                              for key in sorted(attrs)])
        if kind is _BROADCAST and shape.num_elements \
                > node.operands[0].shape.num_elements:
            predicate = "+>"
        elif kind is _CONSTANT and shape.num_elements == 1:
            predicate = "s>"
        else:
            predicate = ">"
        full.append(head + text[0] + tail)
        topology.append(head + text[1] + predicate + tail)
        if len(full) == _CHUNK:
            yield "\n".join(full) + "\n", "\n".join(topology) + "\n"
            full.clear()
            topology.clear()
    outputs = "outputs|" + ",".join([f"{index_of[out]}:{out.name}"
                                     for out in graph.outputs])
    full.append(outputs)
    topology.append(outputs)
    yield "\n".join(full), "\n".join(topology)


def canonical_form(graph: Graph) -> str:
    """The exact byte string the fingerprint hashes (for debugging)."""
    return "".join(full for full, _ in _canonical_chunks(graph))


def _digests(graph: Graph) -> tuple[int, int, str, str]:
    """The memo entry of ``graph``: staleness signature, fingerprint and
    topology fingerprint (both digests come from one walk)."""
    cached = _MEMO.get(graph)
    signature = (len(graph), len(graph.outputs))
    if cached is not None and cached[:2] == signature:
        return cached
    full, topology = hashlib.sha256(), hashlib.sha256()
    for full_text, topology_text in _canonical_chunks(graph):
        full.update(full_text.encode("utf-8"))
        topology.update(topology_text.encode("utf-8"))
    entry = (*signature, full.hexdigest(), topology.hexdigest())
    _MEMO[graph] = entry
    return entry


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of ``graph``, stable across processes and identity.

    Results are memoized per graph object (guarded by node/output
    counts), so pricing loops that re-fingerprint the same graph on
    every request pay the O(nodes) walk only once.
    """
    return _digests(graph)[2]


def topology_fingerprint(graph: Graph) -> str:
    """Shape-erased content hash of ``graph``.

    Equal for two graphs that differ only in dims, as long as every
    node keeps its rank, every BROADCAST keeps whether it amplifies and
    every CONSTANT keeps whether it is a scalar: then stitch-scope
    identification and dominant analysis give the same result, in node
    positions, for both (see :mod:`repro.core.dominants`).  Computed and
    memoized together with :func:`graph_fingerprint`.
    """
    return _digests(graph)[3]


def fingerprints_equal(left: Graph, right: Graph) -> bool:
    """True when the two graphs are structurally interchangeable for
    every compiler in this repository."""
    return graph_fingerprint(left) == graph_fingerprint(right)
