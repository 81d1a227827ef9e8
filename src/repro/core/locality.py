"""Stitching-scheme finalization (Sec 4.3, step 3).

Every dominant / sub-dominant value consumed inside the stitched kernel
needs a buffer; the locality check decides which memory:

* **regional** (shared memory) requires block-level locality: whenever a
  block produces a range of the value, its consumers must read exactly
  that range from the same block.  Under a uniform kernel launch and
  row-major layouts, this holds exactly when the whole producer-to-
  consumer neighborhood is *row-aligned*: both schedules assign blocks
  contiguous row ranges (element-wise or row-reduce mappings without task
  splitting), and the value flows to its consumers only through
  one-to-one edges and innermost-axis (row) broadcasts.  Transposes,
  non-row broadcasts, column reduces and split rows scatter a block's
  data across other blocks — locality fails.
* **global** otherwise: parallelism first, off-chip round trip accepted.

This passive check never changes a schedule; *proactive* adaptation
already happened when schedule propagation derived the element-wise
groups' mappings from the same uniform launch (Sec 4.3's element-wise
groups adjust to their producer's blocking).  The memory planner may
still demote regional values to global when shared memory overflows
(Sec 4.4).
"""

from __future__ import annotations

from repro.codegen.schedule import ThreadMapping
from repro.core.dominants import ScopeAnalysis
from repro.core.schemes import StitchScheme
from repro.ir.graph import Graph, Node
from repro.ir.ops import OpKind


def _row_aligned_mapping(mapping: ThreadMapping) -> bool:
    """Schedules whose blocks own contiguous, non-overlapping row ranges."""
    return not mapping.accumulates


def _row_aligned_edge(value: Node, consumer: Node) -> bool:
    """True when ``consumer`` reads ``value`` preserving row blocking.

    One-to-one element-wise reads preserve it trivially; a broadcast
    preserves it only when it replicates along *new innermost axes*
    (``broadcast_dims`` maps the input onto the leading output axes) —
    then output row ``r`` still only needs value element ``r``.  A
    row-reduce consumer preserves it too: the block reducing rows
    ``[a, b)`` reads exactly those rows.  Everything that permutes or
    re-buckets rows breaks locality.
    """
    if consumer.kind is OpKind.BROADCAST:
        dims = consumer.broadcast_dims
        return dims == tuple(range(len(dims)))
    if consumer.kind in (OpKind.TRANSPOSE, OpKind.RESHAPE):
        return False
    if consumer.kind is OpKind.REDUCE:
        return consumer.is_row_reduce()
    return True


def assign_schemes(graph: Graph,
                   analysis: ScopeAnalysis,
                   group_mappings: dict[int, ThreadMapping],
                   scope_set: set[Node],
                   allow_global: bool = True,
                   ) -> dict[Node, StitchScheme]:
    """Decide regional vs global for every buffered value in a scope.

    Returns:
        Candidate node -> scheme, for dominants and sub-dominants that
        have in-scope consumers.  Nodes absent from the map are
        local-scheme (register).
    """
    # A group whose body permutes rows (transpose, or a broadcast along
    # non-innermost axes) scatters any consumed value across blocks, so
    # values flowing into it cannot be block-local even when the direct
    # edge looks row-aligned.
    group_permutes: dict[int, bool] = {}
    for group in analysis.groups:
        permutes = False
        for node in group.nodes:
            if node.kind is OpKind.TRANSPOSE:
                permutes = True
                break
            if node.kind is OpKind.BROADCAST:
                dims = node.broadcast_dims
                if dims != tuple(range(len(dims))):
                    permutes = True
                    break
        group_permutes[group.group_id] = permutes

    schemes: dict[Node, StitchScheme] = {}
    for group in analysis.groups:
        producer_mapping = group_mappings[group.group_id]
        for candidate in [group.dominant, *group.sub_dominants]:
            in_scope_users = [u for u in graph.users(candidate)
                              if u in scope_set]
            if not in_scope_users:
                continue  # Pure kernel output; no in-kernel consumers.
            regional = _row_aligned_mapping(producer_mapping)
            for user in in_scope_users:
                user_group = analysis.group_of[user]
                consumer_mapping = group_mappings[user_group]
                if not _row_aligned_mapping(consumer_mapping):
                    regional = False
                if group_permutes[user_group]:
                    regional = False
                if not _row_aligned_edge(candidate, user):
                    regional = False
            schemes[candidate] = (StitchScheme.REGIONAL if regional
                                  else StitchScheme.GLOBAL)
    return schemes
