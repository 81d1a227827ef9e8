"""Stitching-scope identification (Sec 4.1).

AStitch stitches the largest possible scope of memory-intensive operators
into one kernel.  Scope identification has two steps:

1. BFS over the graph identifies the memory-intensive subgraphs (each
   becomes a *stitch op*);
2. *remote stitching* merges stitch ops that have no data dependency on
   each other — even subgraphs separated by compute-intensive operators —
   into one larger stitch op, as long as no cyclic dependence arises.

Neither step reads a shape: scopes depend on operator kinds and edges
only.  So the result, written as node positions, is the same for every
batch size of a workload, and the pipeline memoizes it by topology
fingerprint together with dominant analysis (see
:mod:`repro.core.dominants` and ``core.passes.TOPOLOGY_MEMO``).
"""

from __future__ import annotations

import dataclasses

from repro.ir.graph import Graph, Node
from repro.ir import patterns


@dataclasses.dataclass
class StitchScope:
    """One stitch op: the node set compiled into a single kernel."""

    scope_id: int
    nodes: list[Node]

    @property
    def node_set(self) -> set[Node]:
        return set(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"StitchScope(id={self.scope_id}, nodes={len(self.nodes)})"


def _component_levels(graph: Graph,
                      components: list[list[Node]]) -> list[int]:
    """Longest-path level of each component in the component DAG.

    Every component compiles to one atomic kernel, so the dependence that
    matters is over the **component DAG**: merging two components is only
    safe when no chain of *steps* — other components or library calls —
    orders them.  Node-level pairwise reachability is not enough: a third
    component S consuming from A while (transitively) feeding B makes an
    A∪B kernel cyclic even though no graph path joins A and B, and two
    pairwise-legal merges can still deadlock each other (both found by
    the property-based fuzzer).

    Levels give a construction that is safe for *any* grouping: every
    component-DAG edge strictly increases the level, so merging only
    same-level components keeps all step edges pointing from lower to
    higher levels — the step DAG stays acyclic no matter how many groups
    form.
    """
    comp_of: dict[Node, int] = {}
    for idx, comp in enumerate(components):
        for node in comp:
            comp_of[node] = idx

    # Direct component edges: i -> j when an i-node reaches a j-node
    # through non-component nodes only (library calls, data movement to
    # libraries).  Propagation stops at component nodes — atomicity is
    # then handled by the level computation below.
    downstream: dict[Node, int] = {}
    edges = [0] * len(components)
    for node in reversed(graph.topological_order()):
        reached = 0
        for user in graph.users(node):
            if user in comp_of:
                reached |= 1 << comp_of[user]
            else:
                reached |= downstream.get(user, 0)
        downstream[node] = reached
        if node in comp_of:
            own = comp_of[node]
            edges[own] |= reached & ~(1 << own)

    # Longest-path levels via Kahn's algorithm on the component DAG.
    count = len(components)
    in_degree = [0] * count
    for mask in edges:
        remaining = mask
        while remaining:
            low = remaining & -remaining
            in_degree[low.bit_length() - 1] += 1
            remaining ^= low
    levels = [0] * count
    ready = [i for i in range(count) if in_degree[i] == 0]
    visited = 0
    while ready:
        idx = ready.pop()
        visited += 1
        remaining = edges[idx]
        while remaining:
            low = remaining & -remaining
            succ = low.bit_length() - 1
            levels[succ] = max(levels[succ], levels[idx] + 1)
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
            remaining ^= low
    if visited != count:
        raise RuntimeError("component graph is cyclic — scope splitting "
                           "by library depth should have prevented this")
    return levels


def _library_depth(graph: Graph) -> dict[Node, int]:
    """Number of compute-intensive ops on the deepest path to each node.

    A memory-intensive component whose members sit at different depths has
    an internal path through a library op; stitching it whole would create
    a cyclic dependency between the stitch kernel and that library call.
    Splitting by depth is sufficient: any path between two nodes that
    leaves through a library op re-enters at a strictly greater depth.
    """
    depth: dict[Node, int] = {}
    order = graph.topological_order()
    for node in order:
        best = 0
        for operand in node.operands:
            step = 1 if operand.is_compute_intensive() else 0
            best = max(best, depth[operand] + step)
        depth[node] = best

    # Float each memory-intensive node *down* to its consumers' depth when
    # possible.  Without this, a broadcast of a weight parameter would sit
    # at depth 0 while its only consumer lives after several library calls
    # — stranding it in a scope of its own and materializing the broadcast
    # to DRAM.  Floating is only safe for nodes whose users are *all*
    # memory-intensive: effective depth then stays monotone along every
    # memory-intensive edge, and any path through a library op still
    # re-enters at a strictly greater depth (no cycles).
    effective = dict(depth)
    for node in reversed(order):
        if not node.is_memory_intensive():
            continue
        users = graph.users(node)
        if not users or not all(u.is_memory_intensive() for u in users):
            continue
        floor = min(effective[u] for u in users)
        effective[node] = max(depth[node], floor)
    return effective


def identify_stitch_scopes(graph: Graph,
                           remote_stitching: bool = True,
                           ) -> list[StitchScope]:
    """Carve the graph's memory-intensive nodes into stitch scopes.

    Args:
        graph: Source graph.
        remote_stitching: Merge data-independent subgraphs into one scope.

    Returns:
        Scopes in a valid topological order (each scope's external
        producers precede it).
    """
    depth = _library_depth(graph)
    components = []
    for component in patterns.memory_intensive_components(graph):
        by_depth: dict[int, list[Node]] = {}
        for node in component:
            by_depth.setdefault(depth[node], []).append(node)
        for _, nodes in sorted(by_depth.items()):
            components.append(nodes)
    if not components:
        return []
    if not remote_stitching:
        return [StitchScope(i, comp) for i, comp in enumerate(components)]

    levels = _component_levels(graph, components)

    # Merge components that share a component-DAG level: same-level
    # components are mutually unreachable, and every step edge then runs
    # from a lower level to a higher one — the merged step DAG is acyclic
    # by construction regardless of how many groups form.
    by_level: dict[int, list[int]] = {}
    for idx, level in enumerate(levels):
        by_level.setdefault(level, []).append(idx)
    groups = [group for _, group in sorted(by_level.items())]

    scopes = []
    for scope_id, group in enumerate(groups):
        nodes: list[Node] = []
        for idx in group:
            nodes.extend(components[idx])
        nodes.sort(key=lambda n: n.node_id)
        scopes.append(StitchScope(scope_id, nodes))
    return scopes
