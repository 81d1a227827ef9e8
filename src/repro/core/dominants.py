"""Dominant identification, merging, and op grouping (Sec 4.3, step 1).

Inside a stitch scope only a few *dominant* operators need a thread
mapping decided; everything else follows by propagation (observation A).
The candidates are the ops that cannot be local-scheme (observation B):

* reduces,
* expensive element-wise ops followed by an amplifying broadcast,
* stitch-op outputs (values leaving the kernel).

*Dominant merging* then unifies candidates connected through local-scheme
ops: one candidate (preferring a reduce) becomes the group's final
dominant, the rest become sub-dominants sharing its propagated schedule —
which is what makes operator-level data reuse possible (a value consumed
by two merged groups is loaded once).

The analysis reads shapes in three places only:

* whether a BROADCAST amplifies (a heavy producer feeding one becomes a
  candidate, and merging does not flow through a candidate's one);
* whether a CONSTANT is a scalar (scalars do not count as group inputs);
* :func:`dominant_weight`, when two merged candidates compete.

:func:`~repro.ir.fingerprint.topology_fingerprint` keys the first two,
so the pipeline reuses analyses (:func:`pack_analyses`) across every
graph of one topology (``core.passes.TOPOLOGY_MEMO``).  The third is guarded:
:func:`analyze_scope` records each weight comparison, and a reuse
re-checks them with :func:`guards_hold`.
"""

from __future__ import annotations

import dataclasses
from array import array
from itertools import accumulate, islice
from typing import Optional, Sequence

from repro.ir.graph import Graph, Node
from repro.ir.ops import OpKind
from repro.ir import patterns

# Module-level aliases of the kinds: under Python 3.11 an ``OpKind.X``
# read runs ``EnumType``'s attribute hook (~190 ns, ~15 ns for an
# alias), and the analysis reads one or more per scope node.
_REDUCE, _BROADCAST, _CONSTANT = (OpKind.REDUCE, OpKind.BROADCAST,
                                  OpKind.CONSTANT)


@dataclasses.dataclass
class GroupInfo:
    """One schedule group: a final dominant plus its local neighborhood."""

    group_id: int
    dominant: Node
    sub_dominants: tuple[Node, ...]
    nodes: list[Node]

    def __repr__(self) -> str:
        return (f"Group({self.group_id}, dominant={self.dominant.name}, "
                f"nodes={len(self.nodes)})")


@dataclasses.dataclass
class ScopeAnalysis:
    """Everything downstream passes need about a scope's structure.

    Attributes:
        groups: Schedule groups, in topological order of their dominants.
        group_of: Node -> group id (each scope node belongs to >= 1 group;
            this maps to its *home* group).
        duplication: Node -> number of groups that compute it (only > 1
            when dominant merging is disabled and a local node feeds
            several groups).
        input_read_groups: External input -> number of distinct groups
            loading it (> 1 means the value is loaded once per schedule,
            the waste dominant merging removes).
        cross_group_values: Candidate values with at least one consumer in
            a different group (these need regional/global buffering).
        group_stage: Group id -> topological level in the group DAG.
        stages: Number of topological levels of the group DAG; a stitched
            kernel needs ``stages - 1`` device-wide barriers.
    """

    groups: list[GroupInfo]
    group_of: dict[Node, int]
    duplication: dict[Node, float]
    input_read_groups: dict[Node, int]
    cross_group_values: list[Node]
    group_stage: dict[int, int]
    stages: int


def dominant_candidates(graph: Graph, scope_nodes: list[Node]) -> list[Node]:
    """Observation-B candidates plus stitch-op outputs."""
    scope_set = set(scope_nodes)
    graph_outputs = set(graph.outputs)
    candidates = []
    for node in scope_nodes:
        is_output = (node in graph_outputs
                     or any(u not in scope_set for u in graph.users(node))
                     or not graph.users(node))
        if (node.kind is _REDUCE
                or patterns.is_heavy_followed_by_broadcast(graph, node)
                or is_output):
            candidates.append(node)
    return candidates


def dominant_weight(node: Node) -> int:
    """The size a merged candidate competes with for the final dominant.

    A reduce weighs its input's element count, any other candidate its
    own.  This is the one shape read of dominant analysis that the
    topology fingerprint does not key: :func:`analyze_scope` records
    every comparison of two weights, and a reuse re-checks them
    (:func:`guards_hold`).
    """
    if node.kind is _REDUCE:
        return node.operands[0].num_elements
    return node.num_elements


def _prefer_dominant(a: Node, b: Node,
                     compared: Optional[list] = None) -> Node:
    """Pick the final dominant of two merged candidates.

    Reduces win over non-reduces (their schedule is the expensive one to
    get right); ties break toward the larger input, then the earlier node.
    Each weight comparison made is appended to ``compared`` as
    ``(a, b, sign of weight(a) - weight(b))``.
    """
    a_reduce = a.kind is _REDUCE
    b_reduce = b.kind is _REDUCE
    if a_reduce != b_reduce:
        return a if a_reduce else b
    weight_a, weight_b = dominant_weight(a), dominant_weight(b)
    sign = (weight_a > weight_b) - (weight_a < weight_b)
    if compared is not None:
        compared.append((a, b, sign))
    if sign:
        return a if sign > 0 else b
    return a if a.node_id < b.node_id else b


def analyze_scope(graph: Graph, scope_nodes: list[Node],
                  dominant_merging: bool = True,
                  compared: Optional[list] = None) -> ScopeAnalysis:
    """Run dominant identification + grouping for one stitch scope.

    Args:
        compared: Collects every dominant-weight comparison made (see
            :func:`_prefer_dominant`), the guards of a reused analysis.
    """
    scope_set = set(scope_nodes)
    candidates = dominant_candidates(graph, scope_nodes)
    candidate_set = set(candidates)
    locals_ = [n for n in scope_nodes if n not in candidate_set]

    # Undirected adjacency restricted to the scope.  A candidate's output
    # is a buffered boundary, so schedule propagation — and therefore
    # merging connectivity — must not flow through a candidate's
    # *amplifying broadcast* output edge: past that edge the consumer's
    # schedule can no longer be derived one-to-one from the producer's.
    neighbors: dict[Node, list[Node]] = {n: [] for n in scope_nodes}
    for node in scope_nodes:
        for operand in node.operands:
            if operand not in scope_set:
                continue
            cut = (operand in candidate_set
                   and node.kind is _BROADCAST
                   and node.num_elements > operand.num_elements)
            if cut:
                continue
            neighbors[node].append(operand)
            neighbors[operand].append(node)

    # Connected components of the local (non-candidate) nodes.
    local_cc: dict[Node, int] = {}
    cc_count = 0
    for node in locals_:
        if node in local_cc:
            continue
        stack = [node]
        local_cc[node] = cc_count
        while stack:
            current = stack.pop()
            for nxt in neighbors[current]:
                if nxt in candidate_set or nxt in local_cc:
                    continue
                local_cc[nxt] = cc_count
                stack.append(nxt)
        cc_count += 1

    # Union-find over candidates.
    parent: dict[Node, Node] = {c: c for c in candidates}

    def find(x: Node) -> Node:
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: Node, b: Node) -> None:
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[ra] = rb

    if dominant_merging:
        # Candidates touching the same local component merge; directly
        # adjacent candidates merge too (a zero-length local path).
        cc_candidates: dict[int, list[Node]] = {}
        for node in locals_:
            cc = local_cc[node]
            for nxt in neighbors[node]:
                if nxt in candidate_set:
                    cc_candidates.setdefault(cc, []).append(nxt)
        for adjacent in cc_candidates.values():
            for other in adjacent[1:]:
                union(adjacent[0], other)
        for cand in candidates:
            for nxt in neighbors[cand]:
                if nxt in candidate_set:
                    union(cand, nxt)

    # Classes -> final dominants.
    classes: dict[Node, list[Node]] = {}
    for cand in candidates:
        classes.setdefault(find(cand), []).append(cand)

    group_infos: list[GroupInfo] = []
    group_of: dict[Node, int] = {}
    class_group: dict[Node, int] = {}
    for members in classes.values():
        dominant = members[0]
        for other in members[1:]:
            dominant = _prefer_dominant(dominant, other, compared)
        subs = tuple(sorted((m for m in members if m is not dominant),
                            key=lambda n: n.node_id))
        gid = len(group_infos)
        group_infos.append(GroupInfo(gid, dominant, subs, list(members)))
        for member in members:
            group_of[member] = gid
            class_group[find(member)] = gid

    # Assign local nodes.  With merging, a local component's adjacent
    # candidates all share one class, so membership is unambiguous.
    # Without merging, a local node is computed by every group it feeds.
    duplication: dict[Node, float] = {}
    if dominant_merging:
        cc_group: dict[int, int] = {}
        for node in locals_:
            cc = local_cc[node]
            if cc in cc_group:
                continue
            for nxt in neighbors[node]:
                if nxt in candidate_set:
                    cc_group[cc] = group_of[nxt]
                    break
        # Components whose first node had no candidate neighbor: scan all.
        for node in locals_:
            cc = local_cc[node]
            if cc not in cc_group:
                for nxt in neighbors[node]:
                    if nxt in candidate_set:
                        cc_group[cc] = group_of[nxt]
                        break
        for node in locals_:
            gid = cc_group.get(local_cc[node], 0)
            group_of[node] = gid
            group_infos[gid].nodes.append(node)
    else:
        downstream_groups = _downstream_candidate_groups(
            scope_nodes, neighbors, candidate_set, group_of)
        for node in locals_:
            gids = downstream_groups.get(node) or {0}
            home = min(gids)
            group_of[node] = home
            for gid in sorted(gids):
                group_infos[gid].nodes.append(node)
            duplication[node] = float(len(gids))

    # External inputs read by several groups.  Use full membership — a
    # local node duplicated into two groups loads its inputs in both.
    membership: dict[Node, set[int]] = {}
    for group in group_infos:
        for node in group.nodes:
            membership.setdefault(node, set()).add(group.group_id)
    reader_groups: dict[Node, set[int]] = {}
    for node in scope_nodes:
        for operand in node.operands:
            if operand in scope_set:
                continue
            if operand.kind is _CONSTANT \
                    and operand.shape.num_elements == 1:
                continue
            reader_groups.setdefault(operand, set()).update(
                membership.get(node, {group_of[node]}))
    input_read_groups = {op: len(gids)
                         for op, gids in reader_groups.items()}

    # Candidate values consumed by another group inside the scope.
    cross_group_values = []
    for cand in candidates:
        gid = group_of[cand]
        for user in graph.users(cand):
            if user in scope_set and group_of[user] != gid:
                cross_group_values.append(cand)
                break

    group_stage = _group_stages(graph, scope_set, group_of,
                                len(group_infos))
    stages = max(group_stage.values(), default=0) + 1 if group_stage else 1

    return ScopeAnalysis(
        groups=group_infos,
        group_of=group_of,
        duplication=duplication,
        input_read_groups=input_read_groups,
        cross_group_values=cross_group_values,
        group_stage=group_stage,
        stages=stages,
    )


def _downstream_candidate_groups(scope_nodes, neighbors, candidate_set,
                                 group_of) -> dict[Node, set[int]]:
    """For each local node, the groups of candidates it feeds (directly or
    through local nodes).  Used only when merging is disabled."""
    result: dict[Node, set[int]] = {}
    for node in reversed(scope_nodes):
        if node in candidate_set:
            continue
        gids: set[int] = set()
        # Forward edges only: users appear later in scope order.
        for user in neighbors[node]:
            if user.node_id <= node.node_id:
                continue
            if node not in user.operands:
                continue
            if user in candidate_set:
                gids.add(group_of[user])
            else:
                gids |= result.get(user, set())
        result[node] = gids
    return result


def _group_stages(graph: Graph, scope_set: set[Node],
                  group_of: dict[Node, int],
                  num_groups: int) -> dict[int, int]:
    """Topological level per group (barrier count = max level).

    The group DAG is tiny, so an iterative fixed-point relaxation is
    sufficient (and safe should merging ever leave a residual cycle).
    """
    level = {g: 0 for g in range(num_groups)}
    if num_groups <= 1:
        return level
    edges: dict[int, set[int]] = {g: set() for g in range(num_groups)}
    for node in scope_set:
        src = group_of[node]
        for user in graph.users(node):
            if user in scope_set and group_of[user] != src:
                edges[src].add(group_of[user])
    cap = num_groups - 1
    for _ in range(num_groups):
        changed = False
        for src, dsts in edges.items():
            for dst in dsts:
                bumped = min(level[src] + 1, cap)
                if level[dst] < bumped:
                    level[dst] = bumped
                    changed = True
        if not changed:
            break
    return level


# -- reuse across shapes -------------------------------------------------------


def pack_analyses(analyses: list[ScopeAnalysis], position: dict[Node, int],
                  ) -> tuple[array, array, array]:
    """``analyses`` with every node written as its position
    (``position``: node -> index in ``graph.nodes``, or any other
    int per node, such as the scope-local refs of a scope class key).

    Returns three flat int arrays, whatever the number of scopes and
    groups: the positions of every node sequence back to back, each
    sequence's length, and every other value in write order (a mapping's
    values follow its keys' sequence, one per key).  Duplication factors
    are group counts, so they are stored as ints.
    :func:`unpack_analyses` reads them back onto the nodes of any graph
    with the same topology fingerprint.
    """
    positions, lengths, values = array("i"), array("i"), array("i")

    def write_nodes(nodes) -> None:
        lengths.append(len(nodes))
        positions.extend([position[node] for node in nodes])

    for analysis in analyses:
        write_nodes([group.dominant for group in analysis.groups])
        for group in analysis.groups:
            write_nodes(group.sub_dominants)
            write_nodes(group.nodes)
        for mapping in (analysis.group_of, analysis.duplication,
                        analysis.input_read_groups):
            write_nodes(mapping)
            values.extend([int(value) for value in mapping.values()])
        write_nodes(analysis.cross_group_values)
        values.extend(analysis.group_stage.values())  # keys 0, 1, ...
        values.append(analysis.stages)
    return positions, lengths, values


def unpack_analyses(packed: tuple[array, array, array],
                    nodes: Sequence[Node]) -> list[ScopeAnalysis]:
    """The analyses :func:`pack_analyses` packed, on ``nodes`` (a
    graph's ``nodes``).  Every list and dict keeps its order: group ids,
    kernel names and step order follow them."""
    positions, lengths, values = packed
    mapped = [nodes[i] for i in positions]
    offsets = list(accumulate(lengths, initial=0))
    sequences = iter([mapped[start:end] for start, end
                      in zip(offsets, offsets[1:])])
    values = iter(values)

    def mapping(keys: list[Node]) -> dict:
        return dict(zip(keys, islice(values, len(keys))))

    analyses = []
    for dominants in sequences:  # each analysis starts with its dominants
        groups = [GroupInfo(gid, dominant, tuple(next(sequences)),
                            next(sequences))
                  for gid, dominant in enumerate(dominants)]
        group_of = mapping(next(sequences))
        duplication = {node: float(count) for node, count
                       in mapping(next(sequences)).items()}
        input_read_groups = mapping(next(sequences))
        cross_group_values = next(sequences)
        analyses.append(ScopeAnalysis(
            groups=groups,
            group_of=group_of,
            duplication=duplication,
            input_read_groups=input_read_groups,
            cross_group_values=cross_group_values,
            group_stage=dict(enumerate(islice(values, len(groups)))),
            stages=next(values)))
    return analyses


def pack_guards(compared: list, position: dict[Node, int]) -> array:
    """The comparisons ``analyze_scope`` collected, as flat
    ``(position a, position b, sign)`` triples."""
    guards = array("i")
    for a, b, sign in compared:
        guards.extend((position[a], position[b], sign))
    return guards


def guards_hold(guards: array, nodes: Sequence[Node]) -> bool:
    """Whether every recorded dominant-weight comparison comes out the
    same on ``nodes``: then a reused analysis picks the same dominants
    as a fresh one."""
    for i in range(0, len(guards), 3):
        a = dominant_weight(nodes[guards[i]])
        b = dominant_weight(nodes[guards[i + 1]])
        if (a > b) - (a < b) != guards[i + 2]:
            return False
    return True
