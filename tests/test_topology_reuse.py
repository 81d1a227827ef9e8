"""Per-topology reuse of the shape-invariant AStitch phases.

Stitch-scope identification and dominant analysis are memoized by the
graph's topology fingerprint (``repro.core.passes.TOPOLOGY_MEMO``), so
every batch size of a workload after the first rebinds the stored
scopes and analyses instead of recomputing them.  A reused result must
be indistinguishable from a fresh compile: same pricing signature, same
step list (as the golden test compares them) and same pass details.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import reset_caches
from repro.core import AStitchCompiler
from repro.core.dominants import analyze_scope
from repro.core.passes import TOPOLOGY_MEMO
from repro.core.scope import identify_stitch_scopes
from repro.ir.builder import GraphBuilder
from repro.ir.fingerprint import topology_fingerprint
from repro.runtime.plan import module_pricing_signature
from repro.workloads import build

BATCHES = (1, 2, 4, 48)


def _capture(module) -> dict:
    """What the golden test pins, plus every pass's detail."""
    return {
        "pricing_signature": module_pricing_signature(module),
        "steps": [f"{type(s).__name__}:{s.name}" for s in module.steps],
        "details": [(r.pass_name, r.detail) for r in module.pass_reports],
    }


def _compile(graph) -> tuple[dict, bool]:
    """Compile ``graph``; also whether the topology memo served it."""
    hits = TOPOLOGY_MEMO.stats.hits
    module = AStitchCompiler().compile(graph)
    return _capture(module), TOPOLOGY_MEMO.stats.hits > hits


def _fresh(graph) -> dict:
    reset_caches()
    return _compile(graph)[0]


@pytest.mark.parametrize("workload", ["CRNN", "ASR", "BERT", "DIEN"])
def test_reused_modules_equal_fresh_compiles(workload, fresh_caches):
    graphs = {batch: build(workload, batch=batch) for batch in BATCHES}
    warm, seen = {}, set()
    for batch, graph in graphs.items():
        warm[batch], hit = _compile(graph)
        topology = topology_fingerprint(graph)
        assert hit == (topology in seen), batch
        seen.add(topology)
    for batch, graph in graphs.items():
        assert _fresh(graph) == warm[batch], batch


def test_known_key_changes_at_batch_one():
    def key(workload, batch):
        return topology_fingerprint(build(workload, batch=batch))

    # One <16384> -> <1,16384> broadcast stops amplifying at batch 1.
    assert key("BERT", 1) != key("BERT", 2)
    assert key("BERT", 2) == key("BERT", 4) == key("BERT", 48)
    assert key("ASR", 1) == key("ASR", 48)


def _two_broadcasts(left: int, right: int):
    """Two merged element-wise outputs of ``n * left`` and ``right * n``
    elements: which one is larger depends on the sizes alone."""
    n = 4
    b = GraphBuilder("two-broadcasts")
    shared = b.negate(b.parameter("p", (n,)))
    b.output(b.negate(b.broadcast(shared, (n, left), dims=(0,))))
    b.output(b.negate(b.broadcast(shared, (right, n), dims=(1,))))
    return b.build()


def _dominants(graph) -> list[int]:
    scope = identify_stitch_scopes(graph)[0]
    return [group.dominant.node_id
            for group in analyze_scope(graph, scope.nodes).groups]


def test_guard_rejects_a_flipped_dominant_weight(fresh_caches):
    first, flipped = _two_broadcasts(2, 3), _two_broadcasts(3, 2)
    assert topology_fingerprint(first) == topology_fingerprint(flipped)
    # The flip changes the final dominant, so reusing it would be wrong.
    assert _dominants(first) != _dominants(flipped)

    _compile(first)
    result, hit = _compile(flipped)
    assert not hit
    assert result == _fresh(flipped)


def test_guard_passes_when_the_order_holds(fresh_caches):
    _compile(_two_broadcasts(2, 3))
    result, hit = _compile(_two_broadcasts(2, 5))
    assert hit
    assert result == _fresh(_two_broadcasts(2, 5))


UNARY = ["tanh", "exp", "negate", "relu"]
BINARY = ["add", "multiply", "maximum"]


@st.composite
def recipes(draw) -> list[tuple]:
    """A random graph recipe: ops on earlier values by index, built at
    any row count by :func:`_cook`."""
    steps = []
    for _ in range(draw(st.integers(3, 14))):
        pool = 3 + len(steps)
        choice = draw(st.integers(0, 10))
        if choice <= 3:  # on a vector, the value keeps its shape
            steps.append(("unary", draw(st.sampled_from(UNARY)),
                          draw(st.integers(0, pool - 1))))
        elif choice <= 6:
            steps.append(("binary", draw(st.sampled_from(BINARY)),
                          draw(st.integers(0, pool - 1)),
                          draw(st.integers(0, pool - 1))))
        elif choice <= 8:
            steps.append(("reduce", draw(st.sampled_from([0, 1])),
                          draw(st.integers(0, pool - 1))))
        elif choice == 9:
            steps.append(("dot", draw(st.integers(0, pool - 1))))
        else:
            steps.append(("widen", draw(st.integers(0, pool - 1))))
    return steps


# The fixed row count of a widened value: a <WIDE, cols> value outweighs
# a <rows, cols> one at small row counts only, so the two can swap as
# the final dominant of one group between two sizes of a recipe.
WIDE = 6


def _cook(recipe: list[tuple], rows: int, cols: int, outputs: int):
    """Build ``recipe`` at ``rows``.  The values are <rows, cols>
    tensors, the <rows> and <cols> vectors reduces leave, and
    <WIDE, cols> tensors."""
    b = GraphBuilder("recipe")
    # Each value with its kind: None for <rows, cols>, 0 for a <rows>
    # vector, 1 for a <cols> one, "wide" for <WIDE, cols>.
    pool = [(b.parameter("x0", (rows, cols)), None),
            (b.parameter("x1", (rows, cols)), None),
            (b.parameter("v", (cols,)), 1)]

    def as_2d(index):
        node, kind = pool[index]
        if kind is None:
            return node
        if kind == "wide":
            node, kind = b.reduce_sum(node, axes=(0,)), 1
        return b.broadcast(node, (rows, cols), dims=(kind,))

    for i, step in enumerate(recipe):
        if step[0] == "unary":
            node, axis = pool[step[2]]
            pool.append((getattr(b, step[1])(node), axis))
        elif step[0] == "binary":
            pool.append((getattr(b, step[1])(as_2d(step[2]),
                                             as_2d(step[3])), None))
        elif step[0] == "reduce":
            reduced = b.reduce_sum(as_2d(step[2]), axes=(step[1],))
            pool.append((reduced, 1 - step[1]))
        elif step[0] == "dot":
            pool.append((b.dot(as_2d(step[1]),
                               b.parameter(f"w{i}", (cols, cols))), None))
        else:
            node, kind = pool[step[1]]
            if kind != 1:
                node = b.reduce_sum(as_2d(step[1]), axes=(0,))
            pool.append((b.broadcast(node, (WIDE, cols), dims=(1,)),
                         "wide"))
    for node, _ in pool[-outputs:]:
        b.output(node)
    return b.build()


@settings(max_examples=100, deadline=None)
@given(recipe=recipes(), cols=st.integers(2, 12),
       small=st.integers(1, 6), large=st.integers(13, 40),
       outputs=st.integers(1, 3))
def test_small_after_large_equals_fresh(recipe, cols, small, large,
                                        outputs):
    """Metamorphic: compiling a recipe at a large row count first must
    not change what its small-row graph compiles to."""
    reset_caches()
    _compile(_cook(recipe, large, cols, outputs))
    reused, _ = _compile(_cook(recipe, small, cols, outputs))
    assert reused == _fresh(_cook(recipe, small, cols, outputs))
