"""The pass/pipeline abstraction every compiler in this repository runs on.

Section 4 of the paper describes compilation as an explicit sequence of
phases — scope identification, dominant identification and merging,
schedule propagation, block-locality checking, memory-usage planning and
resource-aware launch configuration.  This package makes that sequence a
first-class object: a **pipeline** is a named, ordered tuple of
**passes**, each a small stage that either rewrites the graph
(``kind == "graph"``) or lowers it toward a compiled module
(``kind == "lower"`` / ``"finalize"``).  The
:class:`~repro.pipeline.manager.PassManager` runs a pipeline with
per-pass instrumentation and optional inter-pass IR validation.

Passes communicate through a :class:`CompileState`: the current graph,
the kernels and library nodes formed so far, the scheduled step list and
finally the module.  Compiler-specific intermediates (stitch scopes,
scope analyses, ...) travel in ``state.scratch`` so each stage stays
individually runnable and testable.

Every pass advertises a :meth:`Pass.signature` covering its name,
version and behaviour-relevant parameters; the pipeline
:meth:`Pipeline.fingerprint` digests them all.  That fingerprint is
folded into the compile-cache and plan-cache keys, so recomposing a
pipeline invalidates cached artifacts instead of aliasing them.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
from typing import Any, Optional

from repro.codegen.kernel import Kernel, Step
from repro.gpu.spec import GPUSpec
from repro.ir.graph import Graph, Node


@dataclasses.dataclass
class CompileState:
    """Mutable state threaded through one pipeline run.

    Attributes:
        graph: The (possibly rewritten) graph being compiled.
        spec: Target device model.
        kernels: Kernels formed so far, in formation order.
        library_nodes: Compute-intensive nodes to dispatch as library
            calls.
        steps: The scheduled step list (``None`` until scheduling runs).
        module: The finished module (``None`` until finalization runs).
        scratch: Compiler-specific intermediates keyed by pass family
            (e.g. ``"astitch"`` for the stitching phases).
    """

    graph: Graph
    spec: GPUSpec
    kernels: list[Kernel] = dataclasses.field(default_factory=list)
    library_nodes: list[Node] = dataclasses.field(default_factory=list)
    steps: Optional[list[Step]] = None
    module: Any = None
    scratch: dict[str, Any] = dataclasses.field(default_factory=dict)


class Pass(abc.ABC):
    """One compilation stage.

    Attributes:
        name: Stable identifier (kebab-case); used in reports, error
            context and the pipeline fingerprint.
        kind: ``"graph"`` for graph-to-graph rewrites (validated between
            passes when validation is on), ``"lower"`` for stages that
            form kernels/steps, ``"finalize"`` for the stage that
            produces the module.
        version: Bump when a pass's behaviour changes without a rename —
            the fingerprint (and thus every cached artifact) follows.
    """

    name: str = "pass"
    kind: str = "lower"
    version: int = 1

    def params(self) -> str:
        """Behaviour-relevant parameters, rendered stably ("" if none)."""
        return ""

    def signature(self) -> str:
        """The pass's contribution to the pipeline fingerprint."""
        params = self.params()
        base = f"{self.name}@v{self.version}"
        return f"{base}({params})" if params else base

    @abc.abstractmethod
    def run(self, state: CompileState) -> Optional[dict[str, Any]]:
        """Execute the stage, mutating ``state``.

        Returns:
            An optional detail mapping folded into this pass's
            :class:`PassReport` (rewrite counts, scope counts, ...).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.signature()!r})"


class GraphPass(Pass):
    """Adapter turning a pure ``Graph -> (Graph, changes)`` function
    into a pipeline pass."""

    kind = "graph"

    def __init__(self, name: str, fn):
        self.name = name
        self._fn = fn

    def run(self, state: CompileState) -> dict[str, Any]:
        state.graph, changes = self._fn(state.graph)
        return {"changes": changes}


@dataclasses.dataclass(frozen=True)
class PassReport:
    """Instrumentation record of one pass execution.

    Attributes:
        pass_name: Which pass ran.
        kind: The pass's kind (``graph`` / ``lower`` / ``finalize``).
        seconds: Wall-clock time of the pass.
        nodes_before / nodes_after: IR node counts around the pass.
        kernels_before / kernels_after: Formed-kernel counts around it.
        steps_before / steps_after: Scheduled-step counts around it
            (0 while the step list does not exist yet).
        detail: Pass-specific counters (rewrites applied, scopes found,
            scopes tuned, ...).
    """

    pass_name: str
    kind: str
    seconds: float
    nodes_before: int
    nodes_after: int
    kernels_before: int
    kernels_after: int
    steps_before: int
    steps_after: int
    detail: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def node_delta(self) -> int:
        return self.nodes_after - self.nodes_before

    @property
    def kernel_delta(self) -> int:
        return self.kernels_after - self.kernels_before

    @property
    def step_delta(self) -> int:
        return self.steps_after - self.steps_before


@dataclasses.dataclass(frozen=True)
class Pipeline:
    """A named, ordered pass sequence — one compiler's declared plan.

    Attributes:
        name: Display name (usually the compiler's).
        passes: The stages, in execution order.
    """

    name: str
    passes: tuple[Pass, ...]

    def fingerprint(self) -> str:
        """Stable digest of the pipeline composition.

        Covers the pipeline name plus every pass's signature (name,
        version, parameters) in order — reordering, inserting, removing
        or reconfiguring a pass changes it.
        """
        text = "|".join([self.name,
                         *[p.signature() for p in self.passes]])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> list[tuple[str, str, str]]:
        """(name, kind, signature) rows, for listings."""
        return [(p.name, p.kind, p.signature()) for p in self.passes]

    def __len__(self) -> int:
        return len(self.passes)
