"""Inter-pass IR validation.

:func:`check_graph` runs :meth:`Graph.validate
<repro.ir.graph.Graph.validate>` (:func:`repro.ir.verify.verify_graph`)
and raises a :class:`~repro.compilers.base.CompilationError` carrying
the pass context; the :class:`~repro.pipeline.manager.PassManager` runs
it between passes when validation is on.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.graph import Graph


def check_graph(graph: Graph, *,
                pass_name: Optional[str] = None) -> None:
    """Raise a context-carrying error when ``graph`` breaks invariants.

    Raises:
        CompilationError: Listing every violation, annotated with the
            pass after which the graph went bad.
    """
    try:
        graph.validate()
    except ValueError as error:
        from repro.compilers.base import CompilationError
        raise CompilationError(str(error), pass_name=pass_name) from None
