"""FusionStitching baseline ([57] in the paper).

FusionStitching — the authors' earlier system — stitches with *shared
memory only* and picks fusion patterns with a two-level cost model.
AStitch's stated advances over it (Sec 7) are the **global stitching
scheme** (device-wide data reuse with in-kernel barriers) and the
search-free **adaptive thread mapping**.

Modeled as the AStitch pipeline restricted to the regional scheme: the
same stitching passes under ``AStitchConfig.regional_only()``, so a
stitch scope whose values would need global buffering shatters into one
kernel per schedule-group component instead of staying whole.  The
module is finalized under this compiler's own name with no codegen tag
(the predecessor's tuning decisions are not part of its public
identity).  The `extra_fusionstitching` bench quantifies what the
global scheme adds.
"""

from __future__ import annotations

from repro.compilers.base import Compiler
from repro.core.compiler import ASTITCH_COMPILE_SECONDS_PER_NODE
from repro.core.config import AStitchConfig
from repro.core.passes import stitching_passes
from repro.pipeline.base import Pipeline
from repro.pipeline.lowering import FinalizeModulePass, standard_tail


class FusionStitchingCompiler(Compiler):
    """Shared-memory-only stitching (the AStitch predecessor)."""

    name = "FusionStitching"

    def __init__(self):
        self.config = AStitchConfig.regional_only()

    def build_pipeline(self) -> Pipeline:
        finalize = FinalizeModulePass(
            self.name,
            seconds_per_node=ASTITCH_COMPILE_SECONDS_PER_NODE)
        return Pipeline(
            name="fusionstitching",
            passes=(*stitching_passes(self.config),
                    *standard_tail(finalize)))
