"""The AStitch compiler (Sec 4).

The compiler is a declared pipeline over the discrete phase passes of
:mod:`repro.core.passes`:

1. stitching-scope identification + remote stitching
   (:mod:`repro.core.scope`);
2. dominant identification, merging, op grouping
   (:mod:`repro.core.dominants`);
3. adaptive thread mapping + schedule propagation under a unified launch
   (:mod:`repro.core.adaptive`);
4. optional launch tuning with a lowered best-of guard
   (:mod:`repro.tuning`);
5-7. one lowering pass: scheme finalization via block-locality
   (:mod:`repro.core.locality`), shared-memory budgeting with
   regional->global demotion and global scratch planning
   (:mod:`repro.core.memplan`), assume-relax-apply launch configuration
   (:mod:`repro.core.launch`) and stitch-op emission.

Every stitch scope becomes one GPU kernel with in-kernel global barriers
between schedule-group stages — the *stitch op* of the paper.  The
shared lowering tail (library dispatch, step scheduling, memcpy
planning, module assembly) comes from :mod:`repro.pipeline.lowering`.
"""

from __future__ import annotations

from repro.compilers.base import Compiler
from repro.core.config import AStitchConfig
from repro.core.passes import stitching_passes
from repro.pipeline.base import Pipeline
from repro.pipeline.lowering import FinalizeModulePass, standard_tail

# Sec 6.4.1: ~90 s of JIT work on 5,000-10,000-node graphs.
ASTITCH_COMPILE_SECONDS_PER_NODE = 90.0 / 7500.0

# The codegen tag of a tuned module.  It is folded into every module's
# pricing signature, so it keeps the rendering of the adaptive-mapping
# and block-ceiling switches the config once had (both are now fixed):
# another string would change every tuned AStitch pricing signature.
TUNED_CODEGEN_TAG = "tune:atm=1|block=1024"


class AStitchCompiler(Compiler):
    """Operator-stitching JIT compiler."""

    name = "AStitch"

    def __init__(self, config: AStitchConfig | None = None):
        self.config = config or AStitchConfig.full()
        if not self.config.exhaustive_stitching:
            self.name = "AStitch-ATM"
        elif not self.config.dominant_merging:
            self.name = "AStitch-HDM"
        elif not self.config.enable_global_scheme:
            self.name = "AStitch-regional"
        elif not self.config.tune:
            self.name = "AStitch-heuristic"

    def build_pipeline(self) -> Pipeline:
        tag = TUNED_CODEGEN_TAG if self.config.tuning_enabled else ""
        finalize = FinalizeModulePass(
            self.name,
            seconds_per_node=ASTITCH_COMPILE_SECONDS_PER_NODE,
            codegen_tag=tag)
        return Pipeline(
            name=self.name.lower(),
            passes=(*stitching_passes(self.config),
                    *standard_tail(finalize)))
