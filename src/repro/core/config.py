"""AStitch configuration and ablation presets.

One flag per technique the paper ablates in Table 4 (CRNN case study),
plus the stitching variants and the launch search:

* ``ATM`` — adaptive thread mapping alone, applied on XLA's fusion scopes;
* ``HDM`` — exhaustive stitching with hierarchical data management, but
  without dominant merging;
* full AStitch — everything on.

Adaptive thread mapping (Sec 3.3) and the device's largest block
(Sec 4.5) are not switches: every configuration uses both.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class AStitchConfig:
    """Feature switches for the AStitch pipeline.

    Attributes:
        exhaustive_stitching: Sec 4.1 scope identification — stitch whole
            memory-intensive subgraphs into single kernels; when off, fall
            back to XLA's fusion scopes (this is the ``ATM`` ablation).
        dominant_merging: Sec 4.3 step 1 merging of candidate dominants,
            which enables operator-level data reuse; when off, every
            candidate keeps its own group (the ``HDM`` ablation).
        remote_stitching: Sec 4.1 merging of *disconnected* stitch ops into
            one kernel.
        enable_global_scheme: Allow the global stitching scheme (device-
            wide barriers inside kernels).  When off, every schedule group
            becomes its own kernel — approximating the shared-memory-only
            FusionStitching predecessor the related work cites.
        tune: Autotune per-group launch configurations against the GPU
            cost model (:mod:`repro.tuning`) instead of trusting the
            one-shot heuristics; the heuristic lowering is kept as a
            guard, so tuning never worsens modeled latency.  When off,
            dominants get the plain Sec 3.3 heuristic mappings (the
            ablation / fallback path).
    """

    exhaustive_stitching: bool = True
    dominant_merging: bool = True
    remote_stitching: bool = True
    enable_global_scheme: bool = True
    tune: bool = True

    @staticmethod
    def full() -> "AStitchConfig":
        return AStitchConfig()

    @staticmethod
    def adaptive_mapping_only() -> "AStitchConfig":
        """Table 4's ``ATM``: adaptive mapping on XLA fusion scopes."""
        return AStitchConfig(exhaustive_stitching=False,
                             dominant_merging=False,
                             remote_stitching=False)

    @staticmethod
    def no_dominant_merging() -> "AStitchConfig":
        """Table 4's ``HDM``: stitching without dominant merging."""
        return AStitchConfig(dominant_merging=False)

    @staticmethod
    def regional_only() -> "AStitchConfig":
        """Extra ablation: no global scheme (kernel-per-group stitching)."""
        return AStitchConfig(enable_global_scheme=False)

    @staticmethod
    def heuristic_mappings() -> "AStitchConfig":
        """Tuning ablation: the one-shot Sec 3.3 heuristics, no search."""
        return AStitchConfig(tune=False)

    @property
    def tuning_enabled(self) -> bool:
        """Whether the launch search runs: it searches the schedule
        groups of stitch scopes, so only with exhaustive stitching."""
        return self.tune and self.exhaustive_stitching
