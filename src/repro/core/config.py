"""AStitch configuration and ablation presets.

The flags correspond one-to-one to the techniques the paper ablates in
Table 4 (CRNN case study):

* ``ATM`` — adaptive thread mapping alone, applied on XLA's fusion scopes;
* ``HDM`` — exhaustive stitching with hierarchical data management, but
  without dominant merging;
* full AStitch — everything on.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class AStitchConfig:
    """Feature switches for the AStitch pipeline.

    Attributes:
        adaptive_thread_mapping: Sec 3.3 task packing/splitting; when off,
            dominants get the baselines' naive mappings.
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
        max_block_size: Upper bound on thread-block size (Sec 4.5 prefers
            the CUDA maximum to minimize per-wave block count).
    """

    adaptive_thread_mapping: bool = True
    exhaustive_stitching: bool = True
    dominant_merging: bool = True
    remote_stitching: bool = True
    enable_global_scheme: bool = True
    tune: bool = True
    max_block_size: int = 1024

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
        """Whether the launch search runs: it searches the adaptive
        design space, so only on the adaptive-mapping, full-stitching
        path."""
        return (self.tune and self.adaptive_thread_mapping
                and self.exhaustive_stitching)

    def tuning_tag(self) -> str:
        """Rendering of the tuning-relevant switches, used in tuning-cache
        keys so ablation configs can never alias each other's decisions."""
        return (f"atm={int(self.adaptive_thread_mapping)}"
                f"|block={self.max_block_size}")
