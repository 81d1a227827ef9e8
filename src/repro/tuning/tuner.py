"""Cost-model-guided launch-config autotuner.

The adaptive-mapping heuristics of Sec 3.3 are one-shot rules: they
always pack vertically down to one wave, always split to the wave cap,
always prefer the largest block.  Those rules are right when a global
barrier constrains the grid — and measurably wrong when it does not
(packing a 200-row reduce to half a wave throws away occupancy the
barrier never needed back).  The tuner replaces the rule with a search:
enumerate every legal candidate (:mod:`repro.tuning.space`), price all
of them in **one** vectorized :meth:`KernelCostModel.price_batch` pass,
and keep the minimum-latency mapping.

Three properties the rest of the pipeline relies on:

* **never worse** — the heuristic mapping is always candidate #0, so
  the per-group winner prices ≤ the heuristic under the same model (the
  compiler adds a module-level best-of guard on top for the unified
  launch);
* **deterministic** — a candidate replaces the heuristic only when it
  prices *strictly* better (ties keep the incumbent, so tied sweeps
  cost no double lowering downstream); among the strictly-better, ties
  break on :meth:`ThreadMapping.sort_key`, a total order — repeated
  runs and different enumeration orders pick the identical winner;
* **cached** — decisions persist in the content-addressed
  :class:`~repro.tuning.cache.TuningCache` keyed by group signature ×
  device, so a shape is swept once per cache lifetime, not once per
  compile.

Pricing uses *proxy* cost inputs: the group's own traffic and FP work
under the candidate's launch geometry, at the assumed register bound of
Sec 4.5 and zero shared memory (the memory planner runs after tuning;
the assume-relax-apply pass re-checks legality on the final kernel).
The proxy ranks launch geometries; the compiler's best-of guard compares
fully-lowered kernels.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import Optional

from repro.codegen.builder import node_work
from repro.codegen.mapping import RootGeometry, root_geometry
from repro.codegen.schedule import MappingKind, ThreadMapping
from repro.core.dominants import GroupInfo
from repro.gpu.costmodel import (KernelCostInputs, KernelCostModel,
                                 cost_model_for)
from repro.gpu.spec import GPUSpec
from repro.ir.ops import OpKind
from repro.tuning import space
from repro.tuning.cache import TuningCache, TuningKey, default_tuning_cache

# Sec 4.5 assume-relax-apply: candidates are priced at the assumed
# register bound; the launch configurator re-derives the real bound on
# the lowered kernel.
ASSUMED_REGISTER_BOUND = 32


@dataclasses.dataclass(frozen=True)
class GroupSignature:
    """Everything the candidate search reads from one schedule group.

    Two groups with equal signatures get — by construction — identical
    candidate sets and identical proxy prices, so the signature itself
    is the tuning cache's content address.

    Attributes:
        kind: Dominant data pattern (a :class:`MappingKind` value).
        rows: Reduction rows (1 for element-wise dominants).
        width: Reduction width (1 for element-wise dominants).
        num_elements: Elements the dominant covers.
        bytes_read: Proxy bytes the group loads from global memory.
        bytes_written: Proxy bytes the group stores.
        fp_instructions: Proxy FP work of the whole group.
        needs_barrier: Whether the enclosing kernel will hold global
            barriers (constrains candidate legality to one wave).
    """

    kind: str
    rows: int
    width: int
    num_elements: int
    bytes_read: float
    bytes_written: float
    fp_instructions: float
    needs_barrier: bool

    @property
    def geometry(self) -> RootGeometry:
        """The dominant's :func:`~repro.codegen.mapping.root_geometry`."""
        return RootGeometry(MappingKind(self.kind), self.rows, self.width,
                            self.num_elements)


@dataclasses.dataclass(frozen=True)
class TunedDecision:
    """The outcome of tuning one group signature.

    Attributes:
        mapping: The winning thread mapping.
        heuristic_mapping: What the one-shot heuristic would have used
            (always also a candidate).
        tuned_time: Modeled kernel time of the winner, seconds.
        heuristic_time: Modeled kernel time of the heuristic, seconds.
        num_candidates: Legal candidates priced for this signature.
    """

    mapping: ThreadMapping
    heuristic_mapping: ThreadMapping
    tuned_time: float
    heuristic_time: float
    num_candidates: int

    @property
    def improvement(self) -> float:
        """Fractional modeled-latency win over the heuristic (>= 0)."""
        if self.heuristic_time <= 0.0:
            return 0.0
        return (self.heuristic_time - self.tuned_time) \
            / self.heuristic_time


def signature_for_group(group: GroupInfo,
                        needs_barrier: bool) -> GroupSignature:
    """Distill one schedule group into its tuning signature.

    The proxy traffic is the group's own: every distinct external
    operand loaded once, every dominant value stored once, each node's
    FP work once — the same quantities kernel costing derives, minus
    the scheme/placement decisions that happen after tuning.
    """
    dominant = group.dominant
    kind, rows, width, elements = root_geometry(dominant)

    # One pass over the group: external operands counted once (group
    # members and scalar constants excluded), FP work accumulated.
    seen = set(group.nodes)
    bytes_read = 0.0
    fp = 0.0
    for node in group.nodes:
        fp += node_work(node)
        for operand in node.operands:
            if operand in seen:
                continue
            seen.add(operand)
            if operand.kind is OpKind.CONSTANT \
                    and operand.shape.num_elements == 1:
                continue
            bytes_read += operand.num_elements * operand.dtype.nbytes
    bytes_written = 0.0
    for out in (dominant, *group.sub_dominants):
        bytes_written += out.num_elements * out.dtype.nbytes

    return GroupSignature(
        kind=kind.value,
        rows=rows,
        width=width,
        num_elements=elements,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        fp_instructions=fp,
        needs_barrier=needs_barrier,
    )


def candidates_for(sig: GroupSignature,
                   spec: GPUSpec) -> list[ThreadMapping]:
    """The legal candidate set of one signature (heuristic first)."""
    return space.candidates(sig.geometry, spec, sig.needs_barrier)


def proxy_cost_inputs(sig: GroupSignature,
                      mapping: ThreadMapping) -> KernelCostInputs:
    """Cost-model inputs for one candidate: the group's traffic under
    the candidate's launch geometry (same atomic-round accounting as
    :func:`repro.codegen.builder.kernel_cost_inputs`)."""
    atomic_rounds = 0
    if mapping.uses_atomics:
        atomic_rounds = 1
    elif mapping.kind is MappingKind.COLUMN_REDUCE:
        atomic_rounds = 1
    return KernelCostInputs(
        grid_size=mapping.grid_size,
        block_size=mapping.block_size,
        bytes_read=sig.bytes_read,
        bytes_written=sig.bytes_written,
        fp_instructions=sig.fp_instructions,
        regs_per_thread=ASSUMED_REGISTER_BOUND,
        smem_per_block=0,
        num_atomic_rounds=atomic_rounds,
    )


class GroupTuner:
    """Tunes schedule groups against the analytical cost model.

    Args:
        spec: Target device.
        cache: Decision store; defaults to the process-wide
            :func:`default_tuning_cache`.
        cost_model: Pricing model; defaults to the shared per-spec model
            (so tuning seeds the same memo the engine prices through).
    """

    def __init__(self, spec: GPUSpec,
                 cache: Optional[TuningCache] = None,
                 cost_model: Optional[KernelCostModel] = None):
        self.spec = spec
        self.cache = cache if cache is not None else default_tuning_cache()
        self.model = cost_model if cost_model is not None \
            else cost_model_for(spec)

    def tune_signature(self, sig: GroupSignature) -> TunedDecision:
        """Tune one signature (through the cache)."""
        return self.tune_signatures([sig])[0]

    def tune_signatures(self, sigs: Sequence[GroupSignature],
                        ) -> list[TunedDecision]:
        """Tune many signatures with one batched pricing pass.

        Cache lookups run first; every uncached signature's candidate
        set is enumerated, then *all* of their candidates are priced in a single
        ``price_batch`` call — the whole sweep is one NumPy pass, not
        one model call per candidate.
        """
        decisions: dict[GroupSignature, TunedDecision] = {}
        missing: list[tuple[GroupSignature, TuningKey]] = []
        for sig in sigs:
            if sig in decisions:
                continue
            key = TuningKey(group=sig, spec=self.spec)
            cached = self.cache.get(key)
            if cached is not None:
                decisions[sig] = cached
            else:
                decisions[sig] = None  # placeholder: dedupes repeats
                missing.append((sig, key))

        if missing:
            candidate_sets = [candidates_for(sig, self.spec)
                              for sig, _ in missing]
            flat: list[KernelCostInputs] = []
            for (sig, _), cands in zip(missing, candidate_sets):
                flat.extend(proxy_cost_inputs(sig, m) for m in cands)
            durations = self.model.price_durations(flat)
            offset = 0
            for (sig, key), cands in zip(missing, candidate_sets):
                times = durations[offset:offset + len(cands)]
                offset += len(cands)
                decision = self._select(cands, times)
                decisions[sig] = decision
                self.cache.put(key, decision)
        return [decisions[sig] for sig in sigs]

    def tune_groups(self, groups: Sequence[GroupInfo],
                    needs_barrier: bool) -> dict[int, TunedDecision]:
        """Tune every schedule group of one stitch scope.

        Returns group id -> decision; groups with identical signatures
        share one sweep (and one cache entry).
        """
        sigs = [signature_for_group(group, needs_barrier)
                for group in groups]
        tuned = self.tune_signatures(sigs)
        return {group.group_id: decision
                for group, decision in zip(groups, tuned)}

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _select(cands: Sequence[ThreadMapping],
                times: Sequence[float]) -> TunedDecision:
        heuristic_time = times[0]
        best_index = min(range(len(cands)),
                         key=lambda i: (times[i], cands[i].sort_key()))
        if heuristic_time <= times[best_index]:
            # Incumbent rule: deviating from the heuristic must pay —
            # on exact ties keep candidate #0, so tied sweeps never
            # force the compiler's double-lowering best-of pass.
            best_index = 0
        return TunedDecision(
            mapping=cands[best_index],
            heuristic_mapping=cands[0],
            tuned_time=times[best_index],
            heuristic_time=heuristic_time,
            num_candidates=len(cands),
        )
