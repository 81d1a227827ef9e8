"""Cost-model-guided launch-config autotuner.

The adaptive-mapping heuristics of Sec 3.3 are one-shot rules: they
always pack vertically down to one wave, always split to the wave cap,
always prefer the largest block.  Those rules are right when a global
barrier constrains the grid — and measurably wrong when it does not
(packing a 200-row reduce to half a wave throws away occupancy the
barrier never needed back).  The tuner replaces the rule with a search:
enumerate every legal candidate as integer columns
(:mod:`repro.tuning.space`), price all uncached signatures' columns in
**one** memo-free :meth:`KernelCostModel.launch_durations` pass, and
keep the minimum-latency row (only it and the heuristic become
:class:`ThreadMapping` objects).

Three properties the rest of the pipeline relies on:

* **never worse** — the heuristic mapping is always row 0, so the
  per-group winner prices ≤ the heuristic under the same model (the
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

import numpy as np

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
    """The legal candidate set of one signature as mappings (heuristic
    first); the tuner itself builds only the heuristic and the winner."""
    columns = space.candidates(sig.geometry, spec, sig.needs_barrier)
    return [columns.mapping(i) for i in range(len(columns))]


def proxy_cost_inputs(sig: GroupSignature,
                      mapping: ThreadMapping) -> KernelCostInputs:
    """Cost-model inputs for one candidate: the group's traffic under
    the candidate's launch geometry (same atomic-round accounting as
    :func:`repro.codegen.builder.kernel_cost_inputs`)."""
    return KernelCostInputs(
        grid_size=mapping.grid_size,
        block_size=mapping.block_size,
        bytes_read=sig.bytes_read,
        bytes_written=sig.bytes_written,
        fp_instructions=sig.fp_instructions,
        regs_per_thread=ASSUMED_REGISTER_BOUND,
        smem_per_block=0,
        num_atomic_rounds=int(mapping.accumulates),
    )


class GroupTuner:
    """Tunes schedule groups against the analytical cost model.

    Args:
        spec: Target device.
        cache: Decision store; defaults to the process-wide
            :func:`default_tuning_cache`.
        cost_model: Pricing model; defaults to the shared per-spec model,
            whose price memo tuning never touches (it calls only the
            memo-free :meth:`~KernelCostModel.launch_durations`).
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
        """Tune many signatures with one array pricing pass.

        Cache lookups run first; every uncached signature's candidate
        columns are enumerated, then *all* of them are priced in a
        single :meth:`KernelCostModel.launch_durations` call and each
        signature's winner is picked by one lexicographic sort.
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
            for (sig, key), decision in zip(missing, self._sweep(
                    [sig for sig, _ in missing])):
                decisions[sig] = decision
                self.cache.put(key, decision)
        return [decisions[sig] for sig in sigs]

    # -- internals ----------------------------------------------------------

    def _sweep(self, sigs: Sequence[GroupSignature],
               ) -> list[TunedDecision]:
        """Enumerate, price and select for uncached signatures.

        The winner is the smallest (duration, ``sort_key``) row — kind
        is fixed per signature, so the key is the columns — unless the
        heuristic row 0 prices no worse (the incumbent rule: tied sweeps
        never force the compiler's double-lowering best-of pass).
        """
        spaces = [space.candidates(sig.geometry, self.spec,
                                   sig.needs_barrier) for sig in sigs]
        counts = np.array([len(cands) for cands in spaces])
        starts = np.cumsum(counts) - counts
        table = np.concatenate([cands.table for cands in spaces])
        grid, block, rows_per_block, blocks_per_row, tasks = table.T
        per_sig = np.array([(sig.bytes_read, sig.bytes_written,
                             sig.fp_instructions,
                             sig.kind == MappingKind.COLUMN_REDUCE.value)
                            for sig in sigs]).repeat(counts, axis=0)
        # ThreadMapping.accumulates, one column for every candidate.
        atomic_rounds = (blocks_per_row > 1) | (per_sig[:, 3] > 0)
        times = self.model.launch_durations(
            grid, block, per_sig[:, 0], per_sig[:, 1], per_sig[:, 2],
            atomic_rounds.astype(np.int64),
            regs_per_thread=ASSUMED_REGISTER_BOUND, smem_per_block=0)
        segment = np.arange(len(spaces)).repeat(counts)
        order = np.lexsort((tasks, rows_per_block, blocks_per_row, -block,
                            grid, times, segment))
        best = order[starts]
        best = np.where(times[starts] <= times[best], starts, best)
        times = times.tolist()
        return [TunedDecision(mapping=cands.mapping(b - s),
                              heuristic_mapping=cands.mapping(0),
                              tuned_time=times[b], heuristic_time=times[s],
                              num_candidates=len(cands))
                for cands, b, s in zip(spaces, best.tolist(),
                                       starts.tolist())]
