"""Workload registry: Table 2 of the paper.

=============  ==============  =================  =================
Model          Field           Train batch size   Infer batch size
=============  ==============  =================  =================
CRNN           Images          —                  1
ASR            Speech          —                  1
BERT           NLP             12                 200
Transformer    NLP             4,096              1
DIEN           Recommendation  256                256
=============  ==============  =================  =================
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.ir.graph import Graph
from repro.store import TieredStore, collector_paused, register
from repro.workloads.asr import build_asr
from repro.workloads.bert import build_bert
from repro.workloads.crnn import build_crnn
from repro.workloads.dien import build_dien
from repro.workloads.transformer import build_transformer


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A named workload with its production configurations.

    Attributes:
        name: Model name as the paper uses it.
        field: Application domain (Table 2).
        inference: Factory for the inference graph.
        training: Factory for the training graph (None when the paper
            evaluates inference only).
        batched: Factory for an inference graph serving ``batch``
            concurrent requests — the serving layer's dynamic batcher
            rebuilds graphs through this hook (one graph per batch-size
            bucket, amortized by the compile cache).
    """

    name: str
    field: str
    inference: Callable[[], Graph]
    training: Optional[Callable[[], Graph]] = None
    batched: Optional[Callable[[int], Graph]] = None


WORKLOADS: dict[str, WorkloadSpec] = {
    "CRNN": WorkloadSpec(
        name="CRNN",
        field="Images",
        inference=lambda: build_crnn(),
        batched=lambda batch: build_crnn(batch=batch),
    ),
    "ASR": WorkloadSpec(
        name="ASR",
        field="Speech",
        inference=lambda: build_asr(),
        batched=lambda batch: build_asr(batch=batch),
    ),
    "BERT": WorkloadSpec(
        name="BERT",
        field="NLP",
        inference=lambda: build_bert(batch=200),
        training=lambda: build_bert(batch=12, training=True),
        batched=lambda batch: build_bert(batch=batch),
    ),
    "Transformer": WorkloadSpec(
        name="Transformer",
        field="NLP",
        inference=lambda: build_transformer(),
        training=lambda: build_transformer(training=True,
                                           train_tokens=4096),
        batched=lambda batch: build_transformer(batch=batch),
    ),
    "DIEN": WorkloadSpec(
        name="DIEN",
        field="Recommendation",
        inference=lambda: build_dien(batch=256),
        training=lambda: build_dien(batch=256, training=True),
        batched=lambda batch: build_dien(batch=batch),
    ),
}


def inference_workloads() -> list[str]:
    """Names of every workload (all have inference configurations)."""
    return list(WORKLOADS)


def training_workloads() -> list[str]:
    """Names of the workloads with a training configuration."""
    return [name for name, spec in WORKLOADS.items() if spec.training]


@collector_paused()
def build(name: str, training: bool = False,
          batch: Optional[int] = None) -> Graph:
    """Build a registered workload graph.

    Args:
        name: Registered workload name.
        training: Build the training variant.
        batch: Build the inference graph for ``batch`` concurrent
            requests instead of the paper's Table 2 configuration
            (incompatible with ``training``).

    Raises:
        KeyError: Unknown workload name.
        ValueError: Training requested for an inference-only workload,
            batch requested for a training build or for a workload
            without a batched factory, or a non-positive batch.
    """
    spec = WORKLOADS[name]
    if batch is not None:
        if training:
            raise ValueError("batched builds are inference-only")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if spec.batched is None:
            raise ValueError(f"{name} has no batched configuration")
        return spec.batched(batch)
    if training:
        if spec.training is None:
            raise ValueError(f"{name} is evaluated for inference only")
        return spec.training()
    return spec.inference()


# Built graphs by (name, training, batch).  Registry builds are pure and
# graphs are immutable once built, so one object can serve every caller;
# reusing the *object* (not just the structure) also keeps every
# per-graph memo hot — fingerprints, interpreter programs, plan keys.
# The bound holds every graph a serving fleet prices (about 20).
_BUILD_CACHE = register("workload-builds", TieredStore(capacity=64))


def build_cached(name: str, training: bool = False,
                 batch: Optional[int] = None) -> Graph:
    """Like :func:`build`, but memoized process-wide.

    The serving hot path uses this: a fresh
    :class:`~repro.serving.worker.ServiceTimeOracle` pricing a
    (workload, bucket) another oracle already priced must not pay graph
    construction — or re-canonicalization for the compile-cache key —
    a second time.  Callers must treat the returned graph as shared and
    immutable; use :func:`build` for a private copy.
    """
    key = (name, training, batch)
    graph = _BUILD_CACHE.get(key)
    if graph is None:
        graph = build(name, training=training, batch=batch)
        _BUILD_CACHE.put(key, graph)
    return graph
