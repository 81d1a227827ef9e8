"""Cost-model-guided launch-configuration autotuning.

Per stitched schedule group, :class:`GroupTuner` enumerates the legal
Sec 3.3 design space (:mod:`repro.tuning.space`), prices every candidate
in one vectorized cost-model pass, and persists the winner in the
content-addressed :class:`TuningCache` (:mod:`repro.tuning.cache`).
The heuristic mapping is always a candidate, so tuned never prices
worse than untuned.
"""

from repro.tuning.cache import (DEFAULT_CAPACITY, TUNING_FORMAT_VERSION,
                                TuningCache, TuningKey,
                                default_tuning_cache,
                                set_default_tuning_cache)
from repro.tuning.tuner import (ASSUMED_REGISTER_BOUND, GroupSignature,
                                GroupTuner, TunedDecision, candidates_for,
                                proxy_cost_inputs, signature_for_group)

__all__ = [
    "ASSUMED_REGISTER_BOUND",
    "DEFAULT_CAPACITY",
    "TUNING_FORMAT_VERSION",
    "TuningCache",
    "TuningKey",
    "GroupSignature",
    "GroupTuner",
    "TunedDecision",
    "candidates_for",
    "default_tuning_cache",
    "proxy_cost_inputs",
    "set_default_tuning_cache",
    "signature_for_group",
]
