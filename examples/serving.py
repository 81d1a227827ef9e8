"""Dynamic-shape serving with the JIT cache, plus trace export.

Simulates a serving endpoint receiving BERT-style requests with varying
batch sizes.  A shape-specialized JIT cache (DISC-style) compiles once
per power-of-two bucket instead of per request, amortizing AStitch's
one-time JIT cost (Sec 6.4.1) across the stream; the final request's
timeline is exported as a chrome://tracing JSON.

Run:  python examples/serving.py
"""

import tempfile

from repro import AStitchCompiler, Engine, render_table
from repro.runtime import (JitCache, profile_to_chrome_trace,
                           write_chrome_trace)
from repro.workloads.bert import build_bert

REQUEST_BATCHES = [7, 12, 16, 20, 25, 32, 40, 50, 64, 70, 100, 128,
                   12, 32, 100, 64, 25, 128]


def bert_factory(batch: int = 8) -> object:
    return build_bert(batch=batch, seq=32, hidden=128, num_layers=4,
                      ffn_dim=512, heads=4)


def main():
    engine = Engine()
    rows = []
    for policy in ("exact", "pow2"):
        cache = JitCache(AStitchCompiler(), policy=policy)
        served_ms = 0.0
        for batch in REQUEST_BATCHES:
            module = cache.get(bert_factory, {"batch": batch})
            served_ms += engine.run(module).total_time * 1e3
        rows.append([
            policy,
            len(REQUEST_BATCHES),
            cache.stats.misses,
            f"{cache.stats.compile_seconds:.1f}",
            f"{served_ms:.2f}",
        ])
    print(render_table(
        ["bucketing", "requests", "compilations",
         "JIT seconds (modeled)", "serve time (ms)"], rows,
        title="BERT serving with varying batch sizes: compile per "
              "bucket, not per request"))

    # Export the last request's timeline for chrome://tracing.
    cache = JitCache(AStitchCompiler(), policy="pow2")
    module = cache.get(bert_factory, {"batch": 64})
    profile = engine.run(module)
    with tempfile.NamedTemporaryFile(suffix=".trace.json",
                                     delete=False) as trace:
        path = trace.name
    write_chrome_trace(profile_to_chrome_trace(profile), path)
    print(f"\nwrote a chrome://tracing timeline of one request to "
          f"{path}")
    print(f"({profile.mem_kernel_count} stitched kernels, "
          f"{profile.total_time * 1e3:.2f} ms per request)")


if __name__ == "__main__":
    main()
