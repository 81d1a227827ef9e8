"""AStitch reproduction (ASPLOS 2022).

A from-scratch Python implementation of *AStitch: Enabling a New
Multi-dimensional Optimization Space for Memory-Intensive ML Training and
Inference on Modern SIMT Architectures* (Zheng et al.), built on a
simulated SIMT GPU.

Public API quick tour::

    from repro import GraphBuilder, AStitchCompiler, XLACompiler, Engine

    b = GraphBuilder("softmax")
    x = b.parameter("x", (1024, 512))
    ...
    graph = b.build()

    module = AStitchCompiler().compile(graph)     # one stitched kernel
    profile = Engine().run(module)                # priced on a model V100
    outputs = module.execute({"x": data})         # exact NumPy numerics
"""

from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph, Node
from repro.ir.ops import OpKind, ReduceKind
from repro.ir.interpreter import evaluate, random_feeds
from repro.ir.passes import optimize
from repro.ir.autodiff import append_gradients
from repro.gpu.spec import GPUSpec, V100, T4, A100
from repro.compilers import (
    AnsorCompiler,
    CudaGraphCompiler,
    FusionStitchingCompiler,
    TensorFlowCompiler,
    TensorRTCompiler,
    TVMCompiler,
    XLACompiler,
)
from repro.core import AStitchCompiler, AStitchConfig, StitchScheme
from repro.runtime import Engine, Session, convert_to_amp
from repro.analysis import compare_compilers, geomean, render_table
from repro.serving import max_sustainable_qps, run_loadtest
from repro.store import reset_caches

__version__ = "1.0.0"

__all__ = [
    "GraphBuilder",
    "Graph",
    "Node",
    "OpKind",
    "ReduceKind",
    "evaluate",
    "random_feeds",
    "optimize",
    "append_gradients",
    "GPUSpec",
    "V100",
    "T4",
    "A100",
    "TensorFlowCompiler",
    "XLACompiler",
    "TVMCompiler",
    "TensorRTCompiler",
    "AnsorCompiler",
    "CudaGraphCompiler",
    "FusionStitchingCompiler",
    "AStitchCompiler",
    "AStitchConfig",
    "StitchScheme",
    "Engine",
    "Session",
    "convert_to_amp",
    "compare_compilers",
    "geomean",
    "render_table",
    "max_sustainable_qps",
    "run_loadtest",
    "reset_caches",
    "__version__",
]
