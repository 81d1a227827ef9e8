"""Prototype CUDA source emission for stitched kernels.

Renders a :class:`~repro.codegen.kernel.Kernel` into readable CUDA C —
the code a real AStitch backend would hand to NVRTC.  The emitter is a
faithful *prototype*: expression inlining for local-scheme values,
``__shared__`` buffers with ``__syncthreads()`` for regional values,
global scratch with ``cooperative_groups`` grid syncs for global-scheme
values, block-level tree reductions, cross-block ``atomicAdd`` for task
splitting, and ``__launch_bounds__`` carrying the assume-relax-apply
register bound (Sec 4.5).

The output is for inspection and testing (there is no device here), but
it is structurally complete: every kernel input appears as a parameter,
every output is stored, and the loop structure mirrors the thread
mapping (vertical packing -> a task loop; horizontal packing -> a
rows-per-block offset; splitting -> a partial-accumulator + atomic).
"""

from __future__ import annotations

from repro.codegen.kernel import Kernel
from repro.codegen.schedule import MappingKind
from repro.gpu.memory import MemorySpace
from repro.ir.graph import Node, constant_value
from repro.ir.ops import OpKind, ReduceKind

_BINARY_FORMATS = {
    OpKind.ADD: "({0} + {1})",
    OpKind.SUBTRACT: "({0} - {1})",
    OpKind.MULTIPLY: "({0} * {1})",
    OpKind.DIVIDE: "({0} / {1})",
    OpKind.MAXIMUM: "fmaxf({0}, {1})",
    OpKind.MINIMUM: "fminf({0}, {1})",
    OpKind.POWER: "powf({0}, {1})",
    OpKind.COMPARE_GT: "(({0} > {1}) ? 1.0f : 0.0f)",
}

_UNARY_FORMATS = {
    OpKind.NEGATE: "(-{0})",
    OpKind.ABS: "fabsf({0})",
    OpKind.RELU: "fmaxf({0}, 0.0f)",
    OpKind.EXP: "__expf({0})",
    OpKind.LOG: "__logf({0})",
    OpKind.TANH: "tanhf({0})",
    OpKind.SQRT: "sqrtf({0})",
    OpKind.RSQRT: "rsqrtf({0})",
    OpKind.SIGMOID: "(1.0f / (1.0f + __expf(-{0})))",
    OpKind.ERF: "erff({0})",
    OpKind.GELU: "(0.5f * {0} * (1.0f + tanhf(0.7978845608f * "
                 "({0} + 0.044715f * {0} * {0} * {0}))))",
}

_REDUCE_INIT = {
    ReduceKind.SUM: "0.0f",
    ReduceKind.MEAN: "0.0f",
    ReduceKind.MAX: "-CUDART_INF_F",
    ReduceKind.MIN: "CUDART_INF_F",
    ReduceKind.PROD: "1.0f",
}

_REDUCE_COMBINE = {
    ReduceKind.SUM: "{acc} += {val};",
    ReduceKind.MEAN: "{acc} += {val};",
    ReduceKind.MAX: "{acc} = fmaxf({acc}, {val});",
    ReduceKind.MIN: "{acc} = fminf({acc}, {val});",
    ReduceKind.PROD: "{acc} *= {val};",
}


def _c_ident(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


class CudaSourceEmitter:
    """Renders one kernel into CUDA C source text."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._lines: list[str] = []
        self._indent = 0
        # Values that live in named storage rather than inline
        # expressions: kernel inputs, buffered (regional/global) values,
        # reduce results and kernel outputs.
        self._named: dict[Node, str] = {}

    # -- low-level emission ------------------------------------------------------

    def _emit(self, line: str = "") -> None:
        self._lines.append(("  " * self._indent + line).rstrip())

    def _open(self, line: str) -> None:
        self._emit(line)
        self._indent += 1

    def _close(self, line: str = "}") -> None:
        self._indent -= 1
        self._emit(line)

    # -- expressions ----------------------------------------------------------------

    def expression(self, node: Node, index: str = "i") -> str:
        """The CUDA expression computing ``node``'s element at ``index``.

        Named values (inputs, buffered values, reduce results) read from
        their storage; local-scheme element-wise chains inline.
        """
        if node in self._named:
            storage = self._named[node]
            if node.shape.num_elements == 1:
                return storage if "[" in storage else f"{storage}"
            return f"{storage}[{index}]"
        kind = node.kind
        if kind is OpKind.CONSTANT:
            value = float(constant_value(node).reshape(-1)[0])
            return f"{value!r}f"
        if kind is OpKind.BROADCAST:
            inner = node.operands[0]
            if inner.num_elements == node.num_elements:
                return self.expression(inner, index)
            width = node.num_elements // max(1, inner.num_elements)
            return self.expression(inner, f"({index}) / {width}")
        if kind in (OpKind.RESHAPE, OpKind.TRANSPOSE):
            return self.expression(node.operands[0], index)
        if kind is OpKind.SELECT:
            pred, on_true, on_false = (self.expression(op, index)
                                       for op in node.operands)
            return f"(({pred} != 0.0f) ? {on_true} : {on_false})"
        if kind in _UNARY_FORMATS:
            return _UNARY_FORMATS[kind].format(
                self.expression(node.operands[0], index))
        if kind in _BINARY_FORMATS:
            return _BINARY_FORMATS[kind].format(
                self.expression(node.operands[0], index),
                self.expression(node.operands[1], index))
        raise ValueError(f"cannot emit expression for {kind}")

    # -- statements ----------------------------------------------------------------

    def _declare_shared(self) -> None:
        for node, space in self.kernel.placements.items():
            if space is MemorySpace.SHARED:
                slot = max(1, node.num_elements
                           // max(1, self.kernel.mapping.grid_size))
                name = f"smem_{_c_ident(node.name)}"
                self._emit(f"__shared__ float {name}[{slot}];")
                self._named[node] = name

    def _declare_global_scratch(self) -> list[str]:
        params = []
        for node, space in self.kernel.placements.items():
            if space is MemorySpace.GLOBAL:
                name = f"gmem_{_c_ident(node.name)}"
                params.append(f"float* __restrict__ {name}")
                self._named[node] = name
        return params

    def _emit_reduce(self, node: Node) -> None:
        mapping = self.kernel.mapping
        kind = node.reduce_kind
        acc = f"acc_{_c_ident(node.name)}"
        width = node.operands[0].num_elements // max(1, node.num_elements)
        self._emit(f"// {node.name}: reduce over {width} elements/row")
        self._emit(f"float {acc} = {_REDUCE_INIT[kind]};")
        stride = ("blockDim.x" if mapping.kind is MappingKind.ELEMENTWISE
                  else str(max(1, mapping.threads_per_row)))
        self._open(f"for (int j = lane; j < {width}; j += {stride}) {{")
        value = self.expression(node.operands[0], "row * "
                                f"{width} + j")
        self._emit(_REDUCE_COMBINE[kind].format(acc=acc, val=value))
        self._close()
        self._emit(f"{acc} = block_reduce_{kind.value}({acc});")
        if kind is ReduceKind.MEAN:
            self._emit(f"{acc} /= {width}.0f;")
        target = self._storage_for(node)
        if mapping.accumulates or self.kernel.extra_atomic_rounds > 0:
            self._emit(f"if (lane == 0) atomicAdd(&{target}[row], "
                       f"{acc});  // cross-block combine")
        else:
            self._emit(f"if (lane == 0) {target}[row] = {acc};")
        self._emit_output_alias(node, target, index="row",
                                guard="lane == 0", value=acc)
        self._named[node] = target

    def _storage_for(self, node: Node) -> str:
        if node in self._named:
            return self._named[node]
        space = self.kernel.placement(node)
        if space is MemorySpace.SHARED:
            return f"smem_{_c_ident(node.name)}"
        if space is MemorySpace.GLOBAL:
            return f"gmem_{_c_ident(node.name)}"
        if node in set(self.kernel.outputs):
            return f"out_{_c_ident(node.name)}"
        return f"reg_{_c_ident(node.name)}"

    def _emit_output_alias(self, node: Node, primary: str,
                           index: str, guard: str = "",
                           value: str = "") -> None:
        """A buffered value that is also a kernel output stores twice:
        on chip for its consumers, and to the output pointer."""
        if node not in set(self.kernel.outputs):
            return
        out = f"out_{_c_ident(node.name)}"
        if out == primary:
            return
        payload = value or f"{primary}[{index}]"
        prefix = f"if ({guard}) " if guard else ""
        self._emit(f"{prefix}{out}[{index}] = {payload};  "
                   f"// also a kernel output")

    def _emit_store(self, node: Node) -> None:
        target = self._storage_for(node)
        self._open(f"for (int i = tid; i < {node.num_elements}; "
                   f"i += total_threads) {{")
        self._emit(f"{target}[i] = {self.expression(node, 'i')};")
        self._emit_output_alias(node, target, index="i")
        self._close()
        self._named[node] = target

    # -- top level --------------------------------------------------------------------

    def emit(self) -> str:
        kernel = self.kernel
        mapping = kernel.mapping

        params = [f"const float* __restrict__ in_{_c_ident(n.name)}"
                  for n in kernel.inputs]
        params += [f"float* __restrict__ out_{_c_ident(n.name)}"
                   for n in kernel.outputs]
        for node in kernel.inputs:
            self._named[node] = f"in_{_c_ident(node.name)}"

        scratch_params = self._declare_global_scratch()
        self._lines = []

        self._emit(f"// {kernel.name}: {mapping.describe()}")
        self._emit(f"// barriers={kernel.num_global_barriers} "
                   f"smem={kernel.smem_per_block}B "
                   f"regs<={kernel.regs_per_thread}")
        if kernel.num_global_barriers:
            self._emit("#include <cooperative_groups.h>")
        self._emit('extern "C" __global__')
        self._emit(f"__launch_bounds__({mapping.block_size}) "
                   f"// maxrregcount={kernel.regs_per_thread}")
        signature = ",\n    ".join(params + scratch_params) or "void"
        self._open(f"void {_c_ident(kernel.name)}(\n    {signature}) {{")

        self._emit("const int tid = blockIdx.x * blockDim.x + "
                   "threadIdx.x;")
        self._emit("const int total_threads = gridDim.x * blockDim.x;")
        tpr = max(1, mapping.threads_per_row)
        self._emit(f"const int lane = threadIdx.x % {tpr};")
        self._emit(f"const int row = (blockIdx.x * blockDim.x + "
                   f"threadIdx.x) / {tpr};")
        if kernel.num_global_barriers:
            self._emit("namespace cg = cooperative_groups;")
            self._emit("cg::grid_group grid_bar = cg::this_grid();")
        self._declare_shared()
        if mapping.tasks_per_thread > 1:
            self._emit(f"// vertical packing: each thread iterates "
                       f"{mapping.tasks_per_thread} tasks")

        barriers_left = kernel.num_global_barriers
        stage_nodes = self._stage_nodes()
        for idx, stage in enumerate(stage_nodes):
            if idx > 0:
                if barriers_left > 0:
                    self._emit("grid_bar.sync();  "
                               "// global stitching scheme")
                    barriers_left -= 1
                else:
                    self._emit("__syncthreads();  "
                               "// regional stitching scheme")
            self._emit(f"// ---- stage {idx} ----")
            for node in stage:
                if node.kind is OpKind.REDUCE:
                    self._emit_reduce(node)
                else:
                    self._emit_store(node)
        while barriers_left > 0:
            self._emit("grid_bar.sync();  // global stitching scheme")
            barriers_left -= 1

        self._close()
        return "\n".join(self._lines) + "\n"

    def _stage_nodes(self) -> list[list[Node]]:
        """Nodes that need their own statement, grouped into stages.

        Statement nodes are reduces, buffered values and outputs; a new
        stage starts whenever a statement depends on an earlier
        statement of the current stage (simple greedy level split).
        """
        statement_nodes = []
        output_set = set(self.kernel.outputs)
        for node in self.kernel.nodes:
            if (node.kind is OpKind.REDUCE
                    or node in self.kernel.placements
                    or node in output_set):
                statement_nodes.append(node)

        stages: list[list[Node]] = []
        current: list[Node] = []
        produced_earlier: set[Node] = set()
        produced_current: set[Node] = set()

        def depends_on_current(node: Node) -> bool:
            stack = list(node.operands)
            seen = set()
            while stack:
                op = stack.pop()
                if op in seen:
                    continue
                seen.add(op)
                if op in produced_current:
                    return True
                if op in produced_earlier:
                    continue
                stack.extend(op.operands)
            return False

        for node in statement_nodes:
            if depends_on_current(node):
                stages.append(current)
                produced_earlier |= produced_current
                produced_current = set()
                current = []
            current.append(node)
            produced_current.add(node)
        if current:
            stages.append(current)
        return stages


def emit_kernel_source(kernel: Kernel) -> str:
    """Render ``kernel`` as CUDA C source text."""
    return CudaSourceEmitter(kernel).emit()


def emit_module_source(module) -> str:
    """Render every kernel of a compiled module, concatenated."""
    parts = [emit_kernel_source(k) for k in module.kernels()]
    header = (f"// module compiled by {module.compiler_name}: "
              f"{len(parts)} kernel(s)\n\n")
    return header + "\n".join(parts)
