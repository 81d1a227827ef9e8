"""Functional execution of compiled modules.

The executor runs a compiled module's steps with NumPy and enforces the
dataflow discipline real kernels live under: a kernel may only read values
it *declared* as inputs (and that an earlier step actually stored), and
only its declared outputs become visible to later steps.  This catches
partitioning bugs — a compiler that forgets to store a value another
kernel needs fails here, exactly as it would return garbage on a GPU.

The step list is compiled once, when the executor is constructed: operand
resolution (kernel-local value, earlier step's store, inlined constant),
value slots and per-node closures are all decided statically, so a
repeated :meth:`ModuleExecutor.run` is a flat loop over bound steps.
Dataflow violations are detected statically too, but surface as
:class:`ExecutionError` at :meth:`~ModuleExecutor.run` time — at exactly
the step that would have tripped over them — preserving the dynamic
executor's contract.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from repro.codegen.kernel import Kernel, LibraryCall, MemcpyCall, Step
from repro.ir.graph import Graph, Node
from repro.ir.interpreter import compile_node, library_call
from repro.ir.ops import OpKind


class ExecutionError(RuntimeError):
    """A step read a value that was never made visible to it."""


def _raiser(exc_type: type, message: str) -> Callable:
    def raise_it(env: list) -> None:
        raise exc_type(message)
    return raise_it


class _KernelOp:
    """One kernel, compiled to local slots and bound node closures."""

    __slots__ = ("_nodes", "_num_locals", "_error", "_moves")

    def __init__(self, kernel: Kernel, stored: set[Node],
                 env_slot: Callable[[Node], int]):
        # Each entry: (local slot, operand specs, closure, dtype) where a
        # spec is ("l", local slot) / ("e", env slot) / ("c", value).
        self._nodes: list = []
        local_of: dict[Node, int] = {}
        input_set = set(kernel.inputs)
        self._error: Optional[tuple[type, str]] = None
        for node in kernel.nodes:
            specs = []
            error = None
            for operand in node.operands:
                if operand in local_of:
                    specs.append(("l", local_of[operand]))
                elif operand in input_set and operand in stored:
                    specs.append(("e", env_slot(operand)))
                elif operand.kind is OpKind.CONSTANT:
                    # Kernel formation may declare a folded constant as
                    # an input although no step ever stores it.
                    specs.append(("c", compile_node(operand)([])))
                elif operand in input_set:
                    error = (ExecutionError,
                             f"kernel {kernel.name} reads "
                             f"{operand.name} before any step stored it")
                    break
                else:
                    error = (ExecutionError,
                             f"kernel {kernel.name} reads {operand.name} "
                             f"without declaring it as an input")
                    break
            if error is None:
                try:
                    fn = compile_node(node)
                except ValueError as exc:
                    error = (ValueError, str(exc))
            if error is not None:
                # The dynamic executor raised while evaluating this node;
                # nothing after it in the kernel would have run.
                self._error = error
                break
            local_of[node] = len(local_of)
            self._nodes.append((local_of[node], tuple(specs), fn,
                                node.dtype.to_numpy()))
        self._num_locals = len(local_of)
        self._moves: list[tuple[int, int]] = []
        if self._error is None:
            for out in kernel.outputs:
                if out not in local_of:
                    self._error = (ExecutionError,
                                   f"kernel {kernel.name} declares output "
                                   f"{out.name} but never computes it")
                    break
                self._moves.append((local_of[out], env_slot(out)))

    def __call__(self, env: list) -> None:
        local: list = [None] * self._num_locals
        for slot, specs, fn, dtype in self._nodes:
            inputs = [local[ref] if tag == "l"
                      else env[ref] if tag == "e" else ref
                      for tag, ref in specs]
            local[slot] = np.asarray(fn(inputs), dtype=dtype)
        if self._error is not None:
            exc_type, message = self._error
            raise exc_type(message)
        for local_slot, slot in self._moves:
            env[slot] = local[local_slot]


class _LibraryOp:
    """One library call, compiled to operand specs and an output slot."""

    __slots__ = ("_node", "_specs", "_slot", "_dtype", "_error")

    def __init__(self, step: LibraryCall, stored: set[Node],
                 env_slot: Callable[[Node], int]):
        node = step.node
        self._node = node
        self._specs: list = []
        self._error: Optional[str] = None
        for operand in node.operands:
            if operand in stored:
                self._specs.append(("e", env_slot(operand)))
            elif operand.kind is OpKind.CONSTANT:
                self._specs.append(("c", compile_node(operand)([])))
            else:
                self._error = (f"library call {node.name} reads "
                               f"{operand.name} before any step stored it")
                break
        self._slot = env_slot(node)
        self._dtype = node.dtype.to_numpy()

    def __call__(self, env: list) -> None:
        if self._error is not None:
            raise ExecutionError(self._error)
        inputs = [env[ref] if tag == "e" else ref
                  for tag, ref in self._specs]
        env[self._slot] = np.asarray(library_call(self._node, inputs),
                                     dtype=self._dtype)


class ModuleExecutor:
    """Runs an ordered list of steps against a graph's parameters."""

    def __init__(self, graph: Graph, steps: list[Step]):
        self.graph = graph
        self.steps = steps
        self._compile()

    def _compile(self) -> None:
        slot_of: dict[Node, int] = {}

        def env_slot(node: Node) -> int:
            if node not in slot_of:
                slot_of[node] = len(slot_of)
            return slot_of[node]

        self._params = [(env_slot(p), p.name, p.dtype.to_numpy())
                        for p in self.graph.parameters]
        stored = set(self.graph.parameters)
        ops: list[Callable[[list], None]] = []
        for step in self.steps:
            if isinstance(step, Kernel):
                ops.append(_KernelOp(step, stored, env_slot))
                stored.update(step.outputs)
            elif isinstance(step, LibraryCall):
                ops.append(_LibraryOp(step, stored, env_slot))
                stored.add(step.node)
            elif isinstance(step, MemcpyCall):
                continue
            else:
                ops.append(_raiser(ExecutionError,
                                   f"unknown step type {type(step)}"))
        self._ops = ops
        outputs: list[tuple[str, Optional[int]]] = []
        for out in self.graph.outputs:
            outputs.append((out.name,
                            env_slot(out) if out in stored else None))
        self._outputs = outputs
        self._num_slots = len(slot_of)

    def run(self, feeds: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Execute the module.

        Args:
            feeds: Parameter name -> array, as for the interpreter.

        Returns:
            Graph-output name -> value.

        Raises:
            ExecutionError: On any dataflow violation (undeclared read,
                missing producer, missing graph output).
            KeyError: If a parameter feed is missing.
        """
        env: list = [None] * self._num_slots
        for slot, name, dtype in self._params:
            if name not in feeds:
                raise KeyError(f"missing feed for parameter {name}")
            env[slot] = np.asarray(feeds[name], dtype=dtype)

        for op in self._ops:
            op(env)

        results = {}
        for name, slot in self._outputs:
            if slot is None:
                raise ExecutionError(
                    f"graph output {name} was never stored by any step")
            results[name] = env[slot]
        return results
