"""The compiled program: a flat, pre-resolved execution schedule.

A :class:`CompiledProgram` is what :func:`~repro.compile.compiler.
compile_program` lowers an :class:`~repro.runtime.plan.ExecutionPlan`
into: one :class:`CompiledStep` per compute layer, in topological
order, each carrying

* **declarative metadata** -- the layer, its kind, the per-processor
  placements (resource and channel range), and the output storage
  dtype -- which the ``PV012`` rule of the
  :class:`~repro.analysis.plan_verifier.PlanVerifier` checks against
  the plan; and
* a **bound kernel closure** over pre-packed operands (int32-widened
  weights, folded bias/zero-point rows, pre-decomposed requantization
  multipliers, dequantization tables), so running a step is a single
  fused kernel call with no graph, plan, cache, or qparams lookups.

Running a program is byte-identical to running the functional
:class:`~repro.runtime.executor.Executor` over the same plan -- that
is the compiled path's acceptance bar, enforced against the uncached
interpreter by ``tests/test_compiled_identity.py``.

Two run modes:

* ``keep="all"`` returns every layer's output as a fresh tensor --
  the :class:`~repro.runtime.executor.Executor` parity mode, used by
  the identity tests and by ``Executor.run(..., program=...)``
  (whose result contract includes all layer outputs);
* ``keep="outputs"`` routes every activation through the pre-planned
  byte arena (:func:`~repro.analysis.memory.plan_arena`) and returns
  only the graph outputs.  The arena and its per-layer views are
  allocated once per program, so steady-state runs perform no
  per-layer *output* allocations and total activation memory is
  bounded by the statically planned ``arena_bytes``; transient kernel
  temporaries (column matrices, accumulators) remain, as documented
  in DESIGN.md.

Programs are immutable with respect to the graph: every weight and
bias array is captured by reference at compile time, and
:meth:`CompiledProgram.is_stale` reports identity mismatches so a
``set_weights`` after surgery/QAT invalidates the program.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.memory import ArenaLayout
from ..errors import PlanError, ShapeError
from ..quant.calibrate import CalibrationTable
from ..tensor import DType, QuantParams, Tensor, require_finite

if TYPE_CHECKING:   # pragma: no cover - typing only (avoids a cycle)
    from ..nn import Graph

#: Signature of a step's bound kernel: storage-domain input arrays in,
#: one storage-domain output array out.
StepFn = Callable[[List[np.ndarray]], np.ndarray]

#: One processor's portion of a step: the resource name and its
#: contiguous output-channel range, or ``None`` for the whole layer.
PlacementPart = Tuple[str, Optional[Tuple[int, int]]]

@dataclasses.dataclass(frozen=True)
class CompiledStep:
    """One pre-resolved compute step of a compiled program.

    Attributes:
        layer: name of the layer this step executes.
        kind: the layer kind (``LayerKind.value`` string).
        placements: per-processor parts, ``(resource, (lo, hi))`` with
            channel ranges for cooperative layers or
            ``(resource, None)`` for whole-layer placements -- in
            execution (concatenation) order.
        dtype: storage dtype of the step's output.
        inputs: producing layers whose outputs this step consumes.
        fn: the bound kernel closure.
        variant: the kernel lowering baked into ``fn`` --
            ``"direct1x1"`` where the compiler's byte-checked rule (or
            a tuner) took it, else ``"reference"`` (``PV014`` checks
            the name's legality against the step's shape/dtype).
    """

    layer: str
    kind: str
    placements: Tuple[PlacementPart, ...]
    dtype: DType
    inputs: Tuple[str, ...]
    fn: StepFn
    variant: str = "reference"


@dataclasses.dataclass(frozen=True)
class InputSpec:
    """How one graph input is seeded into storage representation."""

    layer: str
    shape: Tuple[int, ...]
    fn: Callable[[np.ndarray], np.ndarray]


class CompiledProgram:
    """A lowered plan: flat steps, static metadata, planned arena.

    Built by :func:`~repro.compile.compiler.compile_program`; not
    constructed by hand.

    Args:
        graph_name / policy_name / mechanism: provenance labels.
        batch: the batch size every step was specialized for.
        inputs: input seeding specs, one per Input layer.
        steps: compute steps in topological order.
        outputs: names of the graph's output layers.
        arena: the pre-planned activation arena (offsets/liveness).
        dtypes / qparams / shapes: static per-layer output metadata.
        graph / plan / calibration: the objects compiled against
            (identity-checked for staleness).
        weight_refs: ``(layer, weights, bias)`` references captured at
            compile time; replacement via ``set_weights`` makes the
            program stale.
    """

    def __init__(self, graph_name: str, policy_name: str, mechanism: str,
                 batch: int, inputs: Tuple[InputSpec, ...],
                 steps: Tuple[CompiledStep, ...], outputs: Tuple[str, ...],
                 arena: ArenaLayout,
                 dtypes: Dict[str, DType],
                 qparams: Dict[str, Optional[QuantParams]],
                 shapes: Dict[str, Tuple[int, ...]],
                 graph: object,
                 plan: object,
                 calibration: Optional[CalibrationTable],
                 weight_refs: Tuple[Tuple[str, np.ndarray, np.ndarray],
                                    ...]) -> None:
        self.graph_name = graph_name
        self.policy_name = policy_name
        self.mechanism = mechanism
        self.batch = batch
        self.inputs = inputs
        self.steps = steps
        self.outputs = outputs
        self.arena = arena
        self._dtypes = dtypes
        self._qparams = qparams
        self._shapes = shapes
        self._graph = graph
        self.plan = plan
        self._calibration = calibration
        self._weight_refs = weight_refs
        # Lazily allocated arena storage (keep="outputs" runs only);
        # reused across runs, so steady state allocates no activations.
        self._arena_buf: Optional[np.ndarray] = None
        self._views: Dict[str, np.ndarray] = {}

    # -- staleness ----------------------------------------------------------

    def is_stale(self, graph: "Graph") -> bool:
        """True when the program no longer matches ``graph``.

        A program is bound to the exact graph object and to the exact
        weight/bias arrays it packed, so ``set_weights`` (installing
        new arrays) makes it stale.  In-place mutation of the same
        arrays is invisible here; recompile after mutating weights in
        place.
        """
        if graph is not self._graph:
            return True
        for name, weights, bias in self._weight_refs:
            layer = graph.layer(name)
            if layer.weights is not weights or layer.bias is not bias:
                return True
        return False

    def matches(self, graph: "Graph",
                calibration: Optional[CalibrationTable]) -> bool:
        """True when the program can serve (graph, calibration) runs."""
        return calibration is self._calibration and not self.is_stale(graph)

    # -- introspection -------------------------------------------------------

    def variant_histogram(self) -> Dict[str, int]:
        """Kernel-variant name -> step count over this program."""
        histogram: Dict[str, int] = {}
        for step in self.steps:
            histogram[step.variant] = histogram.get(step.variant, 0) + 1
        return histogram

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary (CLI / verification output)."""
        return {
            "graph": self.graph_name,
            "policy": self.policy_name,
            "mechanism": self.mechanism,
            "batch": self.batch,
            "steps": [
                {"layer": step.layer, "kind": step.kind,
                 "dtype": str(step.dtype),
                 "variant": step.variant,
                 "placements": [
                     {"resource": resource,
                      "channels": None if rng is None else list(rng)}
                     for resource, rng in step.placements]}
                for step in self.steps],
            "variants": self.variant_histogram(),
            "arena_bytes": self.arena.arena_bytes,
            "arena_slots": len(self.arena.slots),
        }

    # -- execution -----------------------------------------------------------

    def _ensure_arena(self) -> None:
        if self._arena_buf is not None:
            return
        buf = np.empty(max(self.arena.arena_bytes, 1), dtype=np.uint8)
        views: Dict[str, np.ndarray] = {}
        for slot in self.arena.slots:
            shape = self._shapes[slot.buffer]
            np_dtype = self._dtypes[slot.buffer].numpy_dtype
            views[slot.buffer] = (
                buf[slot.offset:slot.offset + slot.nbytes]
                .view(np_dtype).reshape(shape))
        self._arena_buf = buf
        self._views = views

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim < 1 or int(x.shape[0]) != self.batch:
            raise PlanError(
                f"program was compiled for batch {self.batch} but the "
                f"input has leading dimension "
                f"{x.shape[0] if x.ndim else '?'}")
        for spec in self.inputs:
            if tuple(x.shape[1:]) != tuple(spec.shape[1:]):
                raise ShapeError(
                    f"input shape {tuple(x.shape)} does not match the "
                    f"compiled input {spec.layer!r} of shape "
                    f"{spec.shape}")
        require_finite(x)
        return x

    def _tensor(self, name: str, data: np.ndarray) -> Tensor:
        return Tensor(data, self._dtypes[name], self._qparams[name])

    def run(self, x: np.ndarray, keep: str = "outputs"
            ) -> Dict[str, Tensor]:
        """Execute the program on one input batch.

        Args:
            x: input array of shape ``(batch, ...)`` matching the
                compiled batch.
            keep: ``"outputs"`` (default) runs through the pre-planned
                arena and returns only the graph outputs (copied out
                of the arena, which is reused by the next run);
                ``"all"`` returns every layer's output as a fresh
                tensor -- the Executor-parity mode.

        Returns:
            Layer name -> output tensor.

        Raises:
            NonFiniteInputError: ``x`` holds NaN or +-inf.
        """
        if keep not in ("outputs", "all"):
            raise ValueError(f"keep must be 'outputs' or 'all', "
                             f"got {keep!r}")
        x = self._check_input(x)
        if keep == "all":
            return self._run_fresh(x)
        return self._run_arena(x)

    def _run_fresh(self, x: np.ndarray) -> Dict[str, Tensor]:
        values: Dict[str, np.ndarray] = {}
        for spec in self.inputs:
            values[spec.layer] = spec.fn(x)
        for step in self.steps:
            values[step.layer] = step.fn(
                [values[name] for name in step.inputs])
        return {name: self._tensor(name, data)
                for name, data in values.items()}

    def _run_arena(self, x: np.ndarray) -> Dict[str, Tensor]:
        self._ensure_arena()
        views = self._views
        for spec in self.inputs:
            np.copyto(views[spec.layer], spec.fn(x))
        for step in self.steps:
            np.copyto(views[step.layer],
                      step.fn([views[name] for name in step.inputs]))
        return {name: self._tensor(name, views[name].copy())
                for name in self.outputs}
