"""Byte-identity of the compiled fused path.

The compiled execution path's correctness bar, mirroring the batching
suite: running a graph through the lowered
:class:`~repro.compile.program.CompiledProgram` must be *byte-identical*
to the uncached per-layer interpreter -- for every mini-zoo model,
every plan mechanism (single-processor baseline, the matched 0.5
cooperative split under each of the four policies, the partitioner's
PFQ plan), and batch sizes 1 and 4; and for
every layer shape (conv, FC, depthwise) under every policy (F32, F16,
QUInt8, PFQ), placed whole or split between processors at even and
uneven ratios.  The compiled path reproduces the interpreter's exact
kernel semantics (per-sample GEMM rows, f16 rounding points, int32
wrapping requantization), so there is no float tolerance to hide
behind.
"""

import numpy as np
import pytest

from repro.models import MINI_MODELS, build_model
from repro.nn import calibrate_graph
from repro.compile import compile_program
from repro.compile.compiler import _Lowering
from repro.runtime import (MuLayer, PROCESSOR_FRIENDLY, UNIFORM_F16,
                           UNIFORM_F32, UNIFORM_QUINT8)
from repro.runtime.baselines import single_processor_plan
from repro.runtime.executor import Executor
from repro.runtime.plan import ExecutionPlan, LayerAssignment
from repro.soc import EXYNOS_7420

BATCHES = (1, 4)
POLICIES = {
    "f32": UNIFORM_F32,
    "f16": UNIFORM_F16,
    "quint8": UNIFORM_QUINT8,
    "pfq": PROCESSOR_FRIENDLY,
}
#: The matched 0.5 split under each policy; plain ``split`` is F16.
SPLIT_POLICIES = {"split": "f16", "split-f32": "f32",
                  "split-quint8": "quint8", "split-pfq": "pfq"}
MECHANISMS = ("baseline", *SPLIT_POLICIES, "pfq")


def _split_plan(graph, policy, split=0.5):
    """A ``split`` CPU/GPU cooperative split on every splittable
    layer; ``split=None`` runs every layer on the CPU."""
    assignments = {}
    for name in graph.compute_layers():
        if split is not None and graph.layer(name).supports_channel_split:
            assignments[name] = LayerAssignment.cooperative(name, split)
        else:
            assignments[name] = LayerAssignment.on_cpu(name)
    return ExecutionPlan(graph_name=graph.name, policy=policy,
                         assignments=assignments)


def _plan_for(graph, mechanism):
    if mechanism == "baseline":
        return single_processor_plan(graph, "cpu", UNIFORM_QUINT8)
    if mechanism in SPLIT_POLICIES:
        return _split_plan(graph, POLICIES[SPLIT_POLICIES[mechanism]])
    assert mechanism == "pfq"
    return MuLayer(EXYNOS_7420, PROCESSOR_FRIENDLY).plan(graph)


@pytest.fixture(scope="module")
def zoo():
    """Every mini model with weights and a calibration table."""
    rng = np.random.default_rng(20190325)
    cells = {}
    for model in MINI_MODELS:
        graph = build_model(model)
        batches = [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
                   for _ in range(2)]
        cells[model] = (graph, calibrate_graph(graph, batches))
    return cells


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("model", MINI_MODELS)
def test_compiled_matches_functional(zoo, model, mechanism, batch):
    """Compiled and interpreted runs agree byte-for-byte on every
    layer output (same executor, same plan, same calibration)."""
    graph, calibration = zoo[model]
    plan = _plan_for(graph, mechanism)
    x = np.random.default_rng(batch).standard_normal(
        (batch, 3, 32, 32)).astype(np.float32)
    _assert_program_matches_interpreter(graph, plan, calibration, x)


def _assert_program_matches_interpreter(graph, plan, calibration, x):
    """Compiled and interpreted runs agree byte-for-byte on every
    layer output."""
    executor = Executor(EXYNOS_7420)
    functional = executor.run(graph, plan, x=x, calibration=calibration)
    program = compile_program(graph, plan, calibration,
                              batch=x.shape[0])
    compiled = executor.run(graph, plan, x=x, calibration=calibration,
                            program=program)
    assert set(compiled.outputs) == set(functional.outputs)
    for name, expected in functional.outputs.items():
        actual = compiled.outputs[name]
        assert actual.dtype == expected.dtype, name
        assert actual.data.dtype == expected.data.dtype, name
        assert actual.data.tobytes() == expected.data.tobytes(), name


def _assert_matches_uncached(graph, plan, calibration, program, x):
    """The program's graph outputs equal the uncached interpreter's."""
    compiled = program.run(x, keep="outputs")
    interpreted = Executor(EXYNOS_7420, op_caches=False).run(
        graph, plan, x=x, calibration=calibration)
    for name in graph.output_layers():
        assert (compiled[name].data.tobytes()
                == interpreted.outputs[name].data.tobytes()), name


def test_untuned_program_takes_direct1x1(squeezenet_mini,
                                         squeezenet_calibration,
                                         single_input):
    """The 0.5 pfq split gives squeezenet_mini's 1x1 convs F16 parts,
    so the untuned compiler takes the byte-checked direct1x1 lowering
    on at least one of them, and the program still reproduces the
    uncached interpreter."""
    plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY)
    program = compile_program(squeezenet_mini, plan,
                              squeezenet_calibration)
    assert program.variant_histogram().get("direct1x1", 0) >= 1
    _assert_matches_uncached(squeezenet_mini, plan,
                             squeezenet_calibration, program,
                             single_input)


def patch_divergent_direct1x1(monkeypatch):
    """Make every direct1x1 float part differ from the reference in
    its last bit: its GEMM sums by one ulp, its stored codes by one."""
    definition = _Lowering._direct1x1_float_part

    def divergent(self, *args, **kwargs):
        run = definition(self, *args, **kwargs)

        def perturbed(lhs):
            out = run(lhs)
            if out.dtype == np.uint8:
                return out ^ np.uint8(1)
            return np.nextafter(out, np.inf)

        return perturbed

    monkeypatch.setattr(_Lowering, "_direct1x1_float_part", divergent)


def test_divergent_direct1x1_falls_back_to_reference(
        monkeypatch, squeezenet_mini, squeezenet_calibration,
        single_input):
    """A direct float part that changes one bit fails the compiler's
    byte check, so every step keeps the reference lowering and the
    output does not move."""
    patch_divergent_direct1x1(monkeypatch)
    plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY)
    program = compile_program(squeezenet_mini, plan,
                              squeezenet_calibration)
    assert program.variant_histogram() == {
        "reference": len(program.steps)}
    _assert_matches_uncached(squeezenet_mini, plan,
                             squeezenet_calibration, program,
                             single_input)


def _calibration_for(policy, name, request):
    if not policy.is_quantized:
        return None
    return request.getfixturevalue(name)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("cooperative", [False, True],
                         ids=["full", "coop"])
def test_conv_fc_policies(request, policy_name, cooperative,
                          squeezenet_mini, single_input):
    """squeezenet_mini covers conv + FC + concat layers."""
    policy = POLICIES[policy_name]
    calibration = _calibration_for(policy, "squeezenet_calibration",
                                   request)
    plan = _split_plan(squeezenet_mini, policy,
                       0.5 if cooperative else None)
    _assert_program_matches_interpreter(squeezenet_mini, plan,
                                        calibration, single_input)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("cooperative", [False, True],
                         ids=["full", "coop"])
def test_depthwise_policies(request, policy_name, cooperative,
                            mobilenet_mini, single_input):
    """mobilenet_mini covers depthwise convolutions."""
    policy = POLICIES[policy_name]
    calibration = _calibration_for(policy, "mobilenet_mini_calibration",
                                   request)
    plan = _split_plan(mobilenet_mini, policy,
                       0.5 if cooperative else None)
    _assert_program_matches_interpreter(mobilenet_mini, plan,
                                        calibration, single_input)


@pytest.mark.parametrize("split", [0.25, 0.5, 0.75])
def test_uneven_splits(squeezenet_mini, squeezenet_calibration,
                       single_input, split):
    plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY, split)
    _assert_program_matches_interpreter(
        squeezenet_mini, plan, squeezenet_calibration, single_input)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_arena_run_matches_fresh_run(zoo, mechanism):
    """keep="outputs" (arena-backed buffers, reused across runs) and
    keep="all" (fresh per-layer arrays) produce identical graph
    outputs, including on a second run over the reused arena."""
    graph, calibration = zoo["squeezenet_mini"]
    plan = _plan_for(graph, mechanism)
    program = compile_program(graph, plan, calibration)
    x = np.random.default_rng(7).standard_normal(
        (1, 3, 32, 32)).astype(np.float32)
    fresh = program.run(x, keep="all")
    output = graph.output_layers()[0]
    for _ in range(2):
        arena = program.run(x, keep="outputs")
        assert set(arena) == set(graph.output_layers())
        assert (arena[output].data.tobytes()
                == fresh[output].data.tobytes())


def test_program_stats_describe(zoo):
    """describe() reports the lowered shape of the program: one step
    per compute layer, a non-trivial fused-op count, and a planned
    arena."""
    graph, calibration = zoo["vgg_mini"]
    plan = _plan_for(graph, "pfq")
    program = compile_program(graph, plan, calibration)
    info = program.describe()
    assert info["graph"] == graph.name
    assert len(program.steps) == len(graph.compute_layers())
    assert info["arena_bytes"] > 0
    assert info["arena_slots"] > 0
