"""Autotuning: tuner selection, the in-memory cache, tuned identity.

The tuner's contract has three legs, each pinned here:

* **selection** -- the compiler hands the tuner only lowerings that
  reproduce the reference's bytes, so a byte-divergent variant is
  never timed;
* **cache** -- a repeated step signature with the same candidate set
  is answered from the in-memory :class:`~repro.tune.TuneCache` with
  zero re-timing, and a changed candidate set re-tunes;
* **programs** -- tuned :class:`CompiledProgram`s stay byte-identical
  to their untuned twins across models, policies, and batch sizes,
  and rule PV014 proves every baked variant legal for its step.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import verify_tuned_variants
from repro.compile import compile_program
from repro.models import MINI_MODELS, build_model
from repro.nn import calibrate_graph
from repro.runtime import (PROCESSOR_FRIENDLY, UNIFORM_F16, UNIFORM_F32,
                           UNIFORM_QUINT8)
from repro.runtime.plan import ExecutionPlan, LayerAssignment
from repro.tune import TuneCache, Tuner

from .test_compiled_identity import patch_divergent_direct1x1

POLICIES = {
    "pfq": PROCESSOR_FRIENDLY,
    "quint8": UNIFORM_QUINT8,
    "f16": UNIFORM_F16,
    "f32": UNIFORM_F32,
}


def _split_plan(graph, policy):
    """0.5 CPU/GPU cooperative split on every splittable layer --
    the variant-rich configuration the tuner sees most candidates
    on."""
    assignments = {}
    for name in graph.compute_layers():
        if graph.layer(name).supports_channel_split:
            assignments[name] = LayerAssignment.cooperative(name, 0.5)
        else:
            assignments[name] = LayerAssignment.on_cpu(name)
    return ExecutionPlan(graph_name=graph.name, policy=policy,
                         assignments=assignments)


def _input(graph, rng, batch=1):
    shape = (batch,) + graph.infer_shapes()[graph.input_layers()[0]][1:]
    return rng.standard_normal(shape).astype(np.float32)


@pytest.fixture(scope="module")
def tune_zoo():
    """Every mini model with weights and a calibration table."""
    rng = np.random.default_rng(20190325)
    cells = {}
    for model in MINI_MODELS:
        graph = build_model(model)
        cells[model] = (graph,
                        calibrate_graph(graph, [_input(graph, rng)]))
    return cells


class TestTunerSelect:
    def _candidates(self):
        ref = ("reference", lambda inputs: inputs[0] * 2.0)
        same = ("same", lambda inputs: inputs[0] + inputs[0])
        return ref, same

    def test_single_candidate_short_circuits(self):
        tuner = Tuner()
        ref, _ = self._candidates()
        chosen = tuner.select("sig", [ref],
                              lambda: np.ones(4, dtype=np.float32))
        assert chosen == "reference"
        assert tuner.timed == 0
        # The cache was never consulted: a one-candidate step has
        # nothing to decide, so it must not pollute the store.
        assert tuner.cache.stats()["records"] == 0
        assert tuner.cache.stats()["misses"] == 0

    def test_byte_divergence_disqualifies_before_timing(
            self, monkeypatch, squeezenet_mini, squeezenet_calibration):
        """The compiler's byte check drops a divergent direct1x1
        before the tuner sees it: nothing is timed or recorded."""
        patch_divergent_direct1x1(monkeypatch)
        tuner = Tuner()
        plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY)
        program = compile_program(squeezenet_mini, plan,
                                  squeezenet_calibration, tuner=tuner)
        assert set(program.variant_histogram()) == {"reference"}
        assert tuner.timed == 0
        assert not tuner.cache.records()

    def test_identical_variant_is_eligible(self):
        tuner = Tuner()
        ref, same = self._candidates()
        chosen = tuner.select("sig", [ref, same],
                              lambda: np.ones(4, dtype=np.float32))
        assert chosen in ("reference", "same")
        assert tuner.timed == 1
        assert set(tuner.cache.records()["sig"]["ms"]) == {
            "reference", "same"}

    def test_duplicate_names_rejected(self):
        tuner = Tuner()
        ref, _ = self._candidates()
        with pytest.raises(ValueError):
            tuner.select("sig", [ref, ref],
                         lambda: np.ones(4, dtype=np.float32))


class TestTuneCache:
    def test_round_trip_zero_retiming(self, squeezenet_mini,
                                      squeezenet_calibration):
        """A second compile through the same tuner answers every step
        from its cache and times nothing."""
        plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY)
        tuner = Tuner()
        program = compile_program(squeezenet_mini, plan,
                                  squeezenet_calibration, tuner=tuner)
        timed = tuner.timed
        assert timed > 0
        again = compile_program(squeezenet_mini, plan,
                                squeezenet_calibration, tuner=tuner)
        assert tuner.timed == timed
        assert tuner.cache.hits > 0
        assert ([s.variant for s in again.steps]
                == [s.variant for s in program.steps])

    def test_candidate_set_change_retunes(self):
        cache = TuneCache()
        cache.put("sig", "fast", ["fast", "reference"])
        assert cache.get("sig", ["reference", "fast"]) == "fast"
        # A new variant landed: the stored decision no longer covers
        # the offered set.
        assert cache.get("sig", ["reference", "fast", "new"]) is None
        assert cache.stats() == {"records": 1, "hits": 1, "misses": 1}


class TestTunedPrograms:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("model", MINI_MODELS)
    def test_tuned_byte_identical_pfq(self, model, policy_name,
                                      tune_zoo, rng):
        """Every mini model's matched split under every policy: the
        tuned program reproduces the untuned one's bytes, which
        ``tests/test_compiled_identity.py`` pins to the interpreter."""
        graph, calibration = tune_zoo[model]
        plan = _split_plan(graph, POLICIES[policy_name])
        x = _input(graph, rng)
        baseline = compile_program(graph, plan, calibration)
        tuned = compile_program(graph, plan, calibration,
                                tuner=Tuner())
        out = graph.output_layers()[0]
        assert (tuned.run(x, keep="outputs")[out].data.tobytes()
                == baseline.run(x, keep="outputs")[out].data.tobytes())

    def test_tuned_byte_identical_batch4(self, vgg_mini,
                                         vgg_mini_calibration, rng):
        """Batch > 1 under uniform F32: the float GEMMs keep their
        per-sample call shapes whatever the tuner picks, so bytes must
        not move."""
        plan = _split_plan(vgg_mini, UNIFORM_F32)
        x = _input(vgg_mini, rng, batch=4)
        baseline = compile_program(vgg_mini, plan, vgg_mini_calibration,
                                   batch=4)
        tuned = compile_program(vgg_mini, plan, vgg_mini_calibration,
                                batch=4, tuner=Tuner())
        out = vgg_mini.output_layers()[0]
        assert (tuned.run(x, keep="outputs")[out].data.tobytes()
                == baseline.run(x, keep="outputs")[out].data.tobytes())

    def test_mobilenet_depthwise_steps_untuned(
            self, mobilenet_mini, mobilenet_mini_calibration):
        """Depthwise steps have one lowering (the direct kernel on the
        integer pipeline), so the tuner never times them: they carry
        the reference variant and leave no tune record, while the 1x1
        convs still offer ``direct1x1``."""
        tuner = Tuner()
        plan = _split_plan(mobilenet_mini, PROCESSOR_FRIENDLY)
        program = compile_program(mobilenet_mini, plan,
                                  mobilenet_mini_calibration,
                                  tuner=tuner)
        depthwise = [s for s in program.steps
                     if s.kind == "depthwise_conv"]
        assert depthwise
        assert all(s.variant == "reference" for s in depthwise)
        records = tuner.cache.records()
        assert not any(sig.startswith("depthwise_conv|")
                       for sig in records)
        offered = set()
        for record in records.values():
            offered.update(record["candidates"])
        assert "direct1x1" in offered

    def test_describe_reports_variants(self, squeezenet_mini,
                                       squeezenet_calibration):
        plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY)
        tuned = compile_program(squeezenet_mini, plan,
                                squeezenet_calibration,
                                tuner=Tuner())
        info = tuned.describe()
        assert info["variants"] == tuned.variant_histogram()
        assert all("variant" in step for step in info["steps"])
        assert sum(info["variants"].values()) == len(tuned.steps)


class TestVerifyTunedVariantsPV014:
    def _tuned(self, graph, calibration,
               policy=PROCESSOR_FRIENDLY):
        plan = _split_plan(graph, policy)
        return plan, compile_program(graph, plan, calibration,
                                     tuner=Tuner())

    def test_clean_tuned_program_passes(self, squeezenet_mini,
                                        squeezenet_calibration):
        plan, program = self._tuned(squeezenet_mini,
                                    squeezenet_calibration)
        report = verify_tuned_variants(squeezenet_mini, plan, program)
        assert report.ok, report.render()

    def test_untuned_program_passes(self, squeezenet_mini,
                                    squeezenet_calibration):
        plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY)
        program = compile_program(squeezenet_mini, plan,
                                  squeezenet_calibration)
        report = verify_tuned_variants(squeezenet_mini, plan, program)
        assert report.ok, report.render()

    def test_illegal_variant_geometry_flagged(self, squeezenet_mini,
                                              squeezenet_calibration):
        """direct1x1 stamped onto a 3x3 conv is a lie the static rule
        must catch."""
        plan, program = self._tuned(squeezenet_mini,
                                    squeezenet_calibration)
        index, step = next(
            (i, s) for i, s in enumerate(program.steps)
            if s.kind == "conv"
            and getattr(squeezenet_mini.layer(s.layer), "kernel", 1)
            != 1)
        program.steps = list(program.steps)
        program.steps[index] = dataclasses.replace(
            step, variant="direct1x1")
        report = verify_tuned_variants(squeezenet_mini, plan, program)
        assert not report.ok
        assert any(d.rule == "PV014" for d in report.diagnostics)

    def test_unknown_variant_flagged(self, squeezenet_mini,
                                     squeezenet_calibration):
        plan, program = self._tuned(squeezenet_mini,
                                    squeezenet_calibration)
        program.steps = list(program.steps)
        program.steps[0] = dataclasses.replace(
            program.steps[0], variant="warp_speed")
        report = verify_tuned_variants(squeezenet_mini, plan, program)
        assert any(d.rule == "PV014" and "warp_speed" in d.message
                   for d in report.diagnostics)

    def test_integer_only_steps_never_timed(self, squeezenet_mini,
                                            squeezenet_calibration):
        """Integer parts have one lowering, so an all-CPU plan under
        the processor-friendly policy offers the tuner nothing; a
        variant stamped onto one of its 1x1 steps is flagged."""
        plan = ExecutionPlan(
            graph_name=squeezenet_mini.name, policy=PROCESSOR_FRIENDLY,
            assignments={name: LayerAssignment.on_cpu(name)
                         for name in squeezenet_mini.compute_layers()})
        tuner = Tuner()
        program = compile_program(squeezenet_mini, plan,
                                  squeezenet_calibration, tuner=tuner)
        assert tuner.timed == 0
        assert not tuner.cache.records()
        assert set(program.variant_histogram()) == {"reference"}
        index, step = next(
            (i, s) for i, s in enumerate(program.steps)
            if s.kind == "conv"
            and squeezenet_mini.layer(s.layer).kernel == 1)
        program.steps = list(program.steps)
        program.steps[index] = dataclasses.replace(
            step, variant="direct1x1")
        report = verify_tuned_variants(squeezenet_mini, plan, program)
        assert [d.rule for d in report.diagnostics] == ["PV014"]
        assert "integer-only" in report.diagnostics[0].message


class TestExecutorIntegration:
    def test_mulayer_tuner_produces_tuned_cached_program(self, rng):
        """A MuLayer runtime with a tuner bakes tuned variants into
        its cached program.  Integer-only steps offer no alternative
        lowering, so both runtimes serve the 0.5 CPU/GPU split, whose
        1x1 convs carry F16 parts."""
        from repro.runtime import MuLayer, PlanKey
        from repro.soc import EXYNOS_7420

        graph = build_model("squeezenet_mini")
        x = _input(graph, rng)
        calibration = calibrate_graph(graph, [x])
        tuner = Tuner()
        runtime = MuLayer(EXYNOS_7420, compiled=True, tuner=tuner)
        plain = MuLayer(EXYNOS_7420, compiled=True)
        plan = _split_plan(graph, PROCESSOR_FRIENDLY)
        key = PlanKey(model=graph.name, soc=EXYNOS_7420.name,
                      mechanism="mulayer", policy=PROCESSOR_FRIENDLY.name,
                      batch=1)
        for each in (runtime, plain):
            each.plan_cache.put(key, plan)
            assert each.plan(graph) is plan

        tuned_result = runtime.run(graph, x, calibration=calibration)
        plain_result = plain.run(graph, x, calibration=calibration)
        out = graph.output_layers()[0]
        assert (tuned_result.outputs[out].data.tobytes()
                == plain_result.outputs[out].data.tobytes())
        program = runtime.program(graph, calibration=calibration)
        # The split's 1x1 convs carry F16 parts, so the tuner timed
        # them, and every non-reference variant in the cached program
        # is one of its recorded winners.
        assert tuner.timed > 0
        winners = {record["variant"]
                   for record in tuner.cache.records().values()}
        assert set(program.variant_histogram()) - {"reference"} <= winners
        assert verify_tuned_variants(graph, plan, program).ok
