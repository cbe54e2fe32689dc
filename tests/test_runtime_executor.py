"""Tests for the NN executor: timing structure and functional output."""

import numpy as np
import pytest

from repro.compile import compile_program
from repro.errors import PlanError
from repro.models import build_model
from repro.nn import calibrate_graph, run_reference
from repro.runtime import (Executor, ExecutionPlan, LayerAssignment,
                           PROCESSOR_FRIENDLY, UNIFORM_F32, UNIFORM_QUINT8,
                           single_processor_plan)
from repro.soc import CPU, GPU


def cpu_plan(graph, policy=UNIFORM_F32):
    return single_processor_plan(graph, "cpu", policy)


def gpu_plan(graph, policy=UNIFORM_F32):
    return single_processor_plan(graph, "gpu", policy)


class TestTimingStructure:
    def test_latency_positive(self, vgg_mini, highend):
        result = Executor(highend).run(vgg_mini, cpu_plan(vgg_mini))
        assert result.latency_s > 0

    def test_timeline_validates(self, squeezenet_mini, soc):
        result = Executor(soc).run(squeezenet_mini,
                                   cpu_plan(squeezenet_mini))
        result.timeline.validate()

    def test_cpu_plan_uses_no_gpu(self, vgg_mini, highend):
        result = Executor(highend).run(vgg_mini, cpu_plan(vgg_mini))
        assert result.timeline.busy_seconds(GPU) == 0.0

    def test_gpu_plan_has_cpu_issue_only(self, vgg_mini, highend):
        result = Executor(highend).run(vgg_mini, gpu_plan(vgg_mini))
        cpu_segments = result.timeline.segments(CPU)
        assert all(s.kind in ("issue", "map", "sync", "copy")
                   for s in cpu_segments)
        assert result.timeline.busy_seconds(GPU) > 0

    def test_traces_cover_all_compute_layers(self, vgg_mini, highend):
        result = Executor(highend).run(vgg_mini, cpu_plan(vgg_mini))
        traced = {t.layer for t in result.traces}
        assert traced == set(vgg_mini.compute_layers())

    def test_traces_in_execution_order(self, vgg_mini, highend):
        result = Executor(highend).run(vgg_mini, cpu_plan(vgg_mini))
        ends = [t.end_s for t in result.traces]
        assert ends == sorted(ends)

    def test_makespan_equals_latency(self, vgg_mini, highend):
        result = Executor(highend).run(vgg_mini, cpu_plan(vgg_mini))
        assert result.latency_s == result.timeline.makespan()

    def test_traffic_accumulated(self, vgg_mini, highend):
        result = Executor(highend).run(vgg_mini, cpu_plan(vgg_mini))
        assert result.traffic_bytes > 0

    def test_quint8_traffic_smaller_than_f32(self, vgg_mini, highend):
        from repro.runtime import UNIFORM_QUINT8
        f32 = Executor(highend).run(vgg_mini, cpu_plan(vgg_mini))
        q8 = Executor(highend).run(
            vgg_mini, cpu_plan(vgg_mini, UNIFORM_QUINT8))
        assert q8.traffic_bytes < f32.traffic_bytes / 3


class TestCooperativeTiming:
    def make_coop_plan(self, graph, split=0.5):
        assignments = {}
        for name in graph.compute_layers():
            layer = graph.layer(name)
            if layer.supports_channel_split:
                assignments[name] = LayerAssignment.cooperative(name,
                                                                split)
            else:
                assignments[name] = LayerAssignment.on_cpu(name)
        return ExecutionPlan(graph_name=graph.name,
                             policy=PROCESSOR_FRIENDLY,
                             assignments=assignments)

    def test_cooperative_uses_both_processors(self, vgg_mini, highend):
        plan = self.make_coop_plan(vgg_mini)
        result = Executor(highend).run(vgg_mini, plan)
        assert result.timeline.busy_seconds(CPU) > 0
        assert result.timeline.busy_seconds(GPU) > 0

    def test_cooperative_beats_single_cpu_on_big_layers(self, highend):
        graph = build_model("vgg16", with_weights=False)
        coop = Executor(highend).run(graph, self.make_coop_plan(graph))
        from repro.runtime import UNIFORM_QUINT8
        single = Executor(highend).run(
            graph, cpu_plan(graph, UNIFORM_QUINT8))
        assert coop.latency_s < single.latency_s

    def test_sync_charged_per_cooperative_layer(self, vgg_mini, highend):
        plan = self.make_coop_plan(vgg_mini)
        result = Executor(highend).run(vgg_mini, plan)
        syncs = [s for s in result.timeline.segments(CPU)
                 if s.kind == "sync"]
        assert len(syncs) >= len(plan.cooperative_layers())

    def test_overlap_shorter_than_serial(self, highend):
        """Async issue means layer latency < cpu_busy + gpu_busy."""
        graph = build_model("vgg16", with_weights=False)
        plan = self.make_coop_plan(graph)
        result = Executor(highend).run(graph, plan)
        trace = result.trace_of("conv3_1")
        assert trace.latency_s < trace.cpu_busy_s + trace.gpu_busy_s


class TestTransitions:
    def make_alternating_plan(self, graph, policy=UNIFORM_F32):
        assignments = {}
        for i, name in enumerate(graph.compute_layers()):
            if i % 2 == 0:
                assignments[name] = LayerAssignment.on_cpu(name)
            else:
                assignments[name] = LayerAssignment.on_gpu(name)
        return ExecutionPlan(graph_name=graph.name, policy=policy,
                             assignments=assignments)

    def test_alternating_plan_charges_transitions(self, vgg_mini,
                                                  highend):
        plan = self.make_alternating_plan(vgg_mini)
        result = Executor(highend).run(vgg_mini, plan)
        kinds = {s.kind for s in result.timeline.segments(CPU)}
        assert "sync" in kinds
        assert "map" in kinds

    def test_alternating_slower_than_best_single(self, highend):
        """Layer ping-ponging pays transition costs every layer."""
        graph = build_model("vgg_mini", with_weights=False)
        alternating = Executor(highend).run(
            graph, self.make_alternating_plan(graph))
        cpu_only = Executor(highend).run(graph, cpu_plan(graph))
        assert alternating.latency_s > cpu_only.latency_s

    def test_copy_mode_slower_than_zero_copy(self, highend):
        graph = build_model("vgg_mini", with_weights=False)
        plan = self.make_alternating_plan(graph)
        zero_copy = Executor(highend, zero_copy=True).run(graph, plan)
        copies = Executor(highend, zero_copy=False).run(graph, plan)
        assert copies.latency_s > zero_copy.latency_s

    def test_sync_issue_slower_than_async(self, highend):
        graph = build_model("vgg16", with_weights=False)
        plan = TestCooperativeTiming().make_coop_plan(graph)
        async_run = Executor(highend, async_issue=True).run(graph, plan)
        sync_run = Executor(highend, async_issue=False).run(graph, plan)
        assert sync_run.latency_s > async_run.latency_s


class TestFunctionalExecution:
    def test_f32_output_matches_reference(self, squeezenet_mini,
                                          single_input, highend):
        result = Executor(highend).run(
            squeezenet_mini, cpu_plan(squeezenet_mini), x=single_input)
        ref = run_reference(squeezenet_mini,
                            {"input": single_input})["softmax"]
        np.testing.assert_allclose(result.output_array(), ref,
                                   rtol=1e-5, atol=1e-6)

    def test_timing_only_run_has_no_outputs(self, squeezenet_mini,
                                            highend):
        result = Executor(highend).run(squeezenet_mini,
                                       cpu_plan(squeezenet_mini))
        assert result.outputs is None
        with pytest.raises(ValueError, match="timing-only"):
            result.output_array()

    def test_quantized_run_needs_calibration(self, squeezenet_mini,
                                             single_input, highend):
        from repro.errors import QuantizationError
        from repro.runtime import UNIFORM_QUINT8
        plan = cpu_plan(squeezenet_mini, UNIFORM_QUINT8)
        with pytest.raises(QuantizationError):
            Executor(highend).run(squeezenet_mini, plan, x=single_input)

    def test_pfq_cooperative_output_close_to_reference(
            self, squeezenet_mini, single_input, squeezenet_calibration,
            highend):
        plan = TestCooperativeTiming().make_coop_plan(squeezenet_mini)
        result = Executor(highend).run(squeezenet_mini, plan,
                                       x=single_input,
                                       calibration=squeezenet_calibration)
        ref = run_reference(squeezenet_mini,
                            {"input": single_input})["softmax"]
        out = result.output_array()
        assert np.corrcoef(out.ravel(), ref.ravel())[0, 1] > 0.99

    def test_trace_lookup(self, vgg_mini, highend):
        result = Executor(highend).run(vgg_mini, cpu_plan(vgg_mini))
        assert result.trace_of("conv1_1").layer == "conv1_1"
        with pytest.raises(KeyError):
            result.trace_of("ghost")


class TestTimingMemo:
    """Compiled and timing-only runs simulate each (graph, plan, batch)
    once; every later run replays the outcome."""

    @pytest.fixture
    def weighted(self, rng):
        """A private vgg_mini (tests install new weights on it), its
        calibration, a GPU plan and one input."""
        from repro.models import build_model
        from repro.nn import calibrate_graph
        graph = build_model("vgg_mini")
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        calibration = calibrate_graph(graph, [x])
        return graph, calibration, gpu_plan(graph, PROCESSOR_FRIENDLY), x

    @staticmethod
    def timing_of(result):
        return (result.latency_s, result.energy, result.traces,
                result.traffic_bytes, result.batch,
                [result.timeline.segments(r) for r in (CPU, GPU)])

    def test_compiled_runs_replay_timing(self, weighted, highend):
        graph, calibration, plan, x = weighted
        executor = Executor(highend)
        program = compile_program(graph, plan, calibration)
        first = executor.run(graph, plan, x=x, calibration=calibration,
                             program=program, mechanism="a")
        second = executor.run(graph, plan, x=x, calibration=calibration,
                              program=program, mechanism="b")
        assert self.timing_of(first) == self.timing_of(second)
        assert first is not second
        assert (first.mechanism, second.mechanism) == ("a", "b")
        assert first.outputs is not second.outputs
        for name in first.outputs:
            assert first.outputs[name].data.tobytes() == \
                second.outputs[name].data.tobytes()
        assert (executor.timing_misses, executor.timing_hits) == (1, 1)

    def test_set_weights_recompiles_but_reuses_timing(self, weighted,
                                                      highend):
        graph, calibration, plan, x = weighted
        executor = Executor(highend)
        program = compile_program(graph, plan, calibration)
        before = executor.run(graph, plan, x=x, calibration=calibration,
                              program=program)
        for name in graph.compute_layers():
            layer = graph.layer(name)
            if getattr(layer, "weights", None) is not None:
                layer.set_weights(layer.weights * np.float32(1.5),
                                  layer.bias)
        with pytest.raises(PlanError, match="stale"):
            executor.run(graph, plan, x=x, calibration=calibration,
                         program=program)
        after = executor.run(graph, plan, x=x, calibration=calibration,
                             program=compile_program(graph, plan,
                                                     calibration))
        assert (executor.timing_misses, executor.timing_hits) == (1, 1)
        assert self.timing_of(before) == self.timing_of(after)
        reference = Executor(highend).run(
            graph, plan, x=x, calibration=calibration)
        for name in reference.outputs:
            assert after.outputs[name].data.tobytes() == \
                reference.outputs[name].data.tobytes()

    def test_new_plan_or_batch_resimulates(self, vgg_mini, highend):
        executor = Executor(highend)
        plan = cpu_plan(vgg_mini)
        executor.run(vgg_mini, plan)
        executor.run(vgg_mini, plan)
        assert (executor.timing_misses, executor.timing_hits) == (1, 1)
        equal_plan = cpu_plan(vgg_mini)
        executor.run(vgg_mini, equal_plan)
        assert executor.timing_misses == 2
        batched = executor.run(vgg_mini, plan, batch=2)
        assert executor.timing_misses == 3 and batched.batch == 2
        assert executor.stats()["timing_entries"] == 3.0

    def test_recycled_ids_miss(self, vgg_mini, highend):
        # A dead plan's id() can be reused by a new plan; the entry's
        # stored references must reject it.  Simulated by re-filing
        # the CPU plan's entry under the GPU plan's key.
        executor = Executor(highend)
        cpu, gpu = cpu_plan(vgg_mini), gpu_plan(vgg_mini)
        executor.run(vgg_mini, cpu)
        executor._timings[(id(vgg_mini), id(gpu), 1)] = \
            executor._timings.pop((id(vgg_mini), id(cpu), 1))
        result = executor.run(vgg_mini, gpu)
        assert executor.timing_misses == 2
        assert result.latency_s == Executor(highend).run(
            vgg_mini, gpu).latency_s

    def test_interpreted_runs_bypass_the_memo(self, squeezenet_mini,
                                              single_input, highend):
        executor = Executor(highend)
        plan = cpu_plan(squeezenet_mini)
        executor.run(squeezenet_mini, plan, x=single_input)
        executor.run(squeezenet_mini, plan, x=single_input)
        assert executor.stats()["timing_entries"] == 0.0

    def test_verify_diagnostics_stay_off_the_memo(self, weighted,
                                                  highend):
        graph, calibration, plan, x = weighted
        executor = Executor(highend, verify=True)
        program = compile_program(graph, plan, calibration)
        first = executor.run(graph, plan, x=x, calibration=calibration,
                             program=program)
        second = executor.run(graph, plan, x=x, calibration=calibration,
                              program=program)
        assert first.diagnostics is not None
        assert second.diagnostics is not None
        assert first.diagnostics is not second.diagnostics
        (entry,) = executor._timings.values()
        assert entry[2].diagnostics is None
        assert entry[2].outputs is None
        assert executor.timing_hits == 1

    def test_memo_hit_equals_uncached_simulation(self, soc):
        from repro.models import build_model
        from repro.runtime import MuLayer
        from repro.runtime.executor import _RunState
        graph = build_model("googlenet_mini", with_weights=False)
        plan = MuLayer(soc, use_oracle_costs=True).plan(graph)
        executor = Executor(soc)
        executor.run(graph, plan, mechanism="mulayer")
        hit = executor.run(graph, plan, mechanism="mulayer")
        assert executor.timing_hits == 1
        state = _RunState(Executor(soc), graph, plan, None, None, 1)
        state.execute()
        fresh = state.result("mulayer")
        assert hit.to_dict() == fresh.to_dict()
        assert self.timing_of(hit) == self.timing_of(fresh)

    def test_fifteen_keys_stay_resident(self, highend):
        from repro.models import MINI_MODELS, build_model
        graphs = [build_model(name, with_weights=False)
                  for name in MINI_MODELS[:5]]
        plans = [cpu_plan(graph) for graph in graphs]
        executor = Executor(highend)
        for _ in range(3):
            for graph, plan in zip(graphs, plans):
                for batch in (1, 2, 4):
                    executor.run(graph, plan, batch=batch)
        stats = executor.stats()
        assert stats["timing_entries"] == 15.0
        assert stats["timing_misses"] == 15.0
        assert stats["timing_hits"] == 30.0
        assert stats["timing_evictions"] == 0.0
        assert stats["timing_hit_rate"] == pytest.approx(2 / 3)

    def test_lru_evicts_beyond_capacity(self, vgg_mini, highend):
        executor = Executor(highend)
        executor._TIMING_MEMO_ENTRIES = 2
        plan = cpu_plan(vgg_mini)
        for batch in (1, 2, 3, 1):
            executor.run(vgg_mini, plan, batch=batch)
        stats = executor.stats()
        assert stats["timing_entries"] == 2.0
        assert stats["timing_evictions"] == 2.0
        assert stats["timing_misses"] == 4.0


class TestProgramPlanIdentity:
    """A program is only ever run under the plan it was lowered from."""

    def test_program_from_another_plan_raises(self, rng, highend):
        graph = build_model("vgg_mini")
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        calibration = calibrate_graph(graph, [x])
        cpu = cpu_plan(graph, PROCESSOR_FRIENDLY)
        gpu = gpu_plan(graph, PROCESSOR_FRIENDLY)
        program = compile_program(graph, gpu, calibration)
        with pytest.raises(PlanError, match="different plan"):
            Executor(highend).run(graph, cpu, x=x,
                                  calibration=calibration,
                                  program=program)
        # An equal-valued copy of the plan is still another object.
        with pytest.raises(PlanError, match="different plan"):
            Executor(highend).run(graph, gpu_plan(graph,
                                                  PROCESSOR_FRIENDLY),
                                  x=x, calibration=calibration,
                                  program=program)
        result = Executor(highend).run(graph, gpu, x=x,
                                       calibration=calibration,
                                       program=program)
        assert result.outputs is not None


class TestOpCachesKeyword:
    """``op_caches=False`` is the only legal value: the interpreter is
    uncached either way."""

    def test_op_caches_false_accepted(self, soc):
        Executor(soc, op_caches=False)

    def test_op_caches_true_raises(self, highend):
        with pytest.raises(ValueError, match="op_caches"):
            Executor(highend, op_caches=True)
