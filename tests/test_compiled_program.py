"""Lifecycle of compiled programs: caching, invalidation, PV012.

A compiled program lowers one specific plan over one specific set of
weight arrays; these tests pin the discipline that keeps it honest:
programs live and die with their plan in the :class:`PlanCache`,
``set_weights`` makes cached programs stale (identity-validated
lookups miss and recompile), and the PV012 verification rule proves a
program consistent with the plan it claims to implement.
"""

import dataclasses

import numpy as np
import pytest

import repro.nn
from repro.analysis import verify_program
from repro.cli import main
from repro.compile import compile_program
from repro.errors import NonFiniteInputError
from repro.nn import calibrate_graph
from repro.runtime import MuLayer, PROCESSOR_FRIENDLY, UNIFORM_F32
from repro.runtime.baselines import single_processor_plan
from repro.runtime.executor import Executor
from repro.runtime.plan_cache import PlanCache, PlanKey
from repro.soc import EXYNOS_7420


def _key(name="m", batch=1):
    return PlanKey(model=name, soc="exynos7420", mechanism="mulayer",
                   policy="pfq", batch=batch)


def _plan(graph):
    return single_processor_plan(graph, "cpu", UNIFORM_F32)


class TestPlanCachePrograms:
    def test_program_cached_next_to_plan(self, vgg_mini):
        cache = PlanCache()
        plan = _plan(vgg_mini)
        program = compile_program(vgg_mini, plan)
        cache.put(_key(), plan)
        cache.put_program(_key(), 1, program)
        assert cache.program_count() == 1
        assert cache.get_program(_key(), 1, graph=vgg_mini) is program
        assert cache.program_hits == 1

    def test_put_program_requires_plan(self, vgg_mini):
        cache = PlanCache()
        program = compile_program(vgg_mini, _plan(vgg_mini))
        with pytest.raises(KeyError):
            cache.put_program(_key(), 1, program)

    def test_replacing_plan_drops_its_programs(self, vgg_mini):
        cache = PlanCache()
        plan = _plan(vgg_mini)
        cache.put(_key(), plan)
        cache.put_program(_key(), 1, compile_program(vgg_mini, plan))
        cache.put(_key(), dataclasses.replace(plan))
        assert cache.program_count() == 0
        assert cache.program_evictions == 1
        assert cache.get_program(_key(), 1) is None

    def test_lru_eviction_drops_programs(self, vgg_mini):
        cache = PlanCache(max_entries=1)
        plan = _plan(vgg_mini)
        cache.put(_key("a"), plan)
        cache.put_program(_key("a"), 1,
                          compile_program(vgg_mini, plan))
        cache.put(_key("b"), dataclasses.replace(plan))
        assert _key("a") not in cache
        assert cache.program_count() == 0
        assert cache.program_evictions == 1
        # The bound holds on the program side too: a second batch's
        # program evicts the least recently used one.
        program = compile_program(vgg_mini, plan)
        cache.put_program(_key("b"), 1, program)
        cache.put_program(_key("b"), 2, program)
        assert cache.program_count() == 1
        assert cache.program_evictions == 2
        assert cache.get_program(_key("b"), 1) is None

    def test_set_weights_invalidates_cached_program(self, rng):
        """New weight arrays make the cached program stale: the
        identity-validated lookup misses, and the runtime recompiles
        against the new arrays.  The old program baked its own operand
        copies, so its output bytes do not move."""
        from repro.models import build_model

        graph = build_model("vgg_mini")
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        out = graph.output_layers()[0]
        runtime = MuLayer(EXYNOS_7420, UNIFORM_F32)
        first = runtime.program(graph)
        assert runtime.program(graph) is first   # cached
        old_bytes = first.run(x, keep="outputs")[out].data.tobytes()

        name = next(n for n in graph.compute_layers()
                    if graph.layer(n).weights is not None)
        layer = graph.layer(name)
        layer.set_weights(layer.weights * 1.05, layer.bias.copy())
        assert first.is_stale(graph)
        assert (first.run(x, keep="outputs")[out].data.tobytes()
                == old_bytes)
        misses_before = runtime.plan_cache.program_misses
        second = runtime.program(graph)
        assert second is not first
        assert runtime.plan_cache.program_misses == misses_before + 1
        assert not second.is_stale(graph)

        compiled = runtime.run(graph, x, compiled=True)
        functional = runtime.run(graph, x, compiled=False)
        assert (compiled.outputs[out].data.tobytes()
                == functional.outputs[out].data.tobytes())
        assert compiled.outputs[out].data.tobytes() != old_bytes

    def test_compiled_request_looks_up_plan_and_program_once(self, rng):
        """A compiled MuLayer.run takes its plan from the program it
        looked up, so each request costs one plan-cache lookup and one
        program lookup."""
        from repro.models import build_model
        from repro.nn import calibrate_graph

        graph = build_model("vgg_mini")
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        calibration = calibrate_graph(graph, [x])
        runtime = MuLayer(EXYNOS_7420, compiled=True)
        runtime.run(graph, x, calibration=calibration)
        cache = runtime.plan_cache
        plans = cache.hits + cache.misses
        programs = cache.program_hits + cache.program_misses
        requests = 10
        for _ in range(requests):
            runtime.run(graph, x, calibration=calibration)
        assert cache.hits + cache.misses == plans + requests
        assert (cache.program_hits + cache.program_misses
                == programs + requests)
        assert cache.misses == 1 and cache.program_misses == 1


class TestVerifyProgramPV012:
    def test_clean_program_passes(self, vgg_mini):
        plan = _plan(vgg_mini)
        program = compile_program(vgg_mini, plan)
        report = verify_program(vgg_mini, plan, program)
        assert report.ok, report.render()

    def test_wrong_plan_object_is_flagged(self, vgg_mini):
        plan = _plan(vgg_mini)
        program = compile_program(vgg_mini, plan)
        report = verify_program(vgg_mini, dataclasses.replace(plan),
                                program)
        assert not report.ok
        assert any(d.rule == "PV012" for d in report.diagnostics)

    def test_stale_weights_are_flagged(self, rng):
        from repro.models import build_model

        graph = build_model("vgg_mini")
        plan = _plan(graph)
        program = compile_program(graph, plan)
        name = next(n for n in graph.compute_layers()
                    if graph.layer(n).weights is not None)
        layer = graph.layer(name)
        layer.set_weights(layer.weights.copy(), layer.bias.copy())
        report = verify_program(graph, plan, program)
        assert not report.ok
        assert any(d.rule == "PV012" for d in report.diagnostics)


NON_FINITE = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])


def _poisoned(x, value):
    bad = x.copy()
    bad[0, 1, 2, 3] = value
    return bad


class TestNonFiniteInputs:
    """NaN has no uint8 code and +-inf would saturate silently, so
    both entry points reject any non-finite input."""

    @NON_FINITE
    def test_program_run_rejects(self, squeezenet_mini,
                                 squeezenet_calibration, single_input,
                                 value):
        program = MuLayer(EXYNOS_7420, compiled=True).program(
            squeezenet_mini, calibration=squeezenet_calibration, batch=1)
        bad = _poisoned(single_input, value)
        for keep in ("outputs", "all"):
            with pytest.raises(NonFiniteInputError, match="finite"):
                program.run(bad, keep=keep)

    @NON_FINITE
    def test_executor_run_rejects(self, squeezenet_mini,
                                  squeezenet_calibration, single_input,
                                  value):
        plan = single_processor_plan(squeezenet_mini, "cpu",
                                     PROCESSOR_FRIENDLY)
        program = compile_program(squeezenet_mini, plan,
                                  squeezenet_calibration)
        bad = _poisoned(single_input, value)
        executor = Executor(EXYNOS_7420)
        for compiled in (None, program):
            with pytest.raises(NonFiniteInputError):
                executor.run(squeezenet_mini, plan, x=bad,
                             calibration=squeezenet_calibration,
                             program=compiled)

    def test_finite_input_runs(self, squeezenet_mini,
                               squeezenet_calibration, single_input):
        extreme = single_input.copy()
        extreme[0, 0, 0, 0] = np.finfo(np.float32).max
        program = MuLayer(EXYNOS_7420, compiled=True).program(
            squeezenet_mini, calibration=squeezenet_calibration, batch=1)
        assert program.run(extreme)

    @NON_FINITE
    def test_cli_exits_2(self, monkeypatch, capsys, value):
        """``run --compiled`` calibrates on its input and then runs it;
        the input is poisoned between the two."""
        real = calibrate_graph

        def poisoning(graph, batches):
            calibration = real(graph, batches)
            batches[0][0, 0, 0, 0] = value
            return calibration

        monkeypatch.setattr(repro.nn, "calibrate_graph", poisoning)
        assert main(["run", "--model", "squeezenet_mini",
                     "--compiled"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "finite" in err[0]
