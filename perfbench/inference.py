"""The three inference workloads: ``mini-b1``, ``full-b1``, ``mini-churn``.

Each is a closed loop with one caller on the Exynos 7420 under the
processor-friendly policy, serving compiled programs on one thread
(``workers=None``).  A run

1. makes its inputs from the seed (calibration batches, a small pool
   of request inputs per (model, batch) and the request stream);
2. stands the runtime up several times from nothing -- graph build,
   calibration, planning with a freshly fitted predictor, compile and,
   where the workload tunes, a fresh :class:`~repro.tune.Tuner` -- and
   reports the median as ``setup_s``;
3. computes, outside any timed region, the uncached interpreter
   oracle (an :class:`~repro.runtime.Executor` with ``op_caches=False``
   running the same plan) for every distinct (model, batch, input,
   weights) the run serves, and the timing-only simulated latency and
   energy of every (model, batch);
4. serves requests for the measured seconds, timing each
   ``MuLayer.run`` call; every output is compared byte for byte with
   the oracle and every simulated latency/energy with the timing-only
   value, outside the timed call.

The seed draws the workload's mix: how many of the
:data:`STREAM_REQUESTS` requests of the stream go to each
(model, batch).  The stream is served in rounds that each hold every
(model, batch) with requests left once, in seeded order, so whatever
prefix a run serves is balanced and its latencies do not shift with
the draw.  The simulated SoC latency and energy are the exact mean
over the whole stream of each request's timing-only figures: they
depend on the seed through the mix, never on how many requests the
host served.

With tracing on, the measured seconds are split: the first half runs
untraced (the baseline of ``trace.overhead_pct`` and
``request.self_ms``), the second half with spans around the layers'
public functions.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
import traceback
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.compile import compile_program
from repro.models import MINI_MODELS, build_model
from repro.nn import Graph, calibrate_graph
from repro.quant.calibrate import CalibrationTable
from repro.runtime import Executor, MuLayer
from repro.soc import EXYNOS_7420
from repro.tune import Tuner

from metrics import error_rate, summarize, tail_supported
from tracing import Tracer

SOC = EXYNOS_7420

#: Samples per calibration batch (one batch per model).
CALIBRATION_SAMPLES = 2

#: Requests in the seeded stream; a run serves a prefix of it.
STREAM_REQUESTS = 100_000

Key = Tuple[str, int]   # (model, batch)

#: Per-layer metrics of layers these workloads never reach; a traced
#: run reports them as 0.
BYPASSED = (
    "serve.scheduler_ms", "serve.fleet_ms", "cluster.router_ms",
    "cluster.autoscaler_ms", "cluster.loop_self_ms",
    "serve.queue_wait_ms_mean", "serve.batch_size_mean",
    "cluster.scale_events", "cluster.shed_share",
    "cluster.sim_latency_ms_p50", "cluster.sim_latency_ms_p99",
    "cluster.slo_attainment",
)


@dataclasses.dataclass(frozen=True)
class InferenceSpec:
    """One inference workload.

    Attributes:
        models: the models the seeded request order draws from.
        batches: batch sizes the order draws from.
        tuned: compile through a fresh :class:`Tuner` per set-up.
        setups: fresh set-ups per run (``setup_s`` is their median).
        serve_all: spread requests round-robin over every set-up's
            runtime instead of serving from the last one; used where
            independent tuners pick different variants, so one run's
            latency averages several tuner outcomes.
        inputs_per_key: distinct request inputs per (model, batch).
        tail_q: the latency percentile reported as ``latency_ms_tail``
            (the highest one the run's sample count supports, with
            ten samples beyond it).
        update_every: every this many requests, new same-shape
            weights are installed on one model (0: never).
    """

    models: Tuple[str, ...]
    batches: Tuple[int, ...]
    tuned: bool
    setups: int
    serve_all: bool
    inputs_per_key: int
    tail_q: float
    update_every: int = 0


SPECS: Dict[str, InferenceSpec] = {
    "mini-b1": InferenceSpec(models=MINI_MODELS, batches=(1,),
                             tuned=False, setups=9, serve_all=False,
                             inputs_per_key=8, tail_q=95.0),
    "full-b1": InferenceSpec(models=("squeezenet", "mobilenet",
                                     "googlenet"),
                             batches=(1,), tuned=True, setups=3,
                             serve_all=True, inputs_per_key=2,
                             tail_q=75.0),
    "mini-churn": InferenceSpec(models=MINI_MODELS, batches=(1, 2, 4),
                                tuned=True, setups=9, serve_all=False,
                                inputs_per_key=4, tail_q=95.0,
                                update_every=100),
}


def sample_shape(graph: Graph) -> Tuple[int, ...]:
    """Shape of one input sample (without the batch axis)."""
    return tuple(graph.layer(graph.input_layers()[0]).shape[1:])


@dataclasses.dataclass
class Replica:
    """One set-up: a runtime with its graphs, calibrations and the
    programs it compiled (each holds its plan)."""

    runtime: MuLayer
    tuner: Optional[Tuner]
    graphs: Dict[str, Graph]
    calibrations: Dict[str, CalibrationTable]
    programs: Dict[Key, object]


class Inputs:
    """Everything a run draws from its seed."""

    def __init__(self, spec: InferenceSpec, seed: int) -> None:
        rng = np.random.default_rng(seed)
        shapes = {name: sample_shape(build_model(name,
                                                 with_weights=False))
                  for name in spec.models}
        self.calibration = {
            name: rng.standard_normal(
                (CALIBRATION_SAMPLES,) + shapes[name]).astype(np.float32)
            for name in spec.models}
        self.keys: List[Key] = [(name, batch) for name in spec.models
                                for batch in spec.batches]
        self.requests = {
            key: [rng.standard_normal((key[1],) + shapes[key[0]])
                  .astype(np.float32)
                  for _ in range(spec.inputs_per_key)]
            for key in self.keys}
        #: The mix: requests of the stream per (model, batch).
        self.counts = rng.multinomial(
            STREAM_REQUESTS, [1.0 / len(self.keys)] * len(self.keys))
        self._order_seed = int(rng.integers(2 ** 31))
        self._update_seed = int(rng.integers(2 ** 31))

    def order(self) -> Iterator[Tuple[Key, int]]:
        """Request order: the stream in rounds, each a seeded
        permutation of the (model, batch)s with requests left (from the
        start again if a run ever serves all of it); the input of each
        request is drawn uniformly from the key's pool."""
        rng = np.random.default_rng(self._order_seed)
        count = len(next(iter(self.requests.values())))
        while True:
            left = self.counts.copy()
            while left.any():
                for index in rng.permutation(np.flatnonzero(left)):
                    left[index] -= 1
                    yield self.keys[index], int(rng.integers(count))

    def updates(self, models: Tuple[str, ...]
                ) -> Iterator[Tuple[str, float]]:
        """Weight updates: (model, scale of the original weights).
        Each block of ``len(models)`` updates is a seeded permutation
        of the models, so rebuild cost does not vary with the draw."""
        rng = np.random.default_rng(self._update_seed)
        while True:
            for index in rng.permutation(len(models)):
                yield models[index], float(rng.uniform(0.8, 1.2))


def set_up(spec: InferenceSpec, inputs: Inputs,
           tracer: Optional[Tracer] = None) -> Replica:
    """Stand the workload's runtime up from nothing."""
    def call(name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    tuner = Tuner() if spec.tuned else None
    runtime = call("runtime.init", MuLayer, SOC, compiled=True,
                   tuner=tuner)
    if tracer is not None:
        trace_runtime(runtime, tracer)
    replica = Replica(runtime, tuner, {}, {}, {})
    for name in spec.models:
        graph = call("models.build", build_model, name)
        calibration = call("nn.calibrate", calibrate_graph, graph,
                           [inputs.calibration[name]])
        replica.graphs[name] = graph
        replica.calibrations[name] = calibration
        for batch in spec.batches:
            replica.programs[(name, batch)] = runtime.program(
                graph, calibration=calibration, batch=batch)
    return replica


def trace_runtime(runtime: MuLayer, tracer: Tracer) -> None:
    """Spans around the runtime's public layer boundaries.

    A ``MuLayer.program`` call that missed the plan cache's program
    table compiled a program and is filed as ``compile.compile``; every
    program handed out gets its ``run`` traced.
    """
    tracer.wrap(runtime, "plan", "runtime.plan")
    tracer.wrap(runtime.partitioner, "plan", "runtime.partition")
    tracer.wrap(runtime.executor, "run", "runtime.executor.run")
    lookup = runtime.program
    cache = runtime.plan_cache
    traced: Dict[int, object] = {}

    def traced_program(*args, **kwargs):
        frame = tracer.open()
        misses = cache.program_misses
        name = "runtime.program"
        try:
            program = lookup(*args, **kwargs)
            if cache.program_misses != misses:
                name = "compile.compile"
            if traced.get(id(program)) is not program:
                traced[id(program)] = program
                tracer.wrap(program, "run", "compile.program.run")
            return program
        finally:
            tracer.close(name, frame)

    tracer.shadow(runtime, "program", traced_program)


def output_images(graph: Graph, outputs) -> Dict[str, bytes]:
    """Byte images of a result's graph outputs."""
    return {name: outputs[name].data.tobytes()
            for name in graph.output_layers()}


class Oracle:
    """Outputs of the uncached interpreter, one per distinct
    (model, batch, input, weights version)."""

    def __init__(self) -> None:
        self._images: Dict[tuple, Dict[str, bytes]] = {}

    def expected(self, replica: Replica, key: Key, index: int,
                 version: int, x: np.ndarray) -> Dict[str, bytes]:
        """The oracle's output images (computed on first use, with the
        weights installed now)."""
        entry = (key, index, version)
        images = self._images.get(entry)
        if images is None:
            model, batch = key
            graph = replica.graphs[model]
            result = Executor(SOC, op_caches=False).run(
                graph, replica.programs[key].plan, x=x,
                calibration=replica.calibrations[model],
                mechanism="mulayer", batch=batch)
            images = output_images(graph, result.outputs)
            self._images[entry] = images
        return images


@dataclasses.dataclass
class Served:
    """What one measured phase served."""

    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    keys: List[Key] = dataclasses.field(default_factory=list)
    #: Traced runs: time inside each request's child spans.
    children_ms: List[float] = dataclasses.field(default_factory=list)
    samples: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    raised: int = 0
    mismatched: int = 0
    sim_differs: int = 0
    first_error: Optional[str] = None

    @property
    def failed(self) -> int:
        return self.raised + self.mismatched


class Loop:
    """The closed loop: one caller, next request after the last one."""

    def __init__(self, spec: InferenceSpec, inputs: Inputs,
                 serving: List[Replica]) -> None:
        self.spec = spec
        self.inputs = inputs
        self.serving = serving
        self.order = inputs.order()
        self.updates = inputs.updates(spec.models)
        self.versions = {name: 0 for name in spec.models}
        self.oracle = Oracle()
        self.requests = 0
        self.updates_installed = 0
        replica = serving[0]
        #: Original weights, scaled by each update.
        self._base = {
            name: {layer: (graph.layer(layer).weights,
                           graph.layer(layer).bias)
                   for layer in graph.compute_layers()
                   if getattr(graph.layer(layer), "weights", None)
                   is not None}
            for name, graph in replica.graphs.items()}
        #: Timing-only (no data) simulated latency and energy.
        self.simulated = {
            key: self._simulate(replica, key) for key in inputs.keys}
        for key, pool in inputs.requests.items():
            for index, x in enumerate(pool):
                self.oracle.expected(replica, key, index, 0, x)

    def soc_means(self) -> Tuple[float, float]:
        """Simulated SoC latency (ms) and energy (mJ) per sample, the
        mean over every request of the seeded stream.  Each request's
        figures are its (model, batch)'s timing-only ones, which every
        served request is checked against."""
        latency_ms = energy_mj = 0.0
        for count, key in zip(self.inputs.counts, self.inputs.keys):
            latency_s, energy = self.simulated[key]
            latency_ms += count * latency_s * 1e3 / key[1]
            energy_mj += count * energy / key[1]
        return (float(latency_ms / STREAM_REQUESTS),
                float(energy_mj / STREAM_REQUESTS))

    @staticmethod
    def _simulate(replica: Replica, key: Key) -> Tuple[float, float]:
        model, batch = key
        result = Executor(SOC).run(replica.graphs[model],
                                   replica.programs[key].plan,
                                   mechanism="mulayer", batch=batch)
        return result.latency_s, result.energy_mj

    def _install_update(self) -> None:
        """New same-shape weights on one model (``set_weights``)."""
        model, scale = next(self.updates)
        for replica in self.serving:
            graph = replica.graphs[model]
            for layer, (weights, bias) in self._base[model].items():
                graph.layer(layer).set_weights(
                    weights * np.float32(scale), bias)
        self.versions[model] += 1
        self.updates_installed += 1

    def serve(self, seconds: float,
              tracer: Optional[Tracer] = None) -> Served:
        """Serve requests for ``seconds`` of wall-clock time."""
        served = Served()
        every = self.spec.update_every
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            index = self.requests
            self.requests += 1
            if every and index and index % every == 0:
                self._install_update()
            key, input_index = next(self.order)
            model, batch = key
            replica = self.serving[index % len(self.serving)]
            graph = replica.graphs[model]
            calibration = replica.calibrations[model]
            x = self.inputs.requests[key][input_index]
            served.attempted += 1
            try:
                if tracer is None:
                    start = time.perf_counter()
                    result = replica.runtime.run(graph, x=x,
                                                 calibration=calibration)
                    elapsed = time.perf_counter() - start
                else:
                    tracer.request = index
                    inside = (tracer.total_s("request")
                              - tracer.self_s("request"))
                    start = time.perf_counter()
                    result = tracer.call("request", replica.runtime.run,
                                         graph, x=x,
                                         calibration=calibration)
                    elapsed = time.perf_counter() - start
                    served.children_ms.append(
                        (tracer.total_s("request")
                         - tracer.self_s("request") - inside) * 1e3)
            except Exception:   # a failed request is counted, not fatal
                served.raised += 1
                if served.first_error is None:
                    served.first_error = traceback.format_exc()
                continue
            served.latencies_ms.append(elapsed * 1e3)
            served.busy_s += elapsed
            served.samples += batch
            served.keys.append(key)
            expected = self.oracle.expected(
                replica, key, input_index, self.versions[model], x)
            if output_images(graph, result.outputs) != expected:
                served.mismatched += 1
            if (result.latency_s, result.energy_mj) != \
                    self.simulated[key]:
                served.sim_differs += 1
        return served


def computed_mb(graph: Graph, program, batch: int) -> float:
    """Bytes one run moves, computed from tensor sizes (not measured):
    every step reads its inputs and weights and writes its output at
    the step's storage width."""
    total = 0
    for step in program.steps:
        work = graph.layer_work(step.layer)
        total += ((work.input_elements + work.output_elements) * batch
                  + work.param_elements) * step.dtype.itemsize
    return total / 1e6


def variants(replica: Replica) -> List[str]:
    """The kernel variant of every step of a set-up's programs."""
    return [step.variant for key in sorted(replica.programs)
            for step in replica.programs[key].steps]


def plan_cache_stats(serving: List[Replica]) -> Dict[str, float]:
    """Plan-cache counters summed over the serving runtimes."""
    total: Dict[str, float] = {}
    for replica in serving:
        for name, value in replica.runtime.plan_cache.stats().items():
            total[name] = total.get(name, 0.0) + value
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """One run of an inference workload; see the module docstring."""
    spec = SPECS[workload]
    inputs = Inputs(spec, seed)
    tracer = Tracer() if trace else None
    serving: List[Replica] = []
    picks: List[List[str]] = []
    setup_s: List[float] = []
    for _ in range(spec.setups):
        start = time.perf_counter()
        replica = set_up(spec, inputs, tracer)
        setup_s.append(time.perf_counter() - start)
        if len(picks) < 2:
            picks.append(variants(replica))
        # Only the runtimes that serve stay alive (peak_rss_mb).
        serving = serving + [replica] if spec.serve_all else [replica]
        del replica
    loop = Loop(spec, inputs, serving)

    histogram: Dict[str, int] = {}
    for replica in serving:
        for variant in variants(replica):
            histogram[variant] = histogram.get(variant, 0) + 1
    record: Dict[str, object] = {
        "setup_s_samples": setup_s,
        "variant_histogram": dict(sorted(histogram.items())),
        "tail_percentile": spec.tail_q,
        "mix": inputs.counts.tolist(),
    }
    if tracer is None:
        served = loop.serve(seconds)
        record.update(requests=served.attempted,
                      updates=loop.updates_installed,
                      tail_supported=tail_supported(
                          len(served.latencies_ms), spec.tail_q))
        soc_ms, soc_mj = loop.soc_means()
        metrics = dict(summarize(served.latencies_ms, spec.tail_q))
        metrics.update({
            "setup_s": statistics.median(setup_s),
            "throughput_sps": ratio(served.samples, served.busy_s),
            "soc_latency_ms_mean": soc_ms,
            "soc_energy_mj_mean": soc_mj,
        })
        return finish(served, metrics, record)

    # Traced run: set-up phase first (already traced above).
    per_setup = 1.0 / spec.setups
    layer: Dict[str, float] = {
        "models.build_ms": tracer.total_s("models.build") * 1e3
        * per_setup,
        "nn.calibrate_ms": tracer.total_s("nn.calibrate") * 1e3
        * per_setup,
        "runtime.plan_ms": (tracer.total_s("runtime.init")
                            + tracer.total_s("runtime.partition"))
        * 1e3 * per_setup,
        "runtime.plans_built": tracer.count("runtime.partition")
        * per_setup,
        "compile.compile_ms": tracer.self_s("compile.compile") * 1e3
        * per_setup,
        "compile.programs_built": tracer.count("compile.compile")
        * per_setup,
    }
    tracer.unwrap()
    untuned_s = 0.0
    if spec.tuned:
        replica = serving[0]
        for (model, batch), program in sorted(replica.programs.items()):
            start = time.perf_counter()
            compile_program(replica.graphs[model], program.plan,
                            calibration=replica.calibrations[model],
                            batch=batch, mechanism="mulayer")
            untuned_s += time.perf_counter() - start
        layer["tune.tune_ms"] = (layer["compile.compile_ms"]
                                 - untuned_s * 1e3)
    else:
        layer["tune.tune_ms"] = 0.0

    baseline = loop.serve(seconds / 2.0)
    tracer.reset_totals()
    for replica in serving:
        trace_runtime(replica.runtime, tracer)
    before = plan_cache_stats(serving)
    served = loop.serve(seconds / 2.0, tracer)
    after = plan_cache_stats(serving)
    tracer.unwrap()
    requests = max(len(served.latencies_ms), 1)
    # The two halves serve different stretches of the request order,
    # so traced requests are compared with untraced requests of the
    # same (model, batch).
    untraced: Dict[Key, List[float]] = {}
    for key, ms in zip(baseline.keys, baseline.latencies_ms):
        untraced.setdefault(key, []).append(ms)
    untraced_mean = {key: statistics.fmean(values)
                     for key, values in untraced.items()}
    matched = [(untraced_mean[key], ms, children)
               for key, ms, children in zip(served.keys,
                                            served.latencies_ms,
                                            served.children_ms)
               if key in untraced_mean]
    untraced_ms = sum(base for base, _, _ in matched)
    traced_ms = sum(ms for _, ms, _ in matched)
    self_ms = sum(base - children for base, _, children in matched)
    run_s = tracer.total_s("compile.program.run")
    macs = {name: graph.total_macs()
            for name, graph in serving[0].graphs.items()}
    moved = {key: computed_mb(serving[0].graphs[key[0]], program,
                              key[1])
             for key, program in serving[0].programs.items()}
    steps = sum(len(program.steps)
                for program in serving[0].programs.values())
    served_steps = [variant for replica in serving
                    for variant in variants(replica)]
    delta = {name: after[name] - before.get(name, 0.0)
             for name in after}
    tuners = [replica.tuner for replica in serving
              if replica.tuner is not None]
    agreement = (ratio(sum(a == b for a, b in zip(*picks)),
                       len(picks[0])) if len(picks) == 2 else 0.0)
    layer.update({
        "compile.recompiles_per_1k": tracer.count("compile.compile")
        * 1e3 / requests,
        "compile.steps": float(steps),
        "compile.arena_mb": sum(
            program.arena.arena_bytes
            for program in serving[0].programs.values()) / 1e6,
        "tune.timed": ratio(sum(t.timed for t in tuners), len(tuners)),
        "tune.cache_hits": ratio(sum(t.cache.hits for t in tuners),
                                 len(tuners)),
        "tune.nonref_share": ratio(
            sum(v != "reference" for v in served_steps),
            len(served_steps)),
        "tune.pick_agreement": agreement,
        "runtime.plan_cache.hit_rate": ratio(
            delta["hits"], delta["hits"] + delta["misses"]),
        "runtime.plan_cache.program_hit_rate": ratio(
            delta["program_hits"],
            delta["program_hits"] + delta["program_misses"]),
        "runtime.plan_cache.evictions": delta["evictions"]
        + delta["program_evictions"],
        "runtime.lookup_ms": (tracer.self_s("runtime.plan")
                              + tracer.self_s("runtime.program"))
        * 1e3 / requests,
        "runtime.executor.sim_ms": tracer.self_s("runtime.executor.run")
        * 1e3 / requests,
        "compile.program.run_ms": run_s * 1e3 / requests,
        "kernels.gmac_per_s": ratio(
            sum(macs[model] * batch for model, batch in served.keys),
            run_s) / 1e9,
        "kernels.mb_moved": statistics.fmean(
            moved[key] for key in served.keys),
        "request.self_ms": ratio(self_ms, len(matched)),
        "trace.overhead_pct": ratio(traced_ms - untraced_ms,
                                    untraced_ms) * 100.0,
    })
    layer.update(dict.fromkeys(BYPASSED, 0.0))
    record.update(requests=baseline.attempted + served.attempted,
                  updates=loop.updates_installed,
                  untuned_compile_ms=untuned_s * 1e3)
    served.attempted += baseline.attempted
    served.raised += baseline.raised
    served.mismatched += baseline.mismatched
    served.sim_differs += baseline.sim_differs
    served.first_error = served.first_error or baseline.first_error
    return finish(served, layer, record, tracer)


def finish(served: Served, metrics: Dict[str, float],
           record: Dict[str, object],
           tracer: Optional[Tracer] = None) -> Dict:
    """The run's result: correctness, counts, metrics, diagnostics."""
    record.update(
        error_rate=error_rate(max(served.attempted, 1), served.raised,
                              served.mismatched),
        simulated_differs=served.sim_differs,
        first_error=served.first_error)
    return {
        "correct": served.failed == 0 and served.sim_differs == 0,
        "attempted": served.attempted,
        "failed": served.failed,
        "metrics": metrics,
        "record": record,
        "tracer": tracer,
    }
