"""End-to-end serving simulator, metrics, and CLI JSON tests."""

import json

import pytest

from repro.cli import main
from repro.cluster import (AutoscalerConfig, ClusterConfig,
                           ClusterSimulator, PoolSpec)
from repro.models import build_model
from repro.runtime import (DEFAULT_PROFILING_SEED, MuLayer,
                           default_profiling_samples)
from repro.serve import (Fleet, PoissonWorkload, ServingMetrics,
                         ServingSimulator, default_slos, diurnal_trace,
                         make_scheduler, percentile)
from repro.soc import EXYNOS_7420

MODELS = ["vgg_mini", "squeezenet_mini"]


def simulate(scheduler_name, rate=500.0, num_requests=60, seed=0):
    fleet = Fleet.build(("exynos7420",), 2)
    slos = default_slos(fleet, MODELS, slo_factor=4.0)
    trace = PoissonWorkload(rate, MODELS, slos,
                            seed=seed).generate(num_requests)
    simulator = ServingSimulator(fleet, make_scheduler(scheduler_name))
    return simulator.run(trace)


class TestSimulator:
    def test_low_load_serves_everyone(self):
        for name in ("fifo", "least-loaded", "edf"):
            result = simulate(name)
            assert result.num_offered == 60
            assert len(result.completions) == 60
            assert not result.sheds and not result.unserved

    def test_accounting_and_ordering(self):
        result = simulate("edf")
        starts = [c.start_s for c in result.completions]
        assert starts == sorted(starts)  # dispatch order
        for completion in result.completions:
            assert completion.finish_s > completion.start_s
            assert completion.start_s >= completion.request.arrival_s
        assert result.makespan_s >= max(c.finish_s
                                        for c in result.completions)

    def test_deterministic_across_runs(self):
        first = simulate("edf", seed=11)
        second = simulate("edf", seed=11)
        assert ([c.to_dict() for c in first.completions]
                == [c.to_dict() for c in second.completions])
        assert (ServingMetrics.from_result(first).to_dict()
                == ServingMetrics.from_result(second).to_dict())

    def test_no_resource_oversubscription(self):
        """Per device and processor, busy intervals never overlap."""
        result = simulate("edf", rate=3000.0, num_requests=120)
        intervals = {}
        for c in result.completions:
            fleet = result.fleet
            device = fleet.device(c.device_id)
            for resource in fleet.resources_for(c.request.model, device,
                                                c.mechanism):
                intervals.setdefault((c.device_id, resource), []).append(
                    (c.start_s, c.finish_s))
        for spans in intervals.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end - 1e-9


class TestOnePoolCluster:
    """A one-pool cluster with nothing of its own switched on (no
    autoscaling, one host to route to, a queue cap that never binds)
    must serve a trace exactly as the single-fleet simulator does:
    both drive the same event loop."""

    NUM_REQUESTS = 600
    TIMEOUT_S = 0.002

    @pytest.fixture(scope="class")
    def overloaded(self):
        fleet = Fleet.build(("exynos7420",), 2)
        slos = dict(default_slos(fleet, MODELS, slo_factor=4.0))
        rate = 1.5 * fleet.capacity_rps(MODELS)
        requests = diurnal_trace(
            rate, MODELS, slos, seed=5,
            period_s=self.NUM_REQUESTS / rate / 2.0,
        ).generate(self.NUM_REQUESTS)
        return slos, rate, requests

    @staticmethod
    def served(completions, prefix=""):
        return [(c.request, c.device_id[len(prefix):], c.mechanism,
                 c.start_s, c.finish_s, c.batch_size)
                for c in completions]

    @pytest.mark.parametrize("scheduler, max_batch", [
        ("fifo", 1), ("least-loaded", 1), ("edf", 1), ("edf", 4),
        ("batch", 4)])
    def test_same_history_as_serving(self, overloaded, scheduler,
                                     max_batch):
        slos, rate, requests = overloaded
        timeout = self.TIMEOUT_S if scheduler == "batch" else None
        serving = ServingSimulator(
            Fleet.build(("exynos7420",), 2),
            make_scheduler(scheduler,
                           max_batch=max_batch if max_batch > 1 else None,
                           batch_timeout_s=timeout)).run(requests)
        pool = PoolSpec(name="solo", soc="exynos7420", max_replicas=2,
                        min_replicas=2, scheduler=scheduler,
                        max_batch=max_batch,
                        batch_timeout_s=timeout or 0.0,
                        queue_cap_per_replica=len(requests))
        cluster = ClusterSimulator(ClusterConfig(
            pools=(pool,), models=tuple(MODELS), slos=slos,
            rate_rps=rate, router="round-robin",
            autoscaler=AutoscalerConfig(mode="off"))).run(requests)

        assert (self.served(cluster.completions, prefix="solo/")
                == self.served(serving.completions))
        assert ([(s.request, s.shed_s, s.reason) for s in cluster.sheds]
                == [(s.request, s.shed_s, s.reason)
                    for s in serving.sheds])
        assert cluster.unserved == sorted(serving.unserved,
                                          key=lambda r: r.request_id)
        assert cluster.makespan_s == serving.makespan_s
        if scheduler == "edf":
            assert serving.sheds, "the trace must overload the fleet"
        if max_batch > 1:
            assert max(c.batch_size for c in serving.completions) > 1


class TestMetrics:
    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([5.0], 99.0) == 5.0
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)
        with pytest.raises(ValueError, match="outside"):
            percentile([1.0], 101.0)

    def test_tail_percentile_of_small_sample_is_the_max(self):
        """Regression: a p99 over fewer than 100 samples must report
        the worst observation, not interpolate below it -- with 10
        values, the 99th percentile *is* the maximum."""
        values = [float(v) for v in range(1, 11)]  # 1..10
        assert percentile(values, 99.0) == 10.0
        assert percentile(values, 95.0) == 10.0
        # With enough samples, interpolation resumes.
        many = [float(v) for v in range(1, 101)]  # 1..100
        assert percentile(many, 99.0) == pytest.approx(99.01)
        # p50 has granularity 2: any two-value sample interpolates.
        assert percentile([1.0, 3.0], 50.0) == 2.0

    def test_summary_is_consistent_and_serializable(self):
        metrics = ServingMetrics.from_result(simulate("edf"))
        assert metrics.num_offered == (metrics.num_completed
                                       + metrics.num_shed
                                       + metrics.num_unserved)
        assert metrics.slo_attainment == 1.0
        assert (metrics.latency_p50_ms <= metrics.latency_p95_ms
                <= metrics.latency_p99_ms)
        assert metrics.throughput_rps > 0.0
        assert metrics.plan_cache["hit_rate"] > 0.5
        payload = json.loads(json.dumps(metrics.to_dict()))
        assert payload["scheduler"] == "edf"

    def test_render_mentions_key_tables(self):
        text = ServingMetrics.from_result(simulate("fifo")).render()
        assert "serving summary" in text
        assert "execution mechanisms" in text
        assert "device utilization" in text


class TestResultSerialization:
    def test_inference_result_to_dict(self):
        graph = build_model("vgg_mini", with_weights=False)
        result = MuLayer(EXYNOS_7420).run(graph)
        payload = result.to_dict()
        assert payload["graph"] == graph.name
        assert payload["latency_ms"] == pytest.approx(
            payload["latency_s"] * 1e3)
        assert payload["traces"]
        trace = payload["traces"][0]
        assert {"layer", "placement", "latency_s"} <= set(trace)
        assert "traces" not in result.to_dict(include_traces=False)
        json.dumps(payload)  # fully JSON-serializable


class TestPredictorSeeding:
    def test_profiling_samples_seeded(self):
        a = default_profiling_samples(seed=1)
        b = default_profiling_samples(seed=1)
        c = default_profiling_samples(seed=2)
        assert [s.macs for s in a] == [s.macs for s in b]
        assert [s.macs for s in a] != [s.macs for s in c]

    def test_default_seed_is_stable(self):
        assert default_profiling_samples() == default_profiling_samples(
            seed=DEFAULT_PROFILING_SEED)


class TestServeCli:
    def test_serve_text_output(self, capsys):
        assert main(["serve", "--soc", "exynos7420", "--devices", "1",
                     "--requests", "20", "--seed", "0",
                     "--models", "vgg_mini"]) == 0
        out = capsys.readouterr().out
        assert "serving summary" in out
        assert "slo_attainment" in out

    def test_serve_json_deterministic(self, capsys):
        argv = ["serve", "--soc", "exynos7420", "--devices", "1",
                "--requests", "20", "--seed", "0",
                "--models", "vgg_mini", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["num_offered"] == 20
        assert payload["scheduler"] == "edf"
        assert payload["config"]["seed"] == 0

    def test_serve_bursty_fifo(self, capsys):
        assert main(["serve", "--soc", "exynos7420", "--devices", "1",
                     "--requests", "20", "--seed", "0",
                     "--models", "vgg_mini", "--workload", "bursty",
                     "--scheduler", "fifo", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"] == "fifo"
        assert payload["config"]["workload"] == "bursty"

    def test_run_json(self, capsys):
        assert main(["run", "--model", "vgg_mini", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"] == "vgg_mini"
        assert payload["latency_s"] > 0.0

    def test_compare_json(self, capsys):
        assert main(["compare", "--model", "vgg_mini", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "ulayer_speedup_over_l2p" in payload
        mechanisms = {m["mechanism"] for m in payload["mechanisms"]}
        assert "ulayer" in mechanisms
