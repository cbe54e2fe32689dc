"""Tests of the benchmark's own metric arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from metrics import (error_rate, min_samples, percentile,  # noqa: E402
                     slo_attainment, spread, summarize, tail_supported)
from tracing import Tracer  # noqa: E402


class TestPercentileSampleRule:
    def test_ten_samples_lie_beyond_each_supported_tail(self):
        for q in (50.0, 75.0, 90.0, 95.0, 99.0):
            n = min_samples(q)
            assert n * (100.0 - q) / 100.0 >= 10.0
            assert (n - 1) * (100.0 - q) / 100.0 < 10.0

    def test_p95_needs_200_and_p75_needs_40(self):
        assert min_samples(95.0) == 200
        assert min_samples(75.0) == 40
        assert tail_supported(200, 95.0)
        assert not tail_supported(199, 95.0)
        assert tail_supported(40, 75.0)
        assert not tail_supported(39, 75.0)

    def test_rejects_percentiles_without_a_tail(self):
        with pytest.raises(ValueError):
            min_samples(100.0)

    def test_percentile_interpolates_like_numpy(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 50.0) == 2.5
        assert percentile(values, 75.0) == pytest.approx(3.25)

    def test_percentile_of_nothing_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_summarize_reports_p50_and_the_tail(self):
        samples = [float(i) for i in range(1, 201)]
        figures = summarize(samples, 95.0)
        assert figures["latency_ms_p50"] == pytest.approx(100.5)
        assert figures["latency_ms_tail"] == pytest.approx(190.05)


class TestErrorRate:
    def test_raised_and_mismatched_both_count(self):
        assert error_rate(100, 0, 0) == 0.0
        assert error_rate(100, 3, 2) == pytest.approx(0.05)

    def test_cannot_fail_more_than_attempted(self):
        with pytest.raises(ValueError):
            error_rate(4, 3, 2)

    def test_needs_an_attempt(self):
        with pytest.raises(ValueError):
            error_rate(0, 0, 0)


class TestSloAttainment:
    def test_sheds_and_unserved_are_misses(self):
        # 8 of 10 completed met their SLO; 5 shed and 5 unserved
        # requests were offered too.
        assert slo_attainment(8, 10, 5, 5) == pytest.approx(0.4)

    def test_shedding_never_raises_attainment(self):
        kept = slo_attainment(6, 10, 0, 0)
        shed = slo_attainment(6, 6, 4, 0)
        assert shed == kept

    def test_rejects_more_met_than_completed(self):
        with pytest.raises(ValueError):
            slo_attainment(3, 2, 0, 0)

    def test_needs_an_offered_request(self):
        with pytest.raises(ValueError):
            slo_attainment(0, 0, 0, 0)


class TestSpread:
    def test_interquartile_range_over_median(self):
        values = [10.0, 10.0, 10.0, 10.0, 10.0]
        assert spread(values) == 0.0
        assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


class TestTracer:
    def test_self_time_excludes_children_and_parents_link(self):
        tracer = Tracer()

        class Layer:
            def inner(self):
                return 7

            def outer(self):
                return self.inner() + 1

        layer = Layer()
        tracer.wrap(layer, "inner", "inner")
        tracer.wrap(layer, "outer", "outer")
        tracer.request = 3
        assert layer.outer() == 8
        outer, inner = tracer.spans
        assert inner[1] == outer[0] and outer[1] is None
        assert inner[2] == outer[2] == 3
        assert tracer.self_s("outer") == pytest.approx(
            tracer.total_s("outer") - tracer.total_s("inner"))
        tracer.unwrap()
        assert "outer" not in vars(layer) and layer.outer() == 8
        assert len(tracer.spans) == 2
