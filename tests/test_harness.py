"""Tests for the figure harness (fast subsets; full sweeps live in
benchmarks/)."""

import pytest

from repro.harness import (ExperimentResult, build_inception_3a_graph,
                           fig12_branch_potential, format_bars,
                           format_table, normalized,
                           table1_applicability)
from repro.soc import EXYNOS_7420


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]],
                            title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "2.500" in text

    def test_format_bars(self):
        text = format_bars([("cpu", 2.0), ("gpu", 1.0)], width=10)
        assert "cpu" in text and "#" in text

    def test_format_bars_empty(self):
        assert format_bars([], title="t") == "t"

    def test_normalized(self):
        assert normalized([2.0, 4.0], 2.0) == [1.0, 2.0]

    def test_normalized_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            normalized([1.0], 0.0)


class TestExperimentResult:
    def test_render_and_column(self):
        result = ExperimentResult(
            experiment="figX", title="demo", headers=["m", "v"],
            rows=[["a", 1.0], ["b", 2.0]], notes=["note"])
        text = result.render()
        assert "[figX]" in text
        assert "note" in text
        assert result.column("v") == [1.0, 2.0]

    def test_column_unknown_header(self):
        result = ExperimentResult("f", "t", ["a"], [[1]])
        with pytest.raises(ValueError):
            result.column("zz")


class TestInceptionGraph:
    def test_structure(self):
        graph = build_inception_3a_graph()
        shapes = graph.infer_shapes()
        assert shapes["inception_3a/output"] == (1, 256, 28, 28)

    def test_branch_region_present(self):
        from repro.nn import find_branch_regions
        graph = build_inception_3a_graph()
        regions = find_branch_regions(graph)
        assert len(regions) == 1
        assert len(regions[0].branches) == 4


class TestFastFigures:
    def test_table1_contents(self):
        result = table1_applicability()
        assert len(result.rows) == 5
        branch_flags = dict(zip(result.column("model"),
                                result.column("br_dist")))
        assert branch_flags["GoogLeNet"] == "yes"
        assert branch_flags["VGG-16"] == "no"

    def test_fig12_shape(self):
        """Branch distribution must beat plain cooperative on the
        Inception module (the Figure 12 claim)."""
        result = fig12_branch_potential(EXYNOS_7420)
        latencies = dict(zip(result.column("mechanism"),
                             result.column("latency_ms")))
        assert (latencies["cooperative"]
                < latencies["cpu_only_quint8"])
        assert (latencies["cooperative_optimal_branches"]
                < latencies["cooperative"])
