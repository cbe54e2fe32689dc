"""Tests for the CLI, the Gantt renderer, and the ResNet models."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.harness import render_gantt
from repro.models import build_model, model_info
from repro.nn import (assert_region_partitions, calibrate_graph,
                      find_branch_regions, reference_output)
from repro.runtime import MuLayer
from repro.soc import CPU, GPU, Timeline
from repro.tensor import DType


class TestCli:
    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "googlenet" in out
        assert "resnet18" in out

    def test_list_socs(self, capsys):
        assert main(["list-socs"]) == 0
        out = capsys.readouterr().out
        assert "exynos7420" in out
        assert "NPU" in out

    def test_run_mulayer(self, capsys):
        assert main(["run", "--model", "vgg_mini", "--oracle",
                     "--plan", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "execution plan" in out
        assert "CPU |" in out

    def test_run_single_processor(self, capsys):
        assert main(["run", "--model", "vgg_mini", "--mechanism",
                     "gpu", "--dtype", "f16"]) == 0
        assert "single-gpu-f16" in capsys.readouterr().out

    def test_run_l2p(self, capsys):
        assert main(["run", "--model", "vgg_mini", "--mechanism",
                     "l2p"]) == 0
        assert "layer-to-processor" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "--model", "vgg_mini"]) == 0
        out = capsys.readouterr().out
        assert "ulayer" in out
        assert "speedup" in out

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "GoogLeNet" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    @pytest.mark.parametrize("argv", [
        ["run", "--model", "nosuch", "--soc", "exynos7420"],
        ["compare", "--model", "nosuch"],
        ["verify", "nosuch", "exynos7420"],
        ["serve", "--models", "nosuch", "--requests", "5"],
        ["cluster", "--models", "nosuch", "--requests", "5"],
        ["bench", "--fleet", "--models", "nosuch"],
    ], ids=lambda argv: argv[0])
    def test_unknown_model_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "unknown model 'nosuch'; known models: ")
        assert "vgg_mini" in lines[0]

    def test_unmatched_model_glob_is_a_usage_error(self, capsys):
        assert main(["bench", "--fleet", "--models", "nosuch*"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "bench: --models pattern 'nosuch*' matches no registered "
            "model (see list-models)"]

    @pytest.mark.parametrize("models", ["vgg_mini,squeezenet_mini",
                                        "vgg_mini,squeezenet_m*"])
    def test_serve_batch_takes_one_model(self, models, capsys):
        assert main(["bench", "--serve-batch", "--models", models]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "bench: --serve-batch takes one model, --models resolved "
            "to 2: vgg_mini, squeezenet_mini"]

    @pytest.mark.parametrize("argv", [
        ["bench"],
        ["bench", "--serve-batch", "--fleet"],
        ["bench", "--fleet", "--repeats", "3"],
    ], ids=["bare", "both", "repeats"])
    def test_bench_needs_exactly_one_sweep(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [["--autotune"],
                                       ["--tune-cache", "x"]],
                             ids=["autotune", "tune-cache"])
    def test_run_has_no_tuning_flags(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--model", "squeezenet_mini", "--compiled",
                  *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bench_fleet_json(self, capsys):
        assert main(["bench", "--fleet", "--fleet-requests", "200",
                     "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert results["num_requests"] == 200
        assert len(results["sweep"]) == (len(results["routers"])
                                         * len(results["fleet_sizes"]))

    @pytest.mark.parametrize("argv", [
        ["run", "--model", "vgg_mini", "--soc", "nosuch"],
        ["compare", "--model", "vgg_mini", "--soc", "nosuch"],
        ["verify", "vgg_mini", "nosuch"],
        ["serve", "--soc", "nosuch", "--requests", "5"],
        ["cluster", "--pool", "a:nosuch:2", "--requests", "5"],
    ], ids=lambda argv: argv[0])
    def test_unknown_soc_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "unknown SoC 'nosuch'; known SoCs: exynos7420, "
            "exynos7420npu, exynos7880"]


class TestGantt:
    def test_renders_two_rows(self):
        tl = Timeline()
        tl.reserve(CPU, 1.0, "a", "compute", DType.QUINT8)
        tl.reserve(GPU, 0.5, "b", "launch")
        text = render_gantt(tl, width=20)
        lines = text.splitlines()
        assert lines[0].startswith("CPU |")
        assert lines[1].startswith("GPU |")
        assert "#" in lines[0]
        assert "L" in lines[1]

    def test_empty_timeline(self):
        assert render_gantt(Timeline()) == "(empty timeline)"

    def test_window_selects_segments(self):
        tl = Timeline()
        tl.reserve(CPU, 1.0, "a", "compute", DType.QUINT8)
        tl.reserve(CPU, 1.0, "b", "sync")
        late = render_gantt(tl, width=10, start_s=1.0, end_s=2.0)
        assert "s" in late.splitlines()[0]
        assert "#" not in late.splitlines()[0]


class TestResNet:
    def test_published_structure(self):
        graph = build_model("resnet18", with_weights=False)
        assert graph.total_macs() == pytest.approx(1.81e9, rel=0.02)
        assert graph.total_params() == pytest.approx(11.7e6, rel=0.02)

    def test_eight_residual_regions(self):
        graph = build_model("resnet18", with_weights=False)
        regions = find_branch_regions(graph)
        assert len(regions) == 8
        for region in regions:
            assert_region_partitions(graph, region)

    def test_identity_blocks_have_empty_branch(self):
        graph = build_model("resnet18", with_weights=False)
        regions = find_branch_regions(graph)
        empty_branch_regions = [r for r in regions
                                if any(len(b) == 0 for b in r.branches)]
        # Both stage-1 blocks plus the second block of stages 2-4 keep
        # identity shortcuts; the stage-transition blocks project.
        assert len(empty_branch_regions) == 5

    def test_registry_flags(self):
        info = model_info("resnet18")
        assert info.branch_distribution_applies
        assert not info.evaluated_in_paper

    def test_mini_runs_functionally(self, rng, highend):
        graph = build_model("resnet_mini")
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        ref = reference_output(graph, x)
        calibration = calibrate_graph(
            graph, [rng.standard_normal((4, 3, 32, 32)).astype(
                np.float32), x])
        result = MuLayer(highend, use_oracle_costs=True).run(
            graph, x=x, calibration=calibration)
        out = result.output_array()
        assert np.corrcoef(out.ravel(), ref.ravel())[0, 1] > 0.98

    def test_full_resnet_plans_and_runs(self, soc):
        graph = build_model("resnet18", with_weights=False)
        result = MuLayer(soc, use_oracle_costs=True).run(graph)
        assert result.latency_s > 0
        result.timeline.validate()
