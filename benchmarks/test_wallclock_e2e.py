"""Wall-clock benchmark of functional execution (seeds BENCH_e2e.json).

Times end-to-end functional inference cold (fresh uncached computer
per inference -- the pre-cache behaviour) versus warm (persistent
operand caches), the compiled fused path versus the warm functional
path, the autotuned compiled path versus the untuned one, and the
verification sweep serial versus parallel, then writes
the numbers to ``BENCH_e2e.json`` at the repo root so the perf
trajectory is tracked across PRs
(``benchmarks/check_bench_regression.py`` compares a fresh run against
the committed baseline in CI).

Byte-identity -- cached versus uncached, and compiled versus
functional -- is asserted inside the benchmark itself while timing.
"""

import json
import pathlib

from repro.harness.bench import render_bench, run_bench

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_wallclock_e2e():
    results = run_bench(repeats=3, jobs=2)
    print()
    print(render_bench(results))
    (_REPO_ROOT / "BENCH_e2e.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n")

    functional = results["functional"]
    minis = ("alexnet_mini", "googlenet_mini", "mobilenet_mini",
             "squeezenet_mini", "vgg_mini")
    # Every mini-zoo cell ran, under all four policies.  Warm runs do
    # strictly less work than cold runs (no weight re-quantization, no
    # operand re-packing), but the mini cells finish in 1-2 ms, where
    # a virtualized 1-CPU runner cannot resolve single-digit-percent
    # differences even with min-of-repeats timing -- so per cell we
    # only gate gross inversions (warm >10% slower than cold means a
    # cache stopped working, not noise).  The real caching claim is
    # carried by the aggregate ``summary.speedup >= 2.0`` below and by
    # the full-model cells, whose margins are structural.
    for model in minis:
        for policy in ("pfq", "quint8", "f16", "f32"):
            cell = functional[f"{model}/{policy}"]
            assert cell["speedup"] >= 0.9, (model, policy, cell)
            # PFQ's cooperative split shares quantized im2col columns
            # between the CPU and GPU pipelines -- the hit rate must
            # be nonzero or the sharing mechanism has regressed.
            if policy == "pfq":
                assert cell["im2col_hit_rate"] > 0.0, (model, cell)
    # The weight-heavy full model is the headline cache win.
    assert functional["alexnet/pfq"]["speedup"] > 1.0

    compiled = results["compiled"]
    # Every mini cell also ran compiled; byte-identity against the
    # warm functional output is asserted inside the benchmark itself.
    for model in minis:
        for policy in ("pfq", "quint8", "f16", "f32"):
            cell = compiled["cells"][f"{model}/{policy}"]
            assert cell["compiled_ms"] > 0.0
            assert cell["arena_bytes"] > 0.0
    # The compiled path's acceptance bar is >1.5x warm-functional on
    # the minis in aggregate (measured ~1.7x); the gate here is set
    # below that so a noisy CI runner does not flake the suite -- the
    # regression checker tracks the real trajectory.
    assert compiled["summary"]["speedup"] > 1.1

    autotuned = results["autotuned"]
    # Every mini cell ran through the tuner; byte-identity of the
    # tuned program against the warm functional reference is asserted
    # inside the benchmark itself, before and after timing.
    for model in minis:
        for policy in ("pfq", "quint8", "f16", "f32"):
            cell = autotuned["cells"][f"{model}/{policy}"]
            assert cell["autotuned_ms"] > 0.0, (model, policy, cell)
            assert cell["compiled_ms"] > 0.0, (model, policy, cell)
            assert cell["tune_ms"] > 0.0, (model, policy, cell)
    # The tuner must have actually picked non-reference variants
    # somewhere in the grid, or the candidate lowerings regressed.
    chosen = {name: count
              for name, count in autotuned["variants"].items()
              if name != "reference" and count > 0}
    assert chosen, autotuned["variants"]
    # Acceptance bar: geomean speedup of tuned over untuned compiled
    # programs across the mini grid is >= 1.05x (measured ~1.14x).
    # The hard gate lives in check_bench_regression.py, which scales
    # the floor by the runner's noise threshold; here we only require
    # the tuned leg not be an aggregate loss.
    assert autotuned["summary"]["geomean_speedup"] > 1.0, (
        autotuned["summary"])
    assert autotuned["summary"]["autotuned_total_ms"] > 0.0

    summary = results["summary"]
    assert summary["warm_total_ms"] > 0.0
    # The acceptance bar of the caching layer: the zoo sweep runs at
    # least twice as fast warm as cold (measured ~6x; 2.0 leaves head-
    # room for noisy CI runners).
    assert summary["speedup"] >= 2.0

    sweep = results["sweep"]
    assert sweep["serial_s"] > 0.0
    assert sweep["cells"] > 0
    # The parallel leg ran and kept deterministic ordering (run_bench
    # raises on order divergence).
    assert "parallel_s" in sweep
