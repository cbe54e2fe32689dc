"""Wall-clock benchmark of compiled execution (seeds BENCH_e2e.json).

Times the compiled fused path, the autotuned compiled path versus the
untuned one, and the verification sweep serial versus parallel, then
writes the numbers to ``BENCH_e2e.json`` at the repo root so the perf
trajectory is tracked across PRs
(``benchmarks/check_bench_regression.py`` compares a fresh run against
the committed baseline in CI).

Byte-identity of every compiled and autotuned program against the
uncached interpreter is asserted inside the benchmark itself while
timing.
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

    minis = ("alexnet_mini", "googlenet_mini", "mobilenet_mini",
             "squeezenet_mini", "vgg_mini")
    compiled = results["compiled"]
    # Every mini cell ran compiled; byte-identity against the
    # interpreter output is asserted inside the benchmark itself.
    for model in minis:
        for policy in ("pfq", "quint8", "f16", "f32"):
            cell = compiled["cells"][f"{model}/{policy}"]
            assert cell["compiled_ms"] > 0.0
            assert cell["arena_bytes"] > 0.0
    assert compiled["summary"]["compiled_total_ms"] > 0.0

    autotuned = results["autotuned"]
    # Every mini cell ran through the tuner; byte-identity of the
    # tuned program against the interpreter reference is asserted
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

    sweep = results["sweep"]
    assert sweep["serial_s"] > 0.0
    assert sweep["cells"] > 0
    # The parallel leg ran and kept deterministic ordering (run_bench
    # raises on order divergence).
    assert "parallel_s" in sweep
