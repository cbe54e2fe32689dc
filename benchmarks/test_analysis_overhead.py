"""Wall-clock budget of the full static-analysis pass.

Verification guards every CI run and (through ``repro serve``'s
schedulability gate) every serving simulation, so it must never become
the slow path.  This benchmark times the complete static pass -- plan
building, plan/dtype verification, the memory-footprint analysis, and
arena construction over the mini zoo on every SoC, plus the
concurrency lint over all of ``src/repro`` -- and fails if it exceeds
a generous wall-clock budget.

The budget is deliberately loose (CI runners are noisy); the point is
to catch an accidental algorithmic blowup -- a quadratic liveness scan
or a lint that re-parses files per rule -- not a few-percent
regression.
"""

import time

from repro.analysis import (DeterminismLinter, MemoryFootprintAnalyzer,
                            build_plan, verify_static)
from repro.models import MINI_MODELS, build_model
from repro.soc import SOCS

#: Seconds allowed for the full static pass (measured ~2 s warm).
_STATIC_BUDGET_S = 30.0

#: Seconds allowed for the repo-wide concurrency lint (measured
#: well under 1 s; parsing ~60 files dominates).
_LINT_BUDGET_S = 10.0


def test_static_pass_stays_within_budget():
    # Warm the predictor caches first: fitting the latency predictor
    # is a one-time cost the serving and sweep paths amortize, not
    # part of the per-plan analysis this budget protects.
    graphs = {model: build_model(model, with_weights=False)
              for model in MINI_MODELS}
    for soc in SOCS.values():
        build_plan(soc, graphs["vgg_mini"], "mulayer")

    started = time.perf_counter()
    cells = 0
    for soc in SOCS.values():
        analyzer = MemoryFootprintAnalyzer(soc)
        for model, graph in sorted(graphs.items()):
            for mechanism in ("mulayer", "cpu", "gpu"):
                plan = build_plan(soc, graph, mechanism)
                report = verify_static(soc, graph, plan)
                report.extend(analyzer.analyze(graph, plan))
                arena = analyzer.arena(graph, plan)
                assert report.clean, (
                    f"{model}/{soc.name}/{mechanism}:\n"
                    f"{report.render()}")
                assert arena.validate().clean
                cells += 1
    elapsed = time.perf_counter() - started

    print(f"\nstatic pass: {cells} cells in {elapsed:.2f}s "
          f"(budget {_STATIC_BUDGET_S:.0f}s)")
    assert cells == len(SOCS) * len(MINI_MODELS) * 3
    assert elapsed < _STATIC_BUDGET_S, (
        f"static analysis took {elapsed:.1f}s, over the "
        f"{_STATIC_BUDGET_S:.0f}s budget")


def test_source_lint_stays_within_budget():
    started = time.perf_counter()
    report = DeterminismLinter().lint_paths(["src/repro"])
    elapsed = time.perf_counter() - started

    print(f"\nsource lint: {len(report)} findings in {elapsed:.2f}s "
          f"(budget {_LINT_BUDGET_S:.0f}s)")
    assert elapsed < _LINT_BUDGET_S, (
        f"source lint took {elapsed:.1f}s, over the "
        f"{_LINT_BUDGET_S:.0f}s budget")
