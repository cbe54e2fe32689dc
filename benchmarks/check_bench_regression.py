"""Fail CI when a fresh benchmark run regresses against its baseline.

Usage::

    python benchmarks/check_bench_regression.py BASELINE FRESH \
        [--threshold 1.25] \
        [--serve-batch-baseline B --serve-batch-fresh F]

Compares the committed wall-clock baseline (``BENCH_e2e.json``)
against a freshly generated run and exits non-zero when:

* the serial sweep time (``sweep.serial_s``) grew by more than the
  threshold factor;
* when both runs carry a ``compiled`` block: compiled total time
  (``compiled.summary.compiled_total_ms``) grew by more than the
  threshold factor.  Runs without the block (``--models`` naming no
  mini model) skip this gate with a notice.
* when the fresh run carries an ``autotuned`` block (the
  profile-guided kernel-variant path; byte-identity against the
  interpreter output is asserted inside the benchmark itself): the
  geometric-mean speedup of the tuned programs over the untuned
  compiled baseline must clear an absolute floor of 1.05x (with the
  usual threshold headroom for machine noise), and both the geomean
  speedup and the tuned total time are ratio-gated against the
  baseline run.  Runs without the block (``--no-autotune``) skip
  these gates with a notice.

With ``--serve-batch-baseline/--serve-batch-fresh`` it additionally
gates the serving-throughput benchmark (``BENCH_serve_batch.json``):

* at the peak (overload) arrival rate, fresh throughput must rise
  strictly monotonically with the batch-size cap -- the point of
  dynamic batching;
* fresh peak-load throughput per batch size must not fall below the
  baseline by more than the threshold factor.

With ``--fleet-baseline/--fleet-fresh`` it gates the cluster-tier
benchmark (``BENCH_fleet_scale.json``) the same way:

* per router, fresh SLO attainment must be monotone non-decreasing in
  fleet size -- adding replicas under a fixed trace can only help;
* fresh attainment per (router, fleet size) cell must not fall below
  the baseline by more than the threshold factor;
* fresh p99 latency per cell must not grow past the threshold factor.

Serving and cluster numbers come from simulated time, so they are
bit-stable across runners -- the threshold there only absorbs
intentional timing-model changes, not machine noise.  Any gate may run
alone: the e2e positionals are optional when either named pair is
given.
"""

from __future__ import annotations

import argparse
import json
import sys


def _check(name: str, baseline: float, fresh: float, threshold: float,
           lower_is_better: bool) -> bool:
    """Print one comparison; returns True when it regressed."""
    if baseline <= 0.0:
        print(f"  {name}: baseline {baseline:g} not positive, skipped")
        return False
    ratio = fresh / baseline
    if lower_is_better:
        regressed = ratio > threshold
        direction = "grew"
    else:
        regressed = ratio < 1.0 / threshold
        direction = "shrank"
    verdict = "REGRESSED" if regressed else "ok"
    print(f"  {name}: baseline {baseline:.3f}, fresh {fresh:.3f} "
          f"({direction} to {ratio:.2f}x) -- {verdict}")
    return regressed


def _peak_cells(results: dict) -> "dict[int, dict]":
    """The peak-load sweep cells keyed by batch-size cap."""
    peak = results["peak_load"]
    return {int(cell["max_batch"]): cell
            for cell in results["sweep"] if cell["load"] == peak}


def _check_e2e(baseline: dict, fresh: dict, threshold: float) -> bool:
    """The wall-clock gates; returns True when anything regressed."""
    print(f"bench regression check (threshold {threshold:.2f}x):")
    regressed = _check("sweep.serial_s",
                       baseline["sweep"]["serial_s"],
                       fresh["sweep"]["serial_s"],
                       threshold, lower_is_better=True)
    baseline_compiled = baseline.get("compiled")
    fresh_compiled = fresh.get("compiled")
    if baseline_compiled is None or fresh_compiled is None:
        missing = ("baseline" if baseline_compiled is None else "fresh")
        print(f"  compiled gates skipped: {missing} run has no "
              "compiled block")
        return regressed
    regressed |= _check("compiled.compiled_total_ms",
                        baseline_compiled["summary"]["compiled_total_ms"],
                        fresh_compiled["summary"]["compiled_total_ms"],
                        threshold, lower_is_better=True)
    regressed |= _check_autotuned(baseline.get("autotuned"),
                                  fresh.get("autotuned"), threshold)
    return regressed


#: The autotuner must buy at least this geometric-mean speedup over
#: the untuned compiled baseline across the mini-zoo cells.
AUTOTUNE_GEOMEAN_FLOOR = 1.05


def _check_autotuned(baseline: "dict | None", fresh: "dict | None",
                     threshold: float) -> bool:
    """The autotuning gates; True when anything regressed."""
    if fresh is None:
        print("  autotuned gates skipped: fresh run has no autotuned "
              "block")
        return False
    regressed = False
    geomean = fresh["summary"]["geomean_speedup"]
    # Absolute floor with the usual threshold headroom: the committed
    # baseline is held to the full 1.05x (benchmarks/
    # test_wallclock_e2e.py), the CI runner only to the floor scaled
    # down by the noise allowance.
    floor = 1.0 + (AUTOTUNE_GEOMEAN_FLOOR - 1.0) / threshold
    ok = geomean >= floor
    print(f"  autotuned.geomean_speedup: {geomean:.3f}x "
          f"(floor {floor:.3f}x from {AUTOTUNE_GEOMEAN_FLOOR:.2f}x "
          f"absolute) -- {'ok' if ok else 'REGRESSED'}")
    regressed |= not ok
    variants = fresh.get("variants", {})
    chosen = {name: count for name, count in variants.items()
              if name != "reference"}
    if not chosen:
        print("  autotuned.variants: no non-reference variant chosen "
              "anywhere -- REGRESSED")
        regressed = True
    else:
        summary = ", ".join(f"{name} x{count}"
                            for name, count in sorted(chosen.items()))
        print(f"  autotuned.variants: {summary}")
    if baseline is None:
        print("  autotuned ratio gates skipped: baseline run has no "
              "autotuned block")
        return regressed
    regressed |= _check("autotuned.geomean_speedup",
                        baseline["summary"]["geomean_speedup"],
                        fresh["summary"]["geomean_speedup"],
                        threshold, lower_is_better=False)
    regressed |= _check("autotuned.autotuned_total_ms",
                        baseline["summary"]["autotuned_total_ms"],
                        fresh["summary"]["autotuned_total_ms"],
                        threshold, lower_is_better=True)
    return regressed


def _check_serve_batch(baseline: dict, fresh: dict,
                       threshold: float) -> bool:
    """The serving-throughput gates; True when anything regressed."""
    print(f"serve-batch regression check (threshold {threshold:.2f}x, "
          f"model {fresh['model']}, peak load {fresh['peak_load']:g}x "
          "capacity):")
    fresh_cells = _peak_cells(fresh)
    baseline_cells = _peak_cells(baseline)
    regressed = False
    ordered = sorted(fresh_cells)
    rates = [fresh_cells[b]["throughput_rps"] for b in ordered]
    for smaller, larger, low, high in zip(ordered, ordered[1:], rates,
                                          rates[1:]):
        if high <= low:
            print(f"  throughput(max_batch={larger}) {high:.1f} <= "
                  f"throughput(max_batch={smaller}) {low:.1f} "
                  "-- NOT MONOTONE")
            regressed = True
    if not regressed:
        summary = ", ".join(f"{b}: {fresh_cells[b]['throughput_rps']:.1f}"
                            for b in ordered)
        print(f"  peak-load throughput monotone in batch cap ({summary})")
    for batch in ordered:
        if batch not in baseline_cells:
            print(f"  max_batch={batch}: no baseline cell, skipped")
            continue
        regressed |= _check(
            f"throughput_rps[max_batch={batch}]",
            baseline_cells[batch]["throughput_rps"],
            fresh_cells[batch]["throughput_rps"],
            threshold, lower_is_better=False)
    return regressed


def _fleet_cells(results: dict) -> "dict[tuple[str, float], dict]":
    """Sweep cells keyed by (router, fleet size)."""
    return {(cell["router"], float(cell["fleet_size"])): cell
            for cell in results["sweep"]}


def _check_fleet(baseline: dict, fresh: dict, threshold: float) -> bool:
    """The cluster-tier gates; True when anything regressed."""
    print(f"fleet-scale regression check (threshold {threshold:.2f}x, "
          f"models {'+'.join(fresh['models'])}, "
          f"load {fresh['load_factor']:g}x smallest-fleet capacity):")
    fresh_cells = _fleet_cells(fresh)
    baseline_cells = _fleet_cells(baseline)
    regressed = False
    for router in fresh["routers"]:
        sizes = sorted(float(s) for s in fresh["fleet_sizes"])
        attainment = [fresh_cells[(router, s)]["slo_attainment"]
                      for s in sizes]
        for smaller, larger, low, high in zip(sizes, sizes[1:],
                                              attainment,
                                              attainment[1:]):
            if high < low:
                print(f"  {router}: attainment(fleet={larger:g}) "
                      f"{high:.3f} < attainment(fleet={smaller:g}) "
                      f"{low:.3f} -- NOT MONOTONE")
                regressed = True
        summary = ", ".join(f"{s:g}: {a:.3f}"
                            for s, a in zip(sizes, attainment))
        print(f"  {router}: attainment by fleet size ({summary})")
    for key in sorted(fresh_cells):
        if key not in baseline_cells:
            print(f"  {key}: no baseline cell, skipped")
            continue
        router, size = key
        label = f"[{router}, fleet={size:g}]"
        regressed |= _check(
            f"slo_attainment{label}",
            baseline_cells[key]["slo_attainment"],
            fresh_cells[key]["slo_attainment"],
            threshold, lower_is_better=False)
        regressed |= _check(
            f"latency_p99_ms{label}",
            baseline_cells[key]["latency_p99_ms"],
            fresh_cells[key]["latency_p99_ms"],
            threshold, lower_is_better=True)
    return regressed


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", default=None,
                        help="committed BENCH_e2e.json")
    parser.add_argument("fresh", nargs="?", default=None,
                        help="freshly generated BENCH_e2e.json")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="allowed regression factor (default 1.25 "
                             "= 25%%)")
    parser.add_argument("--serve-batch-baseline", default=None,
                        metavar="PATH",
                        help="committed BENCH_serve_batch.json")
    parser.add_argument("--serve-batch-fresh", default=None,
                        metavar="PATH",
                        help="freshly generated BENCH_serve_batch.json")
    parser.add_argument("--fleet-baseline", default=None,
                        metavar="PATH",
                        help="committed BENCH_fleet_scale.json")
    parser.add_argument("--fleet-fresh", default=None,
                        metavar="PATH",
                        help="freshly generated BENCH_fleet_scale.json")
    args = parser.parse_args(argv)
    if (args.baseline is None) != (args.fresh is None):
        parser.error("baseline and fresh must be given together")
    if (args.serve_batch_baseline is None) != (args.serve_batch_fresh
                                               is None):
        parser.error("--serve-batch-baseline and --serve-batch-fresh "
                     "must be given together")
    if (args.fleet_baseline is None) != (args.fleet_fresh is None):
        parser.error("--fleet-baseline and --fleet-fresh must be "
                     "given together")
    if (args.baseline is None and args.serve_batch_baseline is None
            and args.fleet_baseline is None):
        parser.error("nothing to check: give the e2e positionals, the "
                     "--serve-batch-* pair, the --fleet-* pair, or "
                     "any combination")

    regressed = False
    if args.baseline is not None:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        with open(args.fresh) as handle:
            fresh = json.load(handle)
        regressed |= _check_e2e(baseline, fresh, args.threshold)
    if args.serve_batch_baseline is not None:
        with open(args.serve_batch_baseline) as handle:
            serve_baseline = json.load(handle)
        with open(args.serve_batch_fresh) as handle:
            serve_fresh = json.load(handle)
        regressed |= _check_serve_batch(serve_baseline, serve_fresh,
                                        args.threshold)
    if args.fleet_baseline is not None:
        with open(args.fleet_baseline) as handle:
            fleet_baseline = json.load(handle)
        with open(args.fleet_fresh) as handle:
            fleet_fresh = json.load(handle)
        regressed |= _check_fleet(fleet_baseline, fleet_fresh,
                                  args.threshold)
    if regressed:
        print("bench regression detected", file=sys.stderr)
        return 1
    print("no bench regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
