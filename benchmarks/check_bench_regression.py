"""Fail CI when a fresh simulated-time benchmark regresses against its
committed baseline.

Usage::

    python benchmarks/check_bench_regression.py [--threshold 1.25] \
        [--serve-batch-baseline B --serve-batch-fresh F] \
        [--fleet-baseline B --fleet-fresh F]

With ``--serve-batch-baseline/--serve-batch-fresh`` it gates the
serving-throughput benchmark (``BENCH_serve_batch.json``):

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
bit-stable across runners -- the threshold only absorbs
intentional timing-model changes, not machine noise.  Either pair
may run alone; at least one is required.
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
    if (args.serve_batch_baseline is None) != (args.serve_batch_fresh
                                               is None):
        parser.error("--serve-batch-baseline and --serve-batch-fresh "
                     "must be given together")
    if (args.fleet_baseline is None) != (args.fleet_fresh is None):
        parser.error("--fleet-baseline and --fleet-fresh must be "
                     "given together")
    if args.serve_batch_baseline is None and args.fleet_baseline is None:
        parser.error("nothing to check: give the --serve-batch-* pair, "
                     "the --fleet-* pair, or both")

    regressed = False
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
