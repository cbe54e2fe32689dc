"""Steadiness check: run the benchmark's end-to-end metrics over
several seeds, in one or more sets of the same seeds, and hold them to
``BENCHMARK.json``'s bounds.

    python3 perfbench/spread.py --workload mini-b1 --seeds 1-10 [--sets 2]

For each end-to-end metric it prints, per set, the median over the
seeds and the spread (interquartile range over the median), and, with
two or more sets, how far each later set's median is worse than the
first set's, as a share of it.  Two sets of the same code agree when
every such shift is within the metric's bound.

Runs one process at a time (a run must not share the CPUs with
another).  Exits 1 when a run fails or is incorrect, when a spread
exceeds a third of its bound, or when a median shift exceeds its
bound.  The spread of ``setup_s`` is printed but not held to its
bound: set-up time is a few fresh set-ups per run, and what a later
change is compared on is its median, which is held like every other
metric's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import spread  # noqa: E402

#: End-to-end metrics whose seed-to-seed spread is not held to a bound.
SPREAD_EXEMPT = ("setup_s",)


def seeds_of(text: str) -> list:
    """``"1-10"`` or ``"3,5,8"`` into a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_set(command: list, seeds: list, label: str) -> dict:
    """One run per seed; metric name -> values in seed order, or
    ``None`` when a run failed or was incorrect."""
    values: dict = {}
    ok = True
    for seed in seeds:
        done = subprocess.run(
            command + ["--seed", str(seed), "--trace", "0"], cwd=ROOT,
            capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{label} seed {seed}: exit {done.returncode}\n"
                  f"{done.stderr}")
            return None
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= result["correct"] and result["failed"] == 0
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.6g}")
        print(f"{label} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(line),
              flush=True)
    return values if ok else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    command = spec["command"] + ["--workload", args.workload,
                                 "--seconds", str(spec["run_seconds"])]
    seeds = seeds_of(args.seeds)
    sets = []
    for index in range(args.sets):
        values = run_set(command, seeds, f"set {index + 1}")
        if values is None:
            return 1
        sets.append(values)
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = [statistics.median(values[name]) for values in sets]
        line = [f"{name:20s} bound {bound:<6g}"]
        for index, values in enumerate(sets):
            share = spread(values[name]) if len(seeds) > 1 else 0.0
            flag = ""
            if name not in SPREAD_EXEMPT and share > bound / 3:
                flag, ok = " >bound/3", False
            line.append(f"set {index + 1}: median "
                        f"{medians[index]:<11.6g} spread "
                        f"{share:.4f}{flag}")
        for index, median in enumerate(medians[1:], start=2):
            worse = (median - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            flag = ""
            if worse > bound:
                flag, ok = " >bound", False
            line.append(f"set {index} worse by {worse:+.4f}{flag}")
        print("  ".join(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
