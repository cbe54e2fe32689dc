"""The repository's benchmark: four workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload mini-b1 --seed 1 --seconds 20 \
        --trace 0

The workloads, metrics and the layer-to-metric pairing are described
in ``perfbench/README.md``.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate traced run that reports the per-layer
metrics (spans are kept in memory and saved to ``perfbench/out/`` when
the run ends).  Every output is checked against the uncached
interpreter oracle and every simulated figure against its repeats.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
run's record (BLAS threads, CPU count, seed, tuned-variant histogram,
set-up samples, error rate).

BLAS is pinned to one thread before numpy loads, so every workload
runs one thread of program execution.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

#: Fixed before numpy is imported; recorded in every run's record.
BLAS_THREADS = "1"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("mini-b1", "full-b1", "mini-churn", "cluster-diurnal")


def declared() -> dict:
    """``BENCHMARK.json``'s metrics: kind -> {name: unit}, in order.

    A traced run reports every ``per_layer`` metric; each workload
    names the layers it never reaches (the cluster runs no kernels,
    the inference workloads no cluster) in its ``BYPASSED`` and
    reports them as 0.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {metric["name"]: metric["unit"]
                   for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program sources under {source}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [source, HERE]
    import numpy as np

    if args.workload == "cluster-diurnal":
        import cluster as workload
    else:
        import inference as workload
    started = time.perf_counter()
    result = workload.run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    tracer = result.pop("tracer")
    metrics = result.pop("metrics")
    record = result.pop("record")
    unit_of = declared()["per_layer" if args.trace else "end_to_end"]
    names = list(unit_of)
    if args.trace:
        path = os.path.join(HERE, "out", f"spans-{args.workload}-"
                            f"seed{args.seed}.json")
        tracer.write(path)
        record["spans"] = len(tracer.spans)
        record["spans_file"] = os.path.relpath(path, ROOT)
    else:
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    missing = [name for name in names if name not in metrics]
    unknown = sorted(set(metrics) - set(names))
    if missing or unknown:
        raise RuntimeError(f"metrics not measured: {missing}; "
                           f"not declared: {unknown}")
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  blas_threads=BLAS_THREADS, nproc=os.cpu_count(),
                  numpy=np.__version__,
                  wall_s=time.perf_counter() - started)
    for name in sorted(record):
        print(f"record {name}: {json.dumps(record[name])}")
    for name in names:
        print(f"metric {name}: {metrics[name]!r} {unit_of[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": unit_of[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
