"""Metric arithmetic of the benchmark, kept free of timing and I/O.

Everything here is a pure function over recorded samples so that
``perfbench/tests`` can pin the rules down:

* a tail percentile is only reported when at least ten samples lie
  beyond it (p95 needs 200 samples, p75 needs 40);
* ``error_rate`` counts requests that raised plus outputs that differ
  from the oracle, over requests attempted;
* ``slo_attainment`` counts shed and unserved requests as misses.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Samples that must lie beyond a reported tail percentile.
SAMPLES_BEYOND_TAIL = 10


def min_samples(q: float) -> int:
    """Fewest samples for which percentile ``q`` has
    :data:`SAMPLES_BEYOND_TAIL` samples beyond it."""
    if not 0.0 <= q < 100.0:
        raise ValueError(f"percentile {q} outside [0, 100)")
    return math.ceil(SAMPLES_BEYOND_TAIL * 100.0 / (100.0 - q) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order
    statistics (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def tail_supported(count: int, q: float) -> bool:
    """Whether ``count`` samples support reporting percentile ``q``."""
    return count >= min_samples(q)


def error_rate(attempted: int, raised: int, mismatched: int) -> float:
    """Failed requests over attempted ones.

    A request fails when it raised or when its output was not
    byte-identical to the oracle; a request that raised has no output
    to compare, so the two counts never overlap.
    """
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempt")
    failed = raised + mismatched
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} "
                         "attempts")
    return failed / attempted


def slo_attainment(met: int, completed: int, shed: int,
                   unserved: int) -> float:
    """Share of offered requests that completed within their SLO.

    Offered = completed + shed + unserved; shed and unserved requests
    are misses, so dropping load never raises attainment.
    """
    if not 0 <= met <= completed:
        raise ValueError(f"{met} met out of {completed} completed")
    offered = completed + shed + unserved
    if offered < 1:
        raise ValueError("slo_attainment needs at least one request")
    return met / offered


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (``statistics.quantiles``
    with ``n=4``), the steadiness figure the benchmark is held to."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf


def summarize(samples_ms: Sequence[float], tail_q: float
              ) -> Dict[str, float]:
    """p50 and the workload's tail percentile of per-request times."""
    return {
        "latency_ms_p50": percentile(samples_ms, 50.0),
        "latency_ms_tail": percentile(samples_ms, tail_q),
    }
