"""Min-of-repeats wall-clock timing for the kernel autotuner.

:mod:`repro.tune` times each candidate lowering with
:func:`min_time_ms`: run the callable ``repeats`` times and keep the
*minimum*, which is the noise-robust estimator for a deterministic
workload (anything above the minimum is interference, not work).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional, Tuple

__all__ = ["min_time_ms"]


def min_time_ms(fn: Callable[[], Any],
                repeats: int = 3) -> Tuple[float, Any]:
    """(best wall-clock milliseconds, last result) of ``fn``.

    Runs ``fn`` ``repeats`` times, returning the minimum elapsed time
    and the result of the final invocation (so callers can assert on
    the output they just timed without re-running it).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best: Optional[float] = None
    result: Any = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = (time.perf_counter() - start) * 1000.0
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return best, result
