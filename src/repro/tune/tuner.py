"""Per-step kernel-variant selection by measurement.

The compiler offers a :class:`Tuner` the lowerings of a step that
reproduce the reference lowering's bytes (the reference first) and
bakes the one it names into the program.  The tuner:

1. consults its :class:`TuneCache` -- a hit (same signature, same
   candidate set) answers with **zero re-timing**;
2. on a miss, synthesizes the step's deterministic input and times
   every candidate min-of-repeats
   (:func:`~repro.harness.timing.min_time_ms`), recording the winner.

The tuner is compile-time machinery: once a variant is chosen, the
compiled step runs it unconditionally.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..harness.timing import min_time_ms

#: A step lowering offered for selection: (variant name, step fn).
Candidate = Tuple[str, Callable[[List[np.ndarray]], np.ndarray]]

#: Min-of-repeats count per timed variant.
REPEATS = 3


class TuneCache:
    """In-memory store of tuning records, keyed by step signature.

    Attributes:
        hits / misses: :meth:`get` outcomes.
    """

    def __init__(self) -> None:
        self._records: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, signature: str,
            candidates: Iterable[str]) -> Optional[str]:
        """The stored winning variant, or None when tuning is due.

        A record only hits when it chose among exactly the candidate
        set being offered now -- added or removed variants re-tune.
        """
        offered = sorted(candidates)
        record = self._records.get(signature)
        if (record is None
                or record.get("candidates") != offered
                or record.get("variant") not in offered):
            self.misses += 1
            return None
        self.hits += 1
        return str(record["variant"])

    def put(self, signature: str, variant: str,
            candidates: Iterable[str],
            timings_ms: Optional[Dict[str, float]] = None) -> None:
        """Record a tuning decision for ``signature``."""
        record: Dict[str, Any] = {
            "variant": variant,
            "candidates": sorted(candidates),
        }
        if timings_ms:
            record["ms"] = {name: float(ms)
                            for name, ms in sorted(timings_ms.items())}
        self._records[signature] = record

    def records(self) -> Dict[str, Dict[str, Any]]:
        """A snapshot copy of all records (for inspection/tests)."""
        return {sig: dict(rec) for sig, rec in self._records.items()}

    def stats(self) -> Dict[str, int]:
        return {"records": len(self._records), "hits": self.hits,
                "misses": self.misses}


class Tuner:
    """Selects the fastest of a step's byte-checked lowerings.

    Attributes:
        cache: the :class:`TuneCache` of this tuner's decisions.
        timed: signatures actually microbenchmarked (cache misses).
    """

    def __init__(self) -> None:
        self.cache = TuneCache()
        self.timed = 0

    def select(self, signature: str,
               candidates: Sequence[Candidate],
               make_input: Callable[[], np.ndarray]) -> str:
        """The variant to bake into the step with this signature.

        ``candidates[0]`` is the reference lowering; a single
        candidate is returned without timing or a cache record.
        """
        if not candidates:
            raise ValueError("select() needs at least one candidate")
        names = [name for name, _ in candidates]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate candidate names: {names}")
        if len(candidates) == 1:
            return names[0]
        cached = self.cache.get(signature, names)
        if cached is not None:
            return cached
        inputs = [make_input()]
        self.timed += 1
        timings: Dict[str, float] = {}
        for name, fn in candidates:
            ms, _ = min_time_ms(lambda f=fn: f(inputs), REPEATS)
            timings[name] = ms
        winner = min(timings, key=lambda name: timings[name])
        self.cache.put(signature, winner, names, timings)
        return winner
