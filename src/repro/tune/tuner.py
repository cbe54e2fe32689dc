"""Per-step kernel-variant selection by measurement.

The compiler builds every *legal* lowering of a step (the reference
im2col+GEMM path plus the applicable alternatives from
:mod:`repro.kernels.variants`) and asks a :class:`Tuner` which one to
bake into the :class:`~repro.compile.program.CompiledProgram`.  The
tuner:

1. consults its :class:`~repro.tune.cache.TuneCache` -- a hit (same
   signature, same candidate set, same runtime fingerprint) answers
   with **zero re-timing**;
2. on a miss, synthesizes one deterministic input, runs the reference
   lowering, and **byte-checks** every alternative against it --
   a variant that changes even one output byte is discarded (the
   repo's identity invariant is the acceptance bar, not a tolerance);
3. times the survivors min-of-repeats
   (:func:`~repro.harness.timing.min_time_ms`) and records the
   winner.

The tuner is compile-time machinery: once a variant is chosen, the
compiled step runs it unconditionally and the program's serial loop is
none the wiser.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..harness.timing import min_time_ms
from .cache import TuneCache

#: A step lowering offered for selection: (variant name, step fn).
Candidate = Tuple[str, Callable[[List[np.ndarray]], np.ndarray]]


class Tuner:
    """Selects the fastest legal kernel variant per step signature.

    Args:
        cache: the (possibly shared, possibly persistent)
            :class:`TuneCache`; defaults to a fresh in-memory cache.
        repeats: min-of-repeats count per timed variant.

    Attributes:
        timed: signatures actually microbenchmarked (cache misses);
            a warm cache keeps this at zero.
        selections: variant name histogram over all select() calls.
    """

    def __init__(self, cache: Optional[TuneCache] = None,
                 repeats: int = 3) -> None:
        self.cache = cache if cache is not None else TuneCache()
        self.repeats = int(repeats)
        self.timed = 0
        self.selections: Dict[str, int] = {}

    def _record_selection(self, variant: str) -> str:
        self.selections[variant] = self.selections.get(variant, 0) + 1
        return variant

    def _identical(self, out: np.ndarray, ref: np.ndarray) -> bool:
        return (out.shape == ref.shape and out.dtype == ref.dtype
                and out.tobytes() == ref.tobytes())

    def select(self, signature: str,
               candidates: Sequence[Candidate],
               make_input: Callable[[], np.ndarray]) -> str:
        """The variant to bake into the step with this signature.

        ``candidates[0]`` is the reference lowering and is never
        rejected; every other candidate must reproduce the reference
        output byte for byte on the synthesized input or it is
        discarded before any timing.
        """
        if not candidates:
            raise ValueError("select() needs at least one candidate")
        names = [name for name, _ in candidates]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate candidate names: {names}")
        if len(candidates) == 1:
            return self._record_selection(names[0])
        cached = self.cache.get(signature, names)
        if cached is not None:
            return self._record_selection(cached)

        inputs = [make_input()]
        ref_name, ref_fn = candidates[0]
        reference = np.asarray(ref_fn(inputs))
        survivors: List[Candidate] = [(ref_name, ref_fn)]
        for name, fn in candidates[1:]:
            if self._identical(np.asarray(fn(inputs)), reference):
                survivors.append((name, fn))

        timings: Dict[str, float] = {}
        if len(survivors) == 1:
            winner = ref_name
        else:
            self.timed += 1
            for name, fn in survivors:
                ms, _ = min_time_ms(lambda f=fn: f(inputs),
                                    self.repeats)
                timings[name] = ms
            winner = min(timings, key=lambda name: timings[name])
        self.cache.put(signature, winner, names, timings)
        return self._record_selection(winner)

    def flush(self) -> None:
        """Persist the cache (no-op for in-memory caches)."""
        self.cache.save()
