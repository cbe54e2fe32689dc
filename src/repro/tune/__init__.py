"""Profile-guided kernel autotuning (compile-time variant selection).

μLayer's premise is that each layer is won by the execution strategy
its shape and dtype favor; this package closes the loop for the
compiled path.  At compile time a :class:`Tuner` microbenchmarks the
legal lowerings of every step (im2col+GEMM reference, direct 1x1 GEMM
and batch-folded float GEMM), byte-checks them against the
reference, and bakes the fastest into the
:class:`~repro.compile.program.CompiledProgram`.  Decisions persist in
a versioned, runtime-fingerprinted :class:`TuneCache` so identical
steps are tuned once per machine, not once per process.
"""

from .cache import (CACHE_VERSION, TuneCache, default_cache_path,
                    runtime_fingerprint)
from .tuner import Tuner

__all__ = [
    "CACHE_VERSION",
    "TuneCache",
    "Tuner",
    "default_cache_path",
    "runtime_fingerprint",
]
