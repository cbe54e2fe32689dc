"""Kernel-variant selection by measurement (optional, compile time).

The compiler byte-checks every alternative lowering of a step against
the reference and, by default, takes ``direct1x1`` wherever it passes
(see :mod:`repro.compile.compiler`).  A :class:`Tuner` handed to
:func:`~repro.compile.compile_program` or ``MuLayer(tuner=...)``
instead times the lowerings that pass and bakes the faster into the
:class:`~repro.compile.program.CompiledProgram`; its in-memory
:class:`TuneCache` answers a repeated step signature without timing
it again.
"""

from .tuner import TuneCache, Tuner

__all__ = ["TuneCache", "Tuner"]
