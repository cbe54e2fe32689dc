"""Graph compilation: lowering plans into fused, pre-resolved programs.

The compiled execution path trades the functional executor's per-layer
interpretation (plan lookups, per-call operand packing, per-sample
kernel loops) for a one-time lowering pass: :func:`compile_program` resolves
every placement, quantization parameter, packed operand, and buffer
offset statically, leaving a flat list of fused kernel calls whose
outputs are byte-identical to the interpreted path.
:meth:`CompiledProgram.run` executes that list as one serial loop.
"""

from .compiler import compile_program
from .program import CompiledProgram, CompiledStep, InputSpec

__all__ = [
    "CompiledProgram",
    "CompiledStep",
    "InputSpec",
    "compile_program",
]
