"""Exception hierarchy for the uLayer reproduction.

Every error raised by this package derives from :class:`ReproError` so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class UnknownNameError(ReproError, KeyError):
    """A model or SoC name is not in its registry.

    Also a :class:`KeyError`, since it reports a failed registry
    lookup; its message is printed as is, without KeyError's quoting.
    """

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


class ShapeError(ReproError):
    """A tensor or layer received data whose shape is inconsistent."""


class DTypeError(ReproError):
    """An operation was asked to run on an unsupported data type."""


class QuantizationError(ReproError):
    """Quantization parameters are missing, invalid, or inconsistent."""


class GraphError(ReproError):
    """A neural-network graph is malformed (cycle, dangling edge, ...)."""


class PlanError(ReproError):
    """An execution plan is inconsistent with the graph it targets."""


class NonFiniteInputError(ReproError, ValueError):
    """An inference input holds NaN or +-inf.

    Rejected at the boundary: a NaN has no uint8 code (its cast is
    undefined) and an infinity would saturate silently.
    """


class SimulationError(ReproError):
    """The SoC simulator was driven into an invalid state."""


class CalibrationError(ReproError):
    """A predictor or observer was used before being calibrated."""


class VerificationError(ReproError):
    """A static analyzer found correctness errors in a plan, timeline,
    or dtype flow.

    Attributes:
        diagnostics: the :class:`~repro.analysis.Diagnostic` records
            (all severities) of the failing report.
    """

    def __init__(self, message: str, diagnostics=None) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])
