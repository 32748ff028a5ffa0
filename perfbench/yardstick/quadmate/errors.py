"""Exception hierarchy shared across the package."""

from __future__ import annotations


class QuadmateError(Exception):
    """Base class for all package-specific failures."""


class AngleError(QuadmateError, ValueError):
    """Invalid angle input (zero denominator, periodic where preperiodic required, ...)."""


class StructuralError(QuadmateError):
    """A combinatorial gate failed: the requested mating cannot be iterated.

    ``reason`` is a short machine-readable tag (e.g. ``"conjugate limbs"``,
    ``"pinched curve"``, ``"critical values identified"``); ``detail`` is the
    human-readable elaboration shown in reports.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class BranchTrackingError(QuadmateError):
    """Continuity of the square-root lift was lost near the given curve parameter."""

    def __init__(self, parameter, message: str = "branch tracking lost"):
        self.parameter = parameter
        super().__init__(f"{message} at parameter {parameter}")


class SerializationError(QuadmateError):
    """A curve dump or report file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
