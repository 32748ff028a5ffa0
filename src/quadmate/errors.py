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
    """Continuity of the square-root lift was lost near the given curve parameter.

    ``arc`` is the index, in child traversal order, of the arc being lifted or
    stitched, and ``iteration`` the pullback that failed; each is None until
    the code that knows it fills it in.
    """

    def __init__(self, parameter, message: str = "branch tracking lost", arc: int | None = None):
        self.parameter = parameter
        self.message = message
        self.arc = arc
        self.iteration: int | None = None
        super().__init__(parameter, message)

    def __str__(self) -> str:
        where = "" if self.arc is None else f" on arc {self.arc}"
        return f"{self.message} at parameter {self.parameter}{where}"


class SerializationError(QuadmateError):
    """A curve dump or report file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
