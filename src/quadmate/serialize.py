"""Text persistence for discrete curves and run reports.

The dump format is line oriented and human-diffable: curve parameters are
exact fraction strings, positions are ``repr`` floats (so a round trip through
the text reproduces every bit), and the point at infinity is the literal
``inf``.  Parse failures raise :class:`SerializationError` carrying the
offending line number.
"""

from __future__ import annotations

from .angles import Angle
from .combinatorics import Mark, MarkKind, Schedule, Side
from .engine import CurveSample, DiscreteCurve, RunReport
from .errors import SerializationError
from .ratmap import SpherePoint

_MAGIC = "quadmate-curve 1"
_KINDS = {k.value: k for k in MarkKind}
_SIDES = {s.value: s for s in Side}


def _fmt_point(z: SpherePoint) -> str:
    if z is None:
        return "inf"
    return f"{z.real!r} {z.imag!r}"


def _fmt_record_point(z: SpherePoint) -> str:
    return "inf" if z is None else repr(z)


def dump_curve(c: DiscreteCurve, u: SpherePoint = None, v: SpherePoint = None) -> str:
    """Serialize a curve (and the map parameters that produced it) to text."""
    s = c.schedule
    lines = [
        _MAGIC,
        f"level {c.level}",
        f"u {_fmt_point(u)}",
        f"v {_fmt_point(v)}",
        f"black-value {s.black_value}",
        f"red-value {s.red_value}",
    ]
    for t, pid in s.base_points:
        lines.append(f"base {t} {pid}")
    lines.append(f"marks {len(s.marks)}")
    for m in s.marks:
        pid = "-" if m.point_id is None else str(m.point_id)
        color = "-" if m.color is None else m.color.value
        lines.append(f"{m.parameter} {m.kind.value} {pid} {color}")
    lines.append(f"samples {len(c.samples)}")
    for smp in c.samples:
        lines.append(f"{smp.parameter} {_fmt_point(smp.position)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.at = 0

    def next(self) -> tuple[int, str]:
        while self.at < len(self.lines):
            self.at += 1
            line = self.lines[self.at - 1].strip()
            if line:
                return self.at, line
        raise SerializationError("unexpected end of file", self.at)

    def peek(self) -> str | None:
        save = self.at
        try:
            _, line = self.next()
        except SerializationError:
            return None
        self.at = save
        return line


def _parse_angle(text: str, line: int) -> Angle:
    try:
        return Angle.parse(text)
    except Exception as exc:
        raise SerializationError(f"bad parameter {text!r}: {exc}", line) from exc


def _parse_point(parts: list[str], line: int) -> SpherePoint:
    if parts == ["inf"]:
        return None
    if len(parts) != 2:
        raise SerializationError(
            f"position must be 're im' or 'inf', got {' '.join(parts)!r}", line
        )
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise SerializationError(f"bad position component: {exc}", line) from exc


def _parse_int(text: str, what: str, line: int) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SerializationError(f"bad {what} {text!r}", line) from exc


def _keyed(r: _Reader, key: str) -> tuple[int, list[str]]:
    line, text = r.next()
    parts = text.split()
    if parts[0] != key:
        raise SerializationError(f"expected {key!r}, got {parts[0]!r}", line)
    if len(parts) == 1:  # every keyed line carries a value
        raise SerializationError(f"{key!r} line has no value", line)
    return line, parts[1:]


def load_curve(text: str) -> tuple[DiscreteCurve, SpherePoint, SpherePoint]:
    """Parse a curve dump back into a curve and its (u, v) map parameters."""
    r = _Reader(text)
    if r.peek() is None:
        raise SerializationError("empty dump", 1)
    line, head = r.next()
    if head != _MAGIC:
        raise SerializationError(f"unrecognized header {head!r}", line)
    line, rest = _keyed(r, "level")
    level = _parse_int(rest[0], "level", line)
    line, rest = _keyed(r, "u")
    u = _parse_point(rest, line)
    line, rest = _keyed(r, "v")
    v = _parse_point(rest, line)
    line, rest = _keyed(r, "black-value")
    black_value = _parse_angle(rest[0], line)
    line, rest = _keyed(r, "red-value")
    red_value = _parse_angle(rest[0], line)

    base: list[tuple[Angle, int]] = []
    while (nxt := r.peek()) is not None and nxt.startswith("base "):
        line, rest = _keyed(r, "base")
        if len(rest) != 2:
            raise SerializationError("base line needs a parameter and a point id", line)
        base.append((_parse_angle(rest[0], line), _parse_int(rest[1], "point id", line)))

    line, rest = _keyed(r, "marks")
    n_marks = _parse_int(rest[0], "mark count", line)
    marks: list[Mark] = []
    for _ in range(n_marks):
        line, text = r.next()
        parts = text.split()
        if len(parts) != 4:
            raise SerializationError(
                "mark line needs parameter, kind, point id and color", line
            )
        t = _parse_angle(parts[0], line)
        if parts[1] not in _KINDS:
            raise SerializationError(f"unknown mark kind {parts[1]!r}", line)
        pid = None if parts[2] == "-" else _parse_int(parts[2], "point id", line)
        if parts[3] == "-":
            color = None
        elif parts[3] in _SIDES:
            color = _SIDES[parts[3]]
        else:
            raise SerializationError(f"unknown mark color {parts[3]!r}", line)
        marks.append(Mark(t, _KINDS[parts[1]], point_id=pid, color=color))

    line, rest = _keyed(r, "samples")
    n_samples = _parse_int(rest[0], "sample count", line)
    mark_of = {m.parameter: m for m in marks}
    samples: list[CurveSample] = []
    prev: Angle | None = None
    for _ in range(n_samples):
        line, text = r.next()
        parts = text.split()
        t = _parse_angle(parts[0], line)
        if prev is not None and not prev < t:
            raise SerializationError(f"samples out of order at parameter {t}", line)
        prev = t
        samples.append(CurveSample(t, _parse_point(parts[1:], line), mark_of.get(t)))
    line, text = r.next()
    if text != "end":
        raise SerializationError(f"expected 'end', got {text!r}", line)

    schedule = Schedule(
        marks=tuple(marks),
        level=level,
        base_points=tuple(base),
        black_value=black_value,
        red_value=red_value,
    )
    return DiscreteCurve(samples=tuple(samples), level=level, schedule=schedule), u, v


def format_report(report: RunReport, run_id: str) -> str:
    """Render a run report as stable, diffable text.

    Only records of the Newton finish carry a field naming their phase
    (``phase=newton``, ``phase=confirm``); plain pullback records carry none.
    """
    lines = [
        "quadmate-report 1",
        f"run-id {run_id}",
        f"alpha {report.alpha}",
        f"beta {report.beta}",
    ]
    for key in sorted(report.options):
        lines.append(f"option {key} {report.options[key]!r}")
    lines.append(f"status {report.status}")
    if report.message:
        lines.append(f"message {report.message}")
    for w in report.warnings:
        lines.append(f"warning {w}")
    lines.append(f"iterations {len(report.records)}")
    for rec in report.records:
        inc = "-" if rec.increment is None else repr(rec.increment)
        phase = "" if rec.phase == "pullback" else f" phase={rec.phase}"
        lines.append(
            f"{rec.n} u={_fmt_record_point(rec.u)} v={_fmt_record_point(rec.v)} "
            f"samples={rec.samples_before}->{rec.samples_after} increment={inc}{phase}"
        )
    lines.append("end")
    return "\n".join(lines) + "\n"
