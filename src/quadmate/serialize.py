"""Text persistence for discrete curves and run reports.

The dump format is line oriented and human-diffable: curve parameters are
exact fraction strings, positions are ``repr`` floats (so a round trip through
the text reproduces every bit), and the point at infinity is the literal
``inf``.  ``dump_curve(curve)`` writes the curve's own critical values as the
``u`` and ``v`` lines, and ``load_curve(text)`` returns the curve, refusing
``u`` and ``v`` lines that are not its samples.  The ``base`` and mark
lines restate the schedule, which the critical values, the level and the
mark count fix: the loader rebuilds it and refuses any line that is not
the one the writer prints for it.  Parse failures raise
:class:`SerializationError` carrying the offending line number.

The writer makes these bytes cheaply.  A parameter's text comes from its
integer numerator over the curve's denominator, with no ``Angle`` built.  A
curve is mostly symmetric under z -> -z, and the ``repr`` of -x is the
``repr`` of x with its sign flipped; so a sample whose point is exactly the
negative of its twin's, the sample half the curve before it, takes its
twin's coordinate texts with their signs flipped instead of two fresh
``repr`` calls.  The rule is per sample and exact, so broken symmetry costs
only time.
"""

from __future__ import annotations

from dataclasses import replace
from math import gcd, isfinite

from .angles import Angle
from .combinatorics import Mark, Schedule, base_schedule, pullback_schedule
from .engine import DiscreteCurve, RunReport
from .errors import QuadmateError, SerializationError
from .ratmap import SpherePoint

_MAGIC = "quadmate-curve 1"


def _fmt_point(z: SpherePoint) -> str:
    if z is None:
        return "inf"
    return f"{z.real!r} {z.imag!r}"


def _fmt_record_point(z: SpherePoint) -> str:
    return "inf" if z is None else repr(z)


def _flip(text: str) -> str:
    """The ``repr`` of -x, given the ``repr`` of a float x."""
    return text[1:] if text[0] == "-" else "-" + text


def _sample_lines(c: DiscreteCurve) -> list[str]:
    """Each sample's line: its parameter in lowest terms, then its position as
    ``_fmt_point`` writes it.

    On an even count, a point that is exactly the negative of its twin, the
    point half the curve before it, takes the coordinate texts of its twin's
    line with each sign flipped.  The comparison cannot see the sign of a
    zero, so a point with a zero coordinate is formatted afresh, as is every
    point of an odd count.  The twin's texts are read back from its line
    rather than kept beside it, so the dump holds no more than its lines.
    """
    den, points = c.den, c.points
    half = len(points) // 2 if len(points) % 2 == 0 else len(points)
    lines = []
    for p, z in zip(c.params[:half], points):
        # gcd(0, den) == den: the anchor's parameter is written 0
        t = "0" if (g := gcd(p, den)) == den else f"{p // g}/{den // g}"
        lines.append(f"{t} inf" if z is None else f"{t} {z.real!r} {z.imag!r}")
    for p, z, w, twin in zip(c.params[half:], points[half:], points, lines[:half]):
        t = "0" if (g := gcd(p, den)) == den else f"{p // g}/{den // g}"
        if z is None:
            lines.append(f"{t} inf")
        elif w is not None and z == -w and z.real and z.imag:
            _, re, im = twin.split(" ")
            lines.append(f"{t} {_flip(re)} {_flip(im)}")
        else:
            lines.append(f"{t} {z.real!r} {z.imag!r}")
    return lines


def _base_lines(s: Schedule) -> list[str]:
    return [f"base {t} {pid}" for t, pid in s.base_points]


def _mark_line(m: Mark) -> str:
    pid = "-" if m.point_id is None else str(m.point_id)
    color = "-" if m.color is None else m.color.value
    return f"{m.parameter} {m.kind.value} {pid} {color}"


def dump_curve(c: DiscreteCurve) -> str:
    """Serialize a curve to text.

    The ``u`` and ``v`` lines are the curve's samples at its two value
    parameters, with no collision check: the map that lifts the curve next,
    not the one that produced it.  A parameter p/den is written in lowest
    terms, ``0`` at the anchor.  On an even sample count, a point that is
    bitwise the negative of its twin's is written as its twin's coordinate
    texts with each sign flipped, which is exactly its ``repr`` text (see
    :func:`_sample_lines`).
    """
    s = c.schedule
    lines = [
        _MAGIC,
        f"level {s.level}",
        f"u {_fmt_point(c.point_at(s.black_value))}",
        f"v {_fmt_point(c.point_at(s.red_value))}",
        f"black-value {s.black_value}",
        f"red-value {s.red_value}",
    ]
    lines += _base_lines(s)
    lines.append(f"marks {len(s.marks)}")
    lines += map(_mark_line, s.marks)
    lines.append(f"samples {len(c.params)}")
    lines += _sample_lines(c)
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
        re, im = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise SerializationError(f"bad position component: {exc}", line) from exc
    if not (isfinite(re) and isfinite(im)):  # the writer gives infinity as inf
        raise SerializationError(f"position {' '.join(parts)!r} is not finite", line)
    return complex(re, im)


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


def _value(r: _Reader, key: str) -> tuple[int, str]:
    """A keyed line that carries exactly one value."""
    line, rest = _keyed(r, key)
    if len(rest) > 1:
        raise SerializationError(f"{key!r} line has more than one value", line)
    return line, rest[0]


def _expect(r: _Reader, want: str) -> int:
    """Read the line ``want``, up to whitespace; return its number."""
    line, text = r.next()
    if text.split() != want.split():
        raise SerializationError(f"expected {want!r}, got {text!r}", line)
    return line


def load_curve(text: str) -> DiscreteCurve:
    """Parse a curve dump; its ``u`` and ``v`` lines must be its own samples.

    The schedule is rebuilt, not read: ``base_schedule`` of the critical
    values at level ``level - k``, pulled back k times, where the mark count
    is its level-0 count doubled k times.  The ``base`` and mark lines must
    be the lines :func:`dump_curve` writes for it, up to whitespace, and each
    mark needs a sample.
    """
    r = _Reader(text)
    if r.peek() is None:
        raise SerializationError("empty dump", 1)
    line, head = r.next()
    if head != _MAGIC:
        raise SerializationError(f"unrecognized header {head!r}", line)
    line, value = _value(r, "level")
    level = _parse_int(value, "level", line)
    u_line, rest = _keyed(r, "u")
    u = _parse_point(rest, u_line)
    v_line, rest = _keyed(r, "v")
    v = _parse_point(rest, v_line)
    line, value = _value(r, "black-value")
    black_value = _parse_angle(value, line)
    line, value = _value(r, "red-value")
    red_value = _parse_angle(value, line)
    try:
        s0 = base_schedule(black_value, red_value.mirror())
    except QuadmateError as exc:
        raise SerializationError(
            f"no schedule for critical values {black_value} and {red_value}: {exc}", line
        ) from exc
    for want in _base_lines(s0):
        _expect(r, want)

    line, value = _value(r, "marks")
    n_marks = _parse_int(value, "mark count", line)
    n0 = len(s0.marks)
    k = (n_marks // n0).bit_length() - 1
    if not 0 <= k <= level or n_marks != n0 << k:
        raise SerializationError(
            f"mark count {n_marks} is not {n0} << k with 0 <= k <= {level}", line
        )
    if n_marks > len(r.lines) - r.at:  # builds no schedule for a count the text cannot hold
        raise SerializationError(f"mark count {n_marks} exceeds the lines that follow", line)
    schedule = replace(s0, level=level - k)
    for _ in range(k):
        schedule = pullback_schedule(schedule)
    mark_lines = [_expect(r, _mark_line(m)) for m in schedule.marks]

    line, value = _value(r, "samples")
    n_samples = _parse_int(value, "sample count", line)
    params: list[Angle] = []
    points: list[SpherePoint] = []
    for _ in range(n_samples):
        line, text = r.next()
        parts = text.split()
        t = _parse_angle(parts[0], line)
        if params and not params[-1] < t:
            raise SerializationError(f"samples out of order at parameter {t}", line)
        params.append(t)
        points.append(_parse_point(parts[1:], line))
    _expect(r, "end")

    curve = DiscreteCurve.from_angles(params, points, schedule)
    # the critical values are marks at every level, so they have samples too
    for m, line in zip(schedule.marks, mark_lines):
        try:
            curve.index(m.parameter)
        except KeyError:
            raise SerializationError(
                f"mark at parameter {m.parameter} has no sample", line
            ) from None
    for what, t, z, line in (("u", black_value, u, u_line), ("v", red_value, v, v_line)):
        if curve.point_at(t) != z:
            raise SerializationError(f"{what} is not the sample at parameter {t}", line)
    return curve


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
