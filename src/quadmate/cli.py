"""Command-line interface: structural checks, schedules, and mating runs.

Exit codes: 0 success, 2 structural gate failure, 3 numeric failure (branch
loss or divergence), 64 usage, including a dump directory that cannot be
created and an artifact that cannot be written; a reader that closes standard
output early ends the command with 0.
Artifacts of one ``mate`` run land in a directory named by the run id, a
digest of the full configuration, so reruns with the same configuration
overwrite their own artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .angles import Angle
from .combinatorics import (
    base_schedule,
    fsr_valid,
    jordan_defect,
    postcritical_count,
    pullback_schedule,
)
from .engine import (
    _PARABOLIC_POINTS,
    _PARABOLIC_WARNING,
    IterateOptions,
    RunReport,
    _class_text,
    iterate,
)
from .errors import AngleError, QuadmateError, StructuralError
from .lamination import mateable_detail
from .ratmap import SpherePoint
from .render import render_views
from .serialize import dump_curve, format_report

EXIT_OK = 0
EXIT_STRUCTURAL = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

_DUMP_ENV = "QUADMATE_DUMP_DIR"
# the most marks ``schedule`` prints; each level doubles the count
_MARK_CAP = 1 << 16


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; the contract reserves 2 for
    # structural failures, so usage problems are remapped
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_preperiodic(text: str, name: str) -> Angle:
    try:
        a = Angle.parse(text)
    except AngleError as exc:
        raise AngleError(f"{name}: {exc}") from exc
    if not a.is_preperiodic():
        raise AngleError(
            f"{name} = {a} is periodic under doubling; "
            "a strictly preperiodic angle (even denominator) is required"
        )
    return a


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _sig12(z: SpherePoint) -> str:
    if z is None:
        return "inf"
    re, im = ("%.12g" % (z.real + 0.0)), ("%.12g" % abs(z.imag))
    sign = "-" if z.imag < 0 else "+"
    return f"{re} {sign} {im}i"


def cmd_check(args) -> int:
    alpha = _parse_preperiodic(args.alpha, "alpha")
    beta = _parse_preperiodic(args.beta, "beta")
    ok, la, lb = mateable_detail(alpha, beta)
    print(f"alpha (black): {alpha}")
    print(f"beta  (red):   {beta}")
    print(f"mateable: {_yes(ok)}")
    print(f"limb of alpha: {la if la is not None else 'none'}")
    print(f"limb of beta:  {lb if lb is not None else 'none'}")
    defect = jordan_defect(alpha, beta)
    jordan = defect is None
    print(f"is_jordan: {_yes(jordan)}")
    if not jordan:
        print(f"pinching class: {_class_text(defect)}")
    valid = fsr_valid(alpha, beta)
    print(f"fsr_valid: {_yes(valid)}")
    count = postcritical_count(alpha, beta)
    print(f"postcritical points: {count}")
    if count <= _PARABOLIC_POINTS:
        print(f"warning: {_PARABOLIC_WARNING}")
    try:
        base_schedule(alpha, beta)
    except StructuralError as exc:
        print(f"schedule: rejected ({exc})")
        return EXIT_STRUCTURAL
    return EXIT_OK if ok and jordan and valid else EXIT_STRUCTURAL


def cmd_schedule(args) -> int:
    alpha = _parse_preperiodic(args.alpha, "alpha")
    beta = _parse_preperiodic(args.beta, "beta")
    if args.level < 0:
        raise AngleError("--level must be nonnegative")
    try:
        s = base_schedule(alpha, beta)
        # refused before any doubling; a level past the cap's bit length is
        # refused outright, so the shift stays small
        if args.level >= _MARK_CAP.bit_length() or len(s.marks) << args.level > _MARK_CAP:
            raise AngleError(
                f"--level {args.level} would exceed {_MARK_CAP} marks "
                f"for ({alpha}, {beta}), which have {len(s.marks)} at level 0"
            )
        for _ in range(args.level):
            s = pullback_schedule(s)
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    print(f"level {s.level} schedule for ({alpha}, {beta}): {len(s.marks)} marks")
    print(f"black critical value at parameter {s.black_value}")
    print(f"red critical value at parameter {s.red_value}")
    width = max(len(str(m.parameter)) for m in s.marks)
    for m in s.marks:
        print(f"  {str(m.parameter):>{width}}  {m.label()}")
    return EXIT_OK


def _run_id(alpha: Angle, beta: Angle, opts: IterateOptions) -> str:
    fields = asdict(opts)
    canon = f"quadmate mate 1|{alpha}|{beta}|" + "|".join(
        f"{k}={fields[k]!r}" for k in sorted(fields)
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write(path: Path, text: str) -> None:
    """Write one artifact; a failed write is a usage error, as an unusable
    dump directory is."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise AngleError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _dump_hook(out_dir: Path):
    """A curve hook that writes each record's curve dump as the record is made.

    Every curve ``iterate`` hands out matches its record: its schedule's level
    is the record's n and its own critical values, which the dump writes, are
    the record's u and v.
    """
    return lambda c: _write(out_dir / f"curve-{c.schedule.level:03d}.txt", dump_curve(c))


def _write_artifacts(out_dir: Path, run_id: str, report: RunReport, render: bool):
    """The artifacts written after the run: the report and the final curve's
    figures; the final curve's dump is its record's, written by the hook."""
    _write(out_dir / "report.txt", format_report(report, run_id))
    if render and report.final_curve is not None:
        for name, svg in render_views(report.final_curve).items():
            _write(out_dir / f"final-{name}.svg", svg)


def cmd_mate(args) -> int:
    alpha = _parse_preperiodic(args.alpha, "alpha")
    beta = _parse_preperiodic(args.beta, "beta")
    opts = IterateOptions(
        max_iters=args.iters,
        tol=args.tol,
        samples_per_arc=args.samples,
        budget=args.budget,
    )
    for name, value in (
        ("--iters", opts.max_iters),
        ("--samples", opts.samples_per_arc),
        ("--budget", opts.budget),
    ):
        if value <= 0:
            raise AngleError(f"{name} must be positive, got {value}")
    if not opts.tol >= 0:  # also refuses nan
        raise AngleError(f"--tol must be nonnegative, got {opts.tol}")
    try:  # each lifted curve keeps both halves of every level-0 mark
        floor = 2 * len(base_schedule(alpha, beta).marks)
    except StructuralError:
        floor = 0  # the gates in iterate name the failure
    if opts.budget < floor:
        raise AngleError(
            f"--budget must be at least {floor} for ({alpha}, {beta}), got {opts.budget}"
        )
    # an empty $QUADMATE_DUMP_DIR counts as unset
    dump_dir = args.dump or os.environ.get(_DUMP_ENV) or None
    if args.render and dump_dir is None:
        raise AngleError(
            f"--render needs a dump directory (--dump or ${_DUMP_ENV})"
        )

    run_id = _run_id(alpha, beta, opts)
    out_dir = None
    if dump_dir is not None:
        # made before the run, so an unusable directory costs no iterations
        out_dir = Path(dump_dir) / run_id
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise AngleError(
                f"cannot use dump directory {dump_dir}: {exc.strerror or exc}"
            ) from exc
    hook = _dump_hook(out_dir) if out_dir is not None else None
    report = iterate(alpha, beta, opts, curve_hook=hook)

    if out_dir is not None:
        _write_artifacts(out_dir, run_id, report, args.render)

    print(f"run-id: {run_id}")
    for w in report.warnings:
        print(f"warning: {w}")
    if report.status == "structural-error":
        print(f"structural error: {report.message}", file=sys.stderr)
        return EXIT_STRUCTURAL
    iters = report.records[-1].n if report.records else 0
    print(f"status: {report.status} after {iters} iterations")
    if report.message:
        print(f"detail: {report.message}")
    if report.records:
        last = report.records[-1]
        print(f"final u = {_sig12(last.u)}")
        print(f"final v = {_sig12(last.v)}")
    if report.status == "diverged":
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="quadmate",
        description=(
            "Approximate the geometric mating of two critically preperiodic "
            "quadratic polynomials by iterated curve pullback"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the structural gates only")
    p_check.add_argument("alpha", help="black external angle, e.g. 1/4")
    p_check.add_argument("beta", help="red external angle, e.g. 1/8")
    p_check.set_defaults(func=cmd_check)

    p_sched = sub.add_parser("schedule", help="print the mark schedule at a level")
    p_sched.add_argument("alpha")
    p_sched.add_argument("beta")
    p_sched.add_argument("--level", type=int, default=0)
    p_sched.set_defaults(func=cmd_schedule)

    # the defaults are IterateOptions' own, so the two cannot drift apart
    opts = IterateOptions()
    p_mate = sub.add_parser("mate", help="run the pullback iteration")
    p_mate.add_argument("alpha")
    p_mate.add_argument("beta")
    p_mate.add_argument("--iters", type=int, default=opts.max_iters,
                        help="iteration cap (default: %(default)s)")
    p_mate.add_argument("--tol", type=float, default=opts.tol,
                        help="convergence threshold (default: %(default)s)")
    p_mate.add_argument("--samples", type=int, default=opts.samples_per_arc,
                        help="initial samples per arc (default: %(default)s)")
    p_mate.add_argument("--budget", type=int, default=opts.budget,
                        help="sample cap per curve (default: %(default)s)")
    p_mate.add_argument("--dump", default=None, help="directory for run artifacts")
    p_mate.add_argument("--render", action="store_true", help="write SVG figures")
    p_mate.set_defaults(func=cmd_mate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a pipe closed after the last print fails here
        return code
    except BrokenPipeError:
        # the reader closed standard output early (``| head``): the rest of
        # the output is dropped, and devnull takes the interpreter's last flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except AngleError as exc:
        print(f"quadmate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadmateError as exc:
        print(f"quadmate: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
