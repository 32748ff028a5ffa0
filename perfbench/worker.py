"""One pass of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py ROLE WORKLOAD SEED WORKDIR [--yardstick]
                                [--twin RFD WFD FIRST]

``--yardstick`` imports the frozen copy of quadmate under yardstick/ instead
of the checkout's ``src/``.  ``--twin`` pairs the pass with a twin process
over two pipes (see Baton).  ROLE is one of

    setup     time from before ``import quadmate`` until the workload's first
              pair has its gate verdict and its level-0 curve;
    pass      one untraced pass of the workload;
    traced    the same pass with timers around the calls that cross a layer
              boundary (module attributes that quadmate looks up at call
              time, replaced from here, so nothing under src/ is edited);
    counting  the same pass with a counter on every call of a few hot
              functions; its timings are discarded.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402


class Baton:
    """Strict turn-taking with a twin process over a pair of pipes.

    The twin runs the same workload on the yardstick (or the same package
    with other instrumentation).  At every segment boundary one process hands
    the turn over and waits, so the two alternate segment by segment, never
    run at once, and see the same phases of a shared host.  ``now`` is a
    clock that stops while this process waits.  Without a twin, or once the
    twin has finished, ``turn`` returns at once.
    """

    def __init__(self):
        self.fds = None
        self.waited = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.waited

    def connect(self, rfd: int, wfd: int, first: bool):
        self.fds = (rfd, wfd)
        if first:
            self._wait()
        else:
            self.turn()

    def turn(self):
        if self.fds is None:
            return
        try:
            os.write(self.fds[1], b"T")
        except BrokenPipeError:
            self._alone()
            return
        self._wait()

    def finish(self):
        if self.fds is not None:
            try:
                os.write(self.fds[1], b"D")
            except BrokenPipeError:
                pass
            self._alone()

    def _wait(self):
        start = time.perf_counter()
        got = os.read(self.fds[0], 1)
        self.waited += time.perf_counter() - start
        if got != b"T":  # the twin has finished (or died)
            self._alone()

    def _alone(self):
        for fd in self.fds:
            os.close(fd)
        self.fds = None


BATON = Baton()
clock = BATON.now


def _import_quadmate(with_cli: bool, yardstick: bool = False):
    root = common.YARDSTICK if yardstick else common.SRC
    sys.path.insert(0, root)
    import quadmate

    if with_cli:
        import quadmate.cli  # noqa: F401
    where = os.path.realpath(os.path.dirname(quadmate.__file__))
    if where != os.path.realpath(os.path.join(root, "quadmate")):
        raise SystemExit(f"quadmate was imported from {where}, not from {root}")
    return quadmate


class _Level0(Exception):
    """Raised from the curve hook to stop ``iterate`` at its level-0 curve."""


def _stop_at_level0(curve):
    raise _Level0


def _mate_options(qm, workload: str):
    if workload == "mate-ex2":
        return qm.IterateOptions(max_iters=common.EX2_CAP, tol=1e-9)
    return qm.IterateOptions(
        max_iters=common.CENSUS_CAP,
        samples_per_arc=common.CENSUS_SAMPLES,
        budget=common.CENSUS_BUDGET,
    )


def role_setup(workload: str, yardstick: bool) -> dict:
    # the census starts with the table's first pair, which the gates accept
    pair = common.EX2_PAIR if workload == "mate-ex2" else common.load_table()[0][:2]
    start = time.perf_counter()
    qm = _import_quadmate(with_cli=workload == "mate-ex2", yardstick=yardstick)
    alpha, beta = (qm.Angle.parse(x) for x in pair)
    try:
        qm.iterate(alpha, beta, _mate_options(qm, workload), curve_hook=_stop_at_level0)
    except _Level0:
        pass
    else:
        raise SystemExit(f"iterate built no level-0 curve for {pair}")
    return {"setup_s": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# the workloads; each returns its timings and the outputs run.py checks


def _digest_tree(top: str) -> tuple[str, int, int]:
    """Digest of every file under ``top``, with the byte count of the text dumps."""
    import hashlib

    h = hashlib.sha256()
    dump_bytes = files = 0
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, top).encode() + b"\0" + data + b"\0")
            files += 1
            if name.endswith(".txt"):
                dump_bytes += len(data)
    return h.hexdigest(), dump_bytes, files


def _segments(start: float, stamps: list[float], end: float) -> list[float]:
    """Durations between a call's start, its curve_hook calls and its end."""
    marks = [start, *stamps, end]
    return [b - a for a, b in zip(marks, marks[1:])]


def _chain_stamp(stamps: list[float], hook=None):
    def stamp(curve):
        stamps.append(clock())
        BATON.turn()
        if hook is not None:
            hook(curve)

    return stamp


def job_mate_ex2(qm, seed: int, work: str) -> dict:
    import contextlib
    import io

    cli = sys.modules["quadmate.cli"]
    out_dir = os.path.join(work, f"ex2-{os.getpid()}")
    argv = ["mate", *common.EX2_PAIR, "--tol", "1e-9", "--iters", str(common.EX2_CAP),
            "--dump", out_dir, "--render"]
    # cli.main keeps its curves through the curve_hook it hands to iterate;
    # stamping that hook marks the iteration boundaries and nothing more
    stamps: list[float] = []
    iterate = cli.iterate

    def stamped_iterate(*args, **kwargs):
        inner = args[3] if len(args) > 3 else kwargs.pop("curve_hook", None)
        return iterate(*args[:3], curve_hook=_chain_stamp(stamps, inner), **kwargs)

    cli.iterate = stamped_iterate
    buf = io.StringIO()
    try:
        start = clock()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        elapsed = clock() - start
    finally:
        cli.iterate = iterate
    digest, dump_bytes, files = _digest_tree(out_dir)
    return {
        "solve_s": elapsed,
        "segments": [_segments(start, stamps, start + elapsed)],
        "rc": rc,
        "stdout": buf.getvalue(),
        "digest": digest,
        "dump_bytes": dump_bytes,
        "files": files,
    }


def _gate_part(qm, rows, seed: int) -> dict:
    todo = [(i, rows[i][0], rows[i][1]) for i in common.gate_sample(rows, seed)]
    todo += [(-1 - k, a, b) for k, ((a, b), _) in enumerate(common.DEEP_PAIRS)]
    verdicts, pair_s = [], []
    for i, a, b in todo:
        alpha, beta = qm.Angle.parse(a), qm.Angle.parse(b)
        t = clock()
        reason = qm.structural_gates(alpha, beta)
        pair_s.append(clock() - t)
        BATON.turn()
        verdicts.append([i, common.verdict_class(reason)])
    return {"gate_s": pair_s, "segments": [[t] for t in pair_s], "verdicts": verdicts}


def _point(z):
    return None if z is None else [z.real, z.imag]


def _mate_part(qm, rows, seed: int) -> dict:
    opts = _mate_options(qm, "census")
    runs, segments = [], []
    for a, b in common.census_pairs(rows, seed):
        alpha, beta = qm.Angle.parse(a), qm.Angle.parse(b)
        stamps: list[float] = []
        t = clock()
        try:
            report = qm.iterate(alpha, beta, opts, curve_hook=_chain_stamp(stamps))
        except Exception as exc:  # a crash is a failed operation, not the end of the census
            segments.append(_segments(t, stamps, clock()))
            BATON.turn()
            runs.append({"pair": [a, b], "status": "exception",
                         "message": f"{type(exc).__name__}: {exc}"})
            continue
        segments.append(_segments(t, stamps, clock()))
        BATON.turn()
        last = report.records[-1] if report.records else None
        runs.append({
            "pair": [a, b],
            "status": report.status,
            "message": report.message,
            "iterations": last.n if last else 0,
            "u": _point(last.u) if last else None,
            "v": _point(last.v) if last else None,
        })
    return {"segments": segments, "runs": runs}


def job_census(qm, seed: int, work: str) -> dict:
    """The gate census from cold caches, then the capped runs of the mate census."""
    rows = common.load_table()
    start = clock()
    gates = _gate_part(qm, rows, seed)
    mates = _mate_part(qm, rows, seed)
    elapsed = clock() - start
    return {
        "solve_s": elapsed,
        "segments": gates["segments"] + mates["segments"],
        "gate_s": gates["gate_s"],
        "verdicts": gates["verdicts"],
        "runs": mates["runs"],
    }


JOBS = {"mate-ex2": job_mate_ex2, "census": job_census}


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Wall-clock spans around replaced module attributes, with self times.

    A span's self time is its duration minus the time of the spans it called.
    A target that no longer exists is recorded as unmeasured, not an error.
    """

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.stack: list[float] = []  # child time of each open span
        self.unmeasured: list[str] = []

    def timed(self, name: str, fn, after=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        def call(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return call

    def replace(self, owner: str, attr: str, make):
        """Replace ``owner.attr`` by ``make(original)``.

        ``owner`` names a module, or a class as ``module:Class``.
        """
        module, _, cls = owner.partition(":")
        target = sys.modules.get(module)
        if cls:
            target = getattr(target, cls, None)
        fn = getattr(target, attr, None)
        if not callable(fn):
            self.unmeasured.append(f"{owner}.{attr}")
            return
        setattr(target, attr, make(fn))


# (module, attribute, span); the span names are the keys run.py reads
SPANS = (
    ("quadmate.cli", "dump_curve", "serialize"),
    ("quadmate.cli", "format_report", "serialize"),
    ("quadmate.cli", "render_views", "render"),
    ("quadmate", "structural_gates", "gates"),
    ("quadmate.engine", "structural_gates", "gates"),
    ("quadmate.engine", "mateable_detail", "mateable"),
    ("quadmate.engine", "jordan_defect", "jordan"),
    ("quadmate.engine", "fsr_valid", "fsr"),
    ("quadmate.combinatorics", "colanding_class", "colanding"),
    ("quadmate.engine", "base_schedule", "schedule"),
    ("quadmate.engine", "pullback_schedule", "schedule"),
    ("quadmate.engine", "pullback_curve", "stitch"),
    ("quadmate.engine", "prune", "prune"),
    ("quadmate.engine", "_rebase", "rebase"),
    ("quadmate.engine", "from_critical_values", "finish"),
    ("quadmate.engine", "read_critical_values", "finish"),
    ("quadmate.engine", "relabel", "finish"),
    ("quadmate.engine", "_collision", "finish"),
)
# both bindings the workloads reach iterate through
ITERATE_OWNERS = ("quadmate", "quadmate.cli")


class RunLog:
    """What the engine reports per iteration, read from what ``iterate`` returns."""

    def __init__(self):
        self.before: list[int] = []
        self.after: list[int] = []
        self.iterations = 0
        self.unreadable = False

    def read(self, args, report):
        try:
            records = list(report.records)[1:]
            self.iterations += len(records)
            self.before += [r.samples_before for r in records]
            self.after += [r.samples_after for r in records]
        except (AttributeError, TypeError):
            self.unreadable = True


def _install_spans(tracer: Tracer, log: RunLog, refinements: list):
    for mod, attr, name in SPANS:
        tracer.replace(mod, attr, lambda fn, name=name: tracer.timed(name, fn))

    def count_refinements(args, lifted):
        # samples _lift_arc returns beyond the entries it was given
        try:
            refinements[0] += len(lifted) - len(args[1])
        except (IndexError, TypeError):
            refinements[1] = True

    tracer.replace("quadmate.engine", "_lift_arc",
                   lambda fn: tracer.timed("lift", fn, count_refinements))
    for mod in ITERATE_OWNERS:
        tracer.replace(mod, "iterate",
                       lambda fn: tracer.timed("iterate", fn, log.read))


def _install_counters(tracer: Tracer, log: RunLog, counts: dict):
    def counted(key):
        def make(fn):
            def call(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return call

        return make

    tracer.replace("quadmate.ratmap:NormalizedQuadratic", "preimages", counted("preimages"))
    tracer.replace("quadmate.angles:Angle", "__post_init__", counted("angles"))
    tracer.replace("quadmate.lamination", "same_landing", counted("same_landing"))
    tracer.replace("quadmate.combinatorics", "same_landing", counted("same_landing"))

    def attributed(key, after=None):
        # Angle constructions made inside the call
        def make(fn):
            def call(*args, **kwargs):
                before = counts["angles"]
                result = fn(*args, **kwargs)
                counts[f"angles_in_{key}"] += counts["angles"] - before
                if after is not None:
                    after(args, result)
                return result

            return call

        return make

    def count_gates(args, reason):
        counts["gates_calls"] += 1

    for mod in ITERATE_OWNERS:
        tracer.replace(mod, "iterate", attributed("iterate", log.read))
    for mod in ("quadmate", "quadmate.engine"):
        tracer.replace(mod, "structural_gates", attributed("gates", count_gates))


def role_pass(role: str, workload: str, seed: int, work: str, yardstick: bool,
              twin: tuple[int, int, bool] | None) -> dict:
    import resource

    # the traced roles load the cli everywhere so that its wrap targets exist
    qm = _import_quadmate(with_cli=workload == "mate-ex2" or role != "pass",
                          yardstick=yardstick)
    tracer, log = Tracer(), RunLog()
    refinements = [0, False]
    counts = dict.fromkeys(("preimages", "angles", "same_landing", "angles_in_iterate",
                            "angles_in_gates", "gates_calls"), 0)
    if role == "traced":
        _install_spans(tracer, log, refinements)
        tracer.stack.append(0.0)  # the job itself is the root span
    elif role == "counting":
        _install_counters(tracer, log, counts)
    if twin is not None:
        BATON.connect(*twin)
    result = JOBS[workload](qm, seed, work)
    BATON.finish()
    result["role"] = role
    result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if role == "traced":
        result["spans"] = tracer.spans
        result["root_child_s"] = tracer.stack.pop()
        result["samples_before"] = log.before
        result["samples_after"] = log.after
        result["iterations"] = log.iterations
        result["refinements"] = None if refinements[1] else refinements[0]
    elif role == "counting":
        result["counts"] = counts
        result["iterations"] = log.iterations
        wake = getattr(qm.lamination, "wake", None)
        info = getattr(wake, "cache_info", None)
        result["wake_misses"] = info().misses if info else None
    if log.unreadable:
        tracer.unmeasured.append("iterate records")
    result["unmeasured"] = tracer.unmeasured
    return result


def main(argv: list[str]) -> int:
    import argparse
    import json

    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "pass", "traced", "counting"))
    ap.add_argument("workload", choices=common.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("work")
    ap.add_argument("--yardstick", action="store_true")
    ap.add_argument("--twin", nargs=3, type=int, metavar=("RFD", "WFD", "FIRST"))
    args = ap.parse_args(argv)
    if args.role == "setup":
        result = role_setup(args.workload, args.yardstick)
    else:
        twin = (args.twin[0], args.twin[1], bool(args.twin[2])) if args.twin else None
        result = role_pass(args.role, args.workload, args.seed, args.work,
                           args.yardstick, twin)

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
