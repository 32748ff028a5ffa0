"""quadmate benchmark: one workload per run, each pass in a fresh process.

    python3 perfbench/run.py --workload mate-ex2 --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; quadmate is imported from its ``src/``.

Workloads (see BENCHMARK.json for why each was chosen):

    mate-ex2     ``quadmate mate 1/4 1/8 --tol 1e-9 --iters 30 --dump D --render``
                 through ``quadmate.cli.main``; the input is fixed, the seed
                 is recorded only.
    census       a gate census, ``structural_gates`` from cold caches on a
                 seeded sample of 200 of the 3486 pairs in gate_verdicts.txt
                 and then on (1/4, 1/1022) and (5/18, 1/22); then a mate
                 census, ``iterate`` (cap 20, 32 samples per arc, budget 2048)
                 on every 138th gate-accepted pair of the table and the
                 (1/4, 1/4) control, in an order the seed shuffles.

Every pass is timed against a yardstick: yardstick/ holds a frozen copy of
quadmate 0.1.0, which runs the same workload in a twin process.  The twins
take turns segment by segment (a gate call, or one pullback iteration; see
worker.Baton), so a shared host that slows for seconds or minutes slows both
alike, and the ratio of their times cancels it.

With ``--trace 0`` the run makes the workload's fixed number of rounds
(common.ROUNDS), each a program pass and a yardstick pass as twins
(``--seconds`` only caps it, see Run.measure), and reports the end-to-end
metrics:

    setup_s      the median time, over many fresh processes spread over the
                 run, from before ``import quadmate`` until the workload's
                 first pair has its gate verdict and its level-0 curve; over
                 the median of as many yardstick set-ups made in turn with
                 them, times the yardstick's committed set-up time
    peak_rss_mb  median ru_maxrss of the program's pass processes
    solve_s      one pass's segment time (the sum over its segments of the
                 median repeat of each, see seg_total) over the yardstick's,
                 times the yardstick's committed time (common.YARDSTICK_S)

So solve_s and setup_s are seconds on a host as fast as the one the
yardstick's times were taken on; the raw times are printed with them.

With ``--trace 1`` it makes common.TRACE_ROUNDS rounds, each an untraced and
a traced pass of the program as twins (timers around the layer-boundary
calls, see worker.py), and one counting pass, and reports the per-layer
metrics.  The ``_s`` metrics other than the
iteration percentiles and ``trace.overhead_s`` are self times in the traced
pass of median length, which add up to that pass by construction:
``combinatorics.jordan_s`` is the ray-system build less the
``colanding_class`` calls that ``lamination.colanding_s`` reports,
``engine.other_s`` is what ``iterate`` and ``structural_gates`` do outside the
named layers, and ``cli.other_s`` is the rest of the workload's entry call
(``cli.main`` on mate-ex2).  ``trace.overhead_s`` is the segment time of
the traced passes less that of their untraced twins.
``angles.constructed_per_iter`` counts validated ``Angle`` constructions
inside ``iterate`` per pullback iteration, and ``angles.constructed_per_pair``
those inside ``structural_gates`` per call.  A layer whose wrap target no
longer exists reads 0 and is listed as unmeasured.  ``--seconds`` does not
apply.

Either way it checks the outputs: the committed (1/4, 1/8) reference, the
mate-ex2 error and artifact digests, the gate verdicts against the committed
table, and the (1/4, 1/4) control; and that the yardstick is the committed
copy.  The last line of standard output is the
JSON result; the exit code is 1 when a check failed, 2 when the run could
not be made.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

SETUP_PAIRS = 24  # per run, shared out before, between and after the rounds
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "solve_s": "s"}
PER_LAYER_UNITS = {
    "engine.lift_s": "s",
    "engine.stitch_s": "s",
    "engine.prune_s": "s",
    "engine.rebase_s": "s",
    "engine.finish_s": "s",
    "engine.other_s": "s",
    "engine.iter_s_p50": "s",
    "engine.iter_s_p90": "s",
    "engine.iters": "count",
    "engine.samples_before": "count",
    "engine.samples_after": "count",
    "engine.prune_removed_ratio": "ratio",
    "engine.lift_refinements": "count",
    "engine.diverged": "count",
    "ratmap.preimages_calls": "count/iter",
    "angles.constructed_per_iter": "count/iter",
    "angles.constructed_per_pair": "count/pair",
    "combinatorics.schedule_s": "s",
    "combinatorics.jordan_s": "s",
    "combinatorics.fsr_s": "s",
    "lamination.mateable_s": "s",
    "lamination.colanding_calls": "count",
    "lamination.colanding_s": "s",
    "lamination.same_landing_calls": "count",
    "lamination.wake_misses": "count",
    "serialize.dump_s": "s",
    "serialize.bytes": "bytes",
    "render.views_s": "s",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
    "trace.unmeasured": "count",
}
# per-layer self time <- worker.py span names; the job itself is the root
SELF_TIME_SPANS = {
    "engine.lift_s": ("lift",),
    "engine.stitch_s": ("stitch",),
    "engine.prune_s": ("prune",),
    "engine.rebase_s": ("rebase",),
    "engine.finish_s": ("finish",),
    "engine.other_s": ("iterate", "gates"),
    "combinatorics.schedule_s": ("schedule",),
    "combinatorics.jordan_s": ("jordan",),
    "combinatorics.fsr_s": ("fsr",),
    "lamination.mateable_s": ("mateable",),
    "lamination.colanding_s": ("colanding",),
    "serialize.dump_s": ("serialize",),
    "render.views_s": ("render",),
}


class RunFailed(Exception):
    """The run could not be made; no result is printed."""


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.started = time.perf_counter()
        self.checks: list[tuple[bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        root = os.path.join(common.ROOT, ".perfbench-tmp")
        os.makedirs(root, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=root)

    def check(self, ok: bool, what: str):
        self.checks.append((bool(ok), what))

    def _left(self) -> float:
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise RunFailed("out of time before the run finished")
        return left

    def workers(self, *specs: tuple[str, bool]) -> list[dict]:
        """Run one worker, or two twins that take turns segment by segment.

        A spec is (role, yardstick).  Twins share two pipes (worker.Baton);
        the first spec runs the first segment.
        """
        twins: list = [None] * len(specs)
        fds: list[int] = []
        if len(specs) == 2:
            first_r, second_w = os.pipe()
            second_r, first_w = os.pipe()
            twins = [(first_r, first_w, 1), (second_r, second_w, 0)]
            fds = [first_r, first_w, second_r, second_w]
        procs, logs = [], []
        try:
            for k, ((role, yardstick), twin) in enumerate(zip(specs, twins)):
                cmd = [sys.executable, os.path.join(common.HERE, "worker.py"),
                       role, self.workload, str(self.seed), self.work]
                if yardstick:
                    cmd.append("--yardstick")
                if twin:
                    cmd += ["--twin", *map(str, twin)]
                out = open(os.path.join(self.work, f"worker{k}.out"), "w+")
                err = open(os.path.join(self.work, f"worker{k}.err"), "w+")
                logs.append((role, out, err))
                procs.append(subprocess.Popen(cmd, cwd=common.ROOT, stdout=out, stderr=err,
                                              pass_fds=twin[:2] if twin else ()))
            for fd in fds:
                os.close(fd)
            fds = []
            for proc in procs:
                try:
                    proc.wait(timeout=self._left())
                except subprocess.TimeoutExpired as exc:
                    raise RunFailed("a worker exceeded the run's time limit") from exc
            results = []
            for proc, (role, out, err) in zip(procs, logs):
                out.seek(0)
                err.seek(0)
                if proc.returncode != 0:
                    raise RunFailed(f"{role} process exited {proc.returncode}:\n"
                                    f"{err.read()[-2000:]}")
                results.append(json.loads(out.read().splitlines()[-1]))
            return results
        finally:
            for fd in fds:
                os.close(fd)
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            for _, out, err in logs:
                out.close()
                err.close()

    def setup_pair(self, k: int) -> tuple[float, float]:
        """One set-up process of the program and one of the yardstick, in
        an order that alternates with ``k``."""
        order = (False, True) if k % 2 == 0 else (True, False)
        got = {y: self.workers(("setup", y))[0]["setup_s"] for y in order}
        return got[False], got[True]

    def measure(self, seconds: float) -> tuple[list, list[dict], list[dict]]:
        """The workload's fixed number of rounds, each a program pass and a
        yardstick pass run as twins, with set-up pairs before, between and
        after them.  ``seconds`` only caps the run: no round starts that
        would end after it, once one is done."""
        planned = common.ROUNDS[self.workload]
        per_gap = SETUP_PAIRS // (planned + 1)
        setups, program, yardstick = [], [], []
        start = time.perf_counter()
        for k in range(planned + 1):
            setups += [self.setup_pair(len(setups)) for _ in range(per_gap)]
            elapsed = time.perf_counter() - start
            if k == planned or (k >= 1 and elapsed * (k + 1) / k > seconds):
                break
            specs = [("pass", False), ("pass", True)]
            if k % 2:
                specs.reverse()
            got = dict(zip((y for _, y in specs), self.workers(*specs)))
            program.append(got[False])
            yardstick.append(got[True])
        if len(program) < planned:
            self.notes.append(f"--seconds reached: {len(program)} of {planned} rounds")
        return setups, program, yardstick

# ---------------------------------------------------------------------------
# output checks; each returns the workload's own figures for the report


def _timed(passes: list[dict]) -> list[dict]:
    # figures come from untraced passes; the checks cover every pass
    return [p for p in passes if p["role"] == "pass"]


def check_mate_ex2(run: Run, passes: list[dict], ref) -> dict:
    u_ref, v_ref = ref
    errs = []
    for p in passes:
        run.attempted += 1
        fields = {}
        for line in p["stdout"].splitlines():
            key, sep, value = line.partition(" = ") if " = " in line else line.partition(": ")
            if sep:
                fields[key] = value
        status = fields.get("status", "")
        if p["rc"] != 0 or not status.startswith(("max-iterations", "converged")):
            run.failed += 1
            run.check(False, f"mate-ex2 exited {p['rc']} with status {status!r}")
            continue
        p["iters"] = int(status.split()[-2])
        u, v = common.parse_sig12(fields["final u"]), common.parse_sig12(fields["final v"])
        p["uv_err"] = common.chordal(u, u_ref) + common.chordal(v, v_ref)
        errs.append(p["uv_err"])
    if errs:
        run.check(max(errs) <= common.EX2_UV_ERR_BOUND,
                  f"mate-ex2 uv_err at most {max(errs):.3e} <= {common.EX2_UV_ERR_BOUND} "
                  f"on {len(errs)} passes")
    digests = {p["digest"] for p in passes}
    run.check(len(digests) == 1 and passes[0]["files"] >= 5,
              f"mate-ex2 artifacts identical across {len(passes)} passes "
              f"({passes[0]['files']} files, {len(digests)} distinct digests)")
    timed = [p for p in _timed(passes) if "uv_err" in p]
    if not timed:
        return {}
    return {
        "iters": (statistics.median(p["iters"] for p in timed), "count"),
        "uv_err": (statistics.median(p["uv_err"] for p in timed), "chordal"),
        "serialize.bytes": (timed[0]["dump_bytes"], "bytes"),
    }


def check_gate_census(run: Run, passes: list[dict], rows) -> dict:
    deep = {-1 - k: v for k, (_, v) in enumerate(common.DEEP_PAIRS)}
    wrong = []
    for p in passes:
        for i, got in p["verdicts"]:
            run.attempted += 1
            want = deep[i] if i < 0 else rows[i][2]
            if got != want:
                pair = common.DEEP_PAIRS[-1 - i][0] if i < 0 else rows[i][:2]
                wrong.append(f"{pair[0]} {pair[1]}: {got}, table says {want}")
    run.check(not wrong, f"gate verdicts match the table ({len(wrong)} differ)")
    for w in wrong[:10]:
        run.notes.append(f"verdict differs: {w}")
    n_deep = len(common.DEEP_PAIRS)
    timed = _timed(passes)
    shallow = [t for p in timed for t in p["gate_s"][:-n_deep]]
    # the highest percentile with at least ten samples beyond it
    q = next((q for q in (99, 95, 90) if len(shallow) * (100 - q) >= 1000), 50)
    return {
        "gate_pairs_per_s": (statistics.median(
            len(p["gate_s"][:-n_deep]) / sum(p["gate_s"][:-n_deep]) for p in timed), "1/s"),
        "gate_p50_ms": (1e3 * statistics.median(shallow), "ms"),
        f"gate_p{q}_ms": (1e3 * percentile(shallow, q / 100), f"ms, n={len(shallow)}"),
        "deep_gate_s": (statistics.median(sum(p["gate_s"][-n_deep:]) for p in timed), "s"),
    }


def check_mate_census(run: Run, passes: list[dict]) -> dict:
    failures, control = set(), []
    for p in passes:
        for r in p["runs"]:
            run.attempted += 1
            pair = tuple(r["pair"])
            if r["status"] == "exception":
                run.failed += 1
            if r["status"] not in ("converged", "max-iterations"):
                failures.add((pair, r["status"], r["message"]))
            if pair == common.CONTROL_PAIR:
                u = complex(*r["u"]) if r.get("u") else None
                v = complex(*r["v"]) if r.get("v") else None
                control.append((r["status"], u, v))
    run.check(
        control and all(
            status == "converged" and u is not None and v is not None
            and abs(u - common.CONTROL_U) <= common.CONTROL_TOL
            and abs(v - common.CONTROL_V) <= common.CONTROL_TOL
            for status, u, v in control
        ),
        f"(1/4, 1/4) control at u = i, v = -i within {common.CONTROL_TOL:g} on "
        f"{len(control)} passes: {control[:1]}",
    )
    for pair, status, message in sorted(failures):
        run.notes.append(f"failed {pair[0]} {pair[1]}: {status}: {message}")
    per_pass = len(passes[0]["runs"])
    return {
        "fail_frac": (len(failures) / per_pass, f"of {per_pass} pairs"),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(-(-q * len(ordered) // 1)) - 1))]


def check_outputs(run: Run, passes, rows, ref) -> dict:
    if run.workload == "mate-ex2":
        return check_mate_ex2(run, passes, ref)
    return {**check_gate_census(run, passes, rows), **check_mate_census(run, passes)}


# ---------------------------------------------------------------------------
# metrics


def same_work(run: Run, passes: list[dict]):
    shapes = {tuple(len(seg) for seg in p["segments"]) for p in passes}
    run.check(len(shapes) == 1,
              f"every pass does the same work ({len(passes)} passes, {len(shapes)} shapes)")


def seg_total(passes: list[dict]) -> float:
    """The sum over a pass's segments of the median repeat of each.

    A segment is one gate call, or the stretch of one pair's run before,
    between or after its curve_hook calls (one pullback iteration each).
    With one pass this is its time less the moments between segments.
    """
    per_pass = [p["segments"] for p in passes]
    return sum(
        statistics.median(reps)
        for k in range(min(len(segs) for segs in per_pass))
        for reps in zip(*(segs[k] for segs in per_pass))
    )


def end_to_end(run: Run, setups: list[tuple[float, float]], program: list[dict],
               yardstick: list[dict]) -> dict:
    """solve_s and setup_s are the program's times over the yardstick's,
    measured side by side, times the yardstick's committed times: a shared
    host that slows both by the same factor leaves them unchanged."""
    program_s, yardstick_s = seg_total(program), seg_total(yardstick)
    setup_p = statistics.median(p for p, _ in setups)
    setup_y = statistics.median(y for _, y in setups)
    run.notes.append(f"raw times on this host: pass {program_s:.4f} s, yardstick pass "
                     f"{yardstick_s:.4f} s; set-up {setup_p:.5f} s, yardstick set-up "
                     f"{setup_y:.5f} s")
    return {
        "setup_s": common.YARDSTICK_SETUP_S[run.workload] * setup_p / setup_y,
        "peak_rss_mb": statistics.median(p["rss_mib"] for p in program),
        "solve_s": common.YARDSTICK_S[run.workload] * program_s / yardstick_s,
    }


def per_layer(run: Run, plain: list[dict], traced_passes: list[dict], counting: dict) -> dict:
    # self times and iteration times from the traced pass of median length
    traced = sorted(traced_passes, key=lambda p: p["solve_s"])[len(traced_passes) // 2]
    spans = traced["spans"]
    m = {name: sum(spans.get(s, [0, 0.0, 0.0])[2] for s in names)
         for name, names in SELF_TIME_SPANS.items()}
    m["cli.other_s"] = traced["solve_s"] - traced["root_child_s"]
    run.notes.append(f"layer self times add up to their traced pass ({sum(m.values()):.4f} s) "
                     f"by construction: cli.other_s is the remainder")
    plain_total, traced_total = seg_total(plain), seg_total(traced_passes)
    run.notes.append(f"untraced and traced passes run as twins, {len(plain)} of each: "
                     f"segment sums {plain_total:.4f} s untraced, {traced_total:.4f} s traced")

    # between consecutive curve_hook calls: one pullback iteration each
    iter_s = [t for seg in traced["segments"] for t in seg[1:-1]]
    before, after = traced["samples_before"], traced["samples_after"]
    iterations = counting["iterations"]
    counts = counting["counts"]
    m.update({
        "engine.iter_s_p50": statistics.median(iter_s) if iter_s else 0.0,
        "engine.iter_s_p90": percentile(iter_s, 0.9) if iter_s else 0.0,
        "engine.iters": traced["iterations"],
        "engine.samples_before": statistics.median(before) if before else 0,
        "engine.samples_after": statistics.median(after) if after else 0,
        "engine.prune_removed_ratio": (sum(before) - sum(after)) / sum(before) if before else 0.0,
        "engine.lift_refinements": traced["refinements"] or 0,
        "engine.diverged": diverged_count(run.workload, plain[0]),
        "ratmap.preimages_calls": counts["preimages"] / iterations if iterations else 0.0,
        "angles.constructed_per_iter":
            counts["angles_in_iterate"] / iterations if iterations else 0.0,
        "angles.constructed_per_pair":
            counts["angles_in_gates"] / counts["gates_calls"] if counts["gates_calls"] else 0.0,
        "lamination.colanding_calls": spans.get("colanding", [0])[0],
        "lamination.same_landing_calls": counts["same_landing"],
        "lamination.wake_misses": counting["wake_misses"] or 0,
        "serialize.bytes": plain[0].get("dump_bytes", 0),
        "trace.overhead_s": traced_total - plain_total,
    })
    unmeasured = sorted(set(traced["unmeasured"]) | set(counting["unmeasured"]))
    if traced["refinements"] is None:
        unmeasured.append("engine._lift_arc refinements")
    if counting["wake_misses"] is None:
        unmeasured.append("quadmate.lamination.wake.cache_info")
    m["trace.unmeasured"] = len(unmeasured)
    for name in unmeasured:
        run.notes.append(f"unmeasured (reported as 0): {name}")
    return m


def diverged_count(workload: str, plain: dict) -> int:
    if workload == "mate-ex2":
        return int(plain["rc"] != 0)
    return sum(r["status"] not in ("converged", "max-iterations") for r in plain["runs"])


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still reaches the finally blocks that end its workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(common.SRC, "quadmate", "__init__.py")):
        print(f"perfbench: no quadmate package under {common.SRC}", file=sys.stderr)
        return 2
    rows = common.load_table()
    u_ref, v_ref, residual, moved = common.polished_reference()

    run = Run(args)
    try:
        run.check(common.yardstick_digest() == common.YARDSTICK_DIGEST,
                  "the yardstick is the committed copy of quadmate 0.1.0")
        run.check(residual < common.REF_RESIDUAL_BOUND and moved < 1e-11,
                  f"(u*, v*) solves the (1/4, 1/8) relations: residual {residual:.1e}, "
                  f"committed digits off by {moved:.1e}")
        if args.trace:
            plain, traced = [], []
            for k in range(common.TRACE_ROUNDS[args.workload]):
                specs = [("pass", False), ("traced", False)]
                one, two = run.workers(*(specs[::-1] if k % 2 else specs))
                plain.append(one if one["role"] == "pass" else two)
                traced.append(two if one["role"] == "pass" else one)
            counting = run.workers(("counting", False))[0]
            # determinism and correctness must hold with the wrappers in place too
            everything = plain + traced + [counting]
            figures = check_outputs(run, everything, rows, (u_ref, v_ref))
            same_work(run, everything)
            metrics = per_layer(run, plain, traced, counting)
            units = PER_LAYER_UNITS
        else:
            setups, passes, yardstick = run.measure(args.seconds)
            figures = check_outputs(run, passes, rows, (u_ref, v_ref))
            same_work(run, passes)
            figures["rounds"] = (len(passes), "count")
            figures["setup_pairs"] = (len(setups), "count")
            metrics = end_to_end(run, setups, passes, yardstick)
            units = END_TO_END_UNITS
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(run.work))  # unless another run is using it

    correct = all(ok for ok, _ in run.checks)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:.6g} {unit}")
    print("  workload figures (untraced):")
    for name, (value, unit) in figures.items():
        print(f"  {name:<30} {value:.6g} {unit}")
    for ok, what in run.checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    for note in run.notes:
        print(f"  {note}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
