"""Curve embedding, lifting, pruning, and the full iteration."""

import cmath
import heapq
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from quadmate import engine, newton
from quadmate.angles import Angle, midpoint, reduce
from quadmate.combinatorics import (
    Mark,
    MarkKind,
    Schedule,
    Side,
    base_schedule,
    pullback_schedule,
)
from quadmate.engine import (
    DiscreteCurve,
    IterateOptions,
    init_embedding,
    iterate,
    prune,
    pullback_curve,
    read_critical_values,
    relabel,
    structural_gates,
)
from quadmate.errors import BranchTrackingError, StructuralError
from quadmate.ratmap import (
    NormalizedQuadratic,
    SpherePoint,
    chordal,
    from_critical_values,
    stereographic,
)

A14, A18 = Angle(1, 4), Angle(1, 8)

# structural_gates verdicts of every pair in the bench's gate census
GATE_VERDICTS = Path(__file__).resolve().parents[1] / "perfbench" / "gate_verdicts.txt"
VERDICT_PREFIXES = {
    "conjugate limbs": "conjugate",
    "pinched curve": "pinched",
    "subdivision failure": "subdivision",
}

# curve parameters: dyadic denominators grow one bit per level, and base
# parameters bring odd factors
angle = st.builds(
    lambda p, k, odd: reduce(p, odd << k),
    st.integers(min_value=0, max_value=2**130),
    st.integers(min_value=0, max_value=120),
    st.sampled_from([1, 3, 5, 7, 9, 15, 21]),
)
# a signed step shorter than half a turn
step = st.builds(
    lambda p, q: Fraction(p, q),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.integers(min_value=2**63 + 1, max_value=2**64),
)


def reference_lift_step(F, out, t0, prev, t1, z1, depth):
    """``engine._lift_step``'s decision logic, written with ``chordal`` throughout."""
    plus, minus = F.preimages(z1)
    if chordal(plus, minus) < 1e-12:
        out.append((t1, plus))
        return plus
    if chordal(prev, 0.0 + 0.0j) < 1e-9 or chordal(prev, None) < 1e-9:
        out.append((t1, plus))
        return plus
    dp, dm = chordal(plus, prev), chordal(minus, prev)
    near, far = min(dp, dm), max(dp, dm)
    if far > 0 and near / far <= engine._AMBIGUITY_RATIO:
        chosen = plus if dp <= dm else minus
        out.append((t1, chosen))
        return chosen
    if depth == 0:
        chosen = engine._winding_choice(prev, plus, minus)
        if chosen is None:
            raise BranchTrackingError(t1)
        out.append((t1, chosen))
        return chosen
    ok, zm = engine._slerp_mid(F.eval(prev), z1)
    if not ok:
        raise BranchTrackingError(t1)
    tm = midpoint(t0, t1)
    mid = reference_lift_step(F, out, t0, prev, tm, zm, depth - 1)
    return reference_lift_step(F, out, tm, mid, t1, z1, depth - 1)


def reference_lift_arc(F, entries):
    t0, z0 = entries[0]
    out = [(t0, F.preimages(z0)[0])]
    for t1, z1 in entries[1:]:
        reference_lift_step(F, out, out[-1][0], out[-1][1], t1, z1, engine._MAX_REFINE)
    return out


def reference_pullback_curve(
    c: DiscreteCurve,
    F: NormalizedQuadratic,
    s_next: Schedule,
) -> DiscreteCurve:
    """``pullback_curve`` as it was when it lifted both laps arc by arc.

    The body is unchanged apart from naming the engine's private helpers
    through the module.
    """
    # child traversal: two laps over the parent, parameters halved
    params = [t.half(0) for t in c.params]
    params += [t.half(1) for t in c.params]
    positions = list(c.points) * 2

    # the child marks are the halves of the parent's marks in order, lap 0
    # then lap 1, so they sit at the parent's marked indices on each lap
    marked = list(c.marks)
    boundaries = marked + [k + len(c.params) for k in marked]
    arc_marks = s_next.marks
    if len(boundaries) != len(arc_marks):
        raise AssertionError("child schedule does not halve the parent's marks")
    if params[boundaries[0]] != engine.ZERO:
        raise AssertionError("child traversal lost its anchor mark")
    arcs: list[list[tuple[Angle, SpherePoint]]] = []
    for k, start in enumerate(boundaries):
        end = boundaries[(k + 1) % len(boundaries)]
        if end > start:
            entries = list(zip(params[start : end + 1], positions[start : end + 1]))
        else:  # wrap: close the loop back through the anchor
            entries = list(zip(params[start:], positions[start:]))
            entries.append((params[0], positions[0]))
        head = arc_marks[k]
        tail = arc_marks[(k + 1) % len(boundaries)]
        # densify toward critical passages so fork directions are read close
        # to the critical point, where the two lifts separate at right angles
        if tail.kind is MarkKind.CRITICAL_POINT and len(entries) >= 2:
            entries = entries[:-1] + engine._densify(entries[-2], entries[-1]) + [entries[-1]]
        if head.kind is MarkKind.CRITICAL_POINT and len(entries) >= 2:
            mids = engine._densify(entries[1], entries[0])
            mids.reverse()
            entries = [entries[0]] + mids + entries[1:]
        arcs.append(entries)

    lifts: list[list[tuple[Angle, SpherePoint]]] = []
    for k, entries in enumerate(arcs):
        try:
            lifts.append(engine._lift_arc(F, entries))
        except BranchTrackingError as exc:
            exc.arc = k
            raise

    crit_pos = {Side.BLACK: 0.0 + 0.0j, Side.RED: None}
    base_params = {t for t, _ in s_next.base_points}

    # chains: a new one starts at the anchor and at every critical passage,
    # where endpoint matching cannot tell the two continuations apart
    chain_starts = [
        k for k, m in enumerate(arc_marks)
        if k == 0 or m.kind is MarkKind.CRITICAL_POINT
    ]
    chain_stops = chain_starts[1:] + [len(lifts)]

    # within a chain, continuity pins every sign relative to the leading arc
    rel: list[int] = [1] * len(lifts)
    for start, stop in zip(chain_starts, chain_stops):
        mark = arc_marks[start]
        if mark.kind is MarkKind.CRITICAL_POINT and chordal(
            lifts[start][0][1], crit_pos[mark.color]
        ) > engine._STITCH_TOL:
            raise BranchTrackingError(mark.parameter, "lift misses the critical point", arc=start)
        for k in range(start + 1, stop):
            prev_end = lifts[k - 1][-1][1]
            if rel[k - 1] == -1:
                prev_end = engine._neg(prev_end)
            dp = chordal(lifts[k][0][1], prev_end)
            dm = chordal(engine._neg(lifts[k][0][1]), prev_end)
            if min(dp, dm) > engine._STITCH_TOL:
                raise BranchTrackingError(
                    arc_marks[k].parameter, "arc endpoints fail to meet", arc=k
                )
            rel[k] = 1 if dp <= dm else -1

    def chain_score(ci: int, lead: int) -> float:
        # worst marked-point displacement from the parent embedding; the wrap
        # chain additionally must land back on the anchor
        score, seen = 0.0, False
        for k in range(chain_starts[ci], chain_stops[ci]):
            t = arc_marks[k].parameter
            if t in base_params:
                pos = lifts[k][0][1] if lead * rel[k] == 1 else engine._neg(lifts[k][0][1])
                score = max(score, chordal(pos, c.point_at(t)))
                seen = True
        if chain_stops[ci] == len(lifts):
            tail = lifts[-1][-1][1] if lead * rel[-1] == 1 else engine._neg(lifts[-1][-1][1])
            score = max(score, chordal(tail, 1.0 + 0.0j))
            seen = True
        return score if seen else math.inf

    signs: list[int] = [0] * len(lifts)
    for ci, (start, stop) in enumerate(zip(chain_starts, chain_stops)):
        sp, sm = chain_score(ci, 1), chain_score(ci, -1)
        if min(sp, sm) <= engine._ISOTOPY_DECISIVE and min(sp, sm) <= (
            engine._ISOTOPY_RATIO * max(sp, sm)
        ):
            lead = 1 if sp <= sm else -1
        elif ci == 0:
            lead = 1 if chordal(lifts[0][0][1], 1.0 + 0.0j) <= chordal(
                engine._neg(lifts[0][0][1]), 1.0 + 0.0j
            ) else -1
        else:
            mark = arc_marks[start]
            cp = crit_pos[mark.color]
            n_hat = stereographic(cp)
            back = next(
                (p if signs[start - 1] == 1 else engine._neg(p)
                 for _, p in reversed(lifts[start - 1])
                 if chordal(p, cp) > 1e-9),
                None,
            )
            ahead = next((p for _, p in lifts[start][1:] if chordal(p, cp) > 1e-9), None)
            if back is None or ahead is None:
                raise BranchTrackingError(
                    mark.parameter, "curve stalls at a critical point", arc=start
                )
            d = engine._vec(stereographic(back), n_hat)
            w = engine._vec(n_hat, stereographic(ahead))
            trip = engine._triple(d, w, n_hat)
            want_negative = mark.color is Side.BLACK  # fork right at 0, left at infinity
            if trip == 0.0:
                raise BranchTrackingError(mark.parameter, "handedness test degenerate", arc=start)
            lead = 1 if (trip < 0) == want_negative else -1
        for k in range(start, stop):
            signs[k] = lead * rel[k]

    closing = lifts[-1][-1][1] if signs[-1] == 1 else engine._neg(lifts[-1][-1][1])
    if chordal(closing, 1.0 + 0.0j) > engine._STITCH_TOL:
        raise BranchTrackingError(
            engine.ZERO, "lifted curve fails to close at the anchor", arc=len(lifts) - 1
        )

    # an arc's last entry is shared with the next arc's head
    out_params: list[Angle] = []
    out_points: list[SpherePoint] = []
    out_marks: list[int] = []
    for lift, sign in zip(lifts, signs):
        t, p = lift[0]
        out_marks.append(len(out_params))
        out_params.append(t)
        out_points.append(p if sign == 1 else engine._neg(p))
        out_params += [t for t, _ in lift[1:-1]]
        if sign == 1:
            out_points += [p for _, p in lift[1:-1]]
        else:
            out_points += [None if p is None else -p for _, p in lift[1:-1]]
    return DiscreteCurve(tuple(out_params), tuple(out_points), tuple(out_marks), s_next)


def reference_deviation(prev, cur, nxt) -> float:
    """``engine._deviation`` as it was before it took the tuples apart."""
    ab = (nxt[0] - prev[0], nxt[1] - prev[1], nxt[2] - prev[2])
    ap = (cur[0] - prev[0], cur[1] - prev[1], cur[2] - prev[2])
    den = ab[0] * ab[0] + ab[1] * ab[1] + ab[2] * ab[2]
    if den == 0:
        return math.dist(cur, prev)
    t = (ap[0] * ab[0] + ap[1] * ab[1] + ap[2] * ab[2]) / den
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    return math.dist(cur, (prev[0] + t * ab[0], prev[1] + t * ab[1], prev[2] + t * ab[2]))


def reference_prune(c, budget, tol):
    """``engine.prune`` as it was written with one ``stereographic`` call a sample."""
    marked_count = len(c.marks)
    if budget < marked_count:
        raise ValueError(f"budget {budget} below the marked-sample count {marked_count}")
    n = len(c.params)
    if n <= budget:
        return c

    pts = [stereographic(z) for z in c.points]
    guarded = [pts[i] for i, mark in zip(c.marks, c.schedule.marks) if mark.point_id is not None]
    alive = [True] * n
    prv = [(i - 1) % n for i in range(n)]
    nxt = [(i + 1) % n for i in range(n)]
    version = [0] * n
    protected = [i in c.marks for i in range(n)]
    for i in range(n):
        if i in c.marks:
            for off in range(1, engine._MARK_WINDOW + 1):
                protected[(i - off) % n] = True
                protected[(i + off) % n] = True
    removable = [not protected[i] for i in range(n)]

    heap = [
        (reference_deviation(pts[prv[i]], pts[i], pts[nxt[i]]), i, 0)
        for i in range(n)
        if removable[i]
    ]
    heapq.heapify(heap)

    count = n
    while count > budget and heap:
        _, i, ver = heapq.heappop(heap)
        if not alive[i] or ver != version[i] or not removable[i]:
            continue
        a, b = prv[i], nxt[i]
        reach = 2.0 * max(math.dist(pts[a], pts[i]), math.dist(pts[i], pts[b])) + tol
        blocked = any(
            math.dist(g, pts[i]) <= reach
            and engine._sweep_clearance(g, pts[a], pts[i], pts[b]) <= tol
            for g in guarded
        )
        if blocked:
            removable[i] = False
            continue
        alive[i] = False
        count -= 1
        nxt[a], prv[b] = b, a
        for j in (a, b):
            version[j] += 1
            if not protected[j]:
                removable[j] = True
                heapq.heappush(
                    heap, (reference_deviation(pts[prv[j]], pts[j], pts[nxt[j]]), j, version[j])
                )

    return surviving(c, alive)


def reference_folded_prune(c, budget, tol):
    """The greedy on a symmetric curve, over the whole loop, twins in pairs.

    Sample k and its twin k + n/2 stand or fall together: the pair is
    refused when either sweep, each between that sample's own neighbours,
    comes within ``tol`` of a guard, and it is kept when either sample lies
    in a mark's window.  Ties go to the lower lap-0 index.
    """
    n = len(c.params)
    h = n // 2
    if n <= budget:
        return c
    pts = [stereographic(z) for z in c.points]
    marked = list(c.marks)
    guarded = [pts[i] for i, mark in zip(marked, c.schedule.marks) if mark.point_id is not None]
    w = engine._MARK_WINDOW
    window = {(i + off) % n for i in marked for off in range(-w, w + 1)}
    removable = [k not in window and k + h not in window for k in range(h)]
    prv = [(i - 1) % n for i in range(n)]
    nxt = [(i + 1) % n for i in range(n)]
    alive = [True] * n
    version = [0] * h

    def deviation(i):
        return reference_deviation(pts[prv[i]], pts[i], pts[nxt[i]])

    def sweep_blocked(i):
        a, b = prv[i], nxt[i]
        reach = 2.0 * max(math.dist(pts[a], pts[i]), math.dist(pts[i], pts[b])) + tol
        return any(
            math.dist(g, pts[i]) <= reach
            and engine._sweep_clearance(g, pts[a], pts[i], pts[b]) <= tol
            for g in guarded
        )

    heap = [(deviation(k), k, 0) for k in range(h) if removable[k]]
    heapq.heapify(heap)
    count = n
    while count > budget and heap:
        dev, k, ver = heapq.heappop(heap)
        if ver != version[k]:
            continue
        assert deviation(k + h) == dev
        if sweep_blocked(k) or sweep_blocked(k + h):
            continue
        touched = set()
        for i in (k, k + h):
            alive[i] = False
            a, b = prv[i], nxt[i]
            nxt[a], prv[b] = b, a
            touched |= {a % h, b % h}
        count -= 2
        for j in sorted(touched):
            version[j] += 1
            if removable[j]:
                heapq.heappush(heap, (deviation(j), j, version[j]))

    return surviving(c, alive)


def surviving(c, alive):
    """The samples of ``c`` whose flag is set, as the same objects, with their marks."""
    kept = [i for i in range(len(c.params)) if alive[i]]
    return DiscreteCurve(
        tuple(c.params[i] for i in kept),
        tuple(c.points[i] for i in kept),
        tuple(k for k, i in enumerate(kept) if i in c.marks),
        c.schedule,
    )


def synthetic_curve(positions, marks):
    """A closed curve through ``positions`` at parameters k/n.

    ``marks`` maps a sample index to the postcritical point id it carries, or
    to None for an unguarded (plumbing) mark.
    """
    n = len(positions)
    params = tuple(reduce(k, n) for k in range(n))
    marked = sorted(marks)
    schedule_marks = tuple(
        Mark(params[k], MarkKind.PLUMBING if marks[k] is None else MarkKind.POSTCRITICAL, marks[k])
        for k in marked
    )
    schedule = Schedule(
        marks=schedule_marks,
        level=0,
        base_points=tuple((params[k], marks[k]) for k in marked if marks[k] is not None),
        black_value=params[0],
        red_value=params[0],
    )
    return DiscreteCurve(params, tuple(positions), tuple(marked), schedule)


def assert_same_samples(got, want):
    """Sample for sample the same parameter and point objects, and the same marks."""
    assert len(got.params) == len(want.params)
    assert all(x is y for x, y in zip(got.params, want.params))
    assert all(x is y for x, y in zip(got.points, want.points))
    assert (got.marks, got.schedule) == (want.marks, want.schedule)


def assert_prunes_like_the_reference(c, budget, tol):
    got, want = prune(c, budget, tol), reference_prune(c, budget, tol)
    assert_same_samples(got, want)
    return got


def _bits(z):
    return None if z is None else (z.real.hex(), z.imag.hex())


# critical values (u, v) of the maps the single-step oracle lifts through
STEP_MAPS = [(1j, -1j), (2.0 + 0.5j, None), (0.01 - 3j, 1e-3 + 0j)]


def _step_outcome(step, F, prev, z1):
    """What one lift step appends (positions to the bit), or the error it raises."""
    out = []
    try:
        step(F, out, Angle(0, 1), prev, Angle(1, 4), z1, 2)
    except (BranchTrackingError, ArithmeticError) as exc:
        out.append(f"{type(exc).__name__}: {exc}")
    return [x if isinstance(x, str) else (x[0], _bits(x[1])) for x in out]


def _angle_of(f: Fraction) -> Angle:
    return reduce(f.numerator, f.denominator)


@pytest.fixture(scope="module")
def ex2_level1():
    s0 = base_schedule(A14, A18)
    c0 = init_embedding(s0, 64)
    u, v = read_critical_values(c0)
    F = from_critical_values(u, v)
    s1 = pullback_schedule(s0, A14, A18)
    return c0, F, pullback_curve(c0, F, s1)


class TestInitEmbedding:
    def test_unit_circle(self):
        s0 = base_schedule(A14, A18)
        c = init_embedding(s0, 16)
        assert c.schedule.level == 0
        assert len(c.params) == 5 * 17
        for z in c.points:
            assert abs(abs(z) - 1.0) < 1e-12

    def test_anchor_exact(self):
        c = init_embedding(base_schedule(A14, A18), 16)
        assert c.point_at(Angle(0, 1)) == 1.0 + 0.0j

    def test_parameters_strictly_ascend(self):
        c = init_embedding(base_schedule(A14, A18), 16)
        params = list(c.params)
        assert params == sorted(params)
        assert len(set(params)) == len(params)

    def test_marks_match_schedule(self):
        s0 = base_schedule(A14, A18)
        c = init_embedding(s0, 16)
        assert [c.params[i] for i in c.marks] == [m.parameter for m in s0.marks]

    @pytest.mark.parametrize("samples_per_arc", [1, 8, 32])
    @pytest.mark.parametrize(
        "alpha,beta",
        # the two worked examples, a pair whose anchor is not postcritical,
        # and one with odd factors in its denominators
        [("1/4", "1/4"), ("1/4", "1/8"), ("1/6", "1/6"), ("5/28", "11/28")],
    )
    def test_matches_the_fraction_reference(self, alpha, beta, samples_per_arc):
        # each arc from t0 to t1 (1 on the closing arc) spaced in Fractions
        s0 = base_schedule(Angle.parse(alpha), Angle.parse(beta))
        params, points = [], []
        for k, m in enumerate(s0.marks):
            t0 = m.parameter.fraction
            t1 = s0.marks[(k + 1) % len(s0.marks)].parameter.fraction
            if t1 <= t0:
                t1 += 1
            arc = [t0 + (t1 - t0) * j / (samples_per_arc + 1) for j in range(samples_per_arc + 1)]
            params += [_angle_of(t) for t in arc]
            for t in arc:
                x = 2.0 * math.pi * float(t)
                points.append(1.0 + 0.0j if t == 0 else complex(math.cos(x), math.sin(x)))
        c = init_embedding(s0, samples_per_arc)
        assert c.params == tuple(params)
        assert [_bits(z) for z in c.points] == [_bits(z) for z in points]
        assert c.marks == tuple(k * (samples_per_arc + 1) for k in range(len(s0.marks)))


class TestReadCriticalValues:
    def test_level_zero_values(self):
        c = init_embedding(base_schedule(A14, A18), 16)
        u, v = read_critical_values(c)
        assert abs(u - cmath.exp(0.5j * cmath.pi)) < 1e-12
        assert abs(v - cmath.exp(2j * cmath.pi * 7 / 8)) < 1e-12

    def test_collision_rejected(self):
        s0 = base_schedule(A14, A18)
        spot = 0.5 + 0.5j
        points = tuple(
            spot if m.point_id in (1, 4) else cmath.exp(2j * cmath.pi * float(m.parameter))
            for m in s0.marks
        )
        c = DiscreteCurve(
            tuple(m.parameter for m in s0.marks), points, tuple(range(len(s0.marks))), s0
        )
        with pytest.raises(StructuralError, match="critical value collision"):
            read_critical_values(c)


class TestPullbackCurve:
    def test_golden_level_one_traversal(self, ex2_level1):
        _, _, c1 = ex2_level1
        expected = [
            ("0", 1.0 + 0.0j),
            ("1/8", 0.0 + 0.0j),
            ("1/4", 0.6435942529055828j),
            ("3/8", 1.1892071150027215j),
            ("7/16", None),
            ("1/2", -1.0 + 0.0j),
            ("5/8", 0.0 + 0.0j),
            ("3/4", -0.6435942529055828j),
            ("7/8", -1.1892071150027215j),
            ("15/16", None),
        ]
        assert [str(c1.params[i]) for i in c1.marks] == [t for t, _ in expected]
        for i, (_, pos) in zip(c1.marks, expected):
            assert chordal(c1.points[i], pos) < 1e-9

    def test_lift_fidelity(self, ex2_level1):
        c0, F, c1 = ex2_level1
        parent = dict(zip(c0.params, c0.points))
        checked = 0
        for t, z in zip(c1.params, c1.points):
            target = parent.get(t.double())
            if target is None:
                continue  # refinement inserted this sample mid-step
            assert chordal(F.eval(z), target) < 1e-10
            checked += 1
        assert checked >= 2 * len(c0.params) - 4

    def test_anchor_preserved(self, ex2_level1):
        _, _, c1 = ex2_level1
        assert chordal(c1.point_at(Angle(0, 1)), 1.0 + 0.0j) < 1e-10

    def test_schedule_fidelity(self, ex2_level1):
        _, _, c1 = ex2_level1
        assert [c1.params[i] for i in c1.marks] == [m.parameter for m in c1.schedule.marks]
        assert c1.schedule.level == 1

    def test_critical_points_hit_exactly(self, ex2_level1):
        _, _, c1 = ex2_level1
        for i, mark in zip(c1.marks, c1.schedule.marks):
            if mark.kind is not MarkKind.CRITICAL_POINT:
                continue
            target = 0.0 + 0.0j if str(c1.params[i]) in ("1/8", "5/8") else None
            assert chordal(c1.points[i], target) < 1e-8

    def test_example_one_visits_both_poles_twice(self):
        s0 = base_schedule(A14, A14)
        c0 = init_embedding(s0, 64)
        u, v = read_critical_values(c0)
        F = from_critical_values(u, v)
        c1 = pullback_curve(c0, F, pullback_schedule(s0, A14, A14))
        marked = [c1.points[i] for i in c1.marks]
        at_zero = sum(1 for z in marked if z is not None and abs(z) < 1e-9)
        at_inf = sum(1 for z in marked if z is None)
        assert at_zero == 2
        assert at_inf == 2


class TestParameterArithmetic:
    @given(angle, st.sampled_from([0, 1]))
    def test_half_matches_fractions(self, a, lap):
        assert a.half(lap) == _angle_of((a.fraction + lap) / 2)

    @given(angle, st.sampled_from([0, 1]))
    @example(Angle(0, 1), 0)
    @example(Angle(0, 1), 1)
    @example(Angle(1, 3), 1)
    def test_opposite_matches_fractions(self, a, lap):
        # half(0) lies below 1/2 and half(1) at or above it
        t = a.half(lap)
        assert t.opposite() == _angle_of((t.fraction + Fraction(1, 2)) % 1)
        assert t.opposite() == a.half(1 - lap)

    @given(angle, step)
    def test_midpoint_is_the_average_either_way(self, a, d):
        b = _angle_of(a.fraction + d)
        mid = _angle_of(a.fraction + d / 2)
        assert midpoint(a, b) == mid
        assert midpoint(b, a) == mid

    @given(step.map(lambda d: abs(d) / 2), step.map(lambda d: abs(d) / 2))
    def test_midpoint_across_zero(self, x, y):
        below, above = _angle_of(-x), _angle_of(y)
        mid = _angle_of((y - x) / 2)
        assert midpoint(below, above) == mid
        assert midpoint(above, below) == mid

    def test_child_parameters_ascend(self, ex2_level1):
        _, _, c1 = ex2_level1
        u, v = read_critical_values(c1)
        s2 = pullback_schedule(c1.schedule, A14, A18)
        c2 = pullback_curve(c1, from_critical_values(u, v), s2)
        for c in (c1, c2):
            params = c.params
            assert all(type(t) is Angle for t in params)
            assert all(a < b for a, b in zip(params, params[1:]))


class TestLiftOracle:
    @pytest.mark.parametrize(
        "alpha,beta",
        # 0 and infinity are postcritical points of (1/4, 1/4), so its lifts
        # leave both, where the step gives way to chordal
        [(A14, A18), (A14, A14)],
    )
    def test_lift_arc_matches_the_chordal_reference(self, alpha, beta, monkeypatch):
        # the first three pullbacks at the default density (32/2048), then a
        # sparse run whose fourth pullback refines steps on both pairs
        runs = [
            IterateOptions(max_iters=3, tol=0.0),
            IterateOptions(max_iters=4, tol=0.0, samples_per_arc=8, budget=128),
        ]
        lift_arc = engine._lift_arc
        arcs = []

        def recording(F, entries):
            out = lift_arc(F, entries)
            arcs.append((F, entries, out))
            return out

        monkeypatch.setattr(engine, "_lift_arc", recording)
        for opts in runs:
            iterate(alpha, beta, opts)
        assert len({id(F) for F, _, _ in arcs}) == sum(opts.max_iters for opts in runs)
        assert any(len(out) > len(entries) for _, entries, out in arcs)
        # every curve passes the red critical point at infinity
        assert any(p is None for _, _, out in arcs for _, p in out)
        for F, entries, out in arcs:
            want = reference_lift_arc(F, entries)
            assert len(out) == len(want)
            for (t, p), (rt, rp) in zip(out, want):
                assert t == rt and p == rp

    @pytest.mark.parametrize("radius", [0.2, 1.0, 5.0])
    def test_refined_steps_match_the_chordal_reference(self, radius):
        # lift steps that turn by nearly 90 degrees leave both candidates
        # almost equidistant, so refinement nests several levels deep
        F = from_critical_values(1j, cmath.exp(2j * cmath.pi * 7 / 8))
        turns = [0.0]
        for step in (80, 85, 89, 89.9, 89.99, 45, 120):
            turns.append(turns[-1] + math.radians(step))
        entries = [
            (reduce(k, 16), F.eval(radius * cmath.exp(1j * x))) for k, x in enumerate(turns)
        ]
        out = engine._lift_arc(F, entries)
        assert len(out) > len(entries)
        assert out == reference_lift_arc(F, entries)

    @pytest.mark.parametrize("uv", STEP_MAPS)
    def test_single_steps_match_the_chordal_reference(self, uv):
        # the previous lift is at infinity, past the overflow bound (as from
        # a loaded dump), or has |prev| from 1e-160 to 1e154 (the largest a
        # square root reaches), crossing the thresholds at 0
        # and infinity at every scale; the targets hit, or come within
        # roundoff of, both critical values, where the candidates meet or
        # overflow to infinity
        F = from_critical_values(*uv)
        targets = [None, 0j, 1 + 0j, -2 + 3j, 1e150j, 1e-150 + 0j]
        for c in (F.u, F.v):
            if c is not None:
                targets += [c, c + 1e-7, c - 1e-13j, c + 1e-300]
        prevs = [None, 1e200 + 0j] + [
            10.0**k * cmath.exp(1j * phase) for k in range(-160, 155) for phase in (0.3, 2.0)
        ]
        for prev in prevs:
            for z1 in targets:
                assert _step_outcome(engine._lift_step, F, prev, z1) == _step_outcome(
                    reference_lift_step, F, prev, z1
                ), (prev, z1)


def _sample_bits(c):
    """Each sample's parameter and position to the bit, and the marked indices."""
    return [(t, _bits(z)) for t, z in zip(c.params, c.points)], c.marks


# a pair run to its certified finish at the default density, 32/2048 (the
# bench's worked example); the same pair sparse, where pullbacks refine
# steps; a fixed point; every pullback of a census pair up to its collision,
# and of one up to the lifted curve that fails to close at the anchor
PULLBACK_RUNS = [
    (A14, A18, IterateOptions(max_iters=40), "converged"),
    (A14, A18, IterateOptions(max_iters=40, samples_per_arc=8, budget=128), "converged"),
    (A14, A14, IterateOptions(max_iters=4, tol=0.0, samples_per_arc=32, budget=2048),
     "max-iterations"),
    (reduce(1, 10), reduce(19, 20),
     IterateOptions(max_iters=20, samples_per_arc=32, budget=2048), "diverged"),
    # tol=0 tries no Newton finish, which would converge this run at record
    # 13, so the run still meets the closure failure at iteration 16
    (reduce(1, 20), reduce(17, 20),
     IterateOptions(max_iters=20, tol=0.0, samples_per_arc=32, budget=2048), "diverged"),
]


class TestPullbackOracle:
    @pytest.mark.parametrize("alpha,beta,opts,status", PULLBACK_RUNS)
    def test_every_pullback_matches_the_reference(
        self, alpha, beta, opts, status, monkeypatch
    ):
        pullback = engine.pullback_curve
        failures = []
        calls = [0]

        def compared(c, F, s_next):
            calls[0] += 1
            try:
                want = reference_pullback_curve(c, F, s_next)
            except BranchTrackingError as exc:
                want = exc
            try:
                got = pullback(c, F, s_next)
            except BranchTrackingError as exc:
                assert isinstance(want, BranchTrackingError)
                assert (str(exc), exc.arc) == (str(want), want.arc)
                failures.append(exc)
                raise
            assert not isinstance(want, BranchTrackingError), want
            assert got.schedule == want.schedule
            assert _sample_bits(got) == _sample_bits(want)
            return got

        monkeypatch.setattr(engine, "pullback_curve", compared)
        report = iterate(alpha, beta, opts)
        assert report.status == status
        # a pullback per record except level 0 and the Newton record, and the
        # one that failed
        lifted = sum(r.phase != "newton" for r in report.records[1:])
        assert calls[0] == lifted + len(failures)
        if failures:
            (exc,) = failures
            assert report.message == (
                f"numeric failure at iteration {report.records[-1].n + 1}: "
                f"lifted curve fails to close at the anchor at parameter 0 on arc {exc.arc}"
            )


class TestLapAntisymmetry:
    @pytest.mark.parametrize(
        "alpha,beta,opts",
        [
            (A14, A18, IterateOptions(max_iters=40, samples_per_arc=16, budget=256)),
            (A14, A14, IterateOptions(max_iters=5, tol=0.0, samples_per_arc=32, budget=2048)),
            (A14, A18, IterateOptions(max_iters=40)),
        ],
    )
    def test_second_lap_is_the_first_negated(self, alpha, beta, opts, monkeypatch):
        # F(-z) = F(z): a child curve that covers the preimage of its parent
        # once passes each lap-0 sample's negative on lap 1, at the parameter
        # moved by 1/2.  So does every lifted curve read before prune, and
        # every pullback curve of level 1 or more that a record hands out,
        # since prune folds a symmetric curve onto one lap
        pullback = engine.pullback_curve
        lifted, hooked = [], []

        def recording(c, F, s_next):
            out = pullback(c, F, s_next)
            lifted.append(out)
            return out

        monkeypatch.setattr(engine, "pullback_curve", recording)
        report = iterate(alpha, beta, opts, curve_hook=hooked.append)
        pulled = [
            c for rec, c in zip(report.records, hooked) if rec.n >= 1 and rec.phase == "pullback"
        ]
        assert len(lifted) >= 5
        assert len(pulled) >= 5
        assert any(len(c.params) < rec.samples_before for rec, c in zip(report.records, hooked))
        half = Angle(1, 2)
        for c in lifted + pulled:
            lap0 = [(t, z) for t, z in zip(c.params, c.points) if t < half]
            lap1 = [(t, z) for t, z in zip(c.params, c.points) if not t < half]
            assert len(lap0) == len(lap1)
            assert [t.opposite() for t, _ in lap0] == [t for t, _ in lap1]
            assert [_bits(None if z is None else -z) for _, z in lap0] == [
                _bits(z) for _, z in lap1
            ]


class TestBranchFailureContext:
    def test_report_names_iteration_and_arc(self, monkeypatch):
        lift_arc = engine._lift_arc
        pullback = engine.pullback_curve
        levels, seen, raised = [], [], []

        def counting(c, F, s_next):
            levels.append(s_next.level)
            return pullback(c, F, s_next)

        def failing(F, entries):
            if levels[-1] == 2:
                seen.append(entries)
                if len(seen) == 4:
                    raised.append(BranchTrackingError(entries[-1][0]))
                    raise raised[-1]
            return lift_arc(F, entries)

        monkeypatch.setattr(engine, "pullback_curve", counting)
        monkeypatch.setattr(engine, "_lift_arc", failing)
        report = iterate(A14, A18, IterateOptions(max_iters=5, tol=0.0, samples_per_arc=16))
        (exc,) = raised
        assert (exc.iteration, exc.arc) == (2, 3)
        assert report.status == "diverged"
        assert report.message == (
            f"numeric failure at iteration 2: branch tracking lost at parameter "
            f"{exc.parameter} on arc 3"
        )
        assert [r.n for r in report.records] == [0, 1]

    def test_stitch_failure_carries_the_arc(self, ex2_level1, monkeypatch):
        # turned by a quarter, every lifted arc still meets its neighbours,
        # but the curve cannot close at the anchor, which ends the last arc
        c0, F, _ = ex2_level1
        lift_arc = engine._lift_arc

        def turned(F, entries):
            return [(t, None if p is None else p * 1j) for t, p in lift_arc(F, entries)]

        monkeypatch.setattr(engine, "_lift_arc", turned)
        s1 = pullback_schedule(c0.schedule, A14, A18)
        with pytest.raises(BranchTrackingError, match="fails to close") as info:
            pullback_curve(c0, F, s1)
        last = len(s1.marks) - 1
        assert (info.value.arc, info.value.iteration) == (last, None)
        assert str(info.value).endswith(f"at parameter 0 on arc {last}")


class TestPrune:
    def test_budget_respected_and_marks_kept(self, ex2_level1):
        _, _, c1 = ex2_level1
        out = prune(c1, 300, 1e-6)
        assert len(out.params) <= max(300, len(c1.params))
        assert len(out.params) < len(c1.params)
        kept_marks = [out.params[i] for i in out.marks]
        assert kept_marks == [m.parameter for m in c1.schedule.marks]

    def test_output_is_a_subsequence(self, ex2_level1):
        _, _, c1 = ex2_level1
        out = prune(c1, 300, 1e-6)
        it = iter(zip(c1.params, c1.points))
        for t, p in zip(out.params, out.points):
            for orig_t, orig_p in it:
                if orig_t is t and orig_p is p:
                    break
            else:
                pytest.fail("prune reordered or invented a sample")

    def test_no_op_below_budget(self, ex2_level1):
        _, _, c1 = ex2_level1
        assert prune(c1, len(c1.params), 1e-6) is c1

    def test_budget_below_marks_rejected(self, ex2_level1):
        _, _, c1 = ex2_level1
        with pytest.raises(ValueError):
            prune(c1, 3, 1e-6)

    def test_marked_point_clearance(self, ex2_level1):
        # pruning may not drag the polyline across an embedded marked point:
        # every guarded position keeps some sample within the prune tolerance
        # of its original distance to the curve
        _, _, c1 = ex2_level1
        tol = 1e-3
        out = prune(c1, 300, tol)
        def guards(curve):
            return {i for i, m in zip(curve.marks, curve.schedule.marks) if m.point_id is not None}

        guarded = [c1.points[i] for i in sorted(guards(c1))]

        def curve_distance(curve, g):
            skip = guards(curve)
            return min(chordal(g, z) for k, z in enumerate(curve.points) if k not in skip)

        for g in guarded:
            before = curve_distance(c1, g)
            after = curve_distance(out, g)
            assert after >= before - 2 * tol


# curve positions over the whole float range: past about 1.34e154 |z|^2
# overflows and the point counts as infinity
position = st.one_of(
    st.none(),
    st.sampled_from([0j, -0.0 + 0j, complex(math.inf, 0.0), complex(math.nan, 1.0), 0.5]),
    st.builds(
        lambda e, phase: 10.0**e * cmath.exp(1j * phase),
        st.floats(min_value=-320, max_value=308),
        st.floats(min_value=0, max_value=2 * math.pi),
    ),
)


def _budgets(c):
    n = len(c.params)
    marked = len(c.marks)
    return [n - 1, (n + marked) // 2, marked]


class TestPruneOracle:
    @pytest.mark.parametrize(
        "alpha,beta,opts,status",
        [
            # at the default density, 32/2048, the curve first outgrows the
            # budget at pullback 4 (3600 and 3072 samples), so these are three
            # pullbacks that prune
            (A14, A18, IterateOptions(max_iters=6, tol=0.0), "max-iterations"),
            (A14, A14, IterateOptions(max_iters=6, tol=0.0), "max-iterations"),
            # every pullback of a census pair, up to its collision
            (
                reduce(1, 10),
                reduce(19, 20),
                IterateOptions(max_iters=20, samples_per_arc=32, budget=2048),
                "diverged",
            ),
        ],
    )
    def test_pullback_prunes_match_the_reference(self, alpha, beta, opts, status, monkeypatch):
        engine_prune = engine.prune
        calls = []

        def recording(c, budget, tol):
            out = engine_prune(c, budget, tol)
            calls.append((c, budget, tol, out))
            return out

        monkeypatch.setattr(engine, "prune", recording)
        report = iterate(alpha, beta, opts)
        assert report.status == status
        assert len(calls) == report.records[-1].n
        assert sum(len(out.params) < len(c.params) for c, _, _, out in calls) >= 3
        for c, budget, tol, out in calls:
            assert_same_samples(out, reference_prune(c, budget, tol))

    @given(st.lists(position, min_size=3, max_size=12))
    def test_sphere_points_are_stereographic(self, positions):
        # with no marks every sample is removable, so the first heap takes
        # one deviation a sample, in index order, with its sphere point as cur
        deviation, seen = engine._deviation, []

        def recording(prev, cur, nxt):
            seen.append(cur)
            return deviation(prev, cur, nxt)

        c = synthetic_curve(positions, {})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_deviation", recording)
            prune(c, len(positions) - 1, 1e-6)
        got = [tuple(x.hex() for x in p) for p in seen[: len(positions)]]
        assert got == [tuple(x.hex() for x in stereographic(z)) for z in positions]

    def test_repeated_positions_tie_on_the_index(self):
        # runs of equal positions: a chord between equal neighbours has
        # length zero, and every deviation in a run is exactly 0, so the
        # index alone decides which goes first
        base = [cmath.exp(2j * cmath.pi * k / 16) for k in range(16)]
        positions = [p for k, p in enumerate(base) for _ in range(1 + k % 4)]
        c = synthetic_curve(positions, {0: 1, 20: 2})
        for budget in _budgets(c):
            assert_prunes_like_the_reference(c, budget, 1e-6)
        # the lowest-index sample of deviation 0 goes first
        first = assert_prunes_like_the_reference(c, len(positions) - 1, 1e-6)
        (gone,) = set(c.params) - set(first.params)
        assert c.params.index(gone) == 9

    def test_samples_at_zero_and_infinity(self):
        # the real line through 0 and infinity, with infinity written as
        # None, as non-finite values and as finite values past the overflow
        # bound of |z|^2; all of them sit at the south pole
        n = 48
        positions = [complex(math.tan(math.pi * k / n), 0.0) for k in range(n)]
        positions[0] = positions[30] = 0j
        far = {21: 1e155 + 0j, 22: 1e200 + 0j, 23: complex(math.inf, 0.0), 24: None,
               25: complex(math.nan, math.nan), 26: -1e200 + 0j, 27: complex(-1e160, 1e160)}
        for k, z in far.items():
            positions[k] = z
        c = synthetic_curve(positions, {0: 1, 12: 2})
        for budget in _budgets(c):
            assert_prunes_like_the_reference(c, budget, 1e-6)

    def test_blocked_sample_is_retried_after_a_neighbour_goes(self):
        # only samples 19 (B) and 20 (C) lie outside the mark windows.  B has
        # the smaller deviation, but its sweep covers the guarded sample 0
        # (G), so it is refused; removing C turns B's chord, which then
        # clears G, so B goes too
        g, h = 0.5 + 0j, 1e-3
        positions = [g + 0.3 * cmath.exp(2j * cmath.pi * k / 40) for k in range(40)]
        positions[0] = g
        positions[18:22] = [g + h * (-1 - 1j), g + h * 1j, g + h * (1 - 1j), g + h * (2 + 3j)]
        c = synthetic_curve(positions, {0: 1, 10: None, 29: None})
        pts = [stereographic(z) for z in positions]
        assert engine._sweep_clearance(pts[0], pts[18], pts[19], pts[20]) <= 1e-6
        assert reference_deviation(pts[18], pts[19], pts[20]) < reference_deviation(
            pts[19], pts[20], pts[21]
        )
        for budget in _budgets(c):
            assert_prunes_like_the_reference(c, budget, 1e-6)
        one = assert_prunes_like_the_reference(c, 39, 1e-6)
        assert c.params[20] not in one.params and c.params[19] in one.params
        out = assert_prunes_like_the_reference(c, 3, 1e-6)
        assert len(out.params) == 38

    def test_overlapping_windows_across_index_zero(self):
        # marks at 1 and 45 (their windows overlap across index 0) and at 10
        # and 20 (overlapping); with the budget at the marked count exactly
        # the samples outside every window go
        n = 64
        positions = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
        marks = {1: 1, 10: None, 20: 2, 45: None}
        c = synthetic_curve(positions, marks)
        w = engine._MARK_WINDOW
        protected = {(i + off) % n for i in marks for off in range(-w, w + 1)}
        for budget in _budgets(c):
            assert_prunes_like_the_reference(c, budget, 1e-6)
        out = assert_prunes_like_the_reference(c, len(marks), 1e-6)
        assert [c.params.index(t) for t in out.params] == sorted(protected)


# a lap-0 sample of a symmetric curve; its twin on lap 1 is its negative
lap_position = st.one_of(
    st.none(),
    st.sampled_from([0j, 1 + 0j, 1e200 + 0j]),
    st.builds(
        lambda e, phase: 10.0**e * cmath.exp(1j * phase),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0, max_value=2 * math.pi),
    ),
)


def symmetric_curve(lap0, marks):
    """A curve through ``lap0`` and then its negatives, marked at 0 and n/2.

    ``marks`` adds marks as in :func:`synthetic_curve`; the anchor and its
    twin are plumbing marks unless it names them.
    """
    h = len(lap0)
    return synthetic_curve(
        lap0 + [None if z is None else -z for z in lap0], {0: None, h: None, **marks}
    )


class TestFoldedPrune:
    @given(
        st.lists(lap_position, min_size=18, max_size=48),
        st.dictionaries(
            st.integers(min_value=1, max_value=95),
            st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
            max_size=4,
        ),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=0.3),
    )
    def test_symmetric_curves_prune_on_one_lap(self, lap0, marks, share, tol):
        # marks on either lap, guarded or not; the output is the folded
        # greedy's, symmetric, and keeps every mark
        n = 2 * len(lap0)
        c = symmetric_curve(lap0, {k: pid for k, pid in marks.items() if k < n})
        marked = len(c.marks)
        budget = marked + int(share * (n - 1 - marked))
        want = reference_folded_prune(c, budget, tol)
        out = prune(c, budget, tol)
        assert_same_samples(out, want)
        kept = {c.params.index(t) for t in out.params}
        assert all((k + n // 2) % n in kept for k in kept)
        assert set(c.marks) <= kept

    # 80 samples a lap; the marks and their windows keep 27 of them
    LAP0 = [cmath.exp(1j * math.pi * k / 80) * (1 + 0.1 * (k % 3)) for k in range(80)]
    MARKS = {7: 1, 90: 2}

    def test_odd_budget_prunes_to_one_less(self):
        c = symmetric_curve(self.LAP0, self.MARKS)
        out = prune(c, 61, 1e-6)
        assert len(out.params) == 60
        assert out == reference_folded_prune(c, 61, 1e-6)

    def test_a_twin_sweep_across_a_guard_is_refused(self):
        # the guard G sits on lap 0 at sample 0; samples 18-21 lie around -G,
        # so the twin of B (sample 19) sweeps across G.  Only B (19) and C
        # (20) lie outside the mark windows, and B has the smaller deviation,
        # so the pair that goes first is C's
        g, h = 0.5 + 0j, 1e-3
        lap0 = [g + 0.3 * cmath.exp(2j * cmath.pi * k / 40) for k in range(40)]
        lap0[0] = g
        lap0[18:22] = [-g + h * (-1 - 1j), -g + h * 1j, -g + h * (1 - 1j), -g + h * (2 + 3j)]
        c = symmetric_curve(lap0, {0: 1, 10: None, 29: None})
        pts = [stereographic(z) for z in c.points]
        assert engine._sweep_clearance(pts[0], pts[58], pts[59], pts[60]) <= 1e-6
        assert reference_deviation(pts[18], pts[19], pts[20]) < reference_deviation(
            pts[19], pts[20], pts[21]
        )
        out = prune(c, 78, 1e-6)
        assert out == reference_folded_prune(c, 78, 1e-6)
        assert set(c.params) - set(out.params) == {c.params[20], c.params[60]}

    def test_twin_off_by_one_ulp_is_pruned_unfolded(self):
        c = symmetric_curve(self.LAP0, self.MARKS)
        positions = list(c.points)
        z = positions[85]
        positions[85] = complex(math.nextafter(z.real, math.inf), z.imag)
        skewed = synthetic_curve(positions, {0: None, 80: None, **self.MARKS})
        out = assert_prunes_like_the_reference(skewed, 61, 1e-6)
        assert len(out.params) == 61


class TestCurveArrays:
    @given(
        st.lists(position, min_size=1, max_size=12),
        st.dictionaries(
            st.integers(min_value=0, max_value=11),
            st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
            max_size=4,
        ),
        angle,
    )
    def test_index_finds_every_parameter_and_only_those(self, positions, marks, t):
        c = synthetic_curve(positions, {k: pid for k, pid in marks.items() if k < len(positions)})
        assert [c.params[i] for i in c.marks] == [m.parameter for m in c.schedule.marks]
        n = len(c.params)
        for k, s in enumerate(c.params):
            assert c.index(s) == k
            assert c.point_at(s) is c.points[k]
            # (2k + 1)/2n lies between samples k and k + 1
            with pytest.raises(KeyError):
                c.index(reduce(2 * k + 1, 2 * n))
        if t in c.params:
            assert c.params[c.index(t)] == t
        else:
            with pytest.raises(KeyError):
                c.index(t)


class TestIterate:
    def test_example_one_is_a_fixed_point(self):
        report = iterate(A14, A14, IterateOptions(max_iters=3, tol=0.0, samples_per_arc=32))
        assert report.status == "max-iterations"
        for rec in report.records:
            assert chordal(rec.u, 1j) < 1e-9
            assert chordal(rec.v, -1j) < 1e-9

    def test_example_two_first_steps(self):
        report = iterate(A14, A18, IterateOptions(max_iters=2, tol=0.0, samples_per_arc=32))
        assert report.status == "max-iterations"
        u1, v1 = report.records[1].u, report.records[1].v
        assert abs(u1 - 0.643594j) < 1e-5
        assert abs(v1 - (-1.18921j)) < 1e-5
        assert report.records[1].increment is not None

    def test_structural_error_short_circuits(self):
        report = iterate(A14, Angle(3, 4))
        assert report.status == "structural-error"
        assert "conjugate limbs" in report.message
        assert report.records == []
        assert report.final_curve is None

    def test_budget_below_marks_refused_before_the_level0_curve(self, monkeypatch):
        # (1/4, 1/8) has 5 level-0 marks, so each lifted curve carries 10
        built = []
        monkeypatch.setattr(engine, "init_embedding", lambda *a: built.append(a))
        with pytest.raises(ValueError) as err:
            iterate(A14, A18, IterateOptions(budget=3))
        assert str(err.value) == "budget 3 below the marked-sample count 10"
        assert built == []
        monkeypatch.undo()
        # the marked count itself is a budget
        opts = IterateOptions(max_iters=1, tol=0.0, samples_per_arc=2, budget=10)
        assert iterate(A14, A18, opts).status == "max-iterations"

    def test_normalization_miss_is_a_numeric_failure(self):
        # a gate-accepted pair: the map of record 18 fails the normalization
        # self-check by 1.5e-12, which ends the run as a numeric failure
        report = iterate(Angle(7, 8), reduce(25, 32), IterateOptions(max_iters=40))
        assert report.status == "diverged"
        assert report.message.startswith(
            "numeric failure at iteration 19: normalization self-check failed at (1+0j)"
        )
        assert report.records[-1].n == 18

    def test_parabolic_collision_detected(self):
        opts = IterateOptions(max_iters=40, samples_per_arc=32, budget=2048)
        report = iterate(Angle(1, 6), Angle(1, 6), opts)
        assert report.status == "diverged"
        assert "collided" in report.message
        assert any("orbifold" in w for w in report.warnings)

    @pytest.mark.parametrize(
        "alpha,beta",
        # 0 is a postcritical point of (1/4, 1/4); on (7/32, 1/4) the
        # postcritical point at 7/8 is a critical point
        [(A14, A18), (A14, A14), (reduce(7, 32), A14)],
    )
    def test_curves_carry_the_level0_schedule(self, alpha, beta):
        # every curve a record hands out is rebased onto the level-0 marks
        s0 = base_schedule(alpha, beta)
        curves = []
        opts = IterateOptions(max_iters=3, tol=0.0, samples_per_arc=32, budget=2048)
        iterate(alpha, beta, opts, curve_hook=curves.append)
        assert len(curves) == 4
        for c in curves:
            assert c.schedule == replace(s0, level=c.schedule.level)
            assert [c.params[i] for i in c.marks] == [m.parameter for m in s0.marks]
            # the stitched arcs concatenate in order; nothing sorts them
            params = c.params
            assert all(a < b for a, b in zip(params, params[1:]))

    def test_hooked_curves_match_their_records(self):
        # the CLI writes each curve dump from the hook, reading n, u and v
        # off the curve itself, so every curve must carry its record's values
        curves = []
        opts = IterateOptions(max_iters=40, tol=1e-9, samples_per_arc=8, budget=128)
        report = iterate(A14, A18, opts, curve_hook=curves.append)
        assert report.status == "converged"
        assert [r.phase for r in report.records[-2:]] == ["newton", "confirm"]
        assert len(curves) == len(report.records)
        for c, rec in zip(curves, report.records):
            assert c.schedule.level == rec.n
            assert _bits(c.point_at(c.schedule.black_value)) == _bits(rec.u)
            assert _bits(c.point_at(c.schedule.red_value)) == _bits(rec.v)

    def test_finish_waits_for_the_falls_on_example_two(self, monkeypatch):
        # the step of (1/4, 1/8) rises at pullbacks 11-12 and 15-16 but never
        # stays above its running minimum for three records, so the finish is
        # tried once, after seven falls, and the tail of the records falls
        levels = []
        finish = newton.finish

        def recorded(curve, *args):
            levels.append(curve.schedule.level)
            return finish(curve, *args)

        monkeypatch.setattr(newton, "finish", recorded)
        report = iterate(A14, A18)
        assert report.status == "converged"
        assert levels == [23]

    def test_a_stalled_step_tries_the_finish(self):
        # (1/32, 1/32) circles its fixed point: after pullback 4 the step
        # jumps and stays above its minimum, and the finish tried after three
        # such records (from level 7) certifies the map long before the cap
        opts = IterateOptions(max_iters=20, samples_per_arc=32, budget=2048)
        report = iterate(reduce(1, 32), reduce(1, 32), opts)
        assert report.status == "converged"
        assert report.records[-1].n == 9
        assert [r.phase for r in report.records[-2:]] == ["newton", "confirm"]
        # the mirror pair reaches the conjugate map
        mirror = iterate(reduce(31, 32), reduce(31, 32), opts)
        assert mirror.status == "converged"
        u, v = report.records[-1].u, report.records[-1].v
        assert chordal(mirror.records[-1].u, u.conjugate()) < 1e-12
        assert chordal(mirror.records[-1].v, v.conjugate()) < 1e-12

    def test_relabel_covers_every_point_id(self):
        report = iterate(A14, A18, IterateOptions(max_iters=1, tol=0.0, samples_per_arc=32))
        embedded = relabel(report.final_curve)
        assert sorted(embedded) == [1, 2, 3, 4, 5]


class TestStructuralGates:
    def test_all_reasons(self):
        assert structural_gates(A14, A18) is None
        assert "periodic" in structural_gates(Angle(1, 3), A18)
        assert "conjugate limbs" in structural_gates(A14, Angle(3, 4))
        assert "pinched curve" in structural_gates(Angle(1, 6), Angle(13, 14))
        assert "subdivision" in structural_gates(reduce(1, 32), reduce(1, 12))

    def test_verdict_table(self):
        with GATE_VERDICTS.open() as fh:
            rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
        assert len(rows) == 3486
        for alpha, beta, want in rows[::10]:
            reason = structural_gates(Angle.parse(alpha), Angle.parse(beta))
            got = "accepted" if reason is None else VERDICT_PREFIXES[reason.split(":", 1)[0]]
            assert got == want, (alpha, beta, reason)

    @pytest.mark.parametrize(
        "alpha,beta",
        [("1/4", "1/1022"), ("5/18", "1/22"), ("1/4", "1/16382")],
    )
    def test_deep_pairs_fail_subdivision(self, alpha, beta):
        # landing periods 9, 10 and 13: a scan over all 2^period candidates
        # took 23 s on the last
        reason = structural_gates(Angle.parse(alpha), Angle.parse(beta))
        assert reason is not None and reason.startswith("subdivision failure")
