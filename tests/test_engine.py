"""Curve embedding, lifting, pruning, and the full iteration."""

import cmath
import heapq
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from quadmate import combinatorics, engine, lamination, pruning
from quadmate.angles import Angle, reduce
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
    as_point,
    chordal,
    from_critical_values,
    stereographic,
)

A14, A18 = Angle(1, 4), Angle(1, 8)

# structural_gates verdicts of every pair in the bench's gate census
GATE_VERDICTS = Path(__file__).resolve().parents[1] / "perfbench" / "gate_verdicts.txt"
# structural_gates reasons of every 97th pair with even denominators <= 64
GATE_REASONS_64 = Path(__file__).resolve().parent / "data" / "gate_reasons_64.txt"
VERDICT_PREFIXES = {
    "conjugate limbs": "conjugate",
    "pinched curve": "pinched",
    "subdivision failure": "subdivision",
}


def verdict(reason: str | None) -> str:
    """The verdict class of a gate reason, as the committed tables name it."""
    return "accepted" if reason is None else VERDICT_PREFIXES[reason.split(":", 1)[0]]

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


def angles(c):
    """The parameters of ``c`` as angles."""
    return tuple(c.param(k) for k in range(len(c.params)))


def midpoint(a: Angle, b: Angle) -> Angle:
    """The midpoint of the shorter arc from ``a`` to ``b`` (counterclockwise on a tie)."""
    # over the common denominator d: the counterclockwise step from a to b,
    # made signed when it passes half a turn, and half of it added to a
    d = a.den * b.den
    na = a.num * b.den
    step = (b.num * a.den - na) % d
    if 2 * step > d:
        step -= d
    return reduce(2 * na + step, 2 * d)


def reference_lift_step(F, out, t0, prev, t1, z1, depth):
    """One step of ``engine._lift_arc``'s decision, recursive and with ``chordal`` throughout."""
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
        out.append((t1, chosen))
        return chosen
    ok, zm = engine._slerp_mid(F.eval(prev), z1)
    if not ok:
        raise BranchTrackingError(t1)
    tm = midpoint(t0, t1)
    mid = reference_lift_step(F, out, t0, prev, tm, zm, depth - 1)
    return reference_lift_step(F, out, tm, mid, t1, z1, depth - 1)


def reference_lift_arc(F, entries):
    """``engine._lift_arc`` over angle parameters."""
    t0, z0 = entries[0]
    out = [(t0, F.preimages(z0)[0])]
    for t1, z1 in entries[1:]:
        reference_lift_step(F, out, out[-1][0], out[-1][1], t1, z1, engine._MAX_REFINE)
    return out


def reference_densify(far, near):
    """``engine._densify`` over angle parameters."""
    out = []
    t1, z1 = near
    cur = far
    for _ in range(engine._DENSIFY_STEPS):
        ok, zm = engine._slerp_mid(cur[1], z1)
        if not ok:
            break
        cur = (midpoint(cur[0], t1), zm)
        out.append(cur)
    return out


def reference_pullback_curve(
    c: DiscreteCurve,
    F: NormalizedQuadratic,
    s_next: Schedule,
) -> DiscreteCurve:
    """``pullback_curve`` as it was when it lifted both laps arc by arc.

    The body is unchanged apart from naming the engine's private helpers
    through the module, and from lifting and densifying over angle
    parameters through the references above.
    """
    # child traversal: two laps over the parent, parameters halved
    params = [t.half(0) for t in angles(c)]
    params += [t.half(1) for t in angles(c)]
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
            entries = entries[:-1] + reference_densify(entries[-2], entries[-1]) + [entries[-1]]
        if head.kind is MarkKind.CRITICAL_POINT and len(entries) >= 2:
            mids = reference_densify(entries[1], entries[0])
            mids.reverse()
            entries = [entries[0]] + mids + entries[1:]
        arcs.append(entries)

    lifts: list[list[tuple[Angle, SpherePoint]]] = []
    for k, entries in enumerate(arcs):
        try:
            lifts.append(reference_lift_arc(F, entries))
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
        # the rule as first written, with a bound of 1 on the better score
        # that refuses the inf of a chain with no postcritical mark
        if min(sp, sm) <= 1.0 and min(sp, sm) <= engine._ISOTOPY_RATIO * max(sp, sm):
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
    for lift, sign in zip(lifts, signs):
        t, p = lift[0]
        out_params.append(t)
        out_points.append(p if sign == 1 else engine._neg(p))
        out_params += [t for t, _ in lift[1:-1]]
        if sign == 1:
            out_points += [p for _, p in lift[1:-1]]
        else:
            out_points += [None if p is None else -p for _, p in lift[1:-1]]
    return DiscreteCurve.from_angles(out_params, out_points, s_next)


def reference_deviation(prev, cur, nxt) -> float:
    """``pruning._deviation`` as it was before it took the tuples apart."""
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
            for off in range(1, pruning._MARK_WINDOW + 1):
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
            and pruning._sweep_clearance(g, pts[a], pts[i], pts[b]) <= tol
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
    w = pruning._MARK_WINDOW
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
            and pruning._sweep_clearance(g, pts[a], pts[i], pts[b]) <= tol
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
    """The samples of ``c`` whose flag is set, as the same objects, with its schedule."""
    kept = [i for i in range(len(c.params)) if alive[i]]
    return DiscreteCurve.from_angles(
        [c.param(i) for i in kept], [c.points[i] for i in kept], c.schedule
    )


def synthetic_curve(positions, marks):
    """A closed curve through ``positions`` at parameters k/n.

    ``marks`` maps a sample index to the postcritical point id it carries, or
    to None for an unguarded mark.
    """
    n = len(positions)
    params = tuple(reduce(k, n) for k in range(n))
    marked = sorted(marks)
    schedule = Schedule(
        marks=tuple(Mark(params[k], marks[k]) for k in marked),
        level=0,
        black_value=params[0],
        red_value=params[0],
    )
    return DiscreteCurve.from_angles(params, positions, schedule)


def assert_same_samples(got, want):
    """Sample for sample the same parameters and point objects, and the same marks."""
    assert (got.params, got.den) == (want.params, want.den)
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


# the parent position of a _StartingAt arc's first sample
START = object()


@dataclass(frozen=True)
class _StartingAt(NormalizedQuadratic):
    """F, with ``start`` as its principal root at the position ``START``.

    An arc that begins at ``START`` lifts from ``start`` itself, a point
    that F's root of ``F.eval(start)`` may round away from; both the lift
    and the reference reach roots only through :meth:`roots`.
    """

    start: SpherePoint = None

    def roots(self, ws):
        plain = super().roots
        return [self.start if w is START else plain((w,))[0] for w in ws]


# the parent position whose principal root a _Rooted map sets
TARGET = 0.3 - 0.7j


@dataclass(frozen=True)
class _Rooted(_StartingAt):
    """_StartingAt, with ``root`` also the principal root at ``TARGET``.

    A step from ``START`` to ``TARGET`` then chooses between ``root`` and
    ``-root`` from ``start``, both exactly as given.
    """

    root: SpherePoint = None

    def roots(self, ws):
        return [self.root if w == TARGET else z for w, z in zip(ws, super().roots(ws))]


def _ulps(x: float, k: int) -> float:
    """``x`` moved by ``k`` units in the last place."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _step_outcome(lift_arc, F, z0, z1, den=None):
    """What lifting the arc from ``z0`` to ``z1`` gives (positions to the bit), or its error.

    The arc runs from parameter 0 to 1/4; with ``den`` given, parameters are
    integers over ``den`` and are read back as angles.
    """
    ts = (Angle(0, 1), Angle(1, 4)) if den is None else (0, den // 4)
    out = []
    try:
        out = lift_arc(F, [(ts[0], z0), (ts[1], z1)])
    except (BranchTrackingError, ArithmeticError) as exc:
        if den is not None and isinstance(exc, BranchTrackingError):
            exc.parameter = reduce(exc.parameter, den)
        return [f"{type(exc).__name__}: {exc}"]
    if den is not None:
        out = [(reduce(t, den), p) for t, p in out]
    return [(t, _bits(p)) for t, p in out]


def _angle_of(f: Fraction) -> Angle:
    return reduce(f.numerator, f.denominator)


def _fraction(a: Angle) -> Fraction:
    return Fraction(a.num, a.den)


@pytest.fixture(scope="module")
def ex2_level1():
    s0 = base_schedule(A14, A18)
    c0 = init_embedding(s0, 64)
    u, v = read_critical_values(c0)
    F = from_critical_values(u, v)
    s1 = pullback_schedule(s0)
    return c0, F, pullback_curve(c0, F, s1)


class TestInitEmbedding:
    def test_unit_circle(self):
        s0 = base_schedule(A14, A18)
        c = init_embedding(s0, 16)
        assert c.schedule.level == 0
        assert len(c.params) == 5 * 17
        for z in c.points:
            assert abs(abs(z) - 1.0) < 1e-12

    def test_samples_per_arc_below_one_refused(self):
        # with no inner sample, an arc between two critical-point marks is
        # densified from both ends, and its lift may halve one step more
        # often than the child denominator allows
        s0 = base_schedule(A14, A18)
        for n in (0, -1):
            with pytest.raises(ValueError) as err:
                init_embedding(s0, n)
            assert str(err.value) == f"samples_per_arc must be positive, got {n}"
            with pytest.raises(ValueError) as err:
                iterate(A14, A18, IterateOptions(samples_per_arc=n))
            assert str(err.value) == f"samples_per_arc must be positive, got {n}"
        # one inner sample is enough
        assert len(init_embedding(s0, 1).params) == 2 * len(s0.marks)

    def test_anchor_exact(self):
        c = init_embedding(base_schedule(A14, A18), 16)
        assert c.point_at(Angle(0, 1)) == 1.0 + 0.0j

    def test_parameters_strictly_ascend(self):
        c = init_embedding(base_schedule(A14, A18), 16)
        params = angles(c)
        assert list(params) == sorted(params)
        assert len(set(params)) == len(params)

    def test_marks_match_schedule(self):
        s0 = base_schedule(A14, A18)
        c = init_embedding(s0, 16)
        assert [c.param(i) for i in c.marks] == [m.parameter for m in s0.marks]

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
            t0 = _fraction(m.parameter)
            t1 = _fraction(s0.marks[(k + 1) % len(s0.marks)].parameter)
            if t1 <= t0:
                t1 += 1
            arc = [t0 + (t1 - t0) * j / (samples_per_arc + 1) for j in range(samples_per_arc + 1)]
            params += [_angle_of(t) for t in arc]
            for t in arc:
                x = 2.0 * math.pi * float(t)
                points.append(1.0 + 0.0j if t == 0 else complex(math.cos(x), math.sin(x)))
        c = init_embedding(s0, samples_per_arc)
        assert angles(c) == tuple(params)
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
        c = DiscreteCurve.from_angles([m.parameter for m in s0.marks], points, s0)
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
        assert [str(c1.param(i)) for i in c1.marks] == [t for t, _ in expected]
        for i, (_, pos) in zip(c1.marks, expected):
            assert chordal(c1.points[i], pos) < 1e-9

    def test_lift_fidelity(self, ex2_level1):
        c0, F, c1 = ex2_level1
        parent = dict(zip(angles(c0), c0.points))
        checked = 0
        for t, z in zip(angles(c1), c1.points):
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
        assert [c1.param(i) for i in c1.marks] == [m.parameter for m in c1.schedule.marks]
        assert c1.schedule.level == 1

    def test_critical_points_hit_exactly(self, ex2_level1):
        _, _, c1 = ex2_level1
        for i, mark in zip(c1.marks, c1.schedule.marks):
            if mark.kind is not MarkKind.CRITICAL_POINT:
                continue
            target = 0.0 + 0.0j if str(c1.param(i)) in ("1/8", "5/8") else None
            assert chordal(c1.points[i], target) < 1e-8

    def test_example_one_visits_both_poles_twice(self):
        s0 = base_schedule(A14, A14)
        c0 = init_embedding(s0, 64)
        u, v = read_critical_values(c0)
        F = from_critical_values(u, v)
        c1 = pullback_curve(c0, F, pullback_schedule(s0))
        marked = [c1.points[i] for i in c1.marks]
        at_zero = sum(1 for z in marked if z is not None and abs(z) < 1e-9)
        at_inf = sum(1 for z in marked if z is None)
        assert at_zero == 2
        assert at_inf == 2


class TestParameterArithmetic:
    @given(angle, st.sampled_from([0, 1]))
    def test_half_matches_fractions(self, a, lap):
        assert a.half(lap) == _angle_of((_fraction(a) + lap) / 2)

    @given(angle, step)
    def test_midpoint_is_the_average_either_way(self, a, d):
        b = _angle_of(_fraction(a) + d)
        mid = _angle_of(_fraction(a) + d / 2)
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
        s2 = pullback_schedule(c1.schedule)
        c2 = pullback_curve(c1, from_critical_values(u, v), s2)
        for c in (c1, c2):
            params = c.params
            assert all(type(t) is int for t in (c.den, *params))
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
        lift_arc, pullback = engine._lift_arc, engine.pullback_curve
        arcs, dens = [], []

        def recording(F, entries):
            out = lift_arc(F, entries)
            arcs.append((F, dens[-1], entries, out))
            return out

        def pulling(c, F, s_next):
            # the child denominator the lift's parameters are over
            dens.append(c.den << (engine._PARAM_BITS + 1))
            return pullback(c, F, s_next)

        monkeypatch.setattr(engine, "_lift_arc", recording)
        monkeypatch.setattr(engine, "pullback_curve", pulling)
        for opts in runs:
            iterate(alpha, beta, opts)
        assert len({id(F) for F, _, _, _ in arcs}) == sum(opts.max_iters for opts in runs)
        assert any(len(out) > len(entries) for _, _, entries, out in arcs)
        # every curve passes the red critical point at infinity
        assert any(p is None for _, _, _, out in arcs for _, p in out)
        for F, den, entries, out in arcs:
            want = reference_lift_arc(F, [(reduce(t, den), z) for t, z in entries])
            assert len(out) == len(want)
            for (t, p), (rt, rp) in zip(out, want):
                assert reduce(t, den) == rt and p == rp

    @pytest.mark.parametrize(
        "alpha,beta,fired,converged_at",
        # under the default options, steps of these runs' confirming pullbacks
        # stay ambiguous through all _MAX_REFINE refinements
        [("11/16", "1/4", 2, 7), ("1/12", "23/24", 1, 8)],
    )
    def test_the_winding_rule_decides_at_the_refinement_cap(
        self, alpha, beta, fired, converged_at, monkeypatch
    ):
        lift_arc, pullback, winding = engine._lift_arc, engine.pullback_curve, engine._winding_choice
        calls, arcs, dens = [], [], []

        def counting(prev, plus, minus):
            calls.append((prev, winding(prev, plus, minus)))
            return calls[-1][1]

        def recording(F, entries):
            before = len(calls)
            out = lift_arc(F, entries)
            arcs.append((F, dens[-1], entries, out, len(calls) - before))
            return out

        def pulling(c, F, s_next):
            dens.append(c.den << (engine._PARAM_BITS + 1))
            return pullback(c, F, s_next)

        monkeypatch.setattr(engine, "_winding_choice", counting)
        monkeypatch.setattr(engine, "_lift_arc", recording)
        monkeypatch.setattr(engine, "pullback_curve", pulling)
        report = iterate(Angle.parse(alpha), Angle.parse(beta))
        assert report.status == "converged" and report.records[-1].n == converged_at
        assert sum(n for *_, n in arcs) == fired
        # the continuous square root turns by less than a quarter turn
        assert all((chosen / prev).real > 0 for prev, chosen in calls)
        for F, den, entries, out, n in arcs:
            # the reference reaches the cap, and asks the rule, where the lift did
            before = len(calls)
            want = reference_lift_arc(F, [(reduce(t, den), z) for t, z in entries])
            assert len(calls) - before == n
            assert [(reduce(t, den), p) for t, p in out] == want

    @pytest.mark.parametrize("radius", [0.2, 1.0, 5.0])
    def test_refined_steps_match_the_chordal_reference(self, radius):
        # lift steps that turn by nearly 90 degrees leave both candidates
        # almost equidistant, so refinement nests several levels deep
        F = from_critical_values(1j, cmath.exp(2j * cmath.pi * 7 / 8))
        turns = [0.0]
        for step in (80, 85, 89, 89.9, 89.99, 45, 120):
            turns.append(turns[-1] + math.radians(step))
        points = [F.eval(radius * cmath.exp(1j * x)) for x in turns]
        # parameters k/16 over a denominator that takes every nested midpoint
        den = 16 << engine._MAX_REFINE
        out = engine._lift_arc(F, [(k << engine._MAX_REFINE, z) for k, z in enumerate(points)])
        assert len(out) > len(points)
        want = reference_lift_arc(F, [(reduce(k, 16), z) for k, z in enumerate(points)])
        assert [(reduce(t, den), p) for t, p in out] == want

    @pytest.mark.parametrize("uv", STEP_MAPS)
    def test_single_steps_match_the_chordal_reference(self, uv, monkeypatch):
        # two-entry arcs whose first lift is the previous lift itself: at
        # infinity, past the overflow bound (as from a loaded dump), or with
        # |prev| from 1e-160 to 1e154 (the largest a square root reaches),
        # crossing the thresholds at 0 and infinity at every scale; the
        # targets hit, or come within roundoff of, both critical values,
        # where the candidates meet or overflow to infinity.  Two refinements
        # at most, so an ambiguous step soon meets the winding rule
        monkeypatch.setattr(engine, "_MAX_REFINE", 2)
        F = from_critical_values(*uv)
        targets = [None, 0j, 1 + 0j, -2 + 3j, 1e150j, 1e-150 + 0j]
        for c in (F.u, F.v):
            if c is not None:
                targets += [c, c + 1e-7, c - 1e-13j, c + 1e-300]
        prevs = [None, 1e200 + 0j] + [
            10.0**k * cmath.exp(1j * phase) for k in range(-160, 155) for phase in (0.3, 2.0)
        ]
        for prev in prevs:
            G = _StartingAt(F.u, F.v, F.coeffs, prev)
            for z1 in targets:
                got = _step_outcome(engine._lift_arc, G, START, z1, 16)
                assert got == _step_outcome(reference_lift_arc, G, START, z1), (prev, z1)
                assert isinstance(got[0], str) or got[0] == (Angle(0, 1), _bits(prev))

    @staticmethod
    def _fast_and_full(monkeypatch, F, steps):
        """Each step ``(prev, root)`` lifted to the bit like the reference; the
        set of steps that took the full step rather than the fast path."""
        monkeypatch.setattr(engine, "_MAX_REFINE", 2)
        full_step, full = engine._lift_step, []

        def recording(F, out, prev, t1, z1, plus):
            full.append((prev, plus))
            return full_step(F, out, prev, t1, z1, plus)

        monkeypatch.setattr(engine, "_lift_step", recording)
        for prev, root in steps:
            G = _Rooted(F.u, F.v, F.coeffs, prev, root)
            got = _step_outcome(engine._lift_arc, G, START, TARGET, 16)
            assert got == _step_outcome(reference_lift_arc, G, START, TARGET), (prev, root)
        return set(full)

    @pytest.mark.parametrize("uv", STEP_MAPS)
    def test_knife_edge_ratios_match_the_chordal_reference(self, uv, monkeypatch):
        # a previous lift s * root or -s * root has the raw distance ratio
        # (1 - s) / (1 + s) to the candidates; stepped a few ulps either way
        # around the fast path's margin and around _AMBIGUITY_RATIO, the raw
        # and the chordal ratio fall on both sides of each
        F = from_critical_values(*uv)
        fast, ambiguity = engine._FAST_RATIO, engine._AMBIGUITY_RATIO
        assert fast < ambiguity
        steps = []
        for root in (0.5 + 0.2j, -3 + 7j, 0.05 - 0.02j, 700 - 300j):
            for ratio in (fast, ambiguity):
                s = (1 - ratio) / (1 + ratio)
                for base in (s * root, -s * root):
                    for k in range(-6, 7):
                        steps.append((complex(_ulps(base.real, k), base.imag), root))
                        steps.append((complex(base.real, _ulps(base.imag, k)), root))
        raw, chordal_ratio = set(), set()
        for prev, root in steps:
            dp, dm = abs(root - prev), abs(root + prev)
            raw.add(min(dp, dm) <= fast * max(dp, dm))
            cp, cm = chordal(root, prev), chordal(-root, prev)
            chordal_ratio.add(min(cp, cm) / max(cp, cm) <= ambiguity)
        assert raw == chordal_ratio == {True, False}
        full = self._fast_and_full(monkeypatch, F, steps)
        # the fast path decides exactly the steps whose raw ratio clears the margin
        for prev, root in steps:
            dp, dm = abs(root - prev), abs(root + prev)
            assert ((prev, root) not in full) == (min(dp, dm) <= fast * max(dp, dm))

    @pytest.mark.parametrize("uv", STEP_MAPS)
    def test_steps_at_the_edges_of_the_fast_annulus(self, uv, monkeypatch):
        # |prev| or |root| exactly at 1e-3 or 1e3 takes the full step, one ulp
        # inside may take the fast path; each pairs with points inside, with
        # itself, and with its negative, where prev = -root
        F = from_critical_values(*uv)
        edges = [1e-3 + 0j, -1e-3j, -1e3 + 0j, 1e3j]
        inside = [complex(_ulps(1e-3, 1), 0.0), complex(0.0, _ulps(1e3, -1))]
        partners = [0.5 + 0.5j, -2e-3 + 1e-3j, 600 - 100j, *inside]
        steps = []
        for z in edges + inside:
            for w in partners:
                steps += [(z, w), (w, z), (-z, w), (w, -z)]
            steps += [(z, z), (-z, z), (z, -z)]
        for z in partners:
            steps.append((-z, z))
        full = self._fast_and_full(monkeypatch, F, steps)
        for prev, root in steps:
            if abs(prev) in (1e-3, 1e3) or abs(root) in (1e-3, 1e3):
                assert (prev, root) in full
        # prev = -root sits at raw distance 0 from -root: the fast path takes it
        assert not {(-z, z) for z in partners} & full


def reference_roots(F, ws):
    """``NormalizedQuadratic.roots`` as it was, forming ``a wd`` and ``b wd`` per point."""
    a, b, c, d = F.coeffs
    out = []
    for w in ws:
        if type(w) is not complex or not cmath.isfinite(w):
            w = as_point(w)
        wn, wd = (1.0 + 0.0j, 0.0j) if w is None else (w, 1.0 + 0.0j)
        num = d * wn - b * wd
        den = a * wd - c * wn
        root = None if den == 0 else cmath.sqrt(num / den)
        out.append(root if root is not None and cmath.isfinite(root) else None)
    return out


def _signed(z):
    """Both parts of ``z`` with their signs, so that -0.0 and 0.0 differ."""
    if z is None:
        return None
    return tuple((x, math.copysign(1.0, x)) for x in (z.real, z.imag))


class TestRoots:
    @pytest.mark.parametrize(
        "uv", STEP_MAPS + [(-3.0 + 0j, None), (None, -3.0 + 0j), (-0.5 + 0j, 3.0 + 0j)]
    )
    def test_roots_match_the_per_point_form_to_the_sign_of_zero(self, uv):
        # v = infinity gives c = 0j; a real critical value at infinity's
        # partner gives b = 3 - 0j, which b * (1 + 0j) turns into 3 + 0j, and
        # a real w then meets the branch cut with the sign of that zero
        F = from_critical_values(*uv)
        zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        ws = zeros + [
            complex(1.0, -0.0), complex(-0.0, 1.0), complex(-2.0, 0.0), complex(-2.0, -0.0),
            complex(3.0, 0.0), complex(0.5, -0.0), 0.0, -0.0, 0, 1, -2.5, None,
            complex(math.inf, 0.0), complex(math.nan, 1.0), 1e300 + 1e300j, 1e-300 - 0.0j,
        ]
        for c in (F.u, F.v):
            if c is not None:
                ws += [c, c.conjugate(), complex(c.real, -c.imag), -c]
        rng = random.Random(7)
        ws += [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(200)]
        got, want = F.roots(ws), reference_roots(F, ws)
        assert [_signed(z) for z in got] == [_signed(z) for z in want]
        # the comparison sees the sign of a zero part, and some root has one
        assert _signed(0j) != _signed(complex(-0.0, 0.0))
        assert any(z is not None and 0.0 in (z.real, z.imag) for z in want)


def _sample_bits(c):
    """Each sample's parameter and position to the bit, and the marked indices."""
    return [(t, _bits(z)) for t, z in zip(angles(c), c.points)], c.marks


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
        for c in lifted + pulled:
            half = c.den // 2  # 1/2 is a mark, so the denominator is even
            assert c.param(c.index(Angle(1, 2))) == Angle(1, 2)
            lap0 = [(t, z) for t, z in zip(c.params, c.points) if t < half]
            lap1 = [(t, z) for t, z in zip(c.params, c.points) if not t < half]
            assert len(lap0) == len(lap1)
            assert [t + half for t, _ in lap0] == [t for t, _ in lap1]
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
        s1 = pullback_schedule(c0.schedule)
        with pytest.raises(BranchTrackingError, match="fails to close") as info:
            pullback_curve(c0, F, s1)
        last = len(s1.marks) - 1
        assert (info.value.arc, info.value.iteration) == (last, None)
        assert str(info.value).endswith(f"at parameter 0 on arc {last}")

    @pytest.mark.parametrize(
        "arc,message",
        [
            # arc 1 starts at the black critical point 1/8, so its head must be 0
            (1, "lift misses the critical point at parameter 1/8 on arc 1"),
            # arc 2 starts at the postcritical mark 1/4, inside the chain of arc 1
            (2, "arc endpoints fail to meet at parameter 1/4 on arc 2"),
        ],
    )
    def test_moved_arc_head_fails_the_stitch(self, ex2_level1, arc, message):
        c0, F, c1 = ex2_level1
        s1 = c1.schedule
        lifts = engine._lift_laps(c0, F, s1)
        assert len(engine._arc_signs(c0, lifts, s1)) == 2 * len(lifts)
        (t, _), *rest = lifts[arc]
        lifts[arc] = [(t, 0.5 + 0.5j), *rest]
        with pytest.raises(BranchTrackingError) as info:
            engine._arc_signs(c0, lifts, s1)
        assert (str(info.value), info.value.arc) == (message, arc)

    def test_curve_stalling_at_a_critical_point(self):
        # every sample next to the red critical point sits within 1e-9 of it
        mark = Mark(A18, color=Side.RED)
        behind = [(0, 1e10), (1, -1e13), (2, None)]
        lift = [(2, None), (3, 1e12), (4, -1e11j)]
        with pytest.raises(BranchTrackingError) as info:
            engine._handedness_lead(mark, 3, None, behind, 1, lift)
        assert (str(info.value), info.value.arc) == (
            "curve stalls at a critical point at parameter 1/8 on arc 3", 3
        )
        # a sample 1e-8 clear on one side only is not enough
        clear_behind, clear_ahead = [(0, 2e8), *behind], [*lift, (5, 2e8j)]
        for args in ((clear_behind, -1, lift), (behind, 1, clear_ahead)):
            with pytest.raises(BranchTrackingError, match="stalls"):
                engine._handedness_lead(mark, 3, None, *args)
        assert engine._handedness_lead(mark, 3, None, clear_behind, 1, clear_ahead) in (1, -1)

    def test_handedness_degenerate_on_the_real_axis(self):
        # through 0 along the real axis the fork has no side: the triple
        # product of the two steps and the normal is exactly 0.0
        mark = Mark(A18, color=Side.BLACK)
        behind = [(0, 0.5), (1, 0.0)]
        lift = [(1, 0.0), (2, -0.25)]
        for sign in (1, -1):
            with pytest.raises(BranchTrackingError) as info:
                engine._handedness_lead(mark, 1, 0.0 + 0.0j, behind, sign, lift)
            assert (str(info.value), info.value.arc) == (
                "handedness test degenerate at parameter 1/8 on arc 1", 1
            )
        # off the axis the same fork has a side, and the sign of the arc
        # behind turns it
        off = [(1, 0.0), (2, -0.25j)]
        leads = {engine._handedness_lead(mark, 1, 0.0 + 0.0j, behind, s, off) for s in (1, -1)}
        assert leads == {1, -1}


class TestPrune:
    def test_budget_respected_and_marks_kept(self, ex2_level1):
        _, _, c1 = ex2_level1
        out = prune(c1, 300, 1e-6)
        assert len(out.params) <= max(300, len(c1.params))
        assert len(out.params) < len(c1.params)
        kept_marks = [out.param(i) for i in out.marks]
        assert kept_marks == [m.parameter for m in c1.schedule.marks]

    def test_output_is_a_subsequence(self, ex2_level1):
        _, _, c1 = ex2_level1
        out = prune(c1, 300, 1e-6)
        it = iter(zip(angles(c1), c1.points))
        for t, p in zip(angles(out), out.points):
            for orig_t, orig_p in it:
                if orig_t == t and orig_p is p:
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
        deviation, seen = pruning._deviation, []

        def recording(prev, cur, nxt):
            seen.append(cur)
            return deviation(prev, cur, nxt)

        c = synthetic_curve(positions, {})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pruning, "_deviation", recording)
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
        (gone,) = set(angles(c)) - set(angles(first))
        assert c.index(gone) == 9

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
        assert pruning._sweep_clearance(pts[0], pts[18], pts[19], pts[20]) <= 1e-6
        assert reference_deviation(pts[18], pts[19], pts[20]) < reference_deviation(
            pts[19], pts[20], pts[21]
        )
        for budget in _budgets(c):
            assert_prunes_like_the_reference(c, budget, 1e-6)
        one = assert_prunes_like_the_reference(c, 39, 1e-6)
        assert c.param(20) not in angles(one) and c.param(19) in angles(one)
        out = assert_prunes_like_the_reference(c, 3, 1e-6)
        assert len(out.params) == 38

    def test_a_guard_far_away_in_index_blocks_a_sample(self):
        # the curve winds once round 0 and comes back past the guard G
        # (sample 0) half a loop later: B (32) bends the curve least of the
        # samples outside the mark windows, but sweeps across G, so the first
        # sample to go is another
        n, g, h = 64, 0.5 + 0j, 1e-4
        positions = [0.5 * cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
        positions[31:34] = [g + h * (-1 + 1j), g - h * 1j, g + h * (1 + 1j)]
        c = synthetic_curve(positions, {0: 1, 16: None, 48: None})
        pts = [stereographic(z) for z in positions]
        assert pruning._sweep_clearance(pts[0], pts[31], pts[32], pts[33]) <= 1e-6
        bends = {k: reference_deviation(pts[k - 1], pts[k], pts[k + 1]) for k in range(25, 40)}
        assert min(bends, key=bends.get) == 32
        for budget in _budgets(c):
            assert_prunes_like_the_reference(c, budget, 1e-6)
        one = assert_prunes_like_the_reference(c, n - 1, 1e-6)
        assert c.param(32) in angles(one)

    def test_overlapping_windows_across_index_zero(self):
        # marks at 1 and 45 (their windows overlap across index 0) and at 10
        # and 20 (overlapping); with the budget at the marked count exactly
        # the samples outside every window go
        n = 64
        positions = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
        marks = {1: 1, 10: None, 20: 2, 45: None}
        c = synthetic_curve(positions, marks)
        w = pruning._MARK_WINDOW
        protected = {(i + off) % n for i in marks for off in range(-w, w + 1)}
        for budget in _budgets(c):
            assert_prunes_like_the_reference(c, budget, 1e-6)
        out = assert_prunes_like_the_reference(c, len(marks), 1e-6)
        assert [c.index(t) for t in angles(out)] == sorted(protected)


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
        kept = {c.index(t) for t in angles(out)}
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
        assert pruning._sweep_clearance(pts[0], pts[58], pts[59], pts[60]) <= 1e-6
        assert reference_deviation(pts[18], pts[19], pts[20]) < reference_deviation(
            pts[19], pts[20], pts[21]
        )
        out = prune(c, 78, 1e-6)
        assert out == reference_folded_prune(c, 78, 1e-6)
        assert set(angles(c)) - set(angles(out)) == {c.param(20), c.param(60)}

    def test_guards_sharing_an_x_with_a_sample_block_it(self):
        # the guard G (sample 0) and its mirror -G each share their sphere x
        # with a lap-0 sample: B (19) at conj(G) and B' (26) at -conj(G).  B
        # sweeps across G and B' across -G (so the twin of B' across G): both
        # stay while two pairs go, and without the guard both go among them
        g, h = 0.5 + 2e-5j, 3e-4
        lap0 = [0.7 * cmath.exp(2j * cmath.pi * k / 40) for k in range(40)]
        lap0[0] = g
        lap0[18:21] = [g + h * (-1 + 1j), g.conjugate(), g + h * (1 + 1j)]
        lap0[25:28] = [-g + h * (1 - 1j), -g.conjugate(), -g + h * (-1 - 1j)]
        c, bare = symmetric_curve(lap0, {0: 1}), symmetric_curve(lap0, {})
        pts = [stereographic(z) for z in c.points]
        guard, mirror = pts[0], (-pts[0][0], -pts[0][1], pts[0][2])
        assert pts[19][0] == guard[0] and pts[26][0] == mirror[0]
        assert pruning._sweep_clearance(guard, pts[18], pts[19], pts[20]) <= 1e-6
        assert pruning._sweep_clearance(mirror, pts[25], pts[26], pts[27]) <= 1e-6
        for budget in (78, 76, 60, 40, len(c.marks)):
            assert prune(c, budget, 1e-6) == reference_folded_prune(c, budget, 1e-6)

        def kept(curve):
            return {curve.index(t) for t in angles(prune(curve, 76, 1e-6))}

        assert {19, 26} <= kept(c) and not {19, 26} & kept(bare)

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
        assert [c.param(i) for i in c.marks] == [m.parameter for m in c.schedule.marks]
        n = len(c.params)
        for k, s in enumerate(angles(c)):
            assert c.index(s) == k
            assert c.point_at(s) is c.points[k]
            # (2k + 1)/2n lies between samples k and k + 1
            with pytest.raises(KeyError):
                c.index(reduce(2 * k + 1, 2 * n))
        if t in angles(c):
            assert c.param(c.index(t)) == t
        else:
            with pytest.raises(KeyError):
                c.index(t)


    def test_index_refuses_an_angle_off_the_curve(self):
        # parameters 0, 1/4, 1/2 and 3/4 over the denominator 4: 3/8 and 5/8
        # floor onto numerators 1 and 2, and 1/3 onto 1
        c = synthetic_curve([1 + 0j, 1j, -1 + 0j, -1j], {0: 1})
        assert (c.params, c.den) == ((0, 1, 2, 3), 4)
        for t in (Angle(3, 8), Angle(5, 8), Angle(1, 3)):
            with pytest.raises(KeyError):
                c.index(t)
        assert [c.index(c.param(k)) for k in range(4)] == [0, 1, 2, 3]

    def test_census_curves_are_in_lowest_terms(self):
        # the pairs of the bench's census workload (every 138th gate-accepted
        # pair of its table, and the (1/4, 1/4) control) at its cap of 20
        with GATE_VERDICTS.open() as fh:
            rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
        accepted = [(a, b) for a, b, verdict in rows if verdict == "accepted"]
        hooked = []
        for alpha, beta in accepted[::138] + [("1/4", "1/4")]:
            iterate(Angle.parse(alpha), Angle.parse(beta), IterateOptions(max_iters=20),
                    curve_hook=hooked.append)
        assert len(hooked) > 60
        for c in hooked:
            assert math.gcd(c.den, *c.params) == 1
            assert c.params[0] == 0
            assert all(a < b for a, b in zip(c.params, c.params[1:]))


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
            assert [c.param(i) for i in c.marks] == [m.parameter for m in s0.marks]
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
        finish = engine.finish

        def recorded(curve, *args):
            levels.append(curve.schedule.level)
            return finish(curve, *args)

        monkeypatch.setattr(engine, "finish", recorded)
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
            assert verdict(reason) == want, (alpha, beta, reason)

    @staticmethod
    def cold_reasons(pairs):
        """Gate reasons of ``pairs`` in order, from an empty co-landing class map."""
        lamination._class_map.cache_clear()
        combinatorics._ray_system.cache_clear()
        return {(a, b): structural_gates(Angle.parse(a), Angle.parse(b)) for a, b in pairs}

    def test_reasons_do_not_depend_on_gate_order(self):
        # the class map is shared by every pair gated with one angle, so a
        # class must come out the same whichever pair first reaches it
        with GATE_VERDICTS.open() as fh:
            rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
        pairs = [(alpha, beta) for alpha, beta, _ in rows]
        shuffled = pairs[:]
        random.Random(19).shuffle(shuffled)
        reasons = self.cold_reasons(pairs)
        assert self.cold_reasons(shuffled) == reasons
        # and every pair keeps the verdict of the committed table
        for alpha, beta, want in rows:
            assert verdict(reasons[alpha, beta]) == want, (alpha, beta)

    def test_reasons_even_denominators_to_64(self):
        # periods up to 28; every 97th pair of the 94830, so the enumeration
        # below must reproduce the committed pairs
        candidates = {reduce(p, q) for q in range(2, 65, 2) for p in range(1, q)}
        angles = sorted(a for a in candidates if a.is_preperiodic())
        pairs = [(str(a), str(b)) for i, a in enumerate(angles) for b in angles[i:]]
        assert (len(angles), len(pairs)) == (435, 94830)
        with GATE_REASONS_64.open() as fh:
            rows = [line.rstrip("\n").split(" ", 2) for line in fh if not line.startswith("#")]
        assert [(a, b) for a, b, _ in rows] == pairs[::97]
        for alpha, beta, want in rows:
            reason = structural_gates(Angle.parse(alpha), Angle.parse(beta))
            assert (reason or "accepted") == want, (alpha, beta)

    def test_verdicts_survive_colour_swap_and_mirror(self):
        # swapping the colours conjugates the mating by 1/z, and mirroring both
        # angles by complex conjugation; the first pinching class named may
        # differ, so only the verdict class is compared
        with GATE_REASONS_64.open() as fh:
            rows = [line.split()[:2] for line in fh if not line.startswith("#")]
        for row in rows:
            alpha, beta = map(Angle.parse, row)
            want = verdict(structural_gates(alpha, beta))
            assert verdict(structural_gates(beta, alpha)) == want, (alpha, beta)
            assert verdict(structural_gates(alpha.mirror(), beta.mirror())) == want, (alpha, beta)

    @pytest.mark.parametrize(
        "alpha,beta",
        [("1/4", "1/1022"), ("5/18", "1/22"), ("1/4", "1/16382")],
    )
    def test_deep_pairs_fail_subdivision(self, alpha, beta):
        # landing periods 9, 10 and 13: a scan over all 2^period candidates
        # took 23 s on the last
        reason = structural_gates(Angle.parse(alpha), Angle.parse(beta))
        assert reason is not None and reason.startswith("subdivision failure")
