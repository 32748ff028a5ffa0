"""Discrete pseudo-equator curves and the pullback iteration.

The curve at level n is a closed polyline on the sphere sampled at exact
rational parameters.  One iteration reads the embedded critical values (u, v),
builds the normalized quadratic F, and lifts the curve through F: parameter
tau on the child maps to parameter 2 tau on the parent, so the child traverses
two lifted copies of the parent loop.  Each arc between marked samples has
exactly two lifts, pointwise negatives of each other; arcs are lifted
independently and stitched by endpoint continuity.  Where the curve passes a
critical point both continuations agree at the junction, so the sign of each
critical-to-critical chain is chosen to keep the marked points close to their
previous embedding (the pseudo-isotopy rel the marked set that defines the
pseudo-equator); the local handedness rule is the fallback when that score is
ambiguous.

The pullback contracts only linearly.  Once it is visibly contracting, the
iteration tries a Newton finish: Newton's method on the critical-orbit
relations F(p_t) = p_{2t} of the embedded postcritical points polishes (u, v)
to roundoff, and one confirming pullback through the polished map, which must
leave every postcritical point in place, certifies that the solution is the
fixed point of the curve's isotopy class.  A refused finish leaves the
pullback to continue unchanged.
"""

from __future__ import annotations

import cmath
import heapq
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, replace
from itertools import compress

from .angles import Angle, midpoint, reduce
from .combinatorics import (
    MarkKind,
    Schedule,
    Side,
    base_schedule,
    fsr_valid,
    jordan_defect,
    postcritical_count,
    pullback_schedule,
)
from .errors import BranchTrackingError, NumericError, StructuralError
from .lamination import mateable_detail
from .ratmap import (
    NormalizedQuadratic,
    SpherePoint,
    chordal,
    from_critical_values,
    from_sphere,
    stereographic,
)

ZERO = Angle(0, 1)
HALF = Angle(1, 2)

# how distinguishable the two branch candidates must be before a step is
# accepted without refinement
_AMBIGUITY_RATIO = 0.8
_MAX_REFINE = 48
_DENSIFY_STEPS = 8  # samples _densify adds toward each critical passage
_STITCH_TOL = 1e-6
_CRITICAL_COLLISION_TOL = 1e-13
_MARK_WINDOW = 8  # samples on each side of a mark that prune leaves alone
# a prune is refused when it sweeps this close to a postcritical point
_PRUNE_TOL = 1e-6

# two distinct postcritical points this close mean the embedding has left
# moduli space (the classic divergence mode of parabolic orbifolds)
_COLLAPSE_TOL = 1e-8

# a chain's sign is accepted on marked-point continuity alone when the better
# candidate moves every marked point at most this far and beats the other
# candidate by the ratio; otherwise the local handedness read decides
_ISOTOPY_DECISIVE = 1.0
_ISOTOPY_RATIO = 0.5

# The Newton finish (see iterate and the newton module) is tried once the
# increment has fallen in _FINISH_FALLS successive pullbacks, or has not
# improved its running minimum for _FINISH_STALE successive records.  Both
# were chosen on (1/4, 1/8) and on the 50 gate-accepted pairs of
# tests/test_census.py, run for 40 iterations at 32 samples per arc.  Runs of
# up to six falls were still followed by a rise ((1/4, 1/8) at iterations 11
# and 16, (1/24, 17/24), (5/28, 11/28), (1/4, 5/16)).  Seven falls also make
# the tail of the records fall into the finish whenever the polished step is
# below the last pullback step (so on (1/4, 1/8): 0.062 after 0.076).
# The pullback need not shrink the step at every iteration (Buff, Epstein,
# Koch and Pilgrim, "On Thurston's pullback map", 2009), and a run that
# circles its fixed point never falls seven times: (1/32, 1/32) jumps after
# pullback 4 and runs to the cap, and (1/4, 11/16) collides at iteration 9,
# yet Newton's method certifies a map from their curves of levels 7 and 5.
# The stall rule finishes them there, and takes the census from 20 to 40
# converging pairs.  3 is the smallest stall that never fires on (1/4, 1/8),
# whose stall peaks at 2 (pullbacks 12 and 16): 2 would finish it at record
# 14, before its steps fall monotonically, while 4 converges only 32 pairs.
# A refused try is retried at the next stalled record.
_FINISH_FALLS = 7
_FINISH_STALE = 3


@dataclass(frozen=True, slots=True)
class DiscreteCurve:
    """Closed polyline on the sphere; samples ascend by parameter from 0.

    Sample k sits at parameter ``params[k]`` and position ``points[k]``.
    ``marks[j]`` is the index of the sample that carries
    ``schedule.marks[j]``, so the marked indices ascend with the schedule's
    marks, and the curve's level is ``schedule.level``.
    """

    params: tuple[Angle, ...]
    points: tuple[SpherePoint, ...]
    marks: tuple[int, ...]
    schedule: Schedule

    def index(self, t: Angle) -> int:
        """The position of the sample at parameter ``t``, by bisection."""
        params = self.params
        k = bisect_left(params, t)
        if k < len(params) and params[k] == t:
            return k
        raise KeyError(t)

    def point_at(self, t: Angle) -> SpherePoint:
        return self.points[self.index(t)]


@dataclass(frozen=True)
class IterationRecord:
    """One step of a run: the map parameters (u, v) it produced.

    ``phase`` names the step: ``"pullback"`` for the level-0 curve and every
    plain lift, ``"newton"`` for the map polished by the Newton finish (its
    curve is the previous one with the postcritical samples moved onto the
    polished positions, so both sample counts are that curve's size), and
    ``"confirm"`` for the pullback through the polished map that certified it.
    In every phase ``increment`` is the chordal step of (u, v) from the
    previous record.
    """

    n: int
    u: SpherePoint
    v: SpherePoint
    samples_before: int
    samples_after: int
    increment: float | None  # chordal step from the previous (u, v); None at n=0
    phase: str = "pullback"


@dataclass
class RunReport:
    alpha: Angle
    beta: Angle
    status: str  # converged | max-iterations | diverged | structural-error
    records: list[IterationRecord] = field(default_factory=list)
    message: str = ""
    warnings: list[str] = field(default_factory=list)
    options: dict = field(default_factory=dict)
    final_curve: DiscreteCurve | None = None


@dataclass(frozen=True)
class IterateOptions:
    """The knobs of :func:`iterate`; ``quadmate mate`` takes its defaults here.

    ``max_iters`` caps the records after the level-0 one.  ``tol`` is the
    chordal step of (u, v) below which the run ends ``converged``.
    ``samples_per_arc`` is the number of samples the level-0 curve places
    between consecutive marks.  ``budget`` is the sample count each lifted
    curve is pruned down to (the windows around its marks are kept even past
    it); it must cover the lifted curve's marks, two for each level-0 mark.
    A lifted curve whose second lap is its first negated is pruned to an
    even count, ``budget - 1`` for an odd budget (see :func:`prune`).

    The sampling reaches (u, v) only through branch choices, so its defaults
    are set by the 50-pair convergence census in ``tests/test_census.py``:
    32/2048 converges on every pair that 64/4096 does, to the same (u, v),
    in about half the time, and 16/1024 loses three of them.
    """

    max_iters: int = 200
    tol: float = 1e-9
    samples_per_arc: int = 32
    budget: int = 2048


def _unit_circle(t: Angle) -> complex:
    x = 2.0 * math.pi * float(t)
    return complex(math.cos(x), math.sin(x))


def init_embedding(s: Schedule, samples_per_arc: int) -> DiscreteCurve:
    """The level-0 curve: the unit circle, parameter t at e^{2 pi i t}."""
    if s.level != 0:
        raise ValueError("initial embedding requires a level-0 schedule")
    # the marks ascend from 0, so the arcs between them, the last one
    # closing at 1, are laid down in ascending order.  Sample j of the arc
    # from a/b to c/d sits at (a d (S - j) + c b j) / (b d S)
    params: list[Angle] = []
    points: list[SpherePoint] = []
    marks: list[int] = []
    S = samples_per_arc + 1
    for k, m in enumerate(s.marks):
        a, b = m.parameter.num, m.parameter.den
        nxt = s.marks[(k + 1) % len(s.marks)].parameter
        c, d = nxt.num, nxt.den
        if k + 1 == len(s.marks):
            c += d
        marks.append(len(params))
        params.append(m.parameter)
        points.append(1.0 + 0.0j if m.parameter == ZERO else _unit_circle(m.parameter))
        for j in range(1, S):
            t = reduce(a * d * (S - j) + c * b * j, b * d * S)
            params.append(t)
            points.append(_unit_circle(t))
    return DiscreteCurve(tuple(params), tuple(points), tuple(marks), s)


def read_critical_values(c: DiscreteCurve) -> tuple[SpherePoint, SpherePoint]:
    """The embedded critical values: positions at the two value parameters."""
    u = c.point_at(c.schedule.black_value)
    v = c.point_at(c.schedule.red_value)
    if chordal(u, v) < _CRITICAL_COLLISION_TOL:
        raise StructuralError(
            "critical value collision",
            f"u and v coincide at {u!r} on the level-{c.schedule.level} curve",
        )
    return u, v


# ---------------------------------------------------------------------------
# lifting


def _neg(z: SpherePoint) -> SpherePoint:
    return None if z is None else -z


def _slerp_mid(a: SpherePoint, b: SpherePoint) -> tuple[bool, SpherePoint]:
    """Spherical midpoint; the flag is False for antipodal (meaningless) input.

    A True flag with a None point is a genuine midpoint at infinity.
    """
    pa, pb = stereographic(a), stereographic(b)
    s = tuple(x + y for x, y in zip(pa, pb))
    # written out: sum() over floats rounds differently from Python 3.12 on
    n = math.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2])
    if n < 1e-12:
        return False, None
    return True, from_sphere(tuple(x / n for x in s))


def _lift_arc(
    F: NormalizedQuadratic, entries: list[tuple[Angle, SpherePoint]]
) -> list[tuple[Angle, SpherePoint]]:
    """One continuous lift of an arc, anchored at the principal root.

    Refinement inserts spherical midpoints of the parent polyline whenever the
    two branch candidates are close to equidistant from the previous lifted
    point; inserted samples stay in the output.
    """
    t0, z0 = entries[0]
    out = [(t0, F.preimages(z0)[0])]
    for t1, z1 in entries[1:]:
        _lift_step(F, out, out[-1][0], out[-1][1], t1, z1, _MAX_REFINE)
    return out


def _winding_choice(prev, plus, minus) -> SpherePoint:
    """Branch continuation by the phase of the squared step.

    When the lift skims a branch point the two candidates are almost
    equidistant from the previous sample forever, but the square of the lift
    is branch-free, and after exhausted refinement the step is so short that
    the continuous square root is ``prev * sqrt(z1^2 / prev^2)``.  Returns
    None when a point is at 0 or infinity or the ratio is not finite.
    """
    if prev is None or plus is None or minus is None:
        return None
    z0_sq, z1_sq = prev * prev, plus * plus
    if z0_sq == 0 or z1_sq == 0 or not (cmath.isfinite(z0_sq) and cmath.isfinite(z1_sq)):
        return None
    r = z1_sq / z0_sq
    if r == 0 or not cmath.isfinite(r):
        return None
    w = prev * cmath.sqrt(r)
    return plus if abs(plus - w) <= abs(minus - w) else minus


def _lift_step(F, out, t0, prev, t1, z1, depth) -> SpherePoint:
    """Append the lift of the parent step to ``(t1, z1)`` that continues ``prev``.

    ``F.preimages`` returns ``(root, -root)``, exact negatives, so
    1 + |minus|^2 is 1 + |plus|^2 to the bit and the chordal distances of
    both candidates to ``prev`` share one denominator.  The distances are
    formed once, as the same quotients in the same order that ``chordal``
    forms, so they are bit-identical to it; a point at infinity, or a
    difference, square or product that overflows, goes through ``chordal``
    itself.
    """
    plus, minus = F.preimages(z1)
    if plus is not None and prev is not None:
        split, r = abs(plus - minus), abs(prev)
        dp, dm = abs(plus - prev), abs(minus - prev)
        pp = 1.0 + plus.real * plus.real + plus.imag * plus.imag
        qq = 1.0 + prev.real * prev.real + prev.imag * prev.imag
        p2, pq = pp * pp, pp * qq
    if plus is None or prev is None or not split + dp + dm + r * r + p2 + pq < math.inf:
        split = chordal(plus, minus)
        at_zero, at_inf = chordal(prev, 0.0 + 0.0j), chordal(prev, None)
        dp, dm = chordal(plus, prev), chordal(minus, prev)
    else:
        den = pq ** 0.5
        split = 2.0 * split / p2 ** 0.5
        at_zero, at_inf = 2.0 * r / qq ** 0.5, 2.0 / (1.0 + r**2) ** 0.5
        dp, dm = 2.0 * dp / den, 2.0 * dm / den
    if split < 1e-12:
        # critical-value passage: the two branches meet, no choice to make
        out.append((t1, plus))
        return plus
    if at_zero < 1e-9 or at_inf < 1e-9:
        # leaving a critical point: both continuations are equidistant, and
        # the stitcher's sign choice overrides whichever we take
        out.append((t1, plus))
        return plus
    near, far = min(dp, dm), max(dp, dm)
    if far > 0 and near / far <= _AMBIGUITY_RATIO:
        chosen = plus if dp <= dm else minus
        out.append((t1, chosen))
        return chosen
    if depth == 0:
        # refinement exhausted: a skim past a branch point keeps the ratio
        # ambiguous at every scale, but the winding rule still resolves it;
        # the step is tiny by now, so its phase is trusted outright
        chosen = _winding_choice(prev, plus, minus)
        if chosen is None:
            raise BranchTrackingError(t1)
        out.append((t1, chosen))
        return chosen
    # reconstruct the parent position at t0 to bisect against
    z0 = F.eval(prev)
    ok, zm = _slerp_mid(z0, z1)
    if not ok:
        raise BranchTrackingError(t1)
    tm = midpoint(t0, t1)
    mid = _lift_step(F, out, t0, prev, tm, zm, depth - 1)
    return _lift_step(F, out, tm, mid, t1, z1, depth - 1)


def _densify(
    far: tuple[Angle, SpherePoint], near: tuple[Angle, SpherePoint]
) -> list[tuple[Angle, SpherePoint]]:
    """Samples accumulating geometrically from ``far`` toward ``near``."""
    out: list[tuple[Angle, SpherePoint]] = []
    t1, z1 = near
    cur = far
    for _ in range(_DENSIFY_STEPS):
        ok, zm = _slerp_mid(cur[1], z1)
        if not ok:
            break
        cur = (midpoint(cur[0], t1), zm)
        out.append(cur)
    return out


def _triple(d, w, n) -> float:
    cx = d[1] * w[2] - d[2] * w[1]
    cy = d[2] * w[0] - d[0] * w[2]
    cz = d[0] * w[1] - d[1] * w[0]
    return cx * n[0] + cy * n[1] + cz * n[2]


def _vec(a, b) -> tuple[float, float, float]:
    return (b[0] - a[0], b[1] - a[1], b[2] - a[2])


def pullback_curve(
    c: DiscreteCurve,
    F: NormalizedQuadratic,
    s_next: Schedule,
) -> DiscreteCurve:
    """Lift the level-n curve through F onto the level n+1 schedule.

    The child traverses the parent loop twice (parameter doubling).  Arcs
    between marked samples are lifted independently, then stitched: ordinary
    boundaries fix signs by endpoint matching, while each chain between
    critical passages takes the global sign that keeps its marked points next
    to their embedding on the parent curve.  When that comparison is
    ambiguous the handedness rule decides locally (fork right at the black
    critical point, left at the red, oriented by the outward normal).

    Each parent arc is lifted once.  Lap 1 passes the same positions as
    lap 0 at parameters moved by 1/2, both halves of a critical value are
    critical-point marks, and a lift reads parameters only through
    :func:`midpoint`, which commutes with that rotation; so the lift of each
    lap-1 arc is the lift of its lap-0 twin with every parameter moved by
    1/2 (:meth:`Angle.opposite`), its head and tail at the child marks.

    Parameters stay exact angles: a parent sample at ``a`` reappears at
    ``a.half(0)`` and ``a.half(1)``, and refinement inserts arc midpoints.
    The parent's parameters ascend from 0, so the child traversal ascends
    too (lap 0 fills [0, 1/2), lap 1 fills [1/2, 1)), and every midpoint lies
    strictly between its neighbours.  Hence the child marks sit at the
    parent's marked samples on each lap, the arc heads are the only marked
    samples, and the stitched arcs concatenate in ascending order.
    """
    # lap 0 of the child traversal: the parent loop with its parameters
    # halved, closed at 1/2, where lap 1 begins at the anchor's position
    params = [t.half(0) for t in c.params] + [HALF]
    positions = [*c.points, c.points[0]]

    # the child marks are the halves of the parent's marks in order, lap 0
    # then lap 1, so they sit at the parent's marked indices on each lap
    marked = list(c.marks)
    arc_marks = s_next.marks
    m = len(marked)
    if 2 * m != len(arc_marks):
        raise AssertionError("child schedule does not halve the parent's marks")
    if params[marked[0]] != ZERO:
        raise AssertionError("child traversal lost its anchor mark")
    boundaries = marked + [len(c.params)]
    lifts: list[list[tuple[Angle, SpherePoint]]] = []
    for k in range(m):
        start, end = boundaries[k], boundaries[k + 1]
        entries = list(zip(params[start : end + 1], positions[start : end + 1]))
        head, tail = arc_marks[k], arc_marks[k + 1]
        # densify toward critical passages so fork directions are read close
        # to the critical point, where the two lifts separate at right angles
        if tail.kind is MarkKind.CRITICAL_POINT:
            entries = entries[:-1] + _densify(entries[-2], entries[-1]) + [entries[-1]]
        if head.kind is MarkKind.CRITICAL_POINT:
            mids = _densify(entries[1], entries[0])
            mids.reverse()
            entries = [entries[0]] + mids + entries[1:]
        try:
            lifts.append(_lift_arc(F, entries))
        except BranchTrackingError as exc:
            exc.arc = k
            raise
    # each lap-1 arc passes its lap-0 twin's positions (see above), so the
    # stitching reads arc k + m through the twin's lift
    arcs = lifts + lifts

    crit_pos = {Side.BLACK: 0.0 + 0.0j, Side.RED: None}
    base_params = {t for t, _ in s_next.base_points}

    # chains: a new one starts at the anchor and at every critical passage,
    # where endpoint matching cannot tell the two continuations apart
    chain_starts = [
        k for k, m in enumerate(arc_marks)
        if k == 0 or m.kind is MarkKind.CRITICAL_POINT
    ]
    chain_stops = chain_starts[1:] + [len(arcs)]

    # within a chain, continuity pins every sign relative to the leading arc
    rel: list[int] = [1] * len(arcs)
    for start, stop in zip(chain_starts, chain_stops):
        mark = arc_marks[start]
        if mark.kind is MarkKind.CRITICAL_POINT and chordal(
            arcs[start][0][1], crit_pos[mark.color]
        ) > _STITCH_TOL:
            raise BranchTrackingError(mark.parameter, "lift misses the critical point", arc=start)
        for k in range(start + 1, stop):
            prev_end = arcs[k - 1][-1][1]
            if rel[k - 1] == -1:
                prev_end = _neg(prev_end)
            dp = chordal(arcs[k][0][1], prev_end)
            dm = chordal(_neg(arcs[k][0][1]), prev_end)
            if min(dp, dm) > _STITCH_TOL:
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
                pos = arcs[k][0][1] if lead * rel[k] == 1 else _neg(arcs[k][0][1])
                score = max(score, chordal(pos, c.point_at(t)))
                seen = True
        if chain_stops[ci] == len(arcs):
            tail = arcs[-1][-1][1] if lead * rel[-1] == 1 else _neg(arcs[-1][-1][1])
            score = max(score, chordal(tail, 1.0 + 0.0j))
            seen = True
        return score if seen else math.inf

    signs: list[int] = [0] * len(arcs)
    for ci, (start, stop) in enumerate(zip(chain_starts, chain_stops)):
        sp, sm = chain_score(ci, 1), chain_score(ci, -1)
        if min(sp, sm) <= _ISOTOPY_DECISIVE and min(sp, sm) <= _ISOTOPY_RATIO * max(sp, sm):
            lead = 1 if sp <= sm else -1
        elif ci == 0:
            lead = 1 if chordal(arcs[0][0][1], 1.0 + 0.0j) <= chordal(
                _neg(arcs[0][0][1]), 1.0 + 0.0j
            ) else -1
        else:
            mark = arc_marks[start]
            cp = crit_pos[mark.color]
            n_hat = stereographic(cp)
            back = next(
                (p if signs[start - 1] == 1 else _neg(p)
                 for _, p in reversed(arcs[start - 1])
                 if chordal(p, cp) > 1e-9),
                None,
            )
            ahead = next((p for _, p in arcs[start][1:] if chordal(p, cp) > 1e-9), None)
            if back is None or ahead is None:
                raise BranchTrackingError(
                    mark.parameter, "curve stalls at a critical point", arc=start
                )
            d = _vec(stereographic(back), n_hat)
            w = _vec(n_hat, stereographic(ahead))
            trip = _triple(d, w, n_hat)
            want_negative = mark.color is Side.BLACK  # fork right at 0, left at infinity
            if trip == 0.0:
                raise BranchTrackingError(mark.parameter, "handedness test degenerate", arc=start)
            lead = 1 if (trip < 0) == want_negative else -1
        for k in range(start, stop):
            signs[k] = lead * rel[k]

    closing = arcs[-1][-1][1] if signs[-1] == 1 else _neg(arcs[-1][-1][1])
    if chordal(closing, 1.0 + 0.0j) > _STITCH_TOL:
        raise BranchTrackingError(
            ZERO, "lifted curve fails to close at the anchor", arc=len(arcs) - 1
        )

    # an arc's last entry is shared with the next arc's head.  A lap-1 arc
    # takes its twin's parameters moved by 1/2, between the child marks, and
    # shares its twin's positions, each arc negated by its own sign
    lap0 = [tuple(zip(*lift[:-1])) for lift in lifts]
    lap1 = [
        (arc_marks[k + m].parameter, *[t.opposite() for t in ts[1:]])
        for k, (ts, _) in enumerate(lap0)
    ]
    out_params: list[Angle] = []
    out_points: list[SpherePoint] = []
    out_marks: list[int] = []
    for k, sign in enumerate(signs):
        ts, ps = lap0[k] if k < m else (lap1[k - m], lap0[k - m][1])
        out_marks.append(len(out_params))
        out_params += ts
        out_points += ps if sign == 1 else [None if p is None else -p for p in ps]
    return DiscreteCurve(tuple(out_params), tuple(out_points), tuple(out_marks), s_next)


def relabel(c_next: DiscreteCurve) -> dict[int, SpherePoint]:
    """The embedding of the postcritical set read off the lifted curve."""
    return {pid: c_next.point_at(t) for t, pid in c_next.schedule.base_points}


# ---------------------------------------------------------------------------
# pruning


def _closest_on_triangle(p, a, b, c) -> tuple[float, float, float]:
    # closest-point-on-triangle (Ericson); all args are R^3 tuples
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1], x[2] - y[2])

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

    ab, ac, ap = sub(b, a), sub(c, a), sub(p, a)
    d1, d2 = dot(ab, ap), dot(ac, ap)
    if d1 <= 0 and d2 <= 0:
        return a
    bp = sub(p, b)
    d3, d4 = dot(ab, bp), dot(ac, bp)
    if d3 >= 0 and d4 <= d3:
        return b
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        if d1 == d3:  # a and b coincide to roundoff
            return a
        t = d1 / (d1 - d3)
        return tuple(a[i] + t * ab[i] for i in range(3))
    cp = sub(p, c)
    d5, d6 = dot(ab, cp), dot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return c
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        if d2 == d6:  # a and c coincide to roundoff
            return a
        t = d2 / (d2 - d6)
        return tuple(a[i] + t * ac[i] for i in range(3))
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        edge = (d4 - d3) + (d5 - d6)
        if edge == 0:  # b and c coincide to roundoff
            return b
        t = (d4 - d3) / edge
        return tuple(b[i] + t * (c[i] - b[i]) for i in range(3))
    total = va + vb + vc
    if total == 0:  # degenerate sliver; every vertex is as close as any
        return a
    denom = 1.0 / total
    s, t = vb * denom, vc * denom
    return tuple(a[i] + ab[i] * s + ac[i] * t for i in range(3))


def _sweep_clearance(g, a, b, c) -> float:
    """Clearance between a guarded sphere point and the swept triangle.

    The polyline lives on the sphere, so the region swept by replacing sample
    ``b`` with the segment a-c is the radial projection of the flat triangle;
    measuring against the projection keeps the test honest for long chords,
    whose flat triangles sag well inside the sphere.
    """
    q = _closest_on_triangle(g, a, b, c)
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2])
    if n < 0.5:
        return 0.0  # chord passes near the center: projection subtends a huge arc
    return math.dist(g, tuple(x / n for x in q))


def _deviation(prev, cur, nxt) -> float:
    """How far sample ``cur`` sticks out from the chord of its neighbors.

    The distance in R^3 from ``cur`` to the segment ``prev``-``nxt``, taken
    as ``math.hypot`` of the differences to the clamped chord point: bit for
    bit what ``math.dist`` gives, without building two tuples.
    """
    px, py, pz = prev
    cx, cy, cz = cur
    ex, ey, ez = nxt[0] - px, nxt[1] - py, nxt[2] - pz
    den = ex * ex + ey * ey + ez * ez
    if den == 0:
        return math.hypot(cx - px, cy - py, cz - pz)
    t = ((cx - px) * ex + (cy - py) * ey + (cz - pz) * ez) / den
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    return math.hypot(cx - (px + t * ex), cy - (py + t * ey), cz - (pz + t * ez))


def prune(c: DiscreteCurve, budget: int, tol: float) -> DiscreteCurve:
    """Drop plumbing samples while the polyline stays clear of the marked set.

    Samples are removed greedily by smallest deviation, the distance in R^3
    from a sample's sphere point to the chord between its neighbors' (ties
    go to the lower index); a removal is refused when the swept triangle
    comes within ``tol`` of an embedded postcritical position, so the
    homotopy type rel those points is preserved, and a refused sample is
    retried once a neighbor is removed.  Marked samples are never removed,
    and neither is a window of ``_MARK_WINDOW`` samples on each side of
    every mark: the next pullback reads fork directions from the samples
    adjacent to the critical-value marks, so those must stay genuine rather
    than interpolated.  Raises ValueError when ``budget`` is below the
    marked-sample count.

    A symmetric curve is pruned on one lap and mirrored to the other.  The
    fold applies when the sample count n is even, sample k + n/2 sits at
    exactly the negative of sample k for every k (None pairs with None), and
    samples 0 and n/2 are marked; F(-z) = F(z) makes every lifted curve that
    covers its preimage once look so.  The greedy then runs over samples
    0..n/2-1 with cyclic links over n/2, every mark's window folded mod n/2,
    guards at the postcritical positions of both laps and at their
    negatives, and a target of ``budget // 2``; lap 1 keeps the same
    indices.  The isometry (x, y, z) -> (-x, -y, z) gives twins equal
    deviations, and a twin's sweep clears a guard g exactly when its lap-0
    sample's sweep clears -g, so this is the greedy that removes twins in
    pairs.  The marks at 0 and n/2 protect the seam, so the cyclic wrap is
    never read.  An odd budget prunes a symmetric curve to ``budget - 1``.

    A heap entry whose version is current holds its sample's exact deviation,
    since a sample's neighbors change only together with its version.  Prune
    is the costliest layer of a pullback, so the set-up forms each finite
    sample's sphere point inline, with the operations of
    :func:`stereographic`.
    """
    points = c.points
    n = len(points)
    marked = c.marks
    if budget < len(marked):
        raise ValueError(f"budget {budget} below the marked-sample count {len(marked)}")
    if n <= budget:
        return c

    # the domain of the greedy: lap 0 of a symmetric curve, else all of it
    m = n // 2
    if not (
        n % 2 == 0
        and 0 in marked
        and m in marked
        and all(_neg(a) == b for a, b in zip(points, points[m:]))
    ):
        m = n
    target = budget if m == n else budget // 2

    pts = []
    for z in points[:m]:
        # stereographic(z), inline for a finite complex z
        if type(z) is complex:
            try:
                r2 = abs(z) ** 2
            except OverflowError:
                r2 = math.inf
            if r2 < math.inf:
                q = 1.0 + r2
                pts.append((2.0 * z.real / q, 2.0 * z.imag / q, (1.0 - r2) / q))
                continue
        pts.append(stereographic(z))
    # folded, a lap-1 guard mirrors its twin's point, and the mirrors of
    # the guards join them
    guarded = [
        pts[i % m] for i, mark in zip(marked, c.schedule.marks) if mark.point_id is not None
    ]
    if m < n:
        guarded += [(-x, -y, z) for x, y, z in guarded]
    alive = [True] * m
    prv = [m - 1, *range(m - 1)]
    nxt = [*range(1, m), 0]
    version = [0] * m
    protected = [False] * m
    for i in marked:
        for k in range(i - _MARK_WINDOW, i + _MARK_WINDOW + 1):
            protected[k % m] = True

    # entries (deviation, index, version) are unique by index and version, so
    # they are totally ordered and the pop order does not depend on how the
    # heap was built.  Each is pushed once and consumed when popped, and a
    # removed sample is unlinked, so its version never moves again: an entry
    # is live exactly when its version is current
    heap = [
        (_deviation(pts[prv[i]], pts[i], pts[nxt[i]]), i, 0) for i in range(m) if not protected[i]
    ]
    heapq.heapify(heap)

    dist, heappop, heappush = math.dist, heapq.heappop, heapq.heappush
    count = m
    while count > target and heap:
        _, i, ver = heappop(heap)
        if ver != version[i]:
            continue
        a, b = prv[i], nxt[i]
        pa, pi, pb = pts[a], pts[i], pts[b]
        # cheap reject: the swept patch stays inside the spherical hull of the
        # triangle, itself within twice the longest edge from the apex
        reach = 2.0 * max(dist(pa, pi), dist(pi, pb)) + tol
        blocked = False
        for g in guarded:
            if dist(g, pi) <= reach and _sweep_clearance(g, pa, pi, pb) <= tol:
                blocked = True
                break
        if blocked:
            continue  # retried once a neighbor is removed
        alive[i] = False
        count -= 1
        nxt[a], prv[b] = b, a
        for j in (a, b):
            version[j] += 1
            if not protected[j]:
                heappush(heap, (_deviation(pts[prv[j]], pts[j], pts[nxt[j]]), j, version[j]))

    # every mark survives; its new index counts the survivors before it
    keep = alive * (n // m)
    marks, at, before = [], 0, 0
    for i in marked:
        before += keep[at:i].count(True)
        marks.append(before)
        at = i
    return DiscreteCurve(
        tuple(compress(c.params, keep)), tuple(compress(points, keep)), tuple(marks), c.schedule
    )


# ---------------------------------------------------------------------------
# the iteration


def _rebase(c: DiscreteCurve, s0: Schedule) -> DiscreteCurve:
    """Forget plumbing and critical marks, keeping the level-0 marks.

    The postcritical parameters and the anchor recur at every level, so the
    rebased curve carries the level-0 schedule at its own level, and the next
    pullback rebuilds critical-point marks from it; this keeps the schedule
    size constant across iterations.  Doubling maps those parameters into
    themselves, so each is a half of a parent mark, which the lift marks;
    only the marked samples are read.
    """
    kept = {m.parameter for m in s0.marks}
    marks = tuple(i for i in c.marks if c.params[i] in kept)
    return DiscreteCurve(c.params, c.points, marks, replace(s0, level=c.schedule.level))


def _collision(embedded: dict[int, SpherePoint]) -> tuple[int, int] | None:
    """The first pair of distinct postcritical points that have collided."""
    ids = sorted(embedded)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if chordal(embedded[a], embedded[b]) < _COLLAPSE_TOL:
                return a, b
    return None


def structural_gates(alpha: Angle, beta: Angle) -> str | None:
    """The failure reason of the first failed gate, or None when all pass."""
    if not alpha.is_preperiodic() or not beta.is_preperiodic():
        return "periodic angle: both inputs must be strictly preperiodic"
    ok, la, lb = mateable_detail(alpha, beta)
    if not ok:
        return f"conjugate limbs: {alpha} lies in limb {la}, {beta} in limb {lb}"
    defect = jordan_defect(alpha, beta)
    if defect is not None:
        names = ", ".join(str(sa) for sa in sorted(defect, key=lambda x: x.sort_key()))
        return f"pinched curve: identification class {{{names}}} joins distinct curve points"
    if not fsr_valid(alpha, beta):
        return "subdivision failure: an identification appears one level too late"
    return None


def _pullback(
    curve: DiscreteCurve,
    u: SpherePoint,
    v: SpherePoint,
    alpha: Angle,
    beta: Angle,
    s0: Schedule,
    opts: IterateOptions,
) -> tuple[DiscreteCurve, int]:
    """Lift ``curve`` through F_{u,v}, prune and rebase it.

    Also returns the sample count of the lifted curve before the prune.
    A map that fails its normalization self-check is a numeric failure: the
    gates accepted the pair, and ``read_critical_values`` has already ruled
    out colliding critical values.
    """
    try:
        F = from_critical_values(u, v)
    except ValueError as exc:
        raise NumericError(str(exc)) from exc
    s_next = pullback_schedule(curve.schedule, alpha, beta)
    lifted = pullback_curve(curve, F, s_next)
    before = len(lifted.params)
    lifted = prune(lifted, opts.budget, _PRUNE_TOL)
    return _rebase(lifted, s0), before


def iterate(alpha: Angle, beta: Angle, opts: IterateOptions = IterateOptions(), curve_hook=None) -> RunReport:
    """Run the full pullback iteration and report the (u_n, v_n) sequence.

    Stops when the chordal step of (u, v) drops below ``opts.tol``
    (``converged``), when ``opts.max_iters`` records follow the level-0 one
    (``max-iterations``), when two postcritical points collide, or when the
    step has not improved its running minimum for 20 consecutive iterations
    (both ``diverged``; expected for parabolic-orbifold inputs).

    The pullback contracts only linearly, and not monotonically, so once its
    increment has fallen in ``_FINISH_FALLS`` successive steps, or has not
    improved its running minimum for ``_FINISH_STALE`` successive records
    (and ``opts.tol`` is positive, and two more records fit under the cap),
    the run tries a Newton finish: Newton's method on the critical-orbit
    relations, accepted only with a small residual, no postcritical point
    moved far, and one confirming pullback that leaves every postcritical
    point within ``opts.tol`` (see :func:`quadmate.newton.finish`).  An
    accepted finish adds a ``"newton"`` and a ``"confirm"`` record, and the
    confirming step usually ends the run ``converged``; a refused one adds
    nothing, the pullback continues from where it was, and a stalled run
    tries again at its next stalled record.  ``curve_hook`` receives the
    curve of each record as it is added, except the record of a collision;
    the curve's ``schedule.level`` is the record's n, and its positions at
    the schedule's two value parameters are the record's u and v.  Raises ValueError, before the level-0 curve is built, when
    ``opts.budget`` is below the marked-sample count of a lifted curve.
    """
    report = RunReport(alpha=alpha, beta=beta, status="", options=asdict(opts))
    reason = structural_gates(alpha, beta)
    if reason is not None:
        report.status = "structural-error"
        report.message = reason
        return report
    if postcritical_count(alpha, beta) <= 4:
        report.warnings.append(
            "postcritical set has at most 4 points: orbifold may be parabolic, "
            "convergence is not guaranteed"
        )

    try:
        s0 = base_schedule(alpha, beta)
        # each lifted curve carries both halves of every level-0 mark, and
        # prune keeps them all: refused here rather than after a whole lift
        marked = 2 * len(s0.marks)
        if opts.budget < marked:
            raise ValueError(f"budget {opts.budget} below the marked-sample count {marked}")
        curve = init_embedding(s0, opts.samples_per_arc)
        u, v = read_critical_values(curve)
        report.records.append(
            IterationRecord(0, u, v, len(curve.params), len(curve.params), None)
        )
        if curve_hook is not None:
            curve_hook(curve)

        best = math.inf
        stale = 0
        falls = 0  # successive steps whose increment fell
        last = math.inf
        n = 0
        while n < opts.max_iters:
            steps = None
            if (
                (falls >= _FINISH_FALLS or stale >= _FINISH_STALE)
                and opts.tol > 0
                and n + 2 <= opts.max_iters
            ):
                # imported on first use: a run that stops before the finish
                # does not pay for compiling it
                from .newton import finish

                falls = 0
                steps = finish(curve, alpha, beta, s0, opts)
            if steps is None:
                n += 1
                curve, before = _pullback(curve, u, v, alpha, beta, s0, opts)
                u1, v1 = read_critical_values(curve)
                collided = _collision(relabel(curve))
                if collided is not None:
                    report.records.append(
                        IterationRecord(n, u1, v1, before, len(curve.params), None)
                    )
                    report.status = "diverged"
                    report.message = (
                        f"postcritical points {collided[0]} and {collided[1]} collided: "
                        "the embedding degenerated instead of converging"
                    )
                    break
                inc = chordal(u, u1) + chordal(v, v1)
                steps = [(IterationRecord(n, u1, v1, before, len(curve.params), inc), curve)]
            for rec, c in steps:
                report.records.append(rec)
                if curve_hook is not None:
                    curve_hook(c)
            rec, curve = steps[-1]
            n, u, v, inc = rec.n, rec.u, rec.v, rec.increment
            if inc < opts.tol:
                report.status = "converged"
                break
            if inc < best:
                best = inc
                stale = 0
            else:
                stale += 1
                if stale >= 20:
                    report.status = "diverged"
                    report.message = (
                        f"no progress below {best:.3e} for 20 consecutive iterations"
                    )
                    break
            falls = falls + 1 if inc < last else 0
            last = inc
        else:
            report.status = "max-iterations"
    except StructuralError as exc:
        report.status = "structural-error"
        report.message = str(exc)
        return report
    except NumericError as exc:
        exc.iteration = n
        report.status = "diverged"
        report.message = f"numeric failure at iteration {n}: {exc}"
    report.final_curve = curve
    return report
