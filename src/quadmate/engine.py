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
relations F(p_t) = p_{2t} of the embedded postcritical points, solved by the
``newton`` module, polishes (u, v) to roundoff.  One confirming pullback
through the polished map must then leave every postcritical point in place: a
necessary check, not a certificate of the curve's isotopy class, and the bound
on how far Newton moves a point is what keeps out the other roots that it
passes.  A refused finish leaves the pullback to continue unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, replace
from itertools import chain

from .angles import ZERO, Angle, reduce
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
from .newton import _pinned, solve_relations
from .pruning import prune
from .ratmap import (
    NormalizedQuadratic,
    SpherePoint,
    chordal,
    from_critical_values,
    from_sphere,
    stereographic,
)

# how distinguishable the two branch candidates must be before a step is
# accepted without refinement
_AMBIGUITY_RATIO = 0.8
# the lift's fast path accepts a raw distance ratio up to this: the chordal
# ratio is the raw one times at most five roundings (1 + 2^-53 each), so it
# then stays at or below _AMBIGUITY_RATIO
_FAST_RATIO = _AMBIGUITY_RATIO * (1 - 2.0**-50)
# refinements of an ambiguous lift step, past which the nearer candidate wins
_MAX_REFINE = 48
_DENSIFY_STEPS = 8  # samples _densify adds toward each critical passage
_PARAM_BITS = _MAX_REFINE + _DENSIFY_STEPS  # the most halvings of one lifted parent step
_STITCH_TOL = 1e-6
_CRITICAL_COLLISION_TOL = 1e-13
# a prune is refused when it sweeps this close to a postcritical point
_PRUNE_TOL = 1e-6

# two distinct postcritical points this close mean the embedding has left
# moduli space (the classic divergence mode of parabolic orbifolds)
_COLLAPSE_TOL = 1e-8

# a chain's sign is accepted on marked-point continuity alone when the better
# candidate's score beats the other's by _ISOTOPY_RATIO; otherwise the local
# handedness read decides.  A chain with no postcritical mark scores inf for
# both signs, and inf <= 0.5 * inf holds, so _arc_signs refuses an infinite
# score explicitly.  Without that the sign of u flips at the first pullback
# of (1/10, 19/20).  The ROADMAP plans to score such chains by isotopy.
_ISOTOPY_RATIO = 0.5

# The Newton finish (see iterate and finish) is tried once the
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
# yet a Newton finish is accepted from their curves of levels 7 and 5.
# The stall rule finishes them there, and takes the census from 20 to 40
# converging pairs.  3 is the smallest stall that never fires on (1/4, 1/8),
# whose stall peaks at 2 (pullbacks 12 and 16): 2 would finish it at record
# 14, before its steps fall monotonically, while 4 converges only 32 pairs.
# A refused try is retried at the next stalled record.
_FINISH_FALLS = 7
_FINISH_STALE = 3

# A point that moves further than _NEWTON_MOVE has jumped to another solution
# of the relations: seen early in the runs of (9/10, 9/10) and (19/32, 13/16),
# where the confirming pullback refused it.  It also refuses roots that pass
# that pullback: the mirrored (1/4, 1/8) map from level 0, and six census
# pairs' other maps when every record tries a finish.  An accepted finish
# moves points far less (0.032 on (1/4, 1/8)).
_NEWTON_MOVE = 0.25
_NEWTON_RESIDUAL = 1e-13  # largest chordal |F(p_t) - p_{2t}| accepted

# iterate and ``quadmate check`` warn of a postcritical set this small
_PARABOLIC_POINTS = 4
_PARABOLIC_WARNING = (f"postcritical set has at most {_PARABOLIC_POINTS} points: "
                      "orbifold may be parabolic, convergence is not guaranteed")


@dataclass(frozen=True, slots=True)
class DiscreteCurve:
    """Closed polyline on the sphere; samples ascend by parameter from 0.

    Sample k sits at parameter ``params[k] / den``, in lowest terms
    (``gcd(den, *params) == 1``), and position ``points[k]``.  The curve
    carries a sample at every parameter of ``schedule.marks``, and its level
    is ``schedule.level``.
    """

    params: tuple[int, ...]
    den: int
    points: tuple[SpherePoint, ...]
    schedule: Schedule

    @classmethod
    def from_angles(cls, params, points, schedule: Schedule) -> DiscreteCurve:
        """The curve with samples at the angles ``params``."""
        den = math.lcm(*(t.den for t in params))
        return cls(tuple(t.num * (den // t.den) for t in params), den, tuple(points), schedule)

    @property
    def marks(self) -> tuple[int, ...]:
        """The index of the sample that carries each of ``schedule.marks``;
        they ascend with the schedule's marks."""
        return tuple(self.index(m.parameter) for m in self.schedule.marks)

    def param(self, k: int) -> Angle:
        """The parameter of sample ``k``."""
        return reduce(self.params[k], self.den)

    def index(self, t: Angle) -> int:
        """The position of the sample at parameter ``t``, by bisection."""
        num, rest = divmod(t.num * self.den, t.den)
        k = bisect_left(self.params, num)
        if not rest and k < len(self.params) and self.params[k] == num:
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
    ``"confirm"`` for the pullback through the polished map that checked it.
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
    # an inner sample per arc keeps its lifts within _PARAM_BITS halvings
    if samples_per_arc < 1:
        raise ValueError(f"samples_per_arc must be positive, got {samples_per_arc}")
    # the marks ascend from 0, so the arcs between them, the last one
    # closing at 1, are laid down in ascending order.  Sample j of the arc
    # from a/b to c/d sits at (a d (S - j) + c b j) / (b d S)
    params: list[Angle] = []
    points: list[SpherePoint] = []
    S = samples_per_arc + 1
    for k, m in enumerate(s.marks):
        a, b = m.parameter.num, m.parameter.den
        nxt = s.marks[(k + 1) % len(s.marks)].parameter
        c, d = nxt.num, nxt.den
        if k + 1 == len(s.marks):
            c += d
        params.append(m.parameter)
        points.append(_unit_circle(m.parameter))
        for j in range(1, S):
            t = reduce(a * d * (S - j) + c * b * j, b * d * S)
            params.append(t)
            points.append(_unit_circle(t))
    return DiscreteCurve.from_angles(params, points, s)


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


def _mid(t0: int, t1: int) -> int:
    """The parameter halfway between two child parameters (see pullback_curve)."""
    if (t0 + t1) & 1:
        raise AssertionError("a parameter midpoint fell below the child denominator")
    return (t0 + t1) >> 1


def _lift_arc(
    F: NormalizedQuadratic, entries: list[tuple[int, SpherePoint]]
) -> list[tuple[int, SpherePoint]]:
    """One continuous lift of an arc, anchored at the principal root.

    Each step takes the candidate, ``root`` or ``-root``, chordally nearer
    the previous lifted point, ``root`` on a tie; when the two are close to
    equidistant, the spherical midpoint of the parent step is lifted first,
    recursively up to ``_MAX_REFINE`` deep, and stays in the output.
    Parameters are integers over one denominator; a failed step raises
    :class:`BranchTrackingError` with its parameter's numerator.

    Most steps take a fast path that makes the same choice as the full step
    (:func:`_lift_step`).  When ``root`` and the previous point both lie in
    1e-3 < |z| < 1e3, no critical-value passage or critical-point exit can
    fire, and the chordal distances of the two candidates are the raw ones,
    ``abs(root - prev)`` and ``abs(root + prev)``, over one shared
    denominator.  So when the raw ratio is at most ``_FAST_RATIO``, the
    chordal ratio is at most ``_AMBIGUITY_RATIO`` and the nearer raw
    candidate is the nearer chordal one.  |prev| is carried from step to step.
    """
    t0, _ = entries[0]
    roots = F.roots([z for _, z in entries])
    prev = roots[0]
    r = math.inf if prev is None else abs(prev)
    out = [(t0, prev)]
    append, ratio = out.append, _FAST_RATIO
    steps = zip(entries, roots)
    next(steps)
    for (t1, z1), plus in steps:
        if plus is None:
            rp = math.inf
        else:
            rp = abs(plus)
            if 1e-3 < rp < 1e3 and 1e-3 < r < 1e3:
                dp, dm = abs(plus - prev), abs(plus + prev)
                if dp <= dm:
                    if dp <= ratio * dm:
                        prev, r = plus, rp
                        append((t1, plus))
                        continue
                elif dm <= ratio * dp:
                    prev, r = -plus, rp
                    append((t1, prev))
                    continue
        # every candidate is plus or -plus, so |prev| is |plus| from here on
        prev, r = _lift_step(F, out, prev, t1, z1, plus), rp
    return out


def _lift_step(
    F: NormalizedQuadratic,
    out: list[tuple[int, SpherePoint]],
    prev: SpherePoint,
    t1: int,
    z1: SpherePoint,
    plus: SpherePoint,
) -> SpherePoint:
    """The full lift step from ``out[-1]``, the lift ``prev``, to ``z1`` at ``t1``.

    ``plus`` is the principal root over ``z1``.  Appends the lifted samples,
    refined ones first, and returns the last: an ambiguous step lifts the
    midpoint of its parent step, then the rest, by recursion one level deeper
    each, up to ``_MAX_REFINE`` levels.  A decided step, one still ambiguous
    at that depth included, takes the chordally nearer candidate, ``plus`` on
    a tie.
    """

    def step(t0: int, prev: SpherePoint, t1: int, z1: SpherePoint, plus: SpherePoint,
             depth: int) -> SpherePoint:
        minus = _neg(plus)
        if (chordal(plus, minus) < 1e-12 or chordal(prev, 0.0 + 0.0j) < 1e-9
                or chordal(prev, None) < 1e-9):
            # a critical-value passage, where the two branches meet, or a step
            # leaving a critical point, where both continuations are
            # equidistant and the stitcher's sign choice overrides this one
            chosen = plus
        else:
            dp, dm = chordal(plus, prev), chordal(minus, prev)
            near, far = (dp, dm) if dp <= dm else (dm, dp)
            # a skim past a branch point stays ambiguous at every depth
            if depth == 0 or far > 0 and near / far <= _AMBIGUITY_RATIO:
                chosen = plus if dp <= dm else minus
            else:
                # bisect against the parent position at t0, reconstructed
                ok, zm = _slerp_mid(F.eval(prev), z1)
                if not ok:
                    raise BranchTrackingError(t1)
                tm = _mid(t0, t1)
                mid = step(t0, prev, tm, zm, F.preimages(zm)[0], depth - 1)
                return step(tm, mid, t1, z1, plus, depth - 1)
        out.append((t1, chosen))
        return chosen

    return step(out[-1][0], prev, t1, z1, plus, _MAX_REFINE)


def _densify(
    far: tuple[int, SpherePoint], near: tuple[int, SpherePoint]
) -> list[tuple[int, SpherePoint]]:
    """Samples accumulating geometrically from ``far`` toward ``near``."""
    out: list[tuple[int, SpherePoint]] = []
    t1, z1 = near
    cur = far
    for _ in range(_DENSIFY_STEPS):
        ok, zm = _slerp_mid(cur[1], z1)
        if not ok:
            break
        cur = (_mid(cur[0], t1), zm)
        out.append(cur)
    return out


def _triple(d, w, n) -> float:
    cx = d[1] * w[2] - d[2] * w[1]
    cy = d[2] * w[0] - d[0] * w[2]
    cz = d[0] * w[1] - d[1] * w[0]
    return cx * n[0] + cy * n[1] + cz * n[2]


def _vec(a, b) -> tuple[float, float, float]:
    return (b[0] - a[0], b[1] - a[1], b[2] - a[2])


def pullback_curve(c: DiscreteCurve, F: NormalizedQuadratic, s_next: Schedule) -> DiscreteCurve:
    """Lift the level-n curve through F onto the level n+1 schedule.

    The child traverses the parent loop twice (parameter doubling).  Arcs
    between marked samples are lifted independently, signed, and assembled.
    """
    lifts = _lift_laps(c, F, s_next)
    signs = _arc_signs(c, lifts, s_next)
    return _assemble(c, lifts, signs, s_next)


def _lift_laps(c: DiscreteCurve, F: NormalizedQuadratic, s_next: Schedule) -> list[list]:
    """The lifts of the lap-0 arcs, over the child denominator.

    Each parent arc is lifted once.  Lap 1 passes the same positions as
    lap 0 at parameters moved by 1/2, both halves of a critical value are
    critical-point marks, and a lift reads parameters only through
    midpoints, which commute with that rotation; so the lift of each lap-1
    arc is the lift of its lap-0 twin with every parameter moved by 1/2, its
    head and tail at the child marks.

    Parameters stay exact, as integers over the child denominator
    ``den << (_PARAM_BITS + 1)``: a parent sample at ``t`` reappears at
    ``t << _PARAM_BITS`` and at that plus 1/2, and refinement and
    densification insert arc midpoints, at most ``_PARAM_BITS`` halvings
    deep.
    """
    # lap 0 of the child traversal: the parent loop with its parameters
    # halved, closed at 1/2, where lap 1 begins at the anchor's position
    params = [t << _PARAM_BITS for t in c.params] + [c.den << _PARAM_BITS]
    positions = [*c.points, c.points[0]]

    # the child marks are the halves of the parent's marks in order, lap 0
    # then lap 1, so they sit at the parent's marked indices on each lap
    marked = list(c.marks)
    arc_marks = s_next.marks
    m = len(marked)
    if 2 * m != len(arc_marks):
        raise AssertionError("child schedule does not halve the parent's marks")
    if params[marked[0]] != 0:
        raise AssertionError("child traversal lost its anchor mark")
    boundaries = marked + [len(c.params)]
    lifts: list[list[tuple[int, SpherePoint]]] = []
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
            exc.arc, exc.parameter = k, reduce(exc.parameter, c.den << (_PARAM_BITS + 1))
            raise
    return lifts


def _arc_signs(c: DiscreteCurve, lifts: list[list], s_next: Schedule) -> list[int]:
    """The signs of the child arcs, lap 0 then lap 1.

    Ordinary boundaries fix signs by endpoint matching, while each chain
    between critical passages takes the global sign that keeps its marked
    points next to their embedding on the parent curve.  When that is
    ambiguous, chain 0 keeps its head nearer the anchor, and every other
    chain takes :func:`_handedness_lead`.  A failed stitch raises
    :class:`BranchTrackingError`.
    """
    # each lap-1 arc passes its lap-0 twin's positions (see _lift_laps), so
    # the stitching reads arc k + m through the twin's lift
    arcs = lifts + lifts
    arc_marks = s_next.marks

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
        # whether a chain has a postcritical mark does not depend on its sign
        if sp < math.inf and min(sp, sm) <= _ISOTOPY_RATIO * max(sp, sm):
            lead = 1 if sp <= sm else -1
        elif ci == 0:
            lead = 1 if chordal(arcs[0][0][1], 1.0 + 0.0j) <= chordal(
                _neg(arcs[0][0][1]), 1.0 + 0.0j
            ) else -1
        else:
            mark = arc_marks[start]
            lead = _handedness_lead(mark, start, crit_pos[mark.color],
                                    arcs[start - 1], signs[start - 1], arcs[start])
        for k in range(start, stop):
            signs[k] = lead * rel[k]

    closing = arcs[-1][-1][1] if signs[-1] == 1 else _neg(arcs[-1][-1][1])
    if chordal(closing, 1.0 + 0.0j) > _STITCH_TOL:
        raise BranchTrackingError(
            ZERO, "lifted curve fails to close at the anchor", arc=len(arcs) - 1
        )
    return signs


def _handedness_lead(mark, start: int, cp: SpherePoint, behind: list, sign: int, lift: list) -> int:
    """The lead sign of arc ``start``, whose head ``mark`` is the critical point ``cp``.

    The curve forks right at the black critical point and left at the red,
    oriented by the outward normal: read off the last sample of ``behind``,
    signed by ``sign``, and the first of ``lift`` that are not at ``cp``.
    """
    n_hat = stereographic(cp)
    back = next(
        (p if sign == 1 else _neg(p) for _, p in reversed(behind) if chordal(p, cp) > 1e-9), None
    )
    ahead = next((p for _, p in lift[1:] if chordal(p, cp) > 1e-9), None)
    if back is None or ahead is None:
        raise BranchTrackingError(mark.parameter, "curve stalls at a critical point", arc=start)
    d = _vec(stereographic(back), n_hat)
    w = _vec(n_hat, stereographic(ahead))
    trip = _triple(d, w, n_hat)
    want_negative = mark.color is Side.BLACK  # fork right at 0, left at infinity
    if trip == 0.0:
        raise BranchTrackingError(mark.parameter, "handedness test degenerate", arc=start)
    return 1 if (trip < 0) == want_negative else -1


def _assemble(
    c: DiscreteCurve, lifts: list[list], signs: list[int], s_next: Schedule
) -> DiscreteCurve:
    """The child curve: the lifts under their signs, lap 0 then lap 1.

    The parent's parameters ascend from 0, so the child traversal ascends
    too (lap 0 fills [0, 1/2), lap 1 fills [1/2, 1)), and every midpoint
    lies strictly between its neighbours.  Hence the child marks sit at the
    parent's marked samples on each lap, the arc heads are the only marked
    samples, and the signed arcs concatenate in ascending order.
    """
    den, half = c.den << (_PARAM_BITS + 1), c.den << _PARAM_BITS
    m = len(lifts)
    # an arc's last entry is shared with the next arc's head.  A lap-1 arc
    # takes its twin's parameters moved by 1/2, between the child marks, and
    # shares its twin's positions, each arc negated by its own sign
    lap0 = [tuple(zip(*lift[:-1])) for lift in lifts]
    # lap 1 adds half to lap 0, so the common factor is the gcd of half and
    # lap 0: a power of two, as the parent is in lowest terms
    shift = math.gcd(half, *chain.from_iterable(ts for ts, _ in lap0)).bit_length() - 1
    half >>= shift
    lap0 = [([t >> shift for t in ts], ps) for ts, ps in lap0]
    out_params: list[int] = []
    out_points: list[SpherePoint] = []
    for k, sign in enumerate(signs):
        ts, ps = lap0[k % m]
        out_params += ts if k < m else [t + half for t in ts]
        out_points += ps if sign == 1 else [None if p is None else -p for p in ps]
    return DiscreteCurve(tuple(out_params), den >> shift, tuple(out_points), s_next)


def relabel(c_next: DiscreteCurve) -> dict[int, SpherePoint]:
    """The embedding of the postcritical set read off the lifted curve."""
    return {pid: c_next.point_at(t) for t, pid in c_next.schedule.base_points}


# ---------------------------------------------------------------------------
# the iteration


def _rebase(c: DiscreteCurve, s0: Schedule) -> DiscreteCurve:
    """The curve ``c`` carrying the level-0 schedule ``s0`` at its own level.

    This forgets the plumbing and critical-point marks; the next pullback
    rebuilds critical-point marks from the level-0 ones, so the schedule
    size stays constant across iterations.  Doubling maps the postcritical
    parameters and the anchor into themselves, so each is a half of a parent
    mark, which the lift marks: ``c`` has a sample at each.
    """
    return replace(c, schedule=replace(s0, level=c.schedule.level))


def _collision(embedded: dict[int, SpherePoint]) -> tuple[int, int] | None:
    """The first pair of distinct postcritical points that have collided."""
    ids = sorted(embedded)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if chordal(embedded[a], embedded[b]) < _COLLAPSE_TOL:
                return a, b
    return None


def _class_text(defect) -> str:
    """A pinching class as the gates name it: its members in order, braced."""
    return "{" + ", ".join(str(sa) for sa in sorted(defect, key=lambda x: x.sort_key())) + "}"


def structural_gates(alpha: Angle, beta: Angle) -> str | None:
    """The failure reason of the first failed gate, or None when all pass."""
    if not alpha.is_preperiodic() or not beta.is_preperiodic():
        return "periodic angle: both inputs must be strictly preperiodic"
    ok, la, lb = mateable_detail(alpha, beta)
    if not ok:
        return f"conjugate limbs: {alpha} lies in limb {la}, {beta} in limb {lb}"
    defect = jordan_defect(alpha, beta)
    if defect is not None:
        return f"pinched curve: identification class {_class_text(defect)} joins distinct curve points"
    if not fsr_valid(alpha, beta):
        return "subdivision failure: an identification appears one level too late"
    return None


def _pullback(curve: DiscreteCurve, budget: int) -> tuple[DiscreteCurve, int]:
    """Lift ``curve`` through the map of its critical values; prune, rebase.

    ``curve`` carries the level-0 marks at its level, as every curve of
    :func:`iterate` does, so it fixes F_{u,v} and the level n+1 schedule.
    Also returns the lifted curve's sample count before the prune.  A map
    that fails its normalization self-check is a numeric failure.
    """
    u, v = read_critical_values(curve)
    try:
        F = from_critical_values(u, v)
    except ValueError as exc:
        raise NumericError(str(exc)) from exc
    lifted = pullback_curve(curve, F, pullback_schedule(curve.schedule))
    before = len(lifted.params)
    lifted = prune(lifted, budget, _PRUNE_TOL)
    return _rebase(lifted, curve.schedule), before


def _polish(curve: DiscreteCurve) -> dict[Angle, complex] | None:
    """The Newton solution near the curve's embedding, or None when refused.

    Refused unless the relation residual (the largest chordal distance
    between F(p_t) and p_{2t}) is below ``_NEWTON_RESIDUAL``, no postcritical
    point moves more than ``_NEWTON_MOVE`` and no two of them collide.
    """
    s0 = curve.schedule
    before = {t: curve.point_at(t) for t, _ in s0.base_points}
    solved = solve_relations(s0, before)
    if solved is None:
        return None
    position = {**_pinned(s0), **solved}
    try:
        F = from_critical_values(position[s0.black_value], position[s0.red_value])
    except ValueError:
        return None
    residual = max(chordal(F.eval(z), position[t.double()]) for t, z in solved.items())
    moved = max(chordal(before[t], z) for t, z in solved.items())
    if not (residual < _NEWTON_RESIDUAL and moved <= _NEWTON_MOVE):
        return None
    if _collision({pid: position[t] for t, pid in s0.base_points}) is not None:
        return None
    return solved


def finish(
    curve: DiscreteCurve, opts: IterateOptions
) -> list[tuple[IterationRecord, DiscreteCurve]] | None:
    """The records n+1 and n+2 of an accepted Newton finish, with their curves.

    ``curve`` is the level-n curve of record n, whose schedule gives the
    relations.  Its postcritical samples move onto the Newton solution of
    the critical-orbit relations (record n+1, phase ``"newton"``); one
    pullback through the polished map (record n+2, phase ``"confirm"``) must
    then leave every postcritical point within ``opts.tol`` of where the
    solution put it: necessary, not sufficient, for the fixed point of this
    curve's isotopy class (see ``_NEWTON_MOVE``).  None when the finish is
    refused; a failure of the confirming pullback is a refusal, not an error.
    """
    target = _polish(curve)
    if target is None:
        return None
    level = curve.schedule.level + 1
    points = list(curve.points)
    for t, z in target.items():
        points[curve.index(t)] = z
    polished = replace(curve, points=tuple(points), schedule=replace(curve.schedule, level=level))
    u, v = read_critical_values(curve)
    try:
        pu, pv = read_critical_values(polished)
        confirmed, before = _pullback(polished, opts.budget)
        cu, cv = read_critical_values(confirmed)
    except (NumericError, StructuralError):
        return None
    if not all(
        chordal(confirmed.point_at(t), z) < opts.tol for t, z in target.items()
    ):
        return None
    size = len(polished.params)
    newton = IterationRecord(
        level, pu, pv, size, size, chordal(u, pu) + chordal(v, pv), "newton"
    )
    confirm = IterationRecord(
        level + 1, cu, cv, before, len(confirmed.params),
        chordal(pu, cu) + chordal(pv, cv), "confirm",
    )
    return [(newton, polished), (confirm, confirmed)]


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
    point within ``opts.tol`` (see :func:`finish`).  An
    accepted finish adds a ``"newton"`` and a ``"confirm"`` record, and the
    confirming step usually ends the run ``converged``; a refused one adds
    nothing, the pullback continues from where it was, and a stalled run
    tries again at its next stalled record.  ``curve_hook`` receives the
    curve of each record as it is added; the curve's ``schedule.level`` is the record's n, and its positions at
    the schedule's two value parameters are the record's u and v.  Raises
    ValueError, before the level-0 curve is built, when ``opts.budget`` is
    below the marked-sample count of a lifted curve, and when the curve is
    built, when ``opts.samples_per_arc`` is below 1.
    """
    report = RunReport(alpha=alpha, beta=beta, status="", options=asdict(opts))
    reason = structural_gates(alpha, beta)
    if reason is not None:
        report.status = "structural-error"
        report.message = reason
        return report
    if postcritical_count(alpha, beta) <= _PARABOLIC_POINTS:
        report.warnings.append(_PARABOLIC_WARNING)

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
            steps = collided = None
            if (
                (falls >= _FINISH_FALLS or stale >= _FINISH_STALE)
                and opts.tol > 0
                and n + 2 <= opts.max_iters
            ):
                falls = 0
                steps = finish(curve, opts)
            if steps is None:
                n += 1
                curve, before = _pullback(curve, opts.budget)
                u1, v1 = read_critical_values(curve)
                collided = _collision(relabel(curve))
                inc = None if collided is not None else chordal(u, u1) + chordal(v, v1)
                steps = [(IterationRecord(n, u1, v1, before, len(curve.params), inc), curve)]
            for rec, c in steps:
                report.records.append(rec)
                if curve_hook is not None:
                    curve_hook(c)
            if collided is not None:
                report.status = "diverged"
                report.message = (
                    f"postcritical points {collided[0]} and {collided[1]} collided: "
                    "the embedding degenerated instead of converging"
                )
                break
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
