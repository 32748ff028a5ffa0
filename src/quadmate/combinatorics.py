"""Identification combinatorics of the formal mating and curve mark schedules.

Two filled Julia sets are glued along opposing external angles: the black
angle t meets the red angle 1 - t, and the glued ray carries curve parameter
t.  Closing this gluing under co-landing within each polynomial yields the
ray-equivalence classes: the components over gluing and co-landing classes,
built in one pass, where two rays of one polynomial land at the same point
exactly when they share a (cached) co-landing class.  The classes that
survive the essential-mating collapse decide whether the candidate
pseudo-equator stays a Jordan curve and whether the induced subdivision
structure is finite.

The second half of the module turns the same data into mark schedules: the
level-0 schedule lists the postcritical parameters on the initial curve, and
each pullback halves every parameter, planting critical-point marks at the
halves of the two critical-value parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .angles import Angle
from .errors import AngleError, StructuralError
# same_landing is unused here, but perfbench/worker.py wraps this name to count calls
from .lamination import colanding_class, same_landing

ZERO = Angle(0, 1)

# closure guard: rational ray classes are finite, but a bug upstream would
# otherwise spin forever
_TRACKED_CAP = 8192


class Side(Enum):
    BLACK = "black"
    RED = "red"

    def other(self) -> "Side":
        return Side.RED if self is Side.BLACK else Side.BLACK


@dataclass(frozen=True)
class SideAngle:
    """An external angle tagged with the polynomial it belongs to."""

    side: Side
    angle: Angle

    def param(self) -> Angle:
        """Curve parameter of the glued ray: t for black t, 1 - s for red s."""
        return self.angle if self.side is Side.BLACK else self.angle.mirror()

    def glue_partner(self) -> "SideAngle":
        """The opposing-sphere angle glued to this one by the formal mating."""
        return SideAngle(self.side.other(), self.angle.mirror())

    def double(self) -> "SideAngle":
        return SideAngle(self.side, self.angle.double())

    def sort_key(self):
        return (self.side.value, self.angle)

    def __str__(self) -> str:
        return f"{self.side.value} {self.angle}"


class _RaySystem:
    """Ray-equivalence classes over the tracked angle set of one mating.

    Tracked set: both critical orbits and critical-point halves, closed under
    gluing, doubling and same-side co-landing.  Classes are the connected
    components under gluing plus co-landing, built in one worklist pass: each
    class is the component of an untracked angle, reached through glue
    partners and whole co-landing classes, and the doubles of its members
    seed the next.  The cached co-landing class is the one definition of
    "same landing point" (:meth:`same_point`, :meth:`point_groups`).
    """

    def __init__(self, alpha: Angle, beta: Angle):
        self.alpha = alpha
        self.beta = beta
        self._theta = {Side.BLACK: alpha, Side.RED: beta}
        self._postcritical = {
            Side.BLACK: frozenset(alpha.orbit_info().distinct),
            Side.RED: frozenset(beta.orbit_info().distinct),
        }
        self._critical = {
            s: self._postcritical[s] | set(self._theta[s].halves()) for s in Side
        }
        self._coland_cache: dict[SideAngle, frozenset[Angle]] = {}
        self._build()

    def _coland(self, sa: SideAngle) -> frozenset[Angle]:
        if sa not in self._coland_cache:
            cls = colanding_class(self._theta[sa.side], sa.angle)
            for a in cls:
                self._coland_cache[SideAngle(sa.side, a)] = cls
        return self._coland_cache[sa]

    def _build(self):
        pending = [SideAngle(s, a) for s in Side for a in sorted(self._critical[s])]
        tracked: set[SideAngle] = set()
        classes: list[frozenset[SideAngle]] = []
        while pending:
            seed = pending.pop()
            if seed in tracked:
                continue
            block, frontier = [], [seed]
            while frontier:
                x = frontier.pop()
                if x in tracked:
                    continue
                for a in self._coland(x):
                    y = SideAngle(x.side, a)
                    tracked.add(y)
                    if len(tracked) > _TRACKED_CAP:
                        raise StructuralError(
                            "ray closure overflow",
                            f"more than {_TRACKED_CAP} tracked angles for ({self.alpha}, {self.beta})",
                        )
                    block.append(y)
                    frontier.append(y.glue_partner())
            classes.append(frozenset(block))
            pending.extend(y.double() for y in block)
        self.tracked = tracked
        classes.sort(key=lambda b: min(b, key=SideAngle.sort_key).sort_key())
        self.classes: tuple[frozenset[SideAngle], ...] = tuple(classes)
        self.index = {sa: i for i, c in enumerate(self.classes) for sa in c}

        self.image = tuple(self._image_of(c) for c in self.classes)
        self._l_flags = tuple(self._is_l(c) for c in self.classes)
        self.essential = tuple(self._is_essential(i) for i in range(len(self.classes)))

    def _image_of(self, cls: frozenset[SideAngle]) -> int:
        targets = {self.index[sa.double()] for sa in cls}
        if len(targets) != 1:
            raise AssertionError("doubling split a ray class")
        return targets.pop()

    def is_postcritical(self, sa: SideAngle) -> bool:
        return sa.angle in self._postcritical[sa.side]

    def same_point(self, x: SideAngle, y: SideAngle) -> bool:
        """Same landing point of the same polynomial (pre-collapse identity)."""
        return x.side is y.side and y.angle in self._coland(x)

    def point_groups(self, cls: frozenset[SideAngle]) -> list[frozenset[SideAngle]]:
        """Members of ``cls`` bucketed by landing point, in order of first member."""
        groups: dict[tuple[Side, frozenset[Angle]], set[SideAngle]] = {}
        for sa in sorted(cls, key=SideAngle.sort_key):
            groups.setdefault((sa.side, self._coland(sa)), set()).add(sa)
        return [frozenset(g) for g in groups.values()]

    def _is_l(self, cls: frozenset[SideAngle]) -> bool:
        # a landing class in the sense that matters: two or more distinct
        # postcritical points joined by one ray graph
        count = sum(
            1 for g in self.point_groups(cls) if any(self.is_postcritical(sa) for sa in g)
        )
        return count >= 2

    def _is_essential(self, i: int) -> bool:
        """Whether class ``i`` is collapsed by the essential mating.

        The class must touch a critical orbit and some forward iterate must be
        a multi-postcritical-point class.
        """
        if not any(sa.angle in self._critical[sa.side] for sa in self.classes[i]):
            return False
        j = self.image[i]
        seen = set()
        while j not in seen:
            seen.add(j)
            if self._l_flags[j]:
                return True
            j = self.image[j]
        return False


@lru_cache(maxsize=32)
def _ray_system(alpha: Angle, beta: Angle) -> _RaySystem:
    if not alpha.is_preperiodic() or not beta.is_preperiodic():
        raise AngleError("both angles must be strictly preperiodic")
    return _RaySystem(alpha, beta)


@dataclass(frozen=True)
class EssentialClass:
    """A block of the identification restricted to postcritical angles.

    ``image`` indexes the class holding the doubles of the members, within the
    tuple returned by :func:`essential_classes`.
    """

    members: frozenset[SideAngle]
    image: int


def essential_classes(alpha: Angle, beta: Angle) -> tuple[EssentialClass, ...]:
    """Partition of the postcritical angles of both sides under the collapse.

    Angles fall in one block when their ray class is collapsed by the
    essential mating, or when they already name the same Julia-set point.
    Blocks are ordered by their smallest member.
    """
    sys = _ray_system(alpha, beta)
    post = [sa for sa in sorted(sys.tracked, key=SideAngle.sort_key) if sys.is_postcritical(sa)]
    blocks: list[frozenset[SideAngle]] = []
    block_of: dict[SideAngle, int] = {}
    for sa in post:
        if sa in block_of:
            continue
        i = sys.index[sa]
        if sys.essential[i]:
            block = frozenset(x for x in sys.classes[i] if sys.is_postcritical(x))
        else:
            block = frozenset(x for x in post if sys.same_point(sa, x))
        block_of.update(dict.fromkeys(block, len(blocks)))
        blocks.append(block)
    # the doubles of postcritical angles are postcritical, so every image is placed
    return tuple(
        EssentialClass(members=b, image=block_of[next(iter(b)).double()]) for b in blocks
    )


def jordan_defect(alpha: Angle, beta: Angle) -> frozenset[SideAngle] | None:
    """The ray class pinching the candidate curve, or None when none exists.

    A collapsed class whose postcritical members sit at two or more distinct
    curve parameters glues distinct points of the curve together, so the image
    after the collapse is no longer a Jordan curve.
    """
    sys = _ray_system(alpha, beta)
    for i, cls in enumerate(sys.classes):
        if not sys.essential[i]:
            continue
        params = {sa.param() for sa in cls if sys.is_postcritical(sa)}
        if len(params) >= 2:
            return cls
    return None


def is_jordan(alpha: Angle, beta: Angle) -> bool:
    """Whether the collapsed curve through the postcritical set stays Jordan."""
    return jordan_defect(alpha, beta) is None


def fsr_valid(alpha: Angle, beta: Angle) -> bool:
    """Whether the curve pullback scheme subdivides consistently.

    Fails exactly when some non-collapsed ray class holds two distinct points
    whose images become identified: such a pair forces an identification at
    one level that the previous level refuses, so no finite subdivision
    structure exists.
    """
    sys = _ray_system(alpha, beta)
    for i, cls in enumerate(sys.classes):
        if sys.essential[i]:
            continue
        groups = sys.point_groups(cls)
        if len(groups) < 2:
            continue
        if sys.essential[sys.image[i]]:
            return False
        reps = [next(iter(g)) for g in groups]
        for a in range(len(reps)):
            for b in range(a + 1, len(reps)):
                if sys.same_point(reps[a].double(), reps[b].double()):
                    return False
    return True


def postcritical_count(alpha: Angle, beta: Angle) -> int:
    """Number of marked postcritical parameters on the level-0 curve."""
    return len(_base_params(alpha, beta))


# ---------------------------------------------------------------------------
# mark schedules


class MarkKind(Enum):
    POSTCRITICAL = "postcritical"
    CRITICAL_POINT = "critical-point"
    PLUMBING = "plumbing"
    ANCHOR = "anchor"


@dataclass(frozen=True)
class Mark:
    parameter: Angle
    kind: MarkKind
    point_id: int | None = None
    color: Side | None = None

    def label(self) -> str:
        if self.kind is MarkKind.POSTCRITICAL:
            return f"p{self.point_id}"
        if self.kind is MarkKind.CRITICAL_POINT:
            return f"crit-{self.color.value}"
        return self.kind.value


@dataclass(frozen=True)
class Schedule:
    """The circularly ordered marks on the level-``level`` curve.

    ``marks`` ascend by parameter starting at 0; ``base_points`` records the
    level-0 postcritical parameters, which reappear at every level.
    """

    marks: tuple[Mark, ...]
    level: int
    base_points: tuple[tuple[Angle, int], ...]
    black_value: Angle  # curve parameter of the black critical value (alpha)
    red_value: Angle  # curve parameter of the red critical value (1 - beta)

    def mark_at(self, t: Angle) -> Mark:
        for m in self.marks:
            if m.parameter == t:
                return m
        raise KeyError(t)

    def critical_marks(self, color: Side) -> tuple[Mark, ...]:
        return tuple(
            m for m in self.marks if m.kind is MarkKind.CRITICAL_POINT and m.color is color
        )


def _base_params(alpha: Angle, beta: Angle) -> frozenset[Angle]:
    black = {a for a in alpha.orbit_info().distinct}
    red = {a.mirror() for a in beta.orbit_info().distinct}
    return frozenset(black | red)


def _point_ids(params: frozenset[Angle]) -> dict[Angle, int]:
    # ids ascend with the parameter, the anchor parameter 0 coming last
    ordered = sorted(params, key=lambda t: (t == ZERO, t))
    ordered = [t for t in ordered if t != ZERO] + ([ZERO] if ZERO in params else [])
    return {t: k + 1 for k, t in enumerate(ordered)}


def base_schedule(alpha: Angle, beta: Angle) -> Schedule:
    """The level-0 schedule: postcritical parameters of both critical orbits.

    Black orbit angles keep their value as parameter; a red orbit angle s sits
    at parameter 1 - s.  The black critical value is marked at alpha, the red
    at 1 - beta.  Parameter 0 anchors the curve even when not postcritical.
    """
    if not alpha.is_preperiodic() or not beta.is_preperiodic():
        raise AngleError("both angles must be strictly preperiodic")
    black_cv = alpha
    red_cv = beta.mirror()
    if black_cv == red_cv:
        raise StructuralError(
            "critical values identified",
            f"both critical values sit at curve parameter {black_cv}",
        )
    sys = _ray_system(alpha, beta)
    if sys.index[SideAngle(Side.BLACK, alpha)] == sys.index[SideAngle(Side.RED, beta)]:
        raise StructuralError(
            "critical values identified",
            f"the rays at parameters {black_cv} and {red_cv} fall in one collapsed class",
        )
    params = _base_params(alpha, beta)
    ids = _point_ids(params)
    marks = [Mark(t, MarkKind.POSTCRITICAL, point_id=ids[t]) for t in params]
    if ZERO not in params:
        marks.append(Mark(ZERO, MarkKind.ANCHOR))
    marks.sort(key=lambda m: m.parameter)
    return Schedule(
        marks=tuple(marks),
        level=0,
        base_points=tuple(sorted(ids.items())),
        black_value=black_cv,
        red_value=red_cv,
    )


def pullback_schedule(s: Schedule, alpha: Angle, beta: Angle) -> Schedule:
    """The level n+1 schedule: both halves of every level-n parameter.

    Halves of the two critical-value parameters become critical-point marks
    (each pair names one point, 0 or infinity); parameters that coincide with
    level-0 postcritical parameters keep their identity; the rest is plumbing.
    """
    base = dict(s.base_points)
    crit_black = frozenset(alpha.halves())
    crit_red = frozenset(beta.mirror().halves())
    marks = []
    for m in s.marks:
        for t in m.parameter.halves():
            if t in crit_black or t in crit_red:
                color = Side.BLACK if t in crit_black else Side.RED
                marks.append(
                    Mark(t, MarkKind.CRITICAL_POINT, point_id=base.get(t), color=color)
                )
            elif t in base:
                marks.append(Mark(t, MarkKind.POSTCRITICAL, point_id=base[t]))
            elif t == ZERO:
                marks.append(Mark(t, MarkKind.ANCHOR))
            else:
                marks.append(Mark(t, MarkKind.PLUMBING))
    marks.sort(key=lambda m: m.parameter)
    if len(marks) != 2 * len(s.marks):
        raise AssertionError("halving collided two schedule parameters")
    return Schedule(
        marks=tuple(marks),
        level=s.level + 1,
        base_points=s.base_points,
        black_value=s.black_value,
        red_value=s.red_value,
    )
