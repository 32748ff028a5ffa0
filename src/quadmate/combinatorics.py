"""Identification combinatorics of the formal mating and curve mark schedules.

Two filled Julia sets are glued along opposing external angles: the black
angle t meets the red angle 1 - t, and the glued ray carries curve parameter
t.  So a ray-equivalence class is a set of curve parameters, closed under
co-landing of the black rays (for alpha) and of the red rays (for 1 - beta,
by conjugation), built in one pass from the cached co-landing classes.  The
classes that survive the essential-mating collapse decide whether the
candidate pseudo-equator stays a Jordan curve and whether the induced
subdivision structure is finite.

The second half of the module turns the same data into mark schedules: the
level-0 schedule lists the postcritical parameters on the initial curve, and
each pullback halves every parameter, planting critical-point marks at the
halves of the two critical-value parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .angles import ZERO, Angle
from .errors import AngleError, StructuralError
from .lamination import colanding_class

# closure guard: rational ray classes are finite, but a bug upstream would
# otherwise spin forever
_TRACKED_CAP = 8192


class Side(Enum):
    BLACK = "black"
    RED = "red"


@dataclass(frozen=True)
class SideAngle:
    """An external angle tagged with the polynomial it belongs to."""

    side: Side
    angle: Angle

    def sort_key(self):
        return (self.side.value, self.angle)

    def __str__(self) -> str:
        return f"{self.side.value} {self.angle}"


class _RaySystem:
    """Ray-equivalence classes of one mating, as sets of curve parameters.

    The glued rays black t and red 1 - t share the parameter t, so a class
    never separates them and is a set of parameters.  Conjugation takes the
    red ray at 1 - t to the ray at t of the polynomial with angle 1 - beta,
    so the parameters whose red rays land together form a co-landing class
    of ``beta.mirror()``, as those of the black rays form one of ``alpha``:
    ``thetas`` holds the two, black first.  Doubling takes both rays at t to
    rays at 2t, so the image of a class is the class of 2t.

    Tracked set: both critical orbits and critical-point halves, closed under
    doubling and co-landing on either side.  Classes are the connected
    components under co-landing on both sides, built in one worklist pass:
    each class is the component of an untracked parameter, whose black
    co-landing class is walked first, each parameter it adds then walked on
    the other side, and the doubles of its members seed the next.
    """

    def __init__(self, alpha: Angle, beta: Angle):
        self.alpha = alpha
        self.beta = beta
        self.thetas = (alpha, beta.mirror())
        self._postcritical = tuple(frozenset(th.orbit_info().distinct) for th in self.thetas)
        self._critical = frozenset().union(
            *self._postcritical, *(th.halves() for th in self.thetas)
        )
        self._build()

    def _build(self):
        pending = sorted(self._critical)
        tracked: set[Angle] = set()
        classes: list[frozenset[Angle]] = []
        while pending:
            seed = pending.pop()
            if seed in tracked:
                continue
            block, frontier, side = [], [seed], 0
            while frontier:
                theta, reached = self.thetas[side], []
                for t in frontier:
                    for a in colanding_class(theta, t):
                        if a in tracked:
                            continue
                        tracked.add(a)
                        if 2 * len(tracked) > _TRACKED_CAP:  # two rays per parameter
                            raise StructuralError(
                                "ray closure overflow",
                                f"more than {_TRACKED_CAP} tracked angles for ({self.alpha}, {self.beta})",
                            )
                        reached.append(a)
                block += reached
                frontier, side = reached, 1 - side
            classes.append(frozenset(block))
            pending.extend(t.double() for t in block)
        self.tracked = tracked
        classes.sort(key=min)
        self.classes: tuple[frozenset[Angle], ...] = tuple(classes)
        self.index = {t: i for i, c in enumerate(self.classes) for t in c}

        self.image = tuple(self._image_of(c) for c in self.classes)
        self._l_flags = tuple(self._is_l(c) for c in self.classes)
        self.essential = tuple(self._is_essential(i) for i in range(len(self.classes)))

    def _image_of(self, cls: frozenset[Angle]) -> int:
        targets = {self.index[t.double()] for t in cls}
        if len(targets) != 1:
            raise AssertionError("doubling split a ray class")
        return targets.pop()

    def points(self, side: int, params) -> set[frozenset[Angle]]:
        """The landing points of the rays at ``params`` on one side (0 black,
        1 red): their co-landing classes."""
        theta = self.thetas[side]
        return {colanding_class(theta, t) for t in params}

    def _is_l(self, cls: frozenset[Angle]) -> bool:
        # a landing class in the sense that matters: two or more distinct
        # postcritical points joined by one ray graph
        count = sum(
            len(self.points(side, cls & post)) for side, post in enumerate(self._postcritical)
        )
        return count >= 2

    def _is_essential(self, i: int) -> bool:
        """Whether class ``i`` is collapsed by the essential mating.

        The class must touch a critical orbit and some forward iterate must be
        a multi-postcritical-point class.
        """
        if self._critical.isdisjoint(self.classes[i]):
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


def jordan_defect(alpha: Angle, beta: Angle) -> frozenset[SideAngle] | None:
    """The ray class pinching the candidate curve, or None when none exists.

    A collapsed class whose postcritical members sit at two or more distinct
    curve parameters glues distinct points of the curve together, so the image
    after the collapse is no longer a Jordan curve.  The class is returned as
    its rays: black t and red 1 - t for each parameter t.
    """
    sys = _ray_system(alpha, beta)
    postcritical = _base_params(alpha, beta)
    for i, cls in enumerate(sys.classes):
        if sys.essential[i] and len(cls & postcritical) >= 2:
            return frozenset(
                ray for t in cls
                for ray in (SideAngle(Side.BLACK, t), SideAngle(Side.RED, t.mirror()))
            )
    return None


def is_jordan(alpha: Angle, beta: Angle) -> bool:
    """Whether the collapsed curve through the postcritical set stays Jordan."""
    return jordan_defect(alpha, beta) is None


def fsr_valid(alpha: Angle, beta: Angle) -> bool:
    """Whether the curve pullback scheme subdivides consistently.

    Fails exactly when some non-collapsed ray class holds two distinct points
    whose images become identified: such a pair forces an identification at
    one level that the previous level refuses, so no finite subdivision
    structure exists.  Every class holds a point on each side, so that is
    any non-collapsed class with a collapsed image, or two points on one side
    with one image point.
    """
    sys = _ray_system(alpha, beta)
    for i, cls in enumerate(sys.classes):
        if sys.essential[i]:
            continue
        if sys.essential[sys.image[i]]:
            return False
        for side in (0, 1):
            points = sys.points(side, cls)
            if len(sys.points(side, (next(iter(p)).double() for p in points))) < len(points):
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
    """A marked parameter, with the postcritical id and critical-point colour
    it carries.  Doubling maps the postcritical set into itself, so an id
    persists at every level, on a half of a critical value too: the kind is
    derived with the colour first (1/4 is ``crit-red`` with id 4 at level 1
    of (1/32, 1/2))."""

    parameter: Angle
    point_id: int | None = None
    color: Side | None = None

    @property
    def kind(self) -> MarkKind:
        if self.color is not None:
            return MarkKind.CRITICAL_POINT
        if self.point_id is not None:
            return MarkKind.POSTCRITICAL
        return MarkKind.ANCHOR if self.parameter == ZERO else MarkKind.PLUMBING

    def label(self) -> str:
        if self.kind is MarkKind.POSTCRITICAL:
            return f"p{self.point_id}"
        if self.kind is MarkKind.CRITICAL_POINT:
            return f"crit-{self.color.value}"
        return self.kind.value


@dataclass(frozen=True)
class Schedule:
    """The circularly ordered marks on the level-``level`` curve.

    ``marks`` ascend by parameter starting at 0.  Doubling maps the
    postcritical set into itself, so every level-0 postcritical parameter is
    a half of one at the level before and keeps its id at every level, on a
    critical-point mark too: the marks that carry ids are the level-0 base
    points, which ``base_points`` lists in mark order.
    """

    marks: tuple[Mark, ...]
    level: int
    black_value: Angle  # curve parameter of the black critical value (alpha)
    red_value: Angle  # curve parameter of the red critical value (1 - beta)

    @property
    def base_points(self) -> tuple[tuple[Angle, int], ...]:
        """The (parameter, id) of each mark that carries a postcritical id."""
        return tuple((m.parameter, m.point_id) for m in self.marks if m.point_id is not None)


def _base_params(alpha: Angle, beta: Angle) -> frozenset[Angle]:
    black = {a for a in alpha.orbit_info().distinct}
    red = {a.mirror() for a in beta.orbit_info().distinct}
    return frozenset(black | red)


def _point_ids(params: frozenset[Angle]) -> dict[Angle, int]:
    # ids ascend with the parameter, the anchor parameter 0 coming last
    ordered = sorted(params, key=lambda t: (t == ZERO, t))
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
    if sys.index[alpha] == sys.index[red_cv]:
        raise StructuralError(
            "critical values identified",
            f"the rays at parameters {black_cv} and {red_cv} fall in one collapsed class",
        )
    ids = _point_ids(_base_params(alpha, beta))
    marks = [Mark(t, pid) for t, pid in ids.items()]
    if ZERO not in ids:
        marks.append(Mark(ZERO))
    marks.sort(key=lambda m: m.parameter)
    return Schedule(marks=tuple(marks), level=0, black_value=black_cv, red_value=red_cv)


def pullback_schedule(s: Schedule) -> Schedule:
    """The level n+1 schedule: both halves of every level-n parameter.

    Halves of ``s.black_value`` and ``s.red_value`` become critical-point
    marks (each pair names one point, 0 or infinity); parameters that coincide
    with level-0 postcritical parameters keep their identity; the rest is plumbing.
    """
    base = dict(s.base_points)
    color = {t: side for side, value in ((Side.BLACK, s.black_value), (Side.RED, s.red_value))
             for t in value.halves()}
    marks = sorted(
        (Mark(t, base.get(t), color.get(t)) for m in s.marks for t in m.parameter.halves()),
        key=lambda m: m.parameter,
    )
    if len(marks) != 2 * len(s.marks):
        raise AssertionError("halving collided two schedule parameters")
    return Schedule(
        marks=tuple(marks), level=s.level + 1, black_value=s.black_value, red_value=s.red_value
    )
