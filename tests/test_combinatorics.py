"""Identification classes, structural gates, and mark schedules."""

from pathlib import Path

import pytest

from quadmate import combinatorics
from quadmate.angles import ZERO, Angle, reduce
from quadmate.combinatorics import (
    _TRACKED_CAP,
    MarkKind,
    Side,
    SideAngle,
    _RaySystem,
    base_schedule,
    fsr_valid,
    is_jordan,
    jordan_defect,
    postcritical_count,
    pullback_schedule,
)
from quadmate.errors import AngleError, StructuralError
from quadmate.lamination import colanding_class
from test_lamination import same_landing

A14, A18 = Angle(1, 4), Angle(1, 8)

# every unordered pair of the structural-gate census, with its verdict
GATE_VERDICTS = Path(__file__).resolve().parents[1] / "perfbench" / "gate_verdicts.txt"


def _glue_partner(x: SideAngle) -> SideAngle:
    """The opposing-sphere ray glued to ``x``: black t and red 1 - t."""
    other = Side.RED if x.side is Side.BLACK else Side.BLACK
    return SideAngle(other, x.angle.mirror())


def _double(x: SideAngle) -> SideAngle:
    return SideAngle(x.side, x.angle.double())


def _param(x: SideAngle) -> Angle:
    """The curve parameter of the glued ray: t for black t, 1 - s for red s."""
    return x.angle if x.side is Side.BLACK else x.angle.mirror()


class ReferenceRaySystem:
    """The ray system as built by union-find over side-tagged rays and their
    glue partners, with landing points compared pairwise by itinerary
    (``same_landing``), and the image, L and essential rules of its own."""

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
        self._build()

    def _build(self):
        seeds = [SideAngle(s, a) for s in Side for a in sorted(self._critical[s])]
        tracked: set[SideAngle] = set()
        pending = list(seeds)
        while pending:
            sa = pending.pop()
            if sa in tracked:
                continue
            tracked.add(sa)
            if len(tracked) > _TRACKED_CAP:
                raise StructuralError(
                    "ray closure overflow",
                    f"more than {_TRACKED_CAP} tracked angles for ({self.alpha}, {self.beta})",
                )
            pending.append(_glue_partner(sa))
            pending.append(_double(sa))
            pending.extend(SideAngle(sa.side, a) for a in self._coland(sa))
        self.tracked = tracked

        parent: dict[SideAngle, SideAngle] = {sa: sa for sa in tracked}

        def find(x: SideAngle) -> SideAngle:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: SideAngle, y: SideAngle):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for sa in tracked:
            union(sa, _glue_partner(sa))
            for a in self._coland(sa):
                union(sa, SideAngle(sa.side, a))

        blocks: dict[SideAngle, set[SideAngle]] = {}
        for sa in tracked:
            blocks.setdefault(find(sa), set()).add(sa)
        ordered = sorted(blocks.values(), key=lambda b: min(b, key=SideAngle.sort_key).sort_key())
        self.classes = tuple(frozenset(b) for b in ordered)
        self.index = {sa: i for i, c in enumerate(self.classes) for sa in c}

        self.image = tuple(self._image_of(c) for c in self.classes)
        self._l_flags = tuple(self._is_l(c) for c in self.classes)
        self.essential = tuple(self._is_essential(i) for i in range(len(self.classes)))

    def _coland(self, sa: SideAngle) -> frozenset[Angle]:
        return colanding_class(self._theta[sa.side], sa.angle)

    def _image_of(self, cls: frozenset[SideAngle]) -> int:
        targets = {self.index[_double(sa)] for sa in cls}
        if len(targets) != 1:
            raise AssertionError("doubling split a ray class")
        return targets.pop()

    def is_postcritical(self, sa: SideAngle) -> bool:
        return sa.angle in self._postcritical[sa.side]

    def same_point(self, x: SideAngle, y: SideAngle) -> bool:
        return x.side is y.side and same_landing(self._theta[x.side], x.angle, y.angle)

    def point_groups(self, cls: frozenset[SideAngle]) -> list[frozenset[SideAngle]]:
        groups: list[set[SideAngle]] = []
        for sa in sorted(cls, key=SideAngle.sort_key):
            for g in groups:
                if self.same_point(sa, next(iter(g))):
                    g.add(sa)
                    break
            else:
                groups.append({sa})
        return [frozenset(g) for g in groups]

    def _is_l(self, cls: frozenset[SideAngle]) -> bool:
        # two or more distinct postcritical points joined by one ray graph
        count = sum(
            1 for g in self.point_groups(cls) if any(self.is_postcritical(sa) for sa in g)
        )
        return count >= 2

    def _is_essential(self, i: int) -> bool:
        # touches a critical orbit, and some forward iterate is an L class
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


def _verdict_rows():
    with GATE_VERDICTS.open() as fh:
        rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    assert len(rows) == 3486
    return rows


def reference_kind(t, base, black_halves, red_halves) -> MarkKind:
    """The kind ``pullback_schedule`` gave the half ``t`` when it stored
    each mark's kind: a half of a critical value first, then a base point,
    then the anchor; the rest is plumbing."""
    if t in black_halves or t in red_halves:
        return MarkKind.CRITICAL_POINT
    if t in base:
        return MarkKind.POSTCRITICAL
    if t == ZERO:
        return MarkKind.ANCHOR
    return MarkKind.PLUMBING


def sa(side: str, text: str) -> SideAngle:
    return SideAngle(Side(side), Angle.parse(text))


class TestBaseSchedule:
    def test_five_postcritical_parameters(self):
        s = base_schedule(A14, A18)
        assert s.level == 0
        assert [str(m.parameter) for m in s.marks] == ["0", "1/4", "1/2", "3/4", "7/8"]
        assert all(m.kind is MarkKind.POSTCRITICAL for m in s.marks)
        assert s.black_value == Angle(1, 4)
        assert s.red_value == Angle(7, 8)
        assert postcritical_count(A14, A18) == 5

    def test_point_ids_ascend_anchor_last(self):
        s = base_schedule(A14, A18)
        assert dict(s.base_points) == {
            Angle(1, 4): 1,
            Angle(1, 2): 2,
            Angle(3, 4): 3,
            Angle(7, 8): 4,
            Angle(0, 1): 5,
        }

    def test_anchor_added_when_zero_not_postcritical(self):
        # both orbits of (1/6, 1/6) avoid parameter 0
        s = base_schedule(Angle(1, 6), Angle(1, 6))
        params = [str(m.parameter) for m in s.marks]
        assert "0" in params
        (anchor,) = [m for m in s.marks if m.parameter == Angle(0, 1)]
        assert anchor.kind is MarkKind.ANCHOR
        assert anchor.point_id is None

    def test_identified_critical_values_rejected(self):
        with pytest.raises(StructuralError, match="critical values identified"):
            base_schedule(A14, Angle(3, 4))

    def test_periodic_rejected(self):
        with pytest.raises(AngleError):
            base_schedule(Angle(1, 3), A18)


class TestPullbackSchedule:
    def test_level_one_golden(self):
        s1 = pullback_schedule(base_schedule(A14, A18))
        table = [(str(m.parameter), m.kind) for m in s1.marks]
        assert table == [
            ("0", MarkKind.POSTCRITICAL),
            ("1/8", MarkKind.CRITICAL_POINT),
            ("1/4", MarkKind.POSTCRITICAL),
            ("3/8", MarkKind.PLUMBING),
            ("7/16", MarkKind.CRITICAL_POINT),
            ("1/2", MarkKind.POSTCRITICAL),
            ("5/8", MarkKind.CRITICAL_POINT),
            ("3/4", MarkKind.POSTCRITICAL),
            ("7/8", MarkKind.POSTCRITICAL),
            ("15/16", MarkKind.CRITICAL_POINT),
        ]
        crit = [m for m in s1.marks if m.kind is MarkKind.CRITICAL_POINT]
        black = {str(m.parameter) for m in crit if m.color is Side.BLACK}
        red = {str(m.parameter) for m in crit if m.color is Side.RED}
        assert black == {"1/8", "5/8"}
        assert red == {"7/16", "15/16"}

    def test_doubles_mark_count_each_level(self):
        s = base_schedule(A14, A18)
        for _ in range(4):
            s_next = pullback_schedule(s)
            assert len(s_next.marks) == 2 * len(s.marks)
            assert s_next.level == s.level + 1
            s = s_next

    def test_parameters_halve(self):
        s0 = base_schedule(A14, A18)
        s1 = pullback_schedule(s0)
        doubled = {m.parameter.double() for m in s1.marks}
        assert doubled == {m.parameter for m in s0.marks}

    def test_critical_point_that_is_postcritical(self):
        # at level 1 of (1/32, 1/2) the red critical point at 1/4 is also
        # postcritical point 4: the colour decides its kind, the id stays
        s1 = pullback_schedule(base_schedule(Angle(1, 32), Angle(1, 2)))
        (mark,) = [m for m in s1.marks if m.parameter == A14]
        assert (mark.kind, mark.color, mark.point_id) == (MarkKind.CRITICAL_POINT, Side.RED, 4)
        assert mark.label() == "crit-red"

    def test_kinds_match_the_reference_on_every_accepted_pair(self):
        # doubling maps the postcritical set into itself, so at every level
        # the marks that carry ids are the level-0 base points
        pairs = [(a, b) for a, b, verdict in _verdict_rows() if verdict == "accepted"]
        assert len(pairs) == 564
        for alpha, beta in pairs:
            s0 = s = base_schedule(Angle.parse(alpha), Angle.parse(beta))
            base = dict(s0.base_points)
            halves = s0.black_value.halves(), s0.red_value.halves()
            for _ in range(3):
                s = pullback_schedule(s)
                assert s.base_points == s0.base_points
                for m in s.marks:
                    assert m.kind is reference_kind(m.parameter, base, *halves)
                    assert m.point_id == base.get(m.parameter)

    def test_base_parameters_keep_their_ids(self):
        s0 = base_schedule(A14, A18)
        s1 = pullback_schedule(s0)
        base = dict(s0.base_points)
        for m in s1.marks:
            if m.parameter in base:
                assert m.point_id == base[m.parameter]


class TestGates:
    def test_example_pair_passes(self):
        assert is_jordan(A14, A18)
        assert fsr_valid(A14, A18)
        assert jordan_defect(A14, A18) is None

    def test_pinched_pair_fails_jordan(self):
        defect = jordan_defect(Angle(1, 6), Angle(13, 14))
        assert defect is not None
        assert defect == frozenset(
            {
                sa("black", "1/7"),
                sa("black", "2/7"),
                sa("black", "4/7"),
                sa("red", "3/7"),
                sa("red", "5/7"),
                sa("red", "6/7"),
            }
        )

    def test_subdivision_gate_regression(self):
        # frozen from a brute-force search: the curve stays Jordan, but a
        # ray class holds two distinct points whose images merge, forcing an
        # identification the previous level refuses
        assert is_jordan(reduce(1, 32), reduce(1, 12))
        assert not fsr_valid(reduce(1, 32), reduce(1, 12))

    def test_small_postcritical_counts(self):
        assert postcritical_count(A14, A14) == 4
        assert postcritical_count(Angle(1, 6), Angle(1, 6)) == 4


class TestClosureGuard:
    # (1/4, 1/8) tracks 18 rays: 9 parameters, each a black and a red ray
    def test_a_cap_below_the_tracked_rays_refuses(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_TRACKED_CAP", 17)
        with pytest.raises(StructuralError, match="ray closure overflow"):
            _RaySystem(A14, A18)

    def test_a_cap_at_the_tracked_rays_builds(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_TRACKED_CAP", 18)
        _RaySystem(A14, A18)


def _table_pairs():
    return [(alpha, beta) for alpha, beta, _ in _verdict_rows()[::10]]


class TestRayClassOracle:
    """The one-pass ray classes against the union-find reference."""

    @staticmethod
    def check(alpha: str, beta: str):
        alpha, beta = Angle.parse(alpha), Angle.parse(beta)
        got, want = _RaySystem(alpha, beta), ReferenceRaySystem(alpha, beta)
        # a class never separates a glued pair, so it is a set of parameters
        assert {_param(x) for x in want.tracked} == got.tracked
        assert len(want.tracked) == 2 * len(got.tracked)
        assert got.classes == tuple(frozenset(map(_param, c)) for c in want.classes)
        assert got.index == {_param(x): i for x, i in want.index.items()}
        assert got.image == want.image
        assert got.essential == want.essential
        # the landing points on each side, as parameter sets
        for cls, want_cls in zip(got.classes, want.classes):
            for k, side in enumerate(Side):
                groups = want.point_groups(frozenset(x for x in want_cls if x.side is side))
                assert got.points(k, cls) == {frozenset(map(_param, g)) for g in groups}

    def test_every_tenth_table_pair(self):
        pairs = _table_pairs()
        assert len(pairs) == 349
        for alpha, beta in pairs:
            self.check(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [("1/4", "1/1022"), ("5/18", "1/22")])
    def test_deep_pairs(self, alpha, beta):
        # landing periods 9 and 10
        self.check(alpha, beta)

    def test_examples(self):
        for alpha, beta in (("1/4", "1/8"), ("1/6", "13/14"), ("1/32", "1/12"), ("1/6", "1/6")):
            self.check(alpha, beta)
