"""Identification classes, structural gates, and mark schedules."""

from pathlib import Path

import pytest

from quadmate.angles import Angle, reduce
from quadmate.combinatorics import (
    _TRACKED_CAP,
    MarkKind,
    Side,
    SideAngle,
    _RaySystem,
    base_schedule,
    essential_classes,
    fsr_valid,
    is_jordan,
    jordan_defect,
    postcritical_count,
    pullback_schedule,
)
from quadmate.errors import AngleError, StructuralError
from quadmate.lamination import same_landing

A14, A18 = Angle(1, 4), Angle(1, 8)

# every unordered pair of the structural-gate census, with its verdict
GATE_VERDICTS = Path(__file__).resolve().parents[1] / "perfbench" / "gate_verdicts.txt"


class ReferenceRaySystem(_RaySystem):
    """The ray system as built by union-find over the tracked set, with landing
    points compared pairwise by itinerary (``same_landing``)."""

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
            pending.append(sa.glue_partner())
            pending.append(sa.double())
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
            union(sa, sa.glue_partner())
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


def sa(side: str, text: str) -> SideAngle:
    return SideAngle(Side(side), Angle.parse(text))


class TestSideAngle:
    def test_param(self):
        assert sa("black", "1/4").param() == Angle(1, 4)
        assert sa("red", "1/8").param() == Angle(7, 8)
        assert sa("red", "0").param() == Angle(0, 1)

    def test_glue_partner_is_involutive(self):
        x = sa("black", "3/8")
        assert x.glue_partner() == sa("red", "5/8")
        assert x.glue_partner().glue_partner() == x

    def test_glued_pair_shares_its_parameter(self):
        x = sa("black", "5/16")
        assert x.param() == x.glue_partner().param()


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
        anchor = s.mark_at(Angle(0, 1))
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
        s1 = pullback_schedule(base_schedule(A14, A18), A14, A18)
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
        black = {str(m.parameter) for m in s1.critical_marks(Side.BLACK)}
        red = {str(m.parameter) for m in s1.critical_marks(Side.RED)}
        assert black == {"1/8", "5/8"}
        assert red == {"7/16", "15/16"}

    def test_doubles_mark_count_each_level(self):
        s = base_schedule(A14, A18)
        for _ in range(4):
            s_next = pullback_schedule(s, A14, A18)
            assert len(s_next.marks) == 2 * len(s.marks)
            assert s_next.level == s.level + 1
            s = s_next

    def test_parameters_halve(self):
        s0 = base_schedule(A14, A18)
        s1 = pullback_schedule(s0, A14, A18)
        doubled = {m.parameter.double() for m in s1.marks}
        assert doubled == {m.parameter for m in s0.marks}

    def test_base_parameters_keep_their_ids(self):
        s0 = base_schedule(A14, A18)
        s1 = pullback_schedule(s0, A14, A18)
        base = dict(s0.base_points)
        for m in s1.marks:
            if m.parameter in base:
                assert m.point_id == base[m.parameter]


class TestEssentialClasses:
    def test_partition_covers_postcritical_angles(self):
        classes = essential_classes(A14, A18)
        members = [x for c in classes for x in c.members]
        assert len(members) == len(set(members))
        black = {a for a in A14.orbit_info().distinct}
        red = {a for a in A18.orbit_info().distinct}
        covered = set(members)
        for a in black:
            assert SideAngle(Side.BLACK, a) in covered
        for a in red:
            assert SideAngle(Side.RED, a) in covered

    def test_images_index_into_the_partition(self):
        classes = essential_classes(A14, A18)
        for c in classes:
            assert 0 <= c.image < len(classes)
            target = classes[c.image].members
            for x in c.members:
                assert x.double() in target


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


def _table_pairs():
    with GATE_VERDICTS.open() as fh:
        rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    assert len(rows) == 3486
    return [(alpha, beta) for alpha, beta, _ in rows[::10]]


class TestRayClassOracle:
    """The one-pass ray classes against the union-find reference."""

    @staticmethod
    def check(alpha: str, beta: str):
        alpha, beta = Angle.parse(alpha), Angle.parse(beta)
        got, want = _RaySystem(alpha, beta), ReferenceRaySystem(alpha, beta)
        assert got.tracked == want.tracked
        assert got.classes == want.classes
        assert got.index == want.index
        assert got.image == want.image
        assert got.essential == want.essential
        for cls in want.classes:
            assert got.point_groups(cls) == want.point_groups(cls)
        # landing-point identity agrees on every pair of one class's points
        for cls in want.classes:
            members = sorted(cls, key=SideAngle.sort_key)
            for x in members:
                for y in members:
                    assert got.same_point(x, y) == want.same_point(x, y)

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
