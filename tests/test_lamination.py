"""Co-landing combinatorics, laminations, and limb membership."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quadmate.angles import Angle, cyclic_between, reduce
from quadmate.errors import AngleError
from quadmate.lamination import (
    Leaf,
    LimbId,
    colanding_class,
    critical_leaf,
    limb_of,
    mateable,
    pullback_lamination,
    side,
    wake,
)
from quadmate.lamination import _class_map, _periodic_class, _require_preperiodic

preperiodic = st.builds(
    lambda p, q: reduce(p, q),
    st.integers(min_value=1, max_value=300),
    st.sampled_from([2, 4, 6, 8, 10, 12, 16, 20, 24, 32]),
).filter(lambda a: a.is_preperiodic())

rational = st.builds(
    lambda p, q: reduce(p, q),
    st.integers(min_value=0, max_value=8191),
    st.sampled_from(
        [1, 3, 5, 7, 9, 15, 2, 4, 6, 8, 12, 16, 24, 32, 48, 56, 60, 1023, 2046, 4095]
    ),
)


def reference_side(theta: Angle, t: Angle) -> int | None:
    """``side`` by its definition: the counterclockwise arc (theta/2, theta/2 + 1/2)."""
    lo, hi = theta.halves()
    if t in (lo, hi):
        return None
    return 1 if cyclic_between(lo, t, hi) else 0


def scan_classes(theta: Angle, preperiod: int, period: int) -> dict[Angle, frozenset[Angle]]:
    """The brute-force scan: every angle k/(2^preperiod (2^period - 1)), grouped by
    its first preperiod + period symbols, which fix its whole itinerary."""
    denom = (1 << preperiod) * ((1 << period) - 1)
    classes: dict[tuple, set[Angle]] = {}
    for k in range(denom):
        a = b = reduce(k, denom)
        word = []
        for _ in range(preperiod + period):
            word.append(reference_side(theta, b))
            b = b.double()
        classes.setdefault(tuple(word), set()).add(a)
    return {a: frozenset(cls) for cls in classes.values() for a in cls}


def reference_wake(limb: LimbId) -> tuple[Angle, Angle]:
    """The pair of period-q angles bounding the p/q-limb wake.

    Brute force over angles with denominator ``2^q - 1``: find the unique
    period-q cycle whose circular order is rigid rotation by p/q, then take
    the narrowest gap between circularly adjacent cycle members (the gap
    through angle 0 is never a wake).
    """
    p, q = limb.rotation.num, limb.rotation.den
    modulus = (1 << q) - 1
    seen: set[int] = set()
    for k in range(1, modulus):
        if k in seen:
            continue
        cycle = [k]
        cur = (2 * k) % modulus
        while cur != k:
            cycle.append(cur)
            cur = (2 * cur) % modulus
        seen.update(cycle)
        if len(cycle) != q:
            continue
        ordered = sorted(cycle)
        position = {v: i for i, v in enumerate(ordered)}
        shifts = {(position[(2 * v) % modulus] - position[v]) % q for v in cycle}
        if shifts != {p}:
            continue
        gaps = [(ordered[i + 1] - ordered[i], i) for i in range(q - 1)]
        _, i = min(gaps)
        return (reduce(ordered[i], modulus), reduce(ordered[i + 1], modulus))
    raise AssertionError(f"no rotation cycle found for {limb.rotation}")


def same_landing(theta: Angle, s: Angle, t: Angle) -> bool:
    """True iff the rays at angles ``s`` and ``t`` land at the same Julia-set point.

    Exact itinerary comparison: the pair orbit under simultaneous doubling is
    eventually periodic, so equality of the two symbol streams is decidable in
    finitely many steps.  Where the symbols first differ, both rays may still
    land at the critical point, whose rays double onto those landing with
    ``theta``; theta's own orbit never meets the critical point.  The
    pairwise oracle for :func:`colanding_class`, which shares none of its
    code beyond :func:`side`.
    """
    _require_preperiodic(theta)
    split = _first_split(theta, s, t)
    return split is None or all(_first_split(theta, x.double(), theta) is None for x in split)


def _first_split(theta: Angle, s: Angle, t: Angle) -> tuple[Angle, Angle] | None:
    """The first pair of the orbit of ``(s, t)`` on different sides of the leaf."""
    seen: set[tuple[Angle, Angle]] = set()
    pair = (s, t)
    while pair not in seen:
        seen.add(pair)
        if side(theta, pair[0]) != side(theta, pair[1]):
            return pair
        pair = (pair[0].double(), pair[1].double())
    return None




def limbs(max_q: int) -> list[LimbId]:
    """Every limb p/q with q <= ``max_q``, in order of q then p."""
    return [
        LimbId(reduce(p, q)) for q in range(2, max_q + 1) for p in range(1, q) if gcd(p, q) == 1
    ]


class TestLeaf:
    def test_orients_endpoints(self):
        leaf = Leaf(Angle(3, 4), Angle(1, 4))
        assert leaf.a == Angle(1, 4)
        assert leaf.b == Angle(3, 4)

    def test_crossing(self):
        chord = Leaf(Angle(1, 8), Angle(1, 2))
        assert chord.crosses(Leaf(Angle(1, 4), Angle(3, 4)))
        assert not chord.crosses(Leaf(Angle(5, 8), Angle(3, 4)))
        # shared endpoints never cross
        assert not chord.crosses(Leaf(Angle(1, 2), Angle(3, 4)))

    def test_rejects_degenerate(self):
        with pytest.raises(AngleError):
            Leaf(Angle(1, 4), Angle(1, 4))


class TestSameLanding:
    def test_requires_preperiodic_theta(self):
        with pytest.raises(AngleError):
            same_landing(Angle(1, 3), Angle(1, 4), Angle(1, 2))

    def test_critical_leaf_endpoints_coland(self):
        theta = Angle(1, 4)
        lo, hi = theta.halves()
        assert same_landing(theta, lo, hi)

    def test_separated_angles_do_not(self):
        assert not same_landing(Angle(1, 4), Angle(1, 16), Angle(1, 2))

    @settings(max_examples=60)
    @given(preperiodic, rational, rational, rational)
    def test_equivalence_relation(self, theta, a, b, c):
        assert same_landing(theta, a, a)
        assert same_landing(theta, a, b) == same_landing(theta, b, a)
        if same_landing(theta, a, b) and same_landing(theta, b, c):
            assert same_landing(theta, a, c)

    @settings(max_examples=40)
    @given(preperiodic, rational)
    def test_colanding_class_is_the_fiber(self, theta, t):
        cls = colanding_class(theta, t)
        assert t in cls
        for other in cls:
            assert same_landing(theta, t, other)

    @settings(max_examples=30)
    @given(preperiodic, rational, rational)
    def test_classes_never_interleave(self, theta, s, t):
        # distinct landing points have disjoint, unlinked ray bundles
        if same_landing(theta, s, t):
            return
        ca, cb = colanding_class(theta, s), colanding_class(theta, t)
        assert not (ca & cb)
        # rays in the plane cannot cross, so every chord spanned by one class
        # is unlinked from every chord spanned by the other
        for x in ca:
            for y in ca:
                if x == y:
                    continue
                for z in cb:
                    for w in cb:
                        if z != w:
                            assert not Leaf(x, y).crosses(Leaf(z, w))


class TestColandingOracle:
    @settings(max_examples=200)
    @given(st.data(), st.one_of(preperiodic, rational))
    def test_side_matches_definition(self, data, theta):
        t = data.draw(st.one_of(rational, st.sampled_from(theta.halves())))
        assert side(theta, t) == reference_side(theta, t)

    @pytest.mark.parametrize("theta", ["1/4", "1/8", "5/18", "1/10", "9/10", "7/24", "1/22"])
    def test_digit_search_matches_scan(self, theta):
        theta = Angle.parse(theta)
        checked = 0
        # every angle of period at most 10, and those of preperiod 1 or 2
        # and period at most 6 to cover the backward lift
        for preperiod, max_period in ((0, 10), (1, 6), (2, 6)):
            for period in range(1, max_period + 1):
                scanned = scan_classes(theta, preperiod, period)
                for t, want in scanned.items():
                    info = t.orbit_info()
                    if (info.preperiod, info.period) == (preperiod, period):
                        assert colanding_class(theta, t) == want, t
                        # colanding_class searches digits once per cycle, so
                        # the search is checked at every cycle point directly
                        if preperiod == 0:
                            assert _periodic_class(theta, info.orbit[:-1]) == want, t
                        checked += 1
        # 1965 periodic angles, 105 of preperiod 1 and 210 of preperiod 2
        assert checked == 2280


class TestClassMap:
    def test_one_angle_under_two_thetas(self):
        # the map is kept per theta: under 1/4 (c = i) the ray 1/7 lands at
        # the alpha fixed point with 2/7 and 4/7, and 1/14 at a preimage of
        # it; under 1/2 (c = -2) every ray lands with its mirror image
        under = {
            "1/4": {"1/14": {"1/14", "9/14", "11/14"}, "1/7": {"1/7", "2/7", "4/7"}},
            "1/2": {"1/14": {"1/14", "13/14"}, "1/7": {"1/7", "6/7"}},
        }
        for order in (["1/4", "1/2"], ["1/2", "1/4"]):
            _class_map.cache_clear()
            for t in ("1/14", "1/7"):
                for theta in order:
                    got = colanding_class(Angle.parse(theta), Angle.parse(t))
                    assert got == {Angle.parse(a) for a in under[theta][t]}, (theta, t)


    def test_doubling_maps_each_class_onto_a_class(self):
        # every theta with an even denominator up to 64, and every t whose
        # denominator is theta's or twice it: the image of t's class is the
        # class of 2t, also where t lands at the critical point
        thetas = sorted({reduce(p, q) for q in range(2, 65, 2) for p in range(1, q)})
        thetas = [theta for theta in thetas if theta.is_preperiodic()]
        checked = 0
        for theta in thetas:
            for q in (theta.den, 2 * theta.den):
                for p in range(1, q):
                    if gcd(p, q) == 1:
                        t = Angle(p, q)
                        image = {x.double() for x in colanding_class(theta, t)}
                        assert image == colanding_class(theta, t.double()), (theta, t)
                        checked += 1
        assert (len(thetas), checked) == (435, 24399)

    def test_critical_point_takes_every_half_of_the_critical_value(self):
        # the critical value of 9/56 lands with 11/56 and 15/56, so all six
        # of their halves land at the critical point, leaf endpoints or not
        theta = Angle(9, 56)
        critical = {reduce(n, 112) for n in (9, 11, 15, 65, 67, 71)}
        for t in critical:
            assert colanding_class(theta, t) == critical
            assert all(same_landing(theta, s, t) for s in critical)
            assert not same_landing(theta, reduce(13, 112), t)


class TestPullbackLamination:
    @settings(max_examples=25, deadline=None)
    @given(preperiodic, st.integers(min_value=1, max_value=6))
    def test_no_two_leaves_cross(self, theta, depth):
        leaves = sorted(pullback_lamination(theta, depth), key=lambda l: (l.a, l.b))
        for i, x in enumerate(leaves):
            for y in leaves[i + 1 :]:
                assert not x.crosses(y)

    def test_counts_double_each_generation(self):
        theta = Angle(1, 4)
        for depth in range(1, 6):
            leaves = pullback_lamination(theta, depth)
            assert len(leaves) == 2**depth - 1

    def test_contains_critical_leaf(self):
        theta = Angle(1, 8)
        assert critical_leaf(theta) in pullback_lamination(theta, 4)


class TestWakes:
    # classical wake boundaries, readable off the Mandelbrot set
    GOLDEN = {
        (1, 2): (Angle(1, 3), Angle(2, 3)),
        (1, 3): (Angle(1, 7), Angle(2, 7)),
        (2, 3): (Angle(5, 7), Angle(6, 7)),
        (1, 4): (Angle(1, 15), Angle(2, 15)),
        (3, 4): (Angle(13, 15), Angle(14, 15)),
        (2, 5): (Angle(9, 31), Angle(10, 31)),
    }

    @pytest.mark.parametrize("pq,bounds", sorted(GOLDEN.items()))
    def test_golden_wakes(self, pq, bounds):
        assert wake(LimbId(reduce(*pq))) == bounds

    def test_limb_membership(self):
        assert limb_of(Angle(1, 4)) == LimbId(Angle(1, 3))
        assert limb_of(Angle(1, 8)) == LimbId(Angle(1, 4))
        assert limb_of(Angle(3, 4)) == LimbId(Angle(2, 3))
        assert limb_of(Angle(13, 14)) == LimbId(Angle(3, 4))

    def test_conjugate_limb(self):
        assert LimbId(Angle(1, 3)).conjugate() == LimbId(Angle(2, 3))

    def test_matches_enumeration(self):
        checked = limbs(16)
        assert len(checked) == 79
        for limb in checked:
            assert wake(limb) == reference_wake(limb), limb

    def test_rotation_family_and_mirror(self):
        for q in range(2, 65):
            modulus = (1 << q) - 1
            assert wake(LimbId(reduce(1, q))) == (reduce(1, modulus), reduce(2, modulus))
        for limb in limbs(64):
            lo, hi = wake(limb)
            assert lo < hi, limb
            assert wake(limb.conjugate()) == (hi.mirror(), lo.mirror()), limb


class TestMateable:
    def test_conjugate_limbs_rejected(self):
        assert not mateable(Angle(1, 4), Angle(3, 4))

    def test_same_limb_allowed(self):
        assert mateable(Angle(1, 4), Angle(1, 4))

    def test_distinct_limbs_allowed(self):
        assert mateable(Angle(1, 4), Angle(1, 8))
