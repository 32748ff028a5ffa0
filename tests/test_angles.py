"""Exact rational angle arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadmate.angles import Angle, cyclic_between, in_open_arc, reduce
from quadmate.errors import AngleError


def _fraction(a: Angle) -> Fraction:
    return Fraction(a.num, a.den)


rational = st.builds(
    lambda p, q: reduce(p, q),
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=1, max_value=500),
)


class TestConstruction:
    def test_reduce_normalizes(self):
        assert reduce(2, 4) == Angle(1, 2)
        assert reduce(5, 4) == Angle(1, 4)
        assert reduce(-1, 4) == Angle(3, 4)
        assert reduce(8, 4) == Angle(0, 1)

    def test_parse(self):
        assert Angle.parse("3/8") == Angle(3, 8)
        assert Angle.parse(" 0 ") == Angle(0, 1)
        assert Angle.parse("9/6") == Angle(1, 2)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1//2", "1/2/3", "0.5"])
    def test_parse_rejects(self, bad):
        with pytest.raises(AngleError):
            Angle.parse(bad)

    def test_raw_constructor_insists_on_canonical_form(self):
        with pytest.raises(AngleError):
            Angle(2, 4)
        with pytest.raises(AngleError):
            Angle(5, 4)
        with pytest.raises(AngleError):
            Angle(1, -2)
        with pytest.raises(AngleError):
            Angle(0, 2)

    @given(rational)
    def test_always_canonical(self, a):
        assert 0 <= a.num < a.den
        assert Fraction(a.num, a.den).denominator == a.den


class TestCanonicalConstruction:
    """``reduce`` and ``double`` build without the validating constructor, so
    their results are checked against ``Angle(...)`` built from ``Fraction``."""

    @given(
        st.integers(min_value=-(2**80), max_value=2**80),
        st.builds(
            lambda odd, k, sign: sign * odd << k,
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=0, max_value=70),
            st.sampled_from([1, -1]),
        ),
    )
    def test_reduce_and_double_match_fractions(self, p, q):
        f = Fraction(p, q) % 1
        a = reduce(p, q)
        assert a == Angle(f.numerator, f.denominator)
        f = 2 * f % 1
        assert a.double() == Angle(f.numerator, f.denominator)


class TestDoubling:
    def test_known_orbit(self):
        # 1/8 -> 1/4 -> 1/2 -> 0 -> 0
        info = Angle(1, 8).orbit_info()
        assert info.preperiod == 3
        assert info.period == 1
        assert info.distinct == [Angle(1, 8), Angle(1, 4), Angle(1, 2), Angle(0, 1)]

    def test_periodic_orbit(self):
        # 1/6 -> 1/3 -> 2/3 -> 1/3
        info = Angle(1, 6).orbit_info()
        assert info.preperiod == 1
        assert info.period == 2

    @given(rational)
    def test_halves_invert_doubling(self, a):
        lo, hi = a.halves()
        assert lo.double() == a
        assert hi.double() == a
        assert lo != hi
        assert _fraction(lo) < Fraction(1, 2) <= _fraction(hi)

    @given(rational)
    def test_doubling_matches_fractions(self, a):
        assert _fraction(a.double()) == (2 * _fraction(a)) % 1

    @given(rational)
    def test_preperiodic_iff_even_denominator(self, a):
        # walk the orbit directly as the oracle
        info = a.orbit_info()
        strictly = info.preperiod > 0
        assert a.is_preperiodic() == strictly
        assert strictly == (a.den % 2 == 0)

    @given(rational)
    def test_mirror_involution(self, a):
        assert a.mirror().mirror() == a
        assert (_fraction(a) + _fraction(a.mirror())) % 1 == 0


class TestOrdering:
    @given(rational, rational)
    def test_matches_fraction_order(self, a, b):
        assert (a < b) == (_fraction(a) < _fraction(b))
        assert (a == b) == (_fraction(a) == _fraction(b))

    @given(rational, rational, rational)
    def test_cyclic_between_oracle(self, a, b, c):
        if len({a, b, c}) < 3:
            with pytest.raises(AngleError):
                cyclic_between(a, b, c)
            return
        fa, fb, fc = map(_fraction, (a, b, c))
        assert cyclic_between(a, b, c) == ((fb - fa) % 1 < (fc - fa) % 1)

    def test_open_arc_excludes_endpoints(self):
        lo, hi = Angle(1, 4), Angle(3, 4)
        assert in_open_arc(Angle(1, 2), lo, hi)
        assert not in_open_arc(lo, lo, hi)
        assert not in_open_arc(hi, lo, hi)
        assert not in_open_arc(Angle(7, 8), lo, hi)
