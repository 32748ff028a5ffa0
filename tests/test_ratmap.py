"""Normalized quadratics and sphere geometry against independent oracles."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from quadmate.ratmap import (
    as_point,
    chordal,
    from_critical_values,
    from_sphere,
    stereographic,
)

finite_point = st.builds(
    complex,
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)


def random_value(rng: random.Random):
    if rng.random() < 0.05:
        return None
    # log-uniform magnitude exercises both hemispheres evenly
    r = 10.0 ** rng.uniform(-3, 3)
    phi = rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def oracle_preimages(F, w):
    """Solve (a - c w) z^2 + (b - d w) = 0 from the raw coefficients."""
    a, b, c, d = F.coeffs
    if w is None:
        lead, const = -c, -d
    else:
        lead, const = a - c * w, b - d * w
    roots = np.roots([lead, 0.0, const])
    out = [as_point(complex(z)) for z in roots]
    if len(out) == 1:  # degree dropped: one preimage escaped to infinity
        out = [out[0], None]
    if len(out) == 0:
        out = [None, None]
    return out


def legacy_preimages(F, w):
    """``NormalizedQuadratic.preimages`` as written with ``as_point`` on every value."""
    a, b, c, d = F.coeffs
    w = as_point(w)
    if w is None:
        wn, wd = 1.0 + 0.0j, 0.0j
    else:
        wn, wd = w, 1.0 + 0.0j
    num = d * wn - b * wd
    den = a * wd - c * wn
    if den == 0:
        return (None, None)
    root = cmath.sqrt(num / den)
    return (as_point(root), as_point(-root))


def bits(z):
    """A point's exact bit pattern; tells -0.0 from 0.0."""
    return None if z is None else (z.real.hex(), z.imag.hex())


any_float = st.floats(allow_nan=True, allow_infinity=True)
# anything a caller may hand preimages: infinity, zero in several types, finite
# values over the whole float range (so the Mobius step can overflow), and
# non-finite complex values
any_value = st.one_of(
    st.none(),
    st.sampled_from([0, 0.0, 0j, -0.0 + 0j, complex(1e308, 1e308), complex(-1e300, 1e-300)]),
    st.builds(complex, any_float, any_float),
    any_float,
    finite_point,
)


def near_value(F):
    """Points within 10^-e of a critical value, down to subnormal offsets.

    Near v the Mobius denominator of preimages vanishes, so the root grows
    without bound and finally overflows; near u both roots approach 0.
    """
    def offset(base, e, phase):
        step = 10.0**-e * cmath.exp(1j * phase)
        return 1.0 / step if base is None else base + step

    return st.builds(
        offset,
        st.sampled_from([F.u, F.v]),
        st.integers(min_value=0, max_value=322),
        st.floats(min_value=0, max_value=2 * math.pi),
    )


def legacy_chordal(a, b):
    """``chordal`` as written before a point past the overflow bound counted as infinity."""
    if type(a) is complex and type(b) is complex:
        d = abs(a - b)
        if d < float("inf"):
            return 2.0 * d / (
                (1.0 + a.real * a.real + a.imag * a.imag)
                * (1.0 + b.real * b.real + b.imag * b.imag)
            ) ** 0.5
    a, b = as_point(a), as_point(b)
    if a is None and b is None:
        return 0.0
    if a is None:
        a, b = b, a
    if b is None:
        return 2.0 / (1.0 + abs(a) ** 2) ** 0.5
    return 2.0 * abs(a - b) / ((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2)) ** 0.5


def legacy_stereographic(z):
    """``stereographic`` as written before the same change."""
    z = as_point(z)
    if z is None:
        return (0.0, 0.0, -1.0)
    n = abs(z) ** 2
    if not (n < float("inf")):
        return (0.0, 0.0, -1.0)
    s = 1.0 + n
    return (2.0 * z.real / s, 2.0 * z.imag / s, (1.0 - n) / s)


# any sphere point below the overflow bound of |z|^2: magnitudes from
# subnormal to 1e150, exact zeros of either sign, infinity and non-finite
# values, and plain floats
below_bound = st.one_of(
    st.none(),
    st.sampled_from([0j, -0.0 + 0j, complex(0.0, -0.0), complex(math.inf, 0.0),
                     complex(math.nan, 1.0), 1e150 + 1e150j, 0.0, 1.0]),
    st.builds(
        lambda e, phase: 10.0**e * cmath.exp(1j * phase),
        st.floats(min_value=-320, max_value=150),
        st.floats(min_value=0, max_value=2 * math.pi),
    ),
    st.builds(
        complex,
        st.floats(min_value=-1e150, max_value=1e150),
        st.floats(min_value=-1e150, max_value=1e150),
    ),
    finite_point,
)
# finite points past the bound, where abs(z) ** 2 (or abs(z) itself) overflows
past_bound = st.one_of(
    st.sampled_from([1e200 + 0j, complex(-1e160, 1e160), complex(1.5e308, 1.5e308)]),
    st.builds(
        lambda e, phase: 10.0**e * cmath.exp(1j * phase),
        st.floats(min_value=155, max_value=308),
        st.floats(min_value=0, max_value=2 * math.pi),
    ),
)


def sphere_bits(p):
    return tuple(x.hex() for x in p)


class TestConstruction:
    def test_example_map_coefficients(self):
        F = from_critical_values(1j, -1j)
        a, b, c, d = F.coeffs
        scale = a / (1 + 1j)
        assert abs(b / scale - (1j - 1)) < 1e-14
        assert abs(c / scale - (1j - 1)) < 1e-14
        assert abs(d / scale - (1 + 1j)) < 1e-14

    def test_normalization_at_the_three_probes(self):
        rng = random.Random(7)
        for _ in range(200):
            u, v = random_value(rng), random_value(rng)
            if u is None and v is None or u == v or u == 1 or v == 1:
                continue
            F = from_critical_values(u, v)
            assert chordal(F.eval(0j), u) < 1e-11
            assert chordal(F.eval(None), v) < 1e-11
            assert chordal(F.eval(1 + 0j), 1 + 0j) < 1e-11

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            from_critical_values(None, None)
        with pytest.raises(ValueError):
            from_critical_values(2j, 2j)
        with pytest.raises(ValueError):
            from_critical_values(1 + 0j, 2j)

    def test_infinite_critical_value(self):
        F = from_critical_values(None, 2j)
        assert F.eval(0j) is None
        assert chordal(F.eval(None), 2j) < 1e-12


class TestPreimages:
    def test_oracle_equivalence_bulk(self):
        # brute-force root solve from raw coefficients, 10^4 random instances
        rng = random.Random(20260823)
        checked = 0
        while checked < 10_000:
            u, v = random_value(rng), random_value(rng)
            if u is None and v is None or u == v or u == 1 or v == 1:
                continue
            F = from_critical_values(u, v)
            w = random_value(rng)
            mine = F.preimages(w)
            oracle = oracle_preimages(F, w)
            direct = chordal(mine[0], oracle[0]) + chordal(mine[1], oracle[1])
            swapped = chordal(mine[0], oracle[1]) + chordal(mine[1], oracle[0])
            assert min(direct, swapped) < 1e-10
            checked += 1

    @given(finite_point, st.one_of(st.none(), finite_point), st.data())
    def test_bit_identical_to_the_legacy_formula(self, u, v, data):
        try:
            F = from_critical_values(u, v)
        except ValueError:
            assume(False)
        w = data.draw(st.one_of(st.sampled_from([F.u, F.v]), any_value, near_value(F)))
        got, want = F.preimages(w), legacy_preimages(F, w)
        assert [bits(z) for z in got] == [bits(z) for z in want]
        if got[0] is not None:  # the exact-negation invariant lifting relies on
            assert bits(got[1]) == bits(-got[0])

    def test_preimages_are_negatives(self):
        F = from_critical_values(2j, 0.5 - 0.25j)
        p, m = F.preimages(3 + 1j)
        assert abs(p + m) < 1e-12

    def test_critical_values_have_double_preimages(self):
        F = from_critical_values(2j, 0.5 - 0.25j)
        p, m = F.preimages(2j)
        assert chordal(p, 0j) < 1e-8 and chordal(m, 0j) < 1e-8
        p, m = F.preimages(0.5 - 0.25j)
        assert p is None and m is None

    def test_round_trip_through_eval(self):
        rng = random.Random(99)
        for _ in range(300):
            u, v = random_value(rng), random_value(rng)
            if u is None and v is None or u == v or u == 1 or v == 1:
                continue
            F = from_critical_values(u, v)
            w = random_value(rng)
            for z in F.preimages(w):
                assert chordal(F.eval(z), w) < 1e-9


class TestChordal:
    def test_known_values(self):
        assert chordal(0j, 0j) == 0.0
        assert chordal(None, None) == 0.0
        assert abs(chordal(0j, None) - 2.0) < 1e-15
        assert abs(chordal(1 + 0j, -1 + 0j) - 2.0) < 1e-15
        assert abs(chordal(0j, 1 + 0j) - math.sqrt(2)) < 1e-15

    @given(finite_point, finite_point)
    def test_matches_embedded_distance(self, a, b):
        assert abs(chordal(a, b) - math.dist(stereographic(a), stereographic(b))) < 1e-9

    @given(finite_point, finite_point)
    def test_symmetric_and_bounded(self, a, b):
        d = chordal(a, b)
        assert d == chordal(b, a)
        assert 0.0 <= d <= 2.0 + 1e-12

    def test_overflowing_input_treated_as_infinity(self):
        huge = complex(1e200, 1e200)
        assert chordal(huge * huge, None) == 0.0

    @given(below_bound, below_bound)
    def test_bit_identical_to_the_legacy_formula_below_the_bound(self, a, b):
        assert chordal(a, b).hex() == legacy_chordal(a, b).hex()

    @given(past_bound, below_bound, past_bound)
    def test_past_the_bound_is_infinity(self, a, b, c):
        # the limit as |a| grows: the distance from infinity
        assert chordal(a, b) == chordal(b, a) == chordal(None, b)
        assert chordal(a, c) == 0.0

    def test_past_the_bound_examples(self):
        assert chordal(1e200 + 0j, None) == 0.0
        assert chordal(1e200 + 0j, 1 + 0j) == chordal(None, 1 + 0j) == 2.0 / 2.0**0.5
        assert chordal(1e200 + 0j, -1e200 + 0j) == 0.0
        assert chordal(1e-3 + 0j, complex(1e160, 1e160)) == chordal(1e-3 + 0j, None)


class TestStereographic:
    def test_pole_conventions(self):
        assert stereographic(0j) == (0.0, 0.0, 1.0)
        assert stereographic(None) == (0.0, 0.0, -1.0)
        assert stereographic(1 + 0j) == (1.0, 0.0, 0.0)
        assert stereographic(1j) == (0.0, 1.0, 0.0)

    @given(finite_point)
    def test_lands_on_the_unit_sphere(self, z):
        p = stereographic(z)
        assert abs(sum(x * x for x in p) - 1.0) < 1e-12

    @given(finite_point)
    def test_round_trip(self, z):
        back = from_sphere(stereographic(z))
        assert chordal(back, z) < 1e-9

    def test_infinity_round_trip(self):
        assert from_sphere(stereographic(None)) is None

    @given(below_bound)
    def test_bit_identical_to_the_legacy_formula_below_the_bound(self, z):
        assert sphere_bits(stereographic(z)) == sphere_bits(legacy_stereographic(z))

    @given(past_bound)
    def test_past_the_bound_is_the_south_pole(self, z):
        assert stereographic(z) == (0.0, 0.0, -1.0)
        with pytest.raises(OverflowError):
            legacy_stereographic(z)


class TestEval:
    def test_pole_maps_to_infinity(self):
        F = from_critical_values(2j, 3 + 0j)
        zp = F.preimages(None)[0]
        # roundoff in the root can leave the image merely astronomically large
        assert chordal(F.eval(zp), None) < 1e-7

    def test_large_argument_stability(self):
        F = from_critical_values(2j, 3 + 0j)
        assert chordal(F.eval(complex(1e200, 1e150)), 3 + 0j) < 1e-9

    def test_squaring_symmetry(self):
        F = from_critical_values(2j, 3 + 0j)
        rng = random.Random(5)
        for _ in range(100):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert chordal(F.eval(z), F.eval(-z)) < 1e-12
