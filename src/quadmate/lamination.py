"""Which external angles land together, and limb membership in parameter space.

For a strictly preperiodic characteristic angle ``theta`` the Julia set is a
dendrite and two rational external rays land at the same point exactly when
their angles have identical symbolic itineraries with respect to the critical
leaf ``{theta/2, theta/2 + 1/2}``.  Angles whose orbit hits a leaf endpoint get
the boundary symbol (they land on the critical point's backward orbit).

The leaf pullback here is the usual invariant-lamination construction: each
generation consists of the two non-crossing preimage leaves of the previous
generation, sorted by the side-of-critical-leaf test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .angles import Angle, in_open_arc, reduce
from .errors import AngleError


@dataclass(frozen=True)
class Leaf:
    """An unordered chord of the circle, stored with ``a < b``."""

    a: Angle
    b: Angle

    def __post_init__(self):
        if self.a == self.b:
            raise AngleError("leaf endpoints must be distinct")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    def crosses(self, other: "Leaf") -> bool:
        """Strict interleaving of endpoint pairs; shared endpoints do not cross."""
        if {self.a, self.b} & {other.a, other.b}:
            return False
        inside = in_open_arc(other.a, self.a, self.b)
        return inside != in_open_arc(other.b, self.a, self.b)


def _require_preperiodic(theta: Angle):
    if not theta.is_preperiodic():
        raise AngleError(f"angle {theta} is periodic; a strictly preperiodic angle is required")


def critical_leaf(theta: Angle) -> Leaf:
    """The chord joining the two doubling preimages of ``theta``."""
    _require_preperiodic(theta)
    lo, hi = theta.halves()
    return Leaf(lo, hi)


def side(theta: Angle, t: Angle) -> int | None:
    """Which side of the critical leaf ``t`` falls on.

    Returns 1 for the open arc containing ``theta`` itself, 0 for the opposite
    arc, and None when ``t`` is an endpoint of the critical leaf.
    """
    return _side(theta.num, theta.den, t.num, t.den)


def _side(tn: int, td: int, num: int, den: int) -> int | None:
    """:func:`side` for ``theta = tn/td`` and ``t = num/den``, in integers.

    The leaf joins theta/2 and theta/2 + 1/2, and theta/2 lies in [0, 1/2), so
    ``t`` is on theta's side exactly when theta < 2t < theta + 1; equality
    means a leaf endpoint.  ``num/den`` need not be reduced.
    """
    twice = 2 * td * num
    lo = tn * den
    hi = lo + td * den
    if twice == lo or twice == hi:
        return None
    return 1 if lo < twice < hi else 0


def colanding_class(theta: Angle, t: Angle) -> frozenset[Angle]:
    """All rational angles whose rays land at the same point as the ray at ``t``.

    The class depends on ``theta`` and ``t`` only, so each class found is kept,
    under every member, in one map per ``theta`` that lives for the process.
    A new class is the lift of its image's class: the halves of its angles on
    ``t``'s side of the critical leaf, or all of them when the image class
    holds ``theta`` (the critical point's class, which holds the leaf
    endpoints), recursing along the doubling orbit to a known class or a
    closed cycle.
    Where the cycle closes, at ray period p, the class is the angles
    k/(2^p - 1) with its itinerary, found by :func:`_periodic_class`, a digit
    search that visits a few prefixes per digit instead of all 2^p - 1
    candidates; so the search runs once per cycle.
    """
    _require_preperiodic(theta)
    known = _class_map(theta)
    seen: dict[Angle, None] = {}  # the orbit of t up to a known class or a repeat
    a = t
    while a not in known and a not in seen:
        seen[a] = None
        a = a.double()
    path = list(seen)
    if a not in known:  # the orbit closed its cycle at a
        _enter(known, a, _periodic_class(theta, path[path.index(a) :]))
    for x in reversed(path):
        if x not in known:
            # the critical point is the one preimage of theta's landing point
            crit, want = theta in known[a], side(theta, x)
            _enter(known, x, frozenset(
                h for y in known[a] for h in y.halves() if crit or side(theta, h) == want
            ))
        a = x
    return known[t]


@lru_cache(maxsize=None)
def _class_map(theta: Angle) -> dict[Angle, frozenset[Angle]]:
    """The co-landing classes found so far for ``theta``, keyed by each member."""
    return {}


def _enter(known: dict[Angle, frozenset[Angle]], t: Angle, cls: frozenset[Angle]):
    if t not in cls:
        raise AssertionError(f"co-landing class of {t} failed to contain it")
    known.update(dict.fromkeys(cls, cls))


def _periodic_class(theta: Angle, cycle: list[Angle]) -> frozenset[Angle]:
    """The angles of period dividing p = len(cycle) with the cycle's itinerary.

    Depth-first search over the binary digits d1 d2 ... dp of k/(2^p - 1).
    With d1..dm fixed, the j-th shift (j < m) lies in the dyadic interval
    [0.d_{j+1}..d_m, 0.d_{j+1}..d_m + 2^-(m-j)].  Once that interval lies
    wholly on one side of the critical leaf, the shift's symbol is settled:
    the prefix is dropped if it is the wrong one, and the shift is not looked
    at again otherwise.  Each survivor at depth p is checked exactly against
    the whole itinerary.  Periodic angles have odd denominators and the leaf
    endpoints even ones, so no shift is an endpoint and no symbol is None.
    """
    tn, td = theta.num, theta.den
    want = [side(theta, a) for a in cycle]
    p = len(cycle)
    denom = (1 << p) - 1
    # the shift's interval [a/2^r, (a + 1)/2^r] against the leaf endpoints
    # tn/(2 td) and (tn + td)/(2 td), all multiplied by 2 td 2^r
    span = 2 * td
    found: set[Angle] = set()
    stack = [(0, 0, ())]  # (m, value of d1..dm, shifts j < m not yet settled)
    while stack:
        m, prefix, unsettled = stack.pop()
        if m == p:
            # shift j of k/(2^p - 1) rotates k's p digits left by j
            if all(
                _side(tn, td, ((prefix << j) | (prefix >> (p - j))) & denom, denom) == w
                for j, w in enumerate(want)
            ):
                found.add(reduce(prefix, denom))
            continue
        m += 1
        for value in (2 * prefix, 2 * prefix + 1):
            still = []
            for j in (*unsettled, m - 1):
                r = m - j
                left = (value & ((1 << r) - 1)) * span
                right = left + span
                lo, hi = tn << r, (tn + td) << r
                inside = lo <= left and right <= hi  # symbol 1
                if inside or right <= lo or left >= hi:  # settled
                    if inside != want[j]:
                        break
                else:
                    still.append(j)
            else:
                stack.append((m, value, still))
    return frozenset(found)


def pullback_lamination(theta: Angle, depth: int) -> set[Leaf]:
    """The finite-depth invariant lamination generated by the critical leaf.

    Generation 1 is the critical leaf; each leaf at generation k < depth
    contributes its two non-crossing preimage leaves, paired by the
    side-of-critical-leaf test.
    """
    _require_preperiodic(theta)
    if depth <= 0:
        raise AngleError("depth must be positive")
    crit = critical_leaf(theta)
    leaves = {crit}
    generation = [crit]
    for _ in range(depth - 1):
        next_gen = []
        for leaf in generation:
            by_side: dict[int, list[Angle]] = {0: [], 1: []}
            for endpoint in (leaf.a, leaf.b):
                for half in endpoint.halves():
                    s = side(theta, half)
                    if s is None:
                        raise AssertionError(
                            f"leaf endpoint {endpoint} lifted onto the critical leaf"
                        )
                    by_side[s].append(half)
            for s in (0, 1):
                pair = by_side[s]
                if len(pair) != 2:
                    raise AssertionError("preimage endpoints not split evenly by the critical leaf")
                next_gen.append(Leaf(pair[0], pair[1]))
        leaves.update(next_gen)
        generation = next_gen
    return leaves


@dataclass(frozen=True)
class LimbId:
    """A limb of the Mandelbrot set, named by its internal rotation number."""

    rotation: Angle

    def __post_init__(self):
        if self.rotation.num == 0 or self.rotation.den < 2:
            raise AngleError(f"invalid limb rotation {self.rotation}")

    def conjugate(self) -> "LimbId":
        return LimbId(self.rotation.mirror())

    def __str__(self) -> str:
        return str(self.rotation)


@lru_cache(maxsize=None)
def wake(limb: LimbId) -> tuple[Angle, Angle]:
    """The pair of period-q angles bounding the p/q-limb wake.

    Both angles share the itinerary of the p/q rotation (Goldberg, "Fixed
    points of polynomial maps I", 1992; Bullett and Sentenac, "Ordered orbits
    of the shift", 1994): digit k = 1 ... q-2 is 1 exactly when the rotation
    point kp/q lies in the last p/q of the circle, and the lower angle ends in
    the digits 01, the upper one in 10.
    """
    p, q = limb.rotation.num, limb.rotation.den
    prefix = 0
    for k in range(1, q - 1):
        prefix = 2 * prefix + (k * p % q >= q - p)
    modulus = (1 << q) - 1
    return reduce(4 * prefix + 1, modulus), reduce(4 * prefix + 2, modulus)


def limb_of(theta: Angle) -> LimbId | None:
    """The smallest-period limb whose wake strictly contains ``theta``.

    Periods q are tried up to ``max(16, 1 + bit length of theta's
    denominator)``; None when no wake up to that period contains ``theta``.
    Each wake costs O(q) integer steps, so the search is polynomial in the
    bit length.
    """
    _require_preperiodic(theta)
    for q in range(2, max(16, theta.den.bit_length() + 1) + 1):
        for p in range(1, q):
            if reduce(p, q).den != q:
                continue
            lo, hi = wake(LimbId(reduce(p, q)))
            if in_open_arc(theta, lo, hi):
                return LimbId(reduce(p, q))
    return None


def mateable_detail(alpha: Angle, beta: Angle) -> tuple[bool, LimbId | None, LimbId | None]:
    """The conjugate-limb test together with the two limb assignments."""
    _require_preperiodic(alpha)
    _require_preperiodic(beta)
    la, lb = limb_of(alpha), limb_of(beta)
    ok = la is None or lb is None or lb != la.conjugate()
    return ok, la, lb


def mateable(alpha: Angle, beta: Angle) -> bool:
    """The conjugate-limb obstruction test for existence of the geometric mating."""
    return mateable_detail(alpha, beta)[0]
