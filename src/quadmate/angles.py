"""Exact arithmetic on rational angles modulo 1.

Angles are the universal combinatorial coordinate of the whole package:
external angles of the two polynomials, curve parameters, wake boundaries.
Everything here is exact integer arithmetic; the doubling map ``t -> 2t mod 1``
never enlarges a reduced denominator, so orbits terminate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from math import gcd

from .errors import AngleError


@total_ordering
@dataclass(frozen=True, slots=True)
class Angle:
    """A reduced rational ``num/den`` with ``0 <= num/den < 1``.

    Construct through :func:`reduce` or :meth:`Angle.parse`; the raw
    constructor insists the representation is already canonical so that
    angles compare structurally and hash as dict keys.
    """

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise AngleError(f"denominator must be positive, got {self.den}")
        if not 0 <= self.num < self.den:
            raise AngleError(f"numerator {self.num} out of range for denominator {self.den}")
        if gcd(self.num, self.den) != 1 and self.num != 0:
            raise AngleError(f"{self.num}/{self.den} is not reduced")
        if self.num == 0 and self.den != 1:
            raise AngleError("zero must be represented as 0/1")

    @staticmethod
    def parse(text: str) -> "Angle":
        """Parse ``"p/q"`` (or a bare integer such as ``"0"``)."""
        text = text.strip()
        try:
            if "/" in text:
                p_str, q_str = text.split("/")
                return reduce(int(p_str), int(q_str))
            return reduce(int(text), 1)
        except (ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, AngleError):
                raise
            raise AngleError(f"cannot parse angle {text!r}") from exc

    def __str__(self) -> str:
        return "0" if self.num == 0 else f"{self.num}/{self.den}"

    def __lt__(self, other: "Angle") -> bool:
        return self.num * other.den < other.num * self.den

    def __float__(self) -> float:
        return self.num / self.den

    def double(self) -> "Angle":
        """The image ``2a mod 1`` under the angle-doubling map."""
        # num/den is reduced: an odd den keeps 2 num coprime to it, and an even
        # den makes num odd, so num/(den/2) is reduced too (1/2 -> 0/1)
        if self.den % 2:
            return _canonical(2 * self.num % self.den, self.den)
        half = self.den // 2
        return _canonical(self.num % half, half)

    def half(self, lap: int) -> "Angle":
        """The preimage ``(a + lap)/2`` under doubling, for ``lap`` 0 or 1."""
        num = self.num + lap * self.den
        # num/den is reduced, so num/(2 den) can only lose a factor 2 and the
        # result is canonical without the gcd check of __post_init__
        if num % 2:
            return _canonical(num, 2 * self.den)
        return _canonical(num // 2, self.den)

    def halves(self) -> tuple["Angle", "Angle"]:
        """The two preimages under doubling, the first in ``[0, 1/2)``."""
        return self.half(0), self.half(1)

    def mirror(self) -> "Angle":
        """The reflection ``1 - a mod 1`` (opposing-angle identification)."""
        return reduce(-self.num, self.den)

    def is_preperiodic(self) -> bool:
        """True iff the doubling orbit is strictly preperiodic (even denominator)."""
        return self.den % 2 == 0

    def orbit_info(self) -> "OrbitInfo":
        """Preperiod, period and the doubling orbit up to the first repeat."""
        seen: dict[Angle, int] = {}
        orbit: list[Angle] = []
        a = self
        while a not in seen:
            seen[a] = len(orbit)
            orbit.append(a)
            a = a.double()
        first = seen[a]
        orbit.append(a)
        return OrbitInfo(preperiod=first, period=len(orbit) - 1 - first, orbit=orbit)


ZERO = Angle(0, 1)


@dataclass(frozen=True)
class OrbitInfo:
    preperiod: int
    period: int
    orbit: list[Angle]

    @property
    def distinct(self) -> list[Angle]:
        """The orbit without the trailing repeat."""
        return self.orbit[: self.preperiod + self.period]


# the slot descriptors set the fields past the frozen __setattr__
_set_num, _set_den = Angle.num.__set__, Angle.den.__set__


def _canonical(num: int, den: int) -> Angle:
    """An ``Angle`` built without validation, for ``num/den`` known to be canonical."""
    a = object.__new__(Angle)
    _set_num(a, num)
    _set_den(a, den)
    return a


def reduce(p: int, q: int) -> Angle:
    """The angle ``(p mod q)/q`` in lowest terms."""
    if q == 0:
        raise AngleError("denominator must be nonzero")
    if q < 0:
        p, q = -p, -q
    p %= q
    g = gcd(p, q)
    # dividing out the gcd leaves the canonical form; gcd(0, q) = q gives 0/1
    return _canonical(p // g, q // g)


def cyclic_between(a: Angle, b: Angle, c: Angle) -> bool:
    """True iff walking counterclockwise from ``a`` meets ``b`` before ``c``."""
    if a == b or b == c or a == c:
        raise AngleError("cyclic_between requires pairwise distinct angles")
    # (b - a) mod 1 against (c - a) mod 1, over the common denominator d
    d = a.den * b.den * c.den
    na = a.num * b.den * c.den
    return (b.num * a.den * c.den - na) % d < (c.num * a.den * b.den - na) % d


def in_open_arc(t: Angle, lo: Angle, hi: Angle) -> bool:
    """True iff ``t`` lies strictly inside the counterclockwise arc from ``lo`` to ``hi``."""
    if t == lo or t == hi:
        return False
    return cyclic_between(lo, t, hi)
