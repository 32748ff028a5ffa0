"""Normalized degree-2 rational maps and Riemann-sphere geometry.

A point on the sphere is a Python complex number, with ``None`` standing for
infinity.  The normalized quadratic has critical points 0 and infinity,
critical values u and v, and fixes 1; it is stored through the coefficients of
F(z) = (a z^2 + b) / (c z^2 + d), which also covers the degenerate shapes
where u or v is infinity.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

SpherePoint = complex | None  # None is the point at infinity

# construction self-check: the coefficient forms must reproduce the
# normalization F(0)=u, F(inf)=v, F(1)=1 to roundoff
_NORMALIZATION_TOL = 1e-12


def as_point(z: SpherePoint) -> SpherePoint:
    """Collapse numeric overflow onto the point at infinity."""
    if z is None:
        return None
    z = complex(z)
    if not (cmath.isfinite(z)):
        return None
    return z


def _on_sphere(z: SpherePoint) -> tuple[SpherePoint, float]:
    """``as_point(z)`` with its |z|^2, taken as ``abs(z) ** 2``.

    A finite point past the overflow bound (|z| above about 1.34e154, where
    ``abs(z) ** 2`` raises) counts as infinity, the limit it stands next to.
    """
    z = as_point(z)
    if z is not None:
        try:
            return z, abs(z) ** 2
        except OverflowError:
            pass
    return None, float("inf")


def _root_product(qa: float, qb: float) -> float:
    """``(qa * qb) ** 0.5``, taking the two roots apart when the product overflows."""
    q = qa * qb
    return q ** 0.5 if q < float("inf") else qa ** 0.5 * qb ** 0.5


def chordal(a: SpherePoint, b: SpherePoint) -> float:
    """Chordal distance on the sphere, range [0, 2]; 2 between antipodes."""
    if type(a) is complex and type(b) is complex:
        qa = 1.0 + a.real * a.real + a.imag * a.imag
        qb = 1.0 + b.real * b.real + b.imag * b.imag
        if qa < float("inf") and qb < float("inf"):
            return 2.0 * abs(a - b) / _root_product(qa, qb)
    (a, na), (b, nb) = _on_sphere(a), _on_sphere(b)
    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        return 2.0 / (1.0 + (nb if a is None else na)) ** 0.5
    return 2.0 * abs(a - b) / _root_product(1.0 + na, 1.0 + nb)


def stereographic(z: SpherePoint) -> tuple[float, float, float]:
    """Embed onto the unit sphere: 0 at the north pole, infinity at the south.

    A ``complex``, the common case in ``prune``, skips
    :func:`as_point`: |z|^2 is ``abs(z) ** 2`` as in :func:`_on_sphere`, and
    it is finite only for a finite point below the overflow bound.
    """
    if type(z) is complex:
        try:
            n = abs(z) ** 2
        except OverflowError:
            n = cmath.inf
    else:
        z, n = _on_sphere(z)
    if not n < cmath.inf:
        return (0.0, 0.0, -1.0)
    s = 1.0 + n
    return (2.0 * z.real / s, 2.0 * z.imag / s, (1.0 - n) / s)


def from_sphere(p: tuple[float, float, float]) -> SpherePoint:
    """Inverse of :func:`stereographic`."""
    x, y, zc = p
    denom = 1.0 + zc
    if denom <= 1e-300:
        return None
    return complex(x / denom, y / denom)


def _coefficients(u: SpherePoint, v: SpherePoint) -> tuple[complex, complex, complex, complex]:
    if u is None:
        return (v, -(v - 1), 1.0 + 0.0j, 0.0j)
    if v is None:
        return (u - 1, -u, 0.0j, -1.0 + 0.0j)
    return ((u - 1) * v, -u * (v - 1), u - 1, -(v - 1))


def coefficient_jet(u: SpherePoint, v: SpherePoint):
    """The coefficients (a, b, c, d) of F_{u,v} with their derivatives in u and in v.

    The derivatives in an infinite critical value are zero: the coefficient
    form then divides it out, so it is a fixed point, not an unknown.
    """
    if u is None:
        du, dv = (0, 0, 0, 0), (1, -1, 0, 0)
    elif v is None:
        du, dv = (1, -1, 0, 0), (0, 0, 0, 0)
    else:
        du, dv = (v, 1 - v, 1, 0), (u - 1, -u, 0, -1)
    return _coefficients(u, v), du, dv


@dataclass(frozen=True)
class NormalizedQuadratic:
    """F with critical values u at 0 and v at infinity, fixing 1.

    Build through :func:`from_critical_values`; the raw constructor trusts its
    coefficient arguments.
    """

    u: SpherePoint
    v: SpherePoint
    coeffs: tuple[complex, complex, complex, complex] = field(repr=False)

    def eval(self, z: SpherePoint) -> SpherePoint:
        """F(z), evaluated projectively so poles and infinity are exact."""
        a, b, c, d = self.coeffs
        z = as_point(z)
        if z is None:
            z2, w2 = 1.0 + 0.0j, 0.0j
        else:
            # scale the homogeneous square to dodge overflow at large |z|
            m = abs(z)
            if m > 1.0:
                z2, w2 = (z / m) ** 2, complex(1.0 / (m * m))
            else:
                z2, w2 = z * z, 1.0 + 0.0j
        num = a * z2 + b * w2
        den = c * z2 + d * w2
        if den == 0:
            return None
        return as_point(num / den)

    def preimages(self, w: SpherePoint) -> tuple[SpherePoint, SpherePoint]:
        """The two solutions of F(z) = w, coincident exactly at u and v.

        Solving the coefficient form for z^2 gives a Mobius image of w; the
        principal square root is returned first, its negative second.  The
        pair is always ``(root, -root)``: exact negatives, or both None when
        the root is not finite (``-root`` is finite exactly when ``root`` is).
        Lifting relies on that to share work between the two candidates.
        """
        (root,) = self.roots((w,))
        return (None, None) if root is None else (root, -root)

    def roots(self, ws) -> list[SpherePoint]:
        """The first of :meth:`preimages` for each point of ``ws``, in one call.

        A finite w solves ``(d w - b) / (a - c w)`` for z^2 and infinity
        ``(d - b 0) / (a 0 - c)``, both in the homogeneous form
        ``(d wn - b wd) / (a wd - c wn)``.  For finite w, ``a wd`` and
        ``b wd`` (wd = 1 + 0j) are formed once per call: the same products,
        so the same bits, signed zeros included.
        """
        a, b, c, d = self.coeffs
        one = 1.0 + 0.0j
        a1, b1 = a * one, b * one
        out = []
        isfinite, sqrt = cmath.isfinite, cmath.sqrt
        for w in ws:
            if type(w) is not complex or not isfinite(w):
                w = as_point(w)
            if w is None:
                num, den = d * one - b * 0j, a * 0j - c * one
            else:
                num, den = d * w - b1, a1 - c * w
            root = None if den == 0 else sqrt(num / den)
            out.append(root if root is not None and isfinite(root) else None)
        return out


def from_critical_values(u: SpherePoint, v: SpherePoint) -> NormalizedQuadratic:
    """The unique normalized quadratic with the given pair of critical values."""
    u, v = as_point(u), as_point(v)
    if u is None and v is None:
        raise ValueError("degenerate critical values: both infinite")
    if u is not None and v is not None and u == v:
        raise ValueError(f"degenerate critical values: u = v = {u}")
    if u == 1 or v == 1:
        raise ValueError("normalization collision: critical value at the fixed point 1")
    F = NormalizedQuadratic(u=u, v=v, coeffs=_coefficients(u, v))
    for probe, expect in ((0.0 + 0.0j, u), (None, v), (1.0 + 0.0j, 1.0 + 0.0j)):
        err = chordal(F.eval(probe), expect)
        if err > _NORMALIZATION_TOL:
            raise ValueError(
                f"normalization self-check failed at {probe}: off by {err:.3e}"
            )
    return F
