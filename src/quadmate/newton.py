"""The critical-orbit relations of the pullback's fixed point, solved by Newton.

The embedded postcritical points of a mating's map satisfy F_{u,v}(p_t) =
p_{2t}.  Near its fixed point the pullback contracts only linearly, while
Newton's method on these relations converges quadratically:
:func:`solve_relations` takes the curve's embedding to the solution.
``engine.iterate`` decides when to try it, and ``engine.finish`` whether to
accept what it returns; standard library only.
"""

from __future__ import annotations

import cmath

from .angles import ZERO, Angle
from .combinatorics import Schedule
from .ratmap import SpherePoint, coefficient_jet

_NEWTON_STEPS = 20
_NEWTON_STEP_TOL = 1e-15  # relative size of the Newton step that ends it
_SINGULAR_PIVOT = 1e-14  # pivot, relative to the largest entry, deemed zero


def _solve_linear(rows: list[list[complex]], rhs: list[complex]) -> list[complex] | None:
    """Solve ``rows @ x = rhs`` by Gaussian elimination with partial pivoting.

    Returns None when a pivot vanishes relative to the largest entry (a
    singular or non-finite system).
    """
    n = len(rhs)
    m = [row[:] + [r] for row, r in zip(rows, rhs)]
    scale = max((abs(x) for row in rows for x in row), default=0.0)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if not abs(m[p][k]) > _SINGULAR_PIVOT * scale:
            return None
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n + 1):
                m[i][j] -= f * m[k][j]
    x = [0j] * n
    for k in reversed(range(n)):
        x[k] = (m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n))) / m[k][k]
    return x


def _pinned(s0: Schedule) -> dict[Angle, SpherePoint]:
    """Parameters whose position the normalization fixes.

    The anchor sits at 1, and a parameter that halves a critical value is a
    critical point: 0 for the black value, infinity for the red.
    """
    pinned: dict[Angle, SpherePoint] = {ZERO: 1.0 + 0.0j}
    pinned.update((t, 0.0 + 0.0j) for t in s0.black_value.halves())
    pinned.update((t, None) for t in s0.red_value.halves())
    return pinned


def solve_relations(s0: Schedule, embedded: dict[Angle, SpherePoint]) -> dict[Angle, complex] | None:
    """Newton's method on the critical-orbit relations, from ``embedded``.

    The unknowns are the positions p_t of the base parameters t that the
    normalization leaves free (see :func:`_pinned`); the equations are
    F_{u,v}(p_t) = p_{2t} with u = p_{black_value} and v = p_{red_value},
    each written through the coefficient form as
    (a p_t^2 + b) - p_{2t} (c p_t^2 + d) = 0 (projectively when p_{2t} is
    infinity) with the analytic Jacobian.  Returns the solved positions keyed
    by parameter, or None when a position is infinite or the Jacobian is
    singular.  Whether the result solves the relations is for the caller to
    check.
    """
    pinned = _pinned(s0)
    free = [t for t, _ in s0.base_points if t not in pinned]
    col = {t: k for k, t in enumerate(free)}
    image = [col.get(t.double()) for t in free]
    iu, iv = col.get(s0.black_value), col.get(s0.red_value)
    x = [embedded[t] for t in free]
    for _ in range(_NEWTON_STEPS):
        if not all(z is not None and cmath.isfinite(z) for z in x):
            return None
        u = pinned[s0.black_value] if iu is None else x[iu]
        v = pinned[s0.red_value] if iv is None else x[iv]
        (a, b, c, d), du, dv = coefficient_jet(u, v)
        rows, rhs = [], []
        for k, (t, z) in enumerate(zip(free, x)):
            # p_{2t} as the homogeneous pair (wn : wd)
            w = pinned[t.double()] if image[k] is None else x[image[k]]
            wn, wd = (1.0, 0.0) if w is None else (w, 1.0)
            z2 = z * z
            row = [0j] * len(x)
            row[k] += 2 * z * (wd * a - wn * c)
            if image[k] is not None:
                row[image[k]] -= c * z2 + d
            for i, (da, db, dc, dd) in ((iu, du), (iv, dv)):
                if i is not None:
                    row[i] += wd * (da * z2 + db) - wn * (dc * z2 + dd)
            rows.append(row)
            rhs.append(wd * (a * z2 + b) - wn * (c * z2 + d))
        step = _solve_linear(rows, rhs)
        if step is None:
            return None
        x = [z - dz for z, dz in zip(x, step)]
        if max(abs(dz) for dz in step) <= _NEWTON_STEP_TOL * max(1.0, *map(abs, x)):
            break
    if not all(cmath.isfinite(z) for z in x):
        return None
    return dict(zip(free, x))
