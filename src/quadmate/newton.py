"""The Newton finish of the pullback iteration.

The pullback contracts only linearly.  Near its fixed point, Newton's method
on the critical-orbit relations F_{u,v}(p_t) = p_{2t} of the embedded
postcritical points converges quadratically, so :func:`finish` polishes the
curve's embedding onto the solution and checks it by one confirming pullback
(necessary, but no certificate of the isotopy class: see ``_NEWTON_MOVE``).
``engine.iterate`` decides when to try it; standard library only.
"""

from __future__ import annotations

import cmath
from dataclasses import replace

from .angles import ZERO, Angle
from .combinatorics import Schedule
from .engine import (
    DiscreteCurve,
    IterateOptions,
    IterationRecord,
    _collision,
    _pullback,
    read_critical_values,
)
from .errors import NumericError, StructuralError
from .ratmap import SpherePoint, chordal, coefficient_jet, from_critical_values

# A point that moves further than _NEWTON_MOVE has jumped to another solution
# of the relations: seen early in the runs of (9/10, 9/10) and (19/32, 13/16),
# where the confirming pullback refused it.  It also refuses roots that pass
# that pullback: the mirrored (1/4, 1/8) map from level 0, and six census
# pairs' other maps when every record tries a finish.  An accepted finish
# moves points far less (0.032 on (1/4, 1/8)).
_NEWTON_MOVE = 0.25
_NEWTON_RESIDUAL = 1e-13  # largest chordal |F(p_t) - p_{2t}| accepted
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


def _polish(curve: DiscreteCurve) -> dict[Angle, complex] | None:
    """The Newton solution near the curve's embedding, or None when refused.

    Refused unless the relation residual (the largest chordal distance
    between F(p_t) and p_{2t}) is below ``_NEWTON_RESIDUAL``, no postcritical
    point moves more than ``_NEWTON_MOVE`` and no two of them collide.
    """
    s0 = curve.schedule
    before = {t: curve.point_at(t) for t, _ in s0.base_points}
    solved = solve_relations(s0, before)
    if solved is None:
        return None
    position = {**_pinned(s0), **solved}
    try:
        F = from_critical_values(position[s0.black_value], position[s0.red_value])
    except ValueError:
        return None
    residual = max(chordal(F.eval(z), position[t.double()]) for t, z in solved.items())
    moved = max(chordal(before[t], z) for t, z in solved.items())
    if not (residual < _NEWTON_RESIDUAL and moved <= _NEWTON_MOVE):
        return None
    if _collision({pid: position[t] for t, pid in s0.base_points}) is not None:
        return None
    return solved


def finish(
    curve: DiscreteCurve, opts: IterateOptions
) -> list[tuple[IterationRecord, DiscreteCurve]] | None:
    """The records n+1 and n+2 of an accepted Newton finish, with their curves.

    ``curve`` is the level-n curve of record n, whose schedule gives the
    relations.  Its postcritical samples move onto the Newton solution of
    the critical-orbit relations (record n+1, phase ``"newton"``); one
    pullback through the polished map (record n+2, phase ``"confirm"``) must
    then leave every postcritical point within ``opts.tol`` of where the
    solution put it: necessary, not sufficient, for the fixed point of this
    curve's isotopy class (see ``_NEWTON_MOVE``).  None when the finish is
    refused; a failure of the confirming pullback is a refusal, not an error.
    """
    target = _polish(curve)
    if target is None:
        return None
    level = curve.schedule.level + 1
    points = list(curve.points)
    for t, z in target.items():
        points[curve.index(t)] = z
    polished = replace(curve, points=tuple(points), schedule=replace(curve.schedule, level=level))
    u, v = read_critical_values(curve)
    try:
        pu, pv = read_critical_values(polished)
        confirmed, before = _pullback(polished, opts.budget)
        cu, cv = read_critical_values(confirmed)
    except (NumericError, StructuralError):
        return None
    if not all(
        chordal(confirmed.point_at(t), z) < opts.tol for t, z in target.items()
    ):
        return None
    size = len(polished.params)
    newton = IterationRecord(
        level, pu, pv, size, size, chordal(u, pu) + chordal(v, pv), "newton"
    )
    confirm = IterationRecord(
        level + 1, cu, cv, before, len(confirmed.params),
        chordal(pu, cu) + chordal(pv, cv), "confirm",
    )
    return [(newton, polished), (confirm, confirmed)]
