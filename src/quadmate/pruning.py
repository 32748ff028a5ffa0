"""Pruning a lifted curve back under its sample budget.

Each pullback doubles the samples of the curve; :func:`prune` drops the
plumbing samples that bend it least, as long as no removal sweeps the
polyline across an embedded postcritical point.  The geometry is in R^3,
on the sphere points of :func:`~quadmate.ratmap.stereographic`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import replace
from itertools import compress, islice

from .ratmap import stereographic

_MARK_WINDOW = 8  # samples on each side of a mark that prune leaves alone


def _closest_on_triangle(p, a, b, c) -> tuple[float, float, float]:
    # closest-point-on-triangle (Ericson); all args are R^3 tuples
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1], x[2] - y[2])

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

    ab, ac, ap = sub(b, a), sub(c, a), sub(p, a)
    d1, d2 = dot(ab, ap), dot(ac, ap)
    if d1 <= 0 and d2 <= 0:
        return a
    bp = sub(p, b)
    d3, d4 = dot(ab, bp), dot(ac, bp)
    if d3 >= 0 and d4 <= d3:
        return b
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        if d1 == d3:  # a and b coincide to roundoff
            return a
        t = d1 / (d1 - d3)
        return tuple(a[i] + t * ab[i] for i in range(3))
    cp = sub(p, c)
    d5, d6 = dot(ab, cp), dot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return c
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        if d2 == d6:  # a and c coincide to roundoff
            return a
        t = d2 / (d2 - d6)
        return tuple(a[i] + t * ac[i] for i in range(3))
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        edge = (d4 - d3) + (d5 - d6)
        if edge == 0:  # b and c coincide to roundoff
            return b
        t = (d4 - d3) / edge
        return tuple(b[i] + t * (c[i] - b[i]) for i in range(3))
    total = va + vb + vc
    if total == 0:  # degenerate sliver; every vertex is as close as any
        return a
    denom = 1.0 / total
    s, t = vb * denom, vc * denom
    return tuple(a[i] + ab[i] * s + ac[i] * t for i in range(3))


def _sweep_clearance(g, a, b, c) -> float:
    """Clearance between a guarded sphere point and the swept triangle.

    The polyline lives on the sphere, so the region swept by replacing sample
    ``b`` with the segment a-c is the radial projection of the flat triangle;
    measuring against the projection keeps the test honest for long chords,
    whose flat triangles sag well inside the sphere.
    """
    q = _closest_on_triangle(g, a, b, c)
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2])
    if n < 0.5:
        return 0.0  # chord passes near the center: projection subtends a huge arc
    return math.dist(g, tuple(x / n for x in q))


def _deviation(prev, cur, nxt) -> float:
    """How far sample ``cur`` sticks out from the chord of its neighbors.

    The distance in R^3 from ``cur`` to the segment ``prev``-``nxt``, taken
    as ``math.hypot`` of the differences to the clamped chord point: bit for
    bit what ``math.dist`` gives, without building two tuples.
    """
    px, py, pz = prev
    cx, cy, cz = cur
    ex, ey, ez = nxt[0] - px, nxt[1] - py, nxt[2] - pz
    den = ex * ex + ey * ey + ez * ez
    if den == 0:
        return math.hypot(cx - px, cy - py, cz - pz)
    t = ((cx - px) * ex + (cy - py) * ey + (cz - pz) * ez) / den
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    return math.hypot(cx - (px + t * ex), cy - (py + t * ey), cz - (pz + t * ez))


def prune(c, budget: int, tol: float):
    """Drop plumbing samples while the polyline stays clear of the marked set.

    Samples are removed greedily by smallest deviation, the distance in R^3
    from a sample's sphere point to the chord between its neighbors' (ties
    go to the lower index); a removal is refused when the swept triangle
    comes within ``tol`` of an embedded postcritical position, so the
    homotopy type rel those points is preserved, and a refused sample is
    retried once a neighbor is removed.  Marked samples are never removed,
    and neither is a window of ``_MARK_WINDOW`` samples on each side of
    every mark: the next pullback reads fork directions from the samples
    adjacent to the critical-value marks, so those must stay genuine rather
    than interpolated.  Raises ValueError when ``budget`` is below the
    marked-sample count.

    A symmetric curve is pruned on one lap and mirrored to the other.  The
    fold applies when the sample count n is even, sample k + n/2 sits at
    exactly the negative of sample k for every k (None pairs with None), and
    samples 0 and n/2 are marked; F(-z) = F(z) makes every lifted curve that
    covers its preimage once look so.  The greedy then runs over samples
    0..n/2-1 with cyclic links over n/2, every mark's window folded mod n/2,
    guards at the postcritical positions of both laps and at their
    negatives, and a target of ``budget // 2``; lap 1 keeps the same
    indices.  The isometry (x, y, z) -> (-x, -y, z) gives twins equal
    deviations, and a twin's sweep clears a guard g exactly when its lap-0
    sample's sweep clears -g, so this is the greedy that removes twins in
    pairs.  The marks at 0 and n/2 protect the seam, so the cyclic wrap is
    never read.  An odd budget prunes a symmetric curve to ``budget - 1``.

    A heap entry whose version is current holds its sample's exact deviation,
    since a sample's neighbors change only together with its version.  Prune
    is the costliest layer of a pullback, so the guards are sorted by x,
    and a removal tests only those whose x lies within its reach of the
    sample's (``math.dist`` is at least |dx|), found by bisection.
    """
    points = c.points
    n = len(points)
    marked = c.marks
    if budget < len(marked):
        raise ValueError(f"budget {budget} below the marked-sample count {len(marked)}")
    if n <= budget:
        return c

    # the domain of the greedy: lap 0 of a symmetric curve, else all of it
    m = n // 2
    if not (
        n % 2 == 0
        and 0 in marked
        and m in marked
        and all(b == (None if a is None else -a) for a, b in zip(points, points[m:]))
    ):
        m = n
    target = budget if m == n else budget // 2
    pts = [stereographic(z) for z in islice(points, m)]
    # folded, a lap-1 guard mirrors its twin's point, and the mirrors of
    # the guards join them.  Sorted by x, so a removal tests only the guards
    # whose x lies within its reach (math.dist is at least |dx|), widened by
    # far more than the roundings of math.dist and of the window's ends
    guarded = [
        pts[i % m] for i, mark in zip(marked, c.schedule.marks) if mark.point_id is not None
    ]
    if m < n:
        guarded += [(-x, -y, z) for x, y, z in guarded]
    guarded.sort()
    gx = [g[0] for g in guarded]
    alive = bytearray(b"\x01") * m
    # one int object per index, shared by the links and the heap entries
    idx = list(range(m))
    prv = idx[-1:] + idx[:-1]
    nxt = idx[1:] + idx[:1]
    version = [0] * m
    protected = bytearray(m)
    for i in marked:
        for k in range(i - _MARK_WINDOW, i + _MARK_WINDOW + 1):
            protected[k % m] = 1

    # entries (deviation, index, version) are unique by index and version, so
    # they are totally ordered and the pop order does not depend on how the
    # heap was built.  Each is pushed once and consumed when popped, and a
    # removed sample is unlinked, so its version never moves again: an entry
    # is live exactly when its version is current
    heap = [(_deviation(pts[prv[i]], pts[i], pts[nxt[i]]), i, 0) for i in idx if not protected[i]]
    del idx
    heapq.heapify(heap)

    dist, heappop, heappush = math.dist, heapq.heappop, heapq.heappush
    count = m
    while count > target and heap:
        _, i, ver = heappop(heap)
        if ver != version[i]:
            continue
        a, b = prv[i], nxt[i]
        pa, pi, pb = pts[a], pts[i], pts[b]
        # cheap reject: the swept patch stays inside the spherical hull of the
        # triangle, itself within twice the longest edge from the apex
        reach = 2.0 * max(dist(pa, pi), dist(pi, pb)) + tol
        x, w = pi[0], reach * (1.0 + 2.0**-40)
        blocked = False
        for g in guarded[bisect_left(gx, x - w) : bisect_right(gx, x + w)]:
            if dist(g, pi) <= reach and _sweep_clearance(g, pa, pi, pb) <= tol:
                blocked = True
                break
        if blocked:
            continue  # retried once a neighbor is removed
        alive[i] = 0
        count -= 1
        # a and b are now linked: a's new deviation is read between its own
        # previous sample and b, and b's between a and its own next sample
        nxt[a], prv[b] = b, a
        version[a] += 1
        if not protected[a]:
            heappush(heap, (_deviation(pts[prv[a]], pa, pb), a, version[a]))
        version[b] += 1
        if not protected[b]:
            heappush(heap, (_deviation(pa, pb, pts[nxt[b]]), b, version[b]))


    # every mark survives, so the pruned curve carries the same schedule
    keep = alive * (n // m)
    # the dropped samples may leave the others a common factor
    params, den = list(compress(c.params, keep)), c.den
    g = math.gcd(den, *params)
    if g > 1:
        params, den = [t // g for t in params], den // g
    return replace(c, params=tuple(params), den=den, points=tuple(compress(points, keep)))
