"""Orthographic SVG figures of embedded curves on the Riemann sphere.

The curve is mapped through the stereographic embedding and projected onto
the plane orthogonal to the view axis.  Segments on the far hemisphere are
drawn translucent so their paths stay readable behind the sphere; marked
points carry their schedule labels.  Output is a pure function of the curve
and view, so identical input yields byte-identical SVG.
"""

from __future__ import annotations

import math

from .engine import DiscreteCurve
from .ratmap import stereographic

Vec3 = tuple[float, float, float]

# camera axes chosen so 1 sits to the right and -1 to the left; the oblique
# view additionally pushes i to the rear right
DEFAULT_VIEWS: dict[str, Vec3] = {
    "poles-front": (0.0, -1.0, 0.0),
    "equator-front": (0.0, 0.0, 1.0),
    "oblique": (0.35, -1.0, 0.45),
}

_SIZE = 420
_RADIUS = 190.0
_FAR_OPACITY = 0.35


def _normalize(v: Vec3) -> Vec3:
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if n == 0:
        raise ValueError("view axis must be nonzero")
    return (v[0] / n, v[1] / n, v[2] / n)


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _frame(view: Vec3) -> tuple[Vec3, Vec3, Vec3]:
    """Camera basis (right, up, toward-camera) for a camera on the view axis."""
    cam = _normalize(view)
    world_up = (0.0, 0.0, 1.0) if abs(cam[2]) < 0.9 else (0.0, 1.0, 0.0)
    forward = (-cam[0], -cam[1], -cam[2])
    right = _normalize(_cross(forward, world_up))
    up = _cross(right, forward)
    return right, up, cam


def _project(p: Vec3, frame: tuple[Vec3, Vec3, Vec3]) -> tuple[float, float, float]:
    right, up, cam = frame

    def dot(a: Vec3, b: Vec3) -> float:
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    half = _SIZE / 2.0
    return (
        half + _RADIUS * dot(p, right),
        half - _RADIUS * dot(p, up),
        dot(p, cam),
    )


def _fmt(x: float) -> str:
    return "%.4f" % x


def render_sphere(c: DiscreteCurve, view: Vec3) -> str:
    """One SVG 1.1 document showing the curve from the given view axis."""
    frame = _frame(view)
    pts = [_project(stereographic(z), frame) for z in c.points]
    half = _SIZE / 2.0

    # split the closed polyline into maximal near-side and far-side runs,
    # classifying each segment by the depth of its midpoint
    runs: list[tuple[bool, list[tuple[float, float]]]] = []
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        near = (a[2] + b[2]) >= 0.0
        if runs and runs[-1][0] == near:
            runs[-1][1].append((b[0], b[1]))
        else:
            runs.append((near, [(a[0], a[1]), (b[0], b[1])]))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<circle cx="{_fmt(half)}" cy="{_fmt(half)}" r="{_fmt(_RADIUS)}" '
        'fill="none" stroke="#bbbbbb" stroke-width="1"/>',
    ]
    for pass_near in (False, True):  # far side first, so the near side overdraws
        for near, coords in runs:
            if near != pass_near:
                continue
            points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
            opacity = "1.0" if near else str(_FAR_OPACITY)
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="#1f4fa0" '
                f'stroke-width="1.2" stroke-opacity="{opacity}"/>'
            )
    for i, mark in zip(c.marks, c.schedule.marks):
        if mark.point_id is None and mark.color is None:
            continue
        x, y, depth = pts[i]
        opacity = "1.0" if depth >= 0 else str(_FAR_OPACITY)
        color = "#c03030" if mark.color is not None else "#202020"
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}" '
            f'fill-opacity="{opacity}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 5.0)}" y="{_fmt(y - 5.0)}" font-size="11" '
            f'font-family="monospace" fill="{color}" fill-opacity="{opacity}">'
            f"{mark.label()}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_views(c: DiscreteCurve) -> dict[str, str]:
    """The three default figures, keyed by view name."""
    return {name: render_sphere(c, axis) for name, axis in DEFAULT_VIEWS.items()}
