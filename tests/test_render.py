"""SVG figure generation."""

import math
import re
from dataclasses import replace

import pytest

from quadmate.angles import Angle
from quadmate.combinatorics import base_schedule, pullback_schedule
from quadmate.engine import (
    init_embedding,
    pullback_curve,
    read_critical_values,
)
from quadmate.ratmap import from_critical_values
from quadmate.render import DEFAULT_VIEWS, render_sphere, render_views
from quadmate.serialize import dump_curve, load_curve

A14, A18 = Angle(1, 4), Angle(1, 8)


@pytest.fixture(scope="module")
def level0():
    return init_embedding(base_schedule(A14, A18), 16)


def polyline_points(svg: str) -> list[tuple[float, float]]:
    pts = []
    for m in re.finditer(r'<polyline points="([^"]+)"', svg):
        for pair in m.group(1).split():
            x, y = pair.split(",")
            pts.append((float(x), float(y)))
    return pts


class TestRenderSphere:
    def test_valid_svg_skeleton(self, level0):
        svg = render_sphere(level0, DEFAULT_VIEWS["oblique"])
        assert svg.startswith('<?xml version="1.0"')
        assert 'xmlns="http://www.w3.org/2000/svg"' in svg
        assert 'version="1.1"' in svg
        assert svg.rstrip().endswith("</svg>")

    def test_level_zero_is_a_great_circle(self, level0):
        # the equator viewed pole-on projects onto the sphere outline
        svg = render_sphere(level0, DEFAULT_VIEWS["equator-front"])
        pts = polyline_points(svg)
        assert len(pts) > 16
        for x, y in pts:
            assert abs(math.hypot(x - 210.0, y - 210.0) - 190.0) < 0.01

    def test_marked_points_labeled(self, level0):
        svg = render_sphere(level0, DEFAULT_VIEWS["poles-front"])
        for label in ("p1", "p2", "p3", "p4", "p5"):
            assert f">{label}</text>" in svg

    def test_far_side_translucent(self, level0):
        svg = render_sphere(level0, DEFAULT_VIEWS["poles-front"])
        assert 'stroke-opacity="0.35"' in svg
        assert 'stroke-opacity="1.0"' in svg

    def test_deterministic(self, level0):
        view = DEFAULT_VIEWS["oblique"]
        assert render_sphere(level0, view) == render_sphere(level0, view)

    def test_orientation_one_right_minus_one_left(self, level0):
        # p5 marks parameter 0 (position 1), p2 marks 1/2 (position -1)
        for name in ("poles-front", "oblique"):
            svg = render_sphere(level0, DEFAULT_VIEWS[name])
            x_of = {
                m.group(2): float(m.group(1))
                for m in re.finditer(r'<text x="([0-9.]+)"[^>]*>(p\d)</text>', svg)
            }
            assert x_of["p5"] > 210.0 > x_of["p2"]

    def test_infinity_renders_at_the_south_pole(self):
        s0 = base_schedule(A14, A18)
        c0 = init_embedding(s0, 16)
        u, v = read_critical_values(c0)
        c1 = pullback_curve(c0, from_critical_values(u, v), pullback_schedule(s0))
        svg = render_sphere(c1, DEFAULT_VIEWS["poles-front"])
        # south pole projects to the bottom of the outline circle
        assert "210.0000,400.0000" in svg


class TestRenderViews:
    def test_three_default_views(self, level0):
        views = render_views(level0)
        assert sorted(views) == ["equator-front", "oblique", "poles-front"]
        assert len({v for v in views.values()}) == 3

    def test_loaded_dump_past_the_overflow_bound(self, level0):
        # a dump may hold finite positions whose |z|^2 overflows; they draw
        # where infinity does
        points = list(level0.points)
        k = next(i for i in range(len(points)) if i not in level0.marks)
        points[k] = 1e200 + 0j
        far = replace(level0, points=tuple(points))
        points[k] = None
        at_inf = replace(level0, points=tuple(points))
        loaded = load_curve(dump_curve(far))
        assert loaded.points[k] == 1e200 + 0j
        assert render_views(loaded) == render_views(at_inf)
