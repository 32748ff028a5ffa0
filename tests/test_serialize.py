"""Curve dump round-trips and parse diagnostics."""

import pytest

from quadmate.angles import Angle
from quadmate.combinatorics import base_schedule, pullback_schedule
from quadmate.engine import init_embedding, pullback_curve, read_critical_values
from quadmate.errors import SerializationError
from quadmate.ratmap import from_critical_values
from quadmate.serialize import dump_curve, format_report, load_curve

A14, A18 = Angle(1, 4), Angle(1, 8)


@pytest.fixture(scope="module")
def curve_with_infinity():
    s0 = base_schedule(A14, A18)
    c0 = init_embedding(s0, 8)
    u, v = read_critical_values(c0)
    F = from_critical_values(u, v)
    return pullback_curve(c0, F, pullback_schedule(s0, A14, A18)), u, v


class TestRoundTrip:
    def test_level_zero(self):
        c = init_embedding(base_schedule(A14, A18), 8)
        text = dump_curve(c, 1j, -1j)
        back, u, v = load_curve(text)
        assert u == 1j and v == -1j
        assert back.level == 0
        assert back.schedule == c.schedule
        assert [(s.parameter, s.position) for s in back.samples] == [
            (s.parameter, s.position) for s in c.samples
        ]

    def test_bytes_stable_through_reload(self, curve_with_infinity):
        c, u, v = curve_with_infinity
        text = dump_curve(c, u, v)
        back, u2, v2 = load_curve(text)
        assert dump_curve(back, u2, v2) == text

    def test_infinity_survives(self, curve_with_infinity):
        c, u, v = curve_with_infinity
        back, _, _ = load_curve(dump_curve(c, u, v))
        originals = [s.position for s in c.samples]
        assert None in originals
        assert [s.position for s in back.samples] == originals

    def test_marks_reattach(self, curve_with_infinity):
        c, u, v = curve_with_infinity
        back, _, _ = load_curve(dump_curve(c, u, v))
        assert tuple(s.mark for s in back.samples if s.mark is not None) == c.schedule.marks


class TestParseErrors:
    def test_empty_file(self):
        with pytest.raises(SerializationError, match="empty"):
            load_curve("")

    def test_unrecognized_header(self):
        with pytest.raises(SerializationError, match="header"):
            load_curve("something else\n")

    def test_edited_kind_field_named(self, curve_with_infinity):
        c, u, v = curve_with_infinity
        text = dump_curve(c, u, v).replace("critical-point", "critcal-point", 1)
        with pytest.raises(SerializationError, match="kind"):
            load_curve(text)

    def test_error_carries_line_number(self, curve_with_infinity):
        c, u, v = curve_with_infinity
        lines = dump_curve(c, u, v).splitlines()
        broken = next(i for i, l in enumerate(lines) if "critical-point" in l)
        lines[broken] = lines[broken].replace("critical-point", "mystery")
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert err.value.line == broken + 1
        assert f"line {broken + 1}" in str(err.value)

    @pytest.mark.parametrize("key", ["level", "black-value", "red-value", "marks", "samples"])
    def test_keyed_line_without_value(self, key):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c, 1j, -1j).splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith(f"{key} "))
        lines[at] = key
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert err.value.line == at + 1
        assert f"line {at + 1}: {key!r} line has no value" == str(err.value)

    def test_truncated_file(self, curve_with_infinity):
        c, u, v = curve_with_infinity
        lines = dump_curve(c, u, v).splitlines()
        with pytest.raises(SerializationError, match="end of file"):
            load_curve("\n".join(lines[:-5]))

    def test_bad_position(self):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c, 1j, -1j).splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("samples "))
        param = lines[start + 1].split()[0]
        lines[start + 1] = f"{param} spam eggs extra"
        with pytest.raises(SerializationError, match="position"):
            load_curve("\n".join(lines))

    def test_out_of_order_samples_rejected(self):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c, 1j, -1j).splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("samples "))
        lines[start + 1], lines[start + 2] = lines[start + 2], lines[start + 1]
        with pytest.raises(SerializationError, match="out of order"):
            load_curve("\n".join(lines))


class TestReportFormat:
    def test_stable_text(self):
        from quadmate.engine import IterateOptions, iterate

        opts = IterateOptions(max_iters=1, tol=0.0, samples_per_arc=8)
        r1 = format_report(iterate(A14, A18, opts), "deadbeef")
        r2 = format_report(iterate(A14, A18, opts), "deadbeef")
        assert r1 == r2
        assert r1.startswith("quadmate-report 1\nrun-id deadbeef\n")
        assert "status max-iterations" in r1
        assert r1.endswith("end\n")
