"""Curve dump round-trips and parse diagnostics."""

import time
from dataclasses import astuple, replace

import pytest

from quadmate.angles import Angle
from quadmate.combinatorics import base_schedule, pullback_schedule
from quadmate.engine import (
    IterateOptions,
    _pullback,
    finish,
    init_embedding,
    iterate,
    pullback_curve,
    read_critical_values,
)
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
    return pullback_curve(c0, F, pullback_schedule(s0))


def reference_fmt_point(z):
    """``serialize._fmt_point``, the text of a position."""
    if z is None:
        return "inf"
    return f"{z.real!r} {z.imag!r}"


def reference_map_lines(c):
    """The ``u`` and ``v`` lines of a dump: the curve's own critical values."""
    s = c.schedule
    return [
        f"u {reference_fmt_point(c.point_at(s.black_value))}",
        f"v {reference_fmt_point(c.point_at(s.red_value))}",
    ]


def reference_dump_curve(c):
    """``serialize.dump_curve`` as it was written with an ``Angle`` and two
    fresh ``repr`` calls a sample."""
    s = c.schedule
    lines = [
        "quadmate-curve 1",
        f"level {s.level}",
        *reference_map_lines(c),
        f"black-value {s.black_value}",
        f"red-value {s.red_value}",
    ]
    for t, pid in s.base_points:
        lines.append(f"base {t} {pid}")
    lines.append(f"marks {len(s.marks)}")
    for m in s.marks:
        pid = "-" if m.point_id is None else str(m.point_id)
        color = "-" if m.color is None else m.color.value
        lines.append(f"{m.parameter} {m.kind.value} {pid} {color}")
    lines.append(f"samples {len(c.params)}")
    for k, z in enumerate(c.points):
        lines.append(f"{c.param(k)} {reference_fmt_point(z)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _run(alpha, beta, opts=IterateOptions()):
    """A run's report and the curve of each of its records."""
    curves = []
    return iterate(alpha, beta, opts, curve_hook=curves.append), curves


def _run_curves(report, curves):
    """Each record's curve of a run with its (u, v), then its final curve."""
    rec = report.records[-1]
    return [(c, r.u, r.v) for c, r in zip(curves, report.records)] + [
        (report.final_curve, rec.u, rec.v)
    ]


def _bits(x):
    """``x`` with each float as its ``float.hex``, which sees the sign of a zero."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    return x


@pytest.fixture(scope="module")
def worked_example_run():
    # the worked example at the default options, to its certified finish at
    # record 25; record 24 is the Newton-polished curve
    return _run(A14, A18)


@pytest.fixture(scope="module")
def worked_example_curves(worked_example_run):
    return _run_curves(*worked_example_run)


@pytest.fixture(scope="module")
def level_four_text():
    # the worked example's level-4 hooked curve, with no finish tried
    _, curves = _run(A14, A18, IterateOptions(max_iters=5, tol=0))
    return dump_curve(curves[4])


class TestRoundTrip:
    def test_level_zero(self):
        c = init_embedding(base_schedule(A14, A18), 8)
        text = dump_curve(c)
        back = load_curve(text)
        # the samples at 1/4 and 7/8 on the unit circle
        assert text.splitlines()[2:4] == [
            "u 6.123233995736766e-17 1.0",
            "v 0.7071067811865474 -0.7071067811865477",
        ]
        assert back.schedule.level == 0
        assert back.schedule == c.schedule
        assert (back.params, back.den, back.points) == (c.params, c.den, c.points)

    def test_hooked_curves_reload_field_for_field(self, worked_example_curves):
        # ``==`` cannot see the sign of a zero, so the bytes are compared too
        assert worked_example_curves[-1][0].schedule.level == 25
        for c, u, v in worked_example_curves:
            text = dump_curve(c)
            back = load_curve(text)
            assert back == c
            # each hooked curve's own critical values are its record's
            assert text.splitlines()[2:4] == [
                f"u {reference_fmt_point(u)}", f"v {reference_fmt_point(v)}"
            ]
            assert dump_curve(back) == text

    def test_bytes_stable_through_reload(self, curve_with_infinity):
        c = curve_with_infinity
        text = dump_curve(c)
        assert text.splitlines()[2:4] == reference_map_lines(c)
        assert dump_curve(load_curve(text)) == text

    def test_restated_lines_read_up_to_whitespace(self, curve_with_infinity):
        c = curve_with_infinity
        text = dump_curve(c)
        spaced = text.replace("base 0 5\n", " base  0\t5 \n").replace(
            "1/8 critical-point - black\n", "1/8  critical-point -   black\n"
        )
        assert spaced != text
        assert load_curve(spaced) == c

    def test_infinity_survives(self, curve_with_infinity):
        c = curve_with_infinity
        back = load_curve(dump_curve(c))
        assert None in c.points
        assert back.points == c.points

    def test_critical_value_at_infinity(self):
        # (5/8, 3/4) converges with u at infinity: every hooked curve from
        # level 1 on dumps ``u inf``, and a finite u line there is refused
        report, curves = _run(Angle(5, 8), Angle(3, 4), IterateOptions(max_iters=40))
        assert report.status == "converged" and report.records[-1].u is None
        texts = [dump_curve(c) for c in curves]
        assert sum("\nu inf\n" in t for t in texts) == 9
        for c, text in zip(curves, texts):
            back = load_curve(text)
            assert back == c
            assert dump_curve(back) == text
        with pytest.raises(SerializationError) as err:
            load_curve(texts[-1].replace("\nu inf\n", "\nu 0.0 0.0\n"))
        assert str(err.value) == "line 3: u is not the sample at parameter 5/8"

    def test_marks_reattach(self, curve_with_infinity):
        c = curve_with_infinity
        back = load_curve(dump_curve(c))
        assert back.marks == c.marks
        assert back.schedule.marks == c.schedule.marks

    def test_critical_mark_with_an_id(self):
        # at level 1 of (1/32, 1/2) the red critical point at 1/4 is also
        # postcritical point 4: its line carries both
        s0 = base_schedule(Angle(1, 32), Angle(1, 2))
        c0 = init_embedding(s0, 2)
        F = from_critical_values(*read_critical_values(c0))
        c1 = pullback_curve(c0, F, pullback_schedule(s0))
        text = dump_curve(c1)
        assert "1/4 critical-point 4 red" in text.splitlines()
        back = load_curve(text)
        assert back == c1
        assert dump_curve(back) == text


    def test_curve_pulled_back_twice_without_rebase(self):
        # the level-2 schedule is the level-0 one pulled back twice: 20 marks
        s0 = base_schedule(A14, A18)
        c = init_embedding(s0, 8)
        for _ in range(2):
            F = from_critical_values(*read_critical_values(c))
            c = pullback_curve(c, F, pullback_schedule(c.schedule))
        assert (c.schedule.level, len(c.schedule.marks)) == (2, 20)
        text = dump_curve(c)
        back = load_curve(text)
        assert back == c
        assert _bits(back.points) == _bits(c.points)
        assert dump_curve(back) == text


class TestReloadedRun:
    """A reloaded dump is all that the next step of the run needs."""

    def test_pullback_of_each_reloaded_curve_is_the_next_curve(self, worked_example_run):
        report, curves = worked_example_run
        assert [r.n for r in report.records] == [*range(26)]
        pullbacks = [r for r in report.records[1:] if r.phase == "pullback"]
        assert [r.n for r in pullbacks] == [*range(1, 24)]
        for rec in pullbacks:
            loaded = load_curve(dump_curve(curves[rec.n - 1]))
            got, before = _pullback(loaded, IterateOptions().budget)
            assert got == curves[rec.n]
            assert _bits(got.points) == _bits(curves[rec.n].points)
            assert before == rec.samples_before

    def test_finish_from_the_reloaded_curve_ends_the_run(self, worked_example_run):
        report, curves = worked_example_run
        assert [r.phase for r in report.records[24:]] == ["newton", "confirm"]
        loaded = load_curve(dump_curve(curves[23]))
        steps = finish(loaded, IterateOptions())
        assert steps is not None and len(steps) == 2
        for (rec, c), want, want_c in zip(steps, report.records[24:], curves[24:]):
            assert _bits(astuple(rec)) == _bits(astuple(want))
            assert c == want_c
            assert _bits(c.points) == _bits(want_c.points)


class TestDumpBytes:
    """``dump_curve`` writes the bytes of ``reference_dump_curve``."""

    def test_worked_example_run(self, worked_example_curves):
        assert [c.schedule.level for c, _, _ in worked_example_curves] == [*range(26), 25]
        for c, _, _ in worked_example_curves:
            assert dump_curve(c) == reference_dump_curve(c)

    @pytest.mark.parametrize("alpha, beta", [((1, 10), (19, 20)), ((9, 10), (9, 10))])
    def test_diverging_runs(self, alpha, beta):
        # both runs break a lap before they diverge, (1/10, 19/20) in its
        # final curve and (9/10, 9/10) at level 18, so not every sample of
        # the second half is its twin's negative
        run = _run_curves(*_run(Angle(*alpha), Angle(*beta), IterateOptions(max_iters=20)))
        for c, _, _ in run:
            assert dump_curve(c) == reference_dump_curve(c)

    def test_curve_with_infinity(self, curve_with_infinity):
        assert dump_curve(curve_with_infinity) == reference_dump_curve(curve_with_infinity)

    def test_odd_sample_count(self):
        c = init_embedding(base_schedule(A14, A18), 8)
        assert len(c.params) % 2 == 1
        assert dump_curve(c) == reference_dump_curve(c)

    def test_twins_differing_in_the_sign_of_a_zero(self):
        # each point of the second half equals its twin's negative under
        # ``==`` but carries a +0.0 where the negative has -0.0
        c = init_embedding(base_schedule(A14, A18), 2)
        half = len(c.params) // 2
        first = [complex(k + 1, 0.0) if k % 2 else complex(0.0, k + 1) for k in range(half)]
        second = [complex(-z.real, 0.0) if z.real else complex(0.0, -z.imag) for z in first]
        c = replace(c, points=tuple(first + second))
        assert all(z == -w for z, w in zip(second, first))
        text = dump_curve(c)
        assert text == reference_dump_curve(c)
        assert "-0.0" not in text[text.index("\nsamples "):]


class TestParseErrors:
    def test_empty_file(self):
        with pytest.raises(SerializationError, match="empty"):
            load_curve("")

    def test_unrecognized_header(self):
        with pytest.raises(SerializationError, match="header"):
            load_curve("something else\n")

    def test_edited_kind_field_named(self, curve_with_infinity):
        text = dump_curve(curve_with_infinity).replace("critical-point", "critcal-point", 1)
        at = text.splitlines().index("1/8 critcal-point - black")
        with pytest.raises(SerializationError) as err:
            load_curve(text)
        assert str(err.value) == (
            f"line {at + 1}: expected '1/8 critical-point - black', "
            "got '1/8 critcal-point - black'"
        )

    def test_error_carries_line_number(self, curve_with_infinity):
        lines = dump_curve(curve_with_infinity).splitlines()
        broken = next(i for i, l in enumerate(lines) if "critical-point" in l)
        lines[broken] = lines[broken].replace("critical-point", "mystery")
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert err.value.line == broken + 1
        assert f"line {broken + 1}" in str(err.value)

    @pytest.mark.parametrize("key", ["level", "black-value", "red-value", "marks", "samples"])
    def test_keyed_line_without_value(self, key):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith(f"{key} "))
        lines[at] = key
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert err.value.line == at + 1
        assert f"line {at + 1}: {key!r} line has no value" == str(err.value)

    @pytest.mark.parametrize("key", ["level", "black-value", "red-value", "marks", "samples"])
    def test_keyed_line_with_extra_value(self, key):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith(f"{key} "))
        lines[at] += " 7"
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {at + 1}: {key!r} line has more than one value"

    @pytest.mark.parametrize(
        "edited",
        ["u 5 7", "u inf", "u 6.123233995736766e-17 1.0000000000000002", "v 0.0 1.0", "v inf"],
    )
    def test_map_line_not_the_sample_rejected(self, edited):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        key = edited.split()[0]
        at = next(i for i, l in enumerate(lines) if l.startswith(f"{key} "))
        lines[at] = edited
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        t = {"u": "1/4", "v": "7/8"}[key]
        assert str(err.value) == f"line {at + 1}: {key} is not the sample at parameter {t}"

    @pytest.mark.parametrize("t", ["1/3", "1/5"])
    def test_base_point_off_the_marks_rejected(self, t):
        # the base lines are the level-0 schedule's, so an extra one stands
        # where the mark count is due; on the level-0 curve at the default
        # density 1/3 is a sample and 1/5 is not, and either base line would
        # otherwise make the Newton finish, or relabel, raise a bare KeyError
        c = init_embedding(base_schedule(A14, A18), IterateOptions().samples_per_arc)
        lines = dump_curve(c).splitlines()
        at = lines.index("marks 5")
        lines.insert(at, f"base {t} 9")
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {at + 1}: expected 'marks', got 'base'"

    @pytest.mark.parametrize(
        "edits, refused, want",
        [
            ({"base 1/4 1": "base 1/4 2"}, "base 1/4 2", "base 1/4 1"),
            ({"base 1/4 1": "base 1/4 9"}, "base 1/4 9", "base 1/4 1"),
            ({"1/4 postcritical 1 -": "1/4 postcritical 7 -"}, "1/4 postcritical 7 -",
             "1/4 postcritical 1 -"),
            # the marks repeat the id too
            ({"base 1/2 2": "base 1/2 1", "1/2 postcritical 2 -": "1/2 postcritical 1 -"},
             "base 1/2 1", "base 1/2 2"),
        ],
        ids=["repeated", "unknown", "mark-differs", "marks-repeat"],
    )
    def test_base_point_id_off_its_mark_rejected(self, edits, refused, want):
        # each would otherwise let relabel read the postcritical set with a
        # point missing or misnamed; the ids are those of the rebuilt schedule
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = [edits.get(line, line) for line in dump_curve(c).splitlines()]
        at = lines.index(refused)
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {at + 1}: expected {want!r}, got {refused!r}"

    @pytest.mark.parametrize("kind", ["critical-point", "plumbing"])
    def test_mark_kind_off_its_id_and_color_rejected(self, level_four_text, kind):
        # a mark's kind follows from its id and colour; a critical-point kind
        # with no colour would otherwise make the figures raise a bare
        # AttributeError
        lines = level_four_text.replace(
            "1/4 postcritical 1 -", f"1/4 {kind} 1 -"
        ).splitlines()
        at = lines.index(f"1/4 {kind} 1 -")
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == (
            f"line {at + 1}: expected '1/4 postcritical 1 -', got '1/4 {kind} 1 -'"
        )

    def test_mark_without_base_line_rejected(self, level_four_text):
        # the base lines name every mark that carries an id; without one,
        # relabel would miss point 2 and the Newton finish raise a bare
        # KeyError.  The next base line stands where the dropped one is due.
        lines = level_four_text.splitlines()
        lines.remove("base 1/2 2")
        at = lines.index("base 3/4 3")
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {at + 1}: expected 'base 1/2 2', got 'base 3/4 3'"

    def test_base_lines_out_of_mark_order_rejected(self):
        # the base lines restate the marks that carry ids, in mark order, so
        # a reloaded curve dumps them as they were read
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        at = lines.index("base 1/4 1")
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {at + 1}: expected 'base 1/4 1', got 'base 1/2 2'"

    @pytest.mark.parametrize(
        "edits, refused, want",
        [
            # a colour on a mark that is not a half of its side's value
            ({"1/2 postcritical 2 -": "1/2 critical-point 2 red"},
             "1/2 critical-point 2 red", "1/2 postcritical 2 -"),
            # a postcritical point dropped from both the base and the mark lines
            ({"base 1/2 2": None, "1/2 postcritical 2 -": "1/2 plumbing - -"},
             "base 3/4 3", "base 1/2 2"),
            # ids 1 and 2 swapped on the base lines and the mark lines alike
            ({"base 1/4 1": "base 1/4 2", "base 1/2 2": "base 1/2 1",
              "1/4 postcritical 1 -": "1/4 postcritical 2 -",
              "1/2 postcritical 2 -": "1/2 postcritical 1 -"},
             "base 1/4 2", "base 1/4 1"),
        ],
        ids=["colour-off-a-half", "point-dropped", "ids-swapped"],
    )
    def test_consistent_edit_off_the_schedule_rejected(self, level_four_text, edits, refused,
                                                         want):
        # each edit agrees with itself, so no per-field check sees it, and
        # the loaded curve would label, relabel or rebase wrongly (the
        # dropped point makes the Newton finish raise a bare KeyError)
        lines = [edits.get(line, line) for line in level_four_text.splitlines()]
        lines = [line for line in lines if line is not None]
        at = lines.index(refused)
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {at + 1}: expected {want!r}, got {refused!r}"

    @pytest.mark.parametrize("count", ["0", "-5", "15", "160"])
    def test_mark_count_off_the_schedule_rejected(self, level_four_text, count):
        # a level-0 schedule has 5 marks, pulled back at most 4 times here
        lines = level_four_text.splitlines()
        at = lines.index("marks 5")
        lines[at] = f"marks {count}"
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == (
            f"line {at + 1}: mark count {count} is not 5 << k with 0 <= k <= 4"
        )

    def test_huge_mark_count_refused_before_any_schedule(self):
        # 5 << 40 marks fit level 60, but not the text: no schedule is built
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        lines[lines.index("level 0")] = "level 60"
        at = lines.index("marks 5")
        lines[at] = "marks 5497558138880"
        start = time.perf_counter()
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == (
            f"line {at + 1}: mark count 5497558138880 exceeds the lines that follow"
        )

    @pytest.mark.parametrize(
        "red, reason",
        [
            ("1/4", "critical values identified: both critical values sit at curve parameter 1/4"),
            ("1/3", "both angles must be strictly preperiodic"),
        ],
        ids=["identified", "periodic"],
    )
    def test_critical_values_without_a_schedule_rejected(self, red, reason):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        at = lines.index("red-value 7/8")
        lines[at] = f"red-value {red}"
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == (
            f"line {at + 1}: no schedule for critical values 1/4 and {red}: {reason}"
        )

    def test_truncated_file(self, curve_with_infinity):
        lines = dump_curve(curve_with_infinity).splitlines()
        with pytest.raises(SerializationError, match="end of file"):
            load_curve("\n".join(lines[:-5]))

    def test_bad_position(self):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("samples "))
        param = lines[start + 1].split()[0]
        lines[start + 1] = f"{param} spam eggs extra"
        with pytest.raises(SerializationError, match="position"):
            load_curve("\n".join(lines))

    @pytest.mark.parametrize("position", ["nan 0.0", "1e999 2", "0.5 -inf"])
    def test_non_finite_sample_rejected(self, position):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("samples ")) + 2
        lines[at] = f"{lines[at].split()[0]} {position}"
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {at + 1}: position {position!r} is not finite"

    def test_non_finite_map_parameter_rejected(self):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("u "))
        lines[at] = "u nan nan"
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {at + 1}: position 'nan nan' is not finite"

    def test_out_of_order_samples_rejected(self):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("samples "))
        lines[start + 1], lines[start + 2] = lines[start + 2], lines[start + 1]
        with pytest.raises(SerializationError, match="out of order"):
            load_curve("\n".join(lines))

    def test_missing_marked_sample_rejected(self):
        # the sample at the black value carries a mark; without it the mark
        # line is refused, not the read of the critical values later
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("samples "))
        lines[start] = f"samples {len(c.params) - 1}"
        lines.remove(next(l for l in lines[start:] if l.startswith("1/4 ")))
        mark = lines.index("1/4 postcritical 1 -")
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert err.value.line == mark + 1
        assert str(err.value) == f"line {mark + 1}: mark at parameter 1/4 has no sample"

    def test_repeated_mark_rejected(self):
        # a repeated mark line would leave the curve with fewer marked
        # samples than its schedule has marks; a level-0 schedule has 5
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        count = lines.index("marks 5")
        lines[count] = "marks 6"
        at = lines.index("1/2 postcritical 2 -")
        lines.insert(at, lines[at])
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {count + 1}: mark count 6 is not 5 << k with 0 <= k <= 0"

    def test_marks_start_at_the_anchor(self):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        count = lines.index("marks 5")
        lines[count] = "marks 4"
        lines.remove("0 postcritical 5 -")
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {count + 1}: mark count 4 is not 5 << k with 0 <= k <= 0"

    def test_no_marks_rejected(self):
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        at = lines.index("marks 5")
        lines[at : at + 6] = ["marks 0"]
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {at + 1}: mark count 0 is not 5 << k with 0 <= k <= 0"

    def test_value_without_sample_rejected(self):
        # the critical values fix the schedule: (1/4, 999/1000) has 106
        # postcritical points, and the anchor's id is the first base line
        c = init_embedding(base_schedule(A14, A18), 2)
        lines = dump_curve(c).splitlines()
        lines[lines.index("red-value 7/8")] = "red-value 1/1000"
        at = lines.index("base 0 5")
        with pytest.raises(SerializationError) as err:
            load_curve("\n".join(lines))
        assert str(err.value) == f"line {at + 1}: expected 'base 0 106', got 'base 0 5'"


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
