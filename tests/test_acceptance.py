"""End-to-end acceptance checks at pinned tolerances.

Each test pins one observable contract: the two worked examples, the
structural gates, the preimage oracle, the invariant suites, and artifact
determinism.  Timing bounds are asserted with wall-clock measurements around
the computation only.
"""

import math
import random
import time

import numpy as np
import pytest

from quadmate.angles import Angle, reduce
from quadmate.combinatorics import MarkKind, base_schedule, pullback_schedule
from quadmate.engine import (
    IterateOptions,
    init_embedding,
    iterate,
    prune,
    pullback_curve,
    read_critical_values,
)
from quadmate.lamination import pullback_lamination
from quadmate.ratmap import as_point, chordal, from_critical_values
from quadmate.serialize import dump_curve, format_report

A14, A18 = Angle(1, 4), Angle(1, 8)


@pytest.fixture(scope="module")
def ex2_long_run():
    """Example (1/4, 1/8) at default sampling, up to 100 iterations."""
    opts = IterateOptions(max_iters=100, tol=1e-6)
    start = time.perf_counter()
    report = iterate(A14, A18, opts)
    elapsed = time.perf_counter() - start
    return report, elapsed


class TestCriterion1ExampleOneExactness:
    def test_constant_sequence_and_coefficients(self):
        start = time.perf_counter()
        report = iterate(A14, A14, IterateOptions(max_iters=10, tol=0.0))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert report.records[-1].n == 10
        for rec in report.records:
            assert chordal(rec.u, 1j) <= 1e-9
            assert chordal(rec.v, -1j) <= 1e-9
        F = from_critical_values(report.records[-1].u, report.records[-1].v)
        a, b, c, d = F.coeffs
        target = (1 + 1j, 1j - 1, 1j - 1, 1 + 1j)
        scale = a / target[0]
        for got, want in zip((a, b, c, d), target):
            assert abs(got / scale - want) / abs(want) <= 1e-12


class TestCriterion2ExampleTwoFirstIteration:
    def test_printed_values(self):
        start = time.perf_counter()
        report = iterate(A14, A18, IterateOptions(max_iters=1, tol=0.0))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        u1, v1 = report.records[1].u, report.records[1].v
        assert abs(u1 - 0.643594j) < 1e-5
        assert abs(v1 - (-1.18921j)) < 1e-5


class TestCriterion3ExampleTwoOrderings:
    def test_level_one_schedule(self):
        s1 = pullback_schedule(base_schedule(A14, A18))
        assert [str(m.parameter) for m in s1.marks] == [
            "0", "1/8", "1/4", "3/8", "7/16", "1/2", "5/8", "3/4", "7/8", "15/16",
        ]
        crit = {
            str(m.parameter)
            for m in s1.marks
            if m.kind is MarkKind.CRITICAL_POINT
        }
        assert crit == {"1/8", "5/8", "7/16", "15/16"}

    def test_lifted_marked_positions_in_order(self):
        s0 = base_schedule(A14, A18)
        c0 = init_embedding(s0, 64)
        u, v = read_critical_values(c0)
        c1 = pullback_curve(c0, from_critical_values(u, v), pullback_schedule(s0))
        # traversal from the first critical passage, wrapping to the anchor
        expected = [
            0.0 + 0.0j, 0.643594j, 1.18921j, None, -1.0 + 0.0j,
            0.0 + 0.0j, -0.643594j, -1.18921j, None, 1.0 + 0.0j,
        ]
        marked = [c1.points[i] for i in c1.marks]
        ordered = marked[1:] + marked[:1]
        for z, want in zip(ordered, expected):
            assert chordal(z, want) < 1e-5


class TestCriterion4ExampleTwoConvergence:
    def test_runtime_and_monotone_tail(self, ex2_long_run):
        report, elapsed = ex2_long_run
        assert elapsed < 60.0
        incs = [r.increment for r in report.records if r.increment is not None]
        assert len(incs) >= 10
        tail = incs[-10:]
        assert all(x >= y for x, y in zip(tail, tail[1:]))

    def test_increment_below_threshold_within_100_iterations(self, ex2_long_run):
        report, _ = ex2_long_run
        incs = [r.increment for r in report.records if r.increment is not None]
        assert min(incs) < 1e-6, (
            "the contraction factor of this iteration is about 0.9324 per "
            "step, so the increment first crosses 1e-6 near iteration 186; "
            f"after 100 iterations it has only reached {min(incs):.3e}"
        )


class TestCriterion5StructuralGates:
    def test_example_pair_passes(self, capsys):
        from quadmate.cli import EXIT_OK, main

        assert main(["check", "1/4", "1/8"]) == EXIT_OK
        assert "postcritical points: 5" in capsys.readouterr().out

    def test_pinched_pair_names_the_class(self, capsys):
        from quadmate.cli import EXIT_STRUCTURAL, main

        assert main(["check", "1/6", "13/14"]) == EXIT_STRUCTURAL
        out = capsys.readouterr().out
        assert "is_jordan: no" in out
        assert "pinching class: {black 1/7" in out

    def test_conjugate_limbs_fail_mateability(self, capsys):
        from quadmate.cli import EXIT_STRUCTURAL, main

        assert main(["check", "1/4", "3/4"]) == EXIT_STRUCTURAL
        assert "mateable: no" in capsys.readouterr().out


class TestCriterion6OracleEquivalence:
    def test_preimages_against_raw_root_solve(self):
        rng = random.Random(1_000_003)

        def rand_value():
            if rng.random() < 0.05:
                return None
            r = 10.0 ** rng.uniform(-3, 3)
            phi = rng.uniform(0, 2 * math.pi)
            return complex(r * math.cos(phi), r * math.sin(phi))

        checked = 0
        while checked < 10_000:
            u, v = rand_value(), rand_value()
            if u is None and v is None or u == v or u == 1 or v == 1:
                continue
            F = from_critical_values(u, v)
            w = rand_value()
            a, b, c, d = F.coeffs
            lead, const = (-c, -d) if w is None else (a - c * w, b - d * w)
            roots = [as_point(complex(z)) for z in np.roots([lead, 0.0, const])]
            while len(roots) < 2:
                roots.append(None)
            mine = F.preimages(w)
            direct = chordal(mine[0], roots[0]) + chordal(mine[1], roots[1])
            swapped = chordal(mine[0], roots[1]) + chordal(mine[1], roots[0])
            assert min(direct, swapped) < 1e-10
            checked += 1


class TestCriterion7InvariantSuites:
    def test_suites_pass_quickly(self):
        start = time.perf_counter()

        s0 = base_schedule(A14, A18)
        c0 = init_embedding(s0, 48)
        u, v = read_critical_values(c0)
        F = from_critical_values(u, v)
        c1 = pullback_curve(c0, F, pullback_schedule(s0))

        # lift fidelity: every lifted sample maps back onto its parent sample
        parent = {c0.param(k): z for k, z in enumerate(c0.points)}
        for k, z in enumerate(c1.points):
            target = parent.get(c1.param(k).double())
            if target is not None:
                assert chordal(F.eval(z), target) <= 1e-10

        # schedule fidelity: curve marks are exactly the schedule marks
        assert [c1.param(i) for i in c1.marks] == [m.parameter for m in c1.schedule.marks]

        # anchor preservation
        assert chordal(c1.point_at(Angle(0, 1)), 1.0 + 0.0j) <= 1e-10

        # prune order preservation: output is a subsequence keeping all marks
        pruned = prune(c1, 250, 1e-6)
        it = iter(enumerate(c1.points))
        for k, p in enumerate(pruned.points):
            assert any(c1.param(j) == pruned.param(k) and q is p for j, q in it)
        assert [pruned.param(i) for i in pruned.marks] == [
            m.parameter for m in c1.schedule.marks
        ]

        # lamination non-crossing
        for theta in (A14, A18, Angle(1, 6), reduce(5, 12)):
            leaves = sorted(pullback_lamination(theta, 6), key=lambda l: (l.a, l.b))
            for i, x in enumerate(leaves):
                for y in leaves[i + 1 :]:
                    assert not x.crosses(y)

        assert time.perf_counter() - start < 30.0


class TestCriterion8Determinism:
    def test_byte_identical_artifacts(self):
        opts = IterateOptions(max_iters=2, tol=0.0)
        runs = []
        for _ in range(2):
            curves = []
            report = iterate(A14, A18, opts, curve_hook=curves.append)
            dumps = [dump_curve(c) for c in curves]
            runs.append((format_report(report, "fixed-id"), dumps))
        assert runs[0] == runs[1]
