"""The Newton finish: its accepted and refused paths, its records and artifacts."""

import numpy as np
import pytest

import quadmate.engine as engine
from quadmate.angles import Angle
from quadmate.combinatorics import base_schedule
from quadmate.engine import IterateOptions, iterate
from quadmate.newton import solve_relations
from quadmate.serialize import format_report

A14, A18 = Angle(1, 4), Angle(1, 8)
FAST = dict(samples_per_arc=32, budget=2048)

# the (1/4, 1/8) mating's map, to 12 decimals
REF_U = complex(-0.033884546031, 0.760634816925)
REF_V = complex(0.673225810672, -1.203785825132)


def _f(u, v, z):
    # the normalized quadratic with critical values u, v, written out here so
    # that the checks below do not go through quadmate.ratmap
    return ((u - 1) * v * z * z - u * (v - 1)) / ((u - 1) * z * z - (v - 1))


@pytest.fixture(scope="module")
def ex2_finished():
    return iterate(A14, A18, IterateOptions(max_iters=40, **FAST))


class TestAccepted:
    def test_records_end_with_newton_and_confirm(self, ex2_finished):
        report = ex2_finished
        assert report.status == "converged"
        *plain, polished, confirm = report.records
        assert (polished.phase, confirm.phase) == ("newton", "confirm")
        assert all(r.phase == "pullback" for r in plain)
        assert [polished.n, confirm.n] == [plain[-1].n + 1, plain[-1].n + 2]
        assert confirm.increment < 1e-9
        assert polished.increment <= plain[-1].increment

    def test_relation_residual(self, ex2_finished):
        rec = ex2_finished.records[-2]
        u, v = rec.u, rec.v
        # on (1/4, 1/8) the relations reduce to F(u) = -1 and F(v) = -u
        assert abs(_f(u, v, u) + 1) + abs(_f(u, v, v) + u) < 1e-13
        assert abs(u - REF_U) < 1e-12 and abs(v - REF_V) < 1e-12

    def test_agrees_with_numpy_solve(self, ex2_finished):
        rec = ex2_finished.records[-2]
        # F(u) = -1 is linear in v: v = num(u) / den(u); substituting into
        # F(v) = -u and clearing den^3 leaves one polynomial in u
        P = np.polynomial.Polynomial
        U = P([0, 1])
        num = -(U**3 - U**2 + U + 1)
        den = U**3 - U**2 - U - 1
        poly = (U - 1) * num**3 + U * (U - 1) * num**2 * den - 2 * U * (num - den) * den**2
        roots = poly.roots()
        u = roots[np.argmin(abs(roots - rec.u))]
        v = num(u) / den(u)
        assert abs(u - rec.u) < 1e-9
        assert abs(v - rec.v) < 1e-9

    def test_report_marks_only_finish_records(self, ex2_finished):
        lines = format_report(ex2_finished, "fixed-id").splitlines()
        marked = [line for line in lines if "phase=" in line]
        assert [line.split()[-1] for line in marked] == ["phase=newton", "phase=confirm"]
        assert marked == lines[-3:-1]


@pytest.mark.parametrize(
    "alpha, beta",
    [
        ("7/32", "1/4"),  # the red critical point is the postcritical point 7/8
        ("5/8", "3/4"),  # the black critical value is the red critical point
    ],
)
def test_critical_points_stay_pinned(alpha, beta):
    report = iterate(Angle.parse(alpha), Angle.parse(beta), IterateOptions(max_iters=40, **FAST))
    assert report.status == "converged"
    assert [r.phase for r in report.records[-2:]] == ["newton", "confirm"]
    s0 = base_schedule(Angle.parse(alpha), Angle.parse(beta))
    at_infinity = [t for t, _ in s0.base_points if t in s0.red_value.halves()]
    assert at_infinity
    assert all(report.final_curve.point_at(t) is None for t in at_infinity)


class TestRefused:
    def test_wrong_isotopy_class_falls_back_to_pullback(self, monkeypatch):
        opts = IterateOptions(max_iters=30, **FAST)
        calls = []
        lift = engine.pullback_curve

        def counted(*args, **kwargs):
            calls.append(1)
            return lift(*args, **kwargs)

        monkeypatch.setattr(engine, "pullback_curve", counted)
        # the mirror image of the solution solves the same relations (they
        # have real coefficients) but belongs to another mating, so the
        # confirming pullback must refuse it; the move bound is lifted so that
        # the confirming pullback is what decides
        solve = engine.solve_relations

        def mirrored(s0, embedded):
            solved = solve(s0, embedded)
            return None if solved is None else {t: z.conjugate() for t, z in solved.items()}

        monkeypatch.setattr(engine, "solve_relations", mirrored)
        monkeypatch.setattr(engine, "_NEWTON_MOVE", 2.0)
        refused = iterate(A14, A18, opts)
        refused_calls = len(calls)

        calls.clear()
        monkeypatch.setattr(engine, "solve_relations", lambda s0, embedded: None)
        plain = iterate(A14, A18, opts)

        assert refused_calls > len(calls) == 30  # the confirming pullback ran
        assert refused.status == plain.status == "max-iterations"
        assert refused.records == plain.records
        assert all(r.phase == "pullback" for r in refused.records)

    def test_infinite_position_is_refused_without_raising(self):
        s0 = base_schedule(A14, A18)
        embedded = {t: 0.5j for t, _ in s0.base_points}
        embedded[s0.red_value] = None
        assert solve_relations(s0, embedded) is None


class TestArtifacts:
    def test_one_curve_per_record(self, tmp_path, capsys):
        from quadmate.cli import EXIT_OK, main

        code = main(
            ["mate", "1/4", "1/8", "--tol", "1e-9", "--samples", "32", "--budget", "2048",
             "--dump", str(tmp_path)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        status = next(line for line in out.splitlines() if line.startswith("status:"))
        assert status == "status: converged after 25 iterations"
        (run_dir,) = list(tmp_path.iterdir())
        curves = sorted(p.name for p in run_dir.glob("curve-[0-9]*.txt"))
        assert curves == [f"curve-{n:03d}.txt" for n in range(26)]
