"""Command-line behavior: exit codes, artifacts, determinism."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadmate
import quadmate.cli
from quadmate.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_STRUCTURAL,
    EXIT_USAGE,
    main,
)
from quadmate.engine import IterateOptions
from quadmate.serialize import load_curve

SRC = str(Path(quadmate.__file__).resolve().parents[1])


def _run(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``python args`` in a fresh interpreter that imports this quadmate."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


class TestCheck:
    def test_passing_pair(self, capsys):
        assert main(["check", "1/4", "1/8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mateable: yes" in out
        assert "is_jordan: yes" in out
        assert "fsr_valid: yes" in out
        assert "postcritical points: 5" in out

    def test_pinched_pair(self, capsys):
        assert main(["check", "1/6", "13/14"]) == EXIT_STRUCTURAL
        out = capsys.readouterr().out
        assert "is_jordan: no" in out
        assert "pinching class" in out

    def test_conjugate_limbs(self, capsys):
        assert main(["check", "1/4", "3/4"]) == EXIT_STRUCTURAL
        out = capsys.readouterr().out
        assert "mateable: no" in out
        assert "limb of alpha: 1/3" in out
        assert "limb of beta:  2/3" in out

    def test_periodic_angle_is_usage_error(self, capsys):
        assert main(["check", "1/3", "1/4"]) == EXIT_USAGE
        assert "periodic" in capsys.readouterr().err

    def test_orbifold_warning(self, capsys):
        main(["check", "1/4", "1/4"])
        assert "orbifold" in capsys.readouterr().out

    def test_garbage_angle(self, capsys):
        assert main(["check", "x/y", "1/4"]) == EXIT_USAGE

    def test_deep_limb_gates_promptly(self):
        # 1/16777214 lies in the 1/24 wake, so limb_of needs the wakes of
        # every limb up to period 24; a subprocess bounds the run without
        # hanging the suite
        proc = _run("-m", "quadmate.cli", "check", "1/4", "1/16777214", timeout=60)
        assert proc.returncode == EXIT_STRUCTURAL
        assert "fsr_valid: no" in proc.stdout


class TestSchedule:
    def test_level_one_table(self, capsys):
        assert main(["schedule", "1/4", "1/8", "--level", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "10 marks" in out
        for token in ("crit-black", "crit-red", "plumbing", "p1"):
            assert token in out

    def test_negative_level_rejected(self, capsys):
        assert main(["schedule", "1/4", "1/8", "--level", "-1"]) == EXIT_USAGE

    def test_identified_critical_values_are_a_structural_error(self, capsys):
        assert main(["schedule", "1/2", "1/2"]) == EXIT_STRUCTURAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "structural error: critical values identified: "
            "both critical values sit at curve parameter 1/2\n"
        )

    def test_level_past_the_mark_cap_refused(self, capsys):
        # 5 * 2^64 marks: refused before a single doubling
        assert main(["schedule", "1/4", "1/8", "--level", "64"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("quadmate: --level 64")

    def test_largest_level_under_the_mark_cap(self, capsys):
        # 5 * 2^13 = 40960 marks fit under 2^16, 5 * 2^14 do not
        assert main(["schedule", "1/4", "1/8", "--level", "13"]) == EXIT_OK
        assert "40960 marks" in capsys.readouterr().out
        assert main(["schedule", "1/4", "1/8", "--level", "14"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "args,lines",
        [
            # about 1 MB of table, far past a pipe's buffer: the reader takes
            # the first line and closes, so a later write meets the closed pipe
            (["schedule", "1/4", "1/8", "--level", "13"], 1),
            # the reader closes before anything is written, so the flush of
            # the buffered report meets it
            (["check", "1/4", "1/8"], 0),
        ],
    )
    def test_reader_closing_early_ends_quietly(self, args, lines):
        # stdout block-buffered, as it is on a pipe unless PYTHONUNBUFFERED is set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        proc = subprocess.Popen(
            [sys.executable, "-m", "quadmate.cli", *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        first = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_OK
        assert first == ["level 13 schedule for (1/4, 1/8): 40960 marks\n"][:lines]
        assert err == ""


class TestMate:
    def test_defaults_are_the_iterate_options(self, capsys):
        args = quadmate.cli.build_parser().parse_args(["mate", "1/4", "1/8"])
        opts = IterateOptions()
        assert (args.iters, args.tol, args.samples, args.budget) == (
            opts.max_iters, opts.tol, opts.samples_per_arc, opts.budget
        )
        with pytest.raises(SystemExit):
            main(["mate", "--help"])
        help_text = capsys.readouterr().out
        for value in (opts.max_iters, opts.tol, opts.samples_per_arc, opts.budget):
            assert f"(default: {value})" in help_text

    def test_final_values_printed(self, capsys):
        code = main(["mate", "1/4", "1/4", "--iters", "2", "--tol", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "final u = 0 + 1i" in out
        assert "final v = 0 - 1i" in out
        assert "run-id:" in out

    def test_critical_value_at_infinity_printed(self, capsys):
        # from pullback 1 on, u sits at infinity
        assert main(["mate", "5/8", "3/4", "--iters", "40"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status: converged after 9 iterations" in out
        assert "final u = inf\n" in out

    def test_structural_failure_exit(self, capsys):
        assert main(["mate", "1/4", "3/4"]) == EXIT_STRUCTURAL
        assert "conjugate limbs" in capsys.readouterr().err

    def test_usage_validation(self, capsys):
        assert main(["mate", "1/4", "1/8", "--iters", "0"]) == EXIT_USAGE
        assert main(["mate", "1/4", "1/8", "--budget", "-5"]) == EXIT_USAGE
        assert main(["mate", "1/4", "1/8", "--render"]) == EXIT_USAGE

    def test_workers_option_is_gone(self):
        # lifting is serial; a leftover --workers is a usage error, not ignored
        proc = _run("-m", "quadmate.cli", "mate", "1/4", "1/8", "--iters", "1", "--workers", "2")
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--workers" in errors[0]
        assert proc.stdout == ""

    def test_budget_below_marks_is_usage_error(self, capsys):
        # the lifted (1/4, 1/8) curve carries 10 marks
        assert main(["mate", "1/4", "1/8", "--budget", "3"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--budget must be at least 10" in err
        assert len(err.strip().splitlines()) == 1

    def test_nan_tolerance_is_usage_error(self, capsys):
        assert main(["mate", "1/4", "1/8", "--tol", "nan"]) == EXIT_USAGE
        assert "--tol" in capsys.readouterr().err

    def test_dump_artifacts(self, tmp_path, capsys):
        code = main(
            ["mate", "1/4", "1/8", "--iters", "2", "--tol", "0",
             "--dump", str(tmp_path), "--render"]
        )
        assert code == EXIT_OK
        (run_dir,) = list(tmp_path.iterdir())
        names = sorted(p.name for p in run_dir.iterdir())
        assert "report.txt" in names
        # one dump per record, the last record's holding the final curve
        assert [n for n in names if n.startswith("curve-")] == [
            "curve-000.txt", "curve-001.txt", "curve-002.txt"
        ]
        assert "final-oblique.svg" in names
        curve = load_curve((run_dir / "curve-002.txt").read_text())
        assert curve.schedule.level == 2
        report = (run_dir / "report.txt").read_text()
        assert f"run-id {run_dir.name}" in report

    def test_curve_dumps_written_as_records_are_made(self, tmp_path, capsys, monkeypatch):
        # each record's dump is on disk before the next record is made, and
        # carries the level and (u, v) of its record
        real, seen = quadmate.cli.iterate, []

        def watching(alpha, beta, opts, curve_hook=None):
            def hook(curve):
                curve_hook(curve)
                seen.append(sorted(p.name for p in tmp_path.glob("*/curve-*.txt")))

            return real(alpha, beta, opts, curve_hook=hook)

        monkeypatch.setattr(quadmate.cli, "iterate", watching)
        code = main(["mate", "1/4", "1/8", "--iters", "2", "--tol", "0", "--samples", "8",
                     "--budget", "128", "--dump", str(tmp_path)])
        assert code == EXIT_OK
        names = [f"curve-{n:03d}.txt" for n in range(3)]
        assert seen == [names[:1], names[:2], names]
        (run_dir,) = list(tmp_path.iterdir())
        report = (run_dir / "report.txt").read_text().splitlines()
        for n, name in enumerate(names):
            # load_curve refuses u and v lines that are not the curve's own
            curve = load_curve((run_dir / name).read_text())
            assert curve.schedule.level == n
            u = curve.point_at(curve.schedule.black_value)
            v = curve.point_at(curve.schedule.red_value)
            assert any(line.startswith(f"{n} u={u!r} v={v!r} ") for line in report)

    def test_reruns_byte_identical(self, tmp_path, capsys):
        args = ["mate", "1/4", "1/8", "--iters", "2", "--tol", "0", "--render"]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--dump", str(d1)]) == EXIT_OK
        assert main(args + ["--dump", str(d2)]) == EXIT_OK
        (r1,) = list(d1.iterdir())
        (r2,) = list(d2.iterdir())
        assert r1.name == r2.name
        names = sorted(p.name for p in r1.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(r1, r2, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_run_id_depends_on_config(self, tmp_path, capsys):
        base = ["mate", "1/4", "1/8", "--iters", "1", "--tol", "0"]
        main(base + ["--dump", str(tmp_path)])
        # any value but the default
        samples = str(IterateOptions().samples_per_arc // 2)
        main(base + ["--samples", samples, "--dump", str(tmp_path)])
        assert len(list(tmp_path.iterdir())) == 2

    def test_env_var_dump_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QUADMATE_DUMP_DIR", str(tmp_path))
        assert main(["mate", "1/4", "1/4", "--iters", "1", "--tol", "0"]) == EXIT_OK
        (run_dir,) = list(tmp_path.iterdir())
        assert (run_dir / "report.txt").exists()

    @pytest.mark.parametrize("via_env", [False, True])
    def test_unusable_dump_dir_is_usage_error(self, tmp_path, capsys, monkeypatch, via_env):
        # refused before the run starts, with one line and no traceback
        taken = tmp_path / "taken"
        taken.write_text("")
        ran = []
        monkeypatch.setattr(quadmate.cli, "iterate", lambda *a, **k: ran.append(a))
        args = ["mate", "1/4", "1/8", "--iters", "2"]
        if via_env:
            monkeypatch.setenv("QUADMATE_DUMP_DIR", str(taken))
        else:
            args += ["--dump", str(taken)]
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("quadmate:") and str(taken) in lines[0]
        assert captured.out == ""
        assert ran == []
        assert taken.read_text() == ""

    @pytest.mark.parametrize("name", ["curve-001.txt", "report.txt"])
    def test_unwritable_artifact_is_usage_error(self, tmp_path, capsys, name):
        # a record's dump fails inside the run, the report after it; either
        # way one line and no traceback
        args = ["mate", "1/4", "1/8", "--iters", "2", "--dump", str(tmp_path)]
        assert main(args) == EXIT_OK
        (run_dir,) = list(tmp_path.iterdir())
        (run_dir / name).unlink()
        (run_dir / name).mkdir()
        capsys.readouterr()
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"quadmate: cannot write {run_dir / name}: ")

    def test_empty_env_var_dump_dir_is_unset(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QUADMATE_DUMP_DIR", "")
        monkeypatch.chdir(tmp_path)
        assert main(["mate", "1/4", "1/4", "--iters", "1", "--tol", "0"]) == EXIT_OK
        assert list(tmp_path.iterdir()) == []
        assert main(["mate", "1/4", "1/4", "--iters", "1", "--render"]) == EXIT_USAGE
        assert "--render needs a dump directory" in capsys.readouterr().err

    def test_divergence_exit_code(self, capsys):
        code = main(
            ["mate", "1/6", "1/6", "--iters", "40", "--samples", "32", "--budget", "2048"]
        )
        assert code == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert "status: diverged" in out
        assert "collided" in out

    def test_divergence_message_in_the_report(self, tmp_path, capsys):
        args = ["mate", "1/10", "19/20", "--iters", "20", "--dump", str(tmp_path)]
        assert main(args) == EXIT_NUMERIC
        message = (
            "postcritical points 2 and 5 collided: "
            "the embedding degenerated instead of converging"
        )
        assert f"detail: {message}\n" in capsys.readouterr().out
        (run_dir,) = list(tmp_path.iterdir())
        report = (run_dir / "report.txt").read_text().splitlines()
        assert "status diverged" in report
        assert f"message {message}" in report

    def test_normalization_miss_is_a_numeric_failure(self, capsys):
        # the gates accept (7/8, 25/32); its map misses the normalization
        # self-check in pullback 19, which is no gate refusal
        assert main(["check", "7/8", "25/32"]) == EXIT_OK
        capsys.readouterr()
        assert main(["mate", "7/8", "25/32", "--iters", "40"]) == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert "status: diverged after 18 iterations" in out
        assert "detail: numeric failure at iteration 19: normalization self-check failed" in out


def test_cli_imports_only_the_standard_library():
    # compared against the interpreter's own start-up modules, since site may
    # already have loaded third-party packages
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import quadmate.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = _run("-c", probe)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "quadmate.cli" in loaded
    foreign = [
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"quadmate"}
    ]
    assert foreign == []
