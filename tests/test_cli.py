import re
import subprocess
import sys

import numpy as np

import golden_data as gold
from bqpbench import BqpInstance, GenConfig, cli, generate_instance, solve_dual
from bqpbench.fileio import format_number
from conftest import FIXTURES


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bqpbench", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def parsed_lines(stdout):
    return dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)


def undecodable_file(tmp_path):
    """A file whose line 4 holds the byte 0xff, which is not UTF-8."""
    path = tmp_path / "bad.bqp"
    path.write_bytes(b"bqp 1\nn 1\nQ\n\xff\nc\n1\n")
    return path


class TestGen:
    def test_writes_file_and_prints_objective(self, tmp_path):
        out = tmp_path / "a.bqp"
        proc = run_cli("gen", "-n", "5", "--seed", "7", "-o", str(out), "--with-certificate")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("objective ")
        text = out.read_text()
        assert text.startswith("bqp 1\nn 5\nQ\n")
        assert "\nx\n" in text and "\nlambda\n" in text

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.bqp", tmp_path / "b.bqp"
        run_cli("gen", "-n", "6", "--seed", "3", "-o", str(a), "--with-certificate")
        run_cli("gen", "-n", "6", "--seed", "3", "-o", str(b), "--with-certificate")
        assert a.read_bytes() == b.read_bytes()

    def test_zero_dimension_is_usage_error(self, tmp_path):
        proc = run_cli("gen", "-n", "0", "-o", str(tmp_path / "a.bqp"))
        assert proc.returncode == 2

    def test_unwritable_path(self, tmp_path):
        proc = run_cli("gen", "-n", "2", "-o", str(tmp_path / "no" / "dir" / "a.bqp"))
        assert proc.returncode == 3

    def test_overflowing_base_fails_without_a_file(self, tmp_path):
        out = tmp_path / "a.bqp"
        proc = run_cli("gen", "-n", "50", "--base", "1e307", "-o", str(out))
        assert proc.returncode == 1
        assert proc.stderr == "generation failed: lambda overflows float64 at n=50, base=1e+307\n"
        assert proc.stdout == ""
        assert not out.exists()

    def test_overflowing_dual_value_fails_without_a_file(self, tmp_path):
        # Q, lambda and c are finite, but the planted objective is not.
        out = tmp_path / "a.bqp"
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "bqpbench", "gen", "-n", "100",
                               "--base", "1e305", "-o", str(out)], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "generation failed: the dual value overflows float64 at n=100, base=1e+305\n"
        assert proc.stdout == ""
        assert not out.exists()

    def test_unallocatable_dimension_fails_without_a_file(self, tmp_path):
        # The n x n draw needs 71.1 PiB, more than the address space, so
        # numpy refuses it at once; no larger n may be tried here.
        out = tmp_path / "a.bqp"
        proc = run_cli("gen", "-n", "100000000", "-o", str(out))
        assert proc.returncode == 1
        assert proc.stderr == "generation failed: cannot allocate an n x n matrix at n=100000000\n"
        assert proc.stdout == ""
        assert not out.exists()

    def test_certificate_omitted_by_default(self, tmp_path):
        out = tmp_path / "b.bqp"
        proc = run_cli("gen", "-n", "10", "--seed", "1", "-o", str(out))
        assert proc.returncode == 0
        verify = run_cli("verify", str(out))
        assert verify.returncode == 1
        assert "no certificate present" in verify.stdout


class TestSolve:
    def test_example1(self):
        proc = run_cli("solve", str(FIXTURES / "example1.bqp"))
        assert proc.returncode == 0
        assert proc.stderr == ""
        fields = parsed_lines(proc.stdout)
        lam = np.array([float(v) for v in fields["lambda"].split()])
        assert np.abs(lam - gold.LAMBDA1_REPORTED).max() <= 1e-3
        assert fields["x"] == "-1 1 -1 -1 -1"
        assert fields["status"] == "Certified"
        assert float(fields["primal"]) == gold.F1

    def test_example3(self):
        proc = run_cli("solve", str(FIXTURES / "example3.bqp"))
        assert proc.returncode == 0
        lam = np.array([float(v) for v in parsed_lines(proc.stdout)["lambda"].split()])
        assert np.abs(lam - gold.LAMBDA3_REPORTED).max() <= 1e-2

    def test_missing_file(self):
        proc = run_cli("solve", "missing.bqp")
        assert proc.returncode == 4

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.bqp"
        bad.write_text("bqp 1\nn 2\nQ\n0 1\n1 0\nc\n1\n")
        proc = run_cli("solve", str(bad))
        assert proc.returncode == 4

    def test_non_ascii_dimension_is_parse_error(self, tmp_path):
        # '\u00b2' passes str.isdigit but int() rejects it.
        bad = tmp_path / "bad.bqp"
        bad.write_text("bqp 1\nn \u00b2\nQ\n1\nc\n1\n", encoding="utf-8")
        proc = run_cli("solve", str(bad))
        assert proc.returncode == 4
        assert proc.stderr == "line 2: expected 'n <positive integer>'\n"

    def test_emit_cert_verifies(self, tmp_path):
        src = tmp_path / "inst.bqp"
        cert = tmp_path / "cert.bqp"
        run_cli("gen", "-n", "8", "--seed", "5", "-o", str(src))
        proc = run_cli("solve", str(src), "--emit-cert", str(cert))
        assert proc.returncode == 0
        verify = run_cli("verify", str(cert))
        assert verify.returncode == 0

    def test_uncertifiable_instance_exits_one(self, tmp_path):
        path = tmp_path / "flat.bqp"
        path.write_text("bqp 1\nn 2\nQ\n0 0\n0 0\nc\n0 0\n")
        cert = tmp_path / "cert.bqp"
        proc = run_cli("solve", str(path), "--emit-cert", str(cert))
        assert proc.returncode == 1
        fields = parsed_lines(proc.stdout)
        assert fields["status"] == "MaxIterations"
        assert "x -" in proc.stdout.splitlines()
        assert not cert.exists()

    def test_try_after_the_last_allowed_step_exits_zero(self):
        # The first primal try misses this instance; the budget of eight
        # ascent steps is spent, and the try where the ascent stops
        # certifies.
        proc = run_cli("solve", str(FIXTURES / "ascent8.bqp"), "--max-iter", "8")
        assert proc.returncode == 0
        fields = parsed_lines(proc.stdout)
        assert fields["status"] == "Certified"
        assert fields["iterations"] == "8"
        assert fields["lambda"] == "33 54 83 56 34 36 32 34"

    def test_overflowing_row_sums_report_no_feasible_start(self, tmp_path):
        path = tmp_path / "huge.bqp"
        path.write_text("bqp 1\nn 2\nQ\n1e308 1e308\n1e308 1e308\nc\n1 1\n")
        proc = run_cli("solve", str(path))
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert parsed_lines(proc.stdout)["status"] == "NoFeasibleStart"

    def test_overflowing_step_reports_without_traceback(self, tmp_path):
        # Finite data on which the solver's step arithmetic overflows.
        path = tmp_path / "near_limit.bqp"
        path.write_text("bqp 1\nn 2\nQ\n5e306 5e306\n5e306 7.5e306\nc\n5e306 5e306\n")
        proc = run_cli("solve", str(path))
        assert proc.returncode in (0, 1)
        assert proc.stderr == ""
        assert "status" in parsed_lines(proc.stdout)

    def test_undecodable_byte_is_parse_error(self, tmp_path):
        proc = run_cli("solve", str(undecodable_file(tmp_path)))
        assert proc.returncode == 4
        assert proc.stderr == "line 4: byte 0xff does not decode as UTF-8\n"
        assert proc.stdout == ""

    def test_bare_carriage_return_is_parse_error(self, tmp_path):
        # The file reaches parse_instance untranslated, so a bare \r is the
        # separator error it is in the parser, not a line break.
        path = tmp_path / "cr.bqp"
        path.write_bytes(b"bqp 1\rn 1\nQ\n1\nc\n1\n")
        proc = run_cli("solve", str(path))
        assert proc.returncode == 4
        assert proc.stderr == "line 1: separator '\\r' is not a space or tab\n"
        assert proc.stdout == ""

    def test_undecodable_byte_line_counts_only_newlines(self, tmp_path):
        # 0xff is on the third \n-terminated line; the bare \r before it
        # does not start a line.
        path = tmp_path / "bad.bqp"
        path.write_bytes(b"bqp 1\rn 1\nQ\n\xff\nc\n1\n")
        proc = run_cli("solve", str(path))
        assert proc.returncode == 4
        assert proc.stderr == "line 3: byte 0xff does not decode as UTF-8\n"
        assert proc.stdout == ""

    def test_invalid_max_iter(self):
        proc = run_cli("solve", str(FIXTURES / "example1.bqp"), "--max-iter", "0")
        assert proc.returncode == 2

    def test_unwritable_certificate_path(self, tmp_path):
        target = tmp_path / "no" / "x.bqp"
        proc = run_cli("solve", str(FIXTURES / "example1.bqp"), "--emit-cert", str(target))
        assert proc.returncode == 3
        assert proc.stderr == f"cannot write {target}: No such file or directory\n"
        assert proc.stdout.endswith("status Certified\n")


class TestVerify:
    def test_example1(self):
        proc = run_cli("verify", str(FIXTURES / "example1.bqp"))
        assert proc.returncode == 0
        assert proc.stderr == ""
        fields = parsed_lines(proc.stdout)
        assert fields["overall"] == "true"
        assert abs(float(fields["gap"])) <= 1e-9

    def test_output_pinned(self):
        proc = run_cli("verify", str(FIXTURES / "example1.bqp"))
        assert proc.stdout == (
            "pd_ok true\nstationary_ok true\nboolean_ok true\ngap_ok true\n"
            "overall true\ngap 0\nQ inertia: 3 negative, 0 zero, 2 positive\n"
        )

    def test_missing_file(self):
        proc = run_cli("verify", "missing.bqp")
        assert proc.returncode == 4
        assert proc.stderr == "line 0: cannot read missing.bqp: No such file or directory\n"

    def test_undecodable_byte_is_parse_error(self, tmp_path):
        proc = run_cli("verify", str(undecodable_file(tmp_path)))
        assert proc.returncode == 4
        assert proc.stderr == "line 4: byte 0xff does not decode as UTF-8\n"
        assert proc.stdout == ""

    def test_near_limit_certificate_under_warnings_as_errors(self, tmp_path):
        # The dual value overflows to -inf: verify reports the failed gap
        # and exits 1, with no warning (an error under -W error).
        path = tmp_path / "limit.bqp"
        path.write_text("bqp 1\nn 2\nQ\n5e306 5e306\n5e306 7.5e306\nc\n5e306 5e306\n"
                        "x\n1 -1\nlambda\n1e308 1e308\n")
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "bqpbench", "verify", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == ""
        fields = parsed_lines(proc.stdout)
        assert fields["overall"] == "false"
        assert fields["gap"] == "inf"

    def test_overflowing_objective_under_warnings_as_errors(self, tmp_path):
        # Positive definite, stationary and a sign vector, but f(x)
        # overflows: verify and solve both exit 1 with nothing on stderr.
        path = tmp_path / "overflow.bqp"
        path.write_text("bqp 1\nn 2\nQ\n0 0\n0 0\nc\n1e308 1e308\nx\n1 1\nlambda\n1e308 1e308\n")
        for command in ("verify", "solve"):
            proc = subprocess.run([sys.executable, "-W", "error", "-m", "bqpbench", command, str(path)],
                                  capture_output=True, text=True)
            assert proc.returncode == 1
            assert proc.stderr == ""
            if command == "verify":
                assert parsed_lines(proc.stdout)["overall"] == "false"

    def test_tampered_certificate_fails(self, tmp_path):
        text = (FIXTURES / "example1.bqp").read_text()
        tampered = tmp_path / "tampered.bqp"
        tampered.write_text(text.replace("-1 1 -1 -1 -1", "1 1 -1 -1 -1"))
        proc = run_cli("verify", str(tampered))
        assert proc.returncode == 1
        assert parsed_lines(proc.stdout)["stationary_ok"] == "false"


    def test_overflowing_shift_is_not_positive_definite(self, tmp_path):
        path = tmp_path / "huge.bqp"
        path.write_text("bqp 1\nn 1\nQ\n1e308\nc\n1\nx\n1\nlambda\n1e308\n")
        proc = run_cli("verify", str(path))
        assert proc.returncode == 1
        assert proc.stderr == ""
        fields = parsed_lines(proc.stdout)
        assert fields["pd_ok"] == "false" and fields["stationary_ok"] == "false"
        assert fields["overall"] == "false"


class TestOracle:
    def test_missing_file(self):
        proc = run_cli("oracle", "missing.bqp")
        assert proc.returncode == 4
        assert proc.stderr == "line 0: cannot read missing.bqp: No such file or directory\n"

    def test_example1(self):
        proc = run_cli("oracle", str(FIXTURES / "example1.bqp"))
        assert proc.returncode == 0
        fields = parsed_lines(proc.stdout)
        assert fields["best_value"] == "-171"
        assert fields["minimizer_count"] == "1"
        assert fields["best_x"] == "-1 1 -1 -1 -1"

    def test_exact_ties_on_integral_data(self):
        # Two vectors 2 apart at 1e10: integral data tie only exactly.
        proc = run_cli("oracle", str(FIXTURES / "near_tie2.bqp"))
        assert proc.returncode == 0
        assert proc.stdout == "best_x 1 1\nbest_value -10000000001\nminimizer_count 1\n"

    def test_refuses_large_instance(self, tmp_path):
        big = tmp_path / "big.bqp"
        run_cli("gen", "-n", "26", "--seed", "1", "-o", str(big))
        proc = run_cli("oracle", str(big))
        assert proc.returncode == 5

    def test_refuses_overflowing_objective(self, tmp_path):
        # A valid file on which every objective value overflows float64.
        path = tmp_path / "huge.bqp"
        path.write_text("bqp 1\nn 2\nQ\n-1e308 1e308\n1e308 -1e308\nc\n1 1\n")
        proc = run_cli("oracle", str(path))
        assert proc.returncode == 5
        assert proc.stderr == "objective values overflow float64\n"
        assert proc.stdout == ""

    def test_unallocatable_sign_tables_fail_as_too_large(self, tmp_path):
        # At n = 60 the prefix table needs 2^47 codes (512 TiB), more than
        # the address space, so numpy refuses it at once; no n between 26
        # and 60 may be tried here.
        path = tmp_path / "a.bqp"
        run_cli("gen", "-n", "60", "--seed", "1", "-o", str(path))
        proc = run_cli("oracle", str(path), "--force")
        assert proc.returncode == 5
        assert proc.stderr == "cannot allocate the sign tables at n=60\n"
        assert proc.stdout == ""

    def test_force_overrides_cap(self, tmp_path):
        big = tmp_path / "big.bqp"
        run_cli("gen", "-n", "26", "--seed", "1", "-o", str(big), "--with-certificate")
        proc = run_cli("oracle", str(big), "--force")
        assert proc.returncode == 0
        # The planted optimum is the true minimum.
        solve = run_cli("solve", str(big))
        fields = parsed_lines(solve.stdout)
        assert parsed_lines(proc.stdout)["best_value"] == fields["primal"]


class TestBench:
    def test_sweep_writes_csv(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        proc = run_cli("bench", "--sizes", "5,8", "--seeds", "2", "--csv", str(csv_path))
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,seed,gen_ms,solve_ms,iters,gap,certified"
        assert len(lines) == 5
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["5", "0"], ["5", "1"], ["8", "0"], ["8", "1"],
        ]
        assert all(line.endswith(",true") for line in lines[1:])

    def test_solve_ms_times_a_solve_that_factorizes(self, tmp_path, monkeypatch, factorizations):
        # A generated instance holds its planted dual point: a solve of it
        # is a memo hit that factorizes nothing, so bench solves a fresh
        # instance of the same data, with the gap of any re-solve.
        per_solve = []
        real = cli.solve_dual

        def counted(inst, *args):
            before = len(factorizations)
            report = real(inst, *args)
            per_solve.append(len(factorizations) - before)
            return report

        monkeypatch.setattr(cli, "solve_dual", counted)
        csv_path = tmp_path / "b.csv"
        assert cli.main(["bench", "--sizes", "20,30", "--seeds", "2", "--csv", str(csv_path)]) == 0
        assert len(per_solve) == 4
        assert min(per_solve) >= 1
        for line in csv_path.read_text().splitlines()[1:]:
            n, seed, _, _, _, gap, _ = line.split(",")
            inst, _ = generate_instance(GenConfig(n=int(n), seed=int(seed)))
            assert gap == format_number(solve_dual(BqpInstance(inst.q, inst.c)).gap)

    def test_unwritable_csv_path(self, tmp_path):
        target = tmp_path / "no" / "b.csv"
        proc = run_cli("bench", "--sizes", "3", "--seeds", "1", "--csv", str(target))
        assert proc.returncode == 3
        assert proc.stderr == f"cannot write {target}: No such file or directory\n"

    def test_unallocatable_size_fails_without_a_csv(self, tmp_path):
        # As for gen -n 100000000: numpy refuses the n x n draw at once.
        csv_path = tmp_path / "b.csv"
        proc = run_cli("bench", "--sizes", "100000000", "--seeds", "1", "--csv", str(csv_path))
        assert proc.returncode == 1
        assert proc.stderr == "generation failed: cannot allocate an n x n matrix at n=100000000\n"
        assert proc.stdout == ""
        assert not csv_path.exists()

    def test_csv_flag_required(self):
        proc = run_cli("bench", "--sizes", "4")
        assert proc.returncode == 2

    def test_jobs_flag_removed(self, tmp_path):
        proc = run_cli("bench", "--sizes", "4", "--jobs", "2", "--csv", str(tmp_path / "b.csv"))
        assert proc.returncode == 2


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("gen", "solve", "verify", "oracle", "bench"):
        assert sub in proc.stdout


def readme_example():
    """The command and output lines of the README's worked ``solve`` example."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n\$ (bqpbench solve .*?)\n(.*?)```", text, re.S)
    return block.group(1).split()[1:], block.group(2).splitlines()


def test_readme_worked_example_matches_the_cli():
    # Text must match exactly; numbers within 1e-9 * (1 + |value|), because
    # their last digits depend on the LAPACK build.
    args, expected = readme_example()
    proc = run_cli(*args, cwd=FIXTURES.parent)
    assert proc.returncode == 0
    assert proc.stderr == ""
    actual = proc.stdout.splitlines()
    assert len(actual) == len(expected)
    for got_line, want_line in zip(actual, expected):
        got, want = got_line.split(), want_line.split()
        assert len(got) == len(want), (got_line, want_line)
        for g, w in zip(got, want):
            try:
                w_value = float(w)
            except ValueError:
                assert g == w, (got_line, want_line)
                continue
            assert abs(float(g) - w_value) <= 1e-9 * (1.0 + abs(w_value)), (got_line, want_line)
