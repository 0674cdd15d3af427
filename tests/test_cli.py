import subprocess
import sys

import numpy as np

import golden_data as gold
from conftest import FIXTURES


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bqpbench", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def parsed_lines(stdout):
    return dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)


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
        proc = run_cli("solve", str(path))
        assert proc.returncode == 1
        fields = parsed_lines(proc.stdout)
        assert fields["status"] == "MaxIterations"
        assert fields["x"] == "-"

    def test_stationary_on_last_iteration_exits_zero(self, tmp_path):
        # Two steps reach the stationary point; the budget of two must suffice.
        src = tmp_path / "inst.bqp"
        run_cli("gen", "-n", "50", "--seed", "3", "-o", str(src))
        proc = run_cli("solve", str(src), "--max-iter", "2")
        assert proc.returncode == 0
        assert parsed_lines(proc.stdout)["status"] == "Certified"

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

    def test_tampered_certificate_fails(self, tmp_path):
        text = (FIXTURES / "example1.bqp").read_text()
        tampered = tmp_path / "tampered.bqp"
        tampered.write_text(text.replace("-1 1 -1 -1 -1", "1 1 -1 -1 -1"))
        proc = run_cli("verify", str(tampered))
        assert proc.returncode == 1
        assert parsed_lines(proc.stdout)["stationary_ok"] == "false"


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

    def test_refuses_large_instance(self, tmp_path):
        big = tmp_path / "big.bqp"
        run_cli("gen", "-n", "26", "--seed", "1", "-o", str(big))
        proc = run_cli("oracle", str(big))
        assert proc.returncode == 5

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

    def test_jobs_preserve_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("bench", "--sizes", "4,6", "--seeds", "2", "--csv", str(a))
        run_cli("bench", "--sizes", "4,6", "--seeds", "2", "--jobs", "3", "--csv", str(b))

        def stable_columns(path):
            rows = []
            for line in path.read_text().splitlines()[1:]:
                n, seed, _, _, iters, gap, certified = line.split(",")
                rows.append((n, seed, iters, gap, certified))
            return rows

        assert stable_columns(a) == stable_columns(b)

    def test_unwritable_csv_path(self, tmp_path):
        target = tmp_path / "no" / "b.csv"
        proc = run_cli("bench", "--sizes", "3", "--seeds", "1", "--csv", str(target))
        assert proc.returncode == 3
        assert proc.stderr == f"cannot write {target}: No such file or directory\n"

    def test_csv_flag_required(self):
        proc = run_cli("bench", "--sizes", "4")
        assert proc.returncode == 2


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("gen", "solve", "verify", "oracle", "bench"):
        assert sub in proc.stdout
