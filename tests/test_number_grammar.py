"""One number grammar for ``.bqp`` files and command-line flags.

Every numeric flag reads its value with the reader the parser uses for the
matching file field: ``read_number`` for a row entry, ``read_count`` for the
``n`` line.  So a token the file rejects is an exit-2 usage error naming the
flag, never a traceback or a silently accepted value.
"""

import subprocess
import sys

import pytest

from conftest import FIXTURES
from bqpbench import Certificate, GenConfig, InstanceFile, generate_instance, serialize_instance
from bqpbench.cli import main as cli_main
from bqpbench.fileio import ParseError, parse_instance, read_count, read_number

CORPUS = ["inf", "nan", "1e309", "1_0", "１２", "١", "+5", "x"]
EXAMPLE = str(FIXTURES / "example1.bqp")

# flag name -> (file field it shares a reader with, argv builder taking (tmp dir, value)).
FLAGS = {
    "-n": ("count", lambda d, v: ["gen", "-o", str(d / "g.bqp"), "-n", v]),
    "--base": ("row", lambda d, v: ["gen", "-n", "3", "-o", str(d / "g.bqp"), "--base", v]),
    "--seed": ("count", lambda d, v: ["gen", "-n", "3", "-o", str(d / "g.bqp"), "--seed", v]),
    "--margin": ("row", lambda d, v: ["gen", "-n", "3", "-o", str(d / "g.bqp"), "--margin", v]),
    "--grad-tol": ("row", lambda d, v: ["solve", EXAMPLE, "--grad-tol", v]),
    "--max-iter": ("count", lambda d, v: ["solve", EXAMPLE, "--max-iter", v]),
    "--tol": ("row", lambda d, v: ["verify", EXAMPLE, "--tol", v]),
    "--sizes": ("count", lambda d, v: ["bench", "--seeds", "1", "--csv", str(d / "b.csv"), "--sizes", v]),
    "--seeds": ("count", lambda d, v: ["bench", "--sizes", "3", "--csv", str(d / "b.csv"), "--seeds", v]),
}


def file_accepts(field: str, token: str) -> bool:
    if field == "count":
        text = f"bqp 1\nn {token}\nQ\n1\nc\n0\n"
    else:
        text = f"bqp 1\nn 1\nQ\n{token}\nc\n0\n"
    try:
        parse_instance(text)
    except ParseError:
        return False
    return True


def run_main(argv, capsys):
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("token", CORPUS)
@pytest.mark.parametrize("flag", FLAGS)
def test_flags_reject_what_files_reject(flag, token, tmp_path, capsys):
    field, argv = FLAGS[flag]
    code, err = run_main(argv(tmp_path, token), capsys)
    if file_accepts(field, token):
        assert code != 2, err
    else:
        assert code == 2
        assert f"argument {flag}: " in err
        assert "Traceback" not in err


def test_corpus_rejected_by_readers():
    for token in CORPUS:
        with pytest.raises(ValueError):
            read_count(token)
        if token != "+5":
            with pytest.raises(ValueError):
                read_number(token)
    assert read_number("+5") == 5.0
    assert read_count("007") == 7


def test_reader_messages_match_parse_errors():
    for token, reason in [("1_0", "bad numeric token '1_0'"), ("inf", "non-finite value 'inf'")]:
        with pytest.raises(ParseError) as info:
            parse_instance(f"bqp 1\nn 1\nQ\n{token}\nc\n0\n")
        assert (info.value.line, info.value.reason) == (4, reason)
        with pytest.raises(ValueError, match=reason):
            read_number(token)


def test_overlong_dimension_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_instance("bqp 1\nn " + "9" * 5000 + "\nQ\n")
    assert info.value.line == 2


def test_verify_rejects_infinite_tolerance(tmp_path):
    inst, cert = generate_instance(GenConfig(n=5, seed=7))
    tampered = Certificate(x=cert.x, lam=cert.lam + 5.0)
    path = tmp_path / "tampered.bqp"
    path.write_text(serialize_instance(InstanceFile(instance=inst, certificate=tampered)))
    verify = [sys.executable, "-m", "bqpbench", "verify", str(path)]
    default = subprocess.run(verify, capture_output=True, text=True)
    assert default.returncode == 1
    assert "overall false" in default.stdout
    proc = subprocess.run([*verify, "--tol", "inf"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --tol: non-finite value 'inf'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_finite_base_is_a_usage_error(tmp_path):
    out = tmp_path / "g.bqp"
    proc = subprocess.run(
        [sys.executable, "-m", "bqpbench", "gen", "-n", "3", "--base", "inf", "-o", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "argument --base: non-finite value 'inf'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
