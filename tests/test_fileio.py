import hashlib
import tracemalloc

import numpy as np
import pytest

import golden_data as gold
from conftest import load_fixture_text
from bqpbench import (
    BqpInstance,
    BenchRecord,
    GenConfig,
    InstanceFile,
    ParseError,
    generate_instance,
    parse_instance,
    serialize_instance,
    write_bench_csv,
)
from bqpbench.fileio import BENCH_CSV_HEADER, format_number, format_row


GOLDEN_FIXTURES = [
    ("example1.bqp", gold.Q1, gold.C1, gold.X1, gold.LAMBDA1_INT),
    ("example2.bqp", gold.Q2, gold.C2, gold.X2, gold.LAMBDA2_INT),
    ("example3.bqp", gold.Q3, gold.C3, gold.X3, gold.LAMBDA3_INT),
]


class TestFixtureFidelity:
    @pytest.mark.parametrize("name,q,c,x,lam", GOLDEN_FIXTURES)
    def test_fixture_matches_published_data(self, name, q, c, x, lam):
        f = parse_instance(load_fixture_text(name))
        np.testing.assert_array_equal(f.instance.q, q)
        np.testing.assert_array_equal(f.instance.c, c)
        np.testing.assert_array_equal(f.certificate.x, x)
        np.testing.assert_array_equal(f.certificate.lam, lam)

    @pytest.mark.parametrize("name,q,c,x,lam", GOLDEN_FIXTURES)
    def test_fixture_text_is_canonical(self, name, q, c, x, lam):
        text = load_fixture_text(name)
        assert serialize_instance(parse_instance(text)) == text


class TestSerialize:
    def test_minimal_instance_is_four_lines(self):
        f = InstanceFile(instance=BqpInstance([[3.0]], [2.0]))
        assert serialize_instance(f) == "bqp 1\nn 1\nQ\n3\nc\n2\n"

    def test_serialize_parse_serialize_is_identity(self):
        inst, cert = generate_instance(GenConfig(n=4, seed=2))
        f = InstanceFile(instance=inst, certificate=cert, metadata={"seed": "2", "note": "a b c"})
        once = serialize_instance(f)
        twice = serialize_instance(parse_instance(once))
        assert once == twice

    def test_round_trip_random_files(self):
        rng = np.random.default_rng(71)
        for trial in range(100):
            n = int(rng.integers(1, 9))
            inst, cert = generate_instance(GenConfig(n=n, seed=trial, margin=float(rng.integers(0, 3))))
            f = InstanceFile(
                instance=inst,
                certificate=cert if trial % 2 == 0 else None,
                metadata={"seed": str(trial)} if trial % 3 == 0 else {},
            )
            again = parse_instance(serialize_instance(f))
            assert again == f

    def test_non_integral_values_round_trip(self):
        q = np.array([[0.1, 1.0 / 3.0], [1.0 / 3.0, -2.7e-13]])
        f = InstanceFile(instance=BqpInstance(q, [1e-17, 3.5]))
        again = parse_instance(serialize_instance(f))
        assert again == f

    def test_generated_file_bytes_are_pinned(self):
        inst, cert = generate_instance(GenConfig(n=300, seed=7))
        text = serialize_instance(InstanceFile(instance=inst, certificate=cert))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "25c47dc176786cb5b11746d9b1658de75a8c17b22e8d67db9f32d2327c6997ed"

    @pytest.mark.parametrize("value", [2.0 ** 53, -2.0 ** 53, 1e300, 0.5, 1e-300, -0.0])
    def test_row_edge_values_print_as_format_number(self, value):
        # Each value beside small integers, as in a generated Q row.
        row = np.array([value, 3.0, -1.0])
        assert format_row(row) == " ".join(format_number(v) for v in row)
        f = InstanceFile(instance=BqpInstance(np.diag(row), row))
        assert parse_instance(serialize_instance(f)) == f

    def test_format_number_shortest_round_trip(self):
        for value in (0.1, 1.0 / 3.0, -2.5e-17, 1234567.0, -0.0, 3.5):
            assert float(format_number(value)) == float(value)
        assert format_number(22.0) == "22"
        assert format_number(-1.0) == "-1"


class TestParseErrors:
    def test_short_c_row(self):
        text = "bqp 1\nn 3\nQ\n0 0 0\n0 0 0\n0 0 0\nc\n1 2\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 8
        assert "expected 3 values" in exc.value.reason

    def test_asymmetric_matrix(self):
        text = "bqp 1\nn 2\nQ\n0 1\n2 0\nc\n1 1\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert "asymmetric" in exc.value.reason
        assert exc.value.line == 5

    def test_non_sign_certificate_entry(self):
        text = "bqp 1\nn 2\nQ\n2 0\n0 2\nc\n1 1\nx\n-1 0\nlambda\n1 1\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert "not -1 or 1" in exc.value.reason

    def test_unknown_section(self):
        text = "bqp 1\nn 1\nQ\n1\nc\n1\nzzz\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert "unknown section" in exc.value.reason

    def test_bad_token(self):
        text = "bqp 1\nn 1\nQ\nfoo\nc\n1\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert "bad numeric token" in exc.value.reason

    @pytest.mark.parametrize("row,reason", [
        ("1 inf x", "non-finite value 'inf'"),
        ("x inf 1", "bad numeric token 'x'"),
    ])
    def test_first_bad_token_in_row_is_reported(self, row, reason):
        text = f"bqp 1\nn 3\nQ\n1 0 0\n0 1 0\n0 0 1\nc\n{row}\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert (exc.value.line, exc.value.reason) == (8, reason)

    @pytest.mark.parametrize("token", ["1_0", "\uff11\uff12", "\u0661"])
    def test_non_ascii_or_underscored_number_rejected(self, token):
        # Python's float() reads these as 10, 12 and 1; the format does not.
        text = f"bqp 1\nn 2\nQ\n1 0\n0 1\nc\n1 {token}\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert (exc.value.line, exc.value.reason) == (7, f"bad numeric token {token!r}")

    @pytest.mark.parametrize("token", ["\u00b2", "\u0661"])
    def test_non_ascii_dimension_rejected(self, token):
        with pytest.raises(ParseError) as exc:
            parse_instance(f"bqp 1\nn {token}\nQ\n1\nc\n1\n")
        assert (exc.value.line, exc.value.reason) == (2, "expected 'n <positive integer>'")

    @pytest.mark.parametrize("sep", [
        "\u00a0", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
        "\u2028", "\u2029", "\r",
    ])
    def test_separator_other_than_space_or_tab_rejected(self, sep):
        text = f"bqp 1\nn 2\nQ\n1{sep}0\n0 1\nc\n1 1\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert (exc.value.line, exc.value.reason) == (4, f"separator {sep!r} is not a space or tab")

    def test_one_line_q_block_is_not_two_rows(self):
        # ``str.splitlines`` would break this line at \x1c and read I2.
        with pytest.raises(ParseError) as exc:
            parse_instance("bqp 1\nn 2\nQ\n1 0\x1c0 1\nc\n1 1\n")
        assert (exc.value.line, exc.value.reason) == (4, "separator '\\x1c' is not a space or tab")

    @pytest.mark.parametrize("text,line", [
        ("bqp\u00a01\nn 1\nQ\n1\nc\n1\n", 1),
        ("bqp 1\nn\u20281\nQ\n1\nc\n1\n", 2),
        ("bqp 1\nn 1\nQ\n1\nc\n1\nmeta k a\u00a0b\n", 7),
        ("bqp 1\nn 1\nQ\u2029\n1\nc\n1\n", 3),
    ])
    def test_other_separator_in_structural_line_rejected(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == line
        assert "is not a space or tab" in exc.value.reason

    @pytest.mark.parametrize("text,line,reason", [
        # The count error on line 4 comes before the U+00A0 on line 5.
        ("bqp 1\nn 2\nQ\n1 0 0\n0\u00a01\nc\n1 1\n", 4, "expected 2 values in Q row, got 3"),
        # The separator on line 4 comes before the bad token on line 5.
        ("bqp 1\nn 2\nQ\n2\u00a00\n0 x\nc\n1 1\n", 4, "separator '\\xa0' is not a space or tab"),
    ])
    def test_errors_are_found_line_by_line_in_file_order(self, text, line, reason):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert (exc.value.line, exc.value.reason) == (line, reason)

    def test_non_finite_rejected(self):
        text = "bqp 1\nn 1\nQ\ninf\nc\n1\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_wrong_version(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("bqp 2\nn 1\nQ\n1\nc\n1\n")
        assert "version" in exc.value.reason

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_instance("")

    def test_zero_dimension(self):
        with pytest.raises(ParseError):
            parse_instance("bqp 1\nn 0\nQ\nc\n")

    def test_x_without_lambda(self):
        text = "bqp 1\nn 1\nQ\n1\nc\n1\nx\n1\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert "incomplete certificate" in exc.value.reason

    def test_lambda_without_x(self):
        text = "bqp 1\nn 1\nQ\n1\nc\n1\nlambda\n1\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert "incomplete certificate" in exc.value.reason

    def test_duplicate_meta_key(self):
        text = "bqp 1\nn 1\nQ\n1\nc\n1\nmeta a 1\nmeta a 2\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert "duplicate" in exc.value.reason

    def test_truncated_file(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("bqp 1\nn 2\nQ\n0 1\n")
        assert "unexpected end of file" in exc.value.reason

    @staticmethod
    def _parse_error_and_peak(text):
        """The ParseError that ``text`` raises, and the traced allocation peak."""
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                parse_instance(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return exc.value, peak

    def test_short_rows_allocate_no_more_than_the_text(self):
        # A large declared n followed by enough one-value lines to outnumber
        # n: the Q matrix must not be reserved before a row has parsed.
        n = 20000
        text = f"bqp 1\nn {n}\nQ\n" + "0\n" * (n + 2)
        error, peak = self._parse_error_and_peak(text)
        assert error.line == 4
        assert f"expected {n} values in Q row" in error.reason
        assert peak < 100 * len(text)

    def test_huge_dimension_with_short_row(self):
        # Nothing sized by n (8 GB per row here) may be reserved before the
        # row's token count is checked.
        text = "bqp 1\nn 1000000000\nQ\n0\nc\n0\n"
        error, peak = self._parse_error_and_peak(text)
        assert error.line == 4
        assert "expected 1000000000 values in Q row" in error.reason
        assert peak < 1_000_000


class TestParseTolerance:
    def test_comments_and_blank_lines(self):
        text = "# header comment\nbqp 1\n\nn 1\nQ\n4  # inline comment\nc\n-2\n"
        f = parse_instance(text)
        assert f.instance.q[0, 0] == 4.0
        assert f.instance.c[0] == -2.0

    def test_metadata_value_keeps_spaces(self):
        text = "bqp 1\nn 1\nQ\n1\nc\n1\nmeta note one two three\n"
        assert parse_instance(text).metadata == {"note": "one two three"}

    def test_crlf_line_ends_parse(self):
        text = load_fixture_text("example1.bqp")
        assert parse_instance(text.replace("\n", "\r\n")) == parse_instance(text)

    def test_comments_may_hold_any_whitespace(self):
        text = "bqp 1\nn 1 # \u00a0\x1c\u2028\r\nQ\n1\nc\n1\n"
        assert parse_instance(text).instance.q[0, 0] == 1.0

    def test_non_ascii_metadata_value_round_trips(self):
        f = InstanceFile(instance=BqpInstance([[1.0]], [1.0]), metadata={"note": "café au\tlait"})
        text = serialize_instance(f)
        assert parse_instance(text) == f
        assert serialize_instance(parse_instance(text)) == text

    def test_unrepresentable_metadata_rejected_at_serialize(self):
        inst = BqpInstance([[1.0]], [1.0])
        for metadata in (
            {"a b": "x"}, {"k": "with # mark"}, {"k": ""},
            {"k": "a\rb"}, {"k": "a\x0cb"}, {"k": "a\u2028b"}, {"k": "a\u00a0b"},
            {"k": " lead"}, {"k": "trail "},
        ):
            with pytest.raises(ValueError):
                serialize_instance(InstanceFile(instance=inst, metadata=metadata))


class TestBenchCsv:
    def test_empty_is_header_only(self):
        assert write_bench_csv([]) == BENCH_CSV_HEADER + "\n"

    def test_rows_from_real_run(self):
        from bqpbench import solve_dual, SolveStatus
        import time

        records = []
        for seed in (1, 2):
            start = time.perf_counter()
            inst, _ = generate_instance(GenConfig(n=5, seed=seed))
            gen_ms = (time.perf_counter() - start) * 1000.0
            start = time.perf_counter()
            report = solve_dual(inst)
            solve_ms = (time.perf_counter() - start) * 1000.0
            records.append(BenchRecord(
                n=5, seed=seed, gen_millis=gen_ms, solve_millis=solve_ms,
                iterations=report.iterations, gap=report.gap,
                certified=report.status is SolveStatus.CERTIFIED,
            ))
        text = write_bench_csv(records)
        lines = text.splitlines()
        assert lines[0] == "n,seed,gen_ms,solve_ms,iters,gap,certified"
        assert len(lines) == 3
        assert lines[1].startswith("5,1,") and lines[1].endswith(",true")
        assert lines[2].startswith("5,2,") and lines[2].endswith(",true")

    def test_order_preserved(self):
        records = [
            BenchRecord(n=3, seed=9, gen_millis=1.0, solve_millis=2.0,
                        iterations=4, gap=0.0, certified=True),
            BenchRecord(n=2, seed=1, gen_millis=1.0, solve_millis=2.0,
                        iterations=4, gap=0.5, certified=False),
        ]
        lines = write_bench_csv(records).splitlines()
        assert lines[1].startswith("3,9,")
        assert lines[2].startswith("2,1,")
        assert lines[2].endswith(",false")

    @pytest.mark.parametrize("bad", [
        dict(n=2.5), dict(seed=-1.5), dict(seed=-1), dict(seed=1.0),
        dict(iterations=float("inf")), dict(iterations=-1), dict(iterations=2.0),
        dict(gen_millis=float("nan")), dict(solve_millis=float("nan")),
        dict(gen_millis=float("inf")), dict(solve_millis=-1.0),
    ])
    def test_record_rejects_bad_fields(self, bad):
        fields = dict(n=2, seed=0, gen_millis=1.0, solve_millis=1.0,
                      iterations=3, gap=0.0, certified=True)
        BenchRecord(**fields)
        with pytest.raises(ValueError):
            BenchRecord(**{**fields, **bad})

    def test_record_validation(self):
        with pytest.raises(ValueError):
            BenchRecord(n=0, seed=0, gen_millis=0.0, solve_millis=0.0,
                        iterations=0, gap=0.0, certified=True)
        with pytest.raises(ValueError):
            BenchRecord(n=1, seed=0, gen_millis=-1.0, solve_millis=0.0,
                        iterations=0, gap=0.0, certified=True)
