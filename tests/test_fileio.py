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
from bqpbench.fileio import BENCH_CSV_HEADER, format_number


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

    def test_unrepresentable_metadata_rejected_at_serialize(self):
        inst = BqpInstance([[1.0]], [1.0])
        for metadata in (
            {"a b": "x"}, {"k": "with # mark"}, {"k": ""},
            {"k": "a\rb"}, {"k": "a\x0cb"}, {"k": "a\u2028b"}, {"k": " lead"}, {"k": "trail "},
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

    def test_record_validation(self):
        with pytest.raises(ValueError):
            BenchRecord(n=0, seed=0, gen_millis=0.0, solve_millis=0.0,
                        iterations=0, gap=0.0, certified=True)
        with pytest.raises(ValueError):
            BenchRecord(n=1, seed=0, gen_millis=-1.0, solve_millis=0.0,
                        iterations=0, gap=0.0, certified=True)
