"""Command-line front end: gen, solve, verify, oracle, and bench.

Flag values follow the ``.bqp`` number grammar, read by ``fileio``'s
``read_number`` (a finite ASCII decimal literal, no ``_``) and
``read_count`` (ASCII digits only); any other value is a usage error
naming the flag.

Exit codes: 0 success (solve: Certified; verify: all checks pass),
1 failed generation/solve/verification, 2 invalid flags, 3 write failure,
4 parse/read failure (a byte that is not UTF-8 included), 5 oracle
refusal (n above the cap, sign tables that cannot be allocated, or
objective values that overflow float64).
The ``run_*`` functions return the outcome of a command that ran; a
failure (``ParseError``, ``GenerationFailed``, ``WriteFailed``,
``TooLarge``) propagates to :func:`main`, the one place that prints it
and turns it into an exit code.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .dual_solver import SolveOptions, SolveStatus, solve_dual
from .fileio import (
    BenchRecord,
    InstanceFile,
    ParseError,
    format_number,
    format_row,
    parse_instance,
    read_count,
    read_number,
    serialize_instance,
    write_bench_csv,
)
from .generator import GenConfig, GenerationFailed, generate_instance
from .model import BqpInstance, Certificate, objective_value
from .oracle import MAX_N, TooLarge, brute_force_minimize
from .verify import CERT_TOL, inertia_note, verify_certificate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_WRITE = 3
EXIT_PARSE = 4
EXIT_TOO_LARGE = 5


def _flag(read, ok, need: str, many: bool = False):
    """An argparse type: ``read`` the value with the file's number grammar
    (``read_number`` or ``read_count``), then require ``ok`` of it, or with
    ``many`` of each item of a comma-separated list (empty items skipped)."""

    def parse(text: str):
        items = [tok for tok in map(str.strip, text.split(",")) if tok] if many else [text]
        try:
            # A list with no items is read, and rejected, as the whole text.
            values = [read(item) for item in items or [text]]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not all(map(ok, values)):
            raise argparse.ArgumentTypeError(f"must be {need}")
        return values if many else values[0]

    return parse


class WriteFailed(Exception):
    """A file could not be written; the message names it and the reason."""


def _write_text(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        raise WriteFailed(f"cannot write {path}: {exc.strerror}") from exc


def _read_instance_file(path: str) -> InstanceFile:
    # Bytes, decoded strictly, so line breaks reach ``parse_instance``
    # untranslated: a bare ``\r`` is its error, not a newline.
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"byte 0x{data[exc.start]:02x} does not decode as UTF-8") from None
    return parse_instance(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqpbench",
        description="Generate, solve, and verify boolean quadratic programs "
        "with planted global optima.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    count = _flag(read_count, lambda v: v >= 1, "at least 1")
    positive = _flag(read_number, lambda v: v > 0, "positive")

    p = sub.add_parser("gen", help="generate an instance with a planted optimum")
    p.add_argument("-n", type=count, required=True, help="dimension")
    p.add_argument("--base", type=positive, default=GenConfig.base,
                   help="entry scale (default %(default)g)")
    p.add_argument("--seed", type=_flag(read_count, lambda v: v < 2 ** 64, "below 2**64"),
                   default=GenConfig.seed, help="RNG seed (default %(default)g)")
    p.add_argument("--margin", type=_flag(read_number, lambda v: v >= 0, "nonnegative"),
                   default=GenConfig.margin,
                   help="extra shift added to every multiplier (default %(default)g)")
    p.add_argument("--with-certificate", action="store_true",
                   help="include the planted x and lambda sections in the file")
    p.add_argument("-o", dest="out_path", required=True, metavar="PATH", help="output file")
    p.set_defaults(func=run_gen)

    p = sub.add_parser("solve", help="maximize the dual and certify the optimum")
    p.add_argument("in_path", metavar="PATH")
    p.add_argument("--grad-tol", type=positive, default=SolveOptions.grad_tol)
    p.add_argument("--max-iter", type=count, default=SolveOptions.max_iter)
    p.add_argument("--emit-cert", metavar="PATH", default=None,
                   help="write the solved certificate to this file")
    p.set_defaults(func=run_solve)

    p = sub.add_parser("verify", help="check a stored certificate")
    p.add_argument("in_path", metavar="PATH")
    p.add_argument("--tol", type=positive, default=CERT_TOL)
    p.set_defaults(func=run_verify)

    p = sub.add_parser("oracle", help="brute-force the exact minimum (small n)")
    p.add_argument("in_path", metavar="PATH")
    p.add_argument("--force", action="store_true", help=f"enumerate even when n > {MAX_N}")
    p.set_defaults(func=run_oracle)

    p = sub.add_parser("bench", help="timing sweep over generated instances")
    p.add_argument("--sizes", type=_flag(read_count, lambda v: v >= 1, "at least 1", many=True),
                   default=[50, 100, 200],
                   help="comma-separated dimensions (default 50,100,200)")
    p.add_argument("--seeds", type=count, default=3,
                   help="seeds 0..k-1 per size (default 3)")
    p.add_argument("--csv", dest="csv_path", required=True, metavar="PATH")
    p.set_defaults(func=run_bench)

    return parser


def run_gen(args) -> int:
    cfg = GenConfig(n=args.n, base=args.base, seed=args.seed, margin=args.margin)
    inst, cert = generate_instance(cfg)
    metadata = {"seed": str(args.seed), "base": format_number(args.base),
                "margin": format_number(args.margin), "generator": f"bqpbench {__version__}"}
    content = serialize_instance(InstanceFile(
        instance=inst,
        certificate=cert if args.with_certificate else None,
        metadata=metadata,
    ))
    _write_text(args.out_path, content)
    print(f"objective {format_number(objective_value(inst, cert.x))}")
    return EXIT_OK


def run_solve(args) -> int:
    f = _read_instance_file(args.in_path)
    report = solve_dual(f.instance, SolveOptions(grad_tol=args.grad_tol, max_iter=args.max_iter))
    print(f"lambda {format_row(report.lam)}")
    print(f"x {format_row(report.x) if report.x is not None else '-'}")
    print(f"primal {format_number(report.primal_value)}")
    print(f"dual {format_number(report.dual_value)}")
    print(f"gap {format_number(report.gap)}")
    print(f"iterations {report.iterations}")
    print(f"status {report.status.value}")
    if args.emit_cert is not None and report.x is not None:
        cert_file = InstanceFile(
            instance=f.instance,
            certificate=Certificate(x=report.x, lam=report.lam),
            metadata={"solver": f"bqpbench {__version__}"},
        )
        _write_text(args.emit_cert, serialize_instance(cert_file))
    return EXIT_OK if report.status is SolveStatus.CERTIFIED else EXIT_FAIL


def run_verify(args) -> int:
    f = _read_instance_file(args.in_path)
    if f.certificate is None:
        print("no certificate present")
        return EXIT_FAIL
    report = verify_certificate(f.instance, f.certificate, tol=args.tol)
    for name in ("pd_ok", "stationary_ok", "boolean_ok", "gap_ok", "overall"):
        print(f"{name} {'true' if getattr(report, name) else 'false'}")
    print(f"gap {format_number(report.gap)}")
    print(inertia_note(f.instance.q))
    return EXIT_OK if report.overall else EXIT_FAIL


def run_oracle(args) -> int:
    f = _read_instance_file(args.in_path)
    cap = f.instance.n if args.force else MAX_N
    result = brute_force_minimize(f.instance, max_n=cap)
    print(f"best_x {format_row(result.best_x)}")
    print(f"best_value {format_number(result.best_value)}")
    print(f"minimizer_count {result.minimizer_count}")
    return EXIT_OK


def _bench_one(size: int, seed: int) -> BenchRecord:
    start = time.perf_counter()
    inst, _ = generate_instance(GenConfig(n=size, seed=seed))
    gen_ms = (time.perf_counter() - start) * 1000.0
    # The generated instance holds its planted dual point, so solving it
    # would time a memo hit; a fresh instance of the same data is solved.
    fresh = BqpInstance(inst.q, inst.c)
    start = time.perf_counter()
    report = solve_dual(fresh)
    solve_ms = (time.perf_counter() - start) * 1000.0
    return BenchRecord(
        n=size, seed=seed, gen_millis=gen_ms, solve_millis=solve_ms,
        iterations=report.iterations, gap=report.gap,
        certified=report.status is SolveStatus.CERTIFIED,
    )


def run_bench(args) -> int:
    records = [_bench_one(size, seed) for size in args.sizes for seed in range(args.seeds)]
    _write_text(args.csv_path, write_bench_csv(records))
    print(f"wrote {args.csv_path} ({len(records)} rows)")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one subcommand; the only place a failure becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        message, code = str(exc), EXIT_PARSE
    except GenerationFailed as exc:
        message, code = f"generation failed: {exc}", EXIT_FAIL
    except WriteFailed as exc:
        message, code = str(exc), EXIT_WRITE
    except TooLarge as exc:
        message, code = str(exc), EXIT_TOO_LARGE
    print(message, file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
