"""Command-line front end: gen, solve, verify, oracle, and bench.

Exit codes: 0 success (solve: Certified; verify: all checks pass),
1 failed solve/verification, 2 invalid flags, 3 write failure,
4 parse/read failure, 5 oracle refusal on oversized instances.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .dual_solver import SolveOptions, SolveStatus, solve_dual
from .fileio import (
    BenchRecord,
    InstanceFile,
    ParseError,
    format_number,
    parse_instance,
    serialize_instance,
    write_bench_csv,
)
from .generator import Certificate, GenConfig, generate_instance
from .model import objective_value
from .oracle import TooLarge, brute_force_minimize
from .verify import verify_certificate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_WRITE = 3
EXIT_PARSE = 4
EXIT_TOO_LARGE = 5


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _nonneg_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _size_list(text: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size list {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive integers")
    return sizes


def _fmt_vector(values) -> str:
    return " ".join(format_number(v) for v in values)


def _write_text(path: str, content: str) -> bool:
    """Write ``content`` to ``path``; on failure report it and return False."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _read_instance_file(path: str) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror}") from exc
    return parse_instance(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqpbench",
        description="Generate, solve, and verify boolean quadratic programs "
        "with planted global optima.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate an instance with a planted optimum")
    p.add_argument("-n", type=_positive_int, required=True, help="dimension")
    p.add_argument("--base", type=_positive_float, default=10.0, help="entry scale (default 10)")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--margin", type=_nonneg_float, default=0.0,
                   help="extra shift added to every multiplier (default 0)")
    p.add_argument("--with-certificate", action="store_true",
                   help="include the planted x and lambda sections in the file")
    p.add_argument("-o", dest="out_path", required=True, metavar="PATH", help="output file")
    p.set_defaults(func=run_gen)

    p = sub.add_parser("solve", help="maximize the dual and certify the optimum")
    p.add_argument("in_path", metavar="PATH")
    p.add_argument("--grad-tol", type=_positive_float, default=1e-8)
    p.add_argument("--max-iter", type=_positive_int, default=100)
    p.add_argument("--emit-cert", metavar="PATH", default=None,
                   help="write the solved certificate to this file")
    p.set_defaults(func=run_solve)

    p = sub.add_parser("verify", help="check a stored certificate")
    p.add_argument("in_path", metavar="PATH")
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.set_defaults(func=run_verify)

    p = sub.add_parser("oracle", help="brute-force the exact minimum (small n)")
    p.add_argument("in_path", metavar="PATH")
    p.add_argument("--force", action="store_true", help="enumerate even when n > 25")
    p.set_defaults(func=run_oracle)

    p = sub.add_parser("bench", help="timing sweep over generated instances")
    p.add_argument("--sizes", type=_size_list, default=[50, 100, 200],
                   help="comma-separated dimensions (default 50,100,200)")
    p.add_argument("--seeds", type=_positive_int, default=3,
                   help="seeds 0..k-1 per size (default 3)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="solve this many instances concurrently")
    p.add_argument("--csv", dest="csv_path", required=True, metavar="PATH")
    p.set_defaults(func=run_bench)

    return parser


def run_gen(args) -> int:
    inst, cert = generate_instance(
        GenConfig(n=args.n, base=args.base, seed=args.seed, margin=args.margin)
    )
    metadata = {"seed": str(args.seed), "base": format_number(args.base),
                "margin": format_number(args.margin), "generator": f"bqpbench {__version__}"}
    content = serialize_instance(InstanceFile(
        instance=inst,
        certificate=cert if args.with_certificate else None,
        metadata=metadata,
    ))
    if not _write_text(args.out_path, content):
        return EXIT_WRITE
    print(f"objective {format_number(objective_value(inst, cert.x))}")
    return EXIT_OK


def run_solve(args) -> int:
    f = _read_instance_file(args.in_path)
    report = solve_dual(f.instance, SolveOptions(grad_tol=args.grad_tol, max_iter=args.max_iter))
    print(f"lambda {_fmt_vector(report.lam)}")
    print(f"x {_fmt_vector(report.x) if report.x is not None else '-'}")
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
        if not _write_text(args.emit_cert, serialize_instance(cert_file)):
            return EXIT_WRITE
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
    print(report.inertia_note)
    return EXIT_OK if report.overall else EXIT_FAIL


def run_oracle(args) -> int:
    f = _read_instance_file(args.in_path)
    cap = f.instance.n if args.force else 25
    try:
        result = brute_force_minimize(f.instance, max_n=cap)
    except TooLarge as exc:
        print(exc, file=sys.stderr)
        return EXIT_TOO_LARGE
    print(f"best_x {_fmt_vector(result.best_x)}")
    print(f"best_value {format_number(result.best_value)}")
    print(f"minimizer_count {result.minimizer_count}")
    return EXIT_OK


def _bench_one(task: tuple[int, int]) -> BenchRecord:
    size, seed = task
    start = time.perf_counter()
    inst, _ = generate_instance(GenConfig(n=size, seed=seed))
    gen_ms = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    report = solve_dual(inst)
    solve_ms = (time.perf_counter() - start) * 1000.0
    return BenchRecord(
        n=size, seed=seed, gen_millis=gen_ms, solve_millis=solve_ms,
        iterations=report.iterations, gap=report.gap,
        certified=report.status is SolveStatus.CERTIFIED,
    )


def run_bench(args) -> int:
    tasks = [(size, seed) for size in args.sizes for seed in range(args.seeds)]
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_bench_one, tasks))
    else:
        records = [_bench_one(task) for task in tasks]
    if not _write_text(args.csv_path, write_bench_csv(records)):
        return EXIT_WRITE
    print(f"wrote {args.csv_path} ({len(records)} rows)")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())
