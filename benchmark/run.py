"""Run one bqpbench benchmark workload and print its metrics.

From the repository root:

    python3 benchmark/run.py --workload planted-dense --seed 1 --seconds 30 --trace 0

The workloads are described in benchmark/README.md and BENCHMARK.json. One
client runs operations back to back (closed loop) for ``--seconds``, after a
set-up that is repeated SETUP_REPEATS times. With ``--trace 0`` the run is
untraced and reports the end-to-end metrics; with ``--trace 1`` each
operation runs twice, untraced and traced in alternating order, and the
run reports the per-layer metrics and the tracing overhead.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it are a readable summary with
the environment and the quality figures (certified_frac, error_frac,
bound_gap_rel). The full record goes to benchmark/out/. Exit status: 0 when
every operation was correct, 1 when any was wrong, 2 when the benchmark
could not run (program source missing, or an input it built is invalid).
"""

from __future__ import annotations

import os

# Pinned before numpy is imported; CLI children inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("planted-dense", "near-boundary", "cli-files")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MAX_REPORTED_ERRORS = 5

END_TO_END = (
    ("instance_s_p50", "s", "lower"),
    ("instances_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
QUALITY = (
    ("certified_frac", "ratio", "higher"),
    ("error_frac", "ratio", "lower"),
    ("bound_gap_rel", "ratio", "lower"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class ProgramMissing(Exception):
    """The program's source is not in this checkout."""


def import_program() -> float:
    """Import bqpbench from this checkout's src/ and return the import time."""
    if not (SRC / "bqpbench" / "__init__.py").is_file():
        raise ProgramMissing(f"program source not found at {SRC}/bqpbench; "
                             "run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import numpy  # noqa: F401
    import bqpbench
    import bqpbench.cli  # noqa: F401
    elapsed = perf_counter() - start
    if Path(bqpbench.__file__).resolve().parent != SRC / "bqpbench":
        raise ProgramMissing(f"imported bqpbench from {bqpbench.__file__}, not from {SRC}")
    return elapsed


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Tally:
    """Operation times and outcomes of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.certifiable = 0
        self.certified = 0
        self.gaps: list[float] = []
        self.errors: list[str] = []

    def record(self, workload, i: int, run_op) -> float | None:
        """Run operation ``i`` through ``run_op``, time it and check it."""
        self.attempted += 1
        try:
            start = perf_counter()
            payload = run_op(i)
            elapsed = perf_counter() - start
            outcome = workload.check(i, payload)
        except Exception:  # an operation that raises is a failed operation
            outcome = None
            error = traceback.format_exc()
        else:
            error = outcome.error
        if outcome is not None:
            self.certifiable += outcome.certifiable
            self.certified += outcome.certifiable and outcome.certified
            if outcome.gap_rel is not None:
                self.gaps.append(outcome.gap_rel)
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(f"operation {i}: {error}")
            return None
        self.times.append(elapsed)
        return elapsed


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None, import_s: float = 0.0) -> dict:
    """Set up and run one workload; return the full record of the run."""
    import workloads
    from tracer import PER_LAYER, SETUP_OP, Tracer, per_layer_metrics

    sizes = sizes or workloads.FULL
    env = child_env()
    workload = workloads.make(name, seed, sizes, OUT / f"work-{os.getpid()}", env)
    tracer = Tracer() if trace else None
    builds = []
    try:
        for r in range(SETUP_REPEATS):
            traced_build = tracer is not None and r == SETUP_REPEATS - 1
            if traced_build:
                tracer.install(SETUP_OP)
            start = perf_counter()
            try:
                workload.build(tracing=trace)
            finally:
                if traced_build:
                    tracer.uninstall()
            builds.append(perf_counter() - start)

        tally = Tally()
        traced, untraced, ratios = [], [], []
        i = 0
        loop_start = perf_counter()
        while perf_counter() - loop_start < seconds:
            if tracer is None:
                tally.record(workload, i, workload.op)
            else:
                pair = {}
                for side in ((False, True) if i % 2 == 0 else (True, False)):
                    if side:
                        tracer.install(i)
                    try:
                        pair[side] = tally.record(workload, i, workload.op)
                    finally:
                        if side:
                            tracer.uninstall()
                if pair[True] is not None and pair[False] is not None:
                    traced.append(pair[True])
                    untraced.append(pair[False])
                    ratios.append(pair[True] / pair[False])
            i += 1
        loop_s = perf_counter() - loop_start

        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "n": workload.n, "operations": i, "loop_s": loop_s,
            "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
            "setup_builds_s": builds, "import_s": import_s,
        }
        quality = {
            "certified_frac": tally.certified / tally.certifiable if tally.certifiable else None,
            "error_frac": tally.failed / tally.attempted if tally.attempted else None,
            "bound_gap_rel": median(tally.gaps) if tally.gaps else None,
        }
        record["quality"] = quality
        record["samples"] = len(tally.times)
        record["op_times_s"] = tally.times
        if tracer is None:
            record["metrics"] = {
                "instance_s_p50": median(tally.times),
                "instances_per_s": len(tally.times) / sum(tally.times) if tally.times else 0.0,
                "setup_s": import_s + median(builds),
                "peak_rss_mb": peak_rss_mb(with_children=name == "cli-files"),
            }
            record["units"] = {k: u for k, u, _ in END_TO_END}
        else:
            extra = {
                "trace.instance_s_p50": median(traced),
                "trace.untraced_instance_s_p50": median(untraced),
                "trace.overhead_ratio": median(ratios),
                "trace.spans": sum(1 for op in tracer.op if op >= 0) / max(len(traced), 1),
                "trace.skipped": float(len(tracer.skipped)),
            }
            if name == "cli-files":
                extra["cli.import_s"] = workloads.measure_import_s(env, IMPORT_REPEATS)
            record["metrics"] = per_layer_metrics(tracer, len(traced), extra)
            record["units"] = {k: u for k, u, _ in PER_LAYER}
            record["skipped"] = tracer.skipped
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{name}-seed{seed}.npz")
        return record
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()


def summary_lines(record: dict, env: dict) -> list[str]:
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"workload {record['workload']} seed {record['seed']} n {record['n']} "
             f"trace {record['trace']} operations {record['operations']} "
             f"samples {record['samples']} loop_s {record['loop_s']:.3f}"]
    for key, value in record["metrics"].items():
        lines.append(f"  {key:<44} {value:.6g} {record['units'][key]}")
    units = {k: u for k, u, _ in QUALITY}
    for key, value in record["quality"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {key:<44} {shown} {units[key]}")
    if record.get("skipped"):
        lines.append(f"  skipped trace targets: {', '.join(record['skipped'])}")
    for error in record["errors"]:
        lines.append(f"ERROR {error}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    except workloads.InvalidInput as exc:
        print(f"error: invalid benchmark input: {exc}", file=sys.stderr)
        return 2
    env = environment()
    record["env"] = env
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for line in summary_lines(record, env):
        print(line)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": record["units"][k]} for k, v in record["metrics"].items()},
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
