"""The three bqpbench workloads: input construction, one operation, checks.

Each workload builds its inputs from the workload seed in ``build`` (which
also validates them and warms up), runs one operation in ``op`` (the only
timed code) and judges that operation's outputs in ``check``. The program
is reached through module attributes at call time, so the tracer's
rebinding takes effect. Inputs are made by the benchmark; the program only
receives them.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import bqpbench.cli as cli
import bqpbench.dual_solver as dual_solver
import bqpbench.generator as generator
import bqpbench.model as model
import bqpbench.oracle as oracle
import bqpbench.verify as verify

GAP_TOL = 1e-6
# Warm-up size for planted-dense: runs every code path of an operation at a
# small fraction of its cost, so repeating the set-up stays cheap.
WARM_N = 200
SPECTRAL_EVERY = 4


class InvalidInput(Exception):
    """An input the benchmark built is invalid: a benchmark bug, not a program error."""


@dataclass
class Outcome:
    """Judgement of one operation. ``certifiable`` marks instances that have a
    valid certificate; ``gap_rel`` is the oracle-relative bound gap where an
    oracle ran; ``error`` says what was wrong or missing."""

    certifiable: bool
    certified: bool
    gap_rel: float | None = None
    error: str | None = None


def instance_seeds(seed: int, stream: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, stream]).generate_state(count)]


def objective(q: np.ndarray, c: np.ndarray, x: np.ndarray) -> float:
    return float(0.5 * (x @ (q @ x)) - c @ x)


def dual_bound_error(dual: float, best: float) -> str | None:
    """Weak duality: the dual value may not exceed the minimum."""
    if not dual <= best + GAP_TOL * (1.0 + abs(best)):
        return f"dual value {dual!r} above the minimum {best!r}"
    return None


def certificate_error(inst, report) -> str | None:
    """A Certified report must carry a certificate that verify_certificate accepts."""
    cert = generator.Certificate(x=report.x, lam=report.lam)
    if not verify.verify_certificate(inst, cert).overall:
        return "solver certificate rejected by verify_certificate"
    return None


def is_certified(report) -> bool:
    return report.status is dual_solver.SolveStatus.CERTIFIED


class PlantedDense:
    """generate_instance -> solve_dual -> verify_certificate -> schur_block_psd
    at n=1000 on the default row-sum planted family."""

    def __init__(self, seed: int, n: int):
        self.n = n
        self.seeds = instance_seeds(seed, 1, 4096)
        self.warm_seed = instance_seeds(seed, 2, 1)[0]

    def build(self, tracing: bool = False) -> None:
        self._pipeline(self.warm_seed, WARM_N)

    def _pipeline(self, seed: int, n: int):
        inst, cert = generator.generate_instance(generator.GenConfig(n=n, seed=seed))
        report = dual_solver.solve_dual(inst)
        verified = None
        if report.x is not None:
            verified = verify.verify_certificate(inst, generator.Certificate(x=report.x, lam=report.lam))
        t = float(inst.c @ report.x_raw) + 1.0
        psd = verify.schur_block_psd(inst, report.lam, t)
        return inst, cert, report, verified, psd

    def op(self, i: int):
        return self._pipeline(self.seeds[i % len(self.seeds)], self.n)

    def check(self, i: int, payload) -> Outcome:
        inst, cert, report, verified, (psd, low) = payload
        out = Outcome(certifiable=True, certified=is_certified(report))
        best = objective(inst.q, inst.c, np.asarray(cert.x))
        if not out.certified:
            out.error = f"planted instance not certified (status {report.status.value})"
        elif not np.array_equal(report.x, cert.x):
            out.error = "Certified x differs from the planted x"
        elif not (verified is not None and verified.overall):
            out.error = "solver certificate rejected by verify_certificate"
        elif not psd:
            out.error = f"schur_block_psd rejected t = c'x(lambda)+1 (min eigenvalue {low!r})"
        else:
            out.error = dual_bound_error(report.dual_value, best)
        return out


def spectral_instance(seed: int, n: int):
    """Kind (a): Q and x from generate_instance, lam = (ceil(-lmin(Q)) + 1) * 1,
    c = (Q + diag lam) x. The certificate (x, lam) is valid by construction."""
    inst, cert = generator.generate_instance(generator.GenConfig(n=n, seed=seed))
    q = np.array(inst.q)
    x = np.array(cert.x)
    lam = np.full(n, math.ceil(-float(np.linalg.eigvalsh(q)[0])) + 1.0)
    c = (q + np.diag(lam)) @ x
    return model.BqpInstance(q, c), generator.Certificate(x=x, lam=lam)


def random_instance(seed: int, n: int):
    """Kind (b): Q from generate_instance and an independent integer c; no
    planted optimum, so the oracle is the reference."""
    inst, _ = generator.generate_instance(generator.GenConfig(n=n, seed=seed))
    c = np.round(10.0 * np.random.default_rng([seed, 3]).standard_normal(n))
    c[c == 0] = 1.0
    return model.BqpInstance(np.array(inst.q), c)


class NearBoundary:
    """One solve_dual per operation: a spectral-shift planted instance (kind
    a) followed by SPECTRAL_EVERY - 1 unplanted random instances (kind b,
    each with a brute_force_minimize cross-check). The instance pools are
    built and validated at set-up; operations cycle through them.

    Kind (a) solves are bimodal (certified in a few ms, or a stall of about
    1.5 s), so the certified share of the few kind (a) instances a run
    reaches moves its throughput; one operation in SPECTRAL_EVERY keeps the
    spread across seeds within the bounds in BENCHMARK.json."""

    def __init__(self, seed: int, n_spectral: int, n_random: int, pool: int):
        self.n = n_spectral
        self.n_random = n_random
        self.spectral_seeds = instance_seeds(seed, 3, pool)
        self.random_seeds = instance_seeds(seed, 4, pool)

    def build(self, tracing: bool = False) -> None:
        self.spectral = []
        for s in self.spectral_seeds:
            inst, cert = spectral_instance(s, self.n)
            report = verify.verify_certificate(inst, cert)
            if not report.overall:
                raise InvalidInput(f"spectral-shift instance (seed {s}) fails verify_certificate: {report}")
            self.spectral.append((inst, cert, objective(inst.q, inst.c, np.asarray(cert.x))))
        self.random = [random_instance(s, self.n_random) for s in self.random_seeds]
        warm, _ = generator.generate_instance(generator.GenConfig(n=8))
        dual_solver.solve_dual(warm)
        oracle.brute_force_minimize(warm)

    def pick(self, i: int):
        """(True, kind (a) index) for every SPECTRAL_EVERY-th operation, else
        (False, kind (b) index)."""
        k, r = divmod(i, SPECTRAL_EVERY)
        if r == 0:
            return True, k % len(self.spectral)
        return False, (k * (SPECTRAL_EVERY - 1) + r - 1) % len(self.random)

    def op(self, i: int):
        spectral, k = self.pick(i)
        if spectral:
            inst = self.spectral[k][0]
            return inst, dual_solver.solve_dual(inst), None
        inst = self.random[k]
        return inst, dual_solver.solve_dual(inst), oracle.brute_force_minimize(inst)

    def check(self, i: int, payload) -> Outcome:
        inst, report, exact = payload
        certified = is_certified(report)
        if exact is None:
            _, cert, best = self.spectral[self.pick(i)[1]]
            out = Outcome(certifiable=True, certified=certified)
            if certified and not np.array_equal(report.x, cert.x):
                out.error = "Certified x differs from the planted x"
        else:
            best = exact.best_value
            out = Outcome(certifiable=False, certified=certified,
                          gap_rel=(best - report.dual_value) / (1.0 + abs(best)))
            if certified and abs(objective(inst.q, inst.c, report.x) - best) > 1e-9 * (1.0 + abs(best)):
                out.error = "Certified x is not an oracle minimizer"
        if out.error is None:
            out.error = dual_bound_error(report.dual_value, best)
        if out.error is None and certified:
            out.error = certificate_error(inst, report)
        return out


def x_line(path: Path) -> str | None:
    """The row after the ``x`` section header, read without the program's parser."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines[:-1]):
        if line.strip() == "x":
            return lines[k + 1].strip()
    return None


class CliFiles:
    """``gen -n 300 --with-certificate -o A`` -> ``solve A --emit-cert B`` ->
    ``verify B``. Untraced, each command is a fresh ``python -m bqpbench``
    process; in the traced run the same argv goes to ``bqpbench.cli.main``
    in-process so the layers below are seen."""

    def __init__(self, seed: int, n: int, workdir: Path, env: dict[str, str]):
        self.n = n
        self.seeds = instance_seeds(seed, 5, 4096)
        self.workdir = workdir
        self.env = env
        self.in_process = False

    def build(self, tracing: bool = False) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.in_process = tracing
        if not tracing:
            done = subprocess.run([sys.executable, "-m", "bqpbench", "--version"], env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
            if done.returncode != 0:
                raise InvalidInput("python -m bqpbench --version failed in the CLI environment")

    def commands(self, i: int):
        a = str(self.workdir / f"inst{i}.bqp")
        b = str(self.workdir / f"cert{i}.bqp")
        return [
            ["gen", "-n", str(self.n), "--seed", str(self.seeds[i % len(self.seeds)]), "--with-certificate", "-o", a],
            ["solve", a, "--emit-cert", b],
            ["verify", b],
        ]

    def _run(self, argv) -> int:
        if self.in_process:
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    return cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2
        done = subprocess.run([sys.executable, "-m", "bqpbench", *argv], env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
        return done.returncode

    def op(self, i: int):
        codes = []
        for argv in self.commands(i):
            codes.append(self._run(argv))
            if codes[-1] != 0:
                break
        return codes

    def check(self, i: int, codes) -> Outcome:
        commands = self.commands(i)
        a, b = Path(commands[0][-1]), Path(commands[2][-1])
        out = Outcome(certifiable=True, certified=len(codes) > 1 and codes[1] == 0)
        if codes != [0, 0, 0]:
            out.error = f"CLI exit codes {codes} for {[cmd[0] for cmd in commands]}"
        elif x_line(a) is None or x_line(a) != x_line(b):
            out.error = "Certified x in the emitted certificate differs from the planted x"
        for path in (a, b):
            path.unlink(missing_ok=True)
        return out

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def measure_import_s(env: dict[str, str], repeats: int) -> float:
    """Fresh-interpreter ``import bqpbench`` minus a bare interpreter start (medians)."""
    with_import, bare = [], []
    for _ in range(repeats):
        for code, into in (("import bqpbench", with_import), ("pass", bare)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
            into.append(perf_counter() - start)
    return float(np.median(with_import) - np.median(bare))


FULL = {
    "planted-dense": {"n": 1000},
    "near-boundary": {"n_spectral": 50, "n_random": 24, "pool": 64},
    "cli-files": {"n": 300},
}

TINY = {
    "planted-dense": {"n": 40},
    "near-boundary": {"n_spectral": 12, "n_random": 8, "pool": 4},
    "cli-files": {"n": 12},
}


def make(name: str, seed: int, sizes: dict, workdir: Path, env: dict[str, str]):
    if name == "planted-dense":
        return PlantedDense(seed, **sizes[name])
    if name == "near-boundary":
        return NearBoundary(seed, **sizes[name])
    if name == "cli-files":
        return CliFiles(seed, workdir=workdir, env=env, **sizes[name])
    raise ValueError(f"unknown workload {name!r}")
