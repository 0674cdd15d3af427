"""Out-of-band span tracer for the bqpbench layers.

The tracer never edits the program. For each traced function it builds one
wrapper and rebinds, in every loaded ``bqpbench`` module, each module-level
name that refers to the original function. Calls from one layer into the
layer below resolve those names at call time, and so do calls inside a
module through its own globals, so both pass through the wrapper.
``uninstall`` restores the original bindings.

Spans (name, start, end, parent span, operation id) and one extra counter
per span live in flat arrays in memory; ``save`` writes them out when the
run ends and ``per_layer_metrics`` reduces them to the metric names listed
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "bqpbench"


def _rejected(args, kwargs, result, failed):
    return 1.0 if failed else 0.0


def _rhs_cols(args, kwargs, result, failed):
    b = args[1] if len(args) > 1 else kwargs.get("b")
    return float(np.shape(b)[1]) if np.ndim(b) == 2 else 1.0


def _infeasible(args, kwargs, result, failed):
    return 0.0 if result is None else float(not result.feasible)


def _iterations(args, kwargs, result, failed):
    return float(getattr(result, "iterations", 0))


def _vectors(args, kwargs, result, failed):
    return float(2 ** args[0].n)


def _text_in(args, kwargs, result, failed):
    return float(len(args[0] if args else kwargs.get("text", "")))


def _text_out(args, kwargs, result, failed):
    return float(len(result)) if isinstance(result, str) else 0.0


# (module, function, extra counter). A name missing from the program is
# skipped and reported, so the tracer keeps working when a layer changes.
TARGETS = (
    ("numerics", "spd_factorize", _rejected),
    ("numerics", "spd_solve", _rhs_cols),
    ("numerics", "min_eigenvalue", None),
    ("model", "q_of_lambda", None),
    ("model", "is_dual_feasible", _infeasible),
    ("model", "dual_hessian", None),
    ("generator", "generate_instance", None),
    ("dual_solver", "solve_dual", _iterations),
    ("verify", "verify_certificate", None),
    ("verify", "schur_block_psd", None),
    ("oracle", "brute_force_minimize", _vectors),
    ("fileio", "parse_instance", _text_in),
    ("fileio", "serialize_instance", _text_out),
    ("cli", "main", None),
)

# Per-layer metric names with unit and better direction. Values are per
# traced operation unless the name says otherwise; 0 means the layer does
# not run in that workload's operations.
PER_LAYER = (
    ("numerics.spd_factorize.calls", "count", "lower"),
    ("numerics.spd_factorize.s", "s", "lower"),
    ("numerics.spd_factorize.rejects", "count", "lower"),
    ("numerics.spd_solve.calls", "count", "lower"),
    ("numerics.spd_solve.s", "s", "lower"),
    ("numerics.spd_solve.rhs_cols", "count", "lower"),
    ("numerics.min_eigenvalue.calls", "count", "lower"),
    ("numerics.min_eigenvalue.s", "s", "lower"),
    ("model.is_dual_feasible.calls", "count", "lower"),
    ("model.is_dual_feasible.s", "s", "lower"),
    ("model.is_dual_feasible.infeasible", "count", "lower"),
    ("model.dual_hessian.calls", "count", "lower"),
    ("model.dual_hessian.s", "s", "lower"),
    ("model.q_of_lambda.calls", "count", "lower"),
    ("model.q_of_lambda.s", "s", "lower"),
    ("dual_solver.solve_dual.calls", "count", "lower"),
    ("dual_solver.solve_dual.s", "s", "lower"),
    ("dual_solver.solve_dual.self_s", "s", "lower"),
    ("dual_solver.iterations", "count", "lower"),
    ("dual_solver.trials_per_iter", "ratio", "lower"),
    ("dual_solver.newton_factorize.calls", "count", "lower"),
    ("dual_solver.newton_factorize.s", "s", "lower"),
    ("generator.generate_instance.calls", "count", "lower"),
    ("generator.generate_instance.s", "s", "lower"),
    ("generator.attempts", "count", "lower"),
    ("verify.verify_certificate.calls", "count", "lower"),
    ("verify.verify_certificate.s", "s", "lower"),
    ("verify.verify_certificate.self_s", "s", "lower"),
    ("verify.schur_block_psd.calls", "count", "lower"),
    ("verify.schur_block_psd.s", "s", "lower"),
    ("oracle.brute_force_minimize.calls", "count", "lower"),
    ("oracle.brute_force_minimize.s", "s", "lower"),
    ("oracle.vectors_per_s", "1/s", "higher"),
    ("fileio.parse_instance.calls", "count", "lower"),
    ("fileio.parse_instance.s", "s", "lower"),
    ("fileio.parse_instance.mb_per_s", "MB/s", "higher"),
    ("fileio.serialize_instance.calls", "count", "lower"),
    ("fileio.serialize_instance.s", "s", "lower"),
    ("fileio.serialize_instance.mb_per_s", "MB/s", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.gen.s", "s", "lower"),
    ("cli.main.solve.s", "s", "lower"),
    ("cli.main.verify.s", "s", "lower"),
    ("setup.generator.generate_instance.calls", "count", "lower"),
    ("setup.generator.generate_instance.s", "s", "lower"),
    ("setup.verify.verify_certificate.calls", "count", "lower"),
    ("setup.verify.verify_certificate.s", "s", "lower"),
    ("trace.instance_s_p50", "s", "lower"),
    ("trace.untraced_instance_s_p50", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.skipped", "count", "lower"),
)

SETUP_OP = -1


class Tracer:
    """Wraps the traced functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("d")
        self._stack: list[int] = []
        self.current_op = SETUP_OP
        self.skipped: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, func_name, extra in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                self.skipped.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original, extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, wrapper, original))

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, label: str, fn, extra):
        fixed = self._name(label)
        by_argv = label == "cli.main"

        def wrapper(*args, **kwargs):
            nid = self._name(f"{label}.{args[0][0]}") if by_argv and args and args[0] else fixed
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.extra.append(0.0)
            self._stack.append(idx)
            result = None
            failed = True
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
                if extra is not None:
                    self.extra[idx] = extra(args, kwargs, result, failed)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self, op: int) -> None:
        self.current_op = op
        for module, attr, wrapper, _ in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, _, original in self._bindings:
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "extra": np.frombuffer(self.extra, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), skipped=np.array(self.skipped, dtype=str),
                            **self.arrays())

    def aggregate(self, keep) -> dict[str, float]:
        """Sum spans whose operation id satisfies ``keep`` into ``<name>.<stat>``
        totals: calls, s, self_s and extra, plus the derived counts that need
        the span tree (Newton factorizations, trials inside a solve, generator
        attempts)."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        mask = keep(a["op"]) if n else np.zeros(0, dtype=bool)

        name_of = np.array(self.names, dtype=object)[a["name_id"]] if n else np.zeros(0, dtype=object)
        solve = self._ids.get("dual_solver.solve_dual", -2)
        gen = self._ids.get("generator.generate_instance", -2)
        under_solve = np.zeros(n, dtype=bool)
        under_gen = np.zeros(n, dtype=bool)
        nid = a["name_id"]
        for i in np.nonzero(has_parent)[0]:
            p = parent[i]
            under_solve[i] = under_solve[p] or nid[p] == solve
            under_gen[i] = under_gen[p] or nid[p] == gen

        totals: dict[str, float] = {}
        for name in set(name_of[mask]):
            sel = mask & (name_of == name)
            totals[f"{name}.calls"] = float(sel.sum())
            totals[f"{name}.s"] = float(dur[sel].sum())
            totals[f"{name}.self_s"] = float(self_time[sel].sum())
            totals[f"{name}.extra"] = float(a["extra"][sel].sum())
        fact = mask & (name_of == "numerics.spd_factorize")
        newton = fact & has_parent & (nid[np.maximum(parent, 0)] == solve)
        totals["newton.calls"] = float(newton.sum())
        totals["newton.s"] = float(dur[newton].sum())
        totals["trials"] = float((mask & under_solve & (name_of == "model.is_dual_feasible")).sum())
        totals["gen_factorize"] = float((fact & under_gen).sum())
        return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(tracer: Tracer, traced_ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Reduce the recorded spans to the PER_LAYER names.

    ``traced_ops`` normalizes per-operation values; ``extra`` supplies the
    values measured outside the spans (import time, tracing overhead).
    """
    t = tracer.aggregate(lambda op: op >= 0)
    s = tracer.aggregate(lambda op: op == SETUP_OP)
    ops = max(traced_ops, 1)

    def get(key, src=t):
        return src.get(key, 0.0)

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        parts = name.split(".")
        stat = parts[-1]
        if parts[0] in ("trace", "cli") and name in extra:
            out[name] = float(extra[name])
        elif parts[0] == "setup":
            out[name] = get(".".join(parts[1:]), s)
        elif name == "dual_solver.iterations":
            out[name] = _ratio(get("dual_solver.solve_dual.extra"), get("dual_solver.solve_dual.calls"))
        elif name == "dual_solver.trials_per_iter":
            out[name] = _ratio(get("trials"), get("dual_solver.solve_dual.extra"))
        elif name.startswith("dual_solver.newton_factorize."):
            out[name] = get(f"newton.{stat}") / ops
        elif name == "generator.attempts":
            out[name] = _ratio(get("gen_factorize"), get("generator.generate_instance.calls"))
        elif name == "oracle.vectors_per_s":
            out[name] = _ratio(get("oracle.brute_force_minimize.extra"), get("oracle.brute_force_minimize.s"))
        elif stat == "mb_per_s":
            base = ".".join(parts[:-1])
            out[name] = _ratio(get(f"{base}.extra") / 1e6, get(f"{base}.s"))
        elif stat in ("rejects", "rhs_cols", "infeasible"):
            out[name] = get(".".join(parts[:-1]) + ".extra") / ops
        else:
            out[name] = get(name) / ops
    return out
