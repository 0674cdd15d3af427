"""Fast self-check of the benchmark harness.

Runs every workload at tiny size, untraced and traced, and checks that each
named metric is emitted, that no operation is wrong, and that the layers a
workload exercises show up in its trace. From the repository root:

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (pins the BLAS threads before numpy loads)

bench.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Layers whose calls must be nonzero in each workload's traced operations.
LAYERS_RUN = {
    "planted-dense": ("numerics.spd_factorize", "numerics.spd_solve", "numerics.min_eigenvalue",
                      "model.is_dual_feasible", "model.dual_hessian", "model.q_of_lambda",
                      "dual_solver.solve_dual", "generator.generate_instance",
                      "verify.verify_certificate", "verify.schur_block_psd"),
    "near-boundary": ("numerics.spd_factorize", "model.is_dual_feasible", "dual_solver.solve_dual",
                      "oracle.brute_force_minimize"),
    "cli-files": ("fileio.parse_instance", "fileio.serialize_instance", "generator.generate_instance",
                  "dual_solver.solve_dual", "verify.verify_certificate"),
}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_untraced_tiny_run(name):
    record = bench.run(name, seed=7, seconds=0.2, trace=False, sizes=workloads.TINY)
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["errors"]
    assert record["quality"]["error_frac"] == 0
    assert list(record["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value in record["metrics"].values()), record["metrics"]


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_traced_tiny_run(name):
    record = bench.run(name, seed=7, seconds=0.2, trace=True, sizes=workloads.TINY)
    assert record["failed"] == 0, record["errors"]
    metrics = record["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert record["skipped"] == []
    for layer in LAYERS_RUN[name]:
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.s"] > 0, layer
    assert metrics["trace.overhead_ratio"] > 0
    if name == "cli-files":
        assert metrics["cli.import_s"] > 0
        assert all(metrics[f"cli.main.{cmd}.s"] > 0 for cmd in ("gen", "solve", "verify"))


def test_tracer_skips_missing_names_and_restores_bindings(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("numerics", "no_such_function", None),))
    original = workloads.dual_solver.solve_dual
    t = tracer.Tracer()
    assert t.skipped == ["numerics.no_such_function"]
    t.install(0)
    assert workloads.dual_solver.solve_dual is not original
    t.uninstall()
    assert workloads.dual_solver.solve_dual is original


def test_invalid_setup_input_fails(monkeypatch):
    valid = workloads.spectral_instance

    def broken(seed, n):
        inst, cert = valid(seed, n)
        return inst, workloads.generator.Certificate(x=cert.x, lam=cert.lam - 1e6)

    monkeypatch.setattr(workloads, "spectral_instance", broken)
    wl = workloads.NearBoundary(seed=7, **workloads.TINY["near-boundary"])
    with pytest.raises(workloads.InvalidInput):
        wl.build()


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "planted-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
