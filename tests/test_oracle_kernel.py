import subprocess
import sys
import warnings

import numpy as np
import pytest

import bqpbench.oracle as oracle
from bqpbench import BqpInstance, brute_force_minimize


def test_the_suffix_table_is_built_once_and_read_only(monkeypatch):
    tables = []
    real = oracle._head_rows

    def spy(p, const, q_ps, suffixes, base):
        tables.append(suffixes)
        return real(p, const, q_ps, suffixes, base)

    monkeypatch.setattr(oracle, "_head_rows", spy)
    rng = np.random.default_rng(5)
    n = 16
    a = rng.integers(-9, 10, size=(n, n)).astype(float)
    inst = BqpInstance(a + a.T, rng.integers(-9, 10, n).astype(float))
    first = brute_force_minimize(inst)
    second = brute_force_minimize(inst)
    assert second.best_x.tobytes() == first.best_x.tobytes()
    table = oracle._suffix_table(oracle._BLOCK_BITS)
    assert tables and all(t is table for t in tables)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def test_importing_the_cli_builds_no_sign_table():
    # A fresh interpreter: the oracle is imported, its table builder
    # counted, and then the command-line module is imported.
    code = (
        "import bqpbench.oracle as oracle\n"
        "calls = []\n"
        "real = oracle._sign_table\n"
        "oracle._sign_table = lambda bits: calls.append(bits) or real(bits)\n"
        "import bqpbench.cli\n"
        "assert calls == [], calls\n"
        "assert oracle._suffix_table.cache_info().currsize == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_overflow_in_a_tied_block_warns_nowhere():
    # f = 0.8e308 + 1e308 * x_1 * x_14: the vectors with x_1 = x_14
    # overflow to inf, the others tie at -0.2e308, in both blocks; 2S
    # overflows, so every block is evaluated, in both passes, and no
    # warning may escape either of them.
    n = 14
    q = np.zeros((n, n))
    q[0, 0] = 1.6e308
    q[0, n - 1] = q[n - 1, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = brute_force_minimize(BqpInstance(q, np.zeros(n)))
    assert np.isfinite(result.best_value)
    assert result.minimizer_count == 2 ** (n - 1)
    np.testing.assert_array_equal(result.best_x, np.r_[-np.ones(n - 1), 1.0])
