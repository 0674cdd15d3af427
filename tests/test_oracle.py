import itertools

import numpy as np
import pytest

import golden_data as gold
from conftest import load_fixture_text
import bqpbench.oracle as oracle
from bqpbench import BqpInstance, GenConfig, TooLarge, brute_force_minimize, generate_instance, objective_value
from bqpbench.fileio import parse_instance


def exhaustive_reference(inst):
    """Independent direct enumeration via itertools, no incremental tricks."""
    best_value = np.inf
    best_x = None
    for signs in itertools.product((-1.0, 1.0), repeat=inst.n):
        value = objective_value(inst, np.array(signs))
        if value < best_value:
            best_value = value
            best_x = np.array(signs)
    return best_x, best_value


def test_example1():
    result = brute_force_minimize(BqpInstance(gold.Q1, gold.C1))
    np.testing.assert_array_equal(result.best_x, gold.X1)
    assert result.best_value == gold.F1
    assert result.minimizer_count == 1


def test_linear_only():
    inst = BqpInstance(np.zeros((2, 2)), [1.0, -1.0])
    result = brute_force_minimize(inst)
    np.testing.assert_array_equal(result.best_x, [1.0, -1.0])
    assert result.best_value == -2.0
    assert result.minimizer_count == 1


def test_symmetric_tie_lexicographic():
    # f = x1*x2 has the two minimizers (-1, 1) and (1, -1); the report
    # must pick the lexicographically smaller one.
    inst = BqpInstance([[0.0, 1.0], [1.0, 0.0]], np.zeros(2))
    result = brute_force_minimize(inst)
    assert result.best_value == -1.0
    assert result.minimizer_count == 2
    np.testing.assert_array_equal(result.best_x, [-1.0, 1.0])


def test_refuses_beyond_cap():
    inst = BqpInstance(np.eye(6), np.ones(6))
    with pytest.raises(TooLarge):
        brute_force_minimize(inst, max_n=5)


def test_matches_direct_enumeration():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 5, 8):
        a = rng.integers(-9, 10, size=(n, n)).astype(float)
        inst = BqpInstance(a + a.T, rng.integers(-9, 10, n).astype(float))
        ref_x, ref_value = exhaustive_reference(inst)
        result = brute_force_minimize(inst)
        assert result.best_value == pytest.approx(ref_value, abs=1e-12)
        assert objective_value(inst, result.best_x) == result.best_value


def test_block_split_agrees_with_direct_objective():
    # n above the block width exercises the prefix/suffix split.
    rng = np.random.default_rng(31)
    n = 15
    a = rng.standard_normal((n, n))
    inst = BqpInstance((a + a.T) / 2.0, rng.standard_normal(n))
    result = brute_force_minimize(inst)
    assert objective_value(inst, result.best_x) == pytest.approx(result.best_value, abs=1e-12)
    for _ in range(1000):
        x = 2.0 * rng.integers(0, 2, n) - 1.0
        assert objective_value(inst, x) >= result.best_value - 1e-9 * (1.0 + abs(result.best_value))


def test_lexicographic_first_across_blocks():
    # Zero data: every sign vector ties at 0, so the count is 2^n and the
    # winner is all minus ones, even when ties span many blocks.
    n = 14
    inst = BqpInstance(np.zeros((n, n)), np.zeros(n))
    result = brute_force_minimize(inst)
    assert result.minimizer_count == 2 ** n
    np.testing.assert_array_equal(result.best_x, -np.ones(n))


@pytest.mark.parametrize("n", [2, 14])
def test_refuses_overflowing_objective(n):
    # Entries of +-1e308 make objective values overflow to +-inf and NaN,
    # in one block (n = 2) and across the prefix/suffix split (n = 14);
    # no warning may escape.
    signs = np.where(np.random.default_rng(n).random((n, n)) < 0.5, -1.0, 1.0)
    inst = BqpInstance(1e308 * np.triu(signs) + 1e308 * np.triu(signs, 1).T, np.ones(n))
    with pytest.raises(TooLarge, match="overflow float64"):
        brute_force_minimize(inst)


def full_scan_reference(inst):
    """The two-pass scan of every block that the oracle ran before it
    pruned: the first pass finds the minimum over all 2^n values, the
    second counts ties and finds the first one in prefix order."""
    m = min(inst.n, oracle._BLOCK_BITS)
    k = inst.n - m
    q, c = inst.q, inst.c
    q_pp, q_ps, q_ss = q[:k, :k], q[:k, k:], q[k:, k:]
    c_p, c_s = c[:k], c[k:]
    suffixes = oracle._sign_table(m)
    prefixes = oracle._sign_table(k)
    suffix_base = 0.5 * np.einsum("ij,jk,ik->i", suffixes, q_ss, suffixes) - suffixes @ c_s

    def block_values(pi):
        p = prefixes[pi]
        const = 0.5 * (p @ (q_pp @ p)) - c_p @ p
        return const + suffixes @ (q_ps.T @ p) + suffix_base

    block_mins = np.array([block_values(pi).min() for pi in range(2 ** k)])
    best = np.inf
    for value in block_mins:
        if value < best:
            best = value
    tie_tol = 1e-9 * (1.0 + abs(best))
    count = 0
    best_index = None
    for pi in np.nonzero(block_mins <= best + tie_tol)[0]:
        ties = np.nonzero(block_values(pi) <= best + tie_tol)[0]
        count += ties.size
        if best_index is None and ties.size:
            best_index = (int(pi) << m) | int(ties[0])
    best_x = np.concatenate([prefixes[best_index >> m], suffixes[best_index & (2 ** m - 1)]])
    return best_x, float(best), count


def kind_b_instance(seed, n):
    """An unplanted instance: Q from the generator and an independent
    integer c with no zero entry."""
    inst, _ = generate_instance(GenConfig(n=n, seed=seed))
    c = np.round(10.0 * np.random.default_rng([seed, 3]).standard_normal(n))
    c[c == 0] = 1.0
    return BqpInstance(inst.q, c)


# The first 8 of the 64 seeds of the seed-7 kind-(b) pool at n = 24; the
# full scan takes about 0.1 s per instance, so the whole pool is left out.
POOL_SEEDS = [int(s) for s in np.random.SeedSequence([7, 4]).generate_state(64)][:8]


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pruned_result_is_the_full_scan_bitwise(seed):
    inst = kind_b_instance(seed, 24)
    ref_x, ref_value, ref_count = full_scan_reference(inst)
    result = brute_force_minimize(inst)
    assert result.best_x.tobytes() == ref_x.tobytes()
    assert np.float64(result.best_value).tobytes() == np.float64(ref_value).tobytes()
    assert result.minimizer_count == ref_count


def spy_on_the_kernel(monkeypatch, bounded=None, valued=None):
    """Spy on the head-row kernel, which both passes use (_block_values
    too): ``bounded(p)`` for each call of _head_rows, the bounds of the
    blocks with prefixes ``p``, and ``valued(p, rows, values)`` for each
    call of _row_values that follows it, the values of rows of those
    blocks."""
    real_rows, real_values = oracle._head_rows, oracle._row_values
    current = []

    def head_rows(p, *rest):
        current[:] = [p]
        if bounded:
            bounded(p)
        return real_rows(p, *rest)

    def row_values(heads, tails, base, rows, cols):
        values = real_values(heads, tails, base, rows, cols)
        if valued:
            valued(current[0], rows, values)
        return values

    monkeypatch.setattr(oracle, "_head_rows", head_rows)
    monkeypatch.setattr(oracle, "_row_values", row_values)


@pytest.fixture
def evaluated_blocks(monkeypatch):
    """The prefix of every block the oracle evaluates values in, in call
    order: per _head_rows call, the blocks of the head rows evaluated."""
    prefixes, seen = [], set()

    def valued(p, rows, values):
        for i in np.unique(rows).tolist():
            if i not in seen:
                seen.add(i)
                prefixes.append(tuple(p[i]))

    spy_on_the_kernel(monkeypatch, lambda p: seen.clear(), valued)
    return prefixes


@pytest.fixture
def head_bounded_blocks(monkeypatch):
    """The prefix of every block the oracle bounds the head rows of."""
    prefixes = []
    spy_on_the_kernel(monkeypatch, bounded=lambda p: prefixes.extend(map(tuple, p)))
    return prefixes


@pytest.fixture
def evaluated_values(monkeypatch):
    """The number of values each _row_values call evaluates."""
    counts = []
    spy_on_the_kernel(monkeypatch, valued=lambda p, rows, values: counts.append(values.size))
    return counts


def test_pruning_skips_most_blocks_of_a_planted_instance(evaluated_blocks):
    # n = 25 has 2^12 = 4096 blocks; the planted minimum bounds out all
    # but a few of them.
    inst, cert = generate_instance(GenConfig(n=25, seed=0))
    result = brute_force_minimize(inst)
    np.testing.assert_array_equal(result.best_x, cert.x)
    assert result.minimizer_count == 1
    assert len(set(evaluated_blocks)) < 0.05 * 4096
    # The second pass values the tied block again, and only it: the
    # minimizer's block is valued twice, the second time last.
    planted = tuple(cert.x[:12])
    assert [p for p in set(evaluated_blocks) if evaluated_blocks.count(p) > 1] == [planted]
    assert evaluated_blocks.count(planted) == 2
    assert evaluated_blocks[-1] == planted


def test_all_ties_evaluate_every_block(evaluated_blocks):
    n = 14
    result = brute_force_minimize(BqpInstance(np.zeros((n, n)), np.zeros(n)))
    assert result.minimizer_count == 2 ** n
    assert set(evaluated_blocks) == {(-1.0,), (1.0,)}


@pytest.mark.parametrize("diagonal, evaluated", [(1e306, 4), (1e307, 8)])
def test_no_block_is_skipped_where_the_data_scale_overflows(evaluated_blocks, diagonal, evaluated):
    # f = 8 * diagonal - 1e300 * x_1: the 4 of 2^3 blocks with x_1 = -1 lie
    # 2e300 above the minimum, beyond the tie tolerance.  At diagonal =
    # 1e306 they are skipped; at 1e307, twice sum|Q_ij| overflows float64,
    # so the rounding slack is infinite and every block is evaluated.
    n = 16
    c = np.zeros(n)
    c[0] = 1e300
    result = brute_force_minimize(BqpInstance(diagonal * np.eye(n), c))
    assert result.best_x[0] == 1.0
    assert result.minimizer_count == 2 ** (n - 1)
    assert len(set(evaluated_blocks)) == evaluated


def test_head_bound_prunes_the_pool(evaluated_values):
    # The 8 pool instances evaluate, over both passes, 659 whole blocks
    # with the L1 bound alone, 134 with the 6-bit head bound, and 58 with
    # the 9-bit screen and the kept tie rows (475,136 values); evaluating
    # only the head rows whose bound is within the tie limit, and the tied
    # ones again in the second pass, 188,928 values (1,449 head rows of
    # 128 in the first pass and 27 in the second).
    for seed in POOL_SEEDS:
        brute_force_minimize(kind_b_instance(seed, 24))
    assert sum(evaluated_values) <= 190_000


def test_head_bounds_are_lazy_on_a_planted_instance(head_bounded_blocks):
    # Only the blocks within the L1 frontier of the running minimum get
    # head row bounds: a handful of the 4096 blocks at n = 25.
    inst, cert = generate_instance(GenConfig(n=25, seed=0))
    result = brute_force_minimize(inst)
    np.testing.assert_array_equal(result.best_x, cert.x)
    assert 0 < len(head_bounded_blocks) < 0.01 * 4096


# The oracle's result on fixtures/unplanted24.bqp, taken before the head
# bound existed.
UNPLANTED24_X = np.array([-1, 1, -1, -1, -1, 1, -1, 1, 1, 1, -1, 1, -1, 1, 1, 1, -1, 1, -1, -1, 1, 1, -1, -1],
                         dtype=float)
UNPLANTED24_VALUE = -682.5


def test_unplanted_fixture_golden(fixtures_dir):
    inst = parse_instance((fixtures_dir / "unplanted24.bqp").read_text(encoding="utf-8")).instance
    expected = kind_b_instance(POOL_SEEDS[0], 24)
    # Equal values; the file writes the generator's -0.0 entries as 0.
    np.testing.assert_array_equal(inst.q, expected.q)
    np.testing.assert_array_equal(inst.c, expected.c)
    result = brute_force_minimize(inst)
    assert result.best_x.tobytes() == UNPLANTED24_X.tobytes()
    assert np.float64(result.best_value).tobytes() == np.float64(UNPLANTED24_VALUE).tobytes()
    assert result.minimizer_count == 1


@pytest.mark.parametrize("seed, linear", [(0, True), (1, True), (2, False), (3, False)])
def test_first_block_and_candidates_follow_the_full_stable_sort(head_bounded_blocks, seed, linear):
    # Entries in -1..1 give many equal L1 keys, and with c = 0 the least
    # key is that of p and of -p.  The oracle takes the first block by
    # argmin and sorts only the candidates; the first block and the order
    # in which the candidates are walked must be those of a stable sort of
    # all keys.
    rng = np.random.default_rng(seed)
    n = 19
    a = rng.integers(-1, 2, size=(n, n)).astype(float)
    inst = BqpInstance(np.triu(a) + np.triu(a, 1).T, rng.integers(-1, 2, n) * float(linear))
    k = n - oracle._BLOCK_BITS
    q_pp, q_ps, q_ss = inst.q[:k, :k], inst.q[:k, k:], inst.q[k:, k:]
    prefixes = oracle._sign_table(k)
    const = 0.5 * np.einsum("ij,jk,ik->i", prefixes, q_pp, prefixes) - prefixes @ inst.c[:k]
    suffix_base = oracle._costs(q_ss, inst.c[k:])
    # Integer data: ties are exact and the slack is 0.
    assert oracle._tolerances(inst.q, inst.c) == (0.0, 0.0)
    key = const + suffix_base.min() - np.abs(prefixes @ q_ps).sum(axis=1)
    order = np.argsort(key, kind="stable")
    p = prefixes[order[0]]
    first_min = const[order[0]] + (suffix_base + oracle._suffix_table(oracle._BLOCK_BITS) @ (q_ps.T @ p)).min()
    cand = order[1:np.searchsorted(key[order], first_min, side="right")]
    assert np.unique(key[cand]).size < cand.size // 2
    assert linear or (key == key.min()).sum() > 1

    # The tied blocks: those whose minimum is the least, exactly.
    suffixes = oracle._suffix_table(oracle._BLOCK_BITS)
    block_mins = const + (suffix_base + prefixes @ q_ps @ suffixes.T).min(axis=1)
    tied = list(map(tuple, prefixes[block_mins == block_mins.min()]))

    brute_force_minimize(inst)
    assert head_bounded_blocks[0] == tuple(p)
    # The candidates are walked in that order, the first chunk whole, and
    # then the second pass bounds the tied blocks again, in prefix order.
    walked = head_bounded_blocks[1:len(head_bounded_blocks) - len(tied)]
    assert min(cand.size, oracle._WALK_CHUNK) <= len(walked) <= cand.size
    assert walked == list(map(tuple, prefixes[cand[:len(walked)]]))
    assert head_bounded_blocks[len(head_bounded_blocks) - len(tied):] == tied


def test_free_coordinates_tie_every_head_row():
    # The first 13 of n = 20 coordinates are free (zero rows and columns of
    # Q, zero entries of c): they are the 7 prefix bits and the 6 head
    # bits, so all 128 x 64 head rows tie, and the second pass evaluates
    # every one of them again.
    rng = np.random.default_rng(13)
    a = rng.integers(-2, 3, size=(7, 7)).astype(float)
    small = BqpInstance(np.triu(a) + np.triu(a, 1).T, rng.integers(-2, 3, 7).astype(float))
    q = np.zeros((20, 20))
    q[13:, 13:] = small.q
    inst = BqpInstance(q, np.concatenate([np.zeros(13), small.c]))
    expected = brute_force_minimize(small)
    result = brute_force_minimize(inst)
    assert result.minimizer_count == 2 ** 13 * expected.minimizer_count
    assert np.float64(result.best_value).tobytes() == np.float64(expected.best_value).tobytes()
    assert result.best_x.tobytes() == np.concatenate([-np.ones(13), expected.best_x]).tobytes()
    ref_x, ref_value, ref_count = full_scan_reference(inst)
    assert result.best_x.tobytes() == ref_x.tobytes()
    assert np.float64(result.best_value).tobytes() == np.float64(ref_value).tobytes()
    assert result.minimizer_count == ref_count


def test_exact_ties_on_integral_data():
    # f(x) = -x_1 - 1e10 x_2: the two best vectors are 2 apart, within the
    # relative tie tolerance 1e-9 * (1 + 1e10) of non-integral data, but on
    # integral data ties are exact.
    inst = parse_instance(load_fixture_text("near_tie2.bqp")).instance
    result = brute_force_minimize(inst)
    np.testing.assert_array_equal(result.best_x, [1.0, 1.0])
    assert result.best_value == -10000000001.0
    assert result.minimizer_count == 1
