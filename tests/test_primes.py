import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primediff import primes
from primediff.primes import (
    is_prime,
    prime_arithmetic_progression,
    prime_flags,
    prime_pair_decompositions,
)


def trial_division(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def test_prime_flags_match_trial_division():
    flags = prime_flags(500)
    assert [k for k in range(501) if flags[k]] == [k for k in range(501) if trial_division(k)]


@given(st.integers(min_value=-10, max_value=5000))
def test_shared_sieve_matches_trial_division(k):
    assert is_prime(k) == trial_division(k)


def test_shared_sieve_grows_on_demand():
    assert is_prime(104729)  # 10000th prime, far beyond the initial table


def test_prime_flags_cover_requested_range():
    flags = prime_flags(1000)
    assert len(flags) > 1000
    assert flags[997] == 1 and flags[999] == 0


def test_decompositions_examples():
    assert prime_pair_decompositions(9) == [(2, 7)]
    assert prime_pair_decompositions(16) == [(3, 13), (5, 11)]
    # 10 = 5 + 5 uses equal parts and is excluded
    assert prime_pair_decompositions(10) == [(3, 7)]
    assert prime_pair_decompositions(11) == []
    assert prime_pair_decompositions(4) == []


@given(st.integers(min_value=1, max_value=600))
def test_decomposition_parts(n):
    for p, q in prime_pair_decompositions(n):
        assert p < q and p + q == n
        assert trial_division(p) and trial_division(q)


@given(st.integers(min_value=4, max_value=600))
def test_decompositions_complete(n):
    got = set(prime_pair_decompositions(n))
    want = {
        (p, n - p)
        for p in range(2, n)
        if p < n - p and trial_division(p) and trial_division(n - p)
    }
    assert got == want


def test_progression_goldens():
    assert prime_arithmetic_progression(1, 100) == (2,)
    assert prime_arithmetic_progression(2, 100) == (2, 3)
    assert prime_arithmetic_progression(3, 100) == (3, 5, 7)
    assert prime_arithmetic_progression(4, 100) == (5, 11, 17, 23)
    assert prime_arithmetic_progression(6, 10_000) == (7, 37, 67, 97, 127, 157)


def test_progression_goldens_long():
    assert prime_arithmetic_progression(12, 200_000) == tuple(4943 + 60060 * j for j in range(12))
    assert prime_arithmetic_progression(11, 5_000) is None
    assert prime_arithmetic_progression(12, 100_000) == tuple(4943 + 60060 * j for j in range(12))
    assert prime_arithmetic_progression(14, 100_000) is None
    assert prime_arithmetic_progression(12, 120_000, least_end_sum=True) == tuple(
        110437 + 13860 * j for j in range(12)
    )


def naive_progression(k: int, limit: int):
    """The unwheeled scan: every prime first term, every difference."""
    for first in range(2, limit + 1):
        if not trial_division(first):
            continue
        for d in range(1, limit + 1):
            if all(is_prime(first + j * d) for j in range(1, k)):
                return tuple(first + j * d for j in range(k))
    return None


@pytest.mark.parametrize("k", range(2, 14))
def test_progression_wheel_matches_naive_scan(k):
    for limit in (30, 300, 3000) if k <= 10 else (30, 300):
        assert prime_arithmetic_progression(k, limit) == naive_progression(k, limit)


def naive_least_end_sum(k: int, limit: int):
    """Every progression in the box, then the least (first + last, first)."""
    found = [
        (2 * a + (k - 1) * d, a, d)
        for a in range(2, limit + 1)
        for d in range(1, limit + 1)
        if all(is_prime(a + j * d) for j in range(k))
    ]
    if not found:
        return None
    _, a, d = min(found)
    return tuple(a + j * d for j in range(k))


@pytest.mark.parametrize("k", range(2, 11))
def test_progression_least_end_sum_matches_naive_scan(k):
    # From k = 9 the wheel is 210, so only a limit past it reaches first
    # terms below k.  1,100 first terms run past one block of first terms.
    for limit in ((30, 200) if k <= 8 else (250,)) + ((1_100,) if k in (3, 4, 5) else ()):
        assert prime_arithmetic_progression(k, limit, least_end_sum=True) == naive_least_end_sum(k, limit)


def test_progression_end_sum_tie_goes_to_the_smaller_first_term(monkeypatch):
    # Prime progressions in small boxes do not tie on the end sum, so this
    # sieve is made up: 20 + 6j and 11 + 12j (j < 4) both sum to 58, and the
    # later difference holds the smaller first term.
    fake = bytearray(200)
    for v in (2, 3, 11, 20, 23, 26, 32, 35, 38, 47):
        fake[v] = 1
    monkeypatch.setattr(primes, "_flags", fake)
    assert prime_arithmetic_progression(4, 20, least_end_sum=True) == (11, 23, 35, 47)
    assert prime_arithmetic_progression(4, 20) == (11, 23, 35, 47)


@pytest.mark.parametrize("k", range(2, 9))
def test_progression_block_size_does_not_change_the_answer(monkeypatch, k):
    # Small blocks put answers, hits and end-sum cut-offs on block edges.
    want = {limit: (naive_progression(k, limit), naive_least_end_sum(k, limit)) for limit in (30, 200)}
    for block in (1, 2, 7, 64):
        monkeypatch.setattr(primes, "_BLOCK", block)
        for limit, (first, least) in want.items():
            assert prime_arithmetic_progression(k, limit) == first
            assert prime_arithmetic_progression(k, limit, least_end_sum=True) == least


def counting_flags(monkeypatch, limit):
    """Swap the shared sieve, grown to `limit`, for one that counts lookups."""
    lookups = [0]

    class Counting(bytearray):
        def __getitem__(self, i):
            lookups[0] += 1
            return super().__getitem__(i)

    prime_flags(limit)
    monkeypatch.setattr(primes, "_flags", Counting(primes._flags))
    return lookups


def test_progression_steps_by_the_full_wheel(monkeypatch):
    # Every prime below k divides the difference whatever the first term, so
    # differences step by 210, and first terms 2, 3, 5 and 7 are not tried.
    # Each difference costs a block of first terms at most k window slices,
    # one lookup each: about 330 here.
    lookups = counting_flags(monkeypatch, 10 * 10_000)
    assert prime_arithmetic_progression(10, 10_000) == tuple(199 + 210 * j for j in range(10))
    assert lookups[0] < 2_500


@pytest.mark.parametrize(
    "k, limit, least_end_sum, answer, budget",
    [
        # Empty box: first term 11 with its 23 differences, then five blocks
        # of first terms with two differences each.
        (11, 5_000, False, None, 200),
        # The first block's first difference finds 199 + 210j, and the next
        # block cannot beat its end sum.
        (10, 10_000, True, tuple(199 + 210 * j for j in range(10)), 50),
    ],
)
def test_progression_tests_a_block_of_first_terms_per_lookup(
    monkeypatch, k, limit, least_end_sum, answer, budget
):
    lookups = counting_flags(monkeypatch, k * limit)
    assert prime_arithmetic_progression(k, limit, least_end_sum=least_end_sum) == answer
    assert lookups[0] <= budget


def test_progression_exhaustion_and_validation():
    assert prime_arithmetic_progression(6, 20) is None
    assert prime_arithmetic_progression(2, 1) is None
    with pytest.raises(ValueError):
        prime_arithmetic_progression(0, 100)
    with pytest.raises(ValueError, match="-5"):
        prime_arithmetic_progression(3, -5)


def test_progression_ruled_out_before_the_sieve_grows():
    # Every prime below k divides the difference, and 2*3*5*7*11*13 > 10_000.
    tracemalloc.start()
    try:
        assert prime_arithmetic_progression(200_000, 10_000) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=300))
def test_progression_is_prime_and_equally_spaced(k, limit):
    ap = prime_arithmetic_progression(k, limit)
    if ap is None:
        return
    assert len(ap) == k
    assert all(trial_division(t) for t in ap)
    steps = {b - a for a, b in zip(ap, ap[1:])}
    assert len(steps) == 1 and steps.pop() > 0
    assert ap[0] <= limit
