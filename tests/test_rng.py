from __future__ import annotations

import numpy as np
import pytest

from setpose.rng import _GOLDEN, _splitmix64, PortableRng, counter_uniform, derive_seed


def test_same_seed_same_stream():
    a = PortableRng(1234)
    b = PortableRng(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_streams_are_independent():
    a = [PortableRng(7, stream=0).next_u64() for _ in range(8)]
    b = [PortableRng(7, stream=1).next_u64() for _ in range(8)]
    assert a != b


def test_derive_seed_mixes_indices():
    seeds = {derive_seed(3, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(3, 5, 9) != derive_seed(3, 9, 5)


def test_uniform_range_and_moments():
    rng = PortableRng(99)
    vals = rng.uniform_list(20000, -2.0, 6.0)
    assert all(-2.0 <= v < 6.0 for v in vals)
    mean = sum(vals) / len(vals)
    assert abs(mean - 2.0) < 0.1  # E = 2, sd of mean ~ 0.016


def test_bernoulli_rate():
    rng = PortableRng(101)
    hits = sum(rng.bernoulli(0.9) for _ in range(10000))
    assert 8800 < hits < 9200


def test_shuffle_is_permutation_and_deterministic():
    a = list(range(50))
    PortableRng(5).shuffle(a)
    assert sorted(a) == list(range(50))
    b = list(range(50))
    PortableRng(5).shuffle(b)
    assert a == b
    assert a != list(range(50))


@pytest.mark.parametrize("key", [0, 99, 2**63 + 5, 2**64 - 1, 2**64 - 2 * _GOLDEN % 2**64])
def test_counter_uniform_matches_a_splitmix64_loop(key):
    """Element i is splitmix64's output after i + 1 steps from the key. The
    large keys wrap the uint64 counter at the first element, and the last
    one reaches state 0 at the second."""
    n, lo, hi = 37, -0.75, 1.5
    expected, state = [], key
    for _ in range(n):
        out, state = _splitmix64(state)
        expected.append(lo + (hi - lo) * ((out >> 11) * 2.0 ** -53))
    got = counter_uniform(key, n, lo, hi)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == np.array(expected).tobytes()
    assert np.all((got >= lo) & (got < hi))
