"""Portable deterministic random number generation.

Datasets, parameter initialization, and training-time augmentation must be
bit-reproducible across runs and platforms, so randomness is pinned to a
fixed, explicitly implemented generator instead of numpy's (whose
distribution streams may change between releases):

  * state seeding / stream derivation: splitmix64
  * core generator: xoshiro256++ (Blackman & Vigna)
  * uniform doubles: top 53 bits of a 64-bit draw, i.e. (u >> 11) * 2**-53
  * counter-based uniforms (parameter init): value i under a 64-bit key is
    the splitmix64 output for state key + (i + 1) * GOLDEN, so it depends
    on (key, i) only and a whole array is one vectorised numpy uint64 pass
    (the counter-based design of Salmon et al. 2011, "Parallel random
    numbers: as easy as 1, 2, 3")

Integer state arithmetic is exact everywhere; float results depend only on
IEEE-754 double operations.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, next_state)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def counter_uniform(key: int, n: int, lo: float, hi: float) -> np.ndarray:
    """n uniform doubles in [lo, hi): element i is `_splitmix64(key + i *
    GOLDEN)[0]` turned into a double like PortableRng.uniform does.

    Every constant is an np.uint64 (a Python int would promote the arrays to
    float64 under numpy 1.x); uint64 wrap-around is the intended mod 2**64.
    """
    u64 = np.uint64
    z = np.arange(1, n + 1, dtype=u64) * u64(_GOLDEN) + u64(key & _MASK64)
    z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    z ^= z >> u64(31)
    return lo + (hi - lo) * ((z >> u64(11)) * 2.0 ** -53)


def derive_seed(seed: int, *indices: int) -> int:
    """Mix a base seed with stream indices into a new 64-bit seed.

    Used to give every (split, sample) its own independent stream so
    per-sample generation can run in any order or in parallel.
    """
    state = seed & _MASK64
    for idx in indices:
        state ^= (idx & _MASK64) * 0xD1B54A32D192ED03 & _MASK64
        out, state = _splitmix64(state)
        state = out
    out, _ = _splitmix64(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class PortableRng:
    """xoshiro256++ with splitmix64 seeding. Not thread-safe; one per stream."""

    __slots__ = ("_s",)

    def __init__(self, seed: int, stream: int = 0):
        state = derive_seed(seed, stream) if stream else seed & _MASK64
        s = []
        for _ in range(4):
            out, state = _splitmix64(state)
            s.append(out)
        # never all-zero: splitmix64 maps its four distinct states one-to-one
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[0] + s[3]) & _MASK64, 23) + s[0]) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def bernoulli(self, p: float) -> bool:
        return self.random() < p

    def uniform_list(self, n: int, lo: float, hi: float) -> list[float]:
        return [self.uniform(lo, hi) for _ in range(n)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]
