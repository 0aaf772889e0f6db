"""Counter-based deterministic random number generator.

Everything stochastic in this package draws from :class:`CounterRng`, a
SplitMix64 generator addressed by (seed, stream, counter).  The n-th draw of a
stream is a pure function of those three integers, so cohorts, parameter
initialisations and shuffle schedules are reproducible bit-for-bit on any
platform, and independent streams can be handed to parallel workers without
shared state.

SplitMix64 reference: Steele, Lea & Flood, "Fast splittable pseudorandom
number generators" (OOPSLA 2014); the finalizer is the public-domain variant
by Sebastiano Vigna (https://prng.di.unimi.it/splitmix64.c).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_key(seed: int, *parts: int | str) -> int:
    """Fold (seed, parts...) into a 64-bit stream key.

    Strings are hashed bytewise (FNV-1a) so streams can be named; the result
    does not depend on Python's randomized str hash.
    """
    key = mix64(seed)
    for part in parts:
        if isinstance(part, str):
            h = 0xCBF29CE484222325
            for b in part.encode("utf-8"):
                h = ((h ^ b) * 0x100000001B3) & _MASK64
            part = h
        key = mix64((key ^ (part & _MASK64)) + _GAMMA)
    return key


class CounterRng:
    """Deterministic stream of random values.

    The i-th 64-bit output is ``mix64(key + (i+1) * GAMMA)``; advancing is a
    counter increment, never data-dependent.
    """

    def __init__(self, seed: int, *stream: int | str):
        self.key = derive_key(seed, *stream) if stream else mix64(seed)
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return mix64(self.key + self.counter * _GAMMA)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in [low, high) with 53-bit resolution."""
        u = self.next_u64() >> 11
        return low + (high - low) * (u * (1.0 / (1 << 53)))

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` ``uniform()`` draws, in [0, 1), as a float64
        array, equal to ``n`` scalar calls: SplitMix64 in uint64 arithmetic,
        whose wraparound is the scalar path's 64-bit mask."""
        if n < 0:
            raise ValueError(f"cannot draw {n} values")
        i = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        z = np.uint64(self.key) + i * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)).astype(np.float64)
        return u * (1.0 / (1 << 53))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] via unbiased rejection."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return low + u % span

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        """Gaussian draw via Box-Muller (two uniforms per call, no caching)."""
        u1 = self.uniform()
        u2 = self.uniform()
        # guard log(0); uniform() can return exactly 0.0
        while u1 <= 0.0:
            u1 = self.uniform()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mean + sd * z

    def log_uniform(self, low: float, high: float) -> float:
        """Draw x with log(x) uniform on [log low, log high]; requires low > 0."""
        return math.exp(self.uniform(math.log(low), math.log(high)))

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def normals(self, n: int, mean: float = 0.0, sd: float = 1.0) -> list[float]:
        """The next ``n`` ``normal(mean, sd)`` draws, equal to ``n`` scalar
        calls: the 2n uniforms come from one ``uniforms`` pass, and log and
        cos stay scalar ``math`` calls per pair.  A zero u1, which ``normal``
        rejects with a further draw, sends the whole call down the scalar
        path, so the draw order is kept."""
        start = self.counter
        u = self.uniforms(2 * n)
        u1, u2 = u[0::2].tolist(), u[1::2].tolist()
        if 0.0 in u1:
            self.counter = start
            return [self.normal(mean, sd) for _ in range(n)]
        return [mean + sd * (math.sqrt(-2.0 * math.log(a))
                             * math.cos(2.0 * math.pi * b))
                for a, b in zip(u1, u2)]
