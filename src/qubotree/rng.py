"""Portable seeded random number generation.

All stochastic output in this package (synthetic data, dataset partitioning,
annealing) flows through :class:`Rng`, a counter-based SplitMix64 generator.
The integer stream is exact 64-bit arithmetic and therefore identical on
every platform; float distributions are deterministic up to libm rounding.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent 64-bit substream seed from ``seed`` and tags."""
    state = seed & _MASK
    for tag in tags:
        state = (state + _GAMMA) & _MASK
        state = _mix_int(state ^ (tag & _MASK))
    return state & _MASK


class Rng:
    """SplitMix64 stream with vectorized draws.

    Counter-based: drawing a block of ``n`` words advances the state by
    ``n`` increments, so any (seed, call sequence) pair reproduces exactly.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def _block(self, n: int) -> np.ndarray:
        counters = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        words = _mix(np.uint64(self._state) + counters)
        self._state = (self._state + n * _GAMMA) & _MASK
        return words

    def uniform01(self, n: int) -> np.ndarray:
        """Doubles in [0, 1), 53-bit resolution."""
        return (self._block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        return low + (high - low) * self.uniform01(n)

    def integers(self, k: int, n: int) -> np.ndarray:
        """Integers uniform on {0, ..., k-1}."""
        return np.minimum((self.uniform01(n) * k).astype(np.int64), k - 1)

    def normal(self, mean: float, std: float, n: int) -> np.ndarray:
        # Box-Muller on paired uniforms; u1 shifted into (0, 1].
        m = (n + 1) // 2
        u1 = ((self._block(m) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = self.uniform01(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return mean + std * z

    def lognormal(self, mu: float, sigma: float, n: int) -> np.ndarray:
        return np.exp(self.normal(mu, sigma, n))

    def gamma(self, shape: float, scale: float, n: int) -> np.ndarray:
        """Marsaglia-Tsang squeeze for shape >= 1."""
        if shape < 1.0:
            raise ValueError("gamma sampling requires shape >= 1")
        d = shape - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        out = np.empty(n, dtype=np.float64)
        pending = np.arange(n)
        while pending.size:
            x = self.normal(0.0, 1.0, pending.size)
            v = (1.0 + c * x) ** 3
            u = self.uniform01(pending.size)
            ok = v > 0.0
            squeeze = ok & (u < 1.0 - 0.0331 * x**4)
            with np.errstate(divide="ignore", invalid="ignore"):
                slow = ok & ~squeeze & (np.log(u) < 0.5 * x**2 + d * (1.0 - v + np.log(v)))
            accept = squeeze | slow
            out[pending[accept]] = d * v[accept]
            pending = pending[~accept]
        return out * scale

    def bernoulli(self, p: np.ndarray) -> np.ndarray:
        """One 0/1 draw per entry of ``p``."""
        return (self.uniform01(len(p)) < p).astype(np.int64)

    def shuffle_keys(self, n: int) -> np.ndarray:
        """Sort keys: argsort yields a uniform permutation of range(n)."""
        return self._block(n)
