"""KVS workload generation: MICA-style key distributions and op mixes.

The paper "used MICA's library to generate skewed (0.99) keys in the
range [0, 2^24)".  MICA's generator is the classic Gray et al.
(SIGMOD '94) incremental Zipf sampler; :class:`ZipfKeys` implements the
same closed form, vectorised with numpy so millions of keys are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


def zeta(n: int, theta: float) -> float:
    """Generalised harmonic number ``sum_{i=1..n} 1/i^theta``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return float(np.sum(1.0 / np.arange(1, n + 1, dtype=float) ** theta))


class ZipfKeys:
    """Zipf-distributed keys over ``[0, n_keys)`` (Gray et al. sampler).

    Rank 0 is the hottest key; ranks are scattered over the key space
    with a fixed permutation-ish multiplier so that hot keys are not
    physically adjacent (as MICA does).

    Args:
        n_keys: key-space size (paper: 2^24).
        theta: skew (paper: 0.99).
        seed: RNG seed.
        scatter: map ranks through a multiplicative scatter so hot
            keys spread over the index (disable for rank==key tests).
    """

    def __init__(
        self,
        n_keys: int,
        theta: float = 0.99,
        seed: int = 0,
        scatter: bool = True,
    ) -> None:
        if n_keys <= 1:
            raise ValueError(f"n_keys must be > 1, got {n_keys}")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.n_keys = n_keys
        self.theta = theta
        self.seed = seed
        self.scatter = scatter
        self._zetan = zeta_fast(n_keys, theta)
        self._zeta2 = zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n_keys) ** (1.0 - theta)) / (
            1.0 - self._zeta2 / self._zetan
        )
        # Odd multiplier, coprime with any power-of-two key space.
        self._mult = 0x9E3779B1 | 1

    def ranks(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Draw *count* Zipf ranks (0 = hottest)."""
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        u = rng.random(count)
        uz = u * self._zetan
        ranks = 1.0 + self.n_keys * np.power(
            self._eta * u - self._eta + 1.0, self._alpha
        )
        ranks = np.where(uz < 1.0, 1.0, ranks)
        ranks = np.where((uz >= 1.0) & (uz < 1.0 + 0.5**self.theta), 2.0, ranks)
        out = ranks.astype(np.int64) - 1
        return np.clip(out, 0, self.n_keys - 1)

    def keys(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Draw *count* keys (ranks scattered over the key space)."""
        ranks = self.ranks(count, rng)
        if not self.scatter:
            return ranks
        return (ranks * self._mult + 0x5BD1E995) % self.n_keys


def zeta_fast(n: int, theta: float) -> float:
    """Harmonic sum in numpy chunks (n can be 2^24)."""
    total = 0.0
    chunk = 1 << 22
    for start in range(1, n + 1, chunk):
        stop = min(start + chunk, n + 1)
        total += float(np.sum(1.0 / np.arange(start, stop, dtype=float) ** theta))
    return total


class UniformKeys:
    """Uniformly distributed keys over ``[0, n_keys)``."""

    def __init__(self, n_keys: int, seed: int = 0) -> None:
        if n_keys <= 1:
            raise ValueError(f"n_keys must be > 1, got {n_keys}")
        self.n_keys = n_keys
        self.seed = seed

    def keys(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Draw *count* uniform keys."""
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        return rng.integers(0, self.n_keys, size=count)


@dataclass(frozen=True)
class GetSetMix:
    """A GET/SET operation mix (paper: 100 %, 95 %, 50 % GET)."""

    get_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ValueError(
                f"get_fraction must be in [0, 1], got {self.get_fraction}"
            )

    @property
    def label(self) -> str:
        """Workload label as the paper prints it."""
        return f"{self.get_fraction:.0%} GET"

    def operations(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Boolean array: True = GET, False = SET.

        *rng* is required: an implicit constant fallback here silently
        decoupled the op mix from the experiment seed (a constant
        re-seed, which ``repro check`` flags as FLOW002).
        """
        return rng.random(count) < self.get_fraction


#: The three mixes of Fig. 8.
PAPER_MIXES: Tuple[GetSetMix, ...] = (
    GetSetMix(1.00),
    GetSetMix(0.95),
    GetSetMix(0.50),
)
