"""Probability-vector state plus the competition and update machinery.

Entries are stored as integer numerators over a fixed denominator 2n, so a
step of 1/n is +/-2 numerator units saturating at 0 and 2n. The convergence
test (every entry exactly 0 or 1) is then exact for every n; accumulating
1/n steps in floating point cannot reach 1.0 exactly when n is odd.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .chromosome import Chromosome, Rng, _integer


class ProbabilityVector:
    """Per-gene probability of allele 1, quantized to steps of 1/n."""

    __slots__ = ("length", "population_size", "_denom", "_num", "_probs")

    def __init__(self, length: int, population_size: int):
        length = _integer("length", length)
        population_size = _integer("population_size", population_size)
        if length < 1:
            raise ValueError(f"length must be positive, got {length}")
        if population_size < 1:
            raise ValueError(f"population size must be positive, got {population_size}")
        self.length = length
        self.population_size = population_size
        self._denom = 2 * population_size
        # every entry starts at 1/2, i.e. numerator n over 2n
        self._num = np.full(length, population_size, dtype=np.int64)
        self._probs = self._num / self._denom

    @classmethod
    def from_probabilities(
        cls, probs: Sequence[float], population_size: int
    ) -> "ProbabilityVector":
        """Build from explicit entries; each must be representable as k/(2n).

        Tests use it to put a vector in an exact state.
        """
        pv = cls(len(probs), population_size)
        denom = pv._denom
        for i, p in enumerate(probs):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of range at gene {i}: {p}")
            k = round(p * denom)
            if k / denom != p:
                raise ValueError(
                    f"probability {p} at gene {i} is not a multiple of 1/{denom}"
                )
            pv._num[i] = k
        np.divide(pv._num, denom, out=pv._probs)
        return pv

    @property
    def numerators(self) -> tuple[int, ...]:
        """Exact entries as numerators over 2 * population_size."""
        return tuple(self._num.tolist())

    def sample(self, rng: Rng) -> Chromosome:
        """Draw one chromosome: allele i is 1 iff the i-th variate is < p[i].

        Always consumes exactly ``length`` variates, also for entries pinned
        at 0 or 1, so the draw count never depends on the vector's state.
        """
        u = rng.uniforms(self.length)
        return Chromosome(u < self._probs)

    def update(self, winner: Chromosome, loser: Chromosome) -> None:
        """Shift each entry 1/n toward the winner where the two disagree."""
        if winner.length != self.length or loser.length != self.length:
            raise ValueError("chromosome length does not match vector length")
        if winner.packed == loser.packed:
            return
        delta = winner.bits.astype(np.int16) - loser.bits
        self._num += 2 * delta
        np.clip(self._num, 0, self._denom, out=self._num)
        np.divide(self._num, self._denom, out=self._probs)

    def is_converged(self) -> bool:
        """True iff every entry is exactly 0 or 1."""
        return bool(((self._num == 0) | (self._num == self._denom)).all())

    def decode(self) -> Chromosome:
        """Chromosome with allele 1 exactly where p is 1 (meaningful once converged)."""
        return Chromosome(self._num == self._denom)

    def __repr__(self) -> str:
        return (
            f"ProbabilityVector(length={self.length}, "
            f"population_size={self.population_size})"
        )


def compete(
    a: Chromosome, fa, b: Chromosome, fb
) -> tuple[Chromosome, Chromosome]:
    """Order two evaluated chromosomes as (winner, loser).

    Higher fitness wins; an exact tie goes to the first argument, which
    makes the outcome deterministic for every input order.
    """
    if fb > fa:
        return b, a
    return a, b
