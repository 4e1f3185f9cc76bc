"""Probability-vector state plus the competition and update machinery.

Entries are stored as integer numerators over a fixed denominator 2n, so a
step of 1/n is +/-2 numerator units saturating at 0 and 2n. The convergence
test (every entry exactly 0 or 1) is then exact for every n; accumulating
1/n steps in floating point cannot reach 1.0 exactly when n is odd.

The saturating step and the refresh of the float entries are lookups in
two tables indexed by numerator, built once per vector: a clamp table and a
quotient table.
"""

from __future__ import annotations

import numpy as np

from .chromosome import Chromosome, Rng, _integer


class ProbabilityVector:
    """Per-gene probability of allele 1, quantized to steps of 1/n.

    The integer numerators are the state; :meth:`update` sets ``_probs`` to
    None and the next :meth:`sample` refreshes the float entries once.

    Two tables, built once in the constructor, drive both: ``_quotient[k]``
    is the float64 ``k / 2n`` (the correctly rounded quotient, as a divide
    gives) for k in 0..2n, and ``_clamp[s]`` is ``min(max(s, 0), 2n)`` as an
    int64 for every sum s in -2..2n+2 that one step can reach; the sums -2
    and -1 are its last two entries, which numpy's negative indices reach.
    Together they hold 2n+O(1) entries, built in O(n) time and memory. The
    run dominates that: moving even one gene from 1/2 to 0 or 1 takes at
    least n/2 updates.
    """

    __slots__ = (
        "length", "population_size", "_denom", "_num", "_probs", "_witness",
        "_quotient", "_clamp",
    )

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
        self._probs = None  # None: stale, the next sample fills it from _num
        denom = self._denom
        self._quotient = np.arange(denom + 1, dtype=np.float64)
        self._quotient /= denom
        # each sum 0..2n+2 clamped at its own index; -2 and -1 index the last two
        self._clamp = np.arange(denom + 5, dtype=np.int64)
        self._clamp[denom + 1 :] = denom
        self._clamp[-2:] = 0
        # a gene last seen strictly between 0 and 1; only a hint, see is_converged
        self._witness = 0

    @property
    def numerators(self) -> tuple[int, ...]:
        """Exact entries as numerators over 2 * population_size."""
        return tuple(self._num.tolist())

    def sample(self, rng: Rng) -> Chromosome:
        """Draw one chromosome: allele i is 1 iff the i-th variate is < p[i].

        Always consumes exactly ``length`` variates, also for entries pinned
        at 0 or 1, so the draw count never depends on the vector's state.
        After an update, p is first refreshed by looking each numerator up
        in the quotient table.
        """
        u = rng.uniforms(self.length)
        if self._probs is None:
            self._probs = self._quotient[self._num]
        return Chromosome(u < self._probs)

    def update(self, winner: Chromosome, loser: Chromosome) -> None:
        """Shift each entry 1/n toward the winner where the two disagree.

        Entries saturate at 0 and 1 after every single update, so the order
        of a sequence of updates matters and they cannot be summed first.
        The saturating step is one lookup of ``num + delta`` in the clamp
        table. Only the numerators change; the next :meth:`sample` refreshes
        the float entries.
        """
        if winner.length != self.length or loser.length != self.length:
            raise ValueError("chromosome length does not match vector length")
        if winner.packed == loser.packed:
            return
        # +1/-1/0 per gene, doubled in int8: a step of 1/n is two numerator units
        delta = np.subtract(winner.bits.view(np.int8), loser.bits.view(np.int8))
        delta += delta
        num = self._num
        num += delta  # in place: only the lookup below allocates
        self._num = self._clamp[num]
        self._probs = None

    def _restore(self, numerators: np.ndarray) -> None:
        """Take `numerators`, a state an identical run reached, as the vector's own.

        A capacity replay loads the live run's final state this way, as a
        fresh array that nothing else holds, so it is not copied.
        """
        self._num = numerators
        self._probs = None

    def is_converged(self) -> bool:
        """True iff every entry is exactly 0 or 1.

        Checks one remembered open gene (the witness) first and returns
        False, in constant time, while it is still open. Once it has
        settled, every gene is scanned: the first open one becomes the new
        witness, and only a scan that finds none returns True. True thus
        always comes from a full scan, so a gene that re-opens after
        saturating is never missed.
        """
        if 0 < self._num.item(self._witness) < self._denom:
            return False
        open_genes = (self._num > 0) & (self._num < self._denom)
        witness = int(open_genes.argmax())
        if open_genes[witness]:
            self._witness = witness
            return False
        return True

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
