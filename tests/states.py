"""Builders of exact test states from integer numerators and '0'/'1' strings."""

import numpy as np

from compactga import Chromosome, ProbabilityVector


def vector(numerators, population_size: int) -> ProbabilityVector:
    """A vector whose entry i is numerators[i] / (2 * population_size).

    The inverse of ``ProbabilityVector.numerators``, and the only test code
    that writes a vector's private state.
    """
    pv = ProbabilityVector(len(numerators), population_size)
    assert all(0 <= k <= 2 * population_size for k in numerators), numerators
    pv._num = np.array(numerators, dtype=np.int64)
    return pv  # _probs is still None from __init__, so the first sample reads _num


def bitstring(text: str) -> Chromosome:
    """The chromosome spelled by a '0'/'1' string, gene 0 first."""
    return Chromosome(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))


def residents(cache) -> int:
    """Number of entries in `cache`, counted through its public listing."""
    return len(cache.dump().splitlines())
