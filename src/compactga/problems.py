"""Benchmark fitness functions over bit-string chromosomes.

Both problems are maximization: ``onemax`` counts 1-alleles, and
``binary_integer`` reads the whole string as a big-endian integer.
New problems can be added through :data:`FITNESS_FUNCTIONS`, with a
default length in :data:`DEFAULT_BITS` and a length cap in :data:`MAX_BITS`.
"""

from __future__ import annotations

from typing import Callable

from .chromosome import Chromosome

FitnessFn = Callable[[Chromosome], int]

# binary_integer must fit a machine integer for cheap comparisons
MAX_BINARY_INTEGER_BITS = 63


def onemax(c: Chromosome) -> int:
    """Number of 1-alleles in the chromosome."""
    return c.ones()


def binary_integer(c: Chromosome) -> int:
    """Decimal value of the bit string, gene 0 as the most significant bit."""
    if c.length > MAX_BINARY_INTEGER_BITS:
        raise ValueError(
            f"binary_integer supports at most {MAX_BINARY_INTEGER_BITS} bits, got {c.length}"
        )
    return c.to_int()


FITNESS_FUNCTIONS: dict[str, FitnessFn] = {
    "onemax": onemax,
    "binint": binary_integer,
}

# chromosome length when none is given; a problem without an entry needs one
DEFAULT_BITS = {"onemax": 100, "binint": 30}

# longest supported chromosome; a problem without an entry is unbounded
MAX_BITS = {"binint": MAX_BINARY_INTEGER_BITS}


def fitness_function(name: str) -> FitnessFn:
    """Look up a fitness function by its registry name."""
    try:
        return FITNESS_FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(FITNESS_FUNCTIONS))
        raise ValueError(f"unknown problem {name!r} (known: {known})") from None

