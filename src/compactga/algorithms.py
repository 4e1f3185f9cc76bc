"""The compact-GA family, parameterized over a fitness evaluator.

The five variants come from two papers and run on two loops:

- Harik, Lobo & Goldberg, "The compact genetic algorithm", IEEE Trans.
  Evol. Comput. 3(4), 1999: ``cga`` and its tournament (``cga-t``) and
  round-robin (``cga-rr``) forms. One sampled loop runs all three: sample k
  chromosomes, evaluate them in sampling order, then apply a list of
  (winner, loser) updates. ``cga`` is ``cga-t(s=2)`` and ``cga-rr(m=2)``.
- Ahn & Ramakrishna, "Elitism-based compact genetic algorithms", IEEE
  Trans. Evol. Comput. 7(4), 2003: persistent (``pe-cga``) and nonpersistent
  (``ne-cga``) elitism. One elitist loop runs both; ``pe-cga`` is
  ``ne-cga`` with an unbounded inheritance length.

Cached and uncached runs share one code path: the evaluator decides whether
a lookup hits a cache or reaches the fitness function, and nothing else in a
run depends on it. Cache operations consume no random draws, so for a fixed
seed the trajectory (every sampled chromosome, every update, the iteration
count) is identical whatever the cache capacity or policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .cache import CachedEvaluator
from .chromosome import Chromosome, Rng, _integer
from .pv import ProbabilityVector, compete

DEFAULT_ITERATION_CAP = 10_000_000

VARIANT_KINDS = ("cga", "cga-t", "cga-rr", "pe-cga", "ne-cga")


class IterationLimitError(RuntimeError):
    """A run failed to converge within its iteration cap."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


@dataclass
class RunStats:
    """Outcome of one run.

    ``evaluations`` counts the fitness-function invocations made through the
    cache, which are exactly the cache ``misses``; ``hits + misses`` is the
    number of lookups, which does not depend on the cache. ``solution_fitness``
    is one more call, made directly on the decoded solution after the loop
    and counted nowhere, so a run calls the fitness function
    ``evaluations + 1`` times. ``final_pv`` (the vector's numerators) and
    ``updates`` are what the trajectory oracles compare; ``updates`` holds
    the (winner, loser) pair of every probability-vector update when the run
    was traced, and is None otherwise.
    """

    evaluations: int
    hits: int
    misses: int
    iterations: int
    solution: Chromosome
    solution_fitness: int | float
    final_pv: tuple[int, ...]
    updates: Optional[list[tuple[Chromosome, Chromosome]]] = None


def default_inheritance_length(population_size: int) -> int:
    """Elite survival limit used when none is configured: ceil(n / 10)."""
    return max(1, math.ceil(population_size / 10))


def _round_robin_pairs(candidates, fitnesses):
    """Every pair i < j competes, in order: k(k-1)/2 updates."""
    k = len(candidates)
    return [
        compete(candidates[i], fitnesses[i], candidates[j], fitnesses[j])
        for i in range(k - 1)
        for j in range(i + 1, k)
    ]


def _tournament_pairs(candidates, fitnesses):
    """The earliest-sampled maximum beats each of the others, in sampling order."""
    best = max(range(len(candidates)), key=fitnesses.__getitem__)
    winner = candidates[best]
    return [(winner, c) for j, c in enumerate(candidates) if j != best]


def _sampled_loop(
    pv: ProbabilityVector,
    k: int,
    pairs: Callable[[list[Chromosome], list], list[tuple[Chromosome, Chromosome]]],
    evaluator: CachedEvaluator,
    rng: Rng,
    max_iterations: int,
    updates: Optional[list],
    what: str,
) -> int:
    """Sample k chromosomes, evaluate them in sampling order, apply ``pairs``.

    ``pairs(candidates, fitnesses)`` gives one iteration's (winner, loser)
    updates in the order they are applied. Returns the iteration count.
    """
    iterations = 0
    while not pv.is_converged():
        if iterations >= max_iterations:
            raise IterationLimitError(f"{what} not converged after {iterations} iterations", iterations)
        iterations += 1
        candidates = [pv.sample(rng) for _ in range(k)]
        fitnesses = [evaluator(c) for c in candidates]
        for winner, loser in pairs(candidates, fitnesses):
            pv.update(winner, loser)
            if updates is not None:
                updates.append((winner, loser))
    return iterations


def _elitist_loop(
    pv: ProbabilityVector,
    eta: Optional[int],
    evaluator: CachedEvaluator,
    rng: Rng,
    max_iterations: int,
    updates: Optional[list],
    what: str,
) -> int:
    """The reigning elite meets one new challenger per iteration.

    The first sample stands in as elite with a survival count of -1, so the
    first iteration pits it against the second sample like any challenger
    and its winner starts with no defenses. Every iteration samples one
    challenger; the elite's fitness is kept and never looked up again. A
    tie keeps the elite. With ``eta=None`` (persistent elitism) the elite
    reigns until strictly beaten. Otherwise, once it has survived ``eta``
    defenses, the next iteration still runs the normal competition and
    update, then installs that iteration's challenger as elite regardless of
    fitness; losing by fitness resets the survival count as well.

    Returns the iteration count.
    """
    iterations = 0
    elite = pv.sample(rng)
    elite_fitness = evaluator(elite)
    survivals = -1
    while not pv.is_converged():
        if iterations >= max_iterations:
            raise IterationLimitError(f"{what} not converged after {iterations} iterations", iterations)
        iterations += 1
        challenger = pv.sample(rng)
        challenger_fitness = evaluator(challenger)
        winner, loser = compete(elite, elite_fitness, challenger, challenger_fitness)
        pv.update(winner, loser)
        if updates is not None:
            updates.append((winner, loser))
        if winner is elite and (eta is None or survivals < eta):
            survivals += 1
        else:
            elite, elite_fitness = challenger, challenger_fitness
            survivals = 0
    return iterations


@dataclass(frozen=True)
class Variant:
    """An algorithm choice with its selection-pressure parameters."""

    kind: str
    s: Optional[int] = None
    m: Optional[int] = None
    eta: Optional[int] = None

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown algorithm {self.kind!r} (known: {', '.join(VARIANT_KINDS)})")
        for name in ("s", "m", "eta"):
            if getattr(self, name) is not None:
                _integer(name, getattr(self, name))
        if self.kind == "cga-t":
            if self.s is None or self.s < 2:
                raise ValueError(f"cga-t needs a tournament size >= 2, got {self.s}")
        if self.kind == "cga-rr":
            if self.m is None or self.m < 2:
                raise ValueError(f"cga-rr needs a round-robin size >= 2, got {self.m}")
        if self.kind == "ne-cga" and self.eta is not None and self.eta < 1:
            raise ValueError(f"ne-cga needs an inheritance length >= 1, got {self.eta}")

    @property
    def label(self) -> str:
        """Stable human-readable name, used in CSV output."""
        if self.kind == "cga-t":
            return f"cga-t(s={self.s})"
        if self.kind == "cga-rr":
            return f"cga-rr(m={self.m})"
        if self.kind == "ne-cga":
            return f"ne-cga(eta={self.eta if self.eta is not None else 'auto'})"
        return self.kind

    def run(
        self,
        length: int,
        population_size: int,
        evaluator: CachedEvaluator,
        rng: Rng,
        *,
        max_iterations: int = DEFAULT_ITERATION_CAP,
        trace: bool = False,
    ) -> RunStats:
        """Execute one run of this variant; ``trace=True`` records every update.

        The harness passes length, population size, evaluator and RNG
        positionally, and the benchmark tracer reads them in that order.
        """
        if population_size < 2:
            raise ValueError(f"population size must be at least 2, got {population_size}")
        pv = ProbabilityVector(length, population_size)
        hits0, misses0 = evaluator.cache.counters()
        updates = [] if trace else None
        loop_args = (evaluator, rng, max_iterations, updates,
                     f"{self.label} (l={length}, n={population_size})")
        if self.kind == "pe-cga":
            iterations = _elitist_loop(pv, None, *loop_args)
        elif self.kind == "ne-cga":
            eta = self.eta if self.eta is not None else default_inheritance_length(population_size)
            iterations = _elitist_loop(pv, eta, *loop_args)
        elif self.kind == "cga-t":
            iterations = _sampled_loop(pv, self.s, _tournament_pairs, *loop_args)
        else:
            k = self.m if self.kind == "cga-rr" else 2
            iterations = _sampled_loop(pv, k, _round_robin_pairs, *loop_args)
        solution = pv.decode()
        hits, misses = evaluator.cache.counters()
        return RunStats(
            evaluations=misses - misses0,
            hits=hits - hits0,
            misses=misses - misses0,
            iterations=iterations,
            solution=solution,
            solution_fitness=evaluator.fitness_fn(solution),
            final_pv=pv.numerators,
            updates=updates,
        )
