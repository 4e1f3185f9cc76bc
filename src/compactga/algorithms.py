"""The compact-GA family, parameterized over a fitness evaluator.

The five variants come from two papers and run on one loop, in
``Variant.run``. The loop tests convergence, enforces the iteration cap and
applies the (winner, loser) updates that one step of a private generator
yields; the generator for each kind samples and evaluates one iteration's
chromosomes in sampling order, then yields that iteration's pairs in the
order they are applied:

- Harik, Lobo & Goldberg, "The compact genetic algorithm", IEEE Trans.
  Evol. Comput. 3(4), 1999: ``cga`` and its tournament (``cga-t``) and
  round-robin (``cga-rr``) forms. ``cga`` is ``cga-t(s=2)`` and
  ``cga-rr(m=2)``, and runs on the round-robin generator.
- Ahn & Ramakrishna, "Elitism-based compact genetic algorithms", IEEE
  Trans. Evol. Comput. 7(4), 2003: persistent (``pe-cga``) and nonpersistent
  (``ne-cga``) elitism. One elitist generator runs both; ``pe-cga`` is
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
from typing import Callable, Iterator, Optional

from .cache import CachedEvaluator
from .chromosome import Chromosome, Rng, _integer
from .pv import ProbabilityVector, compete

DEFAULT_ITERATION_CAP = 10_000_000

VARIANT_KINDS = ("cga", "cga-t", "cga-rr", "pe-cga", "ne-cga")

# the one selection-pressure parameter a kind takes, and its smallest value;
# cga and pe-cga take none
VARIANT_PARAMETERS = {"cga-t": ("s", 2), "cga-rr": ("m", 2), "ne-cga": ("eta", 1)}


class IterationLimitError(RuntimeError):
    """A run failed to converge within its iteration cap."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations

    def __reduce__(self):
        # the default rebuilds the error from self.args alone, which lacks iterations
        return type(self), (self.args[0], self.iterations)


@dataclass
class RunStats:
    """Outcome of one run.

    The fields before ``final_pv``, in order, are the stats columns of a
    per-replicate (``--trace``) CSV row. ``evaluations`` counts the
    fitness-function invocations made through the cache, which are exactly
    the cache ``misses``; ``hits + misses`` is the number of lookups, which
    does not depend on the cache. ``solution_fitness``
    is one more call, made directly on the decoded solution after the loop
    and counted nowhere, so a run calls the fitness function
    ``evaluations + 1`` times. ``final_pv`` (the vector's numerators) and
    ``updates`` are what the trajectory oracles compare; ``updates`` holds
    the (winner, loser) pair of every probability-vector update when the run
    was traced, and is None otherwise.
    """

    iterations: int
    hits: int
    misses: int
    evaluations: int
    solution: Chromosome
    solution_fitness: int | float
    final_pv: tuple[int, ...]
    updates: Optional[list[tuple[Chromosome, Chromosome]]] = None


def default_inheritance_length(population_size: int) -> int:
    """Elite survival limit used when none is configured: ceil(n / 10)."""
    return max(1, math.ceil(population_size / 10))


def _round_robin(sample, rng: Rng, m: int, evaluator: Callable[[Chromosome], object]):
    """Sample m chromosomes; every pair i < j competes, in order: m(m-1)/2 updates."""
    while True:
        candidates = [sample(rng) for _ in range(m)]
        fitnesses = [evaluator(c) for c in candidates]
        yield [
            compete(candidates[i], fitnesses[i], candidates[j], fitnesses[j])
            for i in range(m - 1)
            for j in range(i + 1, m)
        ]


def _tournament(sample, rng: Rng, s: int, evaluator: Callable[[Chromosome], object]):
    """Sample s chromosomes; the earliest-sampled maximum beats each of the others, in sampling order."""
    while True:
        candidates = [sample(rng) for _ in range(s)]
        fitnesses = [evaluator(c) for c in candidates]
        best = max(range(s), key=fitnesses.__getitem__)
        winner = candidates[best]
        yield [(winner, c) for j, c in enumerate(candidates) if j != best]


def _elitist(sample, rng: Rng, eta: Optional[int], evaluator: Callable[[Chromosome], object]):
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
    """
    elite = sample(rng)
    elite_fitness = evaluator(elite)
    survivals = -1
    while True:
        challenger = sample(rng)
        challenger_fitness = evaluator(challenger)
        winner, loser = compete(elite, elite_fitness, challenger, challenger_fitness)
        yield ((winner, loser),)
        if winner is elite and (eta is None or survivals < eta):
            survivals += 1
        else:
            elite, elite_fitness = challenger, challenger_fitness
            survivals = 0


@dataclass(frozen=True)
class Variant:
    """An algorithm choice with its one selection-pressure parameter.

    ``cga-t`` takes the tournament size ``s`` and ``cga-rr`` the round-robin
    size ``m``, each required and at least 2. ``ne-cga`` takes the
    inheritance length ``eta``, at least 1; ``eta=None`` means ``ceil(n/10)``
    for population size n. ``cga`` and ``pe-cga`` take none. These rules
    live in ``VARIANT_PARAMETERS``; a parameter the kind does not take
    raises ValueError.
    """

    kind: str
    s: Optional[int] = None
    m: Optional[int] = None
    eta: Optional[int] = None

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown algorithm {self.kind!r} (known: {', '.join(VARIANT_KINDS)})")
        name, smallest = VARIANT_PARAMETERS.get(self.kind, (None, None))
        for stray in ("s", "m", "eta"):
            if stray != name and getattr(self, stray) is not None:
                raise ValueError(f"{self.kind} does not take {stray!r}")
        value = getattr(self, name) if name else None
        if value is None and name in ("s", "m"):  # eta=None resolves per population
            raise ValueError(f"{self.kind} needs {name} >= {smallest}, got None")
        if value is not None and _integer(name, value) < smallest:
            raise ValueError(f"{self.kind} needs {name} >= {smallest}, got {value}")

    @property
    def label(self) -> str:
        """Stable human-readable name, used in CSV output."""
        if self.kind not in VARIANT_PARAMETERS:
            return self.kind
        name, _ = VARIANT_PARAMETERS[self.kind]
        value = getattr(self, name)
        return f"{self.kind}({name}={'auto' if value is None else value})"

    def run(
        self,
        length: int,
        population_size: int,
        evaluator: CachedEvaluator,
        rng: Rng,
        *,
        trace: bool = False,
        steps: Optional[Callable[[ProbabilityVector, Rng, Callable[[Chromosome], object]], Iterator]] = None,
    ) -> RunStats:
        """Execute one run of this variant; ``trace=True`` records every update.

        Each iteration first tests convergence, then the iteration cap
        (``DEFAULT_ITERATION_CAP``, read when the check runs), then applies
        every (winner, loser) pair that the next step of
        ``steps(pv, rng, evaluator.__call__)`` yields. A run that reaches
        the cap raises IterationLimitError.

        ``steps`` defaults to the kind's generator, which samples from the
        run's vector ``pv`` with ``rng`` and evaluates through ``evaluator``.
        ``harness.sweep`` passes one that records what a live run looks up,
        and one that replays such a record at another capacity: it looks
        the recorded chromosomes up through ``evaluator``, yields no pairs
        for as many iterations as the live run made, and loads the live
        run's final vector into ``pv`` at the last. It samples, competes and
        updates nothing, so a replayed run records no ``updates``. The loop
        and the convergence tests are the same either way.

        The harness passes length, population size, evaluator and RNG
        positionally, and the benchmark tracer reads them in that order.
        """
        if population_size < 2:
            raise ValueError(f"population size must be at least 2, got {population_size}")
        pv = ProbabilityVector(length, population_size)
        cache = evaluator.cache
        hits0, misses0 = cache.hits, cache.misses
        updates = [] if trace else None
        # calling the instance would go through its type's __call__ slot, about 80 ns more per lookup
        source = (self._steps if steps is None else steps)(pv, rng, evaluator.__call__)
        iterations = 0
        while not pv.is_converged():
            if iterations >= DEFAULT_ITERATION_CAP:
                raise IterationLimitError(f"not converged after {iterations} iterations", iterations)
            iterations += 1
            for winner, loser in next(source):
                pv.update(winner, loser)
                if updates is not None:
                    updates.append((winner, loser))
        solution = pv.decode()
        misses = cache.misses - misses0
        return RunStats(
            iterations=iterations,
            hits=cache.hits - hits0,
            misses=misses,
            evaluations=misses,
            solution=solution,
            solution_fitness=evaluator.fitness_fn(solution),
            final_pv=pv.numerators,
            updates=updates,
        )

    def _steps(self, pv: ProbabilityVector, rng: Rng, evaluator: Callable[[Chromosome], object]):
        """The kind's step generator for one run on `pv`, sampling with ``pv.sample(rng)``."""
        if self.kind in ("pe-cga", "ne-cga"):
            eta = None if self.kind == "pe-cga" else self.eta or default_inheritance_length(pv.population_size)
            return _elitist(pv.sample, rng, eta, evaluator)
        if self.kind == "cga-t":
            return _tournament(pv.sample, rng, self.s, evaluator)
        return _round_robin(pv.sample, rng, self.m or 2, evaluator)
