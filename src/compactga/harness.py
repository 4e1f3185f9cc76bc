"""Experiment runner: seeded replicate sweeps over population size and cache capacity.

Replicate r of every cell runs with seed base_seed + r. Cache operations do
not draw from the RNG, so cells that differ only in capacity or policy share
identical trajectories and their curves differ only through hit counts;
``sweep`` therefore runs each replicate live once, at its first capacity,
through an evaluator that looks each chromosome up in each other capacity's
cache, a follower, too; each other capacity gets the live record with its
follower's hits and misses, and a replay, the one run given ``steps``.
The uncached evaluation count of a cell is hits + misses from the same runs;
no separate uncached arm is executed.

Aggregation sums hits and misses across replicates and computes ratio
metrics from the sums, so the counter identities hold exactly on every
emitted row. The per-run mean of the speedup ratio is emitted alongside for
comparison.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from . import metrics
from .algorithms import IterationLimitError, RunStats, Variant
from .cache import CachedEvaluator, CachePolicy, FitnessCache
from .chromosome import Rng, _integer
from .problems import MAX_BITS, fitness_function

@dataclass
class ExperimentConfig:
    """One sweep: a variant/problem pair crossed over populations and capacities."""

    variant: Variant
    problem: str
    bits: int
    n_values: tuple[int, ...]
    capacities: tuple[int, ...]
    policy: CachePolicy
    runs: int
    base_seed: int

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise TypeError(f"variant: expected a Variant, got {self.variant!r}")
        fitness_function(self.problem)  # validates the name
        self.policy = CachePolicy(self.policy)
        self.bits = _integer("bits", self.bits)
        self.runs = _integer("runs", self.runs)
        self.base_seed = _integer("base_seed", self.base_seed)
        self.n_values = tuple(sorted({_integer("n_values", n) for n in self.n_values}))
        self.capacities = tuple(sorted({_integer("capacities", c) for c in self.capacities}))
        if self.bits < 1:
            raise ValueError(f"bits must be positive, got {self.bits}")
        limit = MAX_BITS.get(self.problem)
        if limit is not None and self.bits > limit:
            raise ValueError(f"problem {self.problem!r} supports at most {limit} bits, got {self.bits}")
        if not self.n_values:
            raise ValueError("at least one population size is required")
        if any(n < 2 for n in self.n_values):
            raise ValueError(f"population sizes must be at least 2, got {self.n_values}")
        if not self.capacities:
            raise ValueError("at least one cache capacity is required")
        if any(c < 0 for c in self.capacities):
            raise ValueError(f"capacities must be non-negative, got {self.capacities}")
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if not 0 <= self.base_seed <= self.base_seed + self.runs - 1 < 2**64:
            raise ValueError(
                f"replicate seeds must stay within 64 unsigned bits, "
                f"got base {self.base_seed} with {self.runs} runs"
            )


@dataclass
class CellResult:
    """Aggregate of all replicates at one (population, capacity) point.

    It is one results-CSV row: its fields, in order, are the CSV columns.
    """

    algo: str
    problem: str
    bits: int
    pop: int
    policy: str
    capacity: int
    runs: int
    iterations_mean: float
    hits_sum: int
    misses_sum: int
    neval_nocache: int
    neval_cache: int
    speedup: float
    speedup_mean_of_runs: float
    hitratio_pct: float
    reduction_pct: float


# the RunStats columns of a per-run (--trace) CSV row, after pop, capacity, run and seed
_TRACE_COLUMNS = ("iterations", "hits", "misses", "evaluations", "solution", "solution_fitness")


class _Diverged(RuntimeError):
    """A capacity's cache got a fitness that the live run's cache did not."""


def _where(config: ExperimentConfig, pop: int, capacity: int, r: int) -> str:
    return (f"{config.variant.label} on {config.problem}: bits={config.bits} "
            f"pop={pop} capacity={capacity} run={r} seed={config.base_seed + r}")


def _run(config: ExperimentConfig, evaluator: CachedEvaluator, pop: int, r: int, rng: Rng) -> RunStats:
    """Run replicate r through `evaluator`.

    A run's IterationLimitError or ValueError is re-raised with the cell and seed in front.
    """
    capacity = evaluator.cache.capacity
    try:
        return config.variant.run(config.bits, pop, evaluator, rng)
    except IterationLimitError as exc:
        raise IterationLimitError(f"{_where(config, pop, capacity, r)}: {exc}", exc.iterations) from exc
    except ValueError as exc:
        raise ValueError(f"{_where(config, pop, capacity, r)}: {exc}") from exc


class _Followed(CachedEvaluator):
    """A live run's evaluator in ``sweep``: each lookup goes through its own cache, then through every follower.

    A follower that gets a fitness other than the live cache's, NaN included, raises _Diverged naming its cell and seed.
    """

    def __init__(self, fitness_fn, cache, followers: list[CachedEvaluator], config: ExperimentConfig, pop, r):
        super().__init__(fitness_fn, cache)
        # each follower's lookup, bound once as Variant.run binds its evaluator's, and the error it raises
        self._calls = [(follower.__call__, f"{_where(config, pop, follower.cache.capacity, r)}: the run differs "
                        f"from the same replicate at capacity {config.capacities[0]}, although a cache never "
                        f"changes a run; the fitness function must return one value per chromosome")
                       for follower in followers]

    def __call__(self, chromosome):
        value = CachedEvaluator.__call__(self, chromosome)  # on the class, so a traced pass sees one lookup span
        for call, message in self._calls:
            try:
                if call(chromosome) != value:
                    raise _Diverged(message)
            except ValueError as exc:  # NaN here, where the live cache got a number
                raise _Diverged(message) from exc
        return value


def _replay(live: RunStats, pv, rng, lookup):
    """One empty step per iteration of `live`, loading ``live.final_pv`` into `pv` before the last.

    Draws, looks up and yields nothing; the loaded vector is converged, so the loop asks for no more.
    ``sweep`` discards the replay's record: it runs only for the benchmark tracer's counts.
    """
    for _ in range(live.iterations - 1):
        yield ()
    pv._restore(np.array(live.final_pv))
    yield ()


def _row(config: ExperimentConfig, pop: int, capacity: int, r: int, stats: RunStats) -> dict:
    """The per-run (``--trace``) CSV row of one run."""
    return {"pop": pop, "capacity": capacity, "run": r, "seed": config.base_seed + r,
            **{name: getattr(stats, name) for name in _TRACE_COLUMNS}}


def _cell(config: ExperimentConfig, pop: int, capacity: int, runs: list[RunStats]) -> CellResult:
    """Aggregate the records of one cell's runs, in run order."""
    hits = sum(stats.hits for stats in runs)
    misses = sum(stats.misses for stats in runs)
    return CellResult(
        algo=config.variant.label,
        problem=config.problem,
        bits=config.bits,
        pop=pop,
        policy=config.policy.value,
        capacity=capacity,
        runs=config.runs,
        iterations_mean=sum(stats.iterations for stats in runs) / config.runs,
        hits_sum=hits,
        misses_sum=misses,
        neval_nocache=hits + misses,
        neval_cache=misses,
        speedup=metrics.speedup(hits + misses, misses),
        speedup_mean_of_runs=sum(metrics.speedup(stats.hits + stats.misses, stats.misses)
                                 for stats in runs) / config.runs,
        hitratio_pct=100.0 * metrics.hitratio(hits, misses),
        reduction_pct=metrics.reduction_pct(hits, misses),
    )


def run_cell(
    config: ExperimentConfig,
    pop: int,
    capacity: int,
    per_run: Optional[list[dict]] = None,
) -> CellResult:
    """Run every replicate of one cell live and aggregate the counters.

    A replicate's IterationLimitError or ValueError is re-raised with the cell and seed in front.
    """
    fn = fitness_function(config.problem)
    runs = [_run(config, CachedEvaluator(fn, FitnessCache(capacity, config.policy)), pop, r,
                 Rng(config.base_seed + r)) for r in range(config.runs)]
    if per_run is not None:
        per_run.extend(_row(config, pop, capacity, r, stats) for r, stats in enumerate(runs))
    return _cell(config, pop, capacity, runs)


def sweep(config: ExperimentConfig, per_run: Optional[list[dict]] = None) -> list[CellResult]:
    """Run every cell of the sweep and return the cells in (pop, capacity) order.

    ``ExperimentConfig`` sorts and deduplicates both axes, so that is the
    order of its axes. Each (pop, replicate) runs live once, at the first
    capacity. When the sweep has other capacities, each gets a fresh cache
    of its own, a follower, before the live run starts, and the live run's
    evaluator looks every chromosome up through its own cache and then
    through each follower, so a follower's miss still calls the fitness
    function, and its hits and misses are those of a live run at its
    capacity. Each other capacity's record is the live run's record with
    the follower's hits and misses, so its iterations, solution and final
    vector are the live run's. Each other capacity also replays the live
    run through the same ``Variant.run`` loop, the one call that passes it
    ``steps``: steps that sample, look up, compete and update nothing. The
    replay's record is discarded: it runs only because the benchmark's
    traced check counts its runs and convergence tests (ROADMAP items 1
    and 2).

    A follower that gets a fitness other than the live run's, NaN included,
    raises RuntimeError naming its cell and seed. Caches are the only state
    held per capacity, and they share the live run's packed bytes.

    Cells and per-run rows are emitted in (pop, capacity, run) order. The
    live cache looks each chromosome up before the followers, so with a
    deterministic fitness function the first error raised is the one that
    ``run_cell`` over the cells in that order raises.
    """
    fn = fitness_function(config.problem)
    cells = []
    for pop in config.n_values:
        runs = {capacity: [] for capacity in config.capacities}
        for r in range(config.runs):
            rng = Rng(config.base_seed + r)
            first, *others = [FitnessCache(capacity, config.policy) for capacity in config.capacities]
            followers = [CachedEvaluator(fn, cache) for cache in others]
            evaluator = _Followed(fn, first, followers, config, pop, r) if others else CachedEvaluator(fn, first)
            live = _run(config, evaluator, pop, r, rng)
            runs[first.capacity].append(live)
            for follower in followers:
                # kept only for the tracer's counts (ROADMAP items 1, 2); it draws nothing, so it may share the Rng
                config.variant.run(config.bits, pop, follower, rng, steps=partial(_replay, live))
                cache = follower.cache  # its lookups were made during the live run
                runs[cache.capacity].append(replace(live, hits=cache.hits, misses=cache.misses))
        for capacity in config.capacities:
            if per_run is not None:
                per_run.extend(_row(config, pop, capacity, r, stats) for r, stats in enumerate(runs[capacity]))
            cells.append(_cell(config, pop, capacity, runs[capacity]))
    return cells


def write_csv(rows: list[dict], path: str) -> None:
    """Write a header of the first row's keys, then each row with floats as ``.6f``.

    No rows, a row without a key of the first row, or one with a key it
    lacks raises ValueError before `path` is opened, so an existing file is
    left as it was. The results CSV is ``[asdict(c) for c in sweep(config)]``;
    the per-run CSV is the rows that ``sweep(config, per_run)`` collects.
    """
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0])
    for i, row in enumerate(rows):
        if row.keys() != rows[0].keys():
            missing = [k for k in fields if k not in row]
            if missing:
                raise ValueError(f"row {i} lacks key {missing[0]!r} of the first row")
            extra = next(k for k in row if k not in rows[0])
            raise ValueError(f"row {i} has key {extra!r} that the first row lacks")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: f"{v:.6f}" if isinstance(v, float) else v for k, v in row.items()})
