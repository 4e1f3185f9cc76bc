"""Experiment runner: seeded replicate sweeps over population size and cache capacity.

Replicate r of every cell runs with seed base_seed + r. Cache operations do
not draw from the RNG, so cells that differ only in capacity or policy share
identical trajectories and their curves differ only through hit counts;
``sweep`` therefore runs each replicate live once, at its first capacity,
with every other capacity's cache looking up what that run looks up, and
replays only its iterations and final vector at the others. The uncached
evaluation count of a cell is hits + misses from the same runs; no
separate uncached arm is executed.

Aggregation sums hits and misses across replicates and computes ratio
metrics from the sums, so the counter identities hold exactly on every
emitted row. The per-run mean of the speedup ratio is emitted alongside for
comparison.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace
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


# RunStats fields that a per-run row leaves out: the trajectory oracles read
# both, and a replay loads the live run's final_pv
_TRAJECTORY_FIELDS = ("final_pv", "updates")


class _Diverged(RuntimeError):
    """A capacity's cache got a fitness that the live run's cache did not."""


def _where(config: ExperimentConfig, pop: int, capacity: int, r: int) -> str:
    return (f"{config.variant.label} on {config.problem}: bits={config.bits} "
            f"pop={pop} capacity={capacity} run={r} seed={config.base_seed + r}")


def _run(config: ExperimentConfig, evaluator: CachedEvaluator, pop: int, r: int, rng: Rng, steps=None) -> RunStats:
    """Run replicate r through `evaluator`.

    A run's IterationLimitError or ValueError is re-raised with the cell and seed in front.
    """
    capacity = evaluator.cache.capacity
    try:
        return config.variant.run(config.bits, pop, evaluator, rng, steps=steps)
    except IterationLimitError as exc:
        raise IterationLimitError(f"{_where(config, pop, capacity, r)}: {exc}", exc.iterations) from exc
    except ValueError as exc:
        raise ValueError(f"{_where(config, pop, capacity, r)}: {exc}") from exc


def _followed(config: ExperimentConfig, pop: int, r: int, followers: list[CachedEvaluator], pv, rng, lookup):
    """The variant's own steps, each lookup made through `lookup` and then through every follower.

    Raises _Diverged, naming the follower's cell and seed, at the first
    fitness that a follower gets and `lookup` did not, NaN included.
    """
    # bound once, as Variant.run binds its evaluator's: calling an instance costs more per lookup
    calls = [(follower.__call__, follower.cache.capacity) for follower in followers]

    def lookup_all(chromosome):
        value = lookup(chromosome)
        for call, capacity in calls:
            try:
                if call(chromosome) == value:
                    continue
                cause = None
            except ValueError as exc:  # NaN here, where `lookup` got a number
                cause = exc
            raise _Diverged(f"{_where(config, pop, capacity, r)}: the run differs from the same replicate at "
                            f"capacity {config.capacities[0]}, although a cache never changes a run; "
                            f"the fitness function must return one value per chromosome") from cause
        return value

    return config.variant._steps(pv, rng, lookup_all)


def _replay(live: RunStats, pv, rng, lookup):
    """One empty step per iteration of `live`, loading ``live.final_pv`` into `pv` before the last.

    Draws, looks up and yields nothing; the loaded vector is converged, so the loop asks for no more.
    """
    for _ in range(live.iterations - 1):
        yield ()
    pv._restore(np.array(live.final_pv))
    yield ()


def _row(config: ExperimentConfig, pop: int, capacity: int, r: int, stats: RunStats) -> dict:
    """The per-run CSV row of one run."""
    return {"pop": pop, "capacity": capacity, "run": r, "seed": config.base_seed + r,
            **{f.name: getattr(stats, f.name) for f in fields(RunStats)
               if f.name not in _TRAJECTORY_FIELDS}}


def _cell(config: ExperimentConfig, pop: int, capacity: int, rows: list[dict]) -> CellResult:
    """Aggregate the per-run rows of one cell, in run order."""
    hits = sum(row["hits"] for row in rows)
    misses = sum(row["misses"] for row in rows)
    return CellResult(
        algo=config.variant.label,
        problem=config.problem,
        bits=config.bits,
        pop=pop,
        policy=config.policy.value,
        capacity=capacity,
        runs=config.runs,
        iterations_mean=sum(row["iterations"] for row in rows) / config.runs,
        hits_sum=hits,
        misses_sum=misses,
        neval_nocache=hits + misses,
        neval_cache=misses,
        speedup=metrics.speedup(hits + misses, misses),
        speedup_mean_of_runs=sum(metrics.speedup(row["hits"] + row["misses"], row["misses"])
                                 for row in rows) / config.runs,
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
    rows = [_row(config, pop, capacity, r, _run(config, CachedEvaluator(fn, FitnessCache(capacity, config.policy)),
                                                pop, r, Rng(config.base_seed + r)))
            for r in range(config.runs)]
    if per_run is not None:
        per_run.extend(rows)
    return _cell(config, pop, capacity, rows)


def sweep(config: ExperimentConfig, per_run: Optional[list[dict]] = None) -> list[CellResult]:
    """Run every cell of the sweep and return the cells in (pop, capacity) order.

    ``ExperimentConfig`` sorts and deduplicates both axes, so that is the
    order of its axes. Each (pop, replicate) runs live once, at the first
    capacity. When the sweep has other capacities, each gets a fresh cache
    of its own, a follower, before the live run starts: every chromosome
    the live run looks up, it looks up through its own cache and then
    through each follower, so a follower's miss still calls the fitness
    function, and its hits, misses and evaluations are those of a live run
    at its capacity. Then each other capacity runs the same ``Variant.run``
    loop through its follower with steps that sample, look up, compete and
    update nothing (a replayed run records no ``updates``); the step of the
    live run's last iteration loads its final vector, which gives the row
    its iterations and solution. The loop and its convergence tests run as
    many times as live, because the benchmark's traced check counts them
    (ROADMAP item 1).

    A follower that gets a fitness other than the live run's, NaN included,
    raises RuntimeError naming its cell and seed. Caches are the only state
    held per capacity, and they share the live run's chromosomes.

    Cells and per-run rows are emitted in (pop, capacity, run) order. The
    live cache looks each chromosome up before the followers, so with a
    deterministic fitness function the first error raised is the one that
    ``run_cell`` over the cells in that order raises.
    """
    fn = fitness_function(config.problem)
    cells = []
    for pop in config.n_values:
        rows = {capacity: [] for capacity in config.capacities}
        for r in range(config.runs):
            rng = Rng(config.base_seed + r)
            evaluator, *followers = [CachedEvaluator(fn, FitnessCache(capacity, config.policy))
                                     for capacity in config.capacities]
            live = _run(config, evaluator, pop, r, rng,
                        partial(_followed, config, pop, r, followers) if followers else None)
            rows[evaluator.cache.capacity].append(_row(config, pop, evaluator.cache.capacity, r, live))
            for follower in followers:
                # the replay draws nothing, so it may share the live run's Rng
                stats = _run(config, follower, pop, r, rng, partial(_replay, live))
                cache = follower.cache  # its lookups were made during the live run
                stats = replace(stats, hits=cache.hits, misses=cache.misses, evaluations=cache.misses)
                rows[cache.capacity].append(_row(config, pop, cache.capacity, r, stats))
        for capacity in config.capacities:
            if per_run is not None:
                per_run.extend(rows[capacity])
            cells.append(_cell(config, pop, capacity, rows[capacity]))
    return cells


def write_csv(rows: list[dict], path: str) -> None:
    """Write a header of the first row's keys, then each row with floats as ``.6f``.

    A row without a key of the first row, or with a key it lacks, raises
    ValueError. The results CSV is ``[asdict(c) for c in sweep(config)]``;
    the per-run CSV is the rows that ``sweep(config, per_run)`` collects.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else [])
        writer.writeheader()
        for i, row in enumerate(rows):
            missing = [k for k in writer.fieldnames if k not in row]
            if missing:
                raise ValueError(f"row {i} lacks key {missing[0]!r} of the first row")
            writer.writerow({k: f"{v:.6f}" if isinstance(v, float) else v for k, v in row.items()})
