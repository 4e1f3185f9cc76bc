"""Experiment runner: seeded replicate sweeps over population size and cache capacity.

Replicate r of every cell runs with seed base_seed + r. Cache operations do
not draw from the RNG, so cells that differ only in capacity or policy share
identical trajectories and their curves differ only through hit counts. The
uncached evaluation count of a cell is hits + misses from the same runs; no
separate uncached arm is executed.

Aggregation sums hits and misses across replicates and computes ratio
metrics from the sums, so the counter identities hold exactly on every
emitted row. The per-run mean of the speedup ratio is emitted alongside for
comparison.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

from . import metrics
from .algorithms import IterationLimitError, Variant
from .cache import CachedEvaluator, CachePolicy, FitnessCache
from .chromosome import Rng, _integer
from .problems import fitness_function, problem_bit_limit

CSV_COLUMNS = [
    "algo",
    "problem",
    "bits",
    "pop",
    "policy",
    "capacity",
    "runs",
    "iterations_mean",
    "hits_sum",
    "misses_sum",
    "neval_nocache",
    "neval_cache",
    "speedup",
    "speedup_mean_of_runs",
    "hitratio_pct",
    "reduction_pct",
]

PER_RUN_COLUMNS = [
    "pop",
    "capacity",
    "run",
    "seed",
    "iterations",
    "hits",
    "misses",
    "evaluations",
    "solution",
    "solution_fitness",
]


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
        fitness_function(self.problem)  # validates the name
        self.policy = CachePolicy(self.policy)
        self.bits = _integer("bits", self.bits)
        self.runs = _integer("runs", self.runs)
        self.base_seed = _integer("base_seed", self.base_seed)
        self.n_values = tuple(sorted({_integer("n_values", n) for n in self.n_values}))
        self.capacities = tuple(sorted({_integer("capacities", c) for c in self.capacities}))
        if self.bits < 1:
            raise ValueError(f"bits must be positive, got {self.bits}")
        limit = problem_bit_limit(self.problem)
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

    Field names are the CSV column names; ``write_csv`` relies on it.
    """

    pop: int
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


@dataclass
class SweepResult:
    """All cell aggregates of one sweep, in (pop, capacity) order."""

    config: ExperimentConfig
    cells: list[CellResult] = field(default_factory=list)


def run_cell(
    config: ExperimentConfig,
    pop: int,
    capacity: int,
    per_run: Optional[list[dict]] = None,
) -> CellResult:
    """Run every replicate of one cell and aggregate the counters."""
    fn = fitness_function(config.problem)
    hits_sum = 0
    misses_sum = 0
    iterations_sum = 0
    speedups = []
    for r in range(config.runs):
        seed = config.base_seed + r
        evaluator = CachedEvaluator(fn, FitnessCache(capacity, config.policy))
        try:
            stats = config.variant.run(config.bits, pop, evaluator, Rng(seed))
        except IterationLimitError as exc:
            raise IterationLimitError(
                f"{config.variant.label} on {config.problem}: "
                f"pop={pop} capacity={capacity} run={r} seed={seed}: {exc}",
                exc.iterations,
            ) from exc
        hits_sum += stats.hits
        misses_sum += stats.misses
        iterations_sum += stats.iterations
        speedups.append(metrics.speedup(stats.hits + stats.misses, stats.misses))
        if per_run is not None:
            per_run.append(
                {
                    "pop": pop,
                    "capacity": capacity,
                    "run": r,
                    "seed": seed,
                    "iterations": stats.iterations,
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "evaluations": stats.evaluations,
                    "solution": str(stats.solution),
                    "solution_fitness": stats.solution_fitness,
                }
            )
    return CellResult(
        pop=pop,
        capacity=capacity,
        runs=config.runs,
        iterations_mean=iterations_sum / config.runs,
        hits_sum=hits_sum,
        misses_sum=misses_sum,
        neval_nocache=hits_sum + misses_sum,
        neval_cache=misses_sum,
        speedup=metrics.speedup(hits_sum + misses_sum, misses_sum),
        speedup_mean_of_runs=sum(speedups) / len(speedups),
        hitratio_pct=100.0 * metrics.hitratio(hits_sum, misses_sum),
        reduction_pct=metrics.reduction_pct(hits_sum, misses_sum),
    )


def sweep(config: ExperimentConfig, per_run: Optional[list[dict]] = None) -> SweepResult:
    """Run every (population, capacity) cell of the sweep."""
    result = SweepResult(config)
    for pop in config.n_values:
        for capacity in config.capacities:
            result.cells.append(run_cell(config, pop, capacity, per_run))
    return result


def _write_rows(path: str, columns: list[str], rows: Iterable[dict]) -> None:
    """Write a header of `columns`, then one line per row; a key outside `columns` raises."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def write_csv(result: SweepResult, path: str) -> None:
    """Write one header plus one row per cell, in (pop, capacity) order.

    A row is the config's labels plus the cell's fields, every float with six
    fractional digits.
    """
    config = result.config
    labels = {"algo": config.variant.label, "problem": config.problem,
              "bits": config.bits, "policy": config.policy.value}
    rows = (
        {key: f"{value:.6f}" if isinstance(value, float) else value
         for key, value in {**labels, **asdict(cell)}.items()}
        for cell in sorted(result.cells, key=lambda c: (c.pop, c.capacity))
    )
    _write_rows(path, CSV_COLUMNS, rows)


def write_per_run_csv(rows: list[dict], path: str) -> None:
    """Write the per-replicate rows collected by ``sweep(..., per_run=...)``.

    Columns follow ``PER_RUN_COLUMNS``; a row key outside it raises.
    """
    _write_rows(path, PER_RUN_COLUMNS, rows)
