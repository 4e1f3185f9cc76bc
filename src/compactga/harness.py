"""Experiment runner: seeded replicate sweeps over population size and cache capacity.

Replicate r of every cell runs with seed base_seed + r. Cache operations do
not draw from the RNG, so cells that differ only in capacity or policy share
identical trajectories and their curves differ only through hit counts;
``sweep`` therefore runs each replicate live once, at its first capacity,
and replays that run's lookups at the others. The uncached evaluation count
of a cell is hits + misses from the same runs; no separate uncached arm is
executed.

Aggregation sums hits and misses across replicates and computes ratio
metrics from the sums, so the counter identities hold exactly on every
emitted row. The per-run mean of the speedup ratio is emitted alongside for
comparison.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
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


# RunStats fields that only the trajectory oracles read; a per-run row holds the others
_TRAJECTORY_FIELDS = ("final_pv", "updates")

# What a record costs (tracemalloc, Python 3.11, numpy 2.4, all five kinds
# on onemax l = 12 to 400 and binint l = 12 to 30, n = 10 and 100). A lookup
# keeps its chromosome's genes unpacked and packed, plus 216 to 275 bytes of
# objects and list slots; the most is onemax at l = 400. A record holds
# nothing per iteration: cga on onemax at l=400, n=100 takes 4.4 MB, where
# a vector state per iteration on top took 6.0 MB. A long genome outgrows
# the bound (cga at l=10000, n=60: about 13,300 lookups, 150 MB); such a
# run stops recording, frees what it held and runs live at every capacity,
# so a sweep's peak memory rises by at most the bound.
_LOOKUP_OVERHEAD = 280
_RECORD_BYTES = 8 * 2**20


class _Diverged(RuntimeError):
    """A replay looked up a fitness that its live run did not."""


def _where(config: ExperimentConfig, pop: int, capacity: int, r: int) -> str:
    return (f"{config.variant.label} on {config.problem}: bits={config.bits} "
            f"pop={pop} capacity={capacity} run={r} seed={config.base_seed + r}")


def _run(config: ExperimentConfig, fn, pop: int, capacity: int, r: int, rng: Rng, steps=None) -> RunStats:
    """Run replicate r at one capacity with a fresh cache.

    A run's IterationLimitError, ValueError or divergence is re-raised with the cell and seed in front.
    """
    evaluator = CachedEvaluator(fn, FitnessCache(capacity, config.policy))
    try:
        return config.variant.run(config.bits, pop, evaluator, rng, steps=steps)
    except IterationLimitError as exc:
        raise IterationLimitError(f"{_where(config, pop, capacity, r)}: {exc}", exc.iterations) from exc
    except ValueError as exc:
        raise ValueError(f"{_where(config, pop, capacity, r)}: {exc}") from exc
    except _Diverged as exc:
        raise _Diverged(f"{_where(config, pop, capacity, r)}: {exc}") from exc


class _Record:
    """What one live run looked up: lookup i asked for ``chromosomes[i]`` and got ``values[i]``.

    ``record`` is a ``Variant.run`` step source, and so is ``replay`` once
    given the live run's stats. Past ``_RECORD_BYTES``, ``dropped`` is set
    and the lists are emptied.
    """

    def __init__(self, variant: Variant, length: int, capacity: int):
        self.variant = variant
        self.capacity = capacity
        self.dropped = False
        self.chromosomes, self.values = [], []
        self._limit = _RECORD_BYTES // (length + length // 8 + _LOOKUP_OVERHEAD)

    def record(self, pv, rng, evaluator):
        """The variant's own steps, with each lookup recorded."""
        chromosomes, values, limit = self.chromosomes, self.values, self._limit

        def lookup(chromosome):
            value = evaluator(chromosome)
            if not self.dropped:
                if len(chromosomes) == limit:
                    self.dropped = True
                    del chromosomes[:], values[:]
                else:
                    chromosomes.append(chromosome)
                    values.append(value)
            return value

        return self.variant._steps(pv, rng, lookup)

    def replay(self, live: RunStats, pv, rng, evaluator):
        """The recorded lookups through `evaluator`, then one empty step per iteration of `live`.

        Draws nothing and yields no pairs. `pv` stays at its start until the
        last step loads ``live.final_pv`` into it. Raises _Diverged at the
        first fitness that differs from the record, and past the last
        iteration of `live`.
        """
        diverged = _Diverged(f"the run differs from the same replicate at capacity {self.capacity}, "
                             f"although a cache never changes a run; the fitness function must "
                             f"return one value per chromosome")
        for chromosome, value in zip(self.chromosomes, self.values):
            if evaluator(chromosome) != value:
                raise diverged
        for _ in range(live.iterations - 1):
            yield ()
        pv._restore(np.array(live.final_pv))
        yield ()
        raise diverged


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
    rows = [_row(config, pop, capacity, r, _run(config, fn, pop, capacity, r, Rng(config.base_seed + r)))
            for r in range(config.runs)]
    if per_run is not None:
        per_run.extend(rows)
    return _cell(config, pop, capacity, rows)


def sweep(config: ExperimentConfig, per_run: Optional[list[dict]] = None) -> list[CellResult]:
    """Run every cell of the sweep and return the cells in (pop, capacity) order.

    ``ExperimentConfig`` sorts and deduplicates both axes, so that is the
    order of its axes. Each (pop, replicate) runs live once, at the first
    capacity, and records its lookups, as (chromosome, fitness), when the
    sweep has another capacity. At every other capacity it runs again
    through the same ``Variant.run`` loop, with its own fresh cache: the
    first step looks every recorded chromosome up through that cache, so a
    miss still calls the fitness function, and the step of the live run's
    last iteration loads its final vector. Nothing is sampled, competed or
    updated twice (a replayed run records no ``updates``); the loop and its
    convergence tests still run, as many times as live, because the
    benchmark's traced check counts them (ROADMAP item 2).

    A replay that looks up a fitness other than the recorded one raises
    RuntimeError naming the cell and seed. A record past ``_RECORD_BYTES``
    is dropped, and that replicate runs live at every capacity.

    Replicates run one at a time, so one record is held at a time. Cells and
    per-run rows are still emitted in (pop, capacity, run) order, and since a
    failure does not depend on the capacity, the first error raised is the
    one that ``run_cell`` over the cells in that order raises.
    """
    fn = fitness_function(config.problem)
    first, *others = config.capacities
    cells = []
    for pop in config.n_values:
        rows = {capacity: [] for capacity in config.capacities}
        for r in range(config.runs):
            rng = Rng(config.base_seed + r)
            record = _Record(config.variant, config.bits, first) if others else None
            live = _run(config, fn, pop, first, r, rng, record.record if record else None)
            rows[first].append(_row(config, pop, first, r, live))
            for capacity in others:
                if record.dropped:
                    stats = _run(config, fn, pop, capacity, r, Rng(config.base_seed + r))
                else:  # the replay draws nothing, so it may share the live run's Rng
                    stats = _run(config, fn, pop, capacity, r, rng, partial(record.replay, live))
                rows[capacity].append(_row(config, pop, capacity, r, stats))
        for capacity in config.capacities:
            if per_run is not None:
                per_run.extend(rows[capacity])
            cells.append(_cell(config, pop, capacity, rows[capacity]))
    return cells


def write_csv(rows: list[dict], path: str) -> None:
    """Write a header of the first row's keys, then each row with floats as ``.6f``.

    A key that the first row lacks raises ValueError. The results CSV is
    ``[asdict(c) for c in sweep(config)]``; the per-run CSV is the rows that
    ``sweep(config, per_run)`` collects.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else [])
        writer.writeheader()
        for row in rows:
            writer.writerow({k: f"{v:.6f}" if isinstance(v, float) else v for k, v in row.items()})
