"""Shared fixtures: a session-wide memo of replicated benchmark cells.

The acceptance criteria and the hierarchy test reuse several expensive
50-run cells; running each once per session keeps the suite fast without
weakening any check.

CI runs pytest with ``--hypothesis-profile=ci``: every property test then
draws the same examples on every run, keeps no example database, and has no
deadline, since the hosts' speed drifts. Local runs keep the default profile.
"""

import pytest
from hypothesis import settings

from compactga import ExperimentConfig, Variant, sweep

settings.register_profile("ci", derandomize=True, database=None, deadline=None)


class CellRunner:
    def __init__(self):
        self._memo = {}
        self.max_iterations = 0

    def cell(self, variant: Variant, problem, bits, pop, capacity, policy, runs, base_seed=1):
        """Aggregate of one replicated cell, plus the largest per-run iteration count."""
        key = (variant, problem, bits, pop, capacity, str(policy), runs, base_seed)
        if key not in self._memo:
            self.sweep(variant, problem, bits, pop, (capacity,), policy, runs, base_seed)
        return self._memo[key]

    def sweep(self, variant: Variant, problem, bits, pop, capacities, policy, runs, base_seed=1):
        """Memoize the cells at every capacity from one ``sweep`` call, which
        samples each replicate once and replays it at the other capacities."""
        config = ExperimentConfig(
            variant=variant,
            problem=problem,
            bits=bits,
            n_values=(pop,),
            capacities=capacities,
            policy=policy,
            runs=runs,
            base_seed=base_seed,
        )
        per_run = []
        for cell in sweep(config, per_run):
            iteration_max = max(row["iterations"] for row in per_run if row["capacity"] == cell.capacity)
            self.max_iterations = max(self.max_iterations, iteration_max)
            key = (variant, problem, bits, pop, cell.capacity, str(policy), runs, base_seed)
            self._memo[key] = (cell, iteration_max)


@pytest.fixture(scope="session")
def cell_runner():
    return CellRunner()
