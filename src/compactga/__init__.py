"""Compact genetic algorithms with a capacity-bounded fitness cache.

``Variant.run`` takes any cached evaluator, so one code path serves cached
and uncached execution; a zero-capacity cache is the uncached case.
"""

from .algorithms import (
    DEFAULT_ITERATION_CAP,
    IterationLimitError,
    RunStats,
    Variant,
    default_inheritance_length,
)
from .cache import CachedEvaluator, CachePolicy, FitnessCache
from .chromosome import Chromosome, Rng
from .harness import (
    CellResult,
    ExperimentConfig,
    run_cell,
    sweep,
    write_csv,
)
from .metrics import hitratio, reduction_pct, speedup
from .problems import FITNESS_FUNCTIONS, binary_integer, fitness_function, onemax
from .pv import ProbabilityVector, compete

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ITERATION_CAP",
    "IterationLimitError",
    "RunStats",
    "Variant",
    "default_inheritance_length",
    "CachedEvaluator",
    "CachePolicy",
    "FitnessCache",
    "Chromosome",
    "Rng",
    "CellResult",
    "ExperimentConfig",
    "run_cell",
    "sweep",
    "write_csv",
    "hitratio",
    "reduction_pct",
    "speedup",
    "FITNESS_FUNCTIONS",
    "binary_integer",
    "fitness_function",
    "onemax",
    "ProbabilityVector",
    "compete",
    "__version__",
]
