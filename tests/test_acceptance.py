"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The replicated benchmark cells are memoized in the session-scoped
``cell_runner`` fixture, so criteria sharing a cell pay for it once.
"""

import random
import time
from fractions import Fraction

import numpy as np

from compactga import (
    DEFAULT_ITERATION_CAP,
    CachedEvaluator,
    CachePolicy,
    FitnessCache,
    Rng,
    Variant,
    fitness_function,
    hitratio,
    reduction_pct,
    speedup,
)
from naive_cache import NaiveCache, key_universe
from states import residents

RUNS = 50
SWEEP_RUNS = 20
POP = 100
BITS = {"onemax": 100, "binint": 30}

VARIANTS = [
    Variant("cga"),
    Variant("cga-t", s=4),
    Variant("cga-rr", m=4),
    Variant("pe-cga"),
    Variant("ne-cga"),
]

# (variant, problem, capacity, policy, target, tolerance), 50 runs each
SPEEDUP_TARGETS = [
    (Variant("cga"), "onemax", 1, "fifo", 1.161735, 0.05),
    (Variant("pe-cga"), "onemax", 20, "fifo", 1.840972, 0.20),
    (Variant("cga"), "binint", 20, "fifo", 1.407687, 0.10),
    (Variant("pe-cga"), "binint", 20, "lru", 2.291566, 0.25),
]
NE_TARGET = ("onemax", 1, "fifo", 1.330928, 0.05)
NE_ETAS = (5, 10, 20)

SWEEP_CAPACITIES = tuple(range(21))
HIERARCHY_PAIRS = [("pe-cga", "cga")]


def _report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {status} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _target_cells(cell_runner):
    cells = {}
    for variant, problem, capacity, policy, target, tol in SPEEDUP_TARGETS:
        cell, _ = cell_runner.cell(variant, problem, BITS[problem], POP, capacity, policy, RUNS)
        cells[(variant.label, problem, capacity, policy)] = (cell, target, tol)
    return cells


def _criterion_4_to_6_specs():
    """Every replicated cell the stochastic criteria rely on."""
    specs = [
        (variant, problem, BITS[problem], POP, capacity, policy, RUNS)
        for variant, problem, capacity, policy, _, _ in SPEEDUP_TARGETS
    ]
    problem, capacity, policy, _, _ = NE_TARGET
    specs += [
        (Variant("ne-cga", eta=eta), problem, BITS[problem], POP, capacity, policy, RUNS)
        for eta in NE_ETAS
    ]
    specs += [
        (Variant("cga"), problem, BITS[problem], POP, capacity, "fifo", SWEEP_RUNS)
        for problem in ("onemax", "binint")
        for capacity in SWEEP_CAPACITIES
    ]
    specs += [
        (Variant(kind), problem, BITS[problem], POP, 20, "fifo", RUNS)
        for pair in HIERARCHY_PAIRS
        for kind in pair
        for problem in ("onemax", "binint")
    ]
    return specs


def test_criterion_1_cache_transparency():
    started = time.perf_counter()
    checked = 0
    sizes = {"onemax": (32, 16), "binint": (20, 16)}
    for variant in VARIANTS:
        for problem, (length, n) in sizes.items():
            fn = fitness_function(problem)
            for seed in range(1000, 1020):
                plain = variant.run(length, n, CachedEvaluator(fn, FitnessCache(0)), Rng(seed), trace=True)
                for policy in (CachePolicy.FIFO, CachePolicy.LRU):
                    ev = CachedEvaluator(fn, FitnessCache(20, policy))
                    cached = variant.run(length, n, ev, Rng(seed), trace=True)
                    assert cached.updates == plain.updates
                    assert cached.final_pv == plain.final_pv
                    assert cached.iterations == plain.iterations
                    assert cached.solution == plain.solution
                    assert cached.hits + cached.misses == plain.hits + plain.misses
                    assert cached.evaluations <= plain.evaluations
                    checked += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        checked == len(VARIANTS) * 2 * 20 * 2,
        f"cached runs identical to uncached for {checked} variant/problem/seed/policy "
        f"combinations ({elapsed:.1f}s)",
    )


def test_criterion_2_metric_identities():
    started = time.perf_counter()
    rnd = random.Random(123)
    for _ in range(10_000):
        h = rnd.randint(0, 10**6)
        m = rnd.randint(1, 10**6)
        assert Fraction(100 * h, h + m) == 100 * Fraction(h, h + m)
        assert reduction_pct(h, m) == 100.0 * hitratio(h, m)
        hr = hitratio(h, m)
        sp = speedup(h + m, m)
        assert abs(hr - (1 - 1 / sp)) < 1e-12
        if hr <= 1 - 1e-6:
            assert abs(sp - 1 / (1 - hr)) < 1e-9 * sp
        assert sp >= 1.0
    produced = 0
    for variant in VARIANTS:
        for capacity in (0, 5):
            ev = CachedEvaluator(fitness_function("onemax"), FitnessCache(capacity, "lru"))
            stats = variant.run(16, 8, ev, Rng(99))
            assert speedup(stats.hits + stats.misses, stats.misses) >= 1.0
            produced += 1
    elapsed = time.perf_counter() - started
    _report(
        2,
        True,
        f"counter identities exact/within tolerance on 10000 pairs and speedup >= 1 on "
        f"{produced} run stats ({elapsed:.1f}s)",
    )


def test_criterion_3_cache_oracle():
    started = time.perf_counter()
    rnd = random.Random(777)
    keys = key_universe(64)
    total_ops = 0
    for workload in range(1000):
        capacity = rnd.randint(0, 8)
        policy = rnd.choice([CachePolicy.FIFO, CachePolicy.LRU])
        universe = rnd.randint(1, 64)
        ops = 10_000 if workload % 100 == 0 else rnd.randint(50, 300)
        fn = lambda c: c.to_int() % 7
        cache = FitnessCache(capacity, policy)
        ev = CachedEvaluator(fn, cache)
        naive = NaiveCache(capacity, lru=policy is CachePolicy.LRU)
        for op in range(ops):
            key = keys[rnd.randrange(universe)]
            hits_before = cache.hits
            value = ev(key)
            real_hit = cache.hits > hits_before
            naive_value = naive.lookup(key)
            naive_hit = naive_value is not None
            if not naive_hit:
                naive_value = fn(key)
                naive.store(key, naive_value)
            assert real_hit == naive_hit
            assert value == naive_value
            if op % 50 == 0:
                assert residents(cache) <= cache.capacity
        assert cache.dump() == naive.dump()
        assert (cache.hits, cache.misses) == (naive.hits, naive.misses)
        assert residents(cache) <= cache.capacity
        total_ops += ops
    elapsed = time.perf_counter() - started
    _report(
        3,
        True,
        f"hit/miss traces and final contents matched the naive model over 1000 "
        f"workloads, {total_ops} lookups ({elapsed:.1f}s)",
    )


def test_criterion_4_benchmark_speedups(cell_runner):
    started = time.perf_counter()
    failures = []
    details = []
    for (label, problem, capacity, policy), (cell, target, tol) in _target_cells(cell_runner).items():
        hit = abs(cell.speedup - target) <= tol or abs(cell.speedup_mean_of_runs - target) <= tol
        details.append(f"{label}/{problem}/{policy}-{capacity}: {cell.speedup:.4f} "
                       f"(target {target} +-{tol})")
        if not hit:
            failures.append(details[-1])
    problem, capacity, policy, target, tol = NE_TARGET
    ne_speedups = {}
    for eta in NE_ETAS:
        cell, _ = cell_runner.cell(
            Variant("ne-cga", eta=eta), problem, BITS[problem], POP, capacity, policy, RUNS
        )
        ne_speedups[eta] = cell
    ne_hit = any(
        abs(c.speedup - target) <= tol or abs(c.speedup_mean_of_runs - target) <= tol
        for c in ne_speedups.values()
    )
    details.append(
        "ne-cga/onemax/fifo-1: "
        + " ".join(f"eta={e}:{c.speedup:.4f}" for e, c in ne_speedups.items())
        + f" (target {target} +-{tol}, any eta)"
    )
    if not ne_hit:
        failures.append(details[-1])
    elapsed = time.perf_counter() - started
    _report(4, not failures, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_5_capacity_trends(cell_runner):
    started = time.perf_counter()
    details = []
    ok = True
    for problem in ("onemax", "binint"):
        cell_runner.sweep(Variant("cga"), problem, BITS[problem], POP, SWEEP_CAPACITIES, "fifo", SWEEP_RUNS)
        speedups = []
        for capacity in SWEEP_CAPACITIES:
            cell, _ = cell_runner.cell(
                Variant("cga"), problem, BITS[problem], POP, capacity, "fifo", SWEEP_RUNS
            )
            speedups.append(cell.speedup)
            if capacity == 0:
                ok = ok and cell.speedup == 1.0 and cell.speedup_mean_of_runs == 1.0
        gap = speedups[20] - speedups[1]
        slope = float(np.polyfit(SWEEP_CAPACITIES, speedups, 1)[0])
        ok = ok and gap >= 0.05 and slope > 0
        details.append(
            f"{problem}: cap0={speedups[0]:.4f} cap1={speedups[1]:.4f} "
            f"cap20={speedups[20]:.4f} gap={gap:.4f} slope={slope:.5f}"
        )
    elapsed = time.perf_counter() - started
    _report(5, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_6_elitism_reduction_gap(cell_runner):
    started = time.perf_counter()
    details = []
    ok = True
    for problem in ("onemax", "binint"):
        values = {}
        for kind in HIERARCHY_PAIRS[0]:
            cell, _ = cell_runner.cell(
                Variant(kind), problem, BITS[problem], POP, 20, "fifo", RUNS
            )
            values[kind] = cell.reduction_pct
        gap = values["pe-cga"] - values["cga"]
        ok = ok and gap >= 5.0
        details.append(
            f"{problem}: pe-cga {values['pe-cga']:.2f}% vs cga {values['cga']:.2f}% "
            f"(gap {gap:.2f} points)"
        )
    elapsed = time.perf_counter() - started
    _report(6, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_7_termination(cell_runner):
    started = time.perf_counter()
    worst = 0
    for variant, problem, bits, pop, capacity, policy, runs in _criterion_4_to_6_specs():
        _, iteration_max = cell_runner.cell(variant, problem, bits, pop, capacity, policy, runs)
        worst = max(worst, iteration_max)
    elapsed = time.perf_counter() - started
    _report(
        7,
        0 < worst < DEFAULT_ITERATION_CAP,
        f"every replicated configuration converged; worst run took {worst} iterations "
        f"(cap {DEFAULT_ITERATION_CAP}) ({elapsed:.1f}s)",
    )
