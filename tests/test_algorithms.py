import pickle
from fractions import Fraction

import pytest

import reference_algos as ref
from compactga import algorithms
from compactga import (
    CachedEvaluator,
    CachePolicy,
    FitnessCache,
    IterationLimitError,
    Rng,
    Variant,
    default_inheritance_length,
    onemax,
)
from compactga.problems import binary_integer


def no_cache(fn=onemax):
    return CachedEvaluator(fn, FitnessCache(0))


def as_tuples(stats):
    return [(tuple(w.bits.tolist()), tuple(lo.bits.tolist())) for w, lo in stats.updates]


def final_pv_fractions(stats, population_size):
    return [Fraction(k, 2 * population_size) for k in stats.final_pv]


def test_single_gene_run_terminates():
    stats = Variant("cga").run(1, 2, no_cache(), Rng(0))
    assert str(stats.solution) in ("0", "1")
    assert stats.iterations >= 1
    assert set(stats.final_pv) <= {0, 4}
    assert stats.evaluations == stats.misses == stats.hits + stats.misses


def test_argument_validation():
    with pytest.raises(ValueError):
        Variant("cga").run(0, 10, no_cache(), Rng(0))
    with pytest.raises(ValueError):
        Variant("cga").run(4, 1, no_cache(), Rng(0))
    with pytest.raises(ValueError):
        Variant("cga-t", s=1).run(4, 10, no_cache(), Rng(0))
    with pytest.raises(ValueError):
        Variant("cga-rr", m=1).run(4, 10, no_cache(), Rng(0))
    with pytest.raises(ValueError):
        Variant("ne-cga", eta=0).run(4, 10, no_cache(), Rng(0))


ALL_VARIANTS = [
    Variant("cga"),
    Variant("cga-t", s=4),
    Variant("cga-rr", m=4),
    Variant("pe-cga"),
    Variant("ne-cga", eta=2),
]


# lookups made by three iterations: k per iteration for the sampled kinds,
# and the first elite plus one challenger per iteration for the elitist ones
CAP_LOOKUPS = {"cga": 6, "cga-t": 12, "cga-rr": 12, "pe-cga": 4, "ne-cga": 4}


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.label)
def test_iteration_cap_raises(monkeypatch, variant):
    monkeypatch.setattr(algorithms, "DEFAULT_ITERATION_CAP", 3)
    ev = no_cache()
    with pytest.raises(IterationLimitError) as err:
        variant.run(60, 60, ev, Rng(1))
    assert err.value.iterations == 3
    assert str(err.value) == "not converged after 3 iterations"
    assert ev.cache.hits + ev.cache.misses == CAP_LOOKUPS[variant.kind]


def test_iteration_limit_error_pickles():
    err = pickle.loads(pickle.dumps(IterationLimitError("not converged after 3 iterations", 3)))
    assert type(err) is IterationLimitError
    assert str(err) == "not converged after 3 iterations"
    assert err.iterations == 3


def test_tournament_of_two_reduces_to_cga():
    base = Variant("cga").run(16, 8, no_cache(), Rng(71), trace=True)
    t2 = Variant("cga-t", s=2).run(16, 8, no_cache(), Rng(71), trace=True)
    assert t2.iterations == base.iterations
    assert t2.updates == base.updates
    assert t2.final_pv == base.final_pv
    assert t2.solution == base.solution


def test_round_robin_of_two_reduces_to_cga():
    base = Variant("cga").run(16, 8, no_cache(), Rng(72), trace=True)
    rr2 = Variant("cga-rr", m=2).run(16, 8, no_cache(), Rng(72), trace=True)
    assert rr2.iterations == base.iterations
    assert rr2.updates == base.updates
    assert rr2.final_pv == base.final_pv


def test_round_robin_updates_per_iteration():
    stats = Variant("cga-rr", m=4).run(12, 8, no_cache(), Rng(3), trace=True)
    assert len(stats.updates) == 6 * stats.iterations


def test_tournament_updates_per_iteration():
    stats = Variant("cga-t", s=5).run(12, 8, no_cache(), Rng(3), trace=True)
    assert len(stats.updates) == 4 * stats.iterations


def test_pe_cga_looks_up_once_per_iteration_after_the_first():
    stats = Variant("pe-cga").run(16, 10, no_cache(), Rng(9))
    assert stats.hits + stats.misses == 2 + (stats.iterations - 1)


def test_ne_cga_with_huge_eta_matches_pe_cga():
    pe = Variant("pe-cga").run(20, 10, no_cache(), Rng(33), trace=True)
    ne = Variant("ne-cga", eta=10**9).run(20, 10, no_cache(), Rng(33), trace=True)
    assert ne.iterations == pe.iterations
    assert ne.updates == pe.updates
    assert ne.final_pv == pe.final_pv


def test_default_inheritance_length_is_tenth_of_population():
    assert default_inheritance_length(100) == 10
    assert default_inheritance_length(95) == 10
    assert default_inheritance_length(5) == 1
    assert default_inheritance_length(2) == 1


REFERENCE_CASES = [
    ("cga", {}),
    ("cga-t", {"s": 4}),
    ("cga-rr", {"m": 4}),
    ("pe-cga", {}),
    ("ne-cga", {"eta": 1}),
    ("ne-cga", {"eta": 3}),
]


@pytest.mark.parametrize("kind,params", REFERENCE_CASES)
@pytest.mark.parametrize("problem", ["onemax", "binint"])
def test_trajectory_matches_rational_reference(kind, params, problem):
    length, n = (18, 9) if problem == "onemax" else (12, 9)
    fn = onemax if problem == "onemax" else binary_integer
    ref_fn = ref.onemax_bits if problem == "onemax" else ref.binint_bits
    for seed in (5, 6, 7):
        stats = Variant(kind, **params).run(length, n, no_cache(fn), Rng(seed), trace=True)
        if kind == "cga":
            expected = ref.run_cga(length, n, ref_fn, Rng(seed))
        elif kind == "cga-t":
            expected = ref.run_tournament(length, n, params["s"], ref_fn, Rng(seed))
        elif kind == "cga-rr":
            expected = ref.run_round_robin(length, n, params["m"], ref_fn, Rng(seed))
        elif kind == "pe-cga":
            expected = ref.run_pe(length, n, ref_fn, Rng(seed))
        else:
            expected = ref.run_ne(length, n, params["eta"], ref_fn, Rng(seed))
        iterations, updates, probs = expected
        assert stats.iterations == iterations
        assert as_tuples(stats) == updates
        assert final_pv_fractions(stats, n) == probs
        assert tuple(stats.solution.bits.tolist()) == ref.decode(probs)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.label)
def test_cache_does_not_change_the_trajectory(variant):
    length, n = 24, 12
    for seed in range(40, 60):
        plain = variant.run(length, n, no_cache(), Rng(seed), trace=True)
        for capacity, policy in ((1, "fifo"), (3, "lru"), (20, "fifo"), (20, "lru")):
            cached_ev = CachedEvaluator(onemax, FitnessCache(capacity, policy))
            cached = variant.run(length, n, cached_ev, Rng(seed), trace=True)
            assert cached.iterations == plain.iterations
            assert cached.updates == plain.updates
            assert cached.final_pv == plain.final_pv
            assert cached.solution == plain.solution
            assert cached.hits + cached.misses == plain.hits + plain.misses
            assert cached.evaluations <= plain.evaluations
            if cached.hits == 0:
                assert cached.evaluations == plain.evaluations


def test_evaluations_equal_misses_with_and_without_cache():
    ev = CachedEvaluator(onemax, FitnessCache(5, CachePolicy.LRU))
    stats = Variant("cga").run(16, 8, ev, Rng(12))
    assert stats.evaluations == stats.misses == ev.cache.misses
    plain = Variant("cga").run(16, 8, no_cache(), Rng(12))
    assert plain.hits == 0
    assert plain.evaluations == plain.misses == plain.hits + plain.misses


def test_counters_report_per_run_deltas_when_evaluator_is_reused():
    ev = CachedEvaluator(onemax, FitnessCache(5, "fifo"))
    first = Variant("cga").run(12, 6, ev, Rng(1))
    second = Variant("cga").run(12, 6, ev, Rng(2))
    h, m = ev.cache.hits, ev.cache.misses
    assert first.hits + second.hits == h
    assert first.misses + second.misses == m


def test_variant_validation_and_labels():
    assert Variant("cga").label == "cga"
    assert Variant("cga-t", s=4).label == "cga-t(s=4)"
    assert Variant("cga-rr", m=6).label == "cga-rr(m=6)"
    assert Variant("ne-cga", eta=7).label == "ne-cga(eta=7)"
    assert Variant("ne-cga").label == "ne-cga(eta=auto)"
    with pytest.raises(ValueError):
        Variant("steady-state")
    with pytest.raises(ValueError):
        Variant("cga-t")
    with pytest.raises(ValueError):
        Variant("cga-rr", m=1)
    with pytest.raises(ValueError):
        Variant("ne-cga", eta=0)


@pytest.mark.parametrize(
    "kind,params",
    [("cga-t", {"s": 2.5}), ("cga-rr", {"m": 2.5}), ("ne-cga", {"eta": 2.5}), ("ne-cga", {"eta": 2.0}),
     ("cga-t", {"s": True}), ("cga-rr", {"m": True}), ("ne-cga", {"eta": True})],
)
def test_variant_rejects_non_integral_parameters(kind, params):
    (name,) = params
    with pytest.raises(TypeError, match=name):
        Variant(kind, **params)


OWN_PARAMETERS = {"cga": {}, "cga-t": {"s": 4}, "cga-rr": {"m": 4}, "pe-cga": {}, "ne-cga": {"eta": 2}}


@pytest.mark.parametrize(
    "kind,name",
    [(kind, name) for kind, own in OWN_PARAMETERS.items() for name in ("s", "m", "eta") if name not in own],
)
def test_variant_rejects_a_parameter_its_kind_does_not_take(kind, name):
    with pytest.raises(ValueError, match=f"does not take '{name}'"):
        Variant(kind, **OWN_PARAMETERS[kind], **{name: 4})


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.label)
@pytest.mark.parametrize("capacity", [0, 4])
def test_run_calls_the_fitness_function_once_more_than_it_counts(variant, capacity):
    # the decoded solution is evaluated directly, outside the cache and its counters
    calls = []
    ev = CachedEvaluator(lambda c: calls.append(c) or onemax(c), FitnessCache(capacity, "lru"))
    stats = variant.run(12, 6, ev, Rng(1))
    assert len(calls) == stats.evaluations + 1
    assert calls[-1] == stats.solution


def test_variant_run_dispatch():
    for variant in ALL_VARIANTS:
        stats = variant.run(10, 6, no_cache(), Rng(77))
        assert stats.iterations >= 1
        assert set(stats.final_pv) <= {0, 12}
