import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactga import CachedEvaluator, CachePolicy, Chromosome, FitnessCache, Rng, Variant, onemax
from naive_cache import NaiveCache, key_universe

KEYS = key_universe(64)


def chrom(i):
    return KEYS[i]


def filled(policy, *indices, capacity=None):
    cache = FitnessCache(capacity if capacity is not None else len(indices), policy)
    for i in indices:
        cache.lookup(chrom(i), lambda key, i=i: i * 10)
    return cache


def not_called(key):
    raise AssertionError(f"unexpected evaluation of {key}")


def lookup_sequence(cache, fn, indices):
    ev = CachedEvaluator(fn, cache)
    outcomes = []
    for i in indices:
        before = cache.hits
        ev(chrom(i))
        outcomes.append("hit" if cache.hits > before else "miss")
    return outcomes


def test_fifo_eviction_sequence():
    cache = FitnessCache(2, "fifo")
    outcomes = lookup_sequence(cache, lambda c: c.to_int(), [1, 2, 3, 1])
    assert outcomes == ["miss", "miss", "miss", "miss"]
    assert cache.counters() == (0, 4)
    assert cache.dump() == f"{chrom(3)},3\n{chrom(1)},1"


def test_lru_eviction_sequence():
    cache = FitnessCache(2, "lru")
    outcomes = lookup_sequence(cache, lambda c: c.to_int(), [1, 2, 1, 3, 2])
    assert outcomes == ["miss", "miss", "hit", "miss", "miss"]
    assert cache.counters() == (1, 4)
    assert cache.dump() == f"{chrom(3)},3\n{chrom(2)},2"


@pytest.mark.parametrize("policy", ["fifo", "lru"])
def test_capacity_one_repeated_key(policy):
    cache = FitnessCache(1, policy)
    outcomes = lookup_sequence(cache, lambda c: c.to_int(), [1, 1, 1])
    assert outcomes == ["miss", "hit", "hit"]
    assert cache.counters() == (2, 1)


def test_evict_front_returns_front_key():
    cache = filled("fifo", 1, 2)
    assert cache.evict_front() == chrom(1)
    assert cache.dump() == f"{chrom(2)},20"
    assert cache.evict_front() == chrom(2)
    assert len(cache) == 0
    with pytest.raises(IndexError):
        cache.evict_front()


def test_evict_front_follows_lru_recency():
    cache = filled(CachePolicy.LRU, 1, 2, capacity=3)
    assert cache.lookup(chrom(1), not_called) == 10  # hit moves key 1 to the rear
    assert cache.evict_front() == chrom(2)


def test_counters_start_at_zero_and_accumulate():
    cache = FitnessCache(4, "fifo")
    assert cache.counters() == (0, 0)
    ev = CachedEvaluator(lambda c: 0, cache)
    for i in (1, 2, 3, 1, 2):
        ev(chrom(i))
    assert cache.counters() == (2, 3)


def test_counters_count_every_lookup_once():
    rnd = random.Random(42)
    cache = FitnessCache(3, "lru")
    ev = CachedEvaluator(lambda c: 0, cache)
    total = 500
    for _ in range(total):
        ev(chrom(rnd.randrange(8)))
    hits, misses = cache.counters()
    assert hits + misses == total


def test_capacity_zero_never_stores():
    cache = FitnessCache(0, "lru")
    evaluated = []
    ev = CachedEvaluator(lambda c: evaluated.append(c) or c.to_int(), cache)
    for i in (1, 1, 2, 2):
        ev(chrom(i))
    assert cache.counters() == (0, 4)
    assert len(cache) == 0
    assert len(evaluated) == 4


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        FitnessCache(-1, "fifo")


@pytest.mark.parametrize("capacity", [2.5, 2.0, "2"])
def test_non_integral_capacity_rejected(capacity):
    with pytest.raises(TypeError, match="capacity"):
        FitnessCache(capacity, "fifo")


def test_distinct_keys_with_equal_values_are_separate_entries():
    cache = FitnessCache(4, "fifo")
    cache.lookup(chrom(2), lambda key: 7)
    cache.lookup(chrom(3), lambda key: 7)
    assert len(cache) == 2
    assert cache.dump() == f"{chrom(2)},7\n{chrom(3)},7"


def test_dump_lists_entries_front_to_rear():
    cache = filled("fifo", 5, 1)
    assert cache.dump() == f"{chrom(5)},50\n{chrom(1)},10"
    assert FitnessCache(2, "fifo").dump() == ""


def test_failed_evaluation_leaves_cache_untouched():
    cache = FitnessCache(2, "lru")
    ev = CachedEvaluator(lambda c: c.to_int(), cache)
    ev(chrom(1))
    snapshot = (cache.dump(), cache.counters())

    def explode(c):
        raise RuntimeError("fitness unavailable")

    ev.fitness_fn = explode
    with pytest.raises(RuntimeError):
        ev(chrom(2))
    assert (cache.dump(), cache.counters()) == snapshot
    ev.fitness_fn = lambda c: c.to_int()
    assert ev(chrom(1)) == chrom(1).to_int()  # hit still works afterwards


def test_nan_fitness_is_rejected_and_leaves_cache_untouched():
    cache = FitnessCache(2, "lru")
    ev = CachedEvaluator(lambda c: c.to_int(), cache)
    ev(chrom(1))
    snapshot = (cache.dump(), cache.counters())
    ev.fitness_fn = lambda c: float("nan")
    with pytest.raises(ValueError, match=str(chrom(2))):
        ev(chrom(2))
    assert (cache.dump(), cache.counters()) == snapshot
    assert ev(chrom(1)) == chrom(1).to_int()  # a hit never re-evaluates


def test_nan_fitness_fails_a_run():
    ev = CachedEvaluator.uncached(lambda c: float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        Variant("cga").run(8, 4, ev, Rng(0))
    assert ev.cache.counters() == (0, 0)


def test_lookup_or_evaluate_is_transparent():
    rnd = random.Random(7)
    evaluated = []
    ev = CachedEvaluator(lambda c: evaluated.append(c) or onemax(c), FitnessCache(4, "lru"))
    for _ in range(300):
        key = chrom(rnd.randrange(16))
        assert ev(key) == onemax(key)
    assert len(evaluated) == ev.cache.misses


policies = st.sampled_from([CachePolicy.FIFO, CachePolicy.LRU])


@settings(max_examples=120, deadline=None)
@given(
    policy=policies,
    capacity=st.integers(0, 8),
    indices=st.lists(st.integers(0, 63), max_size=200),
)
def test_matches_naive_model(policy, capacity, indices):
    cache = FitnessCache(capacity, policy)
    ev = CachedEvaluator(lambda c: c.to_int() % 5, cache)
    naive = NaiveCache(capacity, lru=policy is CachePolicy.LRU)
    for i in indices:
        key = chrom(i)
        hits_before = cache.hits
        value = ev(key)
        real_hit = cache.hits > hits_before
        naive_value = naive.lookup(key)
        if naive_value is None:
            naive.store(key, key.to_int() % 5)
            assert not real_hit
        else:
            assert real_hit
            assert value == naive_value
        cache.check_consistency()
    assert cache.dump() == naive.dump()
    assert cache.counters() == (naive.hits, naive.misses)
    assert cache.hits + cache.misses == len(indices)

