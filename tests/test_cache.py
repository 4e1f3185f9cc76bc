import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactga import CachedEvaluator, CachePolicy, Chromosome, FitnessCache, Rng, Variant, onemax
from naive_cache import NaiveCache, key_universe
from states import bitstring, residents

KEYS = key_universe(64)


def chrom(i):
    return KEYS[i]


def lookup(cache, key, compute):
    """One lookup of `key` in `cache`, through an evaluator that computes with `compute`."""
    return CachedEvaluator(compute, cache)(key)


def filled(policy, *indices, capacity=None):
    cache = FitnessCache(capacity if capacity is not None else len(indices), policy)
    for i in indices:
        lookup(cache, chrom(i), lambda key, i=i: i * 10)
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
    assert (cache.hits, cache.misses) == (0, 4)
    assert cache.dump() == f"{chrom(3)},3\n{chrom(1)},1"


def test_lru_eviction_sequence():
    cache = FitnessCache(2, "lru")
    outcomes = lookup_sequence(cache, lambda c: c.to_int(), [1, 2, 1, 3, 2])
    assert outcomes == ["miss", "miss", "hit", "miss", "miss"]
    assert (cache.hits, cache.misses) == (1, 4)
    assert cache.dump() == f"{chrom(3)},3\n{chrom(2)},2"


@pytest.mark.parametrize("policy", ["fifo", "lru"])
def test_capacity_one_repeated_key(policy):
    cache = FitnessCache(1, policy)
    outcomes = lookup_sequence(cache, lambda c: c.to_int(), [1, 1, 1])
    assert outcomes == ["miss", "hit", "hit"]
    assert (cache.hits, cache.misses) == (2, 1)


def test_evict_front_returns_front_key():
    cache = filled("fifo", 1, 2)
    assert cache.evict_front() == chrom(1).packed
    assert cache.dump() == f"{chrom(2)},20"
    assert cache.evict_front() == chrom(2).packed
    assert residents(cache) == 0
    with pytest.raises(IndexError):
        cache.evict_front()


def test_evict_front_follows_lru_recency():
    cache = filled(CachePolicy.LRU, 1, 2, capacity=3)
    assert lookup(cache, chrom(1), not_called) == 10  # hit moves key 1 to the rear
    assert cache.evict_front() == chrom(2).packed


def test_counters_start_at_zero_and_accumulate():
    cache = FitnessCache(4, "fifo")
    assert (cache.hits, cache.misses) == (0, 0)
    ev = CachedEvaluator(lambda c: 0, cache)
    for i in (1, 2, 3, 1, 2):
        ev(chrom(i))
    assert (cache.hits, cache.misses) == (2, 3)


@pytest.mark.parametrize("policy,indices,evictions", [
    ("fifo", [1, 2, 3, 1], 2),
    ("lru", [1, 2, 1, 3, 2], 2),
    ("lru", [1, 1, 1], 0),
])
def test_evictions_count_every_entry_removed_to_make_room(policy, indices, evictions):
    cache = FitnessCache(2, policy)
    lookup_sequence(cache, lambda c: c.to_int(), indices)
    assert cache.evictions == evictions == max(0, cache.misses - cache.capacity)
    cache.evict_front()
    assert cache.evictions == evictions + 1
    uncached = FitnessCache(0, policy)
    lookup_sequence(uncached, lambda c: c.to_int(), indices)
    assert uncached.evictions == 0


def test_counters_count_every_lookup_once():
    rnd = random.Random(42)
    cache = FitnessCache(3, "lru")
    ev = CachedEvaluator(lambda c: 0, cache)
    total = 500
    for _ in range(total):
        ev(chrom(rnd.randrange(8)))
    hits, misses = cache.hits, cache.misses
    assert hits + misses == total


def test_capacity_zero_never_stores():
    cache = FitnessCache(0, "lru")
    evaluated = []
    ev = CachedEvaluator(lambda c: evaluated.append(c) or c.to_int(), cache)
    for i in (1, 1, 2, 2):
        ev(chrom(i))
    assert (cache.hits, cache.misses) == (0, 4)
    assert residents(cache) == 0
    assert len(evaluated) == 4


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        FitnessCache(-1, "fifo")


@pytest.mark.parametrize("capacity", [2.5, 2.0, "2", True, False])
def test_non_integral_capacity_rejected(capacity):
    with pytest.raises(TypeError, match="capacity"):
        FitnessCache(capacity, "fifo")


def test_distinct_keys_with_equal_values_are_separate_entries():
    cache = FitnessCache(4, "fifo")
    lookup(cache, chrom(2), lambda key: 7)
    lookup(cache, chrom(3), lambda key: 7)
    assert residents(cache) == 2
    assert cache.dump() == f"{chrom(2)},7\n{chrom(3)},7"


def test_dump_lists_entries_front_to_rear():
    cache = filled("fifo", 5, 1)
    assert cache.dump() == f"{chrom(5)},50\n{chrom(1)},10"
    assert FitnessCache(2, "fifo").dump() == ""


@pytest.mark.parametrize("policy", ["fifo", "lru"])
def test_an_insert_keeps_no_reference_to_the_chromosome(policy):
    cache = FitnessCache(4, policy)
    key = bitstring("0110")
    before = sys.getrefcount(key)
    assert lookup(cache, key, lambda c: 7) == 7
    assert sys.getrefcount(key) == before
    assert cache.dump() == "0110,7"


def test_a_resident_entry_holds_less_than_a_quarter_byte_per_gene():
    # a chromosome's alleles take l bytes and its packed key l/8, so an entry
    # that kept the chromosome would hold more than l
    length, count = 2000, 64
    masks = np.random.default_rng(0).random((count, length)) < 0.5
    ev = CachedEvaluator(onemax, FitnessCache(count, "fifo"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for mask in masks:
            ev(Chromosome(mask))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert residents(ev.cache) == count
    assert held / count < length / 4


@pytest.mark.parametrize("value", [None, 0, False])
def test_a_falsy_fitness_is_stored_and_hits(value):
    calls = []
    ev = CachedEvaluator(lambda c: calls.append(c) or value, FitnessCache(2, "lru"))
    assert ev(chrom(1)) is value
    assert ev(chrom(1)) is value
    assert (len(calls), ev.cache.hits, ev.cache.misses) == (1, 1, 1)
    assert ev.cache.dump() == f"{chrom(1)},{value}"


def test_failed_evaluation_leaves_cache_untouched():
    cache = FitnessCache(2, "lru")
    ev = CachedEvaluator(lambda c: c.to_int(), cache)
    ev(chrom(1))
    snapshot = (cache.dump(), cache.hits, cache.misses)

    def explode(c):
        raise RuntimeError("fitness unavailable")

    ev.fitness_fn = explode
    with pytest.raises(RuntimeError):
        ev(chrom(2))
    assert (cache.dump(), cache.hits, cache.misses) == snapshot
    ev.fitness_fn = lambda c: c.to_int()
    assert ev(chrom(1)) == chrom(1).to_int()  # hit still works afterwards


def test_nan_fitness_is_rejected_and_leaves_cache_untouched():
    cache = FitnessCache(2, "lru")
    ev = CachedEvaluator(lambda c: c.to_int(), cache)
    ev(chrom(1))
    snapshot = (cache.dump(), cache.hits, cache.misses)
    ev.fitness_fn = lambda c: float("nan")
    with pytest.raises(ValueError, match=str(chrom(2))):
        ev(chrom(2))
    assert (cache.dump(), cache.hits, cache.misses) == snapshot
    assert ev(chrom(1)) == chrom(1).to_int()  # a hit never re-evaluates


def test_nan_fitness_fails_a_run():
    ev = CachedEvaluator(lambda c: float("nan"), FitnessCache(0))
    with pytest.raises(ValueError, match="NaN"):
        Variant("cga").run(8, 4, ev, Rng(0))
    assert (ev.cache.hits, ev.cache.misses) == (0, 0)


def test_lookup_or_evaluate_is_transparent():
    rnd = random.Random(7)
    evaluated = []
    ev = CachedEvaluator(lambda c: evaluated.append(c) or onemax(c), FitnessCache(4, "lru"))
    for _ in range(300):
        key = chrom(rnd.randrange(16))
        assert ev(key) == onemax(key)
    assert len(evaluated) == ev.cache.misses


def frames_entered(call, *args):
    """Name of each Python function that ``call(*args)`` enters, in order."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return entered


def seven(chromosome):
    return 7


@pytest.mark.parametrize("policy", ["fifo", "lru"])
def test_a_hit_enters_one_python_frame_and_a_miss_only_the_fitness_function_besides(policy):
    ev = CachedEvaluator(seven, FitnessCache(1, policy))
    assert frames_entered(ev, chrom(1)) == ["__call__", "seven"]
    assert frames_entered(ev, bitstring(str(chrom(1)))) == ["__call__"]
    assert frames_entered(ev, chrom(2)) == ["__call__", "seven", "evict_front"]
    assert (ev.cache.hits, ev.cache.misses, ev.cache.evictions) == (1, 2, 1)
    uncached = CachedEvaluator(seven, FitnessCache(0, policy))
    assert frames_entered(uncached, chrom(1)) == ["__call__", "seven"]
    assert frames_entered(uncached, chrom(1)) == ["__call__", "seven"]


policies = st.sampled_from([CachePolicy.FIFO, CachePolicy.LRU])


@settings(max_examples=120, deadline=None)
@given(policy=policies, capacity=st.integers(0, 8), length=st.integers(1, 17), data=st.data())
def test_matches_naive_model(policy, capacity, length, data):
    # a few distinct keys of one length, so that lookups repeat; every length
    # but 8 and 16 leaves zero padding in the last packed byte
    values = data.draw(st.lists(st.integers(0, 2**length - 1), min_size=1, max_size=16, unique=True))
    keys = [bitstring(format(v, f"0{length}b")) for v in values]
    indices = data.draw(st.lists(st.integers(0, len(keys) - 1), max_size=200))
    cache = FitnessCache(capacity, policy)
    ev = CachedEvaluator(lambda c: c.to_int() % 5, cache)
    naive = NaiveCache(capacity, lru=policy is CachePolicy.LRU)
    for i in indices:
        key = keys[i]
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
        assert residents(cache) <= cache.capacity
    assert cache.dump() == naive.dump()
    assert (cache.hits, cache.misses) == (naive.hits, naive.misses)
    assert cache.hits + cache.misses == len(indices)


def refuse(*args):
    raise AssertionError("the cache called a key's __hash__ or __eq__")


@pytest.mark.parametrize("policy", ["fifo", "lru"])
def test_lookups_never_call_the_keys_hash_or_eq(monkeypatch, policy):
    indices = [1, 2, 1, 3, 2, 4, 1, 1, 5, 3, 3]
    # equal keys in new objects, as sampling makes them: a dict keyed by
    # chromosomes would have to call __eq__ to tell them apart
    lookups = [bitstring(str(chrom(i))) for i in indices]
    cache = FitnessCache(3, policy)
    ev = CachedEvaluator(lambda c: c.to_int() % 5, cache)
    with monkeypatch.context() as m:
        m.setattr(Chromosome, "__hash__", refuse)
        m.setattr(Chromosome, "__eq__", refuse)
        outcomes = []
        for key in lookups:
            before = cache.hits
            ev(key)
            outcomes.append("hit" if cache.hits > before else "miss")
        dump = cache.dump()
        evicted = cache.evict_front()
    assert "hit" in outcomes and cache.misses > cache.capacity  # so some lookup evicted
    naive = NaiveCache(3, lru=policy == "lru")
    naive_outcomes = []
    for key in lookups:
        before = naive.hits
        naive.lookup_or_evaluate(key, lambda c: c.to_int() % 5)
        naive_outcomes.append("hit" if naive.hits > before else "miss")
    assert outcomes == naive_outcomes
    assert dump == naive.dump()
    assert (cache.hits, cache.misses) == (naive.hits, naive.misses)
    assert evicted == naive.entries[0][0].packed


@pytest.mark.parametrize("capacity", [0, 4])
@pytest.mark.parametrize("policy", ["fifo", "lru"])
def test_one_cache_holds_keys_of_one_length(policy, capacity):
    # "1" and "10" both pack to b"\x80"
    cache = FitnessCache(capacity, policy)
    assert lookup(cache, bitstring("1"), lambda key: 7) == 7
    snapshot = (cache.hits, cache.misses, cache.dump())
    with pytest.raises(ValueError, match="keys of length 1, got one of length 2"):
        lookup(cache, bitstring("10"), not_called)
    assert (cache.hits, cache.misses, cache.dump()) == snapshot
    assert lookup(cache, bitstring("0"), lambda key: 3) == 3


def test_a_failed_first_lookup_fixes_no_key_length():
    cache = FitnessCache(2, "lru")

    def explode(key):
        raise RuntimeError("fitness unavailable")

    with pytest.raises(RuntimeError):
        lookup(cache, bitstring("1"), explode)
    assert lookup(cache, bitstring("10"), lambda key: 2) == 2
    assert lookup(cache, bitstring("10"), not_called) == 2
    assert (cache.hits, cache.misses) == (1, 1)
