"""Capacity-bounded fitness store with FIFO or LRU eviction.

The compact GA of Harik, Lobo & Goldberg (IEEE Trans. Evol. Comput., 1999)
and the elitist forms of Ahn & Ramakrishna (IEEE Trans. Evol. Comput., 2003)
sample the same chromosomes more and more often as the probability vector
converges, so a small cache in front of the fitness function saves
evaluations without changing the run.

``FitnessCache`` is the state: one ``collections.OrderedDict`` in eviction
order, the counters, the capacity, the policy and the key length. The front
of the dict is the next victim and the rear is the newest (FIFO) or most
recently used (LRU) entry. ``CachedEvaluator.__call__`` does the whole
lookup in its own frame: a hit enters no other Python function, and a miss
enters only the fitness function, plus ``evict_front`` when the cache is
full. FIFO lookups never reorder the dict; an LRU hit moves the entry to the
rear with ``move_to_end``, and eviction pops the front.

The store is keyed by an opaque token and reads nothing of what it stores.
The evaluator keys it by each chromosome's packed bytes: bytes keep their
hash and compare in C, so a lookup never calls back into Python for
``__hash__`` or ``__eq__``. Each entry stores ``(chromosome, value)``, so the
chromosome itself is still there to list and to return.
"""

from __future__ import annotations

import enum
from collections import OrderedDict

from .chromosome import Chromosome, _integer


class CachePolicy(enum.Enum):
    """Eviction order: insertion order (FIFO) or recency order (LRU)."""

    FIFO = "fifo"
    LRU = "lru"


class FitnessCache:
    """Bounded token-to-(key, value) store with exact hit, miss and eviction counts.

    ``hits`` and ``misses`` together count every lookup exactly once, and
    ``evictions`` counts every entry removed to make room. Two distinct keys
    with equal values are stored as separate entries; values are never
    deduplicated. ``CachedEvaluator`` does the lookups.

    The evaluator keys it by packed bytes, and packing pads the last byte
    with zero bits, so ``"1"`` and ``"10"`` pack alike: one cache therefore
    holds keys of one length, fixed by its first lookup that completes.
    """

    def __init__(self, capacity: int, policy: CachePolicy | str = CachePolicy.FIFO):
        capacity = _integer("capacity", capacity)
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self.policy = CachePolicy(policy)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lru = self.policy is CachePolicy.LRU
        self._length = None  # of every key, once a lookup has completed
        self._entries: OrderedDict[object, tuple[object, object]] = OrderedDict()

    def evict_front(self):
        """Remove the entry next in eviction order, count it and return its key.

        Its own method so that the benchmark tracer can count evictions.
        """
        if not self._entries:
            raise IndexError("evict_front on an empty cache")
        self.evictions += 1
        _, (key, _) = self._entries.popitem(last=False)
        return key

    def dump(self) -> str:
        """One '<key>,<value>' line per entry, front to rear.

        The naive-model oracle compares caches, and the tests count residents, through this listing.
        """
        return "\n".join(f"{key},{value}" for key, value in self._entries.values())


class CachedEvaluator:
    """Fitness source that answers from a cache and evaluates only on a miss.

    The cache's miss counter is the count of true fitness-function
    invocations. A hit refreshes recency under LRU; a miss stores the value
    at the rear, evicting the front entry if the cache is full. If the
    fitness function raises, the error propagates and neither the cache nor
    any counter is modified. A NaN fitness is rejected the same way, with a
    ValueError: NaN has no order, so no competition could rank it. So is a
    chromosome whose length differs from that of the ones before it, before
    anything is computed, counted or stored.
    """

    def __init__(self, fitness_fn, cache: FitnessCache):
        self.fitness_fn = fitness_fn
        self.cache = cache

    def __call__(self, chromosome: Chromosome):
        """Fitness of `chromosome`, from cache when possible."""
        cache = self.cache
        if chromosome.length != cache._length and cache._length is not None:
            raise ValueError(f"this cache holds keys of length {cache._length}, "
                             f"got one of length {chromosome.length}")
        packed = chromosome.packed
        entry = cache._entries.get(packed)
        if entry is not None:
            cache.hits += 1
            if cache._lru:
                cache._entries.move_to_end(packed)
            return entry[1]
        value = self.fitness_fn(chromosome)
        if value != value:  # only NaN differs from itself
            raise ValueError(f"fitness of {chromosome} is NaN")
        cache.misses += 1
        cache._length = chromosome.length
        if cache.capacity:
            if len(cache._entries) == cache.capacity:
                cache.evict_front()
            cache._entries[packed] = (chromosome, value)
        return value
