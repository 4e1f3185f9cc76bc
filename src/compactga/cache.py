"""Capacity-bounded chromosome-to-fitness store with FIFO or LRU eviction.

The compact GA of Harik, Lobo & Goldberg (IEEE Trans. Evol. Comput., 1999)
and the elitist forms of Ahn & Ramakrishna (IEEE Trans. Evol. Comput., 2003)
sample the same chromosomes more and more often as the probability vector
converges, so a small cache in front of the fitness function saves
evaluations without changing the run.

The entries live in one ``collections.OrderedDict`` in eviction order: the
front is the next victim and the rear is the newest (FIFO) or most recently
used (LRU) entry. FIFO lookups never reorder it; an LRU hit moves the entry
to the rear with ``move_to_end``, and eviction pops the front.

The dict is keyed by each chromosome's packed bytes, not by the chromosome:
bytes keep their hash and compare in C, so a lookup never calls back into
Python for ``__hash__`` or ``__eq__``. Each entry stores ``(chromosome,
value)``, so the chromosome itself is still there to list and to return.
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
    """Bounded chromosome-to-value store with exact hit/miss accounting.

    ``hits`` and ``misses`` together count every lookup exactly once. Two
    distinct keys with equal values are stored as separate entries; values
    are never deduplicated.

    Entries are keyed by ``Chromosome.packed``. Packing pads the last byte
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
        self._lru = self.policy is CachePolicy.LRU
        self._length = None  # of every key, once a lookup has completed
        self._entries: OrderedDict[bytes, tuple[Chromosome, object]] = OrderedDict()

    def lookup(self, key: Chromosome, compute):
        """Value of `key`: the stored one on a hit, else ``compute(key)``, stored.

        Counts one hit or one miss. A hit refreshes recency under LRU; a miss
        stores the value at the rear, evicting the front entry if the cache
        is full. If ``compute`` raises, the error propagates and nothing is
        changed. A key whose length differs from that of the keys before it
        raises ValueError, before anything is computed, counted or stored.
        """
        if key.length != self._length and self._length is not None:
            raise ValueError(f"this cache holds keys of length {self._length}, got one of length {key.length}")
        packed = key.packed
        entry = self._entries.get(packed)
        if entry is None:
            value = compute(key)
            self.misses += 1
            self._length = key.length
            if self.capacity:
                if len(self._entries) == self.capacity:
                    self.evict_front()
                self._entries[packed] = (key, value)
            return value
        self.hits += 1
        if self._lru:
            self._entries.move_to_end(packed)
        return entry[1]

    def evict_front(self) -> Chromosome:
        """Remove the entry next in eviction order and return its key.

        Its own method so that the benchmark tracer can count evictions.
        """
        if not self._entries:
            raise IndexError("evict_front on an empty cache")
        _, (key, _) = self._entries.popitem(last=False)
        return key

    def dump(self) -> str:
        """One '<bits>,<fitness>' line per entry, front to rear.

        The naive-model oracle compares caches through this listing.
        """
        return "\n".join(f"{key},{value}" for key, value in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


class CachedEvaluator:
    """Fitness source that answers from a cache and evaluates only on a miss.

    The cache's miss counter is the count of true fitness-function
    invocations. If the fitness function raises, the error propagates and
    neither the cache nor any counter is modified. A NaN fitness is rejected
    the same way, with a ValueError: NaN has no order, so no competition
    could rank it.
    """

    def __init__(self, fitness_fn, cache: FitnessCache):
        self.fitness_fn = fitness_fn
        self.cache = cache

    def _evaluate(self, chromosome: Chromosome):
        value = self.fitness_fn(chromosome)
        if value != value:  # only NaN differs from itself
            raise ValueError(f"fitness of {chromosome} is NaN")
        return value

    def __call__(self, chromosome: Chromosome):
        """Fitness of `chromosome`, from cache when possible."""
        return self.cache.lookup(chromosome, self._evaluate)
