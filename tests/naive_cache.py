"""Array-scan reference model for the bounded cache.

Same observable behaviour as the real store (hit/miss outcomes, eviction
order, counters), implemented as a flat list with explicit reordering so the
two can disagree only if one of them is wrong.
"""

from compactga import Chromosome
from states import bitstring


class NaiveCache:
    def __init__(self, capacity: int, lru: bool):
        self.capacity = capacity
        self.lru = lru
        self.entries: list[tuple[Chromosome, object]] = []  # front first
        self.hits = 0
        self.misses = 0

    def lookup(self, key):
        """Value on a hit (LRU moves the entry to the end), else None; counts."""
        for i, (k, v) in enumerate(self.entries):
            if k == key:
                self.hits += 1
                if self.lru:
                    self.entries.append(self.entries.pop(i))
                return v
        self.misses += 1
        return None

    def store(self, key, value):
        """Append a new entry, dropping the front one when full."""
        if self.capacity == 0:
            return
        if len(self.entries) == self.capacity:
            self.entries.pop(0)
        self.entries.append((key, value))

    def lookup_or_evaluate(self, key, fn):
        value = self.lookup(key)
        if value is None:
            value = fn(key)
            self.store(key, value)
        return value

    def dump(self) -> str:
        return "\n".join(f"{k},{v}" for k, v in self.entries)


def key_universe(count: int, length: int = 8) -> list[Chromosome]:
    """Distinct chromosome keys 0..count-1 encoded on `length` bits."""
    return [bitstring(format(i, f"0{length}b")) for i in range(count)]
