"""Bit-string chromosomes and the deterministic uniform source that samples them."""

from __future__ import annotations

import operator

import numpy as np


def _integer(name: str, value) -> int:
    """`value` as an int; a float or any other non-integral type raises, naming `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name}: expected an integer, got {value!r}") from None


class Rng:
    """Seeded uniform-variate stream (numpy PCG64 under a 64-bit seed).

    Every sampling decision in a run draws through :meth:`uniforms`, one
    variate per gene per sampled chromosome, and nothing else consumes the
    stream. Two ``Rng`` instances with the same seed therefore yield
    identical runs.
    """

    def __init__(self, seed: int):
        self.seed = _integer("seed", seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniforms(self, count: int) -> np.ndarray:
        """Next `count` variates, each uniform in [0, 1)."""
        return self._gen.random(count)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"


class Chromosome:
    """Immutable fixed-length bit string, hashable so it can key a cache.

    Bits are packed eight per byte (gene 0 in the most significant bit of
    byte 0), so equality, hashing and popcounts touch l/8 bytes rather than
    l alleles. The unpacked array is kept alongside for vector arithmetic.

    The constructor takes any one-dimensional sequence of exact 0/1 values
    (a bool array needs no check) and stores its own read-only uint8 copy,
    so writing to the caller's array, or to the base of a view, never
    changes a chromosome.
    """

    __slots__ = ("packed", "length", "_bits", "_hash")

    def __init__(self, bits: np.ndarray):
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise ValueError("bits must be a non-empty one-dimensional sequence")
        if arr.dtype != np.bool_:
            # check before the cast, which would truncate 1.7 to 1 and wrap 257 to 1
            bad = (arr != 0) & (arr != 1)
            if bad.any():
                gene = int(np.argmax(bad))
                raise ValueError(f"alleles must be 0 or 1, got {arr.tolist()[gene]!r} at gene {gene}")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        self.length: int = arr.shape[0]
        self.packed: bytes = np.packbits(arr).tobytes()
        self._bits = arr
        self._hash = hash((self.length, self.packed))

    @classmethod
    def from_text(cls, text: str) -> "Chromosome":
        """Build from a '0'/'1' string, gene 0 first (the naive-cache oracle's keys)."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 array of alleles, gene 0 first."""
        return self._bits

    def ones(self) -> int:
        """Number of 1-alleles."""
        # packbits pads the tail with zero bits, so they never contribute
        return int.from_bytes(self.packed, "big").bit_count()

    def to_int(self) -> int:
        """Value of the bit string read as a big-endian integer (gene 0 most significant)."""
        return int.from_bytes(self.packed, "big") >> (8 * len(self.packed) - self.length)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chromosome):
            return NotImplemented
        return self.length == other.length and self.packed == other.packed

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self._bits.tolist())

    def __repr__(self) -> str:
        return f"Chromosome({str(self)!r})"
