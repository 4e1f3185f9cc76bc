"""Bit-string chromosomes and the deterministic uniform source that samples them."""

from __future__ import annotations

import operator
import os
import threading

import numpy as np


def _integer(name: str, value) -> int:
    """`value` as an int; a bool, a float or any other non-integral type raises, naming `name`."""
    if not isinstance(value, bool):  # operator.index takes True as 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name}: expected an integer, got {value!r}")


_BLOCK = 4096  # variates per read of the stream: 32 KB of float64
_READ_AHEAD = 16 * _BLOCK  # variates per background read: 512 KB of float64

# The reader thread of this process, as (pid that started it, queue of
# (generator, out) requests). The first read-ahead in a process starts the
# thread; a forked child finds the parent's pid here, since the parent's
# thread does not exist in the child, and its first read-ahead starts the
# child's own. Two threads that start it at once may each make one: that
# costs an idle thread and no draw, since an Rng has one read in flight at
# a time.
_reads = None


def _read_ahead(gen: np.random.Generator):
    """Queue a fill of the next `_READ_AHEAD` variates of `gen` on this
    process's reader thread; return (this pid, the queue it puts them on)."""
    global _reads
    import queue  # here: a run that never reads ahead should not load it

    pid, out = os.getpid(), queue.SimpleQueue()
    reads = _reads
    if reads is None or reads[0] != pid:
        reads = _reads = (pid, queue.SimpleQueue())
        threading.Thread(target=_fill_forever, args=(reads[1],), name="compactga-rng", daemon=True).start()
    reads[1].put((gen, out))
    return pid, out


def _fill_forever(reads) -> None:
    # Bare queues, not a concurrent.futures.ThreadPoolExecutor(1): that reader
    # measured long-genome wall_ref_s 2.49 -> 2.89 s, slower in 6 of 6 pairs.
    while True:
        gen, out = reads.get()
        try:
            out.put(gen.random(_READ_AHEAD))
        except Exception as exc:  # raised again where the stream is drawn
            out.put(exc)


class Rng:
    """Seeded uniform-variate stream (numpy PCG64 under a 64-bit seed).

    Every sampling decision in a run draws through :meth:`uniforms`, one
    variate per gene per sampled chromosome, and nothing else consumes the
    stream. Two ``Rng`` instances with the same seed therefore yield
    identical runs. The stream is read ``_BLOCK`` variates at a time, which
    saves a generator call per sampled chromosome and changes no draw; each
    read allocates a new block, so a handed-out array is never overwritten.
    The ``Rng`` keeps its last read, however large, until the next refill.

    The first refill for a request of at least ``_BLOCK`` variates (a
    chromosome of at least 4096 genes) switches the ``Rng`` to reading
    ahead for the rest of its life. From then on one background thread,
    shared by every ``Rng`` of the process, makes all of its reads, each of
    ``_READ_AHEAD`` variates, and puts each on a ``queue.SimpleQueue`` that
    the ``Rng`` takes it from. The next read is queued as soon as one is
    taken, so that PCG64 fills it, outside the GIL, while the run works on
    the last one. Reads still come from the one generator in stream order,
    so read-ahead changes no draw either. Such an ``Rng`` holds its current
    read plus the one in flight: 1 MB of float64. A read that raises puts
    its exception on the queue instead, and every later refill raises it.
    Below the switch nothing starts a thread. A forked child starts its own
    reader thread on its first read-ahead. A reading-ahead ``Rng`` carried
    across a fork raises RuntimeError at its next refill in the child,
    whether or not its read has finished, since the thread that fills its
    reads stays in the parent: make a new ``Rng`` in the child.
    """

    def __init__(self, seed: int):
        self.seed = _integer("seed", seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self._block = np.empty(0)
        self._pos = 0  # variates of _block already handed out
        self._ahead = None  # (pid that queued the read in flight, its queue), once reading ahead

    def uniforms(self, count: int) -> np.ndarray:
        """Next `count` variates of ``Generator(PCG64(seed)).random``, each in [0, 1).

        Raises RuntimeError in a forked child if this ``Rng`` read ahead
        before the fork and the request needs a refill.
        """
        count = _integer("count", count)
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        pos, block = self._pos, self._block
        end = pos + count
        if end <= len(block):
            self._pos = end
            return block[pos:end]
        need = end - len(block)
        if self._ahead is None and count >= _BLOCK:
            # from here on only the reader thread calls _gen, one read at a time
            self._ahead = _read_ahead(self._gen)
        parts = [block[pos:]] if pos < len(block) else []
        while True:
            if self._ahead is None:
                block = self._gen.random(max(need, _BLOCK))
            else:
                pid, out = self._ahead
                if pid != os.getpid():  # finished or not, so the outcome does not depend on timing
                    raise RuntimeError(f"Rng read ahead in process {pid} before a fork; make a new Rng in the child")
                block = out.get()
                if isinstance(block, Exception):
                    out.put(block)  # so every later draw raises it too, rather than waiting forever
                    raise block
                self._ahead = _read_ahead(self._gen)
            if need <= len(block):
                break
            parts.append(block)
            need -= len(block)
        self._block, self._pos = block, need
        parts.append(block[:need])
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"


class Chromosome:
    """Immutable fixed-length bit string, hashable so it can key a dict.

    Bits are packed eight per byte (gene 0 in the most significant bit of
    byte 0), so equality, hashing and popcounts touch l/8 bytes rather than
    l alleles. The unpacked array is kept alongside for vector arithmetic:
    ``bits`` is the read-only uint8 array of alleles, gene 0 first.

    The constructor takes any one-dimensional sequence of exact 0/1 values
    (a bool array needs no check) and stores its own read-only uint8 copy,
    so writing to the caller's array, or to the base of a view, never
    changes a chromosome. It is the only way to build one, sampled
    chromosomes included, so the benchmark's timing of ``__init__`` covers
    the packing of every chromosome a run makes. The hash is that of
    ``packed``, which bytes compute once and keep.
    """

    __slots__ = ("packed", "length", "bits")

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
        bits = arr.astype(np.uint8)
        bits.setflags(write=False)
        self.length: int = bits.shape[0]
        self.packed: bytes = np.packbits(bits).tobytes()
        self.bits: np.ndarray = bits

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
        return hash(self.packed)  # "1" and "10" collide; __eq__ compares length

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits.tolist())

    def __repr__(self) -> str:
        return f"Chromosome({str(self)!r})"
