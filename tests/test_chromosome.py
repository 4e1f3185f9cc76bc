import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import compactga
from compactga import CachedEvaluator, Chromosome, FitnessCache, ProbabilityVector, Rng, Variant, chromosome, onemax
from compactga.chromosome import _BLOCK, _READ_AHEAD
from states import bitstring, vector

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=80)


def test_text_roundtrip():
    c = bitstring("0110")
    assert str(c) == "0110"
    assert c.length == 4
    assert c.bits.tolist() == [0, 1, 1, 0]
    rng = np.random.default_rng(0)
    # lengths across the first two byte boundaries, around 64 bits, and a long genome
    for length in [*range(1, 18), 63, 64, 65, 10_000]:
        for bits in (rng.integers(0, 2, length), np.zeros(length, np.uint8), np.ones(length, np.uint8)):
            text = "".join(map(str, bits.tolist()))
            assert str(Chromosome(bits)) == str(bitstring(text)) == text


def test_constructor_rejects_bad_alleles():
    with pytest.raises(ValueError):
        Chromosome(np.array([0, 2, 1]))
    with pytest.raises(ValueError):
        Chromosome(np.array([], dtype=np.uint8))


@pytest.mark.parametrize(
    "bits,gene",
    [
        (np.array([0.5, 1.7]), 0),
        (np.array([1.0, 0.0, 1.7]), 2),
        (np.array([0.0, np.nan]), 1),
        (np.array([1, 257]), 1),
        (np.array([0, -1]), 1),
        ([1, 0, 2], 2),
    ],
)
def test_constructor_rejects_non_binary_alleles_before_casting(bits, gene):
    with pytest.raises(ValueError, match=f"at gene {gene}$"):
        Chromosome(bits)


def test_constructor_accepts_exact_zeros_and_ones_of_any_dtype():
    for bits in (np.array([1.0, 0.0, 1.0]), np.array([1, 0, 1]), np.array([True, False, True]), [1, 0, 1]):
        assert str(Chromosome(bits)) == "101"


def test_constructor_leaves_the_callers_array_writable():
    bits = np.array([0, 1, 1], dtype=np.uint8)
    Chromosome(bits)
    bits[0] = 1  # raises if the constructor froze the caller's array


def test_writing_a_views_base_leaves_the_chromosome_unchanged():
    base = np.array([0, 1, 1, 0], dtype=np.uint8)
    c = Chromosome(base[1:3])
    base[1:3] = 0
    assert str(c) == "11"
    assert c.bits.tolist() == [1, 1]
    assert c == bitstring("11")


def test_equality_is_bitwise():
    assert bitstring("0101") == Chromosome(np.array([0, 1, 0, 1]))
    assert bitstring("0101") != bitstring("0100")


def test_equal_packed_bytes_but_different_length_are_distinct():
    # "1" and "10" pack to the same byte; length must disambiguate
    assert bitstring("1").packed == bitstring("10").packed
    assert bitstring("1") != bitstring("10")
    # their hashes are equal, so only equality keeps them apart as cache keys
    assert len({bitstring("1"): 1, bitstring("10"): 2}) == 2


def test_gene_zero_is_most_significant_bit():
    assert bitstring("10000001").packed == bytes([0b1000_0001])
    assert bitstring("10").to_int() == 2


@given(bit_lists)
def test_pack_unpack_roundtrip(bits):
    c = Chromosome(np.array(bits, dtype=np.uint8))
    assert c.bits.tolist() == bits
    assert str(c) == "".join(map(str, bits))
    assert c.ones() == sum(bits)


@given(bit_lists)
def test_equal_chromosomes_hash_equal(bits):
    a = Chromosome(np.array(bits, dtype=np.uint8))
    b = bitstring("".join(map(str, bits)))
    assert a == b
    assert hash(a) == hash(b)


def test_bits_are_read_only():
    c = bitstring("0101")
    with pytest.raises(ValueError):
        c.bits[0] = 1


def test_rng_same_seed_same_stream():
    a = Rng(987654321).uniforms(64)
    b = Rng(987654321).uniforms(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Rng(987654322).uniforms(64))


@pytest.mark.parametrize("count,error", [(-1, ValueError), (2.5, TypeError), (True, TypeError), ("3", TypeError)])
def test_rng_rejects_bad_counts(count, error):
    with pytest.raises(error, match="count"):
        Rng(7).uniforms(count)


# counts around 0, around a block refill and of at least a block
draw_counts = st.lists(
    st.one_of(st.integers(0, 40), st.integers(_BLOCK - 40, _BLOCK + 40), st.integers(2 * _BLOCK - 2, 2 * _BLOCK + 2)),
    max_size=12,
)


@given(st.integers(0, 2**64 - 1), draw_counts)
def test_block_reads_equal_one_read_of_the_stream(seed, counts):
    rng = Rng(seed)
    handed_out = [(rng.uniforms(count), count) for count in counts]
    # checked only after every draw, so an overwritten earlier array shows too
    stream = np.random.Generator(np.random.PCG64(seed)).random(sum(counts))
    offset = 0
    for u, count in handed_out:
        assert u.dtype == np.float64 and u.shape == (count,)
        assert np.array_equal(u, stream[offset:offset + count])
        offset += count


small_counts = st.lists(st.integers(0, 40), max_size=4)
# around a block, around a background read, and long enough for two refills in one request
mixed_counts = st.lists(
    st.one_of(
        st.integers(0, 40),
        st.integers(_BLOCK - 2, _BLOCK + 2),
        st.integers(_READ_AHEAD - 2, _READ_AHEAD + 2),
        st.integers(2 * _READ_AHEAD + 1, 2 * _READ_AHEAD + 40),
    ),
    max_size=6,
)


@given(st.integers(0, 2**64 - 1), small_counts, st.integers(_BLOCK, _BLOCK + 40), mixed_counts)
def test_read_ahead_equals_one_read_of_the_stream(seed, before, first_long, after):
    counts = before + [first_long] + after  # the first long request switches to read-ahead
    rng = Rng(seed)
    handed_out = [(rng.uniforms(count), count) for count in counts]
    # checked only after every draw, so an array overwritten by a later read shows too
    stream = np.random.Generator(np.random.PCG64(seed)).random(sum(counts))
    offset = 0
    for u, count in handed_out:
        assert u.dtype == np.float64 and u.shape == (count,)
        assert np.array_equal(u, stream[offset:offset + count])
        offset += count


def test_a_short_genome_run_starts_no_thread(monkeypatch):
    # as if no long draw had come first in this process, so a started reader would show
    monkeypatch.setattr(chromosome, "_reads", None)
    before = threading.active_count()
    evaluator = CachedEvaluator(onemax, FitnessCache(4))
    Variant("cga").run(length=100, population_size=10, evaluator=evaluator, rng=Rng(3))
    assert threading.active_count() == before
    assert chromosome._reads is None


def test_a_failed_background_read_raises_where_the_stream_is_drawn():
    rng = Rng(1)
    rng._gen = None  # the reader thread's fill raises AttributeError
    errors = []

    def draw_twice():  # the second draw raises again, rather than waiting forever
        for _ in range(2):
            with pytest.raises(AttributeError) as err:
                rng.uniforms(_BLOCK)
            errors.append(err.value)

    thread = threading.Thread(target=draw_twice, daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert len(errors) == 2
    # the reader thread outlives the failure
    stream = np.random.Generator(np.random.PCG64(2)).random(2 * _READ_AHEAD)
    assert np.array_equal(Rng(2).uniforms(2 * _READ_AHEAD), stream)


def test_threads_drawing_at_once_each_get_their_own_stream():
    counts = [_BLOCK, 7, _READ_AHEAD + 3, 10_000, 2 * _READ_AHEAD + 5, 1] * 2
    results = {}

    def draw(seed):
        rng = Rng(seed)
        results[seed] = np.concatenate([rng.uniforms(count) for count in counts])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,), daemon=True) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for seed in range(6):
        assert np.array_equal(results[seed], np.random.Generator(np.random.PCG64(seed)).random(sum(counts)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_reads_ahead_on_a_thread_of_its_own():
    seed = 11
    Rng(seed).uniforms(10_000)  # starts this process's reader thread
    pid = os.fork()
    if pid == 0:
        verdict = 1
        try:
            signal.alarm(30)  # a read queued on the parent's thread would never finish
            rng = Rng(seed)
            draws = np.concatenate([rng.uniforms(10_000) for _ in range(3)])
            stream = np.random.Generator(np.random.PCG64(seed)).random(30_000)
            verdict = 0 if np.array_equal(draws, stream) else 1
        finally:
            os._exit(verdict)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("finished", [False, True], ids=["in-flight", "finished"])
def test_a_read_carried_across_a_fork_raises_in_the_child(finished):
    rng = Rng(5)
    rng.uniforms(10_000)  # reads ahead: the next read is queued on this process's thread
    if finished:
        rng._ahead[1].put(rng._ahead[1].get())
    pid = os.fork()
    if pid == 0:
        verdict = 1
        try:
            signal.alarm(30)  # a wait for the parent's thread would never end
            try:
                for _ in range(_READ_AHEAD // 10_000 + 1):  # the last draw needs a refill
                    rng.uniforms(10_000)
            except RuntimeError:
                verdict = 0
        finally:
            os._exit(verdict)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's compactga."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(compactga.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)


def test_every_rng_of_a_process_reads_ahead_on_one_thread():
    # a fresh interpreter, so no reader thread of an earlier test is counted
    proc = run_python(
        "import threading\n"
        "from compactga import Rng\n"
        "for seed in range(5):\n"
        "    Rng(seed).uniforms(10_000)\n"
        "print(sum(thread.name == 'compactga-rng' for thread in threading.enumerate()))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_a_process_exits_with_a_read_in_flight():
    proc = run_python("from compactga import Rng; Rng(1).uniforms(10_000)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_rng_rejects_out_of_range_seeds(seed):
    with pytest.raises(ValueError):
        Rng(seed)


@pytest.mark.parametrize("seed", [1.7, 1.0, "1", True, False])
def test_rng_rejects_non_integral_seeds(seed):
    with pytest.raises(TypeError, match="seed"):
        Rng(seed)


def test_sample_with_forced_probabilities():
    ones = vector([20, 20], 10)
    zeros = vector([0, 0], 10)
    for seed in (0, 1, 31337):
        assert str(ones.sample(Rng(seed))) == "11"
        assert str(zeros.sample(Rng(seed))) == "00"


def test_sample_is_deterministic_per_seed():
    pv = ProbabilityVector(40, 10)
    assert pv.sample(Rng(5)) == pv.sample(Rng(5))


def test_sample_consumes_one_draw_per_gene_even_when_forced():
    pv = vector([8, 0, 8], 4)
    consumed = Rng(99)
    pv.sample(consumed)
    skipped = Rng(99)
    skipped.uniforms(3)
    assert consumed.uniforms(4).tolist() == skipped.uniforms(4).tolist()


def test_sample_fraction_of_ones_matches_probability():
    pv = ProbabilityVector(1, 2)  # single gene at 0.5
    rng = Rng(20240811)
    ones = sum(pv.sample(rng).ones() for _ in range(100_000))
    assert abs(ones / 100_000 - 0.5) <= 0.01
