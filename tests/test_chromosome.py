import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compactga import Chromosome, ProbabilityVector, Rng
from compactga.chromosome import _BLOCK

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=80)


def test_text_roundtrip():
    c = Chromosome.from_text("0110")
    assert str(c) == "0110"
    assert len(c) == 4
    assert c.bits.tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("text", ["", "01x1", "2", "0 1"])
def test_from_text_rejects_non_bit_strings(text):
    with pytest.raises(ValueError):
        Chromosome.from_text(text)


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
    assert c == Chromosome.from_text("11")


def test_equality_is_bitwise():
    assert Chromosome.from_text("0101") == Chromosome(np.array([0, 1, 0, 1]))
    assert Chromosome.from_text("0101") != Chromosome.from_text("0100")


def test_equal_packed_bytes_but_different_length_are_distinct():
    # "1" and "10" pack to the same byte; length must disambiguate
    assert Chromosome.from_text("1").packed == Chromosome.from_text("10").packed
    assert Chromosome.from_text("1") != Chromosome.from_text("10")
    # their hashes are equal, so only equality keeps them apart as cache keys
    assert len({Chromosome.from_text("1"): 1, Chromosome.from_text("10"): 2}) == 2


def test_gene_zero_is_most_significant_bit():
    assert Chromosome.from_text("10000001").packed == bytes([0b1000_0001])
    assert Chromosome.from_text("10").to_int() == 2


@given(bit_lists)
def test_pack_unpack_roundtrip(bits):
    c = Chromosome(np.array(bits, dtype=np.uint8))
    assert c.bits.tolist() == bits
    assert str(c) == "".join(map(str, bits))
    assert c.ones() == sum(bits)


@given(bit_lists)
def test_equal_chromosomes_hash_equal(bits):
    a = Chromosome(np.array(bits, dtype=np.uint8))
    b = Chromosome.from_text("".join(map(str, bits)))
    assert a == b
    assert hash(a) == hash(b)


def test_bits_are_read_only():
    c = Chromosome.from_text("0101")
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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_rng_rejects_out_of_range_seeds(seed):
    with pytest.raises(ValueError):
        Rng(seed)


@pytest.mark.parametrize("seed", [1.7, 1.0, "1", True, False])
def test_rng_rejects_non_integral_seeds(seed):
    with pytest.raises(TypeError, match="seed"):
        Rng(seed)


def test_sample_with_forced_probabilities():
    ones = ProbabilityVector.from_probabilities([1.0, 1.0], 10)
    zeros = ProbabilityVector.from_probabilities([0.0, 0.0], 10)
    for seed in (0, 1, 31337):
        assert str(ones.sample(Rng(seed))) == "11"
        assert str(zeros.sample(Rng(seed))) == "00"


def test_sample_is_deterministic_per_seed():
    pv = ProbabilityVector(40, 10)
    assert pv.sample(Rng(5)) == pv.sample(Rng(5))


def test_sample_consumes_one_draw_per_gene_even_when_forced():
    pv = ProbabilityVector.from_probabilities([1.0, 0.0, 1.0], 4)
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
