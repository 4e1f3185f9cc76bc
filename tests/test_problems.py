import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compactga import Chromosome, binary_integer, fitness_function, onemax
from states import bitstring


@pytest.mark.parametrize(
    "text,expected", [("00", 0), ("01", 1), ("10", 1), ("11", 2)]
)
def test_onemax_two_bit_table(text, expected):
    assert onemax(bitstring(text)) == expected


@pytest.mark.parametrize(
    "text,expected", [("00", 0), ("01", 1), ("10", 2), ("11", 3)]
)
def test_binary_integer_two_bit_table(text, expected):
    assert binary_integer(bitstring(text)) == expected


def test_binary_integer_all_zeros_30_bits():
    assert binary_integer(bitstring("0" * 30)) == 0


def test_binary_integer_all_ones_30_bits():
    assert binary_integer(bitstring("1" * 30)) == 2**30 - 1


def test_binary_integer_rejects_over_63_bits():
    assert binary_integer(bitstring("1" * 63)) == 2**63 - 1
    with pytest.raises(ValueError):
        binary_integer(bitstring("1" * 64))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=100))
def test_onemax_plus_complement_is_length(bits):
    arr = np.array(bits, dtype=np.uint8)
    assert onemax(Chromosome(arr)) + onemax(Chromosome(1 - arr)) == len(bits)


@pytest.mark.parametrize("length", [1, 5, 12, 16])
def test_binary_integer_is_a_bijection(length):
    # oracle: each value is constructed independently via format()
    seen = set()
    for value in range(2**length):
        c = bitstring(format(value, f"0{length}b"))
        got = binary_integer(c)
        assert got == value
        seen.add(got)
    assert len(seen) == 2**length


def test_fitness_function_registry():
    assert fitness_function("onemax") is onemax
    assert fitness_function("binint") is binary_integer
    with pytest.raises(ValueError):
        fitness_function("rastrigin")
