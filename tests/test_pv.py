from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compactga import Chromosome, ProbabilityVector, compete


def chrom(text):
    return Chromosome.from_text(text)


def test_initial_state_is_all_half():
    pv = ProbabilityVector(5, 10)
    assert pv.numerators == (10,) * 5
    assert not pv.is_converged()


def test_constructor_validation():
    with pytest.raises(ValueError):
        ProbabilityVector(0, 10)
    with pytest.raises(ValueError):
        ProbabilityVector(4, 0)


@pytest.mark.parametrize("name,args", [("length", (8.0, 4)), ("population_size", (8, 4.5))])
def test_constructor_rejects_non_integral_sizes(name, args):
    with pytest.raises(TypeError, match=name):
        ProbabilityVector(*args)


def test_from_probabilities_requires_representable_entries():
    pv = ProbabilityVector.from_probabilities([0.0, 0.25, 1.0], 2)
    assert pv.numerators == (0, 1, 4)
    with pytest.raises(ValueError):
        ProbabilityVector.from_probabilities([0.3], 2)  # not a multiple of 1/4
    with pytest.raises(ValueError):
        ProbabilityVector.from_probabilities([1.5], 2)


def test_update_moves_entries_by_one_over_n():
    pv = ProbabilityVector(2, 10)
    pv.update(chrom("11"), chrom("00"))
    assert pv.numerators == (12, 12)
    pv.update(chrom("01"), chrom("10"))
    assert pv.numerators == (10, 14)


def test_update_is_noop_when_winner_equals_loser():
    pv = ProbabilityVector(3, 7)
    pv.update(chrom("101"), chrom("101"))
    assert pv.numerators == (7, 7, 7)


def test_update_rejects_length_mismatch():
    pv = ProbabilityVector(3, 7)
    with pytest.raises(ValueError):
        pv.update(chrom("10"), chrom("01"))


def test_update_clamps_to_exactly_one_for_odd_n():
    # 1/2 -> 5/6 -> 7/6 clamped: exact 1.0 is reachable although 0.5 + k/3 never is
    pv = ProbabilityVector(1, 3)
    pv.update(chrom("1"), chrom("0"))
    assert pv.numerators == (5,)
    pv.update(chrom("1"), chrom("0"))
    assert pv.numerators == (6,)
    assert pv.is_converged()


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, 2 * n), min_size=1, max_size=32),
        )
    ),
    st.data(),
)
def test_update_step_is_plus_minus_two_numerator_units(n_and_nums, data):
    n, nums = n_and_nums
    length = len(nums)
    pv = ProbabilityVector.from_probabilities([k / (2 * n) for k in nums], n)
    assert pv.numerators == tuple(nums)
    w = data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    lo = data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    pv.update(Chromosome(np.array(w, dtype=np.uint8)), Chromosome(np.array(lo, dtype=np.uint8)))
    for before, after, wi, li in zip(nums, pv.numerators, w, lo):
        expected = min(max(before + 2 * (wi - li), 0), 2 * n)
        assert after == expected


def test_is_converged_examples():
    assert ProbabilityVector.from_probabilities([1.0, 0.0, 1.0], 9).is_converged()
    assert not ProbabilityVector.from_probabilities([0.5, 1.0], 9).is_converged()
    assert not ProbabilityVector(17, 4).is_converged()


def test_converged_entries_are_absorbing():
    pv = ProbabilityVector.from_probabilities([1.0, 0.5], 4)
    from compactga import Rng

    rng = Rng(3)
    for _ in range(50):
        c = pv.sample(rng)
        assert c.bits[0] == 1  # pinned gene always sampled as 1
    pv.update(chrom("11"), chrom("10"))  # pinned gene agrees, other moves
    assert pv.numerators[0] == 8
    assert pv.numerators[1] == 6


def test_decode_marks_only_probability_one():
    pv = ProbabilityVector.from_probabilities([1.0, 0.0, 1.0], 5)
    assert str(pv.decode()) == "101"


def test_compete_prefers_higher_fitness():
    a, b = chrom("11"), chrom("00")
    assert compete(a, 2, b, 0) == (a, b)
    assert compete(b, 0, a, 2) == (a, b)


def test_compete_tie_goes_to_first_argument():
    a, b = chrom("01"), chrom("10")
    winner, loser = compete(a, 1, b, 1)
    assert winner is a and loser is b
    winner, loser = compete(b, 1, a, 1)
    assert winner is b and loser is a


def test_compete_identical_chromosomes():
    a = chrom("0110")
    winner, loser = compete(a, 2, a, 2)
    assert winner is a and loser is a
    pv = ProbabilityVector(4, 6)
    pv.update(winner, loser)
    assert pv.numerators == (6, 6, 6, 6)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_compete_is_a_total_deterministic_order(fa, fb):
    a, b = chrom("0011"), chrom("1100")
    w1, _ = compete(a, fa, b, fb)
    w2, _ = compete(b, fb, a, fa)
    if fa != fb:
        assert w1 is w2
    else:
        assert w1 is a and w2 is b
