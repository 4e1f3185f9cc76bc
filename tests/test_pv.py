from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import reference_algos as ref
from compactga import Chromosome, ProbabilityVector, Rng, compete
from states import bitstring as chrom
from states import vector


def test_initial_state_is_all_half():
    pv = ProbabilityVector(5, 10)
    assert pv.numerators == (10,) * 5
    assert not pv.is_converged()


def test_constructor_validation():
    with pytest.raises(ValueError):
        ProbabilityVector(0, 10)
    with pytest.raises(ValueError):
        ProbabilityVector(4, 0)


@pytest.mark.parametrize(
    "name,args",
    [("length", (8.0, 4)), ("population_size", (8, 4.5)), ("length", (True, 4)), ("population_size", (8, True))],
)
def test_constructor_rejects_non_integral_sizes(name, args):
    with pytest.raises(TypeError, match=name):
        ProbabilityVector(*args)


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
    pv = vector(nums, n)
    assert pv.numerators == tuple(nums)
    w = data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    lo = data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    pv.update(Chromosome(np.array(w, dtype=np.uint8)), Chromosome(np.array(lo, dtype=np.uint8)))
    for before, after, wi, li in zip(nums, pv.numerators, w, lo):
        expected = min(max(before + 2 * (wi - li), 0), 2 * n)
        assert after == expected


def test_is_converged_examples():
    assert vector([18, 0, 18], 9).is_converged()
    assert not vector([9, 18], 9).is_converged()
    assert not ProbabilityVector(17, 4).is_converged()


def full_scan_converged(pv):
    return all(k in (0, 2 * pv.population_size) for k in pv.numerators)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.sampled_from([0, 2 * n, n, 1, 2 * n - 1]), min_size=1, max_size=12),
        )
    ),
    st.data(),
)
def test_is_converged_matches_a_full_scan_after_every_update(n_and_nums, data):
    # starts mostly saturated, so updates both settle open genes and re-open
    # saturated ones, including the witness and genes the witness does not cover
    n, nums = n_and_nums
    length = len(nums)
    pv = vector(nums, n)
    assert pv.is_converged() == full_scan_converged(pv)
    bits = st.lists(st.integers(0, 1), min_size=length, max_size=length)
    steps = data.draw(st.lists(st.tuples(bits, bits), max_size=40))
    for w, lo in steps:
        before = pv.numerators
        pv.update(Chromosome(np.array(w, dtype=np.uint8)), Chromosome(np.array(lo, dtype=np.uint8)))
        if any(b in (0, 2 * n) and 0 < a < 2 * n for b, a in zip(before, pv.numerators)):
            event("a saturated gene re-opened")
        assert pv.is_converged() == full_scan_converged(pv)


def test_is_converged_sees_a_saturated_gene_reopen():
    pv = vector([4, 2], 2)
    assert not pv.is_converged()  # gene 0 scanned as settled, gene 1 open
    pv.update(chrom("01"), chrom("10"))  # gene 0 re-opens, gene 1 settles
    assert pv.numerators == (2, 4)
    assert not pv.is_converged()
    pv.update(chrom("11"), chrom("01"))
    assert pv.numerators == (4, 4)
    assert pv.is_converged()


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2 * n), min_size=1, max_size=12))
    ),
    st.data(),
)
def test_sample_reads_the_current_entries_after_every_step(n_and_nums, data):
    # small n makes a stale entry 1/n off, so a sample from it shows quickly
    n, nums = n_and_nums
    length = len(nums)
    pv = vector(nums, n)
    exact = [Fraction(k, 2 * n) for k in nums]
    bits = st.lists(st.integers(0, 1), min_size=length, max_size=length)
    steps = data.draw(st.lists(st.one_of(st.tuples(bits, bits), bits.map(lambda b: (b, b))), max_size=20))
    seeds = st.integers(0, 2**64 - 1)
    for step in [None, *steps]:  # the first sample follows vector() directly
        if step is not None:
            w, lo = step
            pv.update(Chromosome(np.array(w, dtype=np.uint8)), Chromosome(np.array(lo, dtype=np.uint8)))
            ref.update(exact, n, w, lo)
        assert pv.numerators == tuple(int(p * 2 * n) for p in exact)
        seed = data.draw(seeds)
        assert tuple(pv.sample(Rng(seed)).bits.tolist()) == ref.sample(exact, Rng(seed))


class _BoundaryUniforms:
    """Stands in for an Rng: hands out each gene's exact quotient k/2n, or the double just below it."""

    def __init__(self, probs, below):
        self._u = [float(p) for p in probs]
        if below:
            self._u = [np.nextafter(u, 0.0) for u in self._u]

    def uniforms(self, count):
        assert count == len(self._u)
        return np.array(self._u)


# per step, each gene moves up (+1), down (-1) or stays (0): the first step
# sends each gene toward its nearer edge before a clamp can change its parity,
# four steps down then push the genes near 0 past it, and eight up those near 2n
_EDGE_STEPS = (
    [[-1, -1, -1, 0, +1, +1, +1]]
    + [[-1] * 7] * 4
    + [[+1] * 7] * 8
    + [[+1, -1, 0, +1, -1, 0, +1], [0] * 7, [-1, +1, -1, 0, +1, -1, 0]]
)


@pytest.mark.parametrize("n", [1, 2, 3, 99, 100, 12_345, 10**6])
def test_table_lookups_are_exact_at_the_edges_for_small_and_large_n(n):
    # numerators 1 and 2n-1 are reachable from 1/2 only for odd n; starting
    # there at every n hits both parities of the clamp table's edges
    nums = [0, 1, 2, n, 2 * n - 2, 2 * n - 1, 2 * n]
    pv = vector(nums, n)
    assert pv.numerators == tuple(nums)
    for step, moves in enumerate(_EDGE_STEPS):
        w = np.array([d == +1 for d in moves], dtype=np.uint8)
        lo = np.array([d == -1 for d in moves], dtype=np.uint8)
        pv.update(Chromosome(w), Chromosome(lo))
        nums = [min(max(k + 2 * d, 0), 2 * n) for k, d in zip(nums, moves)]
        assert pv.numerators == tuple(nums)
        exact = [Fraction(k, 2 * n) for k in nums]
        seed = 1000 * n + step
        assert tuple(pv.sample(Rng(seed)).bits.tolist()) == ref.sample(exact, Rng(seed))
        for below in (False, True):
            boundary = _BoundaryUniforms(exact, below)
            assert tuple(pv.sample(boundary).bits.tolist()) == ref.sample(exact, boundary)


class _RecordingRng(Rng):
    def __init__(self, seed):
        super().__init__(seed)
        self.handed_out = []

    def uniforms(self, count):
        u = super().uniforms(count)
        self.handed_out.append(u)
        return u


def test_sampled_chromosomes_own_their_bits():
    pv = ProbabilityVector(20, 3)
    rng = _RecordingRng(11)
    samples = []
    for i in range(40):
        if i % 3 == 0:
            pv.update(chrom("10" * 10), chrom("01" * 10))
        c = pv.sample(rng)
        assert not c.bits.flags.writeable
        with pytest.raises(ValueError):
            c.bits[0] = 1 - c.bits[0]
        if samples:
            assert not np.shares_memory(c.bits, samples[-1][0].bits)
        assert not any(np.shares_memory(c.bits, u) for u in rng.handed_out)
        copy = Chromosome(c.bits.copy())
        assert c == copy and c.packed == copy.packed and hash(c) == hash(copy)
        samples.append((c, str(c)))
    # later samples and updates never changed an earlier chromosome
    assert all(str(c) == text for c, text in samples)


def test_every_sample_is_built_by_the_constructor(monkeypatch):
    # the benchmark's chromosome.init.* metrics time Chromosome.__init__
    calls = []
    init = Chromosome.__init__

    def counting_init(self, bits):
        calls.append(1)
        init(self, bits)

    monkeypatch.setattr(Chromosome, "__init__", counting_init)
    pv, rng = ProbabilityVector(12, 3), Rng(5)
    for _ in range(20):
        pv.update(*compete(pv.sample(rng), 0, pv.sample(rng), 1))
    assert len(calls) == 40


def test_sample_after_update_reads_the_new_entries():
    pv = ProbabilityVector(1, 1)  # p = 1/2; one step saturates it
    pv.sample(Rng(0))
    pv.update(chrom("1"), chrom("0"))
    assert all(str(pv.sample(Rng(seed))) == "1" for seed in range(20))
    pv.update(chrom("0"), chrom("1"))
    pv.update(chrom("0"), chrom("1"))
    assert all(str(pv.sample(Rng(seed))) == "0" for seed in range(20))


def test_converged_entries_are_absorbing():
    pv = vector([8, 4], 4)
    rng = Rng(3)
    for _ in range(50):
        c = pv.sample(rng)
        assert c.bits[0] == 1  # pinned gene always sampled as 1
    pv.update(chrom("11"), chrom("10"))  # pinned gene agrees, other moves
    assert pv.numerators[0] == 8
    assert pv.numerators[1] == 6


def test_decode_marks_only_probability_one():
    pv = vector([10, 0, 10], 5)
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
