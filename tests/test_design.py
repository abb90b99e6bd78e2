"""Design module: inclusion probabilities, allocation, and draws."""

import itertools

import numpy as np
import pytest
from oracles import joint_matrix
from scipy.stats import chisquare

from survey_impute.design import (
    SampleDraw,
    draw_srswor,
    draw_stratified,
    neyman_allocation,
    stratum_sizes,
)
from survey_impute.errors import InvalidDesignError
from survey_impute.variance import v1_hat


def srswor_design(N, n):
    """(N_h, n_h) of SRSWOR, the one stratum."""
    return (N,), (n,)


def two_strata_design(N1, N2, n1, n2):
    return (N1, N2), (n1, n2)


def population_strata(design):
    """Stratum label of every population unit, strata as id blocks."""
    sizes, _ = design
    return np.repeat(np.arange(len(sizes)), sizes)


def joint_inclusion(design, strata, k, l):
    """pi_kl of two distinct units k, l, read off joint_matrix."""
    return float(joint_matrix(*design, [strata[k], strata[l]])[0, 1])


def delta(design, strata, k, l):
    """Delta_kl = pi_kl - pi_k pi_l, with pi_kk = pi_k, read off joint_matrix."""
    J = joint_matrix(*design, [strata[k], strata[l]])
    pi_kl = J[0, 0] if k == l else J[0, 1]
    return float(pi_kl - J[0, 0] * J[1, 1])


class TestFirstOrder:
    def test_census_is_certain(self):
        s = draw_srswor(4, 4, np.random.default_rng(0))
        assert np.array_equal(s.unit_ids, np.arange(4))
        assert np.all(s.pi_first == 1.0)

    def test_constant_fraction(self):
        s = draw_srswor(5000, 500, np.random.default_rng(1))
        assert np.all(s.pi_first == 0.1)

    def test_stratified_per_stratum(self):
        # two of the ten units of stratum 0, five of the twenty of stratum 1
        s = SampleDraw([3, 14, 9, 21, 12, 27, 18], [0, 1, 0, 1, 1, 1, 1], (10, 20))
        assert np.array_equal(s.allocations, [2, 5])
        assert np.all(s.pi_first[s.strata == 0] == 0.2)
        assert np.all(s.pi_first[s.strata == 1] == 0.25)

    def test_pi_sums_to_n_both_designs(self):
        # each population unit has its stratum's rate: sum_h N_h pi_h = n
        rng = np.random.default_rng(4)
        s1 = draw_srswor(100, 17, rng)
        s2 = draw_stratified(np.arange(22.0), rng.normal(size=22), [13 / 22, 9 / 22], 7, rng)
        for s, n in ((s1, 17), (s2, 7)):
            rate = np.bincount(s.strata, weights=s.pi_first) / s.allocations
            assert abs(float(rate @ s.population_sizes) - n) < 1e-12


class TestJointInclusion:
    def test_srswor_pair(self):
        d = srswor_design(4, 2)
        assert joint_inclusion(d, population_strata(d), 0, 3) == pytest.approx(1 / 6, abs=1e-15)

    def test_cross_stratum_is_product(self):
        d = two_strata_design(10, 20, 2, 5)
        # 0.2 and 0.25, independent draws
        assert joint_inclusion(d, population_strata(d), 0, 10) == pytest.approx(0.05, abs=1e-15)

    def test_same_stratum(self):
        d = two_strata_design(10, 10, 3, 2)
        assert joint_inclusion(d, population_strata(d), 0, 1) == pytest.approx(
            3 * 2 / (10 * 9), abs=1e-15
        )

    def test_diagonal_is_pi_k(self):
        # a unit is one unit: pi_kk = pi_k, not the within-stratum pair value
        d = two_strata_design(5, 6, 2, 3)
        J = joint_matrix(*d, [0, 0, 1, 1])
        assert np.array_equal(np.diag(J), [0.4, 0.4, 0.5, 0.5])
        assert J[0, 1] == pytest.approx(2 / 20, abs=1e-15)
        assert J[2, 3] == pytest.approx(6 / 30, abs=1e-15)

    def test_fixed_size_identity(self):
        # sum over l != k of pi_kl = (n - 1) pi_k for a fixed-size design
        d = srswor_design(9, 4)
        strata = population_strata(d)
        for k in range(9):
            total = sum(joint_inclusion(d, strata, k, l) for l in range(9) if l != k)
            assert total == pytest.approx(3 * 4 / 9, abs=1e-12)

    def test_exhaustive_enumeration_n8(self):
        # every C(8,3) sample equally likely: empirical pi and pi_kl exact
        N, n = 8, 3
        d = srswor_design(N, n)
        count_k = np.zeros(N)
        count_kl = np.zeros((N, N))
        samples = list(itertools.combinations(range(N), n))
        for s in samples:
            for k in s:
                count_k[k] += 1
            for k, l in itertools.combinations(s, 2):
                count_kl[k, l] += 1
                count_kl[l, k] += 1
        count_k /= len(samples)
        count_kl /= len(samples)
        strata = population_strata(d)
        assert np.allclose(count_k, draw_srswor(N, n, np.random.default_rng(0)).pi_first[0],
                           atol=1e-12)
        for k in range(N):
            for l in range(N):
                if k != l:
                    assert count_kl[k, l] == pytest.approx(
                        joint_inclusion(d, strata, k, l), abs=1e-12
                    )
                    assert joint_inclusion(d, strata, k, l) == pytest.approx(
                        3 * 2 / 56, abs=1e-15
                    )


class TestDelta:
    def test_census_zero(self):
        d = srswor_design(5, 5)
        strata = population_strata(d)
        assert delta(d, strata, 0, 1) == pytest.approx(0.0, abs=1e-15)
        assert delta(d, strata, 2, 2) == pytest.approx(0.0, abs=1e-15)

    def test_srswor_off_diagonal(self):
        d = srswor_design(4, 2)
        assert delta(d, population_strata(d), 0, 1) == pytest.approx(-1 / 12, abs=1e-15)

    def test_diagonal_is_bernoulli_variance(self):
        d = srswor_design(10, 3)
        assert delta(d, population_strata(d), 4, 4) == pytest.approx(0.3 * 0.7, abs=1e-15)

    def test_cross_stratum_zero(self):
        d = two_strata_design(6, 8, 2, 3)
        assert delta(d, population_strata(d), 0, 7) == pytest.approx(0.0, abs=1e-15)


class TestJointMatrix:
    @pytest.mark.parametrize("design", [srswor_design(12, 5), two_strata_design(7, 6, 3, 2)])
    def test_matches_scalar_ops(self, design):
        # every entry against the textbook pair formulas
        strata = population_strata(design)
        J = joint_matrix(*design, strata)
        N_h, n_h = map(np.asarray, design)
        assert np.allclose(np.diag(J), n_h[strata] / N_h[strata], atol=1e-15)
        for k in range(0, N_h.sum(), 2):
            for l in range(1, N_h.sum(), 3):
                if k == l:
                    continue
                h, g = strata[k], strata[l]
                if h == g:
                    want = n_h[h] * (n_h[h] - 1) / (N_h[h] * (N_h[h] - 1))
                else:
                    want = (n_h[h] / N_h[h]) * (n_h[g] / N_h[g])
                assert J[k, l] == pytest.approx(want, abs=1e-15)

    def test_symmetric(self):
        d = two_strata_design(5, 5, 2, 2)
        J = joint_matrix(*d, population_strata(d))
        assert np.array_equal(J, J.T)


class TestStratumSizes:
    def test_paper_fractions(self):
        sizes = stratum_sizes(5000, [0.5, 0.25, 0.20, 0.05])
        assert np.array_equal(sizes, [2500, 1250, 1000, 250])

    def test_rounding_sums_to_N(self):
        sizes = stratum_sizes(101, [1 / 3, 1 / 3, 1 / 3])
        assert sizes.sum() == 101

    def test_tiny_stratum_rejected(self):
        with pytest.raises(InvalidDesignError):
            stratum_sizes(20, [0.95, 0.05])

    def test_bad_fractions(self):
        with pytest.raises(InvalidDesignError):
            stratum_sizes(100, [0.6, 0.5])
        with pytest.raises(InvalidDesignError):
            stratum_sizes(100, [0.5, -0.5, 1.0])


class TestNeymanAllocation:
    def test_hand_example(self):
        # N_h S_h weights 10 and 30 split n=12 as 3 and 9
        alloc = neyman_allocation([10, 10], [1.0, 3.0], 12)
        assert np.array_equal(alloc, [3, 9])

    def test_constant_alloc_variable_falls_back_to_proportional(self):
        alloc = neyman_allocation([30, 10], [0.0, 0.0], 12)
        assert np.array_equal(alloc, [9, 3])

    def test_min_size_clamp(self):
        # weights 4 and 12 would split n=4 as 1 and 3; the floor is 2
        alloc = neyman_allocation([4, 4], [1.0, 3.0], 4)
        assert np.array_equal(alloc, [2, 2])

    def test_cap_clamp(self):
        # huge sd on a small stratum: capped at N_h, rest spills over
        alloc = neyman_allocation([3, 50], [100.0, 1.0], 20)
        assert alloc[0] == 3
        assert alloc.sum() == 20

    def test_cap_fixing_cannot_strand_floors(self):
        # heavy first stratum takes nearly everything, then the floors
        # of the others must still be honored
        alloc = neyman_allocation([3, 10, 10], [1000.0, 1.0, 1.0], 6)
        assert alloc.sum() == 6
        assert np.all(alloc >= 2)
        assert np.all(alloc <= [3, 10, 10])

    def test_larger_excess_side_is_pegged(self):
        # shares 1.26, 1.26 and 10.48: the floors are broken by 1.48 units
        # in total, the cap by 0.48, so the floors are pegged and the third
        # stratum takes the other 9
        alloc = neyman_allocation([6, 6, 10], [1.0, 1.0, 5.0], 13)
        assert np.array_equal(alloc, [2, 2, 9])

    def test_infeasible(self):
        with pytest.raises(InvalidDesignError):
            neyman_allocation([4, 4], [1.0, 1.0], 3)  # below the floor of 2 each
        with pytest.raises(InvalidDesignError):
            neyman_allocation([4, 4], [1.0, 1.0], 9)  # above the population


class TestDraws:
    def test_srswor_bad_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidDesignError, match="1 <= n <= N"):
            draw_srswor(10, 0, rng)
        with pytest.raises(InvalidDesignError, match="1 <= n <= N"):
            draw_srswor(10, 11, rng)

    def test_pair_frequencies_uniform(self):
        # N=6, n=2: all 15 pairs should be equally likely
        rng = np.random.default_rng(42)
        N, n, draws = 6, 2, 100_000
        counts = np.zeros((N, N))
        for _ in range(draws):
            ids = draw_srswor(N, n, rng).unit_ids
            counts[ids[0], ids[1]] += 1
        observed = counts[np.triu_indices(N, k=1)]
        assert observed.sum() == draws
        stat, p = chisquare(observed)
        assert p > 1e-4

    def test_stratified_blocks_and_pis(self):
        rng = np.random.default_rng(7)
        N = 40
        sort_key = np.arange(N, dtype=float)
        alloc_var = rng.normal(size=N)
        s = draw_stratified(sort_key, alloc_var, [0.5, 0.5], 10, rng)
        # ascending sort of an already sorted key: contiguous halves
        assert np.array_equal(s.population_sizes, [20, 20])
        assert np.array_equal(s.strata, s.unit_ids >= 20)
        assert np.all(np.diff(s.unit_ids) > 0)
        assert np.array_equal(s.allocations, np.bincount(s.strata))
        assert s.allocations.sum() == 10
        assert np.array_equal(s.pi_first, (s.allocations / 20)[s.strata])

    def test_stratified_tie_break_by_unit_index(self):
        rng = np.random.default_rng(3)
        N = 12
        s = draw_stratified(np.zeros(N), np.arange(N, dtype=float), [0.5, 0.5], 6, rng)
        # all keys equal: stable sort keeps id order, strata are id blocks
        assert np.array_equal(s.strata, s.unit_ids >= 6)

    def test_single_stratum_equals_srswor(self):
        # SRSWOR is the one-stratum design: on the same draw, every
        # design quantity is bit-equal to that of the flat (N, n) design
        rng = np.random.default_rng(11)
        s = draw_stratified(rng.normal(size=15), rng.normal(size=15), [1.0], 5, rng)
        flat = SampleDraw(s.unit_ids, np.zeros(5, dtype=np.int64), (15,))
        assert np.array_equal(s.strata, np.zeros(5))
        assert np.array_equal(s.pi_first, flat.pi_first)
        assert np.array_equal(s.allocations, flat.allocations)
        strata = np.zeros(15, dtype=np.int64)
        assert np.array_equal(joint_matrix(s.population_sizes, s.allocations, strata),
                              joint_matrix(*srswor_design(15, 5), strata))
        eta = rng.normal(size=5) * 3.0 + 10.0
        assert v1_hat(s, eta) == v1_hat(flat, eta)

    def test_draw_determinism(self):
        a = draw_srswor(100, 10, np.random.default_rng(5)).unit_ids
        b = draw_srswor(100, 10, np.random.default_rng(5)).unit_ids
        assert np.array_equal(a, b)


class TestValidation:
    def test_sample_draw_checks(self):
        zeros = np.zeros(3, dtype=np.int64)
        with pytest.raises(InvalidDesignError, match="duplicate"):
            SampleDraw(np.array([1, 1, 2]), zeros, (10,))
        with pytest.raises(InvalidDesignError, match="labels out of range"):
            SampleDraw(np.array([1, 2, 3]), np.array([0, 0, 1]), (10,))
        with pytest.raises(InvalidDesignError, match="labels out of range"):
            SampleDraw(np.array([1, 2, 3]), np.array([0, -1, 0]), (10,))
        with pytest.raises(InvalidDesignError, match="matching"):
            SampleDraw(np.array([1, 2, 3]), zeros[:2], (10,))
        with pytest.raises(InvalidDesignError, match="matching"):
            SampleDraw(np.array([[1, 2, 3]]), zeros[None, :], (10,))
        with pytest.raises(InvalidDesignError, match="out of range"):
            SampleDraw(np.array([1, 2, 10]), zeros, (10,))
        with pytest.raises(InvalidDesignError, match="out of range"):
            SampleDraw(np.array([-1, 2, 3]), zeros, (10,))
        s = SampleDraw(np.array([4, 0, 7]), zeros, (10,))
        assert np.array_equal(s.pi_first, np.full(3, 0.3))
        assert np.array_equal(s.allocations, [3])
        assert (s.population_size, s.n) == (10, 3)
        assert not s.pi_first.flags.writeable

    def test_counted_allocation_checks(self):
        # n_h is the count of each stratum's labels, held to 1 <= n_h <= N_h
        with pytest.raises(InvalidDesignError, match="stratum sizes"):
            SampleDraw([], [], ())
        with pytest.raises(InvalidDesignError, match="stratum sizes"):
            SampleDraw([0], [0], [[10]])
        with pytest.raises(InvalidDesignError, match="1 <= n_h <= N_h"):
            SampleDraw([], [], (10,))  # an empty draw
        with pytest.raises(InvalidDesignError, match="1 <= n_h <= N_h"):
            SampleDraw([0, 1, 2], [0, 0, 0], (10, 10))  # stratum 1 is empty
        with pytest.raises(InvalidDesignError, match="1 <= n_h <= N_h"):
            # distinct in-range ids, but four of them in a stratum of three
            SampleDraw([0, 1, 2, 3, 4, 5], [0, 0, 0, 0, 1, 1], (3, 10))
        with pytest.raises(InvalidDesignError, match=">= 2"):
            # n_h = 1 breaks within-stratum joint inclusion
            SampleDraw([0, 3, 4], [0, 1, 1], (3, 3))
        # a one-unit SRSWOR draw stays legal, and so does a census
        one = SampleDraw([4], [0], (10,))
        assert (one.n, one.allocations.tolist(), one.pi_first.tolist()) == (1, [1], [0.1])
        census = SampleDraw(np.arange(9), np.repeat([0, 1], [4, 5]), (4, 5))
        assert census.population_size == 9
        assert np.array_equal(census.allocations, [4, 5])
        assert np.all(census.pi_first == 1.0)

    def test_sample_draw_arrays_are_read_only_copies(self):
        ids, labels, sizes = np.array([5, 1, 12, 8]), np.array([0, 0, 1, 1]), np.array([7, 9])
        s = SampleDraw(ids, labels, sizes)
        assert np.array_equal(s.population_sizes, [7, 9])
        assert np.array_equal(s.allocations, [2, 2])
        assert (s.population_size, s.n) == (16, 4)
        for name in ("unit_ids", "strata", "population_sizes", "allocations", "pi_first"):
            assert not getattr(s, name).flags.writeable, name
        # the caller's arrays are left alone: still writable, and a write
        # to them does not reach the draw
        for arg in (ids, labels, sizes):
            assert arg.flags.writeable
        ids[0], labels[0], sizes[0] = 2, 1, 1
        assert (s.unit_ids[0], s.strata[0], s.population_sizes[0]) == (5, 0, 7)
