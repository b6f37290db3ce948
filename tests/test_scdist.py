"""Unit tests for pairwise stopping-index distributions."""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplex import (
    ComputationRefused,
    EmpiricalSCDist,
    GeometricSCDist,
    PairwiseSCDist,
    PointMassSCDist,
    UndefinedMomentError,
    enumerate_orderings_oracle,
    pairwise_verification,
    total_variation,
)

from oracles import (
    PAIRWISE_EXACT_MAX_L,
    enumerate_orderings_reference,
    geometric_moment_series,
    mc_pairwise_oracle,
    pairwise_cdf_reference,
    pairwise_moment_reference,
    pairwise_pmf_reference,
    pairwise_stop_pmf,
)


class TestPairwiseExact:
    def test_pinned_L4_K2(self):
        dist = PairwiseSCDist(4, 2)
        assert dist.support() == range(1, 4)
        assert dist.pmf(1) == Fraction(1, 2)
        assert dist.pmf(2) == Fraction(1, 3)
        assert dist.pmf(3) == Fraction(1, 6)
        assert dist.cdf(2) == Fraction(5, 6)
        assert dist.moment(1) == Fraction(5, 3)

    def test_all_positions_disagree(self):
        dist = PairwiseSCDist(5, 5)
        assert dist.support() == range(1, 2)
        assert dist.pmf(1) == Fraction(1)

    def test_single_disagreement_is_uniform(self):
        dist = PairwiseSCDist(4, 1)
        assert [dist.pmf(i) for i in dist.support()] == [Fraction(1, 4)] * 4

    def test_pmf_is_zero_off_support(self):
        dist = PairwiseSCDist(4, 2)
        assert dist.pmf(0) == 0
        assert dist.pmf(4) == 0
        assert dist.cdf(0) == 0
        assert dist.cdf(17) == 1

    def test_mass_sums_to_one_exactly(self):
        for L in range(1, 9):
            for K in range(1, L + 1):
                dist = PairwiseSCDist(L, K)
                assert sum(dist.pmf(i) for i in dist.support()) == Fraction(1)

    def test_matches_permutation_oracle(self):
        for L in range(1, 7):
            for K in range(1, L + 1):
                dist = PairwiseSCDist(L, K)
                oracle = enumerate_orderings_oracle("0" * L, "1" * K + "0" * (L - K))
                for i in dist.support():
                    assert dist.pmf(i) == oracle.pmf(i), (L, K, i)

    def test_matches_independent_oracle(self):
        # recomputed from scratch in the test suite, not via the library
        for L in range(2, 6):
            for K in range(1, L + 1):
                dist = PairwiseSCDist(L, K)
                expected = pairwise_stop_pmf(L, K)
                got = {i: dist.pmf(i) for i in dist.support() if dist.pmf(i) > 0}
                assert got == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            PairwiseSCDist(0, 0)
        with pytest.raises(ValueError):
            PairwiseSCDist(4, 5)
        with pytest.raises(ValueError, match="pairwise_verification"):
            PairwiseSCDist(4, 0)

    def test_module_level_helpers_agree(self):
        assert PairwiseSCDist(4, 2).pmf(1) == Fraction(1, 2)
        assert PairwiseSCDist(4, 2).cdf(2) == Fraction(5, 6)
        assert 1 - PairwiseSCDist(4, 2).cdf(1) == Fraction(1, 2)

    def test_survival_to_pmf_relation(self):
        dist = PairwiseSCDist(7, 3)
        for i in dist.support():
            step = (1 - dist.cdf(i - 1)) - (1 - dist.cdf(i))
            assert dist.pmf(i) == step


TINY = Fraction(sys.float_info.min)


def assert_near_the_exact_law(dist: PairwiseSCDist, i: int) -> None:
    """Past the exact cutoff pmf(i) and cdf(i) are floats within L units
    of 2**-52 of the exact ratios: pmf relative in the normal range (and
    absolute at its floor below it), cdf absolute."""
    L, K = dist.L, dist.K
    bound = Fraction(L, 2**52)
    pmf, cdf = dist.pmf(i), dist.cdf(i)
    assert type(pmf) is type(cdf) is float, (L, K, i)
    want = pairwise_pmf_reference(L, K, i)
    assert abs(Fraction(pmf) - want) <= bound * max(want, TINY), (L, K, i, pmf)
    want = pairwise_cdf_reference(L, K, i)
    assert abs(Fraction(cdf) - want) <= bound, (L, K, i, cdf)


@pytest.mark.parametrize("L", [1, 2, 7, 20, 21, 31, 200])
def test_pmf_and_cdf_match_the_reference_in_value_and_type(L):
    # the support's ends come from the table; values off the support
    # keep the number type of the values on it
    for K in range(1, L + 1):
        dist = PairwiseSCDist(L, K)
        points = {-1, 0, L - K + 1, L - K + 2, L + 5, *dist.support()}
        for i in sorted(points):
            if L > PAIRWISE_EXACT_MAX_L:
                assert_near_the_exact_law(dist, i)
                continue
            got = dist.pmf(i), dist.cdf(i)
            want = pairwise_pmf_reference(L, K, i), pairwise_cdf_reference(L, K, i)
            assert got == want, (L, K, i)
            assert type(got[0]) is type(got[1]) is Fraction, (L, K, i)


def test_exact_moments_match_the_closed_form():
    for L in range(1, PAIRWISE_EXACT_MAX_L + 1):
        for K in range(1, L + 1):
            dist = PairwiseSCDist(L, K)
            for m in range(1, 5):
                got = dist.moment(m)
                assert type(got) is Fraction
                assert got == pairwise_moment_reference(L, K, m), (L, K, m)


# K = L // 2 stops at L = 10**4: an exact comb(10**6, 5 * 10**5) takes
# seconds a point
FLOAT_GRID = [
    (L, K)
    for L in (21, 200, 10**4, 10**6)
    for K in sorted({1, 3, 50, L - 1} | ({L // 2} if L <= 10**4 else set()))
    if K <= L
]


@pytest.mark.parametrize("L, K", FLOAT_GRID)
def test_the_float_path_is_within_L_ulps_of_the_exact_law(L, K):
    dist = PairwiseSCDist(L, K)
    n = L - K + 1
    for i in sorted({1, 2, *range(1, n + 1, max(1, n // 17)), n - 1, n} - {0}):
        assert_near_the_exact_law(dist, i)
    # each moment sums the whole support, so at L = 10**6 K = 1 and 3
    # (0.4 s apiece) check them
    for m in range(1, 5) if L < 10**6 or K <= 3 else ():
        got, want = dist.moment(m), pairwise_moment_reference(L, K, m)
        assert type(got) is float
        assert abs(Fraction(got) - want) <= Fraction(L, 2**52) * want, (m, got, want)


class TestPairwiseLarge:
    def test_float_path_past_the_exact_cutoff(self):
        dist = PairwiseSCDist(25, 3)
        assert type(dist.pmf(1)) is float
        bound = 25 * 2**-52
        total = math.fsum(dist.pmf(i) for i in dist.support())
        assert total == pytest.approx(1.0, rel=0, abs=bound)
        # spot-check against the direct combinatorial ratio
        assert dist.pmf(1) == pytest.approx(3 / 25, rel=bound)


class TestPointMass:
    def test_verification_runs_to_the_end(self):
        dist = pairwise_verification(4)
        assert dist == PointMassSCDist(4)
        assert dist.pmf(4) == Fraction(1)
        assert dist.pmf(3) == Fraction(0)
        assert dist.cdf(4) == Fraction(1)
        assert dist.moment(2) == Fraction(16)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            pairwise_verification(0)
        with pytest.raises(ValueError):
            PointMassSCDist(-1)


class TestGeometric:
    def test_pmf_and_cdf(self):
        dist = GeometricSCDist(0.25)
        assert dist.pmf(1) == 0.25
        assert dist.pmf(3) == pytest.approx(0.75**2 * 0.25)
        assert dist.cdf(2) == pytest.approx(1 - 0.75**2)
        assert dist.pmf(0) == 0.0

    def test_moments_match_closed_forms(self):
        for p in (0.1, 0.5, 0.9):
            dist = GeometricSCDist(p)
            assert dist.moment(1) == pytest.approx(1 / p, rel=1e-9)
            assert dist.moment(2) == pytest.approx((2 - p) / p**2, rel=1e-9)

    @pytest.mark.parametrize("p", (0.01, 0.1, 0.37, 0.5, 0.9, 1.0))
    def test_moments_match_the_series(self, p):
        dist = GeometricSCDist(p)
        for m in range(7):
            assert dist.moment(m) == pytest.approx(
                geometric_moment_series(p, m), rel=1e-11
            ), m

    def test_a_rare_halt_answers_at_once(self):
        # the series would sum about 1/p = 10**9 terms
        p = 1e-9
        dist = GeometricSCDist(p)
        started = time.perf_counter()
        first, second = dist.moment(1), dist.moment(2)
        assert time.perf_counter() - started < 0.01
        assert first == pytest.approx(1 / p, rel=1e-12)
        assert second == pytest.approx((2 - p) / p**2, rel=1e-12)
        # p**2 underflows; the moment overflows
        assert GeometricSCDist(1e-300).moment(2) == math.inf

    def test_a_negative_order_is_refused(self):
        with pytest.raises(ValueError):
            GeometricSCDist(0.5).moment(-1)

    def test_certain_halt_is_a_point_mass(self):
        dist = GeometricSCDist(1.0)
        assert dist.pmf(1) == 1.0
        assert dist.moment(3) == pytest.approx(1.0)

    def test_never_halting_has_no_moments(self):
        dist = GeometricSCDist(0.0)
        assert not dist.halts_almost_surely
        assert dist.pmf(5) == 0.0
        with pytest.raises(UndefinedMomentError):
            dist.moment(1)

    def test_memorylessness(self):
        dist = GeometricSCDist(0.3)
        # P(I > a + b | I > a) == P(I > b)
        for a, b in ((1, 2), (3, 4), (2, 5)):
            tail = lambda i: 1.0 - dist.cdf(i)
            assert tail(a + b) / tail(a) == pytest.approx(tail(b), rel=1e-9)

    def test_rejects_bad_probability(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                GeometricSCDist(bad)


class TestEmpirical:
    def test_counts_must_reconcile(self):
        with pytest.raises(ValueError):
            EmpiricalSCDist({1: 3}, trials=5)
        EmpiricalSCDist({1: 3}, trials=5, censored=2)

    def test_pmf_and_moment(self):
        dist = EmpiricalSCDist({1: 2, 3: 2}, trials=4)
        assert dist.pmf(1) == Fraction(1, 2)
        assert dist.pmf(2) == Fraction(0)
        assert dist.cdf(3) == Fraction(1)
        assert dist.moment(1) == pytest.approx(2.0)

    def test_censoring_shrinks_the_pmf_not_the_moment_base(self):
        dist = EmpiricalSCDist({2: 5}, trials=10, censored=5)
        assert dist.pmf(2) == Fraction(1, 2)
        assert dist.moment(1) == pytest.approx(2.0)

    def test_all_censored_has_no_moments(self):
        dist = EmpiricalSCDist({}, trials=3, censored=3)
        with pytest.raises(UndefinedMomentError):
            dist.moment(1)


class TestOracles:
    def test_enumeration_refuses_long_inputs(self):
        with pytest.raises(ComputationRefused):
            enumerate_orderings_oracle("0" * 11, "1" * 11)

    def test_enumeration_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            enumerate_orderings_oracle("00", "111")

    def test_mc_oracle_is_seeded_and_close(self):
        a = mc_pairwise_oracle("00000", "11000", trials=20_000, seed=3)
        b = mc_pairwise_oracle("00000", "11000", trials=20_000, seed=3)
        assert a.counts == b.counts
        exact = PairwiseSCDist(5, 2)
        tv = total_variation(
            {i: float(a.pmf(i)) for i in a.support()},
            {i: float(exact.pmf(i)) for i in exact.support()},
        )
        assert tv < 0.02

    def test_mc_oracle_counts_are_pinned(self):
        mc = mc_pairwise_oracle("0110100", "0011101", trials=1000, seed=7)
        assert mc.counts == {1: 424, 2: 303, 3: 162, 4: 82, 5: 29}

    def test_mc_oracle_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            mc_pairwise_oracle("01", "10", trials=0, seed=1)


@st.composite
def _equal_length_pairs(draw):
    L = draw(st.integers(1, 7))
    a = draw(st.text("01", min_size=L, max_size=L))
    if draw(st.booleans()):
        return a, a
    return a, draw(st.text("01", min_size=L, max_size=L))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_equal_length_pairs())
def test_enumeration_matches_the_per_order_loop(pair):
    a, b = pair
    fast = enumerate_orderings_oracle(a, b)
    slow = enumerate_orderings_reference(a, b)
    assert (fast.counts, fast.trials) == (slow.counts, slow.trials)


# past the hypothesis test's L = 7: K = 0, 1, a middle K and K = L
@pytest.mark.parametrize(
    "a, b",
    [
        ("01101001", "01101001"),
        ("01101001", "01111001"),
        ("01101001", "11001100"),
        ("01101001", "10010110"),
        ("010011010", "010011010"),
        ("010011010", "010011110"),
        ("010011010", "111010011"),
        ("010011010", "101100101"),
    ],
)
def test_weighted_patterns_count_every_reveal_order(a, b):
    L, K = len(a), sum(x != y for x, y in zip(a, b))
    fast = enumerate_orderings_oracle(a, b)
    slow = enumerate_orderings_reference(a, b)
    assert (fast.counts, fast.trials) == (slow.counts, slow.trials)
    assert fast.trials == math.factorial(L)
    weight = math.factorial(K) * math.factorial(L - K)
    assert all(n % weight == 0 for n in fast.counts.values())
