"""Distributions of the stopping index when hypotheses are compared
position by position in random order.

The pairwise family answers: two alternatives of length L disagree at K
positions; positions are revealed uniformly at random without
replacement; when does the first disagreement show up?  Results come
from one running product: exact rationals up to L = 20, floats beyond.
An enumeration oracle over reveal patterns, the sets of steps that land
on a disagreement, provides an independent check on the closed forms.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Union

from .info import ComputationRefused

Number = Union[Fraction, float]

EXACT_MAX_L = 20
# The pattern oracle itself runs in milliseconds at L = 10; the limit
# stays there so that the test suite's per-order loop, which walks all
# L! orders, can still referee every length the oracle accepts.
ORACLE_MAX_L = 10


class UndefinedMomentError(ValueError):
    """Moments were requested for a distribution that never halts."""


@dataclass(frozen=True)
class PairwiseSCDist:
    """Stopping index for two length-L alternatives disagreeing at K >= 1
    positions, under uniformly random position reveals.

    Support is 1..L-K+1; the final index carries the mass of reveal
    orders that postpone every disagreement to the end.  Every value
    reads one table, built on first use in O(L) time and memory.
    """

    L: int
    K: int

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"length must be >= 1, got {self.L}")
        if not 0 <= self.K <= self.L:
            raise ValueError(f"disagreement count {self.K} outside [0, {self.L}]")
        if self.K == 0:
            raise ValueError(
                "identical alternatives never produce a disagreement; "
                "use pairwise_verification for the K = 0 point mass at L"
            )

    def support(self) -> range:
        return range(1, self.L - self.K + 2)

    @cached_property
    def _table(self) -> tuple[list[Number], list[Number]]:
        """S(i) = P(the first i reveals all agree) for i in 0 .. L-K+1 and
        pmf(i) over the support, as running products:
        S(i) = S(i-1) (L-K-i+1) / (L-i+1) and pmf(i) = S(i-1) K / (L-i+1).
        Past L = 20 each float is within 2i roundings; nothing cancels."""
        L, K = self.L, self.K
        ratio = Fraction if L <= EXACT_MAX_L else operator.truediv
        below = range(L, K - 1, -1)  # L - i + 1 over the support
        steps = map(ratio, range(L - K, -1, -1), below)
        survival = list(itertools.accumulate(steps, operator.mul, initial=ratio(1, 1)))
        pmf = list(map(operator.mul, survival, map(ratio, itertools.repeat(K), below)))
        return survival, pmf

    def pmf(self, i: int) -> Number:
        survival, pmf = self._table  # off the support: S(L-K+1), a typed 0
        return pmf[i - 1] if 1 <= i <= len(pmf) else survival[-1]

    def cdf(self, i: int) -> Number:
        return 1 - self._table[0][min(max(i, 0), self.L - self.K + 1)]

    def moment(self, m: int) -> Number:
        return sum(i**m * p for i, p in enumerate(self._table[1], 1))


@dataclass(frozen=True)
class PointMassSCDist:
    """Degenerate stopping index: halts at ``at`` with certainty."""

    at: int

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"stopping index must be >= 0, got {self.at}")

    def support(self) -> range:
        return range(self.at, self.at + 1)

    def pmf(self, i: int) -> Fraction:
        return Fraction(1) if i == self.at else Fraction(0)

    def cdf(self, i: int) -> Fraction:
        return Fraction(1) if i >= self.at else Fraction(0)

    def moment(self, m: int) -> Fraction:
        return Fraction(self.at**m)


@dataclass(frozen=True)
class GeometricSCDist:
    """Stopping index with a fixed per-step halting probability.

    With halt_prob = 0 the process never halts: pmf is identically
    zero, ``halts_almost_surely`` is False, and moments are undefined.
    """

    halt_prob: float

    def __post_init__(self) -> None:
        if math.isnan(self.halt_prob) or not 0.0 <= self.halt_prob <= 1.0:
            raise ValueError(
                f"halting probability out of range [0, 1]: {self.halt_prob!r}"
            )

    @property
    def halts_almost_surely(self) -> bool:
        return self.halt_prob > 0.0

    def pmf(self, i: int) -> float:
        if i < 1:
            return 0.0
        p = self.halt_prob
        return (1.0 - p) ** (i - 1) * p

    def cdf(self, i: int) -> float:
        if i < 1:
            return 0.0
        return 1.0 - (1.0 - self.halt_prob) ** i

    def moment(self, m: int) -> float:
        """E[I^m] = A_m(q) / p^m with q = 1 - p, where A_m is the m-th
        Eulerian polynomial (A_0 = 1).  Its coefficients, the Eulerian
        numbers, are positive, so nothing cancels."""
        if not self.halts_almost_surely:
            raise UndefinedMomentError(
                "halting probability 0: the stopping index is infinite "
                "almost surely and has no finite moments"
            )
        if m < 0:
            raise ValueError(f"moment order must be >= 0, got {m}")
        coeffs = [1]
        for n in range(1, m + 1):
            # A(n, k) = (k + 1) A(n - 1, k) + (n - k) A(n - 1, k - 1)
            prev = [0, *coeffs, 0]
            coeffs = [(k + 1) * prev[k + 1] + (n - k) * prev[k] for k in range(n)]
        p = self.halt_prob
        poly = 0.0
        for c in reversed(coeffs):
            poly = poly * (1.0 - p) + c
        scale = p**m
        return poly / scale if scale else math.inf


@dataclass(frozen=True)
class EmpiricalSCDist:
    """Observed stopping indices: counts per index out of ``trials``.

    ``censored`` trials ran into a budget without stopping; they keep
    their share of the denominator, so the pmf sums to
    (trials - censored) / trials.
    """

    counts: Mapping[int, int]
    trials: int
    censored: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        total = sum(self.counts.values()) + self.censored
        if total != self.trials:
            raise ValueError(
                f"counts plus censored ({total}) do not add up to "
                f"trials ({self.trials})"
            )

    def support(self) -> list[int]:
        return sorted(self.counts)

    def pmf(self, i: int) -> Fraction:
        return Fraction(self.counts.get(i, 0), self.trials)

    def cdf(self, i: int) -> Fraction:
        hits = sum(c for idx, c in self.counts.items() if idx <= i)
        return Fraction(hits, self.trials)

    def moment(self, m: int) -> float:
        """Raw moment over the uncensored trials only."""
        n = self.trials - self.censored
        if n == 0:
            raise UndefinedMomentError("every trial was censored")
        return math.fsum(i**m * c for i, c in self.counts.items()) / n


def pairwise_verification(L: int) -> PointMassSCDist:
    """K = 0: no disagreement exists, every reveal order runs to L."""
    if L < 1:
        raise ValueError(f"length must be >= 1, got {L}")
    return PointMassSCDist(L)


def _diff_positions(a: str, b: str) -> list[int]:
    if len(a) != len(b):
        raise ValueError(
            f"alternatives must have equal length, got {len(a)} and {len(b)}"
        )
    if len(a) < 1:
        raise ValueError("alternatives must be non-empty")
    return [idx for idx, (x, y) in enumerate(zip(a, b)) if x != y]


def enumerate_orderings_oracle(a: str, b: str) -> EmpiricalSCDist:
    """Exact stopping distribution by counting every reveal pattern.

    A reveal order's pattern is the set of its steps that land on one
    of the K disagreeing positions: one K-subset of the steps 1..L, made
    by exactly K! (L-K)! of the L! orders.  Each order stops at the
    first step of its pattern, or at L when a and b agree everywhere, so
    walking the C(L, K) patterns and weighting each count counts every
    order.  Refuses beyond length ``ORACLE_MAX_L`` = 10; the result's
    pmf values are exact rationals with denominator L!.
    """
    K = len(_diff_positions(a, b))
    L = len(a)
    if L > ORACLE_MAX_L:
        raise ComputationRefused(
            f"enumerating {L}! reveal orders exceeds the length-"
            f"{ORACLE_MAX_L} oracle limit"
        )
    total = math.factorial(L)
    if not K:
        return EmpiricalSCDist({L: total}, total)
    first = Counter(map(min, itertools.combinations(range(1, L + 1), K)))
    weight = math.factorial(K) * math.factorial(L - K)
    return EmpiricalSCDist({i: n * weight for i, n in first.items()}, total)
