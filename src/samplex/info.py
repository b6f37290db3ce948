"""Information measures over finite distributions, in bits.

Everything here uses base-2 logarithms.  The conventions are the usual
ones: 0 * log2(0) counts as 0, an impossible event has infinite
surprisal, and a divergence between distributions that are not
absolutely continuous is +inf rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .processes import IidSpec, MarkovSpec

MASS_TOL = 1e-12  # the library's one unit-mass tolerance, read by ProbVector


class ComputationRefused(RuntimeError):
    """Raised when a computation would pass a hard size or work limit;
    the CLI reports it with exit 3.

    Raised today for: runs past ``STEP_BUDGET`` symbols (the trials of
    sample, spread, bayes and novelty runs, and coin-bits); figure3 and
    scdist tables past the row limit; the reveal-order oracle past
    ``scdist.ORACLE_MAX_L``; an exact posterior-surprisal horizon past
    ``bayes._CLASS_LIMIT`` sequence classes; and a crossing of chain
    members past the last exact horizon.  A target that a member never
    ruled out keeps out of reach (p = 1, or p at the ideal's posterior
    ceiling) raises nothing: the evaluator answers it as unreachable
    before any walk.  ``bayes._surprisal_curve`` catches
    the class-limit refusal and hands the curve to Monte Carlo from that
    horizon; a caller with no such fallback lets it propagate.
    """


# sequence steps one run may take: symbols a CLI run draws, or horizons
# x sequences of a Monte Carlo surprisal curve
STEP_BUDGET = 50_000_000


def safe_log2(x: float) -> float:
    """log2 of a probability, -inf at 0."""
    return math.log2(x) if x > 0.0 else -math.inf


def logsumexp2(vals: Sequence[float]) -> float:
    """log2 of the sum of 2**v, scaled by the largest v; -inf when every
    v is -inf or there is none."""
    top = max(vals, default=-math.inf)
    if top == -math.inf:
        return -math.inf
    return top + math.log2(math.fsum(2.0 ** (v - top) for v in vals))


def _check_prob(p: float) -> float:
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"probability out of range [0, 1]: {p!r}")
    return float(p)


@dataclass(frozen=True)
class ProbVector:
    """A probability distribution over symbols 0..k-1."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("distribution needs at least one outcome")
        for p in self.probs:
            _check_prob(p)
        total = math.fsum(self.probs)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int) -> float:
        return self.probs[i]


def as_probvector(dist: ProbVector | Sequence[float]) -> ProbVector:
    if isinstance(dist, ProbVector):
        return dist
    return ProbVector(tuple(float(p) for p in dist))


def entropy(dist: ProbVector | Sequence[float]) -> float:
    """Expected surprisal of a distribution, in bits."""
    pv = as_probvector(dist)
    return -math.fsum(p * math.log2(p) for p in pv.probs if p > 0.0)


def divergences(
    actual: ProbVector | Sequence[float],
    model: ProbVector | Sequence[float],
) -> tuple[float, float]:
    """Cross entropy and relative entropy of ``actual`` against ``model``.

    Returns ``(cross, kl)`` in bits.  If ``actual`` puts mass where
    ``model`` does not, both are +inf (the model can never account for
    such an observation, no matter how many bits it spends).
    """
    p = as_probvector(actual)
    q = as_probvector(model)
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    cross_terms = []
    kl_terms = []
    for pi, qi in zip(p.probs, q.probs):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf, math.inf
        cross_terms.append(-pi * math.log2(qi))
        kl_terms.append(pi * math.log2(pi / qi))
    cross = math.fsum(cross_terms)
    # fsum cancellation can leave a tiny negative residue on equal inputs
    kl = max(0.0, math.fsum(kl_terms))
    return cross, kl


def cross_entropy(actual, model) -> float:
    return divergences(actual, model)[0]


def relative_entropy(actual, model) -> float:
    return divergences(actual, model)[1]


def stationary_rate(
    src: "IidSpec | MarkovSpec",
    dst: "IidSpec | MarkovSpec",
    measure: Callable[[ProbVector, ProbVector], float],
) -> float:
    """Per-symbol rate of ``measure`` between two specs of equal memory:
    measure(src( . | c), dst( . | c)) averaged over the contexts c with
    the source's stationary context weights."""
    if src.memory != dst.memory:
        raise ValueError(
            f"rate between specs of memory {src.memory} and {dst.memory} "
            "is not defined here"
        )
    pi = src.stationary_distribution()
    return math.fsum(
        pi[i] * measure(src.conditional(c), dst.conditional(c))
        for i, c in enumerate(src.contexts())
        if pi[i] > 0.0
    )


def entropy_rate(spec: "IidSpec | MarkovSpec") -> float:
    """Per-symbol entropy of a memoryless or finite-memory process."""
    from .processes import IidSpec, MarkovSpec  # local: avoids import cycle

    if not isinstance(spec, (IidSpec, MarkovSpec)):
        raise TypeError(f"unsupported process spec: {type(spec).__name__}")
    return stationary_rate(spec, spec, lambda p, _: entropy(p))


def total_variation(p: dict, q: dict) -> float:
    """Total variation distance between two distributions given as maps.

    Keys missing from one side count as probability zero there.
    """
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in keys)
