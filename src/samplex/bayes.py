"""Sequential Bayesian identification over a finite hypothesis set.

A posterior over candidate processes is updated one symbol at a time
and a four-parameter stopping rule decides between verification,
falsification, partial identification, and undetermined:

* ``p``: required posterior mass (and typicality level) to verify,
* ``q``: typicality level for exhaustive falsification,
* ``eps_d``: dissimilarity slack (bits/symbol) that groups members
  too close to tell apart,
* ``r``: resolution, capping observations at ceil(-log2 r).

Falsification tests each member's per-symbol surprisal against the
band [rate - eps, rate + eps] with eps = -log2 q: the empirical-KL
phrasing of the same idea plateaus below the slack for nearby
alternatives and cannot reach the advertised detection rates, so the
band form is used throughout (typical_membership reports it directly).

Expected-sample-complexity threshold equations are implicit in t and
the naive fixed-point iteration repels; the solver instead scans the
monotone expectation curve for the threshold crossing.  At small
horizons the curve is exact: one walk serves every member kind by
merging sequences into classes that every member scores alike (the
first ``memory`` symbols, the current window, and the count of each
(context, symbol) step), which for memoryless members are the symbol
compositions.  A horizon with more than _CLASS_LIMIT classes is
refused.  Beyond the exact horizon a Monte Carlo curve takes over, for
memoryless members only.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Sequence

from .bitstrings import resolution_cap
from .info import (
    ComputationRefused,
    ENUM_LIMIT,
    ProbVector,
    as_probvector,
    cross_entropy,
    entropy_rate,
    relative_entropy,
)
from .processes import (
    BitSource,
    Context,
    IidSpec,
    MarkovSpec,
    sample_discrete,
    sequence_log_probability,
)
from .scdist import EmpiricalSCDist

_FLOOR_TOL = 1e-12
_HARD_T_MAX = 100_000
_DEFAULT_MC_SEQUENCES = 10_000
_DEFAULT_BUDGET = 100_000
# sequence classes one horizon of the exact surprisal walk may hold; on
# a 4-symbol memory-2 pair, whose classes barely merge, the process
# peaks near 51 MB (CPython 3.11) when the limit is reached
_CLASS_LIMIT = 65_536

ProcessSpec = IidSpec | MarkovSpec


def _log2(x: float) -> float:
    return math.log2(x) if x > 0.0 else -math.inf


def _logsumexp2(vals: Sequence[float]) -> float:
    top = max(vals, default=-math.inf)
    if top == -math.inf:
        return -math.inf
    return top + math.log2(math.fsum(2.0 ** (v - top) for v in vals))


def _spec_memory(spec: ProcessSpec) -> int:
    return spec.memory if isinstance(spec, MarkovSpec) else 0


def _spec_equal(a: ProcessSpec, b: ProcessSpec) -> bool:
    """Structural equality of process descriptions."""
    if isinstance(a, IidSpec) and isinstance(b, IidSpec):
        return a.dist.probs == b.dist.probs
    if isinstance(a, MarkovSpec) and isinstance(b, MarkovSpec):
        if a.memory != b.memory or a.init != b.init:
            return False
        return all(
            a.conditional(ctx).probs == b.conditional(ctx).probs
            for ctx in a.contexts()
        )
    return False


def divergence_rate(a: ProcessSpec, b: ProcessSpec) -> float:
    """Symmetrized per-symbol relative entropy between two specs, in bits.

    Each direction weights the per-context divergence by the source's
    stationary context distribution; the max of the two directions is
    returned so the result is a genuine dissimilarity.
    """

    def one_way(src: ProcessSpec, dst: ProcessSpec) -> float:
        if isinstance(src, IidSpec) and isinstance(dst, IidSpec):
            return relative_entropy(src.dist, dst.dist)
        if isinstance(src, MarkovSpec) and isinstance(dst, MarkovSpec):
            if src.memory != dst.memory:
                raise ValueError(
                    "divergence between chains of different memory is "
                    "not defined here"
                )
            pi = src.stationary_distribution()
            return math.fsum(
                pi[i] * relative_entropy(src.conditional(c), dst.conditional(c))
                for i, c in enumerate(src.contexts())
                if pi[i] > 0.0
            )
        raise ValueError("cannot compare an iid spec with a chain directly")

    return max(one_way(a, b), one_way(b, a))


@dataclass(frozen=True)
class HypothesisSet:
    """Finite candidate processes over one alphabet with equal memory."""

    members: tuple[ProcessSpec, ...]
    labels: tuple[str, ...] = ()
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("hypothesis set must be non-empty")
        sizes = {m.alphabet_size for m in self.members}
        if len(sizes) != 1:
            raise ValueError(f"members disagree on alphabet size: {sizes}")
        memories = {_spec_memory(m) for m in self.members}
        if len(memories) != 1:
            raise ValueError(
                f"members disagree on memory length: {memories}"
            )
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(str(m) for m in self.members)
            )
        elif len(self.labels) != len(self.members):
            raise ValueError("labels and members differ in length")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def alphabet_size(self) -> int:
        return self.members[0].alphabet_size

    @property
    def memory(self) -> int:
        return _spec_memory(self.members[0])

    def rates(self) -> tuple[float, ...]:
        if "rates" not in self._cache:
            self._cache["rates"] = tuple(
                entropy_rate(m) for m in self.members
            )
        return self._cache["rates"]

    def equal_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition into structurally identical members."""
        if "classes" not in self._cache:
            groups: list[list[int]] = []
            for i, m in enumerate(self.members):
                for g in groups:
                    if _spec_equal(self.members[g[0]], m):
                        g.append(i)
                        break
                else:
                    groups.append([i])
            self._cache["classes"] = tuple(tuple(g) for g in groups)
        return self._cache["classes"]

    def observationally_identical_pairs(self) -> tuple[tuple[int, int], ...]:
        pairs = []
        for cls in self.equal_classes():
            for a in range(len(cls)):
                for b in range(a + 1, len(cls)):
                    pairs.append((cls[a], cls[b]))
        return tuple(pairs)


def equivalence_groups(
    hset: HypothesisSet, eps_d: float
) -> tuple[tuple[int, ...], ...]:
    """Partition members into groups whose pairwise symmetrized
    per-symbol relative entropy is at most eps_d (transitively closed).

    eps_d = 0 groups only distributions with divergence exactly zero.
    """
    if eps_d < 0.0:
        raise ValueError(f"dissimilarity slack must be >= 0, got {eps_d}")
    key = ("groups", eps_d)
    if key in hset._cache:
        return hset._cache[key]
    n = len(hset)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if divergence_rate(hset.members[i], hset.members[j]) <= eps_d:
                parent[find(i)] = find(j)
    buckets: dict[int, list[int]] = {}
    for i in range(n):
        buckets.setdefault(find(i), []).append(i)
    groups = tuple(
        tuple(sorted(g)) for g in sorted(buckets.values(), key=min)
    )
    hset._cache[key] = groups
    return groups


_Branches = tuple[tuple[Context, float], ...]


@dataclass(frozen=True)
class PosteriorState:
    """Immutable posterior over a hypothesis set after t observations.

    Per-member log2 sequence likelihoods are carried explicitly;
    ``forward`` holds each member's distribution over its hidden
    context (several branches until a chain's initial mixture has
    collapsed onto the observed window).
    """

    hset: HypothesisSet
    log_prior: tuple[float, ...]
    loglik: tuple[float, ...]
    t: int
    window: tuple[int, ...]
    forward: tuple[_Branches, ...]

    @staticmethod
    def from_prior(
        hset: HypothesisSet, prior: ProbVector | Sequence[float]
    ) -> "PosteriorState":
        pv = as_probvector(prior)
        if len(pv) != len(hset):
            raise ValueError(
                f"prior over {len(pv)} weights for {len(hset)} members"
            )
        forward = []
        for m in hset.members:
            if isinstance(m, MarkovSpec):
                forward.append(
                    tuple(
                        (ctx, _log2(w))
                        for ctx, w in sorted(m.initial_mixture().items())
                    )
                )
            else:
                forward.append((((), 0.0),))
        return PosteriorState(
            hset,
            tuple(_log2(w) for w in pv.probs),
            (0.0,) * len(hset),
            0,
            (),
            tuple(forward),
        )

    @property
    def all_falsified(self) -> bool:
        return all(
            lp + ll == -math.inf
            for lp, ll in zip(self.log_prior, self.loglik)
        )

    def log_posterior(self) -> tuple[float, ...]:
        scores = [
            lp + ll for lp, ll in zip(self.log_prior, self.loglik)
        ]
        norm = _logsumexp2(scores)
        if norm == -math.inf:
            raise ValueError(
                "posterior undefined: every hypothesis assigns the "
                "observations probability 0"
            )
        return tuple(s - norm for s in scores)

    def posterior(self) -> ProbVector:
        logs = self.log_posterior()
        top = max(logs)
        weights = [2.0 ** (l - top) for l in logs]
        total = math.fsum(weights)
        return ProbVector(tuple(w / total for w in weights))


def _conditional_probs(spec: ProcessSpec, ctx: Context) -> ProbVector:
    if isinstance(spec, MarkovSpec):
        return spec.conditional(ctx)
    return spec.dist


def _advance(ctx: Context, sym: int, memory: int) -> Context:
    return (ctx + (sym,))[-memory:] if memory else ()


def posterior_update(state: PosteriorState, symbol: int) -> PosteriorState:
    """Condition the posterior on one more observed symbol.

    When every hypothesis assigns the symbol probability 0 the
    resulting state is terminal (``all_falsified``); the posterior
    itself is then undefined and raises.
    """
    hset = state.hset
    if not 0 <= symbol < hset.alphabet_size:
        raise ValueError(f"symbol {symbol} outside the alphabet")
    new_loglik = []
    new_forward = []
    for m_idx, member in enumerate(hset.members):
        memory = _spec_memory(member)
        merged: dict[Context, float] = {}
        for ctx, logw in state.forward[m_idx]:
            p = _conditional_probs(member, ctx)[symbol]
            if p == 0.0:
                continue
            nxt = _advance(ctx, symbol, memory)
            w = logw + math.log2(p)
            if nxt in merged:
                merged[nxt] = _logsumexp2((merged[nxt], w))
            else:
                merged[nxt] = w
        branches = tuple(sorted(merged.items()))
        new_forward.append(branches)
        new_loglik.append(_logsumexp2([w for _, w in branches]))
    memory = hset.memory
    window = _advance(state.window, symbol, memory) if memory else ()
    return PosteriorState(
        hset,
        state.log_prior,
        tuple(new_loglik),
        state.t + 1,
        window,
        tuple(new_forward),
    )


def posterior_predictive(state: PosteriorState) -> ProbVector:
    """Next-symbol distribution under the current posterior mixture."""
    if state.all_falsified:
        raise ValueError(
            "no posterior predictive: every hypothesis is falsified"
        )
    post = state.posterior()
    k = state.hset.alphabet_size
    out = [0.0] * k
    for m_idx, member in enumerate(state.hset.members):
        w = post[m_idx]
        if w == 0.0:
            continue
        loglik = state.loglik[m_idx]
        for ctx, logw in state.forward[m_idx]:
            share = 2.0 ** (logw - loglik)
            probs = _conditional_probs(member, ctx)
            for sym in range(k):
                out[sym] += w * share * probs[sym]
    total = math.fsum(out)
    return ProbVector(tuple(v / total for v in out))


class TypicalityRegion(Enum):
    TYPICAL = "typical"
    ATYPICAL_IMPROBABLE = "atypical-improbable"
    ATYPICAL_PROBABLE = "atypical-probable"
    UNDETERMINED = "undetermined"


def typical_set_bounds(
    spec: ProcessSpec, t: int, level: float
) -> tuple[float, float]:
    """Probability band (lower, upper) around 2^(-t * rate) at the
    given level: the band shrinks geometrically with per-step ratio
    2^(-rate), and collapses to the center exactly at level 1.
    """
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {t}")
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0, 1], got {level!r}")
    center = 2.0 ** (-t * entropy_rate(spec))
    return center * level, center / level


def _surprisal_region(
    neg_loglik: float, t: int, rate: float, eps: float
) -> TypicalityRegion:
    """Classify by per-symbol surprisal against [rate - eps, rate + eps]."""
    per_symbol = neg_loglik / t
    if per_symbol > rate + eps:
        return TypicalityRegion.ATYPICAL_IMPROBABLE
    if per_symbol < rate - eps:
        return TypicalityRegion.ATYPICAL_PROBABLE
    return TypicalityRegion.TYPICAL


def warmup_threshold(rate: float, level: float) -> int:
    """Observations required before typicality comparisons are trusted."""
    return max(0, math.ceil(rate - math.log2(level)))


def typical_membership(
    spec: ProcessSpec, observations: Sequence[int], level: float
) -> TypicalityRegion:
    """Locate the observed sequence's probability relative to the
    typical band at the given level.

    The band's slack per symbol is -log2 level.  Improbable means the
    sequence is less probable than typical sequences (higher
    surprisal), probable means more probable.  Below the warm-up
    horizon the verdict is undetermined, with a warning.
    """
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0, 1], got {level!r}")
    rate = entropy_rate(spec)
    t = len(observations)
    warmup = warmup_threshold(rate, level)
    if t < max(1, warmup):
        warnings.warn(
            f"only {t} observations, below the warm-up threshold "
            f"{max(1, warmup)}; typicality undetermined",
            stacklevel=2,
        )
        return TypicalityRegion.UNDETERMINED
    eps = -math.log2(level)
    return _surprisal_region(
        sequence_log_probability(spec, observations), t, rate, eps
    )


def falsification_bounds(
    ideal: ProcessSpec, hypothesis: ProcessSpec, q: float
) -> tuple[float, float]:
    """Bracketing interval for the observations needed to falsify one
    hypothesis against data from the ideal, at falsification level q.

    Uses per-symbol rates: the hypothesis spends cross-entropy bits per
    symbol explaining the ideal's output while its typical band allows
    rate +/- (-log2 q); the interval is where those budgets cross.  The
    upper end is unbounded when the ideal's rate does not exceed the
    slack.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(
            "falsification level 0 never falsifies in finite "
            "observations; pick q in (0, 1]"
        )
    eps = -math.log2(q)
    rate = entropy_rate(ideal)

    def xrate(src: ProcessSpec, dst: ProcessSpec) -> float:
        if isinstance(src, IidSpec) and isinstance(dst, IidSpec):
            return cross_entropy(src.dist, dst.dist)
        if isinstance(src, MarkovSpec) and isinstance(dst, MarkovSpec):
            if src.memory != dst.memory:
                raise ValueError("memory mismatch between ideal and hypothesis")
            pi = src.stationary_distribution()
            return math.fsum(
                pi[i] * cross_entropy(src.conditional(c), dst.conditional(c))
                for i, c in enumerate(src.contexts())
                if pi[i] > 0.0
            )
        raise ValueError("ideal and hypothesis must be the same process kind")

    cross = xrate(ideal, hypothesis)
    if not math.isfinite(cross):
        raise ValueError(
            "cross-entropy rate is infinite: the hypothesis assigns "
            "probability 0 to symbols the ideal emits"
        )
    lower = cross / (rate + eps) if rate + eps > 0.0 else (
        0.0 if cross == 0.0 else math.inf
    )
    upper = cross / (rate - eps) if rate > eps else math.inf
    return lower, upper


class DecisionStatus(Enum):
    VERIFIED = "Verified"
    PARTIALLY_IDENTIFIED = "PartiallyIdentified"
    FALSIFIED = "Falsified"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class StoppingConfig:
    p: float = 1.0
    q: float = 0.0
    eps_d: float = 0.0
    r: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= self.p <= 1.0:
            raise ValueError(
                f"need 0 <= q <= p <= 1, got q={self.q!r}, p={self.p!r}"
            )
        if self.eps_d < 0.0:
            raise ValueError(f"eps_d must be >= 0, got {self.eps_d!r}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"resolution must be in [0, 1], got {self.r!r}")


@dataclass(frozen=True)
class Decision:
    """Stopping verdict at time t.

    ``group`` holds 0-based member indices: the verified member or
    group, empty for Falsified/Undetermined.  ``terminal`` decisions
    will not change with further observation (all-falsified) or are
    forced final by the resolution cap.
    """

    status: DecisionStatus
    group: tuple[int, ...]
    t: int
    posterior: tuple[float, ...] | None
    terminal: bool

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "group": list(self.group),
            "t": self.t,
            "posterior": None
            if self.posterior is None
            else list(self.posterior),
            "terminal": self.terminal,
        }


def _group_masses(
    posterior: Sequence[float], groups: Sequence[Sequence[int]]
) -> list[float]:
    return [math.fsum(posterior[i] for i in g) for g in groups]


def check_stop(
    state: PosteriorState,
    cfg: StoppingConfig,
    observations: Sequence[int] = (),
) -> Decision:
    """Apply the stopping rule to the current posterior.

    Verification: the heaviest dissimilarity group must hold posterior
    mass >= p and contain a member whose per-symbol surprisal is inside
    its typical band at level p (with p = 1 this tightens to structural
    certainty: every outside member already at likelihood zero).
    Falsification: after the warm-up, every member's surprisal must sit
    outside its band at level q.  Hitting the resolution cap forces a
    terminal Undetermined.
    """
    if observations and len(observations) != state.t:
        raise ValueError(
            f"{len(observations)} observations for a state at t={state.t}"
        )
    t = state.t
    if state.all_falsified:
        return Decision(DecisionStatus.FALSIFIED, (), t, None, True)

    posterior = state.posterior().probs
    groups = equivalence_groups(state.hset, cfg.eps_d)
    rates = state.hset.rates()
    masses = _group_masses(posterior, groups)
    best = max(range(len(groups)), key=masses.__getitem__)
    group = groups[best]

    verified = False
    if cfg.p == 1.0:
        verified = all(
            state.log_prior[i] + state.loglik[i] == -math.inf
            for i in range(len(state.hset))
            if i not in group
        )
    elif masses[best] >= cfg.p:
        if t == 0:
            verified = True
        else:
            eps_p = -math.log2(cfg.p) if cfg.p > 0.0 else math.inf
            verified = any(
                _surprisal_region(-state.loglik[i], t, rates[i], eps_p)
                is TypicalityRegion.TYPICAL
                for i in group
            )
    if verified:
        status = (
            DecisionStatus.VERIFIED
            if len(group) == 1
            else DecisionStatus.PARTIALLY_IDENTIFIED
        )
        return Decision(status, group, t, posterior, True)

    if cfg.q > 0.0 and t > 0:
        eps_q = -math.log2(cfg.q)
        warmup = max(1, math.ceil(max(rates) + eps_q))
        if t >= warmup and all(
            _surprisal_region(-state.loglik[i], t, rates[i], eps_q)
            is not TypicalityRegion.TYPICAL
            for i in range(len(state.hset))
        ):
            return Decision(DecisionStatus.FALSIFIED, (), t, posterior, True)

    cap = resolution_cap(cfg.r)
    if cfg.r > 0.0 and t >= cap:
        return Decision(DecisionStatus.UNDETERMINED, (), t, posterior, True)
    return Decision(DecisionStatus.UNDETERMINED, (), t, posterior, False)


@dataclass(frozen=True)
class MCStoppingReport:
    """Monte Carlo stopping-time summary.

    ``dist`` records decided trials by stopping time; trials that hit
    the budget undecided are censored inside it, and ``decisions``
    tallies decision kinds (censored trials count as Undetermined).
    """

    dist: EmpiricalSCDist
    decisions: dict[str, int]
    trials: int
    seed: int | str

    def mean(self) -> float:
        return self.dist.moment(1)

    def variance(self) -> float:
        m1 = self.dist.moment(1)
        return self.dist.moment(2) - m1 * m1

    def moments(self, highest: int = 4) -> tuple[float, ...]:
        return tuple(self.dist.moment(m) for m in range(1, highest + 1))


def _trial_seed(seed: int | str, index: int) -> str:
    return f"{seed}:{index}"


class _IdealSampler:
    """Stepwise sampler for an ideal process over one BitSource."""

    def __init__(self, spec: ProcessSpec, source: BitSource) -> None:
        self.source = source
        self.spec = spec
        self.ctx: Context = (
            spec.draw_start(source) if isinstance(spec, MarkovSpec) else ()
        )

    def step(self) -> int:
        if isinstance(self.spec, MarkovSpec):
            sym = sample_discrete(self.spec.transitions[self.ctx], self.source)
            self.ctx = _advance(sym=sym, ctx=self.ctx, memory=self.spec.memory)
            return sym
        return sample_discrete(self.spec, self.source)


def _mc_trial(
    ideal: ProcessSpec,
    hset: HypothesisSet,
    cfg: StoppingConfig,
    budget: int,
    seed: str,
    tables: dict,
) -> tuple[DecisionStatus, int]:
    """One stopping trial from t = 1 on; the caller has already ruled
    out a decision at t = 0.  Returns the decision and when it fell;
    Undetermined means censored (budget or r-cap exhausted).

    Makes the same decisions as stepping ``posterior_update`` and
    ``check_stop``, without per-step state objects: the first
    ``memory`` steps go through ``posterior_update`` while a member's
    hidden context may still be a mixture; from then on every member's
    context is the observed window, so each step adds one entry of the
    precomputed log table (member -> context -> symbol).
    """
    sampler = _IdealSampler(ideal, BitSource(seed))
    n = tables["n"]
    logtab = tables["logtab"]
    log_prior = tables["log_prior"]
    rates = tables["rates"]
    groups = tables["groups"]
    eps_p = tables["eps_p"]
    eps_q = tables["eps_q"]
    warmup = tables["warmup"]
    cap = tables["cap"]
    memory = hset.memory
    structural = cfg.p == 1.0
    # with p = 1 and every member at full support, structural certainty
    # can never fire after t = 0, so the whole verification block is
    # dead code
    verify_never = structural and tables["full_support"]

    state = tables["start"]
    loglik = [0.0] * n
    ctx: Context = ()
    scores = list(log_prior)
    for t in range(1, budget + 1):
        sym = sampler.step()
        if t <= memory:
            state = posterior_update(state, sym)
            loglik = list(state.loglik)
            ctx = state.window
        else:
            for m in range(n):
                loglik[m] += logtab[m][ctx][sym]
            if memory:
                ctx = ctx[1:] + (sym,)
        if not verify_never:
            dead = True
            for m in range(n):
                scores[m] = log_prior[m] + loglik[m]
                if scores[m] > -math.inf:
                    dead = False
            if dead:
                return DecisionStatus.FALSIFIED, t
            top = max(scores)
            weights = [2.0 ** (s - top) for s in scores]
            total = math.fsum(weights)
            masses = [
                math.fsum(weights[i] for i in g) / total for g in groups
            ]
            best = max(range(len(groups)), key=masses.__getitem__)
            group = groups[best]
            if structural:
                verified = all(
                    scores[i] == -math.inf
                    for i in range(n)
                    if i not in group
                )
            else:
                verified = masses[best] >= cfg.p and any(
                    abs(-loglik[i] / t - rates[i]) <= eps_p for i in group
                )
            if verified:
                status = (
                    DecisionStatus.VERIFIED
                    if len(group) == 1
                    else DecisionStatus.PARTIALLY_IDENTIFIED
                )
                return status, t
        if cfg.q > 0.0 and t >= warmup:
            if all(
                not (-eps_q <= -loglik[i] / t - rates[i] <= eps_q)
                for i in range(n)
            ):
                return DecisionStatus.FALSIFIED, t
        if cfg.r > 0.0 and t >= cap:
            return DecisionStatus.UNDETERMINED, t
    return DecisionStatus.UNDETERMINED, budget


def mc_sample_complexity(
    ideal: ProcessSpec,
    hset: HypothesisSet,
    prior: ProbVector | Sequence[float],
    cfg: StoppingConfig,
    trials: int,
    seed: int | str,
    max_steps: int | None = None,
) -> MCStoppingReport:
    """Stream symbols from the ideal through the stopping rule, many
    times, and record when and how each trial decided.

    Reproducible: trial i uses the derived seed "{seed}:{i}".  Trials
    run one after another in the calling thread; the CLI's ``--threads``
    flag is kept for compatibility only, and results never depend on
    it.  A decision the prior alone forces (t = 0) is the same for
    every trial.  Trials that exhaust the budget (the r-cap, or
    max_steps when r = 0) are censored, not dropped.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    pv = as_probvector(prior)
    if len(pv) != len(hset):
        raise ValueError(
            f"prior over {len(pv)} weights for {len(hset)} members"
        )
    cap = resolution_cap(cfg.r)
    budget = int(cap) if cfg.r > 0.0 else _DEFAULT_BUDGET
    if max_steps is not None:
        budget = min(budget, max_steps)

    start = PosteriorState.from_prior(hset, pv)
    first = check_stop(start, cfg)
    if first.terminal:
        results = [(first.status, 0)] * trials
    else:
        head = hset.members[0]
        contexts = head.contexts() if isinstance(head, MarkovSpec) else [()]
        logtab = [
            {
                ctx: [_log2(p) for p in _conditional_probs(m, ctx).probs]
                for ctx in contexts
            }
            for m in hset.members
        ]
        tables = {
            "n": len(hset),
            "start": start,
            "logtab": logtab,
            "log_prior": start.log_prior,
            "rates": hset.rates(),
            "groups": equivalence_groups(hset, cfg.eps_d),
            "eps_p": -math.log2(cfg.p) if cfg.p > 0.0 else math.inf,
            "eps_q": -math.log2(cfg.q) if cfg.q > 0.0 else math.inf,
            "warmup": max(
                1, math.ceil(max(hset.rates()) + (-math.log2(cfg.q)))
            )
            if cfg.q > 0.0
            else budget + 1,
            "cap": cap,
            "full_support": all(
                v > -math.inf
                for row in logtab
                for logs in row.values()
                for v in logs
            ),
        }
        results = [
            _mc_trial(ideal, hset, cfg, budget, _trial_seed(seed, i), tables)
            for i in range(trials)
        ]

    counts: dict[int, int] = {}
    censored = 0
    decisions = {s.value: 0 for s in DecisionStatus}
    for status, t in results:
        decisions[status.value] += 1
        if status is DecisionStatus.UNDETERMINED:
            censored += 1
        else:
            counts[t] = counts.get(t, 0) + 1
    dist = EmpiricalSCDist(counts, trials, censored)
    return MCStoppingReport(dist, decisions, trials, seed)


# ---------------------------------------------------------------------------
# expected sample complexity: exact enumeration and Monte Carlo curves


def _member_index(ideal: ProcessSpec, hset: HypothesisSet) -> int:
    for i, m in enumerate(hset.members):
        if _spec_equal(ideal, m):
            return i
    raise ValueError(
        "the ideal is not a member of the hypothesis set; expected "
        "sample complexity is undefined (use falsification_bounds)"
    )


def _count_step(steps: tuple[int, ...], step: int) -> tuple[int, ...]:
    """Count one more ``step`` in flat (step, count) pairs sorted by step."""
    for j in range(0, len(steps), 2):
        if steps[j] == step:
            return steps[: j + 1] + (steps[j + 1] + 1,) + steps[j + 2 :]
        if steps[j] > step:
            return steps[:j] + (step, 1) + steps[j:]
    return steps + (step, 1)


def _posterior_surprisal_walk(
    hset: HypothesisSet,
    log_prior: Sequence[float],
    targets: Sequence[int],
    transform: Callable[[float], float],
) -> Iterator[list[float]]:
    """Yield, for t = 0, 1, 2, ..., E[transform(-log2 posterior(i))]
    over sequences of length t drawn from member i, for each target i,
    by exact enumeration.

    Sequences are merged into classes that every member scores alike:
    the first ``memory`` symbols (which fix each chain's hidden start),
    the current window, and the count of each (context, symbol) step
    since then, kept as sorted (step, count) pairs with no zero counts.
    Each class carries the number of sequences it holds; for memoryless
    members the classes are the compositions of t.  A class is scored
    as the prefix's ``sequence_log_probability`` plus count x
    log-probability over its counts, and dropped once every target
    rules it out.  Horizon t is built only when asked for, and is
    refused (ComputationRefused) once it holds more than _CLASS_LIMIT
    classes.
    """
    members = hset.members
    n = len(members)
    k = hset.alphabet_size
    memory = hset.memory
    head = members[0]
    contexts = head.contexts() if isinstance(head, MarkovSpec) else [()]
    n_ctx = len(contexts)
    logtab = [
        [_log2(p) for ctx in contexts for p in _conditional_probs(m, ctx).probs]
        for m in members
    ]
    prefix_ll: dict[Context, list[float]] = {}
    # class key: (first symbols, window as a context index, flat
    # (step, count) pairs with step = context * k + symbol) -> number
    # of sequences in the class
    layer: dict[tuple[Context, int, tuple[int, ...]], int] = {
        ((), 0, ()): 1
    }
    t = 0
    while True:
        totals = [0.0] * len(targets)
        dead = []
        for key, mult in layer.items():
            prefix, _window, steps = key
            if prefix not in prefix_ll:
                prefix_ll[prefix] = [
                    -sequence_log_probability(m, prefix) for m in members
                ]
            ll = list(prefix_ll[prefix])
            for c, cnt in zip(steps[::2], steps[1::2]):
                for m in range(n):
                    ll[m] += cnt * logtab[m][c]
            if all(ll[i] == -math.inf for i in targets):
                dead.append(key)
                continue
            scores = [log_prior[m] + ll[m] for m in range(n)]
            norm = _logsumexp2(scores)
            log_mult = math.log2(mult)
            for j, i in enumerate(targets):
                if ll[i] > -math.inf:
                    totals[j] += 2.0 ** (log_mult + ll[i]) * transform(
                        -(scores[i] - norm)
                    )
        yield totals

        t += 1
        for key in dead:
            del layer[key]
        previous, layer = layer, {}
        for (prefix, window, steps), mult in previous.items():
            for sym in range(k):
                step = window * k + sym
                if len(prefix) < memory:
                    key = (prefix + (sym,), step % n_ctx, steps)
                else:
                    key = (prefix, step % n_ctx, _count_step(steps, step))
                layer[key] = layer.get(key, 0) + mult
            if len(layer) > _CLASS_LIMIT:
                raise ComputationRefused(
                    f"horizon {t} holds more than {_CLASS_LIMIT} sequence "
                    "classes"
                )


def surprisal_moment(
    ideal: ProcessSpec,
    hset: HypothesisSet,
    prior: ProbVector | Sequence[float],
    t: int,
    m: int,
) -> float:
    """m-th raw moment of the posterior surprisal of the ideal member
    after t observations drawn from it, by exact enumeration: horizon t
    of the class walk, refused beyond ENUM_LIMIT sequences or beyond
    the walk's class limit."""
    if m < 1:
        raise ValueError(f"moment order must be >= 1, got {m}")
    if t < 0:
        raise ValueError(f"horizon must be >= 0, got {t}")
    if hset.alphabet_size**t > ENUM_LIMIT:
        raise ComputationRefused(
            f"enumerating {hset.alphabet_size}**{t} sequences exceeds "
            f"the {ENUM_LIMIT} limit"
        )
    pv = as_probvector(prior)
    idx = _member_index(ideal, hset)
    log_prior = tuple(_log2(w) for w in pv.probs)
    walk = _posterior_surprisal_walk(hset, log_prior, (idx,), lambda s: s**m)
    return next(itertools.islice(walk, t, None))[0]


@dataclass(frozen=True)
class SCEstimate:
    """Threshold-crossing horizon for an expected-surprisal curve.

    ``value`` interpolates the real crossing; ``smallest_t`` is the
    first integer horizon at or past it.  ``method`` records how the
    curve was evaluated; ``ci`` brackets the crossing when Monte Carlo
    was involved.
    """

    value: float
    method: str
    ci: tuple[float, float] | None
    smallest_t: int | None

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "ci": None if self.ci is None else list(self.ci),
            "smallest_t": self.smallest_t,
        }


def _scan_crossing(
    target: float,
    exact: Iterator[float],
    exact_t_max: int,
    make_mc: Callable[[], Callable[[int], tuple[list[float], list[float]]]],
    hard_max: int,
) -> SCEstimate:
    """Find the first t where a nonincreasing curve drops to the target.

    ``exact`` yields exact curve values for t = 0, 1, 2, ...; it is read
    up to exact_t_max.  Only when the scan passes that horizon is
    ``make_mc()`` called, once; the function it returns maps t_hi to
    Monte Carlo estimates (means, ses) for horizons 1 .. t_hi, reusing
    its sequence batch.
    """
    prev = next(exact)
    if prev <= target:
        return SCEstimate(0.0, "prior-threshold", None, 0)
    for t in range(1, exact_t_max + 1):
        cur = next(exact)
        if cur <= target:
            frac = (prev - target) / (prev - cur) if prev > cur else 1.0
            value = (t - 1) + frac
            return SCEstimate(value, "enumeration", None, t)
        prev = cur

    mc = make_mc()
    t_hi = exact_t_max
    means: list[float] = []
    ses: list[float] = []
    while t_hi < hard_max:
        t_hi = min(hard_max, max(2 * t_hi, t_hi + 16))
        means, ses = mc(t_hi)
        means, ses = means[exact_t_max:], ses[exact_t_max:]
        if means[-1] + 1.96 * ses[-1] <= target:
            break
    curve = [(exact_t_max, prev, 0.0)] + [
        (exact_t_max + 1 + i, means[i], ses[i]) for i in range(len(means))
    ]

    def crossing(offset: float) -> float | None:
        last_t, last_v = curve[0][0], curve[0][1] + offset * curve[0][2]
        if last_v <= target:
            return float(last_t)
        for tt, mean, se in curve[1:]:
            v = mean + offset * se
            if v <= target:
                frac = (last_v - target) / (last_v - v) if last_v > v else 1.0
                return (tt - 1) + frac
            last_t, last_v = tt, v
        return None

    mid = crossing(0.0)
    lo = crossing(-1.96)
    hi = crossing(1.96)
    if mid is None:
        tail = ", ".join(f"{v:.6g}" for _, v, _ in curve[-2:])
        return SCEstimate(
            math.inf, f"not-converged (last values {tail})", None, None
        )
    ci = (lo if lo is not None else 0.0, hi if hi is not None else math.inf)
    return SCEstimate(mid, "monte-carlo", ci, math.ceil(mid))


def _mc_curve_sampler(
    draw_target: Callable[[random.Random], int],
    hset: HypothesisSet,
    log_prior: tuple[float, ...],
    sequences: int,
    seed: int | str,
) -> Callable[[int], tuple[list[float], list[float]]]:
    """Monte Carlo posterior-surprisal curves, extendable in t.

    Memoryless members only: anything else is refused (the exact walk
    handles it within its class limit).  One batch of sequences
    is extended lazily and reused across calls, so estimates at
    different horizons share randomness but each is unbiased.
    """
    members = hset.members
    if not all(isinstance(m, IidSpec) for m in members):
        raise ComputationRefused(
            "the crossing lies beyond the exact horizon and the Monte "
            "Carlo curve supports memoryless members only"
        )
    n = len(members)
    k = hset.alphabet_size
    logt = [[_log2(p) for p in m.dist.probs] for m in members]  # type: ignore[union-attr]
    cumulative = []
    for m in members:
        acc, row = 0.0, []
        for p in m.dist.probs:  # type: ignore[union-attr]
            acc += p
            row.append(acc)
        cumulative.append(row)
    rng = random.Random(f"{seed}:curve")
    targets = [draw_target(rng) for _ in range(sequences)]
    logliks = [[0.0] * n for _ in range(sequences)]
    done_t = 0
    sums: list[float] = []
    sumsq: list[float] = []

    def extend(t_hi: int) -> tuple[list[float], list[float]]:
        nonlocal done_t
        while done_t < t_hi:
            done_t += 1
            total = 0.0
            total_sq = 0.0
            for s_idx in range(sequences):
                c = targets[s_idx]
                u = rng.random()
                sym = k - 1
                for j in range(k - 1):
                    if u < cumulative[c][j]:
                        sym = j
                        break
                ll = logliks[s_idx]
                for mm in range(n):
                    ll[mm] += logt[mm][sym]
                scores = [log_prior[mm] + ll[mm] for mm in range(n)]
                surp = -(scores[c] - _logsumexp2(scores))
                total += surp
                total_sq += surp * surp
            sums.append(total)
            sumsq.append(total_sq)
        means = [sums[i] / sequences for i in range(t_hi)]
        ses = [
            math.sqrt(
                max(0.0, sumsq[i] / sequences - means[i] ** 2) / sequences
            )
            for i in range(t_hi)
        ]
        return means, ses

    return extend


def expected_sc_evaluator(
    ideal: ProcessSpec,
    hset: HypothesisSet,
    prior: ProbVector | Sequence[float],
    p: float,
    sequences: int = _DEFAULT_MC_SEQUENCES,
    seed: int | str = 7,
    exact_t_max: int = 16,
) -> SCEstimate:
    """Horizon at which the ideal member's expected posterior surprisal
    drops to -log2 p, when data comes from the ideal itself.

    The exact class walk carries the curve to ``exact_t_max``, horizon
    by horizon, and raises ComputationRefused if a horizon on the way
    holds more than _CLASS_LIMIT sequence classes (iid members with up
    to 6 symbols, and binary chains of memory up to 4, stay below it to
    t = 16).  A Monte Carlo extension with confidence bounds takes over
    beyond, for memoryless members only (finite-memory members whose
    crossing lies past ``exact_t_max`` raise ComputationRefused).  A prior
    already at the threshold answers 0; a posterior ceiling below the
    threshold (duplicate of the ideal, zero prior) is reported as
    unreachable.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"verification level must be in (0, 1], got {p!r}")
    pv = as_probvector(prior)
    idx = _member_index(ideal, hset)
    target = -math.log2(p)
    if pv[idx] >= p:
        return SCEstimate(0.0, "prior-threshold", None, 0)
    classes = hset.equal_classes()
    cls = next(c for c in classes if idx in c)
    mass = math.fsum(pv[i] for i in cls)
    if pv[idx] == 0.0:
        return SCEstimate(math.inf, "unreachable-threshold", None, None)
    floor = -math.log2(pv[idx] / mass)
    if floor > target + _FLOOR_TOL:
        return SCEstimate(math.inf, "unreachable-threshold", None, None)

    log_prior = tuple(_log2(w) for w in pv.probs)
    exact = (
        values[0]
        for values in _posterior_surprisal_walk(
            hset, log_prior, (idx,), lambda s: s
        )
    )

    def make_mc() -> Callable[[int], tuple[list[float], list[float]]]:
        return _mc_curve_sampler(
            lambda _rng: idx, hset, log_prior, sequences, seed
        )

    return _scan_crossing(target, exact, exact_t_max, make_mc, _HARD_T_MAX)


def expected_sc_predictive(
    hset: HypothesisSet,
    prior: ProbVector | Sequence[float],
    p: float,
    sequences: int = _DEFAULT_MC_SEQUENCES,
    seed: int | str = 7,
    exact_t_max: int = 16,
) -> SCEstimate:
    """Prior-averaged version of the evaluator-side horizon: the drawn
    member's expected posterior surprisal, averaged over the prior,
    against the same -log2 p threshold."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"verification level must be in (0, 1], got {p!r}")
    pv = as_probvector(prior)
    if len(pv) != len(hset):
        raise ValueError(
            f"prior over {len(pv)} weights for {len(hset)} members"
        )
    target = -math.log2(p)
    classes = hset.equal_classes()
    floor = 0.0
    for cls in classes:
        mass = math.fsum(pv[i] for i in cls)
        for i in cls:
            if pv[i] > 0.0:
                floor += pv[i] * (-math.log2(pv[i] / mass))
    if floor > target + _FLOOR_TOL:
        return SCEstimate(math.inf, "unreachable-threshold", None, None)

    log_prior = tuple(_log2(w) for w in pv.probs)
    support = [i for i in range(len(hset)) if pv[i] > 0.0]
    exact = (
        math.fsum(pv[i] * v for i, v in zip(support, values))
        for values in _posterior_surprisal_walk(
            hset, log_prior, support, lambda s: s
        )
    )

    cum = []
    acc = 0.0
    for i in support:
        acc += pv[i]
        cum.append((acc, i))

    def draw(rng: random.Random) -> int:
        u = rng.random()
        for threshold, i in cum:
            if u < threshold:
                return i
        return support[-1]

    def make_mc() -> Callable[[int], tuple[list[float], list[float]]]:
        return _mc_curve_sampler(draw, hset, log_prior, sequences, seed)

    return _scan_crossing(target, exact, exact_t_max, make_mc, _HARD_T_MAX)


def mc_surprisal_moment_curve(
    ideal: ProcessSpec,
    hset: HypothesisSet,
    prior: ProbVector | Sequence[float],
    t_max: int,
    orders: Sequence[int],
    sequences: int,
    seed: int | str,
) -> dict[tuple[int, int], float]:
    """Monte Carlo posterior-surprisal moments for every horizon up to
    t_max and every order at once, via importance sampling.

    Sequences are drawn from an equal defensive mixture of the ideal
    and the distinct set members, with exact per-prefix likelihood
    ratios as weights, which keeps relative error on higher moments
    far below plain sampling from the ideal.  Memoryless binary
    members only.
    """
    if t_max < 1:
        raise ValueError(f"horizon must be >= 1, got {t_max}")
    pv = as_probvector(prior)
    idx = _member_index(ideal, hset)
    members = hset.members
    if not all(isinstance(m, IidSpec) for m in members):
        raise ValueError("importance-sampled moments need memoryless members")
    n = len(members)
    log_prior = tuple(_log2(w) for w in pv.probs)

    # defensive proposal: equal mixture over distinct component specs
    comp_probs1: list[float] = []
    for spec in (ideal, *members):
        p1 = spec.dist[1]  # type: ignore[union-attr]
        if all(abs(p1 - c) > 0.0 for c in comp_probs1):
            comp_probs1.append(p1)
    ncomp = len(comp_probs1)
    comp_log = [
        [_log2(1.0 - p1), _log2(p1)] for p1 in comp_probs1
    ]
    logt = [[_log2(p) for p in m.dist.probs] for m in members]  # type: ignore[union-attr]
    log_ncomp = math.log2(ncomp)

    rng = random.Random(f"{seed}:moments")
    sums: dict[tuple[int, int], float] = {
        (t, m): 0.0 for t in range(1, t_max + 1) for m in orders
    }
    for _ in range(sequences):
        c = rng.randrange(ncomp)
        p1 = comp_probs1[c]
        ll = [0.0] * n  # member logliks
        qq = [0.0] * ncomp  # proposal component logliks
        for t in range(1, t_max + 1):
            sym = 1 if rng.random() < p1 else 0
            for mm in range(n):
                ll[mm] += logt[mm][sym]
            for cc in range(ncomp):
                qq[cc] += comp_log[cc][sym]
            scores = [log_prior[mm] + ll[mm] for mm in range(n)]
            surp = -(scores[idx] - _logsumexp2(scores))
            # weight = P_ideal(prefix) / Q(prefix), exact in log space
            log_q = _logsumexp2(qq) - log_ncomp
            log_w = ll[idx] - log_q
            w = 2.0**log_w
            for m in orders:
                sums[(t, m)] += w * surp**m
    return {key: total / sequences for key, total in sums.items()}


def hypothesis_count_bound(count: int, p: float, eps: float) -> int:
    """Classic counting bound on observations: log2(count / (1 - p)) / eps,
    rounded up.  Reported as reference context only; no mechanism in
    this package derives budgets from it."""
    if count < 1:
        raise ValueError(f"need at least one hypothesis, got {count}")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"confidence must be in [0, 1), got {p!r}")
    if eps <= 0.0:
        raise ValueError(f"accuracy must be > 0, got {eps!r}")
    return math.ceil(math.log2(count / (1.0 - p)) / eps)
