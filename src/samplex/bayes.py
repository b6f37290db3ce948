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
band form is used throughout.
The rule is written once, in ``_stopping_rule``: ``check_stop`` and
every Monte Carlo stopping trial decide through the same function.  A
trial reads the ideal's symbols from ``processes.symbols``, the one
draw loop of the library, and ``_trial_loop`` scores them step by step:
each run sets it up once and calls it once per seed.  Over a binary
memoryless set a trial's likelihoods depend on its length and count of
1s alone, so ``_count_loop`` asks the rule once per (t, n1) cell and
keeps the verdicts in a per-run dict of at most _TABLE_CELLS cells.
The posterior trace is one more stopping trial through ``_trial_loop``,
whose decide function also records the posterior at each step.  The
rule weighs its groups only at steps where the largest group size over
the summed weights reaches p: no group's computed mass exceeds that
ratio, so the verdicts are those of weighing every step.

A member's likelihood is also written once.  Each set caches one log
table, log2 P(symbol | context) for every member, and one start score
per prefix of at most ``memory`` symbols: its -sequence_log_probability,
summed over the chain's hidden start.  The posterior step and the
step-path stopping trials score a sequence as its prefix's start score
plus the table entries of the steps after it; the class walk and the
count-path trials score a class of sequences through one function,
``_class_loglik``, as that start score plus count x table entry.

Expected-sample-complexity threshold equations are implicit in t and
the naive fixed-point iteration repels; the solver instead scans the
monotone expectation curve for the threshold crossing.  One class walk
computes the posterior-surprisal curve and its moments.  It merges
sequences into classes that every member scores alike (the first
``memory`` symbols, the current window, and the count of each (context,
symbol) step), which for memoryless members are the symbol
compositions, and scores every class the same way.  Stepping every
symbol gives the exact curve, refused past _CLASS_LIMIT classes per
horizon; letting a seeded population draw its symbols, one
``getrandbits`` block per class and step, gives the Monte Carlo curve
beyond the exact horizon and the importance-sampled moments, for
memoryless members only.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import operator
import random
import struct
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .bitstrings import resolution_cap
from .info import (
    STEP_BUDGET,
    ComputationRefused,
    ProbVector,
    as_probvector,
    cross_entropy,
    entropy_rate,
    logsumexp2,
    relative_entropy,
    safe_log2,
    stationary_rate,
)
from .processes import (
    BitSource,
    Context,
    IidSpec,
    MarkovSpec,
    sequence_log_probability,
    symbols,
)
from .scdist import EmpiricalSCDist

_DEFAULT_MC_SEQUENCES = 10_000
_DEFAULT_BUDGET = 100_000
# sequence classes one horizon of the exact surprisal walk may hold; on
# a 4-symbol memory-2 pair, whose classes barely merge, the process
# peaks near 51 MB (CPython 3.11) when the limit is reached
_CLASS_LIMIT = 65_536
# (t, n1) cells whose verdicts one count-path run may keep, 72 bytes
# each on CPython 3.11, so 9 MiB: enough for the 112 815 cells that 200
# censored trials of 2 000 fair-coin steps reach; past it the count path
# weighs each new cell at every step that reaches it, so the cap moves
# no verdict
_TABLE_CELLS = 1 << 17

ProcessSpec = IidSpec | MarkovSpec


def divergence_rate(a: ProcessSpec, b: ProcessSpec) -> float:
    """Symmetrized per-symbol relative entropy between two specs, in bits.

    Each direction weights the per-context divergence by the source's
    stationary context distribution; the max of the two directions is
    returned so the result is a genuine dissimilarity.
    """
    return max(
        stationary_rate(a, b, relative_entropy),
        stationary_rate(b, a, relative_entropy),
    )


@dataclass(frozen=True)
class HypothesisSet:
    """Finite candidate processes over one alphabet with equal memory.
    What is derived from the members is built on first use, kept on the
    set and takes no part in equality."""

    members: tuple[ProcessSpec, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("hypothesis set must be non-empty")
        alphabets = {m.alphabet_size for m in self.members}
        if len(alphabets) != 1:
            raise ValueError(f"members disagree on alphabet size: {alphabets}")
        memories = {m.memory for m in self.members}
        if len(memories) != 1:
            raise ValueError(
                f"members disagree on memory length: {memories}"
            )

    def __len__(self) -> int:
        return len(self.members)

    @property
    def alphabet_size(self) -> int:
        return self.members[0].alphabet_size

    @property
    def memory(self) -> int:
        return self.members[0].memory

    @cached_property
    def rates(self) -> tuple[float, ...]:
        return tuple(entropy_rate(m) for m in self.members)

    def log_prior(self, prior: ProbVector | Sequence[float]) -> tuple[float, ...]:
        """Each member's log2 prior weight; a prior must weigh every member
        of the set, no more and no fewer.  The one place a prior becomes
        log2 values."""
        pv = as_probvector(prior)
        if len(pv) != len(self):
            raise ValueError(f"prior over {len(pv)} weights for {len(self)} members")
        return tuple(safe_log2(w) for w in pv.probs)

    def check_ideal(self, ideal: ProcessSpec) -> None:
        """The ideal of a stopping trial may differ from the members in
        memory, not in alphabet."""
        if ideal.alphabet_size != self.alphabet_size:
            raise ValueError(
                f"the ideal emits {ideal.alphabet_size} symbols, the "
                f"hypotheses {self.alphabet_size}"
            )

    @cached_property
    def _log_table(self) -> list[list[float]]:
        """Each member's log2 P(sym | context) at index c * k + sym, with
        the contexts numbered in ``contexts()`` order, so the window that
        context c and symbol sym leave is numbered (c * k + sym) % k**memory.
        The one place member conditionals become log2 values."""
        contexts = self.members[0].contexts()
        return [
            [safe_log2(p) for ctx in contexts for p in m.conditional(ctx).probs]
            for m in self.members
        ]

    # memos: ``_start_score`` by prefix, ``equivalence_groups`` by slack
    @cached_property
    def _starts(self) -> dict[Context, tuple[float, ...]]:
        return {}

    @cached_property
    def _groups(self) -> dict[float, tuple[tuple[int, ...], ...]]:
        return {}


def equivalence_groups(
    hset: HypothesisSet, eps_d: float
) -> tuple[tuple[int, ...], ...]:
    """Partition members into groups whose pairwise symmetrized
    per-symbol relative entropy is at most eps_d (transitively closed).

    eps_d = 0 groups only distributions with divergence exactly zero.
    """
    if not eps_d >= 0.0:
        raise ValueError(f"dissimilarity slack must be >= 0, got {eps_d}")
    if eps_d in hset._groups:
        return hset._groups[eps_d]
    # each member joins every group found so far that holds a member within
    # eps_d of it; sorting the sorted tuples orders them by smallest member
    groups: list[tuple[int, ...]] = []
    for i, member in enumerate(hset.members):
        near = [
            g for g in groups
            if any(divergence_rate(hset.members[j], member) <= eps_d for j in g)
        ]
        groups = [g for g in groups if g not in near]
        groups.append(tuple(sorted(sum(near, (i,)))))
    hset._groups[eps_d] = tuple(sorted(groups))
    return hset._groups[eps_d]


def _start_score(hset: HypothesisSet, prefix: Context) -> tuple[float, ...]:
    """Each member's log2 likelihood of a prefix of at most ``memory``
    symbols, summed over its hidden start (-sequence_log_probability);
    kept per prefix on the set."""
    scores = hset._starts
    if prefix not in scores:
        scores[prefix] = tuple(
            -sequence_log_probability(m, prefix) for m in hset.members
        )
    return scores[prefix]


@dataclass(frozen=True)
class PosteriorState:
    """Immutable posterior over a hypothesis set after t observations.

    Per-member log2 sequence likelihoods are carried explicitly, and
    ``window`` holds the last ``memory`` observations.  While t <= memory
    a chain's hidden start has not collapsed: the likelihoods are the
    prefix's start score (``_start_score``).  From then on the window is
    every member's context, and each step adds one entry of the set's
    log table (``HypothesisSet._log_table``).
    """

    hset: HypothesisSet
    log_prior: tuple[float, ...]
    loglik: tuple[float, ...]
    t: int
    window: tuple[int, ...]

    @staticmethod
    def from_prior(
        hset: HypothesisSet, prior: ProbVector | Sequence[float]
    ) -> "PosteriorState":
        log_prior = hset.log_prior(prior)
        return PosteriorState(hset, log_prior, (0.0,) * len(hset), 0, ())

    @property
    def all_falsified(self) -> bool:
        return all(
            lp + ll == -math.inf
            for lp, ll in zip(self.log_prior, self.loglik)
        )

    def log_posterior(self) -> tuple[float, ...]:
        logs = _log_posterior(self.log_prior, self.loglik)
        if logs is None:
            raise ValueError(
                "posterior undefined: every hypothesis assigns the "
                "observations probability 0"
            )
        return logs

    def posterior(self) -> ProbVector:
        return ProbVector(_normalize(self.log_posterior()))


def _log_posterior(
    log_prior: Sequence[float], loglik: Sequence[float]
) -> tuple[float, ...] | None:
    """Each member's log2 posterior, or None once every member is
    falsified."""
    scores = [lp + ll for lp, ll in zip(log_prior, loglik)]
    norm = logsumexp2(scores)
    if norm == -math.inf:
        return None
    return tuple(s - norm for s in scores)


def _normalize(logs: Sequence[float]) -> tuple[float, ...]:
    """The probabilities of log2 posteriors, weighed against the largest."""
    top = max(logs)
    weights = [2.0 ** (l - top) for l in logs]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def posterior_update(state: PosteriorState, symbol: int) -> PosteriorState:
    """Condition the posterior on one more observed symbol.

    When every hypothesis assigns the symbol probability 0 the
    resulting state is terminal (``all_falsified``); the posterior
    itself is then undefined and raises.
    """
    hset = state.hset
    k = hset.alphabet_size
    if not 0 <= symbol < k:
        raise ValueError(f"symbol {symbol} outside the alphabet")
    window = state.window + (symbol,)
    if state.t < hset.memory:
        loglik = _start_score(hset, window)
    else:
        step = 0
        for sym in window:
            step = step * k + sym
        loglik = tuple(
            ll + row[step] for ll, row in zip(state.loglik, hset._log_table)
        )
        window = window[1:]
    return PosteriorState(hset, state.log_prior, loglik, state.t + 1, window)


def typical_set_bounds(
    spec: ProcessSpec, t: int, level: float
) -> tuple[float, float]:
    """Probability band (lower, upper) around 2^(-t * rate) at the
    given level: the band shrinks geometrically with per-step ratio
    2^(-rate), and collapses to the center exactly at level 1.
    """
    return typical_band(entropy_rate(spec), t, level)


def typical_band(rate: float, t: int, level: float) -> tuple[float, float]:
    """``typical_set_bounds`` of a process whose entropy rate is
    ``rate``, so that a table over t computes the rate once."""
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {t}")
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0, 1], got {level!r}")
    center = 2.0 ** (-t * rate)
    return center * level, center / level


def warmup_threshold(rate: float, level: float) -> int:
    """Observations required before typicality comparisons are trusted."""
    return max(0, math.ceil(rate - math.log2(level)))


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
    cross = stationary_rate(ideal, hypothesis, cross_entropy)
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
        if not self.eps_d >= 0.0:
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


_Verdict = tuple[DecisionStatus, tuple[int, ...]]


def _stopping_rule(
    hset: HypothesisSet, cfg: StoppingConfig, log_prior: Sequence[float]
) -> Callable[[Sequence[float], int], _Verdict | None]:
    """The stopping rule for one set, config and prior, as a function of
    the per-member log2 likelihoods at time t: a terminal (status,
    group), or None to keep observing.  ``check_stop`` and every Monte
    Carlo trial decide through it.

    Verification: the heaviest dissimilarity group must hold posterior
    mass >= p and, after t = 0, contain a member whose per-symbol
    surprisal is inside its typical band at level p.  With p = 1 this
    tightens to structural certainty: every member outside the group at
    likelihood zero.  Falsification: every member falsified, or, after
    the warm-up, every member's surprisal outside its band at level q.
    Hitting the resolution cap forces a terminal Undetermined.

    No group's computed mass exceeds ``largest`` / total, with
    ``largest`` the largest group size, so ``decide`` weighs the groups
    only when that ratio reaches p.  Each weight 2 ** (score - top) is at
    most 1 and ``math.fsum`` rounds a group's exact sum correctly, so that
    sum is at most |g| <= ``largest``; a correctly rounded division is
    monotone, so fsum(w_g) / total <= ``largest`` / total as floats, with
    no margin.  With singleton groups 1 / total is the heaviest mass.
    With p = 1 a group verifies only when every member outside it is at
    likelihood zero; it then holds mass 1, so it is the top member's.  A
    live member with no zero in its log table (``lasting``) keeps a finite
    likelihood on every sequence, its start score included, since every
    prefix has positive mass from any start.  So when no group holds every
    lasting member, no step can verify, nor can every member be falsified,
    and ``decide`` never weighs the scores: that is fixed once, at set-up.
    """
    members = range(len(hset))
    rates = hset.rates
    groups = equivalence_groups(hset, cfg.eps_d)
    group_of = {i: g for g in groups for i in g}
    p = cfg.p
    largest = max(map(len, groups))
    eps_p = -math.log2(p) if p > 0.0 else math.inf
    eps_q = -math.log2(cfg.q) if cfg.q > 0.0 else math.inf
    warmup = (
        max(1, warmup_threshold(max(rates), cfg.q)) if cfg.q > 0.0 else math.inf
    )
    cap = resolution_cap(cfg.r)
    live = {i for i in members if log_prior[i] > -math.inf}
    lasting = {i for i in live if -math.inf not in hset._log_table[i]}
    weigh = p < 1.0 or any(lasting <= set(g) for g in groups)

    def verdict(group: tuple[int, ...]) -> _Verdict:
        if len(group) == 1:
            return DecisionStatus.VERIFIED, group
        return DecisionStatus.PARTIALLY_IDENTIFIED, group

    def decide(loglik: Sequence[float], t: int) -> _Verdict | None:
        if weigh:
            scores = list(map(operator.add, log_prior, loglik))
            top = max(scores)
            if top == -math.inf:
                return DecisionStatus.FALSIFIED, ()
            if p == 1.0:
                group = group_of[scores.index(top)]
                if all(scores[i] == -math.inf for i in members if i not in group):
                    return verdict(group)
            else:
                weights = [2.0 ** (s - top) for s in scores]
                total = math.fsum(weights)
                if largest / total >= p:
                    masses = [math.fsum(weights[i] for i in g) / total for g in groups]
                    best = max(range(len(groups)), key=masses.__getitem__)
                    group = groups[best]
                    if masses[best] >= p and (
                        t == 0
                        or any(abs(-loglik[i] / t - rates[i]) <= eps_p for i in group)
                    ):
                        return verdict(group)
        if t >= warmup and all(
            [abs(-ll / t - rate) > eps_q for ll, rate in zip(loglik, rates)]
        ):
            return DecisionStatus.FALSIFIED, ()
        if t >= cap:
            return DecisionStatus.UNDETERMINED, ()
        return None

    return decide


def check_stop(state: PosteriorState, cfg: StoppingConfig) -> Decision:
    """Apply the stopping rule (see ``_stopping_rule``) to the current
    posterior; the decision records the posterior unless every member
    is falsified."""
    decided = _stopping_rule(state.hset, cfg, state.log_prior)(
        state.loglik, state.t
    )
    status, group = decided or (DecisionStatus.UNDETERMINED, ())
    posterior = None if state.all_falsified else state.posterior().probs
    return Decision(status, group, state.t, posterior, decided is not None)


@dataclass(frozen=True)
class MCStoppingReport:
    """Monte Carlo stopping-time summary.

    ``dist`` records decided trials by stopping time; trials that hit
    the budget undecided are censored inside it, and ``decisions``
    tallies decision kinds (censored trials count as Undetermined).
    ``symbols`` is the sum of every trial's stopping time, censored
    trials included (the symbols the trials drew), ``fair_bits`` the
    fair bits those draws read, and ``decides`` the times the trials
    evaluated the stopping rule: one per step on the step path, one per
    verdict kept or step at a cell past the cap on the count path (see
    ``_count_loop``).
    """

    dist: EmpiricalSCDist
    decisions: dict[str, int]
    trials: int
    symbols: int
    fair_bits: int
    decides: int

    def mean(self) -> float:
        return self.dist.moment(1)

    def moments(self, highest: int = 4) -> tuple[float, ...]:
        return tuple(self.dist.moment(m) for m in range(1, highest + 1))


_Trial = Callable[[str], tuple[DecisionStatus, int, int, int]]


def _trial_loop(
    ideal: ProcessSpec,
    hset: HypothesisSet,
    decide: Callable[[Sequence[float], int], _Verdict | None],
    budget: int,
) -> _Trial:
    """The stopping trial of one run on the step path, set up once:
    called with a seed, it runs one trial from t = 1 on (the caller has
    already asked ``decide`` at t = 0) and returns the decision, when it
    fell, the fair bits the trial read and the times it asked ``decide``,
    once per step.  Undetermined means censored (budget or r-cap
    exhausted).

    The run builds one source, and a trial reseeds it with its seed,
    reads the ideal's symbols from ``symbols(ideal, source)`` and scores
    them as ``posterior_update`` does, without state objects: while
    t <= memory the likelihoods are the prefix's start score, then each
    step adds ``cols[step]``, every member's log-table entry for the
    window (kept as its context number) and the symbol.  The trials of a
    binary memoryless set take ``_count_loop`` instead; the posterior
    trace stays here, because it prints these accumulated likelihoods.
    """
    k = hset.alphabet_size
    memory = hset.memory
    n_ctx = k**memory
    cols = list(zip(*hset._log_table))
    steps = range(1, budget + 1)
    start = (0.0,) * len(hset)
    source = BitSource(0)

    def trial(seed: str) -> tuple[DecisionStatus, int, int, int]:
        source.reseed(seed)
        loglik: Sequence[float] = start
        prefix: Context = ()
        window = 0
        for t, sym in zip(steps, symbols(ideal, source)):
            step = window * k + sym
            window = step % n_ctx
            if t <= memory:
                prefix += (sym,)
                loglik = _start_score(hset, prefix)
            else:
                loglik = list(map(operator.add, loglik, cols[step]))
            decided = decide(loglik, t)
            if decided is not None:
                return decided[0], t, source.bits_consumed, t
        return DecisionStatus.UNDETERMINED, budget, source.bits_consumed, budget

    return trial


# what ``_count_loop``'s dict gives for a cell it does not hold
_UNWEIGHED = object()


def _count_loop(
    ideal: ProcessSpec,
    hset: HypothesisSet,
    decide: Callable[[Sequence[float], int], _Verdict | None],
    budget: int,
) -> _Trial:
    """The stopping trial of one run on the count path, for a binary
    memoryless set (the ideal may be a chain); called as ``_trial_loop``'s
    trial is, with the same decisions.

    Such a set scores a sequence by its length t and its count n1 of 1s
    alone, so the run keeps what ``decide`` returned for each (t, n1)
    cell in one dict, keyed by t(t+1)/2 + n1, an index a trial carries
    from step to step.  A cell missing from the dict is weighed by
    ``decide`` on the cell's class score (``_class_loglik``, as
    ``_class_walk`` scores a class), and the verdict is kept while the
    dict holds fewer than _TABLE_CELLS cells; past that a new cell is
    weighed at every step that reaches it.  Accumulated and count-scored
    likelihoods may differ in their last bits; no verdict of a shipped
    config or pinned payload moves.  A trial counts its ``decide`` calls:
    cells filled plus steps at cells the dict could not keep.
    """
    steps = range(1, budget + 1)
    verdicts: dict[int, _Verdict | None] = {}
    kept = verdicts.get
    source = BitSource(0)

    def trial(seed: str) -> tuple[DecisionStatus, int, int, int]:
        source.reseed(seed)
        cell = weighed = 0
        for t, sym in zip(steps, symbols(ideal, source)):
            cell += t + sym
            decided = kept(cell, _UNWEIGHED)
            if decided is _UNWEIGHED:
                n1 = cell - t * (t + 1) // 2
                decided = decide(_class_loglik(hset, (), ((0, t - n1), (1, n1))), t)
                weighed += 1
                if len(verdicts) < _TABLE_CELLS:
                    verdicts[cell] = decided
            if decided is not None:
                return decided[0], t, source.bits_consumed, weighed
        return DecisionStatus.UNDETERMINED, budget, source.bits_consumed, weighed

    return trial


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
    every trial, which then draws nothing.  Trials still undecided after
    max_steps symbols (``_DEFAULT_BUDGET`` when None), or stopped by the
    r-cap, are censored, not dropped.  The ideal may differ from the
    members in memory, not in alphabet.  Over a binary memoryless set
    the trials read their verdicts from a capped per-run dict of (t, n1)
    cells (``_count_loop``); any other set weighs every step
    (``_trial_loop``).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    hset.check_ideal(ideal)
    log_prior = hset.log_prior(prior)
    budget = _DEFAULT_BUDGET if max_steps is None else max_steps

    decide = _stopping_rule(hset, cfg, log_prior)
    first = decide((0.0,) * len(hset), 0)
    if first is not None:
        results = [(first[0], 0, 0, 0)] * trials
    else:
        counted = hset.alphabet_size == 2 and hset.memory == 0
        trial = (_count_loop if counted else _trial_loop)(ideal, hset, decide, budget)
        results = [trial(f"{seed}:{i}") for i in range(trials)]

    # list.count compares statuses by identity; a dict tally would call
    # the pure-Python Enum.__hash__ twice per trial
    statuses, steps, bits, weighed = zip(*results)
    counts: dict[int, int] = {}
    for status, t in zip(statuses, steps):
        if status is not DecisionStatus.UNDETERMINED:
            counts[t] = counts.get(t, 0) + 1
    decisions = {s.value: statuses.count(s) for s in DecisionStatus}
    censored = decisions[DecisionStatus.UNDETERMINED.value]
    dist = EmpiricalSCDist(counts, trials, censored)
    return MCStoppingReport(
        dist, decisions, trials, sum(steps), sum(bits), sum(weighed)
    )


def posterior_trace(
    ideal: ProcessSpec,
    hset: HypothesisSet,
    prior: ProbVector | Sequence[float],
    cfg: StoppingConfig,
    seed: int | str,
    limit: int,
) -> list[tuple[float, ...]]:
    """The posterior at t = 0, 1, 2, ... (row t) of one stopping trial,
    the trial seeded "{seed}:trace" and run through the same loop as the
    trials of ``mc_sample_complexity``, for at most ``limit``
    observations.  The last row is the one the rule decided at; once
    every member is falsified the trace ends without a row."""
    hset.check_ideal(ideal)
    log_prior = hset.log_prior(prior)
    decide = _stopping_rule(hset, cfg, log_prior)
    rows: list[tuple[float, ...]] = []

    def record(loglik: Sequence[float], t: int) -> _Verdict | None:
        logs = _log_posterior(log_prior, loglik)
        if logs is None:
            return DecisionStatus.FALSIFIED, ()
        rows.append(_normalize(logs))
        return decide(loglik, t)

    if record((0.0,) * len(hset), 0) is None:
        _trial_loop(ideal, hset, record, limit)(f"{seed}:trace")
    return rows


# ---------------------------------------------------------------------------
# expected sample complexity: exact enumeration and Monte Carlo curves


def _member_index(ideal: ProcessSpec, hset: HypothesisSet) -> int:
    for i, m in enumerate(hset.members):
        if ideal == m:
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


# CPython builds random() from two consecutive 32-bit Mersenne Twister
# words a, b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and
# getrandbits(64 * n) returns the 2n words of n random() calls, first
# word least significant, leaving the generator where those calls would.
# So in its 8n little-endian bytes draw i's words are a = bytes 8i..8i+3
# and b = bytes 8i+4..8i+7, and byte 8i + 3, the top byte of a, is the
# top byte of u: u lies in [byte / 256, (byte + 1) / 256).
_EXACT = 255  # table code: resolve the draw from all 53 bits
_WORDS = struct.Struct("<II")


class _InverseCdf:
    """A categorical distribution compiled for ``_draw_counts``.

    ``cum`` holds the partial sums of every probability but the last;
    the outcome of a uniform u is bisect_right(cum, u).  ``table`` maps
    the top byte of u to the outcome that every u with that byte
    shares, or to _EXACT when a partial sum splits the byte or the
    outcome is _EXACT or more (alphabets of 256 symbols and up);
    ``codes`` lists the outcomes the table gives directly.
    """

    __slots__ = ("cum", "table", "codes")

    def __init__(self, probs: Sequence[float]) -> None:
        self.cum = list(itertools.accumulate(probs[:-1]))
        table = bytearray()
        for byte in range(256):
            first = bisect.bisect_right(self.cum, byte / 256)
            last = bisect.bisect_right(self.cum, (byte + 1) / 256 - 2**-53)
            table.append(first if first == last and first < _EXACT else _EXACT)
        self.table = bytes(table)
        self.codes = sorted(set(table) - {_EXACT})


def _draw_counts(rng: random.Random, cdf: _InverseCdf, n: int) -> list[int]:
    """Outcome counts of n inverse-CDF draws from the uniforms of n
    ``rng.random()`` calls: outcome j is the first with u < cdf.cum[j],
    else the last.  For every n the uniforms come from one ``getrandbits``
    block, which leaves ``rng`` in the same state, and are counted by
    their top byte, or from all 53 bits where the table gives _EXACT."""
    counts = [0] * (len(cdf.cum) + 1)
    raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    codes = raw[3::8].translate(cdf.table)
    for j in cdf.codes:
        counts[j] = codes.count(j)
    i = codes.find(_EXACT)
    while i >= 0:
        a, b = _WORDS.unpack_from(raw, 8 * i)
        u = ((a >> 5) << 26 | b >> 6) / 2**53
        counts[bisect.bisect_right(cdf.cum, u)] += 1
        i = codes.find(_EXACT, i + 1)
    return counts


def _class_loglik(
    hset: HypothesisSet, prefix: Context, counts: Iterable[tuple[int, int]]
) -> list[float]:
    """Every member's log2 likelihood of a sequence class: the prefix's
    start score plus count x log-table entry for each (step, count) pair,
    with step = context * k + symbol.  Zero counts are skipped, so
    0 x -inf never becomes nan.  ``_class_walk`` scores its classes and
    ``_count_loop`` its (t, n1) cells through it."""
    ll = list(_start_score(hset, prefix))
    for step, cnt in counts:
        if cnt:
            for m, row in enumerate(hset._log_table):
                ll[m] += cnt * row[step]
    return ll


def _class_walk(
    hset: HypothesisSet,
    log_prior: Sequence[float],
    target: int,
    population: dict[int | None, int],
    rng: random.Random | None = None,
) -> Iterator[list[tuple[int | None, int, list[float], float]]]:
    """Yield, for t = 0, 1, 2, ..., the sequence classes of horizon t,
    each scored as (generator, multiplicity, log2 likelihood under every
    member, posterior surprisal of the target member).

    A class holds the sequences that every member scores alike: the
    first ``memory`` symbols (which fix each chain's hidden start), the
    current window, and the count of each (context, symbol) step since
    then, kept as sorted (step, count) pairs with no zero counts.  For
    memoryless members the classes are the symbol compositions.  A class
    is scored as the prefix's start score plus count x log-table entry
    over its counts, the likelihood ``posterior_update`` gives each of
    its sequences, and dropped once the target rules it out.

    ``population`` maps a generator to its number of sequences at t = 0.
    Without ``rng`` the walk is exact: the generator is None, every class
    steps every symbol, and a horizon with more than _CLASS_LIMIT classes
    is refused (ComputationRefused).  With ``rng`` the walk samples: each
    of a class's sequences draws its next symbol from its generating
    member, which must be memoryless.  Horizon t is built only when
    asked for.
    """
    members = hset.members
    n = len(members)
    k = hset.alphabet_size
    memory = hset.memory
    n_ctx = k**memory
    if rng is not None:
        cdfs = [_InverseCdf(m.conditional(()).probs) for m in members]
    # class key: (generator, first symbols, window as a context index,
    # flat (step, count) pairs with step = context * k + symbol) ->
    # number of sequences in the class
    layer = {(gen, (), 0, ()): mult for gen, mult in population.items()}
    for t in itertools.count(1):
        scored = []
        dead = []
        for key, mult in layer.items():
            gen, prefix, _window, steps = key
            ll = _class_loglik(hset, prefix, zip(steps[::2], steps[1::2]))
            if ll[target] == -math.inf:
                dead.append(key)
                continue
            scores = [log_prior[m] + ll[m] for m in range(n)]
            norm = logsumexp2(scores)
            scored.append((gen, mult, ll, -(scores[target] - norm)))
        yield scored

        for key in dead:
            del layer[key]
        previous, layer = layer, {}
        for (gen, prefix, window, steps), mult in previous.items():
            counts = (
                [mult] * k if rng is None else _draw_counts(rng, cdfs[gen], mult)
            )
            for sym, cnt in enumerate(counts):
                if not cnt:
                    continue
                step = window * k + sym
                if len(prefix) < memory:
                    key = (gen, prefix + (sym,), step % n_ctx, steps)
                else:
                    key = (gen, prefix, step % n_ctx, _count_step(steps, step))
                layer[key] = layer.get(key, 0) + cnt
            if rng is None and len(layer) > _CLASS_LIMIT:
                raise ComputationRefused(
                    f"horizon {t} holds more than {_CLASS_LIMIT} sequence "
                    "classes"
                )


def _posterior_surprisal_walk(
    hset: HypothesisSet,
    log_prior: Sequence[float],
    target: int,
    transform: Callable[[float], float],
) -> Iterator[float]:
    """Yield, for t = 0, 1, 2, ..., E[transform(-log2 posterior(target))]
    over sequences of length t drawn from the target member, by exact
    enumeration over the classes of ``_class_walk`` (refused past its
    class limit)."""
    for classes in _class_walk(hset, log_prior, target, {None: 1}):
        total = 0.0
        for _gen, mult, ll, surprisal in classes:
            total += 2.0 ** (math.log2(mult) + ll[target]) * transform(surprisal)
        yield total


def surprisal_moment(
    ideal: ProcessSpec,
    hset: HypothesisSet,
    prior: ProbVector | Sequence[float],
    t: int,
    m: int,
) -> float:
    """m-th raw moment of the posterior surprisal of the ideal member
    after t observations drawn from it, by exact enumeration: horizon t
    of the class walk, refused beyond the walk's class limit."""
    if m < 1:
        raise ValueError(f"moment order must be >= 1, got {m}")
    if t < 0:
        raise ValueError(f"horizon must be >= 0, got {t}")
    log_prior = hset.log_prior(prior)
    idx = _member_index(ideal, hset)
    walk = _posterior_surprisal_walk(hset, log_prior, idx, lambda s: s**m)
    return next(itertools.islice(walk, t, None))


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
    curve: Iterator[tuple[float, float | None]],
) -> SCEstimate:
    """Find the first t where a nonincreasing curve drops to the target.

    ``curve`` yields (value, se) for t = 0, 1, 2, ...: exact values carry
    se None, Monte Carlo values their standard error.  The caller decides
    t = 0 exactly; its value, raised to the target, only anchors the
    first interpolation.  The scan stops at the first later horizon whose
    upper bound value + 1.96 se reaches the target, or where the curve
    ends.  The estimate and both ends of its confidence interval are
    first crossings of value + offset x se, an exact value counting as se
    0; one at an exact horizon is reported as enumeration, with no interval.
    """
    points: list[tuple[float, float]] = []
    exact = 0  # how many values are exact; they come first
    for value, se in curve:
        exact += se is None
        points.append((value, se or 0.0))
        if len(points) > 1 and value + 1.96 * (se or 0.0) <= target:
            break

    def crossing(offset: float) -> tuple[float, int] | None:
        """The interpolated crossing and the first horizon at or past it."""
        (mean, se), *rest = points
        last_v = max(mean + offset * se, target)
        for t, (mean, se) in enumerate(rest, 1):
            v = mean + offset * se
            if v <= target:
                frac = (last_v - target) / (last_v - v) if last_v > v else 0.0
                return (t - 1) + frac, t
            last_v = v
        return None

    found = crossing(0.0)
    if found is None:
        tail = ", ".join(f"{v:.6g}" for v, _ in points[-2:])
        return SCEstimate(
            math.inf, f"not-converged (last values {tail})", None, None
        )
    value, t = found
    if t < exact:
        return SCEstimate(value, "enumeration", None, t)
    lo, hi = crossing(-1.96), crossing(1.96)
    ci = (lo[0] if lo else 0.0, hi[0] if hi else math.inf)
    return SCEstimate(value, "monte-carlo", ci, t)


def _surprisal_curve(
    hset: HypothesisSet,
    log_prior: tuple[float, ...],
    target: int,
    exact_t_max: int,
    sequences: int,
    seed: int | str,
) -> Iterator[tuple[float, float | None]]:
    """Yield (value, se) for t = 0, 1, 2, ...: the expected posterior
    surprisal of the target member, on sequences drawn from it.

    The exact class walk gives the values (se None) up to exact_t_max,
    or up to the first horizon past its class limit.  From there on a
    Monte Carlo population of ``sequences`` drawn from the target takes
    over, for memoryless members only: a value is the population's mean
    surprisal, with its standard error.  The population steps from t = 0
    and ends the curve at horizon STEP_BUDGET // sequences.
    """
    t = 0
    walk = _posterior_surprisal_walk(hset, log_prior, target, lambda s: s)
    # past the class limit, Monte Carlo takes over at the refused horizon t
    with contextlib.suppress(ComputationRefused):
        for value in itertools.islice(walk, exact_t_max + 1):
            yield value, None
            t += 1
    if hset.memory:
        raise ComputationRefused(
            f"the crossing lies past horizon {t - 1}, the last exact one, "
            "and the Monte Carlo curve supports memoryless members only"
        )
    rng = random.Random(f"{seed}:curve")
    # the walk starts one uniform per sequence into the stream, as seeded curves always have
    rng.getrandbits(64 * sequences)
    walk = _class_walk(hset, log_prior, target, {target: sequences}, rng)
    for classes in itertools.islice(walk, t, STEP_BUDGET // sequences):
        mean = math.fsum(m * s for _, m, _, s in classes) / sequences
        square = math.fsum(m * s**2 for _, m, _, s in classes) / sequences
        yield mean, math.sqrt(max(0.0, square - mean**2) / sequences)


_UNREACHABLE = SCEstimate(math.inf, "unreachable-threshold", None, None)


def _never_ruled_out(ideal: ProcessSpec, member: ProcessSpec) -> bool:
    """Whether ``member`` keeps a positive likelihood at every horizon on
    some sequence the ideal emits, that is, whether some endless sequence
    has positive mass under both.  After ``memory`` symbols the window is
    both chains' context, so that holds exactly when a window both reach
    in ``memory`` positive steps from their starts leads to a cycle of
    steps (context, symbol) that both laws give positive mass.  A
    memoryless pair has one context, a cycle when some symbol has mass
    under both."""
    k, n = ideal.alphabet_size, len(ideal.contexts())
    laws = [[spec.conditional(c).probs for c in spec.contexts()] for spec in (ideal, member)]
    shared = [
        [(c * k + s) % n for s, (a, b) in enumerate(zip(*pair)) if min(a, b) > 0.0]
        for c, pair in enumerate(zip(*laws))
    ]
    # strip contexts whose every shared step leads to a stripped one: a
    # context left keeps a shared step to another left, so starts a cycle
    into: list[list[int]] = [[] for _ in shared]
    for c, row in enumerate(shared):
        for j in row:
            into[j].append(c)
    out = [len(row) for row in shared]
    stuck = [c for c, steps in enumerate(out) if not steps]
    for j in stuck:
        for c in into[j]:
            out[c] -= 1
            if not out[c]:
                stuck.append(c)
    # each chain's windows: the contexts its start reaches in memory steps
    ends = [set(spec.initial_mixture()) for spec in (ideal, member)]
    for _ in range(ideal.memory):
        ends = [
            {(c * k + s) % n for c in reached for s, q in enumerate(rows[c]) if q > 0.0}
            for reached, rows in zip(ends, laws)
        ]
    return any(out[c] for c in ends[0] & ends[1])


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

    The exact class walk carries the curve to ``exact_t_max``, or to
    the last horizon within _CLASS_LIMIT sequence classes (iid members
    with up to 6 symbols, and binary chains of memory up to 4, stay
    within it to t = 16).  Beyond, the same walk over a Monte Carlo
    population of ``sequences`` (at least 2, for a standard error) gives
    estimates with confidence bounds, for memoryless members over any
    alphabet; finite-memory members whose crossing lies past the exact
    horizon raise ComputationRefused.  The population steps at most
    STEP_BUDGET // sequences horizons; a curve still above the target
    there is reported as not converged.

    A prior whose normalized mass on the ideal reaches p answers 0.
    Otherwise the ideal's posterior ceiling, its prior over the summed
    prior of the members equal to it (they share its likelihood on every
    sequence), is compared with p.  Both comparisons are exact, as
    fractions.  Below p the threshold is unreachable; above p the curve
    is walked.  At p (always so at p = 1 with no live duplicate) the
    target is met only on sequences that rule out every other live
    member.  It is unreachable when some such member never is ruled out
    (``_never_ruled_out``); otherwise a memoryless set is ruled out by
    its first symbol and crosses at exactly t = 1, and a chain set takes
    the walk.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"verification level must be in (0, 1], got {p!r}")
    if sequences < 2:
        raise ValueError(
            "a Monte Carlo standard error needs at least 2 sequences, "
            f"got {sequences}"
        )
    pv = as_probvector(prior)
    log_prior = hset.log_prior(pv)
    idx = _member_index(ideal, hset)
    target = -math.log2(p)
    if Fraction(pv[idx]) >= Fraction(p) * sum(map(Fraction, pv.probs)):
        return SCEstimate(0.0, "prior-threshold", None, 0)
    twin = [m == ideal for m in hset.members]
    mass = sum(Fraction(w) for w, same in zip(pv.probs, twin) if same)
    ceiling = Fraction(pv[idx]) / mass if mass else 0
    if ceiling < p:
        return _UNREACHABLE
    if ceiling == p:
        rows = zip(hset.members, pv.probs, twin)
        if any(_never_ruled_out(ideal, m) for m, w, same in rows if w and not same):
            return _UNREACHABLE
        if not hset.memory:
            return SCEstimate(1.0, "enumeration", None, 1)
    curve = _surprisal_curve(hset, log_prior, idx, exact_t_max, sequences, seed)
    return _scan_crossing(target, curve)


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

    A population of sequences is drawn from the equal defensive mixture
    Q of the distinct set members and walked by ``_class_walk``; a class
    is weighted by its exact likelihood ratio P_ideal / Q, which keeps
    relative error on higher moments far below plain sampling from the
    ideal.  Memoryless members only, over any alphabet.
    """
    if t_max < 1:
        raise ValueError(f"horizon must be >= 1, got {t_max}")
    if sequences < 1:
        raise ValueError(f"need at least 1 sequence, got {sequences}")
    log_prior = hset.log_prior(prior)
    idx = _member_index(ideal, hset)
    if hset.memory:
        raise ValueError("importance-sampled moments need memoryless members")
    members = hset.members
    comps = [i for i, m in enumerate(members) if m not in members[:i]]
    log_ncomp = math.log2(len(comps))

    rng = random.Random(f"{seed}:moments")
    uniform = _InverseCdf([1.0 / len(comps)] * len(comps))
    population = dict(zip(comps, _draw_counts(rng, uniform, sequences)))
    walk = _class_walk(hset, log_prior, idx, population, rng)
    sums: dict[tuple[int, int], float] = {}
    for t, classes in enumerate(itertools.islice(walk, 1, t_max + 1), 1):
        for m in orders:
            sums[(t, m)] = 0.0
        for _gen, mult, ll, surprisal in classes:
            # weight = P_ideal(prefix) / Q(prefix), exact in log space
            log_q = logsumexp2([ll[c] for c in comps]) - log_ncomp
            w = mult * 2.0 ** (ll[idx] - log_q)
            for m in orders:
                sums[(t, m)] += w * surprisal**m
    return {key: total / sequences for key, total in sums.items()}

