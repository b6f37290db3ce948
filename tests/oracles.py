"""Definition-level oracles the test suite checks library results against.

Everything here recomputes quantities straight from their definitions
(set comprehensions, exact rational arithmetic, full enumerations) with
none of the library's shortcuts, so agreement is meaningful.  It also
keeps a refuted closed-form moment candidate as a cross-check target.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from samplex import (
    BitSource,
    ComputationRefused,
    Decision,
    DecisionStatus,
    EmpiricalSCDist,
    IdOutcome,
    IdStatus,
    IidSpec,
    PosteriorState,
    StoppingConfig,
    as_probvector,
    check_stop,
    divergence_rate,
    entropy_rate,
    equivalence_groups,
    posterior_update,
    resolution_cap,
    sequence_log_probability,
    symbols,
    warmup_threshold,
)
from samplex.bayes import HypothesisSet, _member_index, _Verdict
from samplex.info import logsumexp2
from samplex.scdist import _diff_positions

# Hard ceiling on exhaustive sequence enumeration: alphabet**horizon.
ENUM_LIMIT = 2**20


def oracle_cap(r: float) -> float:
    if r == 0.0:
        return math.inf
    if r == 1.0:
        return 0.0
    return float(math.ceil(-math.log2(r)))


def brute_force_identify(
    members: Sequence[str], query: str, r: float
) -> tuple[str, tuple[int, ...]]:
    """Identification decision straight from the membership rules.

    Returns (status, 1-based partial subset).  With the whole query
    observable: exact match verifies, otherwise the proper extensions
    are reported falsified.  Truncated: any member agreeing with the
    observed prefix on their overlap stays in play.
    """
    cap = oracle_cap(r)
    L = len(query)
    if cap >= L:
        for j, m in enumerate(members):
            if m == query:
                return "Verified", (j + 1,)
        ext = tuple(
            j + 1
            for j, m in enumerate(members)
            if len(m) > L and m[:L] == query
        )
        return "Falsified", ext
    c = int(cap)
    prefix = query[:c]
    consistent = tuple(
        j + 1
        for j, m in enumerate(members)
        if m[: min(c, len(m))] == prefix[: min(c, len(m))]
    )
    if consistent:
        return "Undetermined", consistent
    return "Falsified", ()


def check_members_reference(members: Sequence[object]) -> None:
    """The member checks of a ``SortedHypothesisSet`` one member at a
    time: raise ValueError naming the first member that is not a
    non-empty string over 0/1, then the first that repeats or breaks
    the sorted order of the one before it."""
    for m in members:
        if not isinstance(m, str) or not set(m) <= {"0", "1"}:
            raise ValueError(f"member must be a string over 0/1, got {m!r}")
        if not m:
            raise ValueError("members must be non-empty")
    for idx in range(1, len(members)):
        prev, cur = members[idx - 1], members[idx]
        if cur == prev:
            raise ValueError(f"duplicate member {cur!r} at index {idx}")
        if cur < prev:
            raise ValueError(
                f"member {cur!r} at index {idx} breaks sorted order"
            )


def identify_depth_first_reference(
    members: Sequence[str], query: str, r: float
) -> IdOutcome:
    """The depth-first decider's outcome from an indexed walk of each
    member's symbols: ``i`` is the deepest comparison made (1 at the
    first one) and ``h`` the member that pushed it past 1 or a later
    record."""
    cap = oracle_cap(r)
    complete = len(query) <= cap
    prefix = query if complete else query[: int(cap)]
    horizon = len(prefix)
    i_deep = h_deep = 0
    extensions: list[int] = []
    consistent: list[int] = []
    for j, member in enumerate(members, start=1):
        dead = False
        for k in range(min(len(member), horizon)):
            if i_deep == 0:
                i_deep = 1
            if k + 1 > i_deep:
                i_deep = k + 1
                h_deep = j
            if member[k] != prefix[k]:
                dead = True
                break
        if dead:
            continue
        if complete:
            if len(member) == horizon:
                return IdOutcome(IdStatus.VERIFIED, j, i_deep, (j,))
            if len(member) > horizon:
                extensions.append(j)
        else:
            consistent.append(j)
    if complete:
        return IdOutcome(IdStatus.FALSIFIED, h_deep, i_deep, tuple(extensions))
    status = IdStatus.UNDETERMINED if consistent else IdStatus.FALSIFIED
    return IdOutcome(status, h_deep, i_deep, tuple(consistent))


_END = ""  # nested-dict tree key of the member ending there; no symbol is empty


def context_tree_reference(members: Sequence[str]) -> dict:
    """The prefix tree as nested dicts, one per node: each next symbol
    maps to its child, and ``_END`` holds the 1-based index of the member
    ending there.  The empty set's tree is ``{}``."""
    root: dict = {}
    for idx, m in enumerate(members, start=1):
        node = root
        for sym in m:
            node = node.setdefault(sym, {})
        node[_END] = idx
    return root


def _terminals_reference(node: dict) -> list[int]:
    out = []
    stack = [node]
    while stack:
        for key, below in stack.pop().items():
            if key == _END:
                out.append(below)
            else:
                stack.append(below)
    return sorted(out)


def identify_tree_reference(tree: dict, query: str, r: float) -> IdOutcome:
    """The tree decider's outcome (status, h, i, partial subset) from a
    walk of ``context_tree_reference``'s nested dicts."""
    cap = oracle_cap(r)
    complete = len(query) <= cap
    prefix = query if complete else query[: int(cap)]
    if not tree:
        return IdOutcome(IdStatus.FALSIFIED, 0, 0, ())
    node = tree
    path_terminals: list[int] = []
    for depth, sym in enumerate(prefix):
        if _END in node:
            path_terminals.append(node[_END])
        if sym not in node:
            if complete or not path_terminals:
                return IdOutcome(IdStatus.FALSIFIED, 0, depth + 1, ())
            return IdOutcome(
                IdStatus.UNDETERMINED, 0, depth + 1, tuple(path_terminals)
            )
        node = node[sym]
    consumed = len(prefix)
    if complete:
        if _END in node:
            end = node[_END]
            return IdOutcome(IdStatus.VERIFIED, end, consumed, (end,))
        return IdOutcome(
            IdStatus.FALSIFIED, 0, consumed, tuple(_terminals_reference(node))
        )
    in_play = sorted(path_terminals + _terminals_reference(node))
    status = IdStatus.UNDETERMINED if in_play else IdStatus.FALSIFIED
    return IdOutcome(status, 0, consumed, tuple(in_play))


def pairwise_stop_pmf(L: int, K: int) -> dict[int, Fraction]:
    """Stopping-index distribution over all L! reveal orders, directly.

    K is the number of disagreeing positions; the walk stops at the
    first revealed disagreement, or at L when none exists.
    """
    diffs = set(range(K))
    counts: dict[int, int] = {}
    for order in itertools.permutations(range(L)):
        stop = L
        for pos, revealed in enumerate(order, start=1):
            if revealed in diffs:
                stop = pos
                break
        counts[stop] = counts.get(stop, 0) + 1
    total = math.factorial(L)
    return {i: Fraction(n, total) for i, n in sorted(counts.items())}


# the pairwise law is documented exact (Fraction) up to this length
PAIRWISE_EXACT_MAX_L = 20


def pairwise_pmf_reference(L: int, K: int, i: int) -> Fraction:
    """P(I = i) of the pairwise stopping index as the exact ratio
    C(L - i, K - 1) / C(L, K): the first disagreement is revealed at i
    and the other K - 1 lie among the L - i positions revealed later."""
    if i < 1 or i > L - K + 1:
        return Fraction(0)
    return Fraction(math.comb(L - i, K - 1), math.comb(L, K))


def pairwise_cdf_reference(L: int, K: int, i: int) -> Fraction:
    """P(I <= i) = 1 - C(L - i, K) / C(L, K), exactly."""
    i = min(max(i, 0), L)
    return 1 - Fraction(math.comb(L - i, K), math.comb(L, K))


def pairwise_moment_reference(L: int, K: int, m: int) -> Fraction:
    """E[I^m] from the rising-factorial moments
    E[I (I + 1) ... (I + r - 1)] = r! C(L + r, r) / C(K + r, r), through
    x^m = sum_r (-1)^(m - r) S(m, r) x (x + 1) ... (x + r - 1) with S the
    Stirling numbers of the second kind; no pmf is summed."""
    stirling = [1]  # S(n, 0 .. n), from S(n, k) = k S(n-1, k) + S(n-1, k-1)
    for n in range(1, m + 1):
        prev = [*stirling, 0]
        stirling = [0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)]
    return sum(
        (-1) ** (m - r)
        * stirling[r]
        * Fraction(math.factorial(r) * math.comb(L + r, r), math.comb(K + r, r))
        for r in range(m + 1)
    )


def _stop_index(order: tuple[int, ...] | list[int], diffs: set[int]) -> int:
    for pos, revealed in enumerate(order, start=1):
        if revealed in diffs:
            return pos
    return len(order)


def enumerate_orderings_reference(a: str, b: str) -> EmpiricalSCDist:
    """Stopping distribution of two alternatives, one reveal order at a
    time over all L! orders: the referee for ``enumerate_orderings_oracle``,
    which counts reveal patterns and weights each by the orders that make
    it."""
    diffs = set(_diff_positions(a, b))
    L = len(a)
    counts: Counter[int] = Counter()
    for order in itertools.permutations(range(L)):
        counts[_stop_index(order, diffs)] += 1
    return EmpiricalSCDist(dict(counts), math.factorial(L))


def mc_pairwise_oracle(
    a: str, b: str, trials: int, seed: int | str
) -> EmpiricalSCDist:
    """Stopping distribution from sampled reveal orders."""
    diffs = set(_diff_positions(a, b))
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = random.Random(seed)
    L = len(a)
    counts: Counter[int] = Counter()
    for _ in range(trials):
        counts[_stop_index(rng.sample(range(L), L), diffs)] += 1
    return EmpiricalSCDist(dict(counts), trials)


def geometric_moment_series(p: float, m: int, rtol: float = 1e-12) -> float:
    """E[I^m] for I geometric on 1, 2, ... with halting probability p, by
    summing i^m q^(i-1) p term by term until the geometric bound on the
    tail falls below rtol of the sum (about 1/p terms)."""
    q = 1.0 - p
    acc = 0.0
    i = 1
    term = p
    while True:
        acc += term
        i += 1
        term = i**m * q ** (i - 1) * p
        ratio = q * ((i + 1) / i) ** m
        if ratio < 1.0:
            tail = term * ratio / (1.0 - ratio)
            if tail + term < rtol * max(acc, 1.0):
                return acc + term


def exact_expected_bits(boundaries: Sequence[Fraction]) -> Fraction:
    """Expected fair flips per draw for dyadic interval refinement.

    Walks the binary interval tree until every branch sits inside one
    CDF cell; dyadic boundaries make the tree finite.
    """

    def inside_one_cell(lo: Fraction, hi: Fraction) -> bool:
        for j in range(len(boundaries) - 1):
            if boundaries[j] <= lo and hi <= boundaries[j + 1]:
                return True
        return False

    total = Fraction(0)
    frontier = [(Fraction(0), Fraction(1), 0)]
    while frontier:
        lo, hi, depth = frontier.pop()
        if inside_one_cell(lo, hi):
            total += Fraction(depth) * Fraction(1, 2**depth)
            continue
        mid = (lo + hi) / 2
        frontier.append((lo, mid, depth + 1))
        frontier.append((mid, hi, depth + 1))
    return total


def sample_discrete_reference(spec, source: BitSource) -> int:
    """One draw by dyadic interval refinement, straight from the
    definition: keep [z/2^n, (z+1)/2^n), and before each flip rescan every
    nonzero CDF cell for one that contains it (exact integers over
    2^dmax).  Returns the symbol; the flips read are left on ``source``."""
    bounds = spec.boundaries
    dmax = max(b.denominator for b in bounds).bit_length() - 1
    unit = 1 << dmax
    scaled = [int(b * unit) for b in bounds]
    z = 0
    n = 0
    while True:
        lo = z * unit
        hi = lo + unit
        shift = 1 << n
        for j in range(len(scaled) - 1):
            if scaled[j] == scaled[j + 1]:
                continue  # zero-probability cell
            if lo >= scaled[j] * shift and hi <= scaled[j + 1] * shift:
                return j
        z = (z << 1) | source.next_bit()
        n += 1


def refinement_trie_reference(boundaries: Sequence[Fraction]) -> tuple[int, ...]:
    """The flat refinement trie (slot 0 the root, ~j a leaf of symbol j,
    o > 0 the offset of an internal node's children), built by scanning
    every nonzero CDF cell for each node in the library's pending order:
    the O(k) per-node scan the library's bisection must match slot for
    slot."""
    dmax = max(b.denominator for b in boundaries).bit_length() - 1
    unit = 1 << dmax
    scaled = [int(b * unit) for b in boundaries]
    cells = [
        (j, scaled[j], scaled[j + 1])
        for j in range(len(scaled) - 1)
        if scaled[j] != scaled[j + 1]  # a zero-probability cell holds no interval
    ]
    slots = [0]
    pending = [(0, 0, 0)]  # (slot, n, z)
    while pending:
        slot, n, z = pending.pop()
        # interval endpoints as integers over 2**dmax, given n flips
        lo = z * unit
        hi = lo + unit
        shift = 1 << n
        for j, a, b in cells:
            if lo >= a * shift and hi <= b * shift:
                slots[slot] = ~j
                break
        else:
            child = slots[slot] = len(slots)
            slots += (0, 0)
            pending.append((child, n + 1, z << 1))
            pending.append((child + 1, n + 1, (z << 1) | 1))
    return tuple(slots)


def draw_per_bit(spec, source: BitSource) -> int:
    """One draw down the spec's refinement trie, one ``next_bit`` call per
    flip: the per-flip walk the library's draw loop, which reads the word
    in place, must match symbol for symbol and flip for flip.  The trie
    itself is checked against ``sample_discrete_reference``."""
    trie = spec._trie
    node = trie[0]
    while node > 0:
        node = trie[node + source.next_bit()]
    return ~node


def _next_context(spec, ctx: tuple[int, ...], sym: int) -> tuple[int, ...]:
    """The context a chain moves to, stepped by hand: its last
    ``memory`` symbols."""
    return (ctx + (sym,))[-spec.memory:] if spec.memory else ()


def _start_weights(spec) -> dict[tuple[int, ...], float]:
    """Each start context's weight as ``init`` gives it, zero weights
    kept; an iid spec and a fixed start have one context."""
    if isinstance(spec, IidSpec):
        return {(): 1.0}
    mode, payload = spec.init
    if mode == "context":
        return {payload: 1.0}
    contexts = itertools.product(range(spec.alphabet_size), repeat=spec.memory)
    return dict(zip(contexts, spec.stationary_distribution()))


def draw_start_reference(spec, source: BitSource) -> tuple[int, ...]:
    """The hidden start context.  When ``init`` leaves more than one
    open it is drawn from ``source`` by the dyadic law of its weights,
    contexts in lexicographic order."""
    start = _start_weights(spec)
    if len(start) == 1:
        return next(iter(start))
    law = IidSpec.from_probs(list(start.values()))
    return list(start)[draw_per_bit(law, source)]


def symbols_reference(spec, source: BitSource) -> Iterator[int]:
    """The endless symbol stream of an iid or Markov spec, stepping tuple
    contexts by hand: the hidden start is drawn at once, each symbol is
    drawn per flip from its context's row when it is read, and the
    context then keeps the last ``memory`` symbols."""

    def stream(ctx: tuple[int, ...]) -> Iterator[int]:
        while True:
            sym = draw_per_bit(spec.transitions[ctx], source)
            yield sym
            ctx = _next_context(spec, ctx, sym)

    return stream(draw_start_reference(spec, source))


def markov_sample_reference(spec, t: int, source: BitSource) -> tuple[int, ...]:
    """The first t symbols of ``symbols_reference``."""
    return tuple(itertools.islice(symbols_reference(spec, source), t))


def spread_encode_reference(code, message: str, t: int, source: BitSource) -> tuple[int, ...]:
    """t symbols of a spread code: position j is drawn from the component
    that message symbol j mod L selects, per flip."""
    idx = [int(ch) for ch in message]
    return tuple(
        draw_per_bit(code.components[idx[j % len(idx)]], source)
        for j in range(t)
    )


def block_distribution(spec, t: int) -> dict[tuple[int, ...], float]:
    """P(sequence) for every length-t sequence of positive probability,
    by a forward pass over (sequence, context) pairs from the start
    weights, stepping tuple contexts by hand."""
    k = spec.alphabet_size
    if k**t > ENUM_LIMIT:
        raise ComputationRefused(
            f"block enumeration {k}**{t} exceeds the {ENUM_LIMIT} limit"
        )
    layer = {((), ctx): w for ctx, w in _start_weights(spec).items() if w > 0.0}
    for _ in range(t):
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
        for (seq, ctx), w in layer.items():
            for sym, p in enumerate(spec.conditional(ctx).probs):
                if p > 0.0:
                    key = (seq + (sym,), _next_context(spec, ctx, sym))
                    nxt[key] = nxt.get(key, 0.0) + w * p
        layer = nxt
    out: dict[tuple[int, ...], float] = {}
    for (seq, _ctx), w in layer.items():
        out[seq] = out.get(seq, 0.0) + w
    return out


def draw_counts_reference(rng: random.Random, cum: list[float], n: int) -> list[int]:
    """Outcome counts of n inverse-CDF draws from ``rng``, one
    ``rng.random()`` per draw; outcome j is the first with u < cum[j],
    else the last."""
    counts = [0] * (len(cum) + 1)
    draw = rng.random
    for _ in range(n):
        counts[bisect.bisect_right(cum, draw())] += 1
    return counts


def exact_stationary(
    rows: Sequence[Sequence[Fraction]],
) -> list[Fraction]:
    """Solve pi.P = pi, sum(pi) = 1 exactly by Gaussian elimination."""
    n = len(rows)
    # equations: sum_i pi_i (P[i][j] - delta_ij) = 0 for j < n-1, plus sum = 1
    mat = [
        [rows[i][j] - (1 if i == j else 0) for i in range(n)] + [Fraction(0)]
        for j in range(n - 1)
    ]
    mat.append([Fraction(1)] * n + [Fraction(1)])
    for col in range(n):
        pivot = next(r for r in range(col, n) if mat[r][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return [mat[i][n] for i in range(n)]


def exact_decode_error(
    n: int, components: Sequence[Fraction], true_idx: int
) -> Fraction:
    """Exact per-position spread-decode error for binary components.

    ``components`` holds each component's probability of emitting 1.
    Maximum likelihood over the count of ones; ties resolve to the
    smallest component index.
    """
    p_true = components[true_idx]
    err = Fraction(0)
    for k in range(n + 1):
        liks = [pc**k * (1 - pc) ** (n - k) for pc in components]
        best = max(range(len(liks)), key=lambda c: (liks[c], -c))
        if best != true_idx:
            err += math.comb(n, k) * p_true**k * (1 - p_true) ** (n - k)
    return err


def exact_ml_bit_error(
    n: int, p_true: Fraction, p_other: Fraction, true_first: bool = True
) -> Fraction:
    """Exact ML decode error between two interior Bernoulli components.

    Integer-only version of exact_decode_error usable at n in the
    thousands: both likelihoods share the denominator D**n once the
    probabilities sit on a common denominator D, so the decision at
    each count is an integer comparison and the binomial terms update
    by exact integer factors.  Ties decide for the lower component
    index; ``true_first`` says whether the true component holds it.
    """
    if not (0 < p_true < 1 and 0 < p_other < 1):
        raise ValueError("components must be interior probabilities")
    d = math.lcm(p_true.denominator, p_other.denominator)
    a = p_true.numerator * (d // p_true.denominator)
    b = d - a
    c = p_other.numerator * (d // p_other.denominator)
    e = d - c
    # term = C(n,k) a^k b^(n-k); lik_true = term / (C(n,k) d^n) etc.
    term = b**n
    lik_true = b**n
    lik_other = e**n
    err_num = 0
    for k in range(n + 1):
        other_wins = lik_other > lik_true or (
            lik_other == lik_true and not true_first
        )
        if other_wins:
            err_num += term
        if k == n:
            break
        term = term * (n - k) * a // ((k + 1) * b)
        lik_true = lik_true * a // b
        lik_other = lik_other * c // e
    return Fraction(err_num, d**n)


def hand_posterior(
    prior: Sequence[Fraction],
    member_probs: Sequence[Sequence[Fraction]],
    observations: Sequence[int],
) -> list[Fraction]:
    """Exact Bayes update for memoryless members."""
    weights = list(prior)
    for sym in observations:
        weights = [w * probs[sym] for w, probs in zip(weights, member_probs)]
    total = sum(weights)
    if total == 0:
        raise ZeroDivisionError("all hypotheses falsified")
    return [w / total for w in weights]


def surprisal_moment_direct(
    prior: Sequence[Fraction],
    member_probs: Sequence[Sequence[Fraction]],
    target: int,
    t: int,
    m: int,
) -> float:
    """m-th posterior-surprisal moment by walking all |X|^t sequences."""
    k = len(member_probs[0])
    total = 0.0
    for seq in itertools.product(range(k), repeat=t):
        weights = list(prior)
        for sym in seq:
            weights = [
                w * probs[sym] for w, probs in zip(weights, member_probs)
            ]
        p_seq = weights[target] / prior[target] if prior[target] else 0
        if p_seq == 0:
            continue
        post = Fraction(weights[target], sum(weights))
        total += float(p_seq) * (-math.log2(float(post))) ** m
    return total


def posterior_surprisal_reference(hset, prior, target: int, t: int, transform) -> float:
    """E[transform(-log2 posterior(target))] over length-t sequences drawn
    from the target member, by definition: every sequence from
    itertools.product, scored by stepping posterior_update from the
    prior."""
    total = 0.0
    for seq in itertools.product(range(hset.alphabet_size), repeat=t):
        state = PosteriorState.from_prior(hset, prior)
        for sym in seq:
            state = posterior_update(state, sym)
        if state.loglik[target] == -math.inf:
            continue
        surprisal = -state.log_posterior()[target]
        total += 2.0 ** state.loglik[target] * transform(surprisal)
    return total


def surprisal_moment_product_form(ideal, hset, prior, t: int, m: int) -> float:
    """Closed-form candidate for the m-th posterior-surprisal moment.

    Stated as a product of an expectation-like factor and a factor
    built from unweighted surprisal sums over the whole sequence space.
    It reduces to the exact expectation at m = 1; the enumeration
    refutes it for m >= 2 (see the unit tests), so it is kept here only
    as a cross-check target.
    """
    if m < 1:
        raise ValueError(f"moment order must be >= 1, got {m}")
    pv = as_probvector(prior)
    idx = _member_index(ideal, hset)
    k = hset.alphabet_size
    if k**t > ENUM_LIMIT:
        raise ComputationRefused(
            f"enumerating {k}**{t} sequences exceeds the {ENUM_LIMIT} limit"
        )
    log_prior = tuple(math.log2(w) if w > 0.0 else -math.inf for w in pv.probs)
    members = hset.members
    info_prior = -log_prior[idx]
    rate_h = entropy_rate(ideal)
    sum_true = 0.0  # unweighted surprisal sum under the ideal
    sum_pred = 0.0  # unweighted surprisal sum under the prior mixture
    cross_t = 0.0  # t-block cross entropy, ideal against the mixture
    for seq in itertools.product(range(k), repeat=t):
        lp_true = -sequence_log_probability(ideal, seq)
        mix = logsumexp2(
            [
                log_prior[j] - sequence_log_probability(members[j], seq)
                for j in range(len(members))
            ]
        )
        sum_true += -lp_true
        sum_pred += -mix
        if lp_true > -math.inf:
            cross_t += 2.0**lp_true * (-mix)
    sign = (-1.0) ** m
    first = -sign * (t * rate_h + info_prior) + sign * cross_t
    second = -sign * (info_prior ** (m - 1) + sum_true ** (m - 1)) + sign * (
        sum_pred ** (m - 1)
    )
    return first * second


def transitive_groups_reference(hset, eps_d: float) -> tuple[tuple[int, ...], ...]:
    """Groups of members by definition: the transitive closure of
    "divergence_rate at most eps_d" over every pair (Warshall), each
    member's group the members it reaches, sorted by smallest member."""
    n = len(hset)
    near = [
        [divergence_rate(a, b) <= eps_d for b in hset.members]
        for a in hset.members
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                near[i][j] = near[i][j] or (near[i][k] and near[k][j])
    groups = {tuple(j for j in range(n) if near[i][j] or i == j) for i in range(n)}
    return tuple(sorted(groups))


def _in_band(neg_loglik: float, t: int, rate: float, eps: float) -> bool:
    """Typicality by definition: the per-symbol surprisal lies inside
    [rate - eps, rate + eps]."""
    return rate - eps <= neg_loglik / t <= rate + eps


def check_stop_reference(state: PosteriorState, cfg: StoppingConfig) -> Decision:
    """The stopping rule stated on its own, from the normalized
    posterior and the typical bands: an independent copy of what
    ``check_stop`` decides.  It may disagree with the library only at
    floating ties (a group mass or a per-symbol surprisal within
    rounding of its threshold), where the two arithmetics round apart."""
    t = state.t
    if state.all_falsified:
        return Decision(DecisionStatus.FALSIFIED, (), t, None, True)

    posterior = state.posterior().probs
    groups = equivalence_groups(state.hset, cfg.eps_d)
    rates = state.hset.rates
    masses = [math.fsum(posterior[i] for i in g) for g in groups]
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
                _in_band(-state.loglik[i], t, rates[i], eps_p) for i in group
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
        if t >= warmup and not any(
            _in_band(-state.loglik[i], t, rates[i], eps_q)
            for i in range(len(state.hset))
        ):
            return Decision(DecisionStatus.FALSIFIED, (), t, posterior, True)

    cap = resolution_cap(cfg.r)
    if cfg.r > 0.0 and t >= cap:
        return Decision(DecisionStatus.UNDETERMINED, (), t, posterior, True)
    return Decision(DecisionStatus.UNDETERMINED, (), t, posterior, False)


def stopping_rule_reference(
    hset: HypothesisSet, cfg: StoppingConfig, log_prior: Sequence[float]
) -> Callable[[Sequence[float], int], _Verdict | None]:
    """The stopping rule computing every group's mass whenever it weighs
    the scores, where the library's ``_stopping_rule`` computes them only
    when the largest group size over the summed weights reaches p, and at
    p = 1 only checks the top member's group.  Both decide once, at
    set-up, whether to weigh at all: at p = 1 they do not when no group
    holds every live member with no zero in its log table.  The library
    must return the same verdict for every input.

    The stopping rule for one set, config and prior, as a function of
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
    """
    members = range(len(hset))
    rates = hset.rates
    groups = equivalence_groups(hset, cfg.eps_d)
    eps_p = -math.log2(cfg.p) if cfg.p > 0.0 else math.inf
    eps_q = -math.log2(cfg.q) if cfg.q > 0.0 else math.inf
    warmup = (
        max(1, warmup_threshold(max(rates), cfg.q)) if cfg.q > 0.0 else math.inf
    )
    cap = resolution_cap(cfg.r)
    live = {i for i in members if log_prior[i] > -math.inf}
    lasting = {i for i in live if -math.inf not in hset._log_table[i]}
    weigh = cfg.p < 1.0 or any(lasting <= set(g) for g in groups)

    def verdict(group: tuple[int, ...]) -> _Verdict:
        if len(group) == 1:
            return DecisionStatus.VERIFIED, group
        return DecisionStatus.PARTIALLY_IDENTIFIED, group

    def decide(loglik: Sequence[float], t: int) -> _Verdict | None:
        if weigh:
            scores = [log_prior[i] + loglik[i] for i in members]
            top = max(scores)
            if top == -math.inf:
                return DecisionStatus.FALSIFIED, ()
            weights = [2.0 ** (s - top) for s in scores]
            total = math.fsum(weights)
            masses = [math.fsum(weights[i] for i in g) / total for g in groups]
            best = max(range(len(groups)), key=masses.__getitem__)
            group = groups[best]
            if cfg.p == 1.0:
                if all(scores[i] == -math.inf for i in members if i not in group):
                    return verdict(group)
            elif masses[best] >= cfg.p and (
                t == 0
                or any(abs(-loglik[i] / t - rates[i]) <= eps_p for i in group)
            ):
                return verdict(group)
        if t >= warmup and all(
            abs(-loglik[i] / t - rates[i]) > eps_q for i in members
        ):
            return DecisionStatus.FALSIFIED, ()
        if t >= cap:
            return DecisionStatus.UNDETERMINED, ()
        return None

    return decide


def mc_trial_reference(ideal, hset, prior, cfg, budget: int, seed: str) -> Decision:
    """One Monte Carlo stopping trial by definition: the full posterior
    state is rebuilt and the reference stopping rule re-applied after
    every symbol, starting at t = 0.  The ideal's symbols are those of
    ``markov_sample_reference``, which steps an iid spec as the memory-0
    chain."""
    state = PosteriorState.from_prior(hset, prior)
    decision = check_stop_reference(state, cfg)
    for sym in markov_sample_reference(ideal, budget, BitSource(seed)):
        if decision.terminal or decision.status is not DecisionStatus.UNDETERMINED:
            return decision
        state = posterior_update(state, sym)
        decision = check_stop_reference(state, cfg)
    return decision


def mc_stopping_reference(
    ideal, hset, prior, cfg, trials: int, seed, max_steps: int
) -> tuple[dict[int, int], dict[str, int]]:
    """Stopping-time counts of decided trials and the decision tally,
    trial i seeded "{seed}:{i}"; undecided trials count as Undetermined."""
    budget = int(min(max_steps, oracle_cap(cfg.r)))
    counts: dict[int, int] = {}
    decisions = {s.value: 0 for s in DecisionStatus}
    for i in range(trials):
        d = mc_trial_reference(ideal, hset, prior, cfg, budget, f"{seed}:{i}")
        decisions[d.status.value] += 1
        if d.status is not DecisionStatus.UNDETERMINED:
            counts[d.t] = counts.get(d.t, 0) + 1
    return counts, decisions


def mc_work_reference(
    ideal, hset, prior, cfg, trials: int, seed, max_steps: int
) -> tuple[int, int]:
    """Symbols drawn and fair bits read by the trials of
    ``mc_stopping_reference``: trial i stops at the t of
    ``mc_trial_reference``, having drawn t symbols of
    ``markov_sample_reference`` from the source seeded "{seed}:{i}"; a
    trial the prior decides at t = 0 draws nothing."""
    budget = int(min(max_steps, oracle_cap(cfg.r)))
    drawn = bits = 0
    for i in range(trials):
        t = mc_trial_reference(ideal, hset, prior, cfg, budget, f"{seed}:{i}").t
        if t:
            source = BitSource(f"{seed}:{i}")
            markov_sample_reference(ideal, t, source)
            drawn += t
            bits += source.bits_consumed
    return drawn, bits


def posterior_trace_reference(ideal, hset, prior, scfg, seed, limit: int) -> list[list]:
    """Rows [t, *posterior] of the trace by posterior states: ``check_stop``
    before each symbol, one ``posterior_update`` per symbol, drawn only
    once the trace goes on to score it, and no row once every member is
    falsified."""
    state = PosteriorState.from_prior(hset, prior)
    rows: list[list] = [[0, *state.posterior().probs]]
    stream = symbols(ideal, BitSource(f"{seed}:trace"))
    for _ in range(limit):
        decision = check_stop(state, scfg)
        if decision.terminal or decision.status is not DecisionStatus.UNDETERMINED:
            break
        # a symbol is drawn only once the trace goes on to score it
        state = posterior_update(state, next(stream))
        if state.all_falsified:
            break
        rows.append([state.t, *state.posterior().probs])
    return rows


# The config schema's process definition in its earlier form: one oneOf
# branch per shape, the init one of three.  The shipped schema picks each
# branch by the value's type or kind instead; the two must accept the
# same values.
PROCESS_ONEOF = {
    "oneOf": [
        {"$ref": "#/$defs/probs"},
        {
            "type": "object",
            "required": ["kind", "probs"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "iid"},
                "probs": {"$ref": "#/$defs/probs"},
            },
        },
        {
            "type": "object",
            "required": ["kind", "memory", "alphabet", "transitions"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "markov"},
                "memory": {"type": "integer", "minimum": 1},
                "alphabet": {"type": "integer", "minimum": 2, "maximum": 10},
                "transitions": {
                    "type": "object",
                    "additionalProperties": {"$ref": "#/$defs/probs"},
                },
                "init": {
                    "oneOf": [
                        {"const": "stationary"},
                        {
                            "type": "object",
                            "required": ["context"],
                            "additionalProperties": False,
                            "properties": {"context": {"type": "string", "pattern": "^[0-9]*$"}},
                        }
                    ]
                },
            },
        },
    ]
}


def schema_with_process_oneof(schema: dict) -> dict:
    """``schema`` with its process definition replaced by ``PROCESS_ONEOF``."""
    return {**schema, "$defs": {**schema["$defs"], "process": PROCESS_ONEOF}}
