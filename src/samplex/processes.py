"""Discrete processes: fair-coin-driven sampling, finite-memory chains,
and spread codes.

Sampling is exact: symbol probabilities are kept as dyadic rationals and
symbols are drawn by refining a binary interval with fair coin flips, so
the output distribution matches the spec exactly (not just in float
approximation) and the flips consumed are countable.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import islice, product
from typing import ClassVar, Iterator, Mapping, Sequence

from .info import ProbVector, as_probvector, logsumexp2, safe_log2

_MAX_DYADIC_BITS = 53  # resolution used when rounding non-dyadic weights


class NonErgodicError(ValueError):
    """The context graph of a finite-memory chain is not irreducible."""


class BitSource:
    """Deterministic stream of fair coin flips.

    Bits come from a seeded ``random.Random`` in 64-bit words, consumed
    most-significant first: ``_buf`` is the current word and ``_left``
    the flips still unread in it.  ``bits_consumed`` counts exactly the
    flips handed out, which is what the expected-flips bounds are stated
    over.  The draw loop ``_walk`` reads the word in place and writes its
    position back at each symbol; ``next_bit`` reads one flip per call,
    as the per-flip references in the tests do.

    A run builds one source and ``reseed``s it for each trial: the same
    generator object is seeded again, so the trial reads the flips a
    fresh ``BitSource(seed)`` would.
    """

    __slots__ = ("_rng", "_buf", "_left", "bits_consumed")

    def __init__(self, seed: int | str) -> None:
        self._rng = random.Random(seed)
        self._buf = 0
        self._left = 0
        self.bits_consumed = 0

    def reseed(self, seed: int | str) -> None:
        """Start over from ``seed``, exactly where ``BitSource(seed)``
        starts.  ``_rng`` stays the same object, so a draw loop that
        bound its ``getrandbits`` keeps reading this source."""
        self._rng.seed(seed)
        self._buf = 0
        self._left = 0
        self.bits_consumed = 0

    def next_bit(self) -> int:
        if self._left == 0:
            self._buf = self._rng.getrandbits(64)
            self._left = 64
        self._left -= 1
        self.bits_consumed += 1
        return (self._buf >> self._left) & 1


def _to_dyadic(weights: Sequence[float | Fraction]) -> tuple[list[Fraction], bool]:
    """Convert weights to exact dyadic fractions.

    Floats are already dyadic and convert exactly.  Other rationals are
    rounded to the nearest multiple of 2**-53 and flagged.
    """
    out: list[Fraction] = []
    rounded = False
    for w in weights:
        fr = Fraction(w)
        den = fr.denominator
        if den & (den - 1) != 0 or den > (1 << _MAX_DYADIC_BITS):
            grid = 1 << _MAX_DYADIC_BITS
            fr2 = Fraction(round(fr * grid), grid)
            rounded = rounded or (fr2 != fr)
            fr = fr2
        out.append(fr)
    return out, rounded


Context = tuple[int, ...]


class _Chain:
    """What every process spec shares: a finite-memory chain that emits
    each symbol from the conditional law of its context, the last
    ``memory`` symbols, starting from ``initial_mixture()``.  Contexts
    are numbered in ``contexts()`` order, so context c then symbol s
    leaves context (c * k + s) mod k**memory.  The tables below are
    built on first use and kept on the spec, outside equality."""

    @cached_property
    def _steps(self) -> tuple[tuple[IidSpec, ...], tuple[int, ...]]:
        """The law of each numbered context, and the successor table
        ``succ[c * k + s]``."""
        laws = tuple(self.transitions[ctx] for ctx in self.contexts())
        n = len(laws)
        return laws, tuple(i % n for i in range(n * self.alphabet_size))

    @cached_property
    def _tries(self) -> tuple[tuple[int, ...], ...]:
        """The refinement trie of each numbered context's law, the
        tables ``_walk`` draws from."""
        return tuple(law._trie for law in self._steps[0])

    @cached_property
    def _start(self) -> tuple[int, IidSpec | None]:
        """The numbered context every walk starts in, or else (0, the
        law the start is drawn from)."""
        mixture = self.initial_mixture()
        if len(mixture) == 1:
            return next(iter(mixture)), None
        weights = [mixture.get(c, 0.0) for c in range(len(self.contexts()))]
        return 0, IidSpec.from_probs(weights)


@dataclass(frozen=True)
class IidSpec(_Chain):
    """Memoryless process over symbols 0..k-1 with dyadic probabilities:
    the chain of memory 0, whose one context is the empty one.

    ``rounded`` records whether any input weight had to be snapped to
    the dyadic grid; it takes no part in ``==``, so two specs with the
    same probabilities are equal however they were built.  The final
    cell is adjusted so the exact mass is 1.
    """

    memory: ClassVar[int] = 0
    dist: ProbVector
    boundaries: tuple[Fraction, ...]  # len k+1, 0 == first, 1 == last
    rounded: bool = field(default=False, compare=False)

    @staticmethod
    def from_probs(weights: Sequence[float | Fraction]) -> "IidSpec":
        as_probvector(weights)  # the one check of a list: length, range, mass
        fracs, rounded = _to_dyadic(weights)
        head = sum(fracs[:-1], Fraction(0))
        excess = head - 1
        if excess > 0:
            # rounding onto the grid pushed the head past 1 (floats that
            # sum to 1 within tolerance): the largest cell gives it back
            big = max(range(len(fracs) - 1), key=fracs.__getitem__)
            fracs[big] -= excess
            head = Fraction(1)
            rounded = True
        fracs[-1] = 1 - head
        bounds = [Fraction(0)]
        for fr in fracs:
            bounds.append(bounds[-1] + fr)
        dist = ProbVector(tuple(float(fr) for fr in fracs))
        return IidSpec(dist, tuple(bounds), rounded)

    @property
    def alphabet_size(self) -> int:
        return len(self.dist)

    @cached_property
    def _trie(self) -> tuple[int, ...]:
        """The refinement trie every draw from this law walks, built on
        the first draw and kept on the spec (it takes no part in equality)."""
        return _refinement_trie(self.boundaries)

    def contexts(self) -> list[Context]:
        return [()]

    def conditional(self, ctx: Context) -> ProbVector:
        return self.dist

    @property
    def transitions(self) -> Mapping[Context, "IidSpec"]:
        return {(): self}

    def stationary_distribution(self) -> tuple[float, ...]:
        return (1.0,)

    def initial_mixture(self) -> dict[int, float]:
        return {0: 1.0}


def _refinement_trie(boundaries: tuple[Fraction, ...]) -> tuple[int, ...]:
    """Compile CDF boundaries into the trie of dyadic interval refinement.

    Node (n, z) stands for the interval [z/2^n, (z+1)/2^n).  It is a
    leaf, symbol j, once it fits inside the nonzero cell j, and otherwise
    has the children (n+1, 2z) and (n+1, 2z+1).  The trie is flat: slot 0
    holds the root, a leaf is stored as ~j (negative) and an internal node
    as the offset o > 0 of its children's slots o and o+1.  Only intervals
    that straddle an interior boundary stay internal, so there are at most
    (k-1)*dmax internal nodes, where 2^dmax is the largest denominator.
    The only cell that can hold a node is the nonzero one holding its
    left end, found by bisection, so the build costs O(k * dmax * log k).
    """
    dmax = max(b.denominator for b in boundaries).bit_length() - 1
    unit = 1 << dmax
    scaled = [int(b * unit) for b in boundaries]
    slots = [0]
    pending = [(0, 0, 0)]  # (slot, n, z)
    while pending:
        slot, n, z = pending.pop()
        # the interval [lo, lo + width) in integers over 2**dmax
        width = unit >> n
        lo = z * width
        j = bisect_right(scaled, lo) - 1  # the nonzero cell holding lo
        if lo + width <= scaled[j + 1]:
            slots[slot] = ~j
        else:
            child = slots[slot] = len(slots)
            slots += (0, 0)
            pending.append((child, n + 1, z << 1))
            pending.append((child + 1, n + 1, (z << 1) | 1))
    return tuple(slots)


def sample_discrete(spec: IidSpec, source: BitSource) -> int:
    """Draw one symbol by dyadic interval refinement: one step of the
    draw loop over the spec's refinement trie, so the flips consumed are
    exactly those needed for the interval [z/2^n, (z+1)/2^n) to fit
    inside one CDF cell.
    """
    return next(_walk((spec._trie,), (0,) * spec.alphabet_size, 0, source))


def _context_str(ctx: Context) -> str:
    return "".join(str(s) for s in ctx) if ctx else "(empty)"


@dataclass(frozen=True)
class MarkovSpec(_Chain):
    """Finite-memory chain: one conditional distribution per context.

    The contexts are the map's keys in sorted order, which must be every
    tuple of ``memory`` symbols: keys that are not contexts are refused
    first, then a map that misses some.  ``init`` is either
    ``("context", ctx)`` or ``("stationary", None)``, the chain's exact
    stationary law over its contexts.
    """

    memory: int
    transitions: Mapping[Context, IidSpec]
    init: tuple[str, object]

    def __post_init__(self) -> None:
        if self.memory < 0:
            raise ValueError(f"memory must be >= 0, got {self.memory}")
        if not self.transitions:
            raise ValueError("transition map is empty")
        k = next(iter(self.transitions.values())).alphabet_size
        unknown = sorted(
            _context_str(c) if isinstance(c, tuple) else repr(c)
            for c in self.transitions
            if not isinstance(c, tuple)
            or len(c) != self.memory
            or not all(s in range(k) for s in c)
        )
        if unknown:
            raise ValueError(
                "transition map has keys that are not contexts: "
                + ", ".join(unknown[:8])
            )
        if len(self.transitions) < k**self.memory:
            missing = (
                c for c in product(range(k), repeat=self.memory)
                if c not in self.transitions
            )
            raise ValueError(
                "transition map is missing contexts: "
                + ", ".join(map(_context_str, islice(missing, 8)))
            )
        for ctx, sub in self.transitions.items():
            if sub.alphabet_size != k:
                raise ValueError(
                    f"context {_context_str(ctx)} has alphabet size "
                    f"{sub.alphabet_size}, expected {k}"
                )
        mode, payload = self.init
        if mode == "context":
            if payload not in self.transitions:
                raise ValueError(
                    f"initial context {_context_str(payload)} not in map"
                )
        elif mode == "stationary":
            self.stationary_distribution()
        else:
            raise ValueError(f"unknown init mode {mode!r}")

    @property
    def alphabet_size(self) -> int:
        return next(iter(self.transitions.values())).alphabet_size

    def contexts(self) -> list[Context]:
        return sorted(self.transitions)

    def conditional(self, ctx: Context) -> ProbVector:
        return self.transitions[ctx].dist

    def _rows(self) -> list[list[tuple[int, float]]]:
        """Each context's (successor, probability) per symbol it can emit."""
        laws, succ = self._steps
        k = self.alphabet_size
        return [
            [(succ[c * k + sym], p) for sym, p in enumerate(law.dist.probs) if p > 0.0]
            for c, law in enumerate(laws)
        ]

    def _check_ergodic(self) -> None:
        fwd = [[j for j, _p in row] for row in self._rows()]
        rev: list[list[int]] = [[] for _ in fwd]
        for i, row in enumerate(fwd):
            for j in row:
                rev[j].append(i)

        def reach(adj: list[list[int]]) -> set[int]:
            seen = {0}
            stack = [0]
            while stack:
                for j in adj[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            return seen

        every = set(range(len(fwd)))
        bad = sorted((every - reach(fwd)) | (every - reach(rev)))
        if bad:
            ctxs = self.contexts()
            names = ", ".join(_context_str(ctxs[i]) for i in bad[:8])
            raise NonErgodicError(
                f"context graph is reducible; contexts not mutually "
                f"reachable: {names}"
            )

    def stationary_distribution(self) -> tuple[float, ...]:
        """Stationary context weights, by Grassmann-Taksar-Heyman
        elimination (Operations Research 33(5), 1985).  It only adds and
        scales nonnegative rates, so each weight keeps a small relative
        error however slowly the chain mixes."""
        return self._stationary

    @cached_property
    def _stationary(self) -> tuple[float, ...]:
        self._check_ergodic()
        # Off-diagonal rates, exits[c] to contexts below c and entries[c]
        # into c from below (a context's successors are distinct).  Censoring
        # c out, last first, folds its exits into the rows that reach it;
        # entries[c] then keeps the share of lower visits that pass to c.
        rows = self._rows()
        exits = [{j: p for j, p in row if j < i} for i, row in enumerate(rows)]
        entries: list[dict[int, float]] = [{} for _ in rows]
        for i, row in enumerate(rows):
            for j, p in row:
                if j > i:
                    entries[j][i] = p
        for c in range(len(rows) - 1, 0, -1):
            leave = math.fsum(exits[c].values())  # > 0: the chain is irreducible
            for i in entries[c]:
                w = entries[c][i] = entries[c][i] / leave
                for j, p in exits[c].items():
                    if j < i:
                        exits[i][j] = exits[i].get(j, 0.0) + w * p
                    elif j > i:
                        entries[j][i] = entries[j].get(i, 0.0) + w * p
        weights = [1.0]
        for into in entries[1:]:
            weights.append(math.fsum(weights[i] * w for i, w in into.items()))
        total = math.fsum(weights)
        return tuple(w / total for w in weights)

    def initial_mixture(self) -> dict[int, float]:
        """The numbered contexts ``init`` starts in, with their weights."""
        mode, payload = self.init
        if mode == "context":
            return {self.contexts().index(payload): 1.0}  # type: ignore[arg-type]
        return {c: w for c, w in enumerate(self.stationary_distribution()) if w > 0.0}


def _walk(
    tries: Sequence[tuple[int, ...]], succ: Sequence[int], state: int, source: BitSource
) -> Iterator[int]:
    """The one loop that reads fair bits.  Numbered state ``state`` emits
    the symbol s its refinement trie ``tries[state]`` reaches and moves
    to ``succ[state * k + s]``.

    The source's word, bit position and flip count are read into locals
    when a draw starts, and written back before its symbol is yielded, so
    between symbols the source is exactly where reading one flip per
    ``next_bit`` call would have left it.  A word is fetched only when a
    flip needs it, and a trie whose root is a leaf reads nothing.
    """
    k = len(succ) // len(tries)
    fetch = source._rng.getrandbits
    while True:
        trie = tries[state]
        node = trie[0]
        if node > 0:
            buf = source._buf
            left = source._left
            end = source.bits_consumed + left  # the count once this word is spent
            while node > 0:
                if not left:
                    buf = fetch(64)
                    left = 64
                    end += 64
                left -= 1
                node = trie[node + (buf >> left & 1)]
            source._buf = buf
            source._left = left
            source.bits_consumed = end - left
        sym = ~node
        yield sym
        state = succ[state * k + sym]


def symbols(spec: IidSpec | MarkovSpec, source: BitSource) -> Iterator[int]:
    """The spec's endless symbol stream, each symbol drawn from
    ``source`` when it is read.  The draw loop reads the source's word
    in place and writes its position back at each symbol, so a caller
    may stop, or read the source itself, between any two symbols.  A
    start context that ``init`` leaves open is drawn at once; it is
    hidden state, not output."""
    state, law = spec._start
    if law is not None:
        state = sample_discrete(law, source)
    return _walk(spec._tries, spec._steps[1], state, source)


def markov_sample(
    spec: IidSpec | MarkovSpec, t: int, source: BitSource
) -> tuple[int, ...]:
    """Emit t symbols.  The initial context is hidden state, not output."""
    if t < 0:
        raise ValueError(f"sample length must be >= 0, got {t}")
    return tuple(islice(symbols(spec, source), t))


def iid_sample(spec: IidSpec, t: int, source: BitSource) -> tuple[int, ...]:
    return markov_sample(spec, t, source)


def sequence_log_probability(
    spec: IidSpec | MarkovSpec, seq: Sequence[int]
) -> float:
    """-log2 P(sequence) under the spec, in bits (>= 0, +inf if impossible),
    by a log-space forward pass over the initial mixture.  The empty
    sequence is certain: exactly 0 bits, with no log-space round trip."""
    if not seq:
        return 0.0
    laws, succ = spec._steps
    k = spec.alphabet_size
    branches = []
    for c, w in spec.initial_mixture().items():
        ll = math.log2(w)
        for sym in seq:
            p = laws[c].dist[sym]
            if p == 0.0:
                break
            ll += math.log2(p)
            c = succ[c * k + sym]
        else:
            branches.append(ll)
    return -logsumexp2(branches)


@dataclass(frozen=True)
class SpreadCode:
    """Repetition-style code: message bit b colors position j with
    component distribution b, cycling through the message.

    Components must be pairwise distinct, otherwise some message
    symbols are indistinguishable and decoding cannot work.
    """

    message_length: int
    components: tuple[IidSpec, ...]

    def __post_init__(self) -> None:
        if self.message_length < 1:
            raise ValueError("message length must be >= 1")
        if len(self.components) < 2:
            raise ValueError("need at least two component distributions")
        for a in range(len(self.components)):
            for b in range(a + 1, len(self.components)):
                if (
                    self.components[a].dist.probs
                    == self.components[b].dist.probs
                ):
                    raise ValueError(
                        f"components {a} and {b} are identical; message "
                        f"symbols {a} and {b} would be indistinguishable"
                    )
        alphabets = {c.alphabet_size for c in self.components}
        if len(alphabets) != 1:
            raise ValueError("components must share one alphabet")


@dataclass(frozen=True)
class DecodedMessage:
    bits: tuple[int | None, ...]
    confidences: tuple[float, ...]  # bits of log-likelihood margin

    def as_string(self) -> str:
        return "".join("?" if b is None else str(b) for b in self.bits)


def spread_encode(
    code: SpreadCode, message: str, t: int, source: BitSource
) -> tuple[int, ...]:
    """Emit t symbols: a walk whose state is the message position, j
    drawn from the component message symbol ((j-1) mod length) picks."""
    if len(message) != code.message_length:
        raise ValueError(
            f"message length {len(message)} != {code.message_length}"
        )
    digits = "0123456789"[: len(code.components)]
    tries = []
    for ch in message:
        if ch not in digits:
            raise ValueError(f"message symbol {ch!r} has no component")
        tries.append(code.components[int(ch)]._trie)
    k = code.components[0].alphabet_size
    succ = [(j + 1) % len(tries) for j in range(len(tries)) for _ in range(k)]
    return tuple(islice(_walk(tries, succ, 0, source), max(t, 0)))


def spread_decode(
    code: SpreadCode, observations: Sequence[int]
) -> DecodedMessage:
    """Per-position maximum likelihood over the cycled components.

    Confidence is the log-likelihood gap (bits) between the best and
    second-best component; a position with no observations decodes to
    None with confidence 0.
    """
    ell = code.message_length
    logp = [[safe_log2(p) for p in comp.dist.probs] for comp in code.components]
    bits: list[int | None] = []
    confs: list[float] = []
    for pos in range(ell):
        samples = observations[pos::ell]
        if not samples:
            bits.append(None)
            confs.append(0.0)
            continue
        scores = [sum(map(row.__getitem__, samples)) for row in logp]
        order = sorted(range(len(scores)), key=lambda c: (-scores[c], c))
        best, runner = order[0], order[1]
        gap = scores[best] - scores[runner]
        bits.append(best)
        confs.append(gap if math.isfinite(gap) else math.inf)
    return DecodedMessage(tuple(bits), tuple(confs))


def spec_from_json(data: Mapping) -> IidSpec | MarkovSpec:
    kind = data.get("kind")
    if kind == "iid":
        return IidSpec.from_probs(data["probs"])
    if kind != "markov":
        raise ValueError(f"unknown process kind {kind!r}")
    memory = int(data["memory"])
    transitions = {
        tuple(int(c) for c in ctx_str): IidSpec.from_probs(probs)
        for ctx_str, probs in data["transitions"].items()
    }
    raw_init = data.get("init", "stationary")
    init: tuple[str, object]
    if raw_init == "stationary":
        init = ("stationary", None)
    elif isinstance(raw_init, Mapping) and "context" in raw_init:
        init = ("context", tuple(int(c) for c in raw_init["context"]))
    else:
        raise ValueError(f"unknown init form {raw_init!r}")
    spec = MarkovSpec(memory, transitions, init)
    if spec.alphabet_size != data["alphabet"]:
        raise ValueError(
            f"alphabet {data['alphabet']} but rows of {spec.alphabet_size} symbols"
        )
    return spec
