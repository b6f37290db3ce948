"""Unit tests for bit sources, process specs, sampling, and spread codes."""

from __future__ import annotations

import itertools
import json
import math
import re
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from samplex import (
    BitSource,
    IidSpec,
    MarkovSpec,
    NonErgodicError,
    SpreadCode,
    entropy,
    entropy_rate,
    markov_sample,
    sample_discrete,
    sequence_log_probability,
    spec_from_json,
    spread_decode,
    spread_encode,
    symbols,
    total_variation,
)

from samplex import cli
from samplex.info import ProbVector
from samplex.processes import iid_sample

from oracles import (
    block_distribution,
    exact_decode_error,
    exact_expected_bits,
    exact_ml_bit_error,
    exact_stationary,
    markov_sample_reference,
    refinement_trie_reference,
    sample_discrete_reference,
    spread_encode_reference,
    symbols_reference,
)

FAIR = IidSpec.from_probs([0.5, 0.5])
SKEWED = IidSpec.from_probs([0.25, 0.75])
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# memory 2 over 3 symbols: zero cells, thirds, non-dyadic and dyadic rows
MEMORY2_CHAIN = {
    "kind": "markov",
    "memory": 2,
    "alphabet": 3,
    "transitions": {
        "00": [0.2, 0.3, 0.5],
        "01": [1 / 3, 1 / 3, 1 / 3],
        "02": [0.0, 0.5, 0.5],
        "10": [0.7, 0.0, 0.3],
        "11": [0.125, 0.625, 0.25],
        "12": [0.1, 0.1, 0.8],
        "20": [0.0, 0.0, 1.0],
        "21": [0.6, 0.4, 0.0],
        "22": [0.25, 0.25, 0.5],
    },
    "init": "stationary",
}


def sticky_chain(stay: float) -> MarkovSpec:
    return MarkovSpec(
        memory=1,
        transitions={
            (0,): IidSpec.from_probs([stay, 1 - stay]),
            (1,): IidSpec.from_probs([1 - stay, stay]),
        },
        init=("stationary", None),
    )


class TestBitSource:
    def test_deterministic_per_seed(self):
        src_a, src_b = BitSource(42), BitSource(42)
        a = [src_a.next_bit() for _ in range(64)]
        b = [src_b.next_bit() for _ in range(64)]
        assert a == b

    def test_distinct_seeds_diverge(self):
        src_a, src_b = BitSource(1), BitSource(2)
        a = [src_a.next_bit() for _ in range(64)]
        b = [src_b.next_bit() for _ in range(64)]
        assert a != b

    def test_string_seeds_work(self):
        src_a, src_b = BitSource("7:0"), BitSource("7:0")
        a = [src_a.next_bit() for _ in range(32)]
        b = [src_b.next_bit() for _ in range(32)]
        assert a == b
        src_c = BitSource("7:1")
        assert [src_c.next_bit() for _ in range(32)] != a

    def test_emits_bits(self):
        src = BitSource(9)
        assert {src.next_bit() for _ in range(200)} == {0, 1}


class TestIidSpec:
    def test_exact_dyadic_is_not_rounded(self):
        assert not FAIR.rounded
        assert not SKEWED.rounded

    def test_non_dyadic_is_rounded_close(self):
        spec = IidSpec.from_probs([0.7, 0.3])
        assert spec.rounded
        assert spec.dist[0] == pytest.approx(0.7, abs=1e-9)
        assert spec.dist[1] == pytest.approx(0.3, abs=1e-9)
        assert math.fsum(spec.dist.probs) == 1.0

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            IidSpec.from_probs([0.5, 0.6])
        with pytest.raises(ValueError):
            IidSpec.from_probs([])

    def test_refuses_exactly_what_a_prob_vector_refuses(self):
        # a process's weights and a prior meet one rule: seeded lists
        # whose last cell is off by up to 1e-9, some with a negative cell
        rng = random.Random("one-mass-rule")
        offsets = (0.0, 1e-13, -1e-13, 9.5e-13, -9.5e-13, 1.2e-12, -1.2e-12, 1e-9)
        lists = []
        for offset in offsets:
            for _ in range(40):
                raw = [rng.random() for _ in range(rng.randint(2, 6))]
                weights = [w / math.fsum(raw) for w in raw]
                weights[-1] += offset
                lists.append(weights)
        for _ in range(20):
            weights = [rng.random() for _ in range(rng.randint(2, 4))]
            weights[rng.randrange(len(weights))] = -rng.choice((1e-13, 0.1))
            lists.append(weights)
        for weights in lists:
            try:
                ProbVector(tuple(weights))
            except ValueError:
                with pytest.raises(ValueError):
                    IidSpec.from_probs(weights)
            else:
                IidSpec.from_probs(weights)

    def test_rounding_past_unit_mass_is_absorbed(self):
        # each weight rounds onto the 2**-53 grid; these three round up
        # to a head 2**-53 past 1 although the floats sum to 1
        weights = [0.09982704257287564, 0.8452190236076348, 0.05495393381948968, 0.0]
        spec = IidSpec.from_probs(weights)
        assert spec.rounded
        assert spec.boundaries[-2] == spec.boundaries[-1] == 1
        assert all(a <= b for a, b in zip(spec.boundaries, spec.boundaries[1:]))
        assert spec.dist.probs == pytest.approx(weights, abs=1e-15)

    def test_block_distribution(self):
        block = block_distribution(FAIR, 3)
        assert len(block) == 8
        assert all(p == pytest.approx(0.125) for p in block.values())


class TestSampleDiscrete:
    def test_fair_coin_costs_exactly_one_flip(self):
        src = BitSource(5)
        for _ in range(100):
            sample_discrete(FAIR, src)
        assert src.bits_consumed == 100
        assert src._left == 2 * 64 - 100  # two words fetched, 28 flips unread

    def test_certain_outcome_costs_nothing(self):
        src = BitSource(0)
        untouched = src._rng.getstate()
        assert sample_discrete(IidSpec.from_probs([1.0]), src) == 0
        assert sample_discrete(IidSpec.from_probs([0.0, 1.0]), src) == 1
        assert (src.bits_consumed, src._left) == (0, 0)
        assert src._rng.getstate() == untouched  # no word was fetched

    def test_quarter_split_mean_flip_count(self):
        expected = exact_expected_bits([Fraction(0), Fraction(1, 4), Fraction(1)])
        assert expected == Fraction(3, 2)
        src = BitSource(11)
        n = 20_000
        for _ in range(n):
            sample_discrete(SKEWED, src)
        assert src.bits_consumed / n == pytest.approx(float(expected), abs=0.02)

    def test_frequencies_match_the_spec(self):
        src = BitSource(13)
        draws = iid_sample(SKEWED, 20_000, src)
        freq1 = sum(draws) / len(draws)
        assert freq1 == pytest.approx(0.75, abs=0.01)

    def test_iid_sample_rejects_negative_length(self):
        with pytest.raises(ValueError):
            iid_sample(FAIR, -1, BitSource(0))


class ScriptedSource(BitSource):
    """Hands out a fixed list of flips and fails if asked for more."""

    def __init__(self, bits):
        super().__init__(0)
        self._script = list(bits)

    def next_bit(self):
        if not self._script:
            raise AssertionError("read past the scripted flips")
        self.bits_consumed += 1
        return self._script.pop(0)


def _random_specs(n: int, seed: int, kmax: int = 8) -> list[IidSpec]:
    rng = random.Random(seed)
    specs = []
    for _ in range(n):
        k = rng.randint(1, kmax)
        if rng.random() < 0.5:  # dyadic: integer weights over 2**d
            d = rng.randint(0, 12)
            raw = [rng.randint(0, 1 << d) * (rng.random() < 0.8) for _ in range(k)]
            if not any(raw):
                raw[-1] = 1
            total = sum(raw)
            # snap every weight but the last to the 2**-d grid
            head = [Fraction(w * (1 << d) // total, 1 << d) for w in raw[:-1]]
            specs.append(IidSpec.from_probs(head + [1 - sum(head, Fraction(0))]))
        else:  # floats, rounded onto the 2**-53 grid
            raw = [rng.random() if rng.random() < 0.8 else 0.0 for _ in range(k)]
            if not any(raw):
                raw[0] = 1.0
            total = math.fsum(raw)
            specs.append(IidSpec.from_probs([w / total for w in raw]))
    return specs


def _chain_specs() -> list[IidSpec]:
    chain = spec_from_json(MEMORY2_CHAIN)
    # the rows, and the law a stationary start is drawn from
    start = IidSpec.from_probs(chain.stationary_distribution())
    return [chain.transitions[c] for c in chain.contexts()] + [start]


DEEP = IidSpec(  # a 2**-200 cell, past what from_probs keeps unrounded
    ProbVector((2.0**-200, 1.0)),
    (Fraction(0), Fraction(1, 1 << 200), Fraction(1)),
)

TRIE_SPECS = {
    "coins": [FAIR, SKEWED, IidSpec.from_probs([0.875, 0.125])],
    "zero-cells": [
        IidSpec.from_probs([0.0, 0.25, 0.75]),
        IidSpec.from_probs([0.25, 0.0, 0.75]),
        IidSpec.from_probs([0.25, 0.75, 0.0]),
        IidSpec.from_probs([0.0, 0.5, 0.0, 0.5, 0.0]),
    ],
    "deterministic": [IidSpec.from_probs([1.0]), IidSpec.from_probs([0.0, 1.0])],
    "thirds": [
        IidSpec.from_probs([1 / 3, 1 / 3, 1 / 3]),
        IidSpec.from_probs([Fraction(1, 3), Fraction(2, 3)]),
    ],
    "deep": [
        IidSpec.from_probs([0.2, 0.8]),
        IidSpec.from_probs([0.1, 0.2, 0.7]),
        IidSpec.from_probs([2.0**-53, 1 - 2.0**-53]),
        IidSpec.from_probs([Fraction(1, 1 << 200), 1 - Fraction(1, 1 << 200)]),
        DEEP,
    ],
    "random": _random_specs(40, 5),
    "memory-2-chain": _chain_specs(),
}


# specs whose tries the bisection builder must build slot for slot as
# the per-node cell scan does
TRIE_GRID = {
    "random": _random_specs(2_000, 24, kmax=12),
    "lone-symbol": [
        IidSpec.from_probs([float(i == j) for i in range(k)])
        for k in range(1, 13)
        for j in range(k)
    ],
    "uniform": [IidSpec.from_probs([1 / k] * k) for k in range(1, 13)],
    "uniform-800": [IidSpec.from_probs([1 / 800] * 800)],
}


def _position(source: BitSource) -> tuple:
    """Everything a later read of the source depends on: the flips
    counted, the word and its unread flips, and the generator state."""
    return source.bits_consumed, source._left, source._buf, source._rng.getstate()


def _internal_nodes(spec: IidSpec) -> int:
    return (len(spec._trie) - 1) // 2


def _leaf_paths(trie, slot=0, path=()):
    """(flips, symbol) for every leaf of a flat refinement trie."""
    node = trie[slot]
    if node < 0:
        yield path, ~node
        return
    yield from _leaf_paths(trie, node, path + (0,))
    yield from _leaf_paths(trie, node + 1, path + (1,))


class TestRefinementTrie:
    """The compiled trie against the per-flip cell scan it replaced."""

    @pytest.mark.parametrize("group", TRIE_SPECS)
    def test_draws_match_the_reference(self, group):
        for i, spec in enumerate(TRIE_SPECS[group]):
            fast, ref = BitSource(f"{group}:{i}"), BitSource(f"{group}:{i}")
            for _ in range(300):
                sym = sample_discrete(spec, fast)
                assert sym == sample_discrete_reference(spec, ref), spec
                assert _position(fast) == _position(ref), spec

    @pytest.mark.parametrize("group", TRIE_SPECS)
    def test_every_leaf_is_where_the_reference_stops(self, group):
        for spec in TRIE_SPECS[group]:
            for path, symbol in _leaf_paths(spec._trie):
                source = ScriptedSource(path)
                assert sample_discrete_reference(spec, source) == symbol, spec
                assert source.bits_consumed == len(path), spec

    @pytest.mark.parametrize("group", TRIE_SPECS)
    def test_internal_nodes_stay_within_the_bound(self, group):
        for spec in TRIE_SPECS[group]:
            interior = {b for b in spec.boundaries if 0 < b < 1}
            dmax = max(b.denominator for b in spec.boundaries).bit_length() - 1
            assert _internal_nodes(spec) <= len(interior) * dmax, spec

    @pytest.mark.parametrize("group", TRIE_GRID)
    def test_bisection_builds_the_tries_the_cell_scan_builds(self, group):
        for spec in TRIE_GRID[group]:
            assert spec._trie == refinement_trie_reference(spec.boundaries), spec

    def test_a_uniform_3200_symbol_trie_builds_in_under_2_s(self):
        spec = IidSpec.from_probs([1 / 3200] * 3200)
        started = time.perf_counter()
        trie = spec._trie
        assert time.perf_counter() - started < 2.0
        assert {~node for node in trie if node < 0} == set(range(3200))

    def test_trie_is_built_on_the_first_draw_and_ignored_by_equality(self):
        spec = IidSpec.from_probs([0.2, 0.3, 0.5])
        twin = IidSpec.from_probs([0.2, 0.3, 0.5])
        sample_discrete(spec, BitSource(0))
        assert "_trie" in vars(spec) and "_trie" not in vars(twin)
        assert spec == twin and hash(spec) == hash(twin)


def _random_law(rng: random.Random, k: int) -> IidSpec:
    """Float weights, some of them zero, rounded onto the dyadic grid."""
    raw = [rng.random() if rng.random() < 0.8 else 0.0 for _ in range(k)]
    if not any(raw):
        raw[rng.randrange(k)] = 1.0
    total = math.fsum(raw)
    return IidSpec.from_probs([w / total for w in raw])


def _random_chains(n: int, memory: int, mode: str, seed: int) -> list[MarkovSpec]:
    """Seeded irreducible chains over 2 or 3 symbols, started by ``mode``,
    "context" (a random one) or "stationary"."""
    rng = random.Random(seed)
    chains = []
    while len(chains) < n:
        k = rng.choice((2, 3))
        rows = {
            ctx: _random_law(rng, k)
            for ctx in itertools.product(range(k), repeat=memory)
        }
        try:
            chain = MarkovSpec(memory, rows, ("stationary", None))
        except NonErgodicError:
            continue
        if mode == "context":
            chain = MarkovSpec(memory, rows, ("context", rng.choice(list(rows))))
        chains.append(chain)
    return chains


def _random_codes(n: int, components: int, seed: int) -> list[tuple[SpreadCode, str]]:
    """Seeded spread codes with messages of 1 to 5 symbols."""
    rng = random.Random(seed)
    codes = []
    for _ in range(n):
        k = rng.choice((2, 3))
        laws = tuple(_random_law(rng, k) for _ in range(components))
        length = rng.randint(1, 5)
        message = "".join(str(rng.randrange(components)) for _ in range(length))
        codes.append((SpreadCode(length, laws), message))
    return codes


def _random_irreducible(rng: random.Random, memory: int, k: int) -> MarkovSpec:
    """A seeded irreducible chain whose rows come from ``_random_law``."""
    while True:
        rows = {
            ctx: _random_law(rng, k)
            for ctx in itertools.product(range(k), repeat=memory)
        }
        try:
            return MarkovSpec(memory, rows, ("stationary", None))
        except NonErgodicError:
            continue


def _leave_rates(a: float) -> MarkovSpec:
    """The two-state chain that leaves 0 w.p. a and 1 w.p. 2a; its
    law is (2/3, 1/3) and its second eigenvalue 1 - 3a."""
    rows = {(0,): IidSpec.from_probs([1 - a, a]), (1,): IidSpec.from_probs([2 * a, 1 - 2 * a])}
    return MarkovSpec(1, rows, ("stationary", None))


def _context_matrix(chain: MarkovSpec) -> list[list[Fraction]]:
    """The chain's exact context-to-context transition matrix, over its
    sorted contexts."""
    ctxs = chain.contexts()
    index = {ctx: i for i, ctx in enumerate(ctxs)}
    matrix = [[Fraction(0)] * len(ctxs) for _ in ctxs]
    for ctx in ctxs:
        for sym, p in enumerate(chain.conditional(ctx).probs):
            matrix[index[ctx]][index[ctx[1:] + (sym,)]] += Fraction(p)
    return matrix


def _assert_exact_law(chain: MarkovSpec) -> None:
    """Every stationary weight is within 1e-14 relative of the exact law."""
    law = exact_stationary(_context_matrix(chain))
    for got, want in zip(chain.stationary_distribution(), law, strict=True):
        assert abs(Fraction(got) - want) <= Fraction(1e-14) * want, chain


STREAM_SPECS = {
    "iid-zero-cells": TRIE_SPECS["zero-cells"],
    "iid-one-symbol": [IidSpec.from_probs([1.0]), IidSpec.from_probs([0.0, 1.0])],
    "iid-rounded": TRIE_SPECS["thirds"] + [IidSpec.from_probs([0.2, 0.8])],
    "iid-random": TRIE_SPECS["random"],
    **{
        f"memory-{memory}-{group}": _random_chains(4, memory, mode, 10 * memory + i)
        for memory in (1, 2)
        for i, (group, mode) in enumerate(
            (("context", "context"), ("stationary-alt", "stationary"), ("stationary", "stationary"))
        )
    },
}
LENGTHS = [0, 1, 7, 300]
# word boundaries at 64 flips: a stream stopped near one, or a long one
# that crosses many inside a draw
STOPS = [0, 1, 2, 3, 7, 63, 64, 65, 333]
WALK_SPECS = {
    **TRIE_SPECS,
    **{group: specs for group, specs in STREAM_SPECS.items() if group.startswith("memory-")},
}


class TestOneDrawLoop:
    """The one draw loop over numbered states against the tuple-context
    loops in tests/oracles.py: the same symbols from the same flips."""

    @pytest.mark.parametrize("t", LENGTHS)
    @pytest.mark.parametrize("group", STREAM_SPECS)
    def test_processes_match_the_reference(self, group, t):
        for i, spec in enumerate(STREAM_SPECS[group]):
            seed = f"{group}:{i}:{t}"
            ref, sampled, streamed = BitSource(seed), BitSource(seed), BitSource(seed)
            want = markov_sample_reference(spec, t, ref)
            assert markov_sample(spec, t, sampled) == want, spec
            assert tuple(itertools.islice(symbols(spec, streamed), t)) == want, spec
            assert sampled.bits_consumed == ref.bits_consumed, spec
            assert streamed.bits_consumed == ref.bits_consumed, spec

    @pytest.mark.parametrize("t", LENGTHS)
    @pytest.mark.parametrize("components", [2, 3])
    def test_spread_codes_match_the_reference(self, components, t):
        for i, (code, message) in enumerate(_random_codes(8, components, components)):
            ref, got = BitSource(f"{i}:{t}"), BitSource(f"{i}:{t}")
            want = spread_encode_reference(code, message, t, ref)
            assert spread_encode(code, message, t, got) == want, message
            assert got.bits_consumed == ref.bits_consumed, message

    @pytest.mark.parametrize("group", WALK_SPECS)
    def test_a_stopped_stream_leaves_the_source_where_the_per_flip_walk_does(self, group):
        for i, spec in enumerate(WALK_SPECS[group]):
            for t in STOPS:
                ref, got = BitSource(f"{group}:{i}:{t}"), BitSource(f"{group}:{i}:{t}")
                want = markov_sample_reference(spec, t, ref)
                assert tuple(itertools.islice(symbols(spec, got), t)) == want, (spec, t)
                assert _position(got) == _position(ref), (spec, t)

    @pytest.mark.parametrize("components", [2, 3])
    def test_a_spread_code_leaves_the_source_where_the_per_flip_walk_does(self, components):
        for i, (code, message) in enumerate(_random_codes(8, components, components)):
            for t in STOPS:
                ref, got = BitSource(f"{i}:{t}"), BitSource(f"{i}:{t}")
                want = spread_encode_reference(code, message, t, ref)
                assert spread_encode(code, message, t, got) == want, (message, t)
                assert _position(got) == _position(ref), (message, t)

    @pytest.mark.parametrize("group", WALK_SPECS)
    def test_a_stream_started_mid_word_matches_the_reference(self, group):
        for i, spec in enumerate(WALK_SPECS[group]):
            for skip in (1, 5, 63, 64, 65):
                ref, got = BitSource(f"{group}:{i}:{skip}"), BitSource(f"{group}:{i}:{skip}")
                for source in (ref, got):
                    for _ in range(skip):
                        source.next_bit()
                want = markov_sample_reference(spec, 100, ref)
                assert tuple(itertools.islice(symbols(spec, got), 100)) == want, (spec, skip)
                assert _position(got) == _position(ref), (spec, skip)

    @pytest.mark.parametrize("group", WALK_SPECS)
    def test_flips_read_between_symbols_are_seen_by_both(self, group):
        # after the j-th symbol the caller reads j % 67 flips itself, so
        # the stream resumes at every offset in a word
        for i, spec in enumerate(WALK_SPECS[group]):
            ref, got = BitSource(f"{group}:{i}"), BitSource(f"{group}:{i}")
            pairs = zip(symbols_reference(spec, ref), symbols(spec, got))
            for j, (want, sym) in enumerate(itertools.islice(pairs, 200)):
                assert sym == want, (spec, j)
                assert _position(got) == _position(ref), (spec, j)
                n = j % 67
                assert [got.next_bit() for _ in range(n)] == [ref.next_bit() for _ in range(n)]


class TestReseed:
    """A run builds one source and reseeds it for each trial."""

    @pytest.mark.parametrize("via", ["next_bit", "symbols"])
    def test_a_reseeded_source_is_a_fresh_one(self, via):
        spec = IidSpec.from_probs([0.2, 0.3, 0.5])
        for read in (1, 5, 70, 130):
            seed = f"fresh:{via}:{read}"
            source = BitSource(f"old:{via}:{read}")
            rng = source._rng
            if via == "next_bit":
                for _ in range(read):
                    source.next_bit()
            else:
                list(itertools.islice(symbols(spec, source), read))
            assert 0 < source._left < 64  # part-way into a word
            source.reseed(seed)
            assert source._rng is rng
            fresh = BitSource(seed)
            assert _position(source) == _position(fresh)
            assert markov_sample(spec, 50, source) == markov_sample(spec, 50, fresh)
            assert _position(source) == _position(fresh)

    @staticmethod
    def _tally_reference(spec, t: int, trials: int, seed: int):
        counts = [0] * spec.alphabet_size
        bits = 0
        for i in range(trials):
            source = BitSource(f"{seed}:{i}")
            for sym in markov_sample_reference(spec, t, source):
                counts[sym] += 1
            bits += source.bits_consumed
        return counts, bits

    @pytest.mark.parametrize("t", [0, 1, 37])
    @pytest.mark.parametrize(
        "spec",
        [
            SKEWED,
            IidSpec.from_probs([0.2, 0.3, 0.5]),
            IidSpec.from_probs([0.125, 0.375, 0.25, 0.25]),
            MarkovSpec(0, {(): IidSpec.from_probs([0.1, 0.6, 0.3])}, ("stationary", None)),
            spec_from_json(MEMORY2_CHAIN),
        ],
        ids=["iid-2", "iid-3", "iid-4", "markov-memory-0", "markov-memory-2"],
    )
    def test_the_cli_tally_matches_a_fresh_source_per_trial(self, spec, t):
        for seed in (3, 41):
            got = cli._tally(spec, t, 60, seed)
            assert got == self._tally_reference(spec, t, 60, seed), seed


class TestSeededSamplerOutput:
    """Seeded draws pinned as integers, so a sampler change that moves
    them fails here by name.  Trial i reads BitSource("{seed}:{i}"), as
    the CLI does."""

    @staticmethod
    def _draw(spec, t: int, trials: int, seed: int):
        counts = [0] * spec.alphabet_size
        bits = []
        for i in range(trials):
            source = BitSource(f"{seed}:{i}")
            for sym in markov_sample(spec, t, source):
                counts[sym] += 1
            bits.append(source.bits_consumed)
        return counts, bits

    def test_shipped_sample_config(self):
        cfg = json.loads((CONFIG_DIR / "sample.json").read_text())
        spec = IidSpec.from_probs(cfg["spec"])
        counts, bits = self._draw(spec, cfg["t"], cfg["trials"], cfg["seed"])
        assert counts == [25258, 74742]
        assert sum(bits) == 150393

    def test_shipped_spread_config(self):
        cfg = json.loads((CONFIG_DIR / "spread.json").read_text())
        code = SpreadCode(
            len(cfg["message"]),
            tuple(IidSpec.from_probs(c) for c in cfg["components"]),
        )
        counts = [0, 0]
        bits = []
        for i in range(cfg["trials"]):
            source = BitSource(f"{cfg['seed']}:{i}")
            for sym in spread_encode(code, cfg["message"], cfg["t"], source):
                counts[sym] += 1
            bits.append(source.bits_consumed)
        assert counts == [200030, 199970]
        assert sum(bits) == 798736
        assert bits == SPREAD_TRIAL_BITS

    def test_seeded_markov_sample(self):
        counts, bits = self._draw(spec_from_json(MEMORY2_CHAIN), 40, 300, 733)
        assert counts == [3241, 3860, 4899]
        assert sum(bits) == 22145


# fair flips of each trial of configs/spread.json
SPREAD_TRIAL_BITS = [
    3938, 4133, 4006, 3973, 3948, 3982, 4030, 3917, 4107, 4038, 4002,
    3978, 3981, 3925, 4104, 4066, 4066, 4109, 3920, 4051, 4003, 4004,
    4010, 3938, 4037, 3873, 4073, 4023, 3970, 3953, 4026, 3918, 3981,
    3913, 3963, 4027, 4085, 3947, 4081, 4086, 3979, 3959, 3975, 3942,
    3971, 3919, 3988, 4063, 3997, 4000, 3975, 3973, 4090, 3917, 3957,
    4038, 3950, 4053, 4015, 4109, 4097, 3989, 3984, 3881, 3966, 3932,
    4018, 4000, 3923, 3978, 4083, 3949, 3936, 4032, 4053, 3937, 4039,
    3968, 3914, 3989, 4064, 4047, 3986, 3954, 4017, 3868, 3990, 3954,
    3856, 3955, 3884, 3944, 3987, 4103, 3896, 3938, 3996, 3937, 4066,
    3989, 3940, 4008, 4103, 4067, 4060, 3971, 3940, 4083, 4035, 3974,
    3924, 3874, 4071, 3923, 4065, 3982, 3954, 4061, 4019, 3886, 4005,
    4019, 4027, 4116, 3974, 4069, 4041, 3932, 3816, 4016, 4037, 4055,
    3966, 4033, 4039, 3946, 4099, 3991, 3970, 3899, 3971, 3993, 3979,
    3960, 3951, 3924, 4004, 3928, 4009, 3995, 3911, 3985, 3983, 4129,
    4023, 4003, 4026, 3927, 4031, 3897, 3858, 4030, 4052, 3878, 4032,
    4068, 4040, 3966, 3958, 3910, 4020, 4013, 4035, 3968, 3961, 4007,
    4136, 4082, 3891, 4084, 3982, 3931, 4049, 3997, 3990, 4031, 3996,
    3923, 3913, 4036, 4129, 4015, 3993, 3913, 3978, 3995, 4020, 4051,
    3996, 4036,
]


class TestMarkovSpec:
    def test_stationary_matches_exact_solve(self):
        spec = MarkovSpec(
            memory=1,
            transitions={
                (0,): IidSpec.from_probs([0.875, 0.125]),
                (1,): IidSpec.from_probs([0.5, 0.5]),
            },
            init=("stationary", None),
        )
        got = spec.stationary_distribution()
        want = exact_stationary(
            [
                [Fraction(7, 8), Fraction(1, 8)],
                [Fraction(1, 2), Fraction(1, 2)],
            ]
        )
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), abs=1e-9)

    def test_alternator_stationary_is_uniform(self):
        spec = MarkovSpec(
            memory=1,
            transitions={
                (0,): IidSpec.from_probs([0.0, 1.0]),
                (1,): IidSpec.from_probs([1.0, 0.0]),
            },
            init=("stationary", None),
        )
        assert spec.stationary_distribution() == pytest.approx((0.5, 0.5))

    def test_memory_two_contexts(self):
        rows = {}
        for a in (0, 1):
            for b in (0, 1):
                rows[(a, b)] = IidSpec.from_probs(
                    [0.75, 0.25] if a == b else [0.25, 0.75]
                )
        spec = MarkovSpec(memory=2, transitions=rows, init=("stationary", None))
        assert len(spec.contexts()) == 4
        assert spec.conditional((0, 1))[1] == 0.75

    def test_missing_context_rejected(self):
        with pytest.raises(ValueError):
            MarkovSpec(
                memory=1,
                transitions={(0,): IidSpec.from_probs([0.5, 0.5])},
                init=("stationary", None),
            )

    @pytest.mark.parametrize(
        "keys, names",
        [
            ([(0,), (1,), (2,)], "2"),
            ([(0,), (1,), (0, 1)], "01"),
            (["0", "1"], "'0', '1'"),
            (["0", (1,)], "'0'"),
            ([(0, 1), (1,)], "01"),  # the context 0 is missing too
        ],
        ids=["symbol", "length", "strings", "string-and-context", "both-defects"],
    )
    def test_key_that_is_not_a_context_rejected(self, keys, names):
        row = IidSpec.from_probs([0.5, 0.5])
        with pytest.raises(ValueError, match=f"not contexts: {names}$"):
            MarkovSpec(
                memory=1,
                transitions=dict.fromkeys(keys, row),
                init=("stationary", None),
            )

    def test_memory_40_keys_that_are_not_contexts_are_refused_at_once(self):
        row = IidSpec.from_probs([0.5, 0.5])
        started = time.perf_counter()
        with pytest.raises(ValueError, match=r"not contexts: 0, 1$"):
            MarkovSpec(40, {(0,): row, (1,): row}, ("stationary", None))
        assert time.perf_counter() - started < 0.1

    def test_memory_40_map_with_one_context_is_refused_at_once(self):
        row = IidSpec.from_probs([0.5, 0.5])
        first = ", ".join(format(i, "040b") for i in range(1, 9))
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"missing contexts: {first}$"):
            MarkovSpec(40, {(0,) * 40: row}, ("stationary", None))
        assert time.perf_counter() - started < 0.1

    def test_reducible_chain_is_rejected_at_construction(self):
        with pytest.raises(NonErgodicError, match="reducible"):
            MarkovSpec(
                memory=1,
                transitions={
                    (0,): IidSpec.from_probs([1.0, 0.0]),
                    (1,): IidSpec.from_probs([0.0, 1.0]),
                },
                init=("stationary", None),
            )

    # memory 1-3 over 2-4 symbols, at most 27 contexts
    @pytest.mark.parametrize(
        "memory, k", [(m, k) for m in (1, 2, 3) for k in (2, 3, 4) if k**m <= 27]
    )
    def test_random_chain_laws_are_exact(self, memory, k):
        rng = random.Random(f"{memory}:{k}")
        for _ in range(3):
            _assert_exact_law(_random_irreducible(rng, memory, k))

    @pytest.mark.parametrize("a", [10.0**-e for e in range(3, 10)])
    def test_slowly_mixing_laws_are_exact(self, a):
        _assert_exact_law(_leave_rates(a))

    def test_periodic_chain_laws_are_exact(self):
        alternator = {(0,): [0.0, 1.0], (1,): [1.0, 0.0]}
        period_two = {
            (0,): [0.0, 0.0, 0.25, 0.75], (1,): [0.0, 0.0, 0.5, 0.5],
            (2,): [0.125, 0.875, 0.0, 0.0], (3,): [0.5, 0.5, 0.0, 0.0],
        }
        for rows in (alternator, period_two):
            laws = {ctx: IidSpec.from_probs(probs) for ctx, probs in rows.items()}
            _assert_exact_law(MarkovSpec(1, laws, ("stationary", None)))

    def test_fixed_context_init_mixture(self):
        spec = MarkovSpec(
            memory=1,
            transitions={
                (0,): IidSpec.from_probs([0.875, 0.125]),
                (1,): IidSpec.from_probs([0.5, 0.5]),
            },
            init=("context", (0,)),
        )
        assert spec.initial_mixture() == {0: 1.0}

    def test_block_distribution_sums_to_one(self):
        spec = sticky_chain(0.9)
        block = block_distribution(spec, 4)
        assert math.fsum(block.values()) == pytest.approx(1.0, abs=1e-9)

    def test_entropy_rate_matches_block_increment(self):
        spec = sticky_chain(0.9)

        def block_entropy(t):
            block = block_distribution(spec, t).values()
            return -math.fsum(p * math.log2(p) for p in block if p > 0.0)

        assert block_entropy(6) - block_entropy(5) == pytest.approx(entropy_rate(spec), abs=1e-6)


class TestMarkovSample:
    def test_deterministic_and_hides_the_seed_context(self):
        spec = sticky_chain(0.9)
        a = markov_sample(spec, 50, BitSource(3))
        b = markov_sample(spec, 50, BitSource(3))
        assert a == b
        assert len(a) == 50

    def test_long_run_frequencies_near_stationary(self):
        spec = sticky_chain(0.9)
        seq = markov_sample(spec, 20_000, BitSource(17))
        freq1 = sum(seq) / len(seq)
        assert freq1 == pytest.approx(0.5, abs=0.03)

    def test_alternator_from_fixed_context(self):
        spec = MarkovSpec(
            memory=1,
            transitions={
                (0,): IidSpec.from_probs([0.0, 1.0]),
                (1,): IidSpec.from_probs([1.0, 0.0]),
            },
            init=("context", (0,)),
        )
        assert markov_sample(spec, 6, BitSource(0)) == (1, 0, 1, 0, 1, 0)


class TestSequenceLogProbability:
    def test_iid_pinned(self):
        assert sequence_log_probability(FAIR, (1, 0, 1)) == pytest.approx(3.0)
        assert sequence_log_probability(SKEWED, (1,)) == pytest.approx(
            -math.log2(0.75)
        )

    def test_impossible_sequence(self):
        spec = IidSpec.from_probs([1.0, 0.0])
        assert sequence_log_probability(spec, (0, 1)) == math.inf

    def test_markov_agrees_with_block_enumeration(self):
        spec = sticky_chain(0.75)
        block = block_distribution(spec, 5)
        for seq, p in list(block.items())[:8]:
            assert sequence_log_probability(spec, seq) == pytest.approx(
                -math.log2(p), abs=1e-9
            )


class TestSpreadCode:
    CODE = SpreadCode(
        4,
        (IidSpec.from_probs([0.7, 0.3]), IidSpec.from_probs([0.3, 0.7])),
    )

    def test_rejects_identical_components(self):
        with pytest.raises(ValueError):
            SpreadCode(2, (FAIR, IidSpec.from_probs([0.5, 0.5])))

    def test_rejects_bad_message(self):
        with pytest.raises(ValueError):
            spread_encode(self.CODE, "012", 10, BitSource(0))
        # every character that is not a component index is named
        for ch in "2\n ":
            with pytest.raises(ValueError, match=re.escape(f"symbol {ch!r} has no component")):
                spread_encode(self.CODE, f"01{ch}0", 10, BitSource(0))

    def test_round_trip_at_generous_length(self):
        msg = "0110"
        obs = spread_encode(self.CODE, msg, 4000, BitSource(23))
        decoded = spread_decode(self.CODE, obs)
        assert decoded.as_string() == msg
        assert all(c > 0 for c in decoded.confidences)

    def test_positions_cycle_through_the_message(self):
        code = SpreadCode(2, self.CODE.components)
        obs = spread_encode(code, "01", 1000, BitSource(29))
        evens = obs[0::2]
        odds = obs[1::2]
        assert sum(evens) / len(evens) == pytest.approx(0.3, abs=0.06)
        assert sum(odds) / len(odds) == pytest.approx(0.7, abs=0.06)

    def test_short_observation_leaves_tail_unknown(self):
        decoded = spread_decode(self.CODE, (1, 0))
        assert decoded.bits[2] is None
        assert decoded.bits[3] is None
        assert decoded.as_string().endswith("??")
        assert decoded.confidences[2] == 0.0

    def test_tie_decodes_to_lowest_component(self):
        code = SpreadCode(
            1,
            (IidSpec.from_probs([0.75, 0.25]), IidSpec.from_probs([0.25, 0.75])),
        )
        decoded = spread_decode(code, (0, 1))
        assert decoded.bits == (0,)
        assert decoded.confidences == (0.0,)


class TestDecodeErrorOracles:
    """The two exact ML-error oracles must agree, and both must predict
    what the shipped decoder actually does."""

    P0 = Fraction(1, 4)
    P1 = Fraction(3, 4)

    def test_threshold_oracle_matches_enumeration_oracle(self):
        for n in (1, 2, 3, 8, 17, 30):
            fast = exact_ml_bit_error(n, self.P0, self.P1, true_first=True)
            brute = exact_decode_error(n, [self.P0, self.P1], 0)
            assert fast == brute, n

    def test_oracles_match_the_decoder_empirically(self):
        code = SpreadCode(
            1,
            (IidSpec.from_probs([0.75, 0.25]), IidSpec.from_probs([0.25, 0.75])),
        )
        n = 9
        predicted = float(exact_ml_bit_error(n, self.P0, self.P1, True))
        trials = 4000
        wrong = 0
        for i in range(trials):
            obs = spread_encode(code, "0", n, BitSource(f"dec:{i}"))
            if spread_decode(code, obs).bits != (0,):
                wrong += 1
        rate = wrong / trials
        sigma = math.sqrt(predicted * (1 - predicted) / trials)
        assert abs(rate - predicted) <= 4 * sigma + 1e-9


class TestSpecJson:
    def test_iid_form(self):
        assert spec_from_json({"kind": "iid", "probs": [0.25, 0.75]}) == SKEWED

    def test_markov_init_forms(self):
        rows = sticky_chain(0.875).transitions
        data = {
            "kind": "markov",
            "memory": 1,
            "alphabet": 2,
            "transitions": {"0": [0.875, 0.125], "1": [0.125, 0.875]},
        }
        for init_json, init in (
            ({"context": "1"}, ("context", (1,))),
            ("stationary", ("stationary", None)),
        ):
            spec = spec_from_json({**data, "init": init_json})
            assert spec == MarkovSpec(1, rows, init), init_json
        # the stationary law is the one start that is not a context
        with pytest.raises(ValueError, match="unknown init form"):
            spec_from_json({**data, "init": {"distribution": [0.5, 0.5]}})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            spec_from_json({"kind": "ouija"})


def test_markov_entropy_rate_sanity():
    # memoryless chain dressed as memory-1 must match the iid rate
    spec = MarkovSpec(
        memory=1,
        transitions={
            (0,): SKEWED,
            (1,): SKEWED,
        },
        init=("stationary", None),
    )
    assert entropy_rate(spec) == pytest.approx(entropy([0.25, 0.75]))


def test_empirical_vs_sampled_tv():
    src = BitSource(31)
    draws = iid_sample(SKEWED, 100_000, src)
    freq = {
        0: draws.count(0) / len(draws),
        1: draws.count(1) / len(draws),
    }
    assert total_variation(freq, {0: 0.25, 1: 0.75}) < 0.01
