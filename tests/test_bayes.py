"""Unit tests for posterior tracking, stopping rules, and their analytics."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

import samplex.bayes
from samplex import (
    BitSource,
    ComputationRefused,
    Decision,
    DecisionStatus,
    HypothesisSet,
    IidSpec,
    MarkovSpec,
    NonErgodicError,
    PosteriorState,
    StoppingConfig,
    check_stop,
    divergence_rate,
    entropy_rate,
    equivalence_groups,
    expected_sc_evaluator,
    falsification_bounds,
    mc_sample_complexity,
    mc_surprisal_moment_curve,
    posterior_trace,
    posterior_update,
    sample_discrete,
    sequence_log_probability,
    surprisal_moment,
    symbols,
    typical_set_bounds,
    warmup_threshold,
)

from oracles import (
    block_distribution,
    check_stop_reference,
    draw_counts_reference,
    hand_posterior,
    mc_stopping_reference,
    mc_work_reference,
    posterior_surprisal_reference,
    posterior_trace_reference,
    stopping_rule_reference,
    surprisal_moment_direct,
    surprisal_moment_product_form,
    transitive_groups_reference,
)

B5 = IidSpec.from_probs([0.5, 0.5])
B9 = IidSpec.from_probs([0.1, 0.9])  # emits 1 with probability 0.9
B3 = IidSpec.from_probs([0.3, 0.7])
B95 = IidSpec.from_probs([0.05, 0.95])
MIRROR = IidSpec.from_probs([0.9, 0.1])
PAIR = HypothesisSet((B5, B9))
UNIFORM = (0.5, 0.5)
THIRDS = (1 / 3, 1 / 3, 1 / 3)
T3 = IidSpec.from_probs([0.25, 0.25, 0.5])
THREE = HypothesisSet((T3, IidSpec.from_probs([0.625, 0.25, 0.125])))
# two full-support members in different groups beside one with a zero: at
# p = 1 neither full-support member is ever ruled out, so no step verifies
APART = HypothesisSet(
    tuple(
        IidSpec.from_probs(probs)
        for probs in ([0.2, 0.3, 0.5], [0.3, 0.3, 0.4], [0.0, 0.4, 0.6])
    )
)


def chain(memory, zeros, init=("stationary", None)):
    """Binary chain; zeros[j] is the probability of a 0 after the j-th
    context in lexicographic order."""
    ctxs = [(0,), (1,)] if memory == 1 else [(0, 0), (0, 1), (1, 0), (1, 1)]
    rows = {c: IidSpec.from_probs([a, 1 - a]) for c, a in zip(ctxs, zeros)}
    return MarkovSpec(memory, rows, init)


def m1(a, b, init=("stationary", None)):
    return chain(1, (a, b), init)


def k3(*rows):
    """Three-symbol memory-1 chain from its stationary law; rows[c] is the
    law of the symbol after a c."""
    laws = {(c,): IidSpec.from_probs(row) for c, row in enumerate(rows)}
    return MarkovSpec(1, laws, ("stationary", None))


# stationary pairs whose hidden start mixes more than two contexts
K3_PAIR = HypothesisSet(
    (
        k3((0.6, 0.15, 0.25), (0.2, 0.3, 0.5), (0.55, 0.1, 0.35)),
        k3((0.15, 0.7, 0.15), (0.4, 0.35, 0.25), (0.3, 0.3, 0.4)),
    )
)
M2_PAIR = HypothesisSet(
    (chain(2, (0.3, 0.6, 0.45, 0.8)), chain(2, (0.7, 0.35, 0.5, 0.2)))
)


def run_posterior(hset, prior, observations):
    state = PosteriorState.from_prior(hset, prior)
    for sym in observations:
        state = posterior_update(state, sym)
    return state


def repeated(spec):
    """The memory-1 chain whose every row is ``spec``, started from its
    stationary law: the same process as ``spec`` itself."""
    rows = {(s,): spec for s in range(spec.alphabet_size)}
    return MarkovSpec(1, rows, ("stationary", None))


class TestIidIsTheMemoryZeroChain:
    # full support: a zero cell would leave a context of the chain
    # unreachable, and a reducible chain has no stationary law
    CASES = [
        (B9, B5),
        (T3, IidSpec.from_probs([0.625, 0.25, 0.125])),
        (IidSpec.from_probs([0.2, 0.3, 0.5]), T3),
    ]

    @pytest.mark.parametrize("spec, third", CASES)
    def test_rates_and_bounds_agree_with_the_chain(self, spec, third):
        chain_ = repeated(spec)
        close = lambda a, b: math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)
        assert close(entropy_rate(spec), entropy_rate(chain_))
        assert close(
            divergence_rate(spec, third),
            divergence_rate(chain_, repeated(third)),
        )
        for q in (0.5, 0.9):
            iid_bounds = falsification_bounds(spec, third, q)
            chain_bounds = falsification_bounds(chain_, repeated(third), q)
            assert all(map(close, iid_bounds, chain_bounds)), q

    @pytest.mark.parametrize("spec, third", CASES)
    def test_blocks_and_sequences_agree_with_the_chain(self, spec, third):
        chain_ = repeated(spec)
        for t in range(5):
            iid_block = block_distribution(spec, t)
            chain_block = block_distribution(chain_, t)
            assert iid_block.keys() == chain_block.keys()
            for seq, p in iid_block.items():
                assert chain_block[seq] == pytest.approx(p, rel=0.0, abs=1e-12)
        k = spec.alphabet_size
        for seq in itertools.product(range(k), repeat=4):
            got = sequence_log_probability(spec, seq)
            want = sequence_log_probability(chain_, seq)
            assert got == pytest.approx(want, rel=0.0, abs=1e-12), seq

    def test_deterministic_processes_have_entropy_rate_plus_zero(self):
        point = IidSpec.from_probs([0.0, 1.0])
        for spec in (point, m1(0.0, 1.0)):  # the chain alternates
            assert math.copysign(1.0, entropy_rate(spec)) == 1.0, spec

    def test_the_start_reads_no_flips(self):
        source = BitSource(5)
        symbols(B9, source)
        assert source.bits_consumed == 0
        assert B9.transitions == {(): B9}
        assert B9.initial_mixture() == {0: 1.0}
        assert B9.stationary_distribution() == (1.0,)


class TestDivergenceRate:
    def test_pinned_iid_value(self):
        assert divergence_rate(B5, MIRROR) == pytest.approx(0.7369655941662063)

    def test_symmetric_and_zero_on_equal(self):
        assert divergence_rate(B5, B9) == divergence_rate(B9, B5)
        assert divergence_rate(B9, B9) == 0.0

    def test_markov_weights_contexts_by_stationary_mass(self):
        sticky9 = MarkovSpec(
            memory=1,
            transitions={
                (0,): IidSpec.from_probs([0.9, 0.1]),
                (1,): IidSpec.from_probs([0.1, 0.9]),
            },
            init=("stationary", None),
        )
        sticky8 = MarkovSpec(
            memory=1,
            transitions={
                (0,): IidSpec.from_probs([0.8, 0.2]),
                (1,): IidSpec.from_probs([0.2, 0.8]),
            },
            init=("stationary", None),
        )
        assert divergence_rate(sticky9, sticky8) == pytest.approx(
            0.06405999884615013
        )

    def test_memory_mismatch_rejected(self):
        sticky = MarkovSpec(
            memory=1,
            transitions={
                (0,): IidSpec.from_probs([0.9, 0.1]),
                (1,): IidSpec.from_probs([0.1, 0.9]),
            },
            init=("stationary", None),
        )
        with pytest.raises(ValueError):
            divergence_rate(sticky, B5)


class TestHypothesisSet:
    def test_rejects_empty_and_mixed_alphabets(self):
        with pytest.raises(ValueError):
            HypothesisSet(())
        with pytest.raises(ValueError):
            HypothesisSet((B5, IidSpec.from_probs([0.25, 0.25, 0.5])))

    def test_rates(self):
        rates = HypothesisSet((B5, B9)).rates
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(0.4689955935892812)

    def test_equality_ignores_how_a_spec_was_built(self):
        # 0.1 is snapped to the dyadic grid; the snapped probabilities,
        # given again, need no snapping but describe the same process
        again = IidSpec.from_probs(list(B9.dist.probs))
        assert (B9.rounded, again.rounded) == (True, False)
        assert again == B9
        # the ideal's duplicate caps its posterior at 1/2, below p = 0.9
        hset = HypothesisSet((B9, B5, again))
        estimate = expected_sc_evaluator(B9, hset, (1 / 3,) * 3, 0.9)
        assert estimate.method == "unreachable-threshold"


class TestEquivalenceGroups:
    def test_exact_duplicates_merge_at_zero_tolerance(self):
        trio = HypothesisSet((B5, B5, B9))
        assert equivalence_groups(trio, 0.0) == ((0, 1), (2,))

    def test_generous_tolerance_merges_everything(self):
        trio = HypothesisSet((B5, B5, B9))
        assert equivalence_groups(trio, 0.75) == ((0, 1, 2),)

    def test_distinct_members_stay_apart(self):
        assert equivalence_groups(PAIR, 0.0) == ((0,), (1,))

    def test_rejects_a_negative_or_nan_slack(self):
        for eps_d in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                equivalence_groups(PAIR, eps_d)

    def test_a_chain_of_near_members_is_one_group(self):
        # a ~ b and b ~ c but not a ~ c; b comes last, so it joins the two
        # groups that a and c started
        a, b, c = (IidSpec.from_probs([x, 1 - x]) for x in (0.5, 0.4, 0.3))
        eps_d = max(divergence_rate(a, b), divergence_rate(b, c))
        assert eps_d < divergence_rate(a, c)
        assert equivalence_groups(HypothesisSet((a, c, b)), eps_d) == ((0, 1, 2),)
        assert equivalence_groups(HypothesisSet((a, c, b)), 0.0) == ((0,), (1,), (2,))

    def test_matches_the_transitive_closure(self):
        # slacks include 0, every pairwise divergence (ties) and values
        # between; repeated weights give exact duplicates
        rng = random.Random(2024)
        weights = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        for _ in range(150):
            members = tuple(
                IidSpec.from_probs([x, 1 - x])
                for x in rng.choices(weights, k=rng.randint(2, 6))
            )
            rates = [divergence_rate(a, b) for a in members for b in members]
            for eps_d in (0.0, rng.choice(rates), rng.uniform(0.0, max(rates))):
                hset = HypothesisSet(members)
                assert equivalence_groups(hset, eps_d) == (
                    transitive_groups_reference(hset, eps_d)
                ), (members, eps_d)


class TestPosterior:
    CERTAIN_ONE = IidSpec.from_probs([0.0, 1.0])

    def test_pinned_two_member_update(self):
        hset = HypothesisSet((B5, self.CERTAIN_ONE))
        state = run_posterior(hset, UNIFORM, (1,))
        assert state.posterior().probs == pytest.approx((1 / 3, 2 / 3))

    def test_contradiction_eliminates_a_member(self):
        hset = HypothesisSet((B5, self.CERTAIN_ONE))
        state = run_posterior(hset, UNIFORM, (1, 0))
        assert state.posterior().probs == pytest.approx((1.0, 0.0))
        assert not state.all_falsified

    def test_all_falsified_is_terminal(self):
        hset = HypothesisSet((self.CERTAIN_ONE, IidSpec.from_probs([1.0, 0.0])))
        state = run_posterior(hset, UNIFORM, (1, 0))
        assert state.all_falsified
        decision = check_stop(state, StoppingConfig(p=0.9))
        assert decision.status is DecisionStatus.FALSIFIED
        assert decision.terminal
        assert decision.group == ()

    def test_matches_exact_rational_bayes(self):
        rng = random.Random(0xACE)
        grid = [Fraction(j, 8) for j in range(9)]
        for _ in range(300):
            n = rng.randint(2, 4)
            probs = []
            for _ in range(n):
                p1 = rng.choice(grid)
                probs.append([1 - p1, p1])
            weights = [rng.randint(1, 5) for _ in range(n)]
            total = sum(weights)
            prior = [Fraction(w, total) for w in weights]
            obs = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
            hset = HypothesisSet(
                tuple(IidSpec.from_probs([float(a), float(b)]) for a, b in probs)
            )
            state = run_posterior(hset, tuple(float(w) for w in prior), obs)
            try:
                expected = hand_posterior(prior, probs, obs)
            except ZeroDivisionError:
                assert state.all_falsified
                continue
            got = state.posterior().probs
            for g, e in zip(got, expected):
                assert g == pytest.approx(float(e), abs=1e-12)

    @pytest.mark.parametrize("hset", [K3_PAIR, M2_PAIR], ids=["k3-m1", "binary-m2"])
    def test_the_empty_prefix_scores_exactly_zero(self, hset):
        # the class walk's t = 0 score is the prior's, as in the posterior
        # step and the stopping trials
        for m in hset.members:
            assert sequence_log_probability(m, ()) == 0.0
        start = PosteriorState.from_prior(hset, UNIFORM).loglik
        assert samplex.bayes._start_score(hset, ()) == start == (0.0, 0.0)

    @pytest.mark.parametrize("hset", [K3_PAIR, M2_PAIR], ids=["k3-m1", "binary-m2"])
    def test_one_likelihood_scores_every_sequence(self, hset):
        # up to t = memory the step reads the start score bit for bit; past
        # it, the score the exact class walk gives the sequence's class
        walk = samplex.bayes._class_walk(hset, (-1.0, -1.0), 0, {None: 1})
        next(walk)
        for t in range(1, hset.memory + 4):
            seqs = list(itertools.product(range(hset.alphabet_size), repeat=t))
            got = [run_posterior(hset, UNIFORM, seq).loglik for seq in seqs]
            classes = next(walk)
            if t <= hset.memory:
                for seq, loglik in zip(seqs, got):
                    assert loglik == tuple(
                        -sequence_log_probability(m, seq) for m in hset.members
                    ), seq
                continue
            left = [[ll, mult] for _gen, mult, ll, _s in classes]
            for seq, loglik in zip(seqs, got):
                match = next(
                    c for c in left
                    if c[1] and loglik == pytest.approx(c[0], rel=0.0, abs=1e-12)
                )
                match[1] -= 1
            assert not any(mult for _ll, mult in left)

    @pytest.mark.parametrize("t", [0, 1])
    def test_predictive_before_the_hidden_start_collapses(self, t):
        prior = (0.3, 0.7)
        blocks = [
            (block_distribution(m, t), block_distribution(m, t + 1))
            for m in M2_PAIR.members
        ]
        for seq in itertools.product(range(2), repeat=t):
            evidence = sum(w * now[seq] for w, (now, _) in zip(prior, blocks))
            want = [
                sum(w * nxt[seq + (sym,)] for w, (_, nxt) in zip(prior, blocks))
                / evidence
                for sym in range(2)
            ]
            # the mixture's next-symbol law from the likelihoods the
            # posterior step gives the sequence and each extension of it
            state = run_posterior(M2_PAIR, prior, seq)
            evidence = math.fsum(w * 2.0**ll for w, ll in zip(prior, state.loglik))
            got = [
                math.fsum(
                    w * 2.0**ll
                    for w, ll in zip(prior, posterior_update(state, sym).loglik)
                )
                / evidence
                for sym in range(2)
            ]
            assert got == pytest.approx(want, rel=0.0, abs=1e-12), seq

    def test_prior_must_match_and_normalize(self):
        with pytest.raises(ValueError):
            PosteriorState.from_prior(PAIR, (0.5, 0.25, 0.25))
        with pytest.raises(ValueError):
            PosteriorState.from_prior(PAIR, (0.9, 0.2))

    @pytest.mark.parametrize("prior", [(1.0,), (0.5, 0.25, 0.25)], ids=["short", "long"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda prior: expected_sc_evaluator(B5, PAIR, prior, 0.9),
            lambda prior: surprisal_moment(B5, PAIR, prior, 3, 1),
            lambda prior: mc_surprisal_moment_curve(B5, PAIR, prior, 3, (1,), 10, 1),
        ],
        ids=["evaluator", "moment", "moment-curve"],
    )
    def test_every_reader_of_a_prior_checks_its_length(self, call, prior):
        with pytest.raises(ValueError, match="prior over"):
            call(prior)


class TestTypicality:
    def test_pinned_bounds(self):
        assert typical_set_bounds(B5, 4, 0.5) == pytest.approx((0.03125, 0.125))

    def test_bounds_need_observations(self):
        with pytest.raises(ValueError):
            typical_set_bounds(B5, 0, 0.5)

    @staticmethod
    def typical(spec, observations, level):
        """Whether the stopping rule finds the observations inside the
        spec's typical band at ``level``: a one-member set holds all the
        posterior mass, so it verifies exactly then."""
        state = run_posterior(HypothesisSet((spec,)), (1.0,), observations)
        decision = check_stop(state, StoppingConfig(p=level))
        return decision.status is DecisionStatus.VERIFIED

    def test_fair_sequences_are_always_typical(self):
        for t in range(1, 7):
            for seq in itertools.product(range(2), repeat=t):
                assert self.typical(B5, seq, 0.5), seq

    def test_improbable_region(self):
        # log2(10) bits per symbol, above the band 0.47 +/- 1
        assert not self.typical(B9, (0,) * 12, 0.5)

    def test_probable_region(self):
        # -log2(0.9) = 0.15 bits per symbol, below the band 0.47 +/- 0.15
        assert not self.typical(B9, (1,) * 12, 0.9)

    def test_warmup_pinned_and_early_queries_undecided(self):
        assert warmup_threshold(1.0, 0.5) == 2
        # a 0 puts both members far outside their q bands, but the bands
        # are consulted only from the warm-up, t = 2, on
        strangers = HypothesisSet((B9, B95))
        cfg = StoppingConfig(p=1.0, q=0.5)
        early = check_stop(run_posterior(strangers, UNIFORM, (0,)), cfg)
        assert (early.status, early.terminal) == (DecisionStatus.UNDETERMINED, False)
        late = check_stop(run_posterior(strangers, UNIFORM, (0, 0)), cfg)
        assert (late.status, late.terminal) == (DecisionStatus.FALSIFIED, True)


class TestFalsificationBounds:
    def test_pinned_open_band(self):
        lo, hi = falsification_bounds(B5, B9, 0.5)
        assert lo == pytest.approx(0.8684827970831032)
        assert hi == math.inf

    def test_pinned_closed_band(self):
        lo, hi = falsification_bounds(B5, B9, 0.9)
        assert lo == pytest.approx(1.507778585013894)
        assert hi == pytest.approx(2.048315955800779)
        assert lo < hi

    def test_well_specified_band_never_closes(self):
        lo, hi = falsification_bounds(B5, B5, 0.5)
        assert lo == pytest.approx(0.5)
        assert hi == math.inf

    def test_q_zero_never_falsifies(self):
        with pytest.raises(ValueError, match="never"):
            falsification_bounds(B5, B9, 0.0)


class TestStoppingRules:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            StoppingConfig(p=0.3, q=0.5)
        with pytest.raises(ValueError):
            StoppingConfig(p=1.5)
        with pytest.raises(ValueError):
            StoppingConfig(r=-0.5)
        with pytest.raises(ValueError):
            StoppingConfig(eps_d=float("nan"))

    def test_pinned_threshold_cases(self):
        hset = HypothesisSet((B5, IidSpec.from_probs([0.0, 1.0])))
        state = run_posterior(hset, UNIFORM, (1,))
        eager = check_stop(state, StoppingConfig(p=0.6))
        assert eager.status is DecisionStatus.VERIFIED
        assert eager.group == (1,)
        assert eager.terminal
        patient = check_stop(state, StoppingConfig(p=0.9))
        assert patient.status is DecisionStatus.UNDETERMINED
        assert not patient.terminal

    def test_confident_prior_verifies_before_any_observation(self):
        state = PosteriorState.from_prior(PAIR, (0.95, 0.05))
        decision = check_stop(state, StoppingConfig(p=0.9))
        assert decision.status is DecisionStatus.VERIFIED
        assert decision.t == 0
        assert decision.terminal

    def test_resolution_cap_forces_a_terminal_undetermined(self):
        state = run_posterior(PAIR, UNIFORM, (1, 1))
        decision = check_stop(state, StoppingConfig(p=0.999999, r=0.25))
        assert decision.status is DecisionStatus.UNDETERMINED
        assert decision.terminal
        assert decision.t == 2

    def test_identical_members_partially_identify(self):
        twins = HypothesisSet((B5, B5))
        state = run_posterior(twins, UNIFORM, (1,))
        decision = check_stop(state, StoppingConfig(p=0.9))
        assert decision.status is DecisionStatus.PARTIALLY_IDENTIFIED
        assert decision.group == (0, 1)
        assert decision.terminal

    def test_misspecified_data_falsifies_the_whole_set(self):
        strangers = HypothesisSet((B9, B95))
        state = PosteriorState.from_prior(strangers, UNIFORM)
        decision = None
        for _ in range(50):
            state = posterior_update(state, 0)
            decision = check_stop(state, StoppingConfig(p=1.0, q=0.5))
            if decision.terminal:
                break
        assert decision is not None
        assert decision.status is DecisionStatus.FALSIFIED
        assert decision.terminal

    def test_a_group_mass_exactly_at_p_verifies(self):
        # the group {0, 2} holds 3/8 + 1/8 = 1/2 of the prior exactly
        ones = IidSpec.from_probs([1.0, 0.0])
        hset = HypothesisSet(
            (ones, IidSpec.from_probs([0.25, 0.75]), ones, IidSpec.from_probs([0.0, 1.0]))
        )
        prior = (0.375, 0.375, 0.125, 0.125)
        cfg = StoppingConfig(p=0.5)
        decision = check_stop(PosteriorState.from_prior(hset, prior), cfg)
        assert decision.status is DecisionStatus.PARTIALLY_IDENTIFIED
        assert decision.group == (0, 2)
        assert (decision.t, decision.terminal) == (0, True)
        report = mc_sample_complexity(B5, hset, prior, cfg, trials=3, seed=1)
        assert report.decisions["PartiallyIdentified"] == 3
        assert report.dist.counts == {0: 3}

    def test_a_certain_prior_stays_verified(self):
        # p = 1 over members at full support: certainty comes from the
        # prior and holds at every horizon
        state = run_posterior(PAIR, (1.0, 0.0), (1, 0, 1))
        decision = check_stop(state, StoppingConfig(p=1.0))
        assert decision.status is DecisionStatus.VERIFIED
        assert decision.group == (0,)
        assert decision.terminal

    def test_certainty_out_of_reach_reads_no_likelihood(self):
        # certainty is out of reach from set-up on, so the rule keeps
        # observing without a look at the scores
        def unread(*_):
            raise AssertionError("likelihoods read")

        class Unread:
            __iter__ = __getitem__ = unread

        decide = samplex.bayes._stopping_rule(
            APART, StoppingConfig(p=1.0), APART.log_prior(THIRDS)
        )
        assert [decide(Unread(), t) for t in (1, 2, 1000)] == [None, None, None]

    def test_agrees_with_the_reference_rule_off_floating_ties(self):
        # random iid sets on a 1/8 grid (zeros and duplicates included),
        # priors, configs and observations; a state whose group mass or
        # per-symbol surprisal lies within 1e-12 of a threshold is a
        # floating tie, where the two arithmetics may round apart
        rng = random.Random(0x5709)
        grid = [j / 8 for j in range(9)]

        def draw_probs(k):
            while True:
                probs = [rng.choice(grid) for _ in range(k - 1)]
                if sum(probs) <= 1.0:
                    return probs + [1.0 - sum(probs)]

        def near(a, b):
            return abs(a - b) <= 1e-12

        ties = 0
        states = 4000
        for _ in range(states):
            k = rng.choice((2, 3))
            specs = [IidSpec.from_probs(draw_probs(k)) for _ in range(rng.randint(2, 4))]
            if rng.random() < 0.2:
                specs[-1] = specs[0]
            hset = HypothesisSet(tuple(specs))
            weights = [rng.randint(0, 8) for _ in specs]
            weights[0] = weights[0] or 1
            prior = tuple(w / sum(weights) for w in weights)
            p = rng.choice((0.6, 0.8, 0.9, 0.95, 1.0))
            q = rng.choice([0.0] + [x for x in (0.3, 0.5, 0.7) if x <= p])
            cfg = StoppingConfig(
                p=p, q=q, eps_d=rng.choice((0.0, 0.05, 0.5)), r=rng.choice((0.0, 0.125))
            )
            source = rng.choice(specs)
            obs = [
                rng.choices(range(k), weights=source.dist.probs)[0]
                if rng.random() < 0.9
                else rng.randrange(k)
                for _ in range(rng.randint(0, 8))
            ]
            state = run_posterior(hset, prior, obs)
            want = check_stop_reference(state, cfg)
            if not state.all_falsified:
                post = state.posterior().probs
                masses = [
                    math.fsum(post[i] for i in g)
                    for g in equivalence_groups(hset, cfg.eps_d)
                ]
                edges = [-math.log2(x) for x in (p, q) if 0.0 < x < 1.0]
                rates = hset.rates
                if (p < 1.0 and any(near(m, p) for m in masses)) or (
                    state.t
                    and any(
                        near(-state.loglik[i] / state.t, rates[i] + s * e)
                        for i in range(len(specs))
                        for e in edges
                        for s in (-1, 1)
                    )
                ):
                    ties += 1
                    continue
            assert check_stop(state, cfg) == want, (specs, prior, cfg, obs)
        assert ties <= states // 100

    @staticmethod
    def band_edge_state(eps, side, inside):
        """A PAIR state at t = 64 whose member 0 has per-symbol surprisal
        1e-4 bits inside or outside the edge rate + side x eps of its
        band; member 1 sits a bit per symbol above its rate, outside
        every band used here, and holds posterior mass under 2^-17."""
        rates = PAIR.rates
        offset = eps - 1e-4 if inside else eps + 1e-4
        t = 64
        loglik = (-t * (rates[0] + side * offset), -t * (rates[1] + 1.0))
        return dataclasses.replace(
            PosteriorState.from_prior(PAIR, UNIFORM), loglik=loglik, t=t
        )

    @pytest.mark.parametrize("side", (-1, 1), ids=("lower", "upper"))
    @pytest.mark.parametrize("inside", (True, False), ids=("inside", "outside"))
    def test_the_q_band_edge_decides_falsification(self, side, inside):
        # p = 1 over full-support members never verifies, so the q band
        # alone decides
        cfg = StoppingConfig(p=1.0, q=0.9)
        state = self.band_edge_state(-math.log2(cfg.q), side, inside)
        decision = check_stop(state, cfg)
        assert decision == check_stop_reference(state, cfg)
        if inside:
            assert (decision.status, decision.terminal) == (
                DecisionStatus.UNDETERMINED, False
            )
        else:
            assert (decision.status, decision.terminal) == (
                DecisionStatus.FALSIFIED, True
            )

    @pytest.mark.parametrize("side", (-1, 1), ids=("lower", "upper"))
    @pytest.mark.parametrize("inside", (True, False), ids=("inside", "outside"))
    def test_the_p_band_edge_decides_verification(self, side, inside):
        # member 0 holds far more than p of the posterior and q = 0, so
        # its p band alone decides
        cfg = StoppingConfig(p=0.9)
        state = self.band_edge_state(-math.log2(cfg.p), side, inside)
        assert state.posterior()[0] > 0.9999
        decision = check_stop(state, cfg)
        assert decision == check_stop_reference(state, cfg)
        if inside:
            assert (decision.status, decision.group, decision.terminal) == (
                DecisionStatus.VERIFIED, (0,), True
            )
        else:
            assert (decision.status, decision.terminal) == (
                DecisionStatus.UNDETERMINED, False
            )


def _near(c):
    """c, c +- 1 and 4 ulps, and c +- 1e-9 (c = -inf stands alone)."""
    if c == -math.inf:
        return [c]
    ulps = [c + k * math.ulp(c) for k in (-4, -1, 1, 4)]
    return [c, *ulps, c - 1e-9, c + 1e-9]


class TestMassBound:
    """The library's stopping rule weighs the groups only when
    ``largest`` / total reaches p, with ``largest`` the largest group
    size and total the summed weights, and at p = 1 checks only the top
    member's group; the reference computes every group's mass whenever
    it weighs.  Both skip the weighing at p = 1 when no group holds
    every live member at full support, so vectors no sequence produces
    (such a member at -inf) get that set-up's verdict on both sides.
    The grid puts the summed weights at ``largest`` / p and within 4
    ulps of it, puts the score gap second - top within ulps of where the
    top group's mass meets p, and has members trail the top by so little
    (1e-300 and 5e-324 bits under a top score of 0) that their weight
    rounds to exactly 1."""

    # groups (equal members, eps_d = 0) of 1, 2 and 3 members; a member
    # with a zero-probability symbol beside one group of full-support
    # members, where p = 1 weighs, and beside two groups, where it never does
    SETS = [
        HypothesisSet((B5, B9)),
        HypothesisSet((B5, B9, B95)),
        HypothesisSet((B5, B5, B9)),
        HypothesisSet((B9, B5, B5, B5)),
        HypothesisSet((B5, B5, IidSpec.from_probs([0.0, 1.0]))),
        APART,
    ]
    LEVELS = [0.5, math.nextafter(0.5, 1.0), 2 / 3, 0.9, 0.999, 1.0]
    # lags far below an ulp of 1, which leave a weight of exactly 1
    TINY = (-1e-300, -5e-324)

    @classmethod
    def logliks(cls, hset, groups, p, t, rest):
        """Likelihood vectors whose top member leads a group a and whose
        best member outside a trails it by a gap near log2 |a| -
        log2(p / (1 - p)), ties it or trails it by a tiny lag; the other
        members of a trail the top by 0 to 1e-9 bits, and the members
        outside a but the nearest are ruled out, tie it or trail it by
        ``rest``.  A lag of 2e-16 bits leaves a weight of 1 - 2**-53,
        which rounds up when added to the top's."""
        for a in groups:
            top, near = a[0], next(j for j in range(len(hset)) if j not in a)
            c = -math.inf if p == 1.0 else math.log2(len(a) * (1.0 - p) / p)
            # in the top member's typical band, and 1e6 bits out of it
            for size in (0.0, 1e6):
                base = -t * hset.rates[top] - size
                # a tiny lag survives only next to a likelihood of 0
                tiny = cls.TINY if base == 0.0 else ()
                lags = (0.0, -2e-16, -1e-15, -1e-9, *tiny)
                for gap, lag in itertools.product([*_near(c), 0.0, *tiny], lags):
                    ll = [base + gap + rest] * len(hset)
                    for i in a:
                        ll[i] = base + lag
                    ll[top] = base
                    ll[near] = base + gap
                    yield ll

    @staticmethod
    def edge_logliks(hset, groups, p, log_prior, t):
        """Likelihood vectors whose weights sum to ``largest`` / p or to a
        float within 4 ulps of it.  The top member leads a group a whose
        other members tie it, the members outside a but the nearest are
        ruled out or tie it, and the nearest one's likelihood is the least
        float that brings the sum up to the target."""
        largest = max(map(len, groups))
        targets = [largest / p]
        for _ in range(4):
            targets = [
                math.nextafter(targets[0], 0.0),
                *targets,
                math.nextafter(targets[-1], math.inf),
            ]

        def total(ll):
            scores = [lp + x for lp, x in zip(log_prior, ll)]
            top = max(scores)
            return math.fsum(2.0 ** (s - top) for s in scores)

        for a, rest in itertools.product(groups, (-math.inf, 0.0)):
            top, near = a[0], next(j for j in range(len(hset)) if j not in a)
            base = -t * hset.rates[top]
            ll = [base + rest] * len(hset)
            for i in a:
                ll[i] = base
            for target in targets:
                lo, hi = base - 64.0, base
                ll[near] = hi
                if log_prior[top] == -math.inf or total(ll) < target:
                    continue
                while (mid := (lo + hi) / 2) not in (lo, hi):
                    ll[near] = mid
                    lo, hi = (lo, mid) if total(ll) >= target else (mid, hi)
                ll[near] = hi
                yield list(ll)

    @pytest.mark.parametrize(
        "hset", SETS, ids=["1-1", "1-1-1", "2-1", "1-3", "2-1-zero", "k3-1-1-1-zero"]
    )
    def test_the_bound_never_changes_a_verdict(self, hset):
        groups = equivalence_groups(hset, 0.0)
        n = len(hset)
        # uniform, the last member at prior zero, and, at t = 0 alone,
        # uniform given as 0 bits each, under which the top scores 0
        priors = [[1 / n] * n, [1 / (n - 1)] * (n - 1) + [0.0]]
        times = (0, 1, 7, 10_000)
        log_priors = [(hset.log_prior(prior), times) for prior in priors]
        log_priors.append(((0.0,) * n, (0,)))
        checked = 0
        for p, (log_prior, ts) in itertools.product(self.LEVELS, log_priors):
            rules = [
                (
                    cfg,
                    samplex.bayes._stopping_rule(hset, cfg, log_prior),
                    stopping_rule_reference(hset, cfg, log_prior),
                )
                for cfg in (StoppingConfig(p=p), StoppingConfig(p=p, q=p / 2, r=0.01))
            ]
            for t in ts:
                lls = [
                    ll
                    for rest in (-math.inf, -0.5, 0.0)
                    for ll in self.logliks(hset, groups, p, t, rest)
                ]
                lls += self.edge_logliks(hset, groups, p, log_prior, t)
                for (cfg, rule, reference), ll in itertools.product(rules, lls):
                    assert rule(ll, t) == reference(ll, t), (p, log_prior, cfg, t, ll)
                    checked += 1
                dead = [-math.inf] * n
                for _, rule, reference in rules:
                    assert rule(dead, t) == reference(dead, t)
        assert checked > 10_000


def stopping_scenarios():
    """(ideal, hset, prior, cfg) stopping trials the library runs against
    its reference loops: iid sets over 2 and 3 symbols, memory-1 and
    memory-2 chains with each start, a chain ideal against iid members,
    p < 1 and p = 1, q > 0, eps_d > 0, r-caps, an ideal every member
    rules out, priors that decide at t = 0, and steps on both sides of
    the stopping rule's exit, largest group size / summed weights < p."""
    close = IidSpec.from_probs([0.4375, 0.5625])
    ones_only = IidSpec.from_probs([0.0, 1.0])
    zeros_only = IidSpec.from_probs([1.0, 0.0])
    sticky = m1(0.125, 0.875)
    flip = m1(0.75, 0.25)
    no_00 = m1(0.0, 0.5)  # never emits 0 right after a 0
    no_11 = m1(0.5, 1.0)  # never emits 1 right after a 1
    m2a = chain(2, (0.125, 0.625, 0.5, 0.875), ("context", (0, 1)))
    m2b = chain(2, (0.75, 0.25, 0.5, 0.125))
    # flip as a memory-2 chain, started from its stationary law
    lag2 = chain(2, (0.75, 0.25, 0.75, 0.25))
    return [
        (B5, PAIR, UNIFORM, StoppingConfig(p=0.9)),
        (B5, HypothesisSet((B9, B95)), UNIFORM, StoppingConfig(p=1.0, q=0.5)),
        (B9, PAIR, UNIFORM, StoppingConfig(p=0.8, q=0.25)),
        # r-caps: none, one and three observations
        (B5, PAIR, UNIFORM, StoppingConfig(p=0.9, r=1.0)),
        (B5, PAIR, UNIFORM, StoppingConfig(p=0.9, r=0.5)),
        (B5, PAIR, UNIFORM, StoppingConfig(p=0.99, r=0.125)),
        # the two near members form one group: partial identification
        (
            B5,
            HypothesisSet((B5, close, B9)),
            (0.25, 0.25, 0.5),
            StoppingConfig(p=0.9, eps_d=0.05),
        ),
        # p = 1 with zero-probability symbols: certainty is reachable
        (B5, HypothesisSet((B5, ones_only)), UNIFORM, StoppingConfig(p=1.0)),
        (ones_only, HypothesisSet((B5, ones_only)), UNIFORM, StoppingConfig(p=1.0)),
        # p < 1, and a member rules out the symbol the ideal never emits:
        # a zero count adds nothing to its likelihood (0 x -inf is nan)
        (ones_only, HypothesisSet((B5, ones_only)), UNIFORM, StoppingConfig(p=0.9)),
        (zeros_only, HypothesisSet((zeros_only, B9)), UNIFORM, StoppingConfig(p=0.9)),
        # the prior alone decides at t = 0
        (B5, PAIR, (0.95, 0.05), StoppingConfig(p=0.9)),
        (B5, PAIR, (1.0, 0.0), StoppingConfig(p=1.0)),
        # memory 1: stationary and fixed-context starts
        (sticky, HypothesisSet((sticky, flip)), UNIFORM, StoppingConfig(p=0.9)),
        # a memory-1 ideal against memoryless binary members: the count
        # path scores a chain's symbols
        (sticky, HypothesisSet((B5, close)), UNIFORM, StoppingConfig(p=0.9, q=0.2)),
        (
            m1(0.7, 0.4),
            HypothesisSet((m1(0.2, 0.9), m1(0.1, 0.6))),
            UNIFORM,
            StoppingConfig(p=1.0, q=0.7),
        ),
        (
            flip,
            HypothesisSet((sticky, m1(0.75, 0.25, ("context", (1,))))),
            UNIFORM,
            StoppingConfig(p=0.8, q=0.3),
        ),
        (no_00, HypothesisSet((no_00, no_11)), UNIFORM, StoppingConfig(p=1.0)),
        (sticky, HypothesisSet((sticky, flip)), (0.95, 0.05), StoppingConfig(p=0.9)),
        # memory 2, one member starting from a fixed context
        (m2a, HypothesisSet((m2a, m2b)), UNIFORM, StoppingConfig(p=0.9, q=0.2)),
        (m2b, HypothesisSet((m2a, m2b)), (0.3, 0.7), StoppingConfig(p=0.95, r=0.01)),
        # three symbols, memory 1: the hidden start mixes three contexts
        (K3_PAIR.members[0], K3_PAIR, UNIFORM, StoppingConfig(p=0.9, q=0.2)),
        # an ideal started from its stationary law (0.25, 0.75), which it draws
        (
            m1(0.625, 0.125),
            HypothesisSet((sticky, flip)),
            UNIFORM,
            StoppingConfig(p=0.9, q=0.2),
        ),
        # a 3-symbol ideal whose weights round to dyadic cells
        (
            IidSpec.from_probs([0.2, 0.3, 0.5]),
            THREE,
            UNIFORM,
            StoppingConfig(p=0.9, q=0.2),
        ),
        # memory 2, an ideal started from its stationary law
        (lag2, HypothesisSet((m2a, m2b)), UNIFORM, StoppingConfig(p=0.9, q=0.2)),
        # every member rules out the ideal's only symbol at t = 1
        (
            IidSpec.from_probs([0.0, 0.0, 1.0]),
            HypothesisSet((IidSpec.from_probs([1, 0, 0]), IidSpec.from_probs([0, 1, 0]))),
            UNIFORM,
            StoppingConfig(p=0.9),
        ),
        # both sides of the stopping rule's exit: singleton groups with
        # p just above 1/2 (steps skipped where the gap is wide)
        (B5, PAIR, UNIFORM, StoppingConfig(p=0.501)),
        # an eps_d pair group: at p = 0.6 <= 2/3 every step is weighed,
        # at p = 0.9 only steps whose weights sum to at most 2 / 0.9
        (B5, HypothesisSet((B5, close, B9)), THIRDS, StoppingConfig(p=0.6, eps_d=0.05)),
        (B9, HypothesisSet((B5, close, B9)), THIRDS, StoppingConfig(p=0.9, eps_d=0.05)),
        # a zero-prior member
        (B9, HypothesisSet((B5, B9, B95)), (0.5, 0.5, 0.0), StoppingConfig(p=0.9)),
        # p = 1 with a zero-probability entry beside full-support members
        # in different groups: neither is ever ruled out, so no step weighs
        (B9, HypothesisSet((B5, B9, ones_only)), THIRDS, StoppingConfig(p=1.0, q=0.3)),
        (APART.members[0], APART, THIRDS, StoppingConfig(p=1.0, q=0.3)),
    ]


class TestMCSampleComplexity:
    CFG = StoppingConfig(p=0.9)

    def test_same_seed_reproduces_exactly(self):
        a = mc_sample_complexity(B5, PAIR, UNIFORM, self.CFG, trials=150, seed=4)
        b = mc_sample_complexity(B5, PAIR, UNIFORM, self.CFG, trials=150, seed=4)
        assert a.dist.counts == b.dist.counts
        assert a.decisions == b.decisions

    def test_in_set_ideal_always_verifies(self):
        report = mc_sample_complexity(
            B5, PAIR, UNIFORM, self.CFG, trials=300, seed=4
        )
        assert report.decisions["Verified"] == 300
        assert report.dist.censored == 0

    def test_trial_loop_matches_the_oracle(self):
        self.check_against_the_oracle()

    def test_count_path_past_its_table_cap_matches_the_oracle(self, monkeypatch):
        # a cap of 200 cells keeps the first 200 cells a run weighs, so
        # later cells are weighed at every step that reaches them; the
        # cap binds when a run then asks the rule more often than uncapped
        uncapped = [report.decides for report in self.reports()]
        stores = []
        count_loop = samplex.bayes._count_loop

        def recorded(*args):
            trial = count_loop(*args)
            stores.append(inspect.getclosurevars(trial).nonlocals["verdicts"])
            return trial

        monkeypatch.setattr(samplex.bayes, "_TABLE_CELLS", 200)
        monkeypatch.setattr(samplex.bayes, "_count_loop", recorded)
        capped = self.check_against_the_oracle()
        assert all(c >= u for c, u in zip(capped, uncapped))
        assert any(c > u for c, u in zip(capped, uncapped))
        assert stores and max(map(len, stores)) == 200

    @staticmethod
    def runs():
        scenarios = list(enumerate(stopping_scenarios()))
        runs = [(n, sc, 300, 300) for n, sc in scenarios]
        # the r > 0 scenarios again at the library's default budget, where
        # the r-cap alone ends a trial
        default = samplex.bayes._DEFAULT_BUDGET
        runs += [(n, sc, None, default) for n, sc in scenarios if sc[3].r > 0.0]
        return runs

    def reports(self):
        return [
            mc_sample_complexity(*sc, trials=40, seed=31, max_steps=max_steps)
            for _n, sc, max_steps, _budget in self.runs()
        ]

    def check_against_the_oracle(self):
        """Check every run against the oracle; return each run's decides."""
        decides = []
        for (n, (ideal, hset, prior, cfg), _, budget), got in zip(
            self.runs(), self.reports()
        ):
            counts, decisions = mc_stopping_reference(
                ideal, hset, prior, cfg, trials=40, seed=31, max_steps=budget
            )
            assert dict(got.dist.counts) == counts, n
            # equal, and in the same key order
            assert list(got.decisions.items()) == list(decisions.items()), n
            assert got.dist.censored == decisions["Undetermined"], n
            decides.append(got.decides)
        return decides

    def test_reports_count_their_work(self):
        for n, (ideal, hset, prior, cfg) in enumerate(stopping_scenarios()):
            got = mc_sample_complexity(
                ideal, hset, prior, cfg, trials=40, seed=31, max_steps=300
            )
            want = mc_work_reference(
                ideal, hset, prior, cfg, trials=40, seed=31, max_steps=300
            )
            assert (got.symbols, got.fair_bits) == want, n
            # binary memoryless sets weigh each (t, n1) cell once, others
            # every step
            if hset.alphabet_size == 2 and hset.memory == 0:
                assert got.decides <= got.symbols, n
            else:
                assert got.decides == got.symbols, n

    def test_verdict_table_matches_weighing_every_step(self, monkeypatch):
        # random binary memoryless sets of 2-4 members, with zero-probability
        # symbols, zero priors, groups, q > 0 and r > 0, against iid and
        # chain ideals; a cap of 0 cells keeps no verdict, so the count
        # path then weighs every step
        rng = random.Random(15)
        weights = (0.0, 0.125, 0.25, 0.4375, 0.5, 0.5625, 0.75, 0.9, 1.0)

        def iid():
            return IidSpec.from_probs([(a := rng.choice(weights)), 1 - a])

        runs = []
        for _ in range(40):
            hset = HypothesisSet(tuple(iid() for _ in range(rng.randint(2, 4))))
            prior = [rng.choice((0.0, 1.0, 2.0, 3.0)) for _ in hset.members]
            prior[0] += 1.0
            prior = [w / sum(prior) for w in prior]
            cfg = StoppingConfig(
                p=rng.choice((0.6, 0.9, 0.99, 1.0)),
                q=rng.choice((0.0, 0.0, 0.2, 0.5)),
                eps_d=rng.choice((0.0, 0.0, 0.05)),
                r=rng.choice((0.0, 0.0, 0.01)),
            )
            ideal = iid() if rng.random() < 0.7 else m1(rng.random(), rng.random())
            runs.append((ideal, hset, prior, cfg))

        def reports():
            return [
                mc_sample_complexity(*run, trials=20, seed=n, max_steps=200)
                for n, run in enumerate(runs)
            ]

        tabled = reports()
        monkeypatch.setattr(samplex.bayes, "_TABLE_CELLS", 0)
        weighed = reports()
        for n, (a, b) in enumerate(zip(tabled, weighed)):
            assert dataclasses.replace(a, decides=0) == dataclasses.replace(b, decides=0), n
            assert a.decides <= b.decides == b.symbols, n
        # every status is reached, and the table spares most of the weighing
        assert all(sum(r.decisions[s.value] for r in tabled) for s in DecisionStatus)
        assert 2 * sum(r.decides for r in tabled) < sum(r.decides for r in weighed)

    def test_unreachable_certainty_censors_every_trial(self):
        report = mc_sample_complexity(
            B5, PAIR, UNIFORM, StoppingConfig(p=1.0), trials=5, seed=2, max_steps=400
        )
        assert report.dist.censored == 5
        assert report.decisions["Undetermined"] == 5

    def test_verified_decisions_are_mostly_correct(self):
        close = HypothesisSet((B5, IidSpec.from_probs([0.375, 0.625])))
        cfg = StoppingConfig(p=0.8)
        hits = 0
        total = 400
        report = mc_sample_complexity(B5, close, UNIFORM, cfg, trials=total, seed=77)
        assert report.decisions["Verified"] == total
        # rerun decisions to inspect which member each trial settled on
        # (the report binds group indices into the decision histogram only)
        correct = 0
        for i in range(total):
            src = BitSource(f"77:{i}")
            state = PosteriorState.from_prior(close, UNIFORM)
            while True:
                decision = check_stop(state, cfg)
                if decision.terminal:
                    break
                state = posterior_update(state, sample_discrete(B5, src))
            if decision.status is DecisionStatus.VERIFIED and decision.group == (0,):
                correct += 1
        floor = 0.8 - 3 * math.sqrt(0.8 * 0.2 / total)
        assert correct / total >= floor

    def test_posterior_concentrates_on_the_truth(self):
        early, late = [], []
        for i in range(150):
            src = BitSource(f"doob:{i}")
            state = PosteriorState.from_prior(PAIR, UNIFORM)
            for t in range(1, 41):
                state = posterior_update(state, sample_discrete(B5, src))
                if t == 5:
                    early.append(state.posterior()[0])
            late.append(state.posterior()[0])
        assert sum(late) / len(late) > sum(early) / len(early)
        assert sum(late) / len(late) > 0.95


class TestPosteriorTrace:
    @pytest.mark.parametrize("seed", (3, 31))
    def test_matches_the_state_by_state_trace(self, seed):
        scenarios = stopping_scenarios() + [
            # certainty is unreachable: the trace runs to its limit
            (B5, PAIR, UNIFORM, StoppingConfig(p=1.0)),
        ]
        for n, (ideal, hset, prior, cfg) in enumerate(scenarios):
            rows = posterior_trace(ideal, hset, prior, cfg, seed, 50)
            want = posterior_trace_reference(ideal, hset, prior, cfg, seed, 50)
            assert [[t, *probs] for t, probs in enumerate(rows)] == want, n

    def test_builds_the_stopping_rule_once(self, monkeypatch):
        built = 0
        rule = samplex.bayes._stopping_rule

        def counted(*args):
            nonlocal built
            built += 1
            return rule(*args)

        monkeypatch.setattr(samplex.bayes, "_stopping_rule", counted)
        rows = posterior_trace(B5, PAIR, UNIFORM, StoppingConfig(p=1.0), 3, 50)
        assert (len(rows), built) == (51, 1)
        built = 0
        posterior_trace_reference(B5, PAIR, UNIFORM, StoppingConfig(p=1.0), 3, 50)
        assert built == 50  # once before each symbol

    def test_refuses_an_ideal_over_another_alphabet(self):
        with pytest.raises(ValueError, match="emits 3 symbols"):
            posterior_trace(T3, PAIR, UNIFORM, StoppingConfig(p=0.9), 3, 50)


class TestSurprisalMoments:
    def test_singleton_set_has_zero_surprisal(self):
        lone = HypothesisSet((B5,))
        assert surprisal_moment(B5, lone, (1.0,), 6, 2) == 0.0

    def test_matches_direct_enumeration(self):
        prior = [Fraction(1, 2), Fraction(1, 2)]
        probs = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 10), Fraction(9, 10)]]
        for t in (1, 3, 6):
            for m in (1, 2, 3):
                got = surprisal_moment(B5, PAIR, UNIFORM, t, m)
                want = surprisal_moment_direct(prior, probs, 0, t, m)
                assert got == pytest.approx(want, rel=1e-9), (t, m)

    def test_refuses_oversized_enumeration(self, monkeypatch):
        monkeypatch.setattr(samplex.bayes, "_CLASS_LIMIT", 10)
        # compositions of t into three parts: 10 at t = 3, 15 at t = 4
        assert surprisal_moment(T3, THREE, UNIFORM, 3, 1) > 0.0
        with pytest.raises(ComputationRefused):
            surprisal_moment(T3, THREE, UNIFORM, 4, 1)

    def test_long_horizon_needs_only_the_class_limit(self):
        # 2**40 sequences, but only 41 classes: the all-zeros sequence
        # alone keeps iid(1, 0) alive, so E = 2^-t log2(1 + 2^t)
        zeros_only = IidSpec.from_probs([1.0, 0.0])
        t = 40
        got = surprisal_moment(B5, HypothesisSet((B5, zeros_only)), UNIFORM, t, 1)
        assert got == pytest.approx(2.0**-t * math.log2(1 + 2**t), rel=1e-9)

    def test_product_form_candidate_matches_only_the_mean(self):
        for t in (2, 5, 9):
            closed = surprisal_moment_product_form(B5, PAIR, UNIFORM, t, 1)
            exact = surprisal_moment(B5, PAIR, UNIFORM, t, 1)
            assert closed == pytest.approx(exact, abs=1e-9)
        closed2 = surprisal_moment_product_form(B5, PAIR, UNIFORM, 5, 2)
        exact2 = surprisal_moment(B5, PAIR, UNIFORM, 5, 2)
        assert abs(closed2 - exact2) > 0.5

    def test_mc_curve_agrees_with_enumeration(self):
        curve = mc_surprisal_moment_curve(
            B5, PAIR, UNIFORM, t_max=6, orders=(1, 2), sequences=4000, seed=9
        )
        assert set(curve) == {(t, m) for t in range(1, 7) for m in (1, 2)}
        for t, m in ((3, 1), (6, 2)):
            exact = surprisal_moment(B5, PAIR, UNIFORM, t, m)
            assert curve[(t, m)] == pytest.approx(exact, rel=0.1)

    def test_mc_curve_samples_a_duplicate_member_once(self):
        # the sampling mixture holds each distinct member once; with the
        # ideal listed twice the estimate must still match enumeration
        hset = HypothesisSet((B5, B9, B5))
        prior = (0.25, 0.5, 0.25)
        curve = mc_surprisal_moment_curve(
            B5, hset, prior, t_max=6, orders=(1, 2), sequences=4000, seed=9
        )
        for t, m in ((3, 1), (6, 2)):
            exact = surprisal_moment(B5, hset, prior, t, m)
            assert curve[(t, m)] == pytest.approx(exact, rel=0.1)

    def test_mc_curve_handles_three_symbols(self):
        curve = mc_surprisal_moment_curve(
            T3, THREE, UNIFORM, t_max=6, orders=(1, 2), sequences=4000, seed=9
        )
        for t in (3, 6):
            for m in (1, 2):
                exact = surprisal_moment(T3, THREE, UNIFORM, t, m)
                assert curve[(t, m)] == pytest.approx(exact, rel=0.1), (t, m)

    def test_mc_curve_is_seeded(self):
        a = mc_surprisal_moment_curve(B5, PAIR, UNIFORM, 4, (1,), 500, 3)
        b = mc_surprisal_moment_curve(B5, PAIR, UNIFORM, 4, (1,), 500, 3)
        assert a == b


class _Words:
    """A stand-in generator that hands out given 32-bit words the way
    CPython's Mersenne Twister hands out its own: ``random()`` reads two,
    ``getrandbits(32 k)`` reads k, first word least significant."""

    def __init__(self, words):
        self.words = list(words)

    def random(self):
        a, b = self.words.pop(0), self.words.pop(0)
        return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)

    def getrandbits(self, k):
        assert k % 32 == 0
        taken, self.words = self.words[: k // 32], self.words[k // 32 :]
        return sum(w << (32 * i) for i, w in enumerate(taken))


class _BlocksOnly(random.Random):
    """A Mersenne Twister that hands out its stream in ``getrandbits``
    blocks only, so every n, 0 and 1 included, must be read as one."""

    def random(self):
        raise AssertionError("a uniform read outside a getrandbits block")


def _words_of(u):
    """The two words whose ``random()`` is u (a multiple of 2^-53), with
    every bit that ``random()`` drops set."""
    v = int(u * 2**53)
    return [(v >> 26) << 5 | 0x1F, (v & (2**26 - 1)) << 6 | 0x3F]


def _random_law(k, seed):
    rng = random.Random(seed)
    weights = [rng.expovariate(1.0) for _ in range(k)]
    return tuple(w / sum(weights) for w in weights)


class TestDrawCounts:
    LAWS = [
        (0.5, 0.5),
        (0.25, 0.75),
        (0.3, 0.7),
        (1 / 3, 2 / 3),
        (2**-60, 1 - 2**-60),
        (1e-300, 1.0),
        (1 - 2**-53, 2**-53),
        (0.2, 0.0, 0.3, 0.0, 0.5),  # zero-probability symbols
        (0.1, 0.2, 0.7000000000000001, 0.0),  # partial sums reach 1.0
        (0.9, 0.1 + 2**-52, 0.0),  # partial sums pass 1.0
        *(_random_law(k, seed) for k in range(3, 9) for seed in (1, 2)),
        (1 / 300,) * 300,  # every top byte split
        (0.95,) + (0.05 / 299,) * 299,  # 299 outcomes resolved exactly
        (0.5 / 299,) * 299 + (0.5,),  # outcome 299 fills whole top bytes
    ]

    @pytest.mark.parametrize("probs", LAWS, ids=lambda probs: f"{len(probs)}-outcomes")
    @pytest.mark.parametrize("rng", (random.Random, _BlocksOnly), ids=("as-built", "block"))
    def test_matches_one_random_call_per_draw(self, probs, rng):
        cdf = samplex.bayes._InverseCdf(probs)
        cum = list(itertools.accumulate(probs[:-1]))
        for seed in (0, 1, 2):
            ours, theirs = rng(seed), random.Random(seed)
            for n in (0, 1, 2, 7, 255, 256, 4097, 10_000):
                want = draw_counts_reference(theirs, cum, n)
                assert samplex.bayes._draw_counts(ours, cdf, n) == want, (seed, n)
                assert ours.getstate() == theirs.getstate(), (seed, n)

    @pytest.mark.parametrize(
        "probs, edge",
        [
            ((0.5, 0.5), 0.5),  # on a top-byte boundary
            ((0.3125 + 2**-20, 0.6875 - 2**-20), 0.3125 + 2**-20),  # inside
            ((1 - 2**-53, 2**-53), 1 - 2**-53),  # the largest u
        ],
    )
    @pytest.mark.parametrize("n", (1, 2, 300))
    def test_a_uniform_on_a_partial_sum_takes_the_upper_outcome(
        self, probs, edge, n
    ):
        cdf = samplex.bayes._InverseCdf(probs)
        filler = _words_of(0.0)
        for i in sorted({0, n // 2, n - 1}):
            for u, want in ((edge, 1), (edge - 2**-53, 0)):
                words = filler * i + _words_of(u) + filler * (n - 1 - i)
                counts = [n - 1, 0]
                counts[want] += 1
                got = samplex.bayes._draw_counts(_Words(words), cdf, n)
                assert got == counts, (u, i)


def _walk(hset, prior, target, transform, t_max):
    log_prior = [math.log2(w) if w > 0.0 else -math.inf for w in prior]
    walk = samplex.bayes._posterior_surprisal_walk(
        hset, log_prior, target, transform
    )
    return [next(walk) for _ in range(t_max + 1)]


def _zero_cell_chain(rng, memory, k):
    """A seeded chain whose laws have zero cells, started from a random
    context (it may be reducible) or from its stationary law."""
    while True:
        laws = []
        for _ in range(k**memory):
            weights = [rng.choice((0, 0, 0, 1, 2)) for _ in range(k)]
            weights[rng.randrange(k)] += 1
            laws.append(IidSpec.from_probs([w / sum(weights) for w in weights]))
        if not memory:
            return laws[0]
        rows = dict(zip(itertools.product(range(k), repeat=memory), laws))
        if rng.random() < 0.5:
            return MarkovSpec(memory, rows, ("context", rng.choice(list(rows))))
        try:
            return MarkovSpec(memory, rows, ("stationary", None))
        except NonErgodicError:
            continue


def _crossing(curve, target):
    """Interpolated first crossing of a nonincreasing curve."""
    for t in range(1, len(curve)):
        if curve[t] <= target:
            return (t - 1) + (curve[t - 1] - target) / (curve[t - 1] - curve[t])
    raise AssertionError("curve does not reach the target")


class TestPosteriorSurprisalWalk:
    TRANSFORMS = ((lambda s: s), (lambda s: s * s))

    def check(self, hset, prior, target, t_max=8):
        for transform in self.TRANSFORMS:
            curve = _walk(hset, prior, target, transform, t_max)
            for t, got in enumerate(curve):
                want = posterior_surprisal_reference(hset, prior, target, t, transform)
                assert got == pytest.approx(want, rel=1e-9), (target, t)

    def test_binary_iid_with_a_deterministic_member(self):
        zeros_only = IidSpec.from_probs([1.0, 0.0])
        hset = HypothesisSet((B5, zeros_only, B9))
        self.check(hset, (0.25, 0.25, 0.5), 0)
        self.check(hset, (0.25, 0.25, 0.5), 1)
        # a confident prior on the wrong member
        self.check(HypothesisSet((B5, B9)), (0.05, 0.95), 0)

    def test_three_symbol_iid(self):
        hset = HypothesisSet(
            (
                IidSpec.from_probs([0.25, 0.25, 0.5]),
                IidSpec.from_probs([0.625, 0.25, 0.125]),
                IidSpec.from_probs([0.0, 0.5, 0.5]),
            )
        )
        self.check(hset, (0.3, 0.3, 0.4), 0)
        self.check(hset, (0.3, 0.3, 0.4), 2)

    def test_memory_one_with_every_start(self):
        hset = HypothesisSet(
            (
                m1(0.2, 0.9),
                m1(0.0, 0.6, ("context", (1,))),  # never a 0 after a 0
                m1(0.5, 0.5),
            )
        )
        for target in range(3):
            self.check(hset, (0.5, 0.25, 0.25), target)

    def test_memory_two(self):
        m2a = chain(2, (0.125, 0.625, 0.5, 0.875), ("context", (0, 1)))
        m2b = chain(2, (0.75, 0.25, 0.5, 0.125))
        self.check(HypothesisSet((m2a, m2b)), (0.4, 0.6), 1)

    def test_several_targets_in_one_pass(self):
        hset = HypothesisSet((B5, B9, IidSpec.from_probs([0.0, 1.0])))
        for target in range(3):
            self.check(hset, (0.5, 0.3, 0.2), target)
        chains = HypothesisSet((m1(0.2, 0.9), m1(0.1, 0.6)))
        for target in range(2):
            self.check(chains, (0.5, 0.5), target)

    def test_refuses_a_horizon_past_the_class_limit(self, monkeypatch):
        monkeypatch.setattr(samplex.bayes, "_CLASS_LIMIT", 10)
        three = HypothesisSet(
            (IidSpec.from_probs([0.25, 0.25, 0.5]), IidSpec.from_probs([0.5, 0.25, 0.25]))
        )
        # compositions of t into three parts: 10 at t = 3, 15 at t = 4
        assert len(_walk(three, UNIFORM, 0, lambda s: s, 3)) == 4
        with pytest.raises(ComputationRefused):
            _walk(three, UNIFORM, 0, lambda s: s, 4)


class TestExpectedSampleComplexity:
    def test_pinned_crossing(self):
        est = expected_sc_evaluator(B5, PAIR, UNIFORM, 0.9)
        assert est.value == pytest.approx(13.905391109770717)
        assert est.method == "enumeration"
        assert est.smallest_t == 14

    def test_the_step_budget_leaves_the_exact_walk_whole(self):
        # 10**7 sequences may take 5 Monte Carlo steps; the exact walk
        # draws none and still crosses at t = 14
        est = expected_sc_evaluator(B5, PAIR, UNIFORM, 0.9, sequences=10**7)
        assert (est.method, est.smallest_t) == ("enumeration", 14)

    def test_confident_prior_needs_no_observations(self):
        est = expected_sc_evaluator(B5, PAIR, (0.95, 0.05), 0.9)
        assert est.value == 0.0
        assert est.method == "prior-threshold"

    def test_duplicate_members_make_certainty_unreachable(self):
        twins = HypothesisSet((B5, B5))
        est = expected_sc_evaluator(B5, twins, UNIFORM, 0.9)
        assert est.value == math.inf
        assert est.method == "unreachable-threshold"
        assert est.smallest_t is None

    def test_symmetric_pair_is_indifferent_to_the_true_side(self):
        pair = HypothesisSet((MIRROR, B9))
        a = expected_sc_evaluator(MIRROR, pair, UNIFORM, 0.9)
        b = expected_sc_evaluator(B9, pair, UNIFORM, 0.9)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    @pytest.mark.parametrize(
        "ideal, other, method",
        [
            (B5, IidSpec.from_probs([0.25, 0.75]), "unreachable-threshold"),
            (B5, IidSpec.from_probs([0.0, 1.0]), "unreachable-threshold"),
            (IidSpec.from_probs([0.0, 1.0]), B5, "unreachable-threshold"),
            (
                IidSpec.from_probs([0.5, 0.5, 0.0]),
                IidSpec.from_probs([0.0, 0.0, 1.0]),
                "enumeration",
            ),
        ],
    )
    def test_certainty_comes_at_the_first_symbol_or_never(self, ideal, other, method):
        # p = 1 over memoryless members: a live alternative that gives
        # mass to a symbol the ideal emits survives that symbol's
        # constant run forever, so horizon 1 decides
        est = expected_sc_evaluator(ideal, HypothesisSet((ideal, other)), UNIFORM, 1.0)
        assert est.method == method
        if method == "enumeration":
            assert (est.value, est.smallest_t) == (1.0, 1)
        else:
            assert (est.value, est.smallest_t) == (math.inf, None)

    def test_a_chain_with_no_zero_transition_makes_certainty_unreachable(self):
        # every sequence keeps a positive likelihood under the other chain
        sticky, flip = m1(0.125, 0.875), m1(0.75, 0.25)
        est = expected_sc_evaluator(sticky, HypothesisSet((sticky, flip)), UNIFORM, 1.0)
        assert (est.value, est.method, est.smallest_t) == (
            math.inf, "unreachable-threshold", None
        )

    def test_a_chain_sharing_a_cycle_makes_certainty_unreachable(self):
        # the other chain forbids "00", but both give the all-ones run
        # positive mass (P(1|1) = 0.875 and 0.5), so it is never ruled out
        sticky, no_00 = m1(0.125, 0.875), m1(0.0, 0.5)
        est = expected_sc_evaluator(sticky, HypothesisSet((sticky, no_00)), UNIFORM, 1.0)
        assert (est.value, est.method, est.smallest_t) == (
            math.inf, "unreachable-threshold", None
        )

    def test_chains_ruled_out_at_certainty_take_the_exact_walk(self):
        # the rotations 0->1->2->0 and 0->2->1->0 share no step, so the
        # second symbol rules the other out; past the exact horizon the
        # chain curve is refused
        rotations = [
            MarkovSpec(
                1,
                {(c,): IidSpec.from_probs([float(s == (c + d) % 3) for s in range(3)])
                 for c in range(3)},
                ("stationary", None),
            )
            for d in (1, 2)
        ]
        hset = HypothesisSet(tuple(rotations))
        est = expected_sc_evaluator(rotations[0], hset, UNIFORM, 1.0)
        assert (est.value, est.method) == (2.0, "enumeration")
        with pytest.raises(ComputationRefused):
            expected_sc_evaluator(rotations[0], hset, UNIFORM, 1.0, exact_t_max=1)

    @pytest.mark.parametrize("memory, k", [(m, k) for m in (0, 1, 2) for k in (2, 3)])
    def test_never_ruled_out_is_a_shared_long_block(self, memory, k):
        # past its first memory symbols a block of memory + contexts + 1
        # symbols visits some context twice, so one that both laws give
        # mass closes a shared cycle, and a shared cycle gives such blocks
        rng = random.Random(f"never:{memory}:{k}")
        length = memory + k**memory + 1
        seen = set()
        for _ in range(60):
            ideal, member = _zero_cell_chain(rng, memory, k), _zero_cell_chain(rng, memory, k)
            shared = block_distribution(ideal, length).keys() & block_distribution(member, length).keys()
            never = samplex.bayes._never_ruled_out(ideal, member)
            assert never == bool(shared), (ideal, member)
            seen.add(never)
        assert seen == {False, True}

    def test_estimate_serializes(self):
        est = expected_sc_evaluator(B5, PAIR, UNIFORM, 0.9)
        data = est.to_json()
        assert set(data) == {"value", "method", "ci", "smallest_t"}

    def test_zero_probability_member_gives_the_closed_form(self):
        # only the all-zeros sequence keeps iid(1, 0) alive, so
        # E_t = 2^-t log2(1 + 2^t)
        zeros_only = IidSpec.from_probs([1.0, 0.0])
        est = expected_sc_evaluator(
            B5, HypothesisSet((B5, zeros_only)), UNIFORM, 0.9
        )
        curve = [2.0**-t * math.log2(1 + 2**t) for t in range(10)]
        assert est.method == "enumeration"
        assert est.value == pytest.approx(_crossing(curve, -math.log2(0.9)), rel=1e-12)
        assert est.value == pytest.approx(5.088675105002863, rel=1e-12)

    def test_three_symbol_pair_matches_the_multinomial_sum(self):
        ideal = (0.25, 0.25, 0.5)
        other = (0.625, 0.25, 0.125)

        def expected_surprisal(t):
            total = 0.0
            for a in range(t + 1):
                for b in range(t + 1 - a):
                    c = t - a - b
                    ways = math.factorial(t) // (
                        math.factorial(a) * math.factorial(b) * math.factorial(c)
                    )
                    p = ideal[0] ** a * ideal[1] ** b * ideal[2] ** c
                    q = other[0] ** a * other[1] ** b * other[2] ** c
                    total += ways * p * math.log2(1 + q / p)
            return total

        spec = IidSpec.from_probs(ideal)
        hset = HypothesisSet((spec, IidSpec.from_probs(other)))
        est = expected_sc_evaluator(spec, hset, UNIFORM, 0.9)
        curve = [expected_surprisal(t) for t in range(17)]
        assert est.method == "enumeration"
        assert est.value == pytest.approx(_crossing(curve, -math.log2(0.9)), rel=1e-12)
        assert est.value == pytest.approx(13.833133838285546, rel=1e-12)

    def test_hands_over_to_monte_carlo_at_the_class_limit(self, monkeypatch):
        # the exact walk is refused at t = 4 (15 classes), far short of
        # the crossing that test_three_symbol_pair_matches_the_multinomial_sum
        # pins; the slack keeps a 95% interval from failing one seed in twenty
        monkeypatch.setattr(samplex.bayes, "_CLASS_LIMIT", 10)
        est = expected_sc_evaluator(T3, THREE, UNIFORM, 0.9)
        assert est.method == "monte-carlo"
        lo, hi = est.ci
        assert lo < est.value < hi < math.inf
        slack = 0.5
        assert lo - slack <= 13.833133838285546 <= hi + slack

    def test_scan_stops_at_the_first_upper_crossing(self):
        def curve(points):
            yield from points
            raise AssertionError("read past the first upper crossing")

        scan = samplex.bayes._scan_crossing
        exact = [(1.0, None), (0.5, None), (0.05, None)]
        # the caller decides t = 0: a curve that ends there has not
        # crossed, and a t = 0 value at the target anchors a crossing at 0
        assert scan(1.0, iter(exact[:1])).method.startswith("not-converged")
        assert scan(1.0, curve(exact[:2])) == samplex.bayes.SCEstimate(0.0, "enumeration", None, 1)
        est = scan(0.1, curve(exact))
        assert (est.value, est.method, est.smallest_t) == (1 + 0.4 / 0.45, "enumeration", 2)
        # Monte Carlo from t = 1 on with se 0.1: the mean crosses 0.1 at
        # t = 2, mean - 1.96 se at t = 2, mean + 1.96 se only at t = 4
        mc = [(1.0, None), (0.5, 0.1), (0.05, 0.1), (0.0, 0.1), (-0.2, 0.1)]
        est = scan(0.1, curve(mc))
        assert est.method == "monte-carlo"
        assert est.value == pytest.approx(1 + 0.4 / 0.45)
        assert est.ci == pytest.approx((1 + 0.204 / 0.45, 3 + 0.096 / 0.2))
        assert scan(0.1, iter(mc[:3])).ci[1] == math.inf  # the curve ended

    @pytest.mark.parametrize(
        "members, prior, p, expected",
        [
            # exactly normalized, the prior lies 1.1e-16 below p; its
            # rounded t = 0 value reaches the target
            (
                (B5, B9, B3),
                (0.4999999999999999, 0.2618937853250653, 0.2381062146749348),
                0.5,
                (0.0, "enumeration", 1),
            ),
            (
                (B5, B9, B3),
                (0.3333333333333332, 0.1790799614937789, 0.4875867051728878),
                0.3333333333333333,
                (0.0, "enumeration", 1),
            ),
            # the raw prior reaches p; normalized by its sum it does not
            ((B5, B9), (0.9000000000001, 0.1000000000004), 0.9, (None, "enumeration", 1)),
            # the raw prior lies below p; normalized by its sum it reaches p
            ((B5, B9), (0.8999999999999, 0.0999999999995), 0.9, (0.0, "prior-threshold", 0)),
        ],
        ids=["halves", "thirds", "raw-above", "raw-below"],
    )
    def test_t_zero_is_decided_exactly(self, members, prior, p, expected):
        est = expected_sc_evaluator(B5, HypothesisSet(members), prior, p)
        value, method, t = expected
        assert (est.method, est.ci, est.smallest_t) == (method, None, t)
        if value is None:
            assert 0.0 < est.value <= 1.0
        else:
            assert est.value == value
        normalized = Fraction(prior[0]) / sum(map(Fraction, prior))
        assert (normalized >= Fraction(p)) == (t == 0)

    def test_the_first_monte_carlo_horizon_is_not_exact(self):
        # exact values to t = 1, Monte Carlo from t = 2 on: a crossing at
        # t = 2 interpolates from the exact t = 1 value but is Monte Carlo
        scan = samplex.bayes._scan_crossing
        curve = [(1.0, None), (0.5, None), (0.05, 0.01)]
        est = scan(0.1, iter(curve))
        assert (est.value, est.method, est.smallest_t) == (
            1 + 0.4 / 0.45, "monte-carlo", 2
        )
        assert est.ci == pytest.approx((1 + 0.4 / 0.4696, 1 + 0.4 / 0.4304))
        assert scan(0.1, iter(curve[:2])).method.startswith("not-converged")

    @pytest.mark.parametrize("target", (0, 1))
    def test_mc_curve_tracks_the_exact_curve(self, target):
        # at every horizon the Monte Carlo mean lies within 4.5 exact
        # standard errors sqrt(Var / sequences) of the exact mean, and its
        # own standard error within half of the exact one (the surprisal
        # is heavy-tailed: 40 seeds per member gave |z| <= 3.8 and errors <= 32%)
        sequences = 4000
        mean = _walk(PAIR, UNIFORM, target, lambda s: s, 20)
        square = _walk(PAIR, UNIFORM, target, lambda s: s * s, 20)
        curve = samplex.bayes._surprisal_curve(
            PAIR, (-1.0, -1.0), target, 0, sequences, 5
        )
        assert next(curve) == (mean[0], None)
        for t, (value, se) in enumerate(itertools.islice(curve, 20), 1):
            exact_se = math.sqrt((square[t] - mean[t] ** 2) / sequences)
            assert abs(value - mean[t]) <= 4.5 * exact_se, t
            assert se == pytest.approx(exact_se, rel=0.5), t

    @pytest.mark.parametrize("sequences", (-5, 0, 1))
    def test_a_standard_error_needs_two_sequences(self, sequences):
        # fair coin vs iid(.3,.7) crosses near t = 71, past the exact walk
        pair = HypothesisSet((B5, IidSpec.from_probs([0.3, 0.7])))
        with pytest.raises(ValueError, match="sequences"):
            expected_sc_evaluator(B5, pair, UNIFORM, 0.9, sequences=sequences)

    @pytest.mark.parametrize("sequences", (-5, 0))
    def test_the_moment_curve_needs_a_sequence(self, sequences):
        with pytest.raises(ValueError, match="sequence"):
            mc_surprisal_moment_curve(B5, PAIR, UNIFORM, 3, (1,), sequences, 1)

    def test_mc_extension_brackets_the_analytic_value(self):
        est = expected_sc_evaluator(
            B5, PAIR, UNIFORM, 0.9, sequences=4000, seed=7, exact_t_max=0
        )
        assert est.method == "monte-carlo"
        assert est.ci is not None
        lo, hi = est.ci
        slack = 0.5
        assert lo - slack <= 13.905391109770717 <= hi + slack


def _eighths(rng: random.Random, n: int) -> list[Fraction]:
    """n multiples of 1/8, zeros allowed, that sum to 1."""
    cuts = sorted(rng.randint(0, 8) for _ in range(n - 1))
    return [Fraction(b - a, 8) for a, b in zip([0, *cuts], [*cuts, 8])]


def _ceiling_cases() -> list[tuple]:
    """Seeded memoryless sets of 2 or 3 symbols, with zero cells, twins
    of the ideal and priors in eighths, each at a level p below, at and
    above the ideal's posterior ceiling, where such a level lies above
    the ideal's prior (a prior at p takes the prior-threshold exit)."""

    def law(rng, k, free):
        """A law in eighths on the symbols ``free``, zero elsewhere."""
        spread = dict(zip(free, _eighths(rng, len(free))))
        return IidSpec.from_probs([spread.get(s, 0) for s in range(k)])

    cases = []
    for seed in range(16):
        rng = random.Random(f"ceiling:{seed}")
        k = 2 + seed % 2
        ideal = law(rng, k, rng.sample(range(k), k - seed // 2 % 2))
        free = [s for s, q in enumerate(ideal.dist.probs) if q == 0.0] or list(range(k))
        # a twin in every fourth set, then each a twin, a law on the
        # symbols the ideal never emits, or any law
        members = [ideal] * (1 + (seed % 4 == 3)) + [
            rng.choice((ideal, law(rng, k, free), law(rng, k, range(k))))
            for _ in range(1 + seed % 3)
        ]
        rng.shuffle(members)
        weights = _eighths(rng, len(members))
        floor = weights[members.index(ideal)]
        twins = sum(w for m, w in zip(members, weights) if m == ideal)
        ceiling = floor / twins if twins else Fraction(0)
        levels = [
            ("above", (floor + ceiling) / 2),
            ("below", (ceiling + 1) / 2),
            ("below", Fraction(1)),
        ]
        if ceiling.denominator & (ceiling.denominator - 1) == 0:
            levels.append(("at", ceiling))  # a float exactly
        prior = tuple(float(w) for w in weights)
        for where, level in levels:
            if (where == "below") == (ceiling < level) and level > floor:
                case = (where, ideal, HypothesisSet(tuple(members)), prior, float(level))
                cases.append(case)
    return cases


CEILING_CASES = _ceiling_cases()


class TestPosteriorCeiling:
    """``expected_sc_evaluator`` compares the ideal's posterior ceiling
    with p exactly; each verdict is checked against the brute-force
    expected surprisal E_t of ``posterior_surprisal_reference`` for
    t <= 8, as its excess over -log2 p (a sum of terms that are 0 on
    sequences at the ceiling)."""

    @staticmethod
    def excess(ideal, hset, prior, p, t):
        idx = hset.members.index(ideal)
        target = -math.log2(p)
        return posterior_surprisal_reference(hset, prior, idx, t, lambda s: s - target)

    def check(self, where, ideal, hset, prior, p):
        est = expected_sc_evaluator(ideal, hset, prior, p, sequences=200, exact_t_max=8)
        if where == "above":
            # the curve is walked as before the ceiling rule
            idx = hset.members.index(ideal)
            curve = samplex.bayes._surprisal_curve(
                hset, hset.log_prior(prior), idx, 8, 200, 7
            )
            walked = samplex.bayes._scan_crossing(-math.log2(p), curve)
            assert est == walked
            if est.method == "enumeration":
                t = est.smallest_t
                assert self.excess(ideal, hset, prior, p, t - 1) > 0.0
                assert self.excess(ideal, hset, prior, p, t) <= 0.0
            return est
        # E_0 = -log2 prior exceeds -log2 p, or the prior-threshold exit
        # would have answered; the reference may round it to -log2 p
        assert prior[hset.members.index(ideal)] < p
        if est.method == "unreachable-threshold":
            assert (est.value, est.ci, est.smallest_t) == (math.inf, None, None)
            for t in range(1, 9):
                assert self.excess(ideal, hset, prior, p, t) > 0.0, t
        else:
            assert where == "at"
            assert est == samplex.bayes.SCEstimate(1.0, "enumeration", None, 1)
            assert self.excess(ideal, hset, prior, p, 1) == pytest.approx(0.0, abs=1e-15)
        return est

    @pytest.mark.parametrize("case", CEILING_CASES)
    def test_seeded_sets(self, case):
        self.check(*case)

    def test_the_seeded_sets_reach_every_verdict(self):
        seen = {
            (where, p == 1.0, expected_sc_evaluator(ideal, hset, prior, p).method)
            for where, ideal, hset, prior, p in CEILING_CASES
            if where != "above"
        }
        assert {
            ("below", True, "unreachable-threshold"),
            ("at", True, "unreachable-threshold"),
            ("at", True, "enumeration"),
            ("at", False, "unreachable-threshold"),
            ("at", False, "enumeration"),
        } <= seen

    def test_a_prior_one_ulp_short_of_certainty(self):
        # B9 stays live on every sequence, though its posterior rounds
        # to 0 at t = 0: the ceiling is 1 = p, not the prior-threshold
        est = self.check("at", B5, PAIR, (1 - 2**-53, 2**-53), 1.0)
        assert est.method == "unreachable-threshold"

    def test_a_twin_at_the_boundary(self):
        # member 0's posterior 0.25 L5 / (0.5 L5 + 0.5 L9) stays below 1/2
        trio = HypothesisSet((B5, B5, B9))
        est = self.check("at", B5, trio, (0.25, 0.25, 0.5), 0.5)
        assert est.method == "unreachable-threshold"
