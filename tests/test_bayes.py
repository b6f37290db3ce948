"""Unit tests for posterior tracking, stopping rules, and their analytics."""

from __future__ import annotations

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
    PosteriorState,
    StoppingConfig,
    TypicalityRegion,
    check_stop,
    divergence_rate,
    equivalence_groups,
    expected_sc_evaluator,
    expected_sc_predictive,
    falsification_bounds,
    hypothesis_count_bound,
    markov_sample,
    mc_sample_complexity,
    mc_surprisal_moment_curve,
    posterior_predictive,
    posterior_update,
    sample_discrete,
    surprisal_moment,
    typical_membership,
    typical_set_bounds,
    warmup_threshold,
)

from oracles import (
    hand_posterior,
    mc_stopping_reference,
    posterior_surprisal_reference,
    surprisal_moment_direct,
    surprisal_moment_product_form,
)

B5 = IidSpec.from_probs([0.5, 0.5])
B9 = IidSpec.from_probs([0.1, 0.9])  # emits 1 with probability 0.9
B95 = IidSpec.from_probs([0.05, 0.95])
MIRROR = IidSpec.from_probs([0.9, 0.1])
PAIR = HypothesisSet((B5, B9))
UNIFORM = (0.5, 0.5)
T3 = IidSpec.from_probs([0.25, 0.25, 0.5])
THREE = HypothesisSet((T3, IidSpec.from_probs([0.625, 0.25, 0.125])))


def chain(memory, zeros, init=("stationary", None)):
    """Binary chain; zeros[j] is the probability of a 0 after the j-th
    context in lexicographic order."""
    ctxs = [(0,), (1,)] if memory == 1 else [(0, 0), (0, 1), (1, 0), (1, 1)]
    rows = {c: IidSpec.from_probs([a, 1 - a]) for c, a in zip(ctxs, zeros)}
    return MarkovSpec(memory, rows, init)


def m1(a, b, init=("stationary", None)):
    return chain(1, (a, b), init)


def run_posterior(hset, prior, observations):
    state = PosteriorState.from_prior(hset, prior)
    for sym in observations:
        state = posterior_update(state, sym)
    return state


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

    def test_labels_must_match_members(self):
        with pytest.raises(ValueError):
            HypothesisSet((B5, B9), labels=("only-one",))

    def test_rates(self):
        rates = HypothesisSet((B5, B9)).rates()
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(0.4689955935892812)

    def test_identical_pairs_reported(self):
        trio = HypothesisSet((B5, B5, B9))
        assert trio.observationally_identical_pairs() == ((0, 1),)


class TestEquivalenceGroups:
    def test_exact_duplicates_merge_at_zero_tolerance(self):
        trio = HypothesisSet((B5, B5, B9))
        assert equivalence_groups(trio, 0.0) == ((0, 1), (2,))

    def test_generous_tolerance_merges_everything(self):
        trio = HypothesisSet((B5, B5, B9))
        assert equivalence_groups(trio, 0.75) == ((0, 1, 2),)

    def test_distinct_members_stay_apart(self):
        assert equivalence_groups(PAIR, 0.0) == ((0,), (1,))


class TestPosterior:
    CERTAIN_ONE = IidSpec.from_probs([0.0, 1.0])

    def test_pinned_two_member_update(self):
        hset = HypothesisSet((B5, self.CERTAIN_ONE))
        state = run_posterior(hset, UNIFORM, (1,))
        assert state.posterior().probs == pytest.approx((1 / 3, 2 / 3))
        assert posterior_predictive(state).probs == pytest.approx((1 / 6, 5 / 6))

    def test_contradiction_eliminates_a_member(self):
        hset = HypothesisSet((B5, self.CERTAIN_ONE))
        state = run_posterior(hset, UNIFORM, (1, 0))
        assert state.posterior().probs == pytest.approx((1.0, 0.0))
        assert not state.all_falsified

    def test_all_falsified_is_terminal(self):
        hset = HypothesisSet((self.CERTAIN_ONE, IidSpec.from_probs([1.0, 0.0])))
        state = run_posterior(hset, UNIFORM, (1, 0))
        assert state.all_falsified
        decision = check_stop(state, StoppingConfig(p=0.9), observations=(1, 0))
        assert decision.status is DecisionStatus.FALSIFIED
        assert decision.terminal
        assert decision.group == ()
        with pytest.raises(ValueError):
            posterior_predictive(state)

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

    def test_prior_must_match_and_normalize(self):
        with pytest.raises(ValueError):
            PosteriorState.from_prior(PAIR, (0.5, 0.25, 0.25))
        with pytest.raises(ValueError):
            PosteriorState.from_prior(PAIR, (0.9, 0.2))


class TestTypicality:
    def test_pinned_bounds(self):
        assert typical_set_bounds(B5, 4, 0.5) == pytest.approx((0.03125, 0.125))

    def test_bounds_need_observations(self):
        with pytest.raises(ValueError):
            typical_set_bounds(B5, 0, 0.5)

    def test_fair_sequences_are_always_typical(self):
        assert typical_membership(B5, (0, 1, 1, 0), 0.5) is TypicalityRegion.TYPICAL

    def test_improbable_region(self):
        assert (
            typical_membership(B9, (0,) * 12, 0.5)
            is TypicalityRegion.ATYPICAL_IMPROBABLE
        )

    def test_probable_region(self):
        assert (
            typical_membership(B9, (1,) * 12, 0.9)
            is TypicalityRegion.ATYPICAL_PROBABLE
        )

    def test_warmup_pinned_and_early_queries_warn(self):
        assert warmup_threshold(1.0, 0.5) == 2
        with pytest.warns(UserWarning):
            region = typical_membership(B5, (1,), 0.5)
        assert region is TypicalityRegion.UNDETERMINED


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

    def test_observation_count_must_match_state(self):
        state = run_posterior(PAIR, UNIFORM, (1,))
        with pytest.raises(ValueError):
            check_stop(state, StoppingConfig(p=0.9), observations=(1, 0))

    def test_pinned_threshold_cases(self):
        hset = HypothesisSet((B5, IidSpec.from_probs([0.0, 1.0])))
        state = run_posterior(hset, UNIFORM, (1,))
        eager = check_stop(state, StoppingConfig(p=0.6), observations=(1,))
        assert eager.status is DecisionStatus.VERIFIED
        assert eager.group == (1,)
        assert eager.terminal
        patient = check_stop(state, StoppingConfig(p=0.9), observations=(1,))
        assert patient.status is DecisionStatus.UNDETERMINED
        assert not patient.terminal

    def test_confident_prior_verifies_before_any_observation(self):
        state = PosteriorState.from_prior(PAIR, (0.95, 0.05))
        decision = check_stop(state, StoppingConfig(p=0.9), observations=())
        assert decision.status is DecisionStatus.VERIFIED
        assert decision.t == 0
        assert decision.terminal

    def test_resolution_cap_forces_a_terminal_undetermined(self):
        state = run_posterior(PAIR, UNIFORM, (1, 1))
        decision = check_stop(
            state, StoppingConfig(p=0.999999, r=0.25), observations=(1, 1)
        )
        assert decision.status is DecisionStatus.UNDETERMINED
        assert decision.terminal
        assert decision.t == 2

    def test_identical_members_partially_identify(self):
        twins = HypothesisSet((B5, B5))
        state = run_posterior(twins, UNIFORM, (1,))
        decision = check_stop(state, StoppingConfig(p=0.9), observations=(1,))
        assert decision.status is DecisionStatus.PARTIALLY_IDENTIFIED
        assert decision.group == (0, 1)
        assert decision.terminal

    def test_misspecified_data_falsifies_the_whole_set(self):
        strangers = HypothesisSet((B9, B95))
        state = PosteriorState.from_prior(strangers, UNIFORM)
        obs = []
        decision = None
        for _ in range(50):
            state = posterior_update(state, 0)
            obs.append(0)
            decision = check_stop(
                state, StoppingConfig(p=1.0, q=0.5), observations=tuple(obs)
            )
            if decision.terminal:
                break
        assert decision is not None
        assert decision.status is DecisionStatus.FALSIFIED
        assert decision.terminal

    def test_decision_serializes(self):
        state = run_posterior(PAIR, UNIFORM, ())
        decision = check_stop(state, StoppingConfig(p=0.9), observations=())
        data = decision.to_json()
        assert data["status"] == "Undetermined"
        assert data["t"] == 0


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
        close = IidSpec.from_probs([0.4375, 0.5625])
        ones_only = IidSpec.from_probs([0.0, 1.0])
        sticky = m1(0.125, 0.875)
        flip = m1(0.75, 0.25)
        no_00 = m1(0.0, 0.5)  # never emits 0 right after a 0
        no_11 = m1(0.5, 1.0)  # never emits 1 right after a 1
        m2a = chain(2, (0.125, 0.625, 0.5, 0.875), ("context", (0, 1)))
        m2b = chain(2, (0.75, 0.25, 0.5, 0.125))
        scenarios = [
            (B5, PAIR, UNIFORM, self.CFG),
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
            # the prior alone decides at t = 0
            (B5, PAIR, (0.95, 0.05), self.CFG),
            (B5, PAIR, (1.0, 0.0), StoppingConfig(p=1.0)),
            # memory 1: stationary and fixed-context starts
            (sticky, HypothesisSet((sticky, flip)), UNIFORM, self.CFG),
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
            (sticky, HypothesisSet((sticky, flip)), (0.95, 0.05), self.CFG),
            # memory 2, one member starting from a fixed context
            (m2a, HypothesisSet((m2a, m2b)), UNIFORM, StoppingConfig(p=0.9, q=0.2)),
            (m2b, HypothesisSet((m2a, m2b)), (0.3, 0.7), StoppingConfig(p=0.95, r=0.01)),
        ]
        for n, (ideal, hset, prior, cfg) in enumerate(scenarios):
            got = mc_sample_complexity(
                ideal, hset, prior, cfg, trials=40, seed=31, max_steps=300
            )
            counts, decisions = mc_stopping_reference(
                ideal, hset, prior, cfg, trials=40, seed=31, max_steps=300
            )
            assert dict(got.dist.counts) == counts, n
            assert got.decisions == decisions, n
            assert got.dist.censored == decisions["Undetermined"], n

    def test_trial_sampler_draws_what_markov_sample_draws(self):
        skewed = (0.125, 0.625, 0.5, 0.875)
        # a start distribution must be stationary: uniform for a fair chain
        starts = (
            (skewed, ("stationary", None)),
            (skewed, ("context", (1, 0))),
            ((0.5, 0.5, 0.5, 0.5), ("distribution", (0.25, 0.25, 0.25, 0.25))),
        )
        for zeros, init in starts:
            spec = chain(2, zeros, init)
            for seed in range(5):
                sampler = samplex.bayes._IdealSampler(spec, BitSource(seed))
                steps = tuple(sampler.step() for _ in range(30))
                assert steps == markov_sample(spec, 30, BitSource(seed)), init

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
            obs: list[int] = []
            while True:
                decision = check_stop(state, cfg, observations=tuple(obs))
                if decision.terminal:
                    break
                sym = sample_discrete(B5, src)
                obs.append(sym)
                state = posterior_update(state, sym)
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


def _walk(hset, prior, targets, transform, t_max):
    log_prior = [math.log2(w) if w > 0.0 else -math.inf for w in prior]
    walk = samplex.bayes._posterior_surprisal_walk(
        hset, log_prior, targets, transform
    )
    return [next(walk) for _ in range(t_max + 1)]


def _crossing(curve, target):
    """Interpolated first crossing of a nonincreasing curve."""
    for t in range(1, len(curve)):
        if curve[t] <= target:
            return (t - 1) + (curve[t - 1] - target) / (curve[t - 1] - curve[t])
    raise AssertionError("curve does not reach the target")


class TestPosteriorSurprisalWalk:
    TRANSFORMS = ((lambda s: s), (lambda s: s * s))

    def check(self, hset, prior, targets, t_max=8):
        for transform in self.TRANSFORMS:
            curve = _walk(hset, prior, targets, transform, t_max)
            for t, values in enumerate(curve):
                for target, got in zip(targets, values):
                    want = posterior_surprisal_reference(
                        hset, prior, target, t, transform
                    )
                    assert got == pytest.approx(want, rel=1e-9), (target, t)

    def test_binary_iid_with_a_deterministic_member(self):
        zeros_only = IidSpec.from_probs([1.0, 0.0])
        hset = HypothesisSet((B5, zeros_only, B9))
        self.check(hset, (0.25, 0.25, 0.5), (0,))
        self.check(hset, (0.25, 0.25, 0.5), (1,))
        # a confident prior on the wrong member
        self.check(HypothesisSet((B5, B9)), (0.05, 0.95), (0,))

    def test_three_symbol_iid(self):
        hset = HypothesisSet(
            (
                IidSpec.from_probs([0.25, 0.25, 0.5]),
                IidSpec.from_probs([0.625, 0.25, 0.125]),
                IidSpec.from_probs([0.0, 0.5, 0.5]),
            )
        )
        self.check(hset, (0.3, 0.3, 0.4), (0,))
        self.check(hset, (0.3, 0.3, 0.4), (2,))

    def test_memory_one_with_every_start(self):
        hset = HypothesisSet(
            (
                m1(0.2, 0.9),
                m1(0.0, 0.6, ("context", (1,))),  # never a 0 after a 0
                m1(0.5, 0.5, ("distribution", (0.5, 0.5))),
            )
        )
        for target in range(3):
            self.check(hset, (0.5, 0.25, 0.25), (target,))

    def test_memory_two(self):
        m2a = chain(2, (0.125, 0.625, 0.5, 0.875), ("context", (0, 1)))
        m2b = chain(2, (0.75, 0.25, 0.5, 0.125))
        self.check(HypothesisSet((m2a, m2b)), (0.4, 0.6), (1,))

    def test_several_targets_in_one_pass(self):
        hset = HypothesisSet((B5, B9, IidSpec.from_probs([0.0, 1.0])))
        self.check(hset, (0.5, 0.3, 0.2), (0, 1, 2))
        self.check(
            HypothesisSet((m1(0.2, 0.9), m1(0.1, 0.6))), (0.5, 0.5), (0, 1)
        )

    def test_refuses_a_horizon_past_the_class_limit(self, monkeypatch):
        monkeypatch.setattr(samplex.bayes, "_CLASS_LIMIT", 10)
        three = HypothesisSet(
            (IidSpec.from_probs([0.25, 0.25, 0.5]), IidSpec.from_probs([0.5, 0.25, 0.25]))
        )
        # compositions of t into three parts: 10 at t = 3, 15 at t = 4
        assert len(_walk(three, UNIFORM, (0,), lambda s: s, 3)) == 4
        with pytest.raises(ComputationRefused):
            _walk(three, UNIFORM, (0,), lambda s: s, 4)


class TestExpectedSampleComplexity:
    def test_pinned_crossing(self):
        est = expected_sc_evaluator(B5, PAIR, UNIFORM, 0.9)
        assert est.value == pytest.approx(13.905391109770717)
        assert est.method == "enumeration"
        assert est.smallest_t == 14

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

    def test_estimate_serializes(self):
        est = expected_sc_evaluator(B5, PAIR, UNIFORM, 0.9)
        data = est.to_json()
        assert set(data) == {"value", "method", "ci", "smallest_t"}

    def test_prior_averaged_variant(self):
        est = expected_sc_predictive(PAIR, UNIFORM, 0.9)
        assert est.value == pytest.approx(13.446060752821765)

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
        assert scan(1.0, curve(exact[:1]), 100).method == "prior-threshold"
        est = scan(0.1, curve(exact), 100)
        assert (est.value, est.method, est.smallest_t) == (1 + 0.4 / 0.45, "enumeration", 2)
        # Monte Carlo from t = 1 on with se 0.1: the mean crosses 0.1 at
        # t = 2, mean - 1.96 se at t = 2, mean + 1.96 se only at t = 4
        mc = [(1.0, None), (0.5, 0.1), (0.05, 0.1), (0.0, 0.1), (-0.2, 0.1)]
        est = scan(0.1, curve(mc), 100)
        assert est.method == "monte-carlo"
        assert est.value == pytest.approx(1 + 0.4 / 0.45)
        assert est.ci == pytest.approx((1 + 0.204 / 0.45, 3 + 0.096 / 0.2))
        assert scan(0.1, curve(mc[:3]), 2).ci[1] == math.inf

    @pytest.mark.parametrize("weights", [{0: 1.0}, {0: 0.5, 1: 0.5}])
    def test_mc_curve_tracks_the_exact_curve(self, weights):
        # at every horizon the Monte Carlo mean lies within 4.5 exact
        # standard errors sqrt(Var / sequences) of the exact mean, and its
        # own standard error within half of the exact one (the surprisal
        # is heavy-tailed: 40 seeds gave |z| <= 3.8 and errors <= 31%)
        sequences = 4000
        targets = list(weights)

        def exact(transform):
            rows = _walk(PAIR, UNIFORM, targets, transform, 20)
            return [sum(weights[i] * v for i, v in zip(targets, r)) for r in rows]

        mean, square = exact(lambda s: s), exact(lambda s: s * s)
        curve = samplex.bayes._surprisal_curve(
            PAIR, (-1.0, -1.0), weights, 0, sequences, 5
        )
        assert next(curve) == (mean[0], None)
        for t, (value, se) in enumerate(itertools.islice(curve, 20), 1):
            exact_se = math.sqrt((square[t] - mean[t] ** 2) / sequences)
            assert abs(value - mean[t]) <= 4.5 * exact_se, t
            assert se == pytest.approx(exact_se, rel=0.5), t

    def test_mc_extension_brackets_the_analytic_value(self):
        est = expected_sc_evaluator(
            B5, PAIR, UNIFORM, 0.9, sequences=4000, seed=7, exact_t_max=0
        )
        assert est.method == "monte-carlo"
        assert est.ci is not None
        lo, hi = est.ci
        slack = 0.5
        assert lo - slack <= 13.905391109770717 <= hi + slack


def test_hypothesis_count_bound():
    assert hypothesis_count_bound(1024, 0.9, 0.1) == 134
    with pytest.raises(ValueError):
        hypothesis_count_bound(1024, 0.9, 0.0)
    with pytest.raises(ValueError):
        hypothesis_count_bound(1024, 1.0, 0.1)
