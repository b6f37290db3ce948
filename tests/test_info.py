"""Unit tests for the information-measure primitives."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplex import (
    ComputationRefused,
    ProbVector,
    cross_entropy,
    divergences,
    entropy,
    entropy_rate,
    relative_entropy,
    total_variation,
)
from samplex.processes import IidSpec, MarkovSpec

from oracles import block_distribution


def probvec(*probs: float) -> ProbVector:
    return ProbVector(tuple(probs))


class TestEntropy:
    def test_pinned_values(self):
        assert entropy([0.5, 0.5]) == 1.0
        assert entropy([1.0]) == 0.0
        assert entropy([0.25, 0.25, 0.25, 0.25]) == 2.0
        assert entropy([0.25, 0.75]) == pytest.approx(0.8112781244591328)

    def test_accepts_probvector_and_sequence(self):
        assert entropy(probvec(0.5, 0.5)) == entropy([0.5, 0.5])

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            entropy([-0.5, 1.5])


class TestDivergences:
    def test_pinned_pair(self):
        cross, kl = divergences([0.5, 0.5], [0.25, 0.75])
        assert cross == pytest.approx(1.2075187496394219)
        assert kl == pytest.approx(0.2075187496394219)
        assert cross_entropy([0.5, 0.5], [0.25, 0.75]) == cross
        assert relative_entropy([0.5, 0.5], [0.25, 0.75]) == kl

    def test_unsupported_mass_is_infinite(self):
        cross, kl = divergences([0.5, 0.5], [1.0, 0.0])
        assert cross == math.inf
        assert kl == math.inf

    def test_model_zero_off_support_is_fine(self):
        cross, kl = divergences([1.0, 0.0], [0.5, 0.5])
        assert cross == 1.0
        assert kl == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            divergences([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_self_divergence_is_zero(self):
        # fsum cancellation must not leave a negative residue
        _, kl = divergences([0.3, 0.7], [0.3, 0.7])
        assert kl == 0.0


class TestJointMeasures:
    """Joint entropy and mutual information of a two-by-two table,
    flattened row by row: I(X;Y) is the relative entropy of the joint
    law against the product of its marginals."""

    def test_independent_pair(self):
        joint = [0.25, 0.25, 0.25, 0.25]
        assert entropy(joint) == 2.0 == entropy([0.5, 0.5]) * 2
        assert relative_entropy(joint, [0.25] * 4) == 0.0

    def test_deterministic_coupling(self):
        joint = [0.5, 0.0, 0.0, 0.5]
        assert entropy(joint) == 1.0 == entropy([0.5, 0.5])
        assert relative_entropy(joint, [0.25] * 4) == 1.0


class TestBlockEntropy:
    """Entropy of a spec's length-t block distribution, enumerated by
    the oracle."""

    def test_iid_blocks_are_additive(self):
        spec = IidSpec.from_probs([0.5, 0.5])
        for t in (0, 1, 3, 7):
            block = block_distribution(spec, t)
            assert entropy(list(block.values())) == pytest.approx(float(t))

    def test_refuses_oversized_enumeration(self):
        spec = IidSpec.from_probs([0.5, 0.5])
        with pytest.raises(ComputationRefused):
            block_distribution(spec, 21)


class TestEntropyRate:
    def test_iid(self):
        assert entropy_rate(IidSpec.from_probs([0.5, 0.5])) == 1.0
        assert entropy_rate(IidSpec.from_probs([1.0, 0.0])) == 0.0

    def test_deterministic_alternator(self):
        spec = MarkovSpec(
            memory=1,
            transitions={
                (0,): IidSpec.from_probs([0.0, 1.0]),
                (1,): IidSpec.from_probs([1.0, 0.0]),
            },
            init=("stationary", None),
        )
        assert entropy_rate(spec) == pytest.approx(0.0, abs=1e-12)

    def test_sticky_chain(self):
        spec = MarkovSpec(
            memory=1,
            transitions={
                (0,): IidSpec.from_probs([0.9, 0.1]),
                (1,): IidSpec.from_probs([0.1, 0.9]),
            },
            init=("stationary", None),
        )
        assert entropy_rate(spec) == pytest.approx(entropy([0.9, 0.1]))

    def test_rejects_unknown_spec(self):
        with pytest.raises(TypeError):
            entropy_rate("not a process")


class TestTotalVariation:
    def test_pinned_values(self):
        assert total_variation({0: 1.0}, {1: 1.0}) == 1.0
        assert total_variation({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0
        assert total_variation({0: 0.5, 1: 0.5}, {0: 0.25, 1: 0.75}) == 0.25

    def test_missing_keys_count_as_zero(self):
        assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0
        assert total_variation({"a": 0.5, "b": 0.5}, {"a": 0.5, "c": 0.5}) == 0.5


probvectors = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=8
).map(lambda ws: tuple(w / math.fsum(ws) for w in ws))


@given(probvectors)
def test_entropy_bounds(probs):
    h = entropy(probs)
    assert 0.0 <= h <= math.log2(len(probs)) + 1e-9


@given(probvectors)
def test_self_kl_vanishes(probs):
    assert relative_entropy(probs, probs) == 0.0


@given(probvectors, probvectors)
def test_kl_nonnegative_and_identity(p, q):
    if len(p) != len(q):
        q = tuple(1.0 / len(p) for _ in p)
    cross, kl = divergences(p, q)
    assert kl >= 0.0
    assert cross == pytest.approx(entropy(p) + kl)


@settings(max_examples=50)
@given(
    st.lists(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=4),
        min_size=2,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_joint_identities(raw):
    total = math.fsum(v for row in raw for v in row)
    rows = [[v / total for v in row] for row in raw]
    px = [math.fsum(row) for row in rows]
    py = [math.fsum(col) for col in zip(*rows)]
    joint = [v for row in rows for v in row]
    mutual = relative_entropy(joint, [a * b for a in px for b in py])
    h_x, h_y, h_xy = entropy(px), entropy(py), entropy(joint)
    assert mutual >= 0.0
    assert max(h_x, h_y) <= h_xy + 1e-9
    assert h_xy <= h_x + h_y + 1e-9
    assert mutual == pytest.approx(h_x + h_y - h_xy, abs=1e-9)


@given(probvectors, probvectors)
def test_total_variation_is_a_metric(p, q):
    dp = dict(enumerate(p))
    dq = dict(enumerate(q))
    tv = total_variation(dp, dq)
    assert 0.0 <= tv <= 1.0 + 1e-12
    assert tv == total_variation(dq, dp)
    assert total_variation(dp, dp) == 0.0
