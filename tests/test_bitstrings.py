"""Unit tests for the bit-string identification deciders."""

from __future__ import annotations

import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplex import (
    IdOutcome,
    IdStatus,
    SortedHypothesisSet,
    build_context_tree,
    identify_depth_first,
    identify_sorted,
    identify_tree,
    resolution_cap,
)

from oracles import (
    brute_force_identify,
    check_members_reference,
    context_tree_reference,
    identify_depth_first_reference,
    identify_tree_reference,
)


def decide_all_ways(members, query, r):
    """Run every decider; assert they agree; return (status, partial)."""
    hs = SortedHypothesisSet(tuple(members))
    outcomes = [
        identify_sorted(hs, query, r),
        identify_depth_first(hs, query, r),
        identify_tree(build_context_tree(hs), query, r),
    ]
    decisions = {(o.status, o.partial_subset) for o in outcomes}
    assert len(decisions) == 1, f"deciders disagree: {outcomes}"
    status, partial = decisions.pop()
    return status.value, partial


class TestResolutionCap:
    def test_pinned_values(self):
        assert resolution_cap(0.0) == math.inf
        assert resolution_cap(1.0) == 0
        assert resolution_cap(0.5) == 1
        assert resolution_cap(0.25) == 2
        assert resolution_cap(0.3) == 2
        assert resolution_cap(0.125) == 3

    def test_rejects_out_of_range(self):
        for bad in (-0.01, 1.01, math.nan):
            with pytest.raises(ValueError):
                resolution_cap(bad)


class TestSortedHypothesisSet:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted order"):
            SortedHypothesisSet(("10", "0"))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SortedHypothesisSet(("0", "0"))

    def test_rejects_empty_member_and_bad_symbols(self):
        with pytest.raises(ValueError):
            SortedHypothesisSet(("",))
        with pytest.raises(ValueError):
            SortedHypothesisSet(("012",))

    def test_from_unsorted_sorts_and_dedupes(self):
        hs = SortedHypothesisSet.from_unsorted(["11", "0", "11", "10"])
        assert hs.members == ("0", "10", "11")


class TestPinnedDecisions:
    """Hand-checked traces, frozen; all deciders must reproduce them."""

    def test_exact_match_verifies(self):
        assert decide_all_ways(("0", "10", "11"), "10", 0.0) == (
            "Verified",
            (2,),
        )

    def test_mismatch_with_no_extension_falsifies(self):
        assert decide_all_ways(("0", "10", "11"), "01", 0.0) == (
            "Falsified",
            (),
        )

    def test_complete_non_member_reports_extensions(self):
        assert decide_all_ways(("0", "10", "11"), "1", 0.0) == (
            "Falsified",
            (2, 3),
        )

    def test_empty_query_reports_all_as_extensions(self):
        assert decide_all_ways(("0", "10", "11"), "", 0.0) == (
            "Falsified",
            (1, 2, 3),
        )

    def test_query_longer_than_all_members(self):
        assert decide_all_ways(("10", "11"), "110", 0.0) == ("Falsified", ())

    def test_member_prefix_of_another_query(self):
        assert decide_all_ways(("0", "11"), "0", 0.0) == ("Verified", (1,))

    def test_unreachable_prefix(self):
        assert decide_all_ways(("10", "11"), "00", 0.0) == ("Falsified", ())

    def test_truncated_keeps_prefix_consistent_members(self):
        assert decide_all_ways(("0", "01", "11"), "011", 0.25) == (
            "Undetermined",
            (1, 2),
        )

    def test_empty_set_falsifies(self):
        assert decide_all_ways((), "101", 0.0) == ("Falsified", ())

    @pytest.mark.parametrize("query", ["", "0", "10"])
    def test_empty_set_reads_no_symbol(self, query):
        hs = SortedHypothesisSet(())
        outcomes = [
            identify_sorted(hs, query),
            identify_depth_first(hs, query),
            identify_tree(build_context_tree(hs), query),
        ]
        assert [(o.status, o.h, o.i, o.partial_subset) for o in outcomes] == [
            (IdStatus.FALSIFIED, 0, 0, ())
        ] * 3

    def test_zero_budget_keeps_everything(self):
        assert decide_all_ways(("0", "10", "11"), "10", 1.0) == (
            "Undetermined",
            (1, 2, 3),
        )

    def test_budget_reaching_query_end_decides(self):
        # cap 2 covers the whole 2-symbol query: end detection is free
        assert decide_all_ways(("0", "10", "11"), "10", 0.25) == (
            "Verified",
            (2,),
        )

    def test_outcome_json_shape(self):
        out = identify_sorted(SortedHypothesisSet(("0", "10", "11")), "10", 0.0)
        assert out.to_json() == {
            "status": "Verified",
            "h": 2,
            "i": 2,
            "partial_subset": [2],
        }

    def test_rejects_bad_query(self):
        with pytest.raises(ValueError):
            identify_sorted(SortedHypothesisSet(("0",)), "2", 0.0)


class TestAgainstBruteForce:
    def test_randomized_agreement(self):
        rng = random.Random(0xBD5)
        resolutions = (0.0, 1.0, 0.5, 0.25, 0.125, 0.3)
        for trial in range(2000):
            n = rng.randint(0, 6)
            members = tuple(
                sorted(
                    {
                        "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
                        for _ in range(n)
                    }
                )
            )
            query = "".join(rng.choice("01") for _ in range(rng.randint(0, 7)))
            r = rng.choice(resolutions)
            got = decide_all_ways(members, query, r)
            expected = brute_force_identify(members, query, r)
            assert got == expected, (members, query, r, got, expected)

    def test_every_member_identifies_against_its_own_set(self):
        rng = random.Random(7)
        for _ in range(200):
            members = tuple(
                sorted(
                    {
                        "".join(rng.choice("01") for _ in range(rng.randint(1, 5)))
                        for _ in range(rng.randint(1, 8))
                    }
                )
            )
            for idx, m in enumerate(members, start=1):
                status, partial = decide_all_ways(members, m, 0.0)
                assert status == "Verified"
                assert partial == (idx,)


_BITS = st.text(alphabet="01", min_size=1, max_size=10)


@st.composite
def _sets_and_queries(draw):
    """A sorted set (possibly empty) whose members are often prefixes of
    one another, a query near its members or anywhere, and a resolution
    that is 0, 1 or truncates."""
    bases = draw(st.lists(_BITS, max_size=6))
    members = set(bases)
    for b in bases:
        members.update(b[:k] for k in draw(st.sets(st.integers(1, len(b)))))
    members = tuple(sorted(members))
    query = st.text(alphabet="01", max_size=12)
    if members:
        near = st.sampled_from(members).flatmap(
            lambda m: st.sampled_from([m, m[: len(m) // 2], m + "0", m + "1"])
        )
        query = near | query
    query = draw(query)
    r = draw(st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.125, 0.3, 0.01]))
    return members, query, r


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_sets_and_queries())
def test_flat_tree_matches_the_nested_dict_tree(case):
    members, query, r = case
    tree = build_context_tree(SortedHypothesisSet(members))
    zero, one, ends = tree
    prefixes = {m[:k] for m in members for k in range(1, len(m) + 1)}
    assert len(zero) == len(one) == len(ends) == 1 + len(prefixes)
    got = identify_tree(tree, query, r)
    assert got == identify_tree_reference(
        context_tree_reference(members), query, r
    )
    assert (got.status.value, got.partial_subset) == brute_force_identify(
        members, query, r
    )


def test_long_members_build_one_node_per_distinct_prefix():
    rng = random.Random(20000)
    stem = "".join(rng.choice("01") for _ in range(5000))
    members = sorted(
        stem + "".join(rng.choice("01") for _ in range(15000)) for _ in range(3)
    )
    hs = SortedHypothesisSet(tuple(members))
    tree = build_context_tree(hs)
    ends = tree[2]
    # in sorted order a member shares with earlier ones only its longest
    # common prefix with the one just before it
    new_nodes = [len(members[0])] + [
        len(b) - len(os.path.commonprefix([a, b]))
        for a, b in zip(members, members[1:])
    ]
    assert len(ends) == 1 + sum(new_nodes)
    assert sorted(e for e in ends if e) == [1, 2, 3]
    for idx, m in enumerate(members, start=1):
        assert identify_tree(tree, m) == IdOutcome(
            IdStatus.VERIFIED, idx, len(m), (idx,)
        )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_sets_and_queries())
def test_depth_first_matches_the_indexed_walk(case):
    members, query, r = case
    got = identify_depth_first(SortedHypothesisSet(members), query, r)
    assert got == identify_depth_first_reference(members, query, r)


def _refusal(build, members):
    """None when ``build(members)`` accepts, else its ValueError text."""
    try:
        build(members)
    except ValueError as exc:
        return str(exc)
    return None


# a valid member, a str that is not one, or no str at all
_MEMBERS = (
    _BITS
    | st.sampled_from(["", "012", "0\n", "2", " 1", "01 "])
    | st.sampled_from([0, 1, None, 1.5, b"01", ("0",)])
)


@st.composite
def _member_tuples(draw):
    """Tuples that are sorted and duplicate-free or not, sometimes with
    a repeated member or an invalid one spliced in."""
    members = draw(st.lists(_BITS, max_size=8))
    if draw(st.booleans()):
        members = sorted(set(members))
    if members and draw(st.booleans()):
        at = draw(st.integers(0, len(members)))
        members.insert(at, draw(st.sampled_from(members)))
    if draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))), draw(_MEMBERS))
    return tuple(members)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_member_tuples())
def test_member_checks_refuse_what_the_member_loop_refuses(members):
    assert _refusal(SortedHypothesisSet, members) == _refusal(
        check_members_reference, members
    )
    # from_unsorted names the first member that is no str, else checks
    # the sorted distinct members
    odd = [m for m in members if not isinstance(m, str)]
    expected = _refusal(check_members_reference, odd[:1] or sorted(set(members)))
    assert _refusal(SortedHypothesisSet.from_unsorted, members) == expected
    if expected is None:
        hset = SortedHypothesisSet.from_unsorted(list(members))
        assert hset.members == tuple(sorted(set(members)))
