"""Identification of a query bit string against a finite hypothesis set.

Three interchangeable deciders are provided: a sorted linear scan, a
per-member depth-first walk, and a prefix-tree walk.  Each works from a
``SortedHypothesisSet``, the one place members are checked; the tree
walk reads the set's prefix tree, which ``build_context_tree`` lays out
as three flat int lists (child on 0, child on 1, member ending at each
node) rather than one object per node.  They traverse the set
differently and keep their own bookkeeping, but must always agree on
the decision status and on which members remain in play; that
agreement is a standing cross-check, so the derivations are
deliberately not shared.

A query is a bit string.  A resolution r in [0, 1] lets a decider read
at most ceil(-log2 r) of its symbols (all of them when r = 0, none when
r = 1).  Detecting the *end* of a query is free: budgets meter symbol
comparisons, which is what the counter ``i`` reports.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

_ALPHABET = frozenset("01")
_DROP_BITS = str.maketrans("", "", "01")


class IdStatus(Enum):
    VERIFIED = "Verified"
    FALSIFIED = "Falsified"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class IdOutcome:
    """Decision plus traversal bookkeeping.

    ``h`` and ``i`` are pointer and comparison-depth counters whose
    precise meaning is per-decider (see each docstring).  The decision
    payload that all deciders must agree on is ``status`` together with
    ``partial_subset``: 1-based member indices left in play -- the match
    for Verified, proper extensions of the query for Falsified, and all
    still-consistent members for Undetermined.
    """

    status: IdStatus
    h: int
    i: int
    partial_subset: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "h": self.h,
            "i": self.i,
            "partial_subset": list(self.partial_subset),
        }


def _check_bits(s: str, what: str) -> str:
    if not isinstance(s, str) or not set(s) <= _ALPHABET:
        raise ValueError(f"{what} must be a string over 0/1, got {s!r}")
    return s


def resolution_cap(r: float) -> float:
    """Observation budget for resolution r: ceil(-log2 r), inf when r = 0."""
    if math.isnan(r) or r < 0.0 or r > 1.0:
        raise ValueError(f"resolution out of range [0, 1]: {r!r}")
    if r == 0.0:
        return math.inf
    if r == 1.0:
        return 0
    return math.ceil(-math.log2(r))


def _check_members(members: tuple[str, ...]) -> None:
    """Raise ValueError naming the first member that is not a non-empty
    bit string, or that repeats or breaks the sorted order of the one
    before it.  The set's C-level checks call this only once one of them
    has failed, so that the refusal names the offender."""
    for m in members:
        _check_bits(m, "member")
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


@dataclass(frozen=True)
class SortedHypothesisSet:
    """Duplicate-free members in lexicographic order (prefixes first).

    Construction validates the order and reports the index of the first
    offending member; use ``from_unsorted`` when order is not promised.
    """

    members: tuple[str, ...]

    def __post_init__(self) -> None:
        ms = self.members
        try:
            valid = (
                not "".join(ms).translate(_DROP_BITS)
                and "" not in ms
                and list(ms) == sorted(ms)
                and len(set(ms)) == len(ms)
            )
        except TypeError:  # join met a member that is not a str
            valid = False
        if not valid:
            _check_members(ms)

    @staticmethod
    def from_unsorted(members: Iterable[str]) -> "SortedHypothesisSet":
        members = tuple(members)
        try:
            "".join(members)
        except TypeError:
            # name the first member that is not a str before sorted()
            # raises TypeError on it, or sorts it elsewhere
            for m in members:
                _check_bits(m, "member")
        return SortedHypothesisSet(tuple(dict.fromkeys(sorted(members))))

    def __len__(self) -> int:
        return len(self.members)


def _observe(query: str, r: float) -> tuple[str, bool]:
    """The symbols of ``query`` that resolution r lets a decider read,
    and True when they are the whole query (its end was seen)."""
    _check_bits(query, "query")
    cap = resolution_cap(r)
    if len(query) <= cap:
        return query, True
    return query[:cap], False


def _prefix_chain(members: tuple[str, ...], prefix: str) -> list[int]:
    """1-based indices of members that are proper prefixes of ``prefix``.

    Such members were stepped over by a sorted scan; they are recovered
    by membership tests on each shorter prefix, which keeps this
    O(len * log n) instead of rescanning the set.
    """
    out = []
    for ln in range(1, len(prefix)):
        cand = prefix[:ln]
        pos = bisect.bisect_left(members, cand)
        if pos < len(members) and members[pos] == cand:
            out.append(pos + 1)
    return out


def identify_sorted(
    hset: SortedHypothesisSet, query: str, r: float = 0.0
) -> IdOutcome:
    """Single left-to-right scan over the sorted members.

    A pointer advances while the member's prefix sorts below the
    observed prefix; a pointer past the end, or a member prefix sorting
    above the observation, stops the scan at once.  ``h`` is the
    pointer (1-based) at the start of the last observation, except on
    Verified where it is the matched member's index; ``i`` counts
    observed symbols.
    """
    observed, complete = _observe(query, r)
    members = hset.members
    n = len(members)
    if n == 0:
        return IdOutcome(IdStatus.FALSIFIED, 0, 0, ())

    j = 0
    h = 0
    i = 0
    prefix = ""
    stopped = False
    while i < len(observed):
        i += 1
        prefix = observed[:i]
        h = j + 1
        while members[j][:i] < prefix:
            j += 1
            if j == n:
                stopped = True  # every member sorts below the observation
                break
        if stopped or members[j][:i] > prefix:
            stopped = True  # sorted order: nothing matches this prefix
            break

    if stopped:
        # No member reaches the current prefix.  Members that *are* a
        # proper prefix of it were passed over and stay consistent,
        # unless the whole query was observed: then they are dead by
        # length.
        shorts = () if complete else tuple(_prefix_chain(members, prefix))
        status = IdStatus.UNDETERMINED if shorts else IdStatus.FALSIFIED
        return IdOutcome(status, h, i, shorts)

    if complete:
        # full query observed: exact match or proper extensions
        match = 0
        extensions: list[int] = []
        k = j
        while k < n and members[k][:i] == prefix:
            if members[k] == prefix:
                match = k + 1
            else:
                extensions.append(k + 1)
            k += 1
        if match:
            return IdOutcome(IdStatus.VERIFIED, match, i, (match,))
        return IdOutcome(IdStatus.FALSIFIED, h, i, tuple(extensions))

    # truncated by the budget: passed-over prefix members plus the run
    # of members still matching the observed prefix stay in play
    consistent = _prefix_chain(members, prefix)
    k = j
    while k < n and members[k][:i] == prefix:
        consistent.append(k + 1)
        k += 1
    if consistent:
        return IdOutcome(IdStatus.UNDETERMINED, h, i, tuple(consistent))
    return IdOutcome(IdStatus.FALSIFIED, h, i, ())


def identify_depth_first(
    hset: SortedHypothesisSet, query: str, r: float = 0.0
) -> IdOutcome:
    """Member-by-member walk, comparing symbols until a mismatch.

    ``i`` tracks the deepest comparison made anywhere (at least 1 once
    any comparison happens) and ``h`` the member that first pushed the
    depth past its previous record.
    """
    prefix, complete = _observe(query, r)
    horizon = len(prefix)

    i_deep = 0
    h_deep = 0
    extensions: list[int] = []
    consistent: list[int] = []
    for j, member in enumerate(hset.members, start=1):
        k = 0
        for a, c in zip(member, prefix):
            k += 1
            if k > i_deep:
                if i_deep:  # the first comparison anywhere names no member
                    h_deep = j
                i_deep = k
            if a != c:
                break
        else:
            if complete:
                # prefix is the entire query
                if len(member) == horizon:
                    return IdOutcome(IdStatus.VERIFIED, j, i_deep, (j,))
                if len(member) > horizon:
                    extensions.append(j)
                # shorter members are dead: the query outlived them
            else:
                consistent.append(j)

    if complete:
        return IdOutcome(
            IdStatus.FALSIFIED, h_deep, i_deep, tuple(extensions)
        )
    if consistent:
        return IdOutcome(
            IdStatus.UNDETERMINED, h_deep, i_deep, tuple(consistent)
        )
    return IdOutcome(IdStatus.FALSIFIED, h_deep, i_deep, ())


_Tree = tuple[list[int], list[int], list[int]]  # (zero, one, ends)


def build_context_tree(hset: SortedHypothesisSet) -> _Tree:
    """The prefix tree of the set's members as three flat lists indexed
    by node number, the root being node 0: ``zero[n]`` and ``one[n]`` are
    n's children (0 = none) and ``ends[n]`` is the 1-based index of the
    member ending at n (0 = none).  Nodes are numbered as members are
    inserted in sorted order, one insertion per member; every node is on
    some member's path, so ``len(ends)`` is 1 plus the number of distinct
    non-empty prefixes.  The empty set's tree is the bare root,
    ``([0], [0], [0])``.  Plain int lists give the garbage collector no
    per-node object to track."""
    zero = [0]
    one = [0]
    ends = [0]
    for idx, m in enumerate(hset.members, start=1):
        node = 0
        for sym in m:
            kids = one if sym == "1" else zero
            child = kids[node]
            if not child:
                child = kids[node] = len(ends)
                zero.append(0)
                one.append(0)
                ends.append(0)
            node = child
        ends[node] = idx
    return zero, one, ends


def _subtree_terminals(tree: _Tree, node: int) -> list[int]:
    """Indices of the members ending in ``node``'s subtree, ascending: a
    preorder walk taking the 0-child before the 1-child visits prefixes
    in lexicographic order, which is the order of member indices."""
    zero, one, ends = tree
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if ends[n]:
            out.append(ends[n])
        if one[n]:
            stack.append(one[n])
        if zero[n]:
            stack.append(zero[n])
    return out


def identify_tree(tree: _Tree, query: str, r: float = 0.0) -> IdOutcome:
    """Walk the prefix tree along the observed symbols.

    ``tree`` is ``build_context_tree``'s ``(zero, one, ends)``.  ``i`` is
    the number of symbols consumed by the walk.  ``h`` is the matched
    member's index on Verified and 0 otherwise (the tree has no member
    pointer to report).
    """
    zero, one, ends = tree
    prefix, complete = _observe(query, r)
    if len(ends) == 1:
        # no member to compare a symbol with, so none is read
        return IdOutcome(IdStatus.FALSIFIED, 0, 0, ())

    node = 0
    # members ending on the walked path; shallower first, so ascending
    path_terminals: list[int] = []
    for depth, sym in enumerate(prefix):
        if ends[node]:
            path_terminals.append(ends[node])
        child = (one if sym == "1" else zero)[node]
        if not child:
            # consumed the mismatching symbol as well
            if complete or not path_terminals:
                return IdOutcome(IdStatus.FALSIFIED, 0, depth + 1, ())
            return IdOutcome(
                IdStatus.UNDETERMINED, 0, depth + 1, tuple(path_terminals)
            )
        node = child

    consumed = len(prefix)
    if complete:
        end = ends[node]
        if end:
            return IdOutcome(IdStatus.VERIFIED, end, consumed, (end,))
        extensions = tuple(_subtree_terminals(tree, node))
        return IdOutcome(IdStatus.FALSIFIED, 0, consumed, extensions)
    # the path's members are prefixes of the subtree's, so they sort first
    in_play = path_terminals + _subtree_terminals(tree, node)
    if in_play:
        return IdOutcome(
            IdStatus.UNDETERMINED, 0, consumed, tuple(in_play)
        )
    return IdOutcome(IdStatus.FALSIFIED, 0, consumed, ())
