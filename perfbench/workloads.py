"""The benchmark's workloads: samplex configs generated from a seed, and
the checks every output must pass.

Each workload is a list of timed operations (one CLI invocation each)
run once per pass, plus untimed probes.  The run list of every workload
is built so that the median run lies inside one kind of operation
whatever the number of passes: an odd number of kinds in equal numbers,
or, in curve, the middle kind twice as often as the quicker and the
slower one.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


@dataclass
class Op:
    """One CLI invocation.  ``config`` is written to a file and passed as
    ``run --config``; otherwise ``argv`` is the whole command line."""

    name: str
    check: Callable[[int, str], None]
    config: dict | None = None
    argv: list[str] = field(default_factory=list)
    accept: tuple[int, ...] = (0,)
    # False only for a probe of a known defect: its raising or exiting
    # outside ``accept`` counts in the failures but leaves the run correct;
    # a failed output check is never tolerated
    fatal: bool = True


@dataclass
class Workload:
    timed: list[Op]
    probes: list[Op] = field(default_factory=list)
    # compare each timed run's payload with a --threads 1 run of the same
    # config, made once before the passes
    determinism: bool = False


# ---------------------------------------------------------------------------
# independent references


def _entropy(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def _markov_stationary(transitions, memory, k):
    """Stationary context distribution and entropy rate of a finite-memory
    chain, by power iteration over its contexts."""
    ctxs = sorted(transitions)
    pi = {c: 1.0 / len(ctxs) for c in ctxs}
    for _ in range(5000):
        nxt = {c: 0.0 for c in ctxs}
        for c, w in pi.items():
            for s, p in enumerate(transitions[c]):
                nxt[(c + str(s))[-memory:]] += w * p
        delta = max(abs(nxt[c] - pi[c]) for c in ctxs)
        pi = nxt
        if delta < 1e-15:
            break
    symbols = [0.0] * k
    for c, w in pi.items():
        symbols[int(c[-1])] += w
    rate = sum(w * _entropy(transitions[c]) for c, w in pi.items())
    return symbols, rate


def _exact_crossing(ideal, other, prior, p):
    """Expected-sample-complexity crossing of two binary iid members, from
    the exact binomial sum over ones counts, interpolated between
    horizons the way samplex reports it."""
    target = -math.log2(p)
    ratio = prior[1] / prior[0]

    def expected(t):
        total = 0.0
        for k in range(t + 1):
            weight = math.comb(t, k) * ideal[0] ** (t - k) * ideal[1] ** k
            lr = (other[0] / ideal[0]) ** (t - k) * (other[1] / ideal[1]) ** k
            total += weight * math.log2(1.0 + ratio * lr)
        return total

    prev, t = expected(0), 0
    while True:
        t += 1
        cur = expected(t)
        if cur <= target:
            return (t - 1) + (prev - target) / (prev - cur)
        prev = cur


def _bhattacharyya_error_bound(a, b, n):
    return sum(math.sqrt(x * y) for x, y in zip(a, b)) ** n


# ---------------------------------------------------------------------------
# checks


def _need(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _payload(out):
    try:
        return json.loads(out)["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable record: {exc}") from None


def _check_histogram(pl, trials):
    hist = pl["decision_histogram"]
    _need(sum(hist.values()) == trials, f"histogram {hist} does not sum to {trials}")


def check_sample(probs, n, *, markov=None):
    """Frequencies within a total-variation tolerance of the spec (or the
    chain's stationary symbol law); iid bits per symbol in [H, H+2)."""
    k = len(probs) if markov is None else markov[2]
    if markov is None:
        target, rate, slack = probs, None, 3.0
    else:
        target, rate = _markov_stationary(*markov)
        slack = 6.0  # successive symbols of a chain are correlated
    tol = slack * math.sqrt(k / n)

    def check(rc, out):
        pl = _payload(out)
        counts = [row[2] for row in pl["table"]["rows"]]
        _need(sum(counts) == n, f"{sum(counts)} symbols, expected {n}")
        tv = 0.5 * sum(abs(c / n - q) for c, q in zip(counts, target))
        _need(tv <= tol, f"frequency TV {tv:.4g} above {tol:.4g}")
        if markov is None:
            h = _entropy(probs)
            bits = pl["mean_bits_per_symbol"]
            _need(h <= bits < h + 2.0, f"{bits:.4g} bits/symbol outside [{h:.4g}, {h + 2:.4g})")
        else:
            got = pl["entropy_rate_bits"]
            _need(abs(got - rate) <= 1e-9, f"entropy rate {got} != {rate}")

    return check


def check_spread(components, message, t, trials):
    per_position = t // len(message)
    bound = _bhattacharyya_error_bound(components[0], components[1], per_position)

    def check(rc, out):
        pl = _payload(out)
        _need(pl["trials"] == trials and pl["message"] == message, "spread echo mismatch")
        # bit errors stay within the Bhattacharyya bound on the per-bit
        # error probability (a bound far below one error in the run)
        _need(pl["bit_error_rate"] <= bound, f"bit error rate {pl['bit_error_rate']} above {bound:.3g}")

    return check


def check_bayes(trials, crossing=None, method=None, slack=1.0):
    """Histogram sums to the trial count; the reported crossing matches
    one computed here.  For a Monte Carlo crossing the confidence
    interval, widened by ``slack`` half-widths on each side, must contain
    the exact crossing."""

    def check(rc, out):
        pl = _payload(out)
        _check_histogram(pl, trials)
        if crossing is None:
            return
        est = pl["analytic_expected_t"]
        _need(est is not None and est["method"] == method, f"crossing by {est and est['method']}, expected {method}")
        if method == "enumeration":
            _need(abs(est["value"] - crossing) <= 1e-9, f"crossing {est['value']} != {crossing}")
        else:
            lo, hi = est["ci"]
            half = (hi - lo) / 2
            _need(lo - slack * half <= crossing <= hi + slack * half,
                  f"crossing {crossing:.6g} outside CI [{lo:.6g}, {hi:.6g}] +- {slack} half-widths")

    return check


def check_novelty(trials):
    def check(rc, out):
        pl = _payload(out)
        _check_histogram(pl, trials)
        falsified = pl["decision_histogram"]["Falsified"]
        _need(pl["falsified_fraction"] == falsified / trials, "falsified fraction mismatch")

    return check


def check_probe_bayes(trials):
    """Exit 2 or 3 is an accepted refusal; exit 0 must carry a sound histogram."""

    def check(rc, out):
        if rc == 0:
            _check_histogram(_payload(out), trials)

    return check


def check_verify(crossing=None):
    def check(rc, out):
        _need(re.search(r"^verify \S+: PASS$", out, re.M) is not None, "verify pair did not PASS")
        if crossing is not None:
            m = re.search(r"analytic crossing: (\S+)", out)
            _need(m is not None and abs(float(m.group(1)) - crossing) <= 1e-4 * crossing,
                  f"analytic crossing {m and m.group(1)} != {crossing:.6g}")

    return check


def check_identify(rc, out):
    pl = _payload(out)
    outcomes = list(pl["outcomes"].values())
    _need(pl["agree"] and len(outcomes) == 3, "identification deciders disagree")
    first = outcomes[0]
    for other in outcomes[1:]:
        _need(other["status"] == first["status"], "decider statuses differ")


def check_scdist(exact):
    def check(rc, out):
        pl = _payload(out)
        rows = pl["table"]["rows"]
        total = math.fsum(row[1] for row in rows)
        _need(abs(total - 1.0) <= (1e-12 if exact else 1e-9), f"pmf sums to {total!r}")
        _need(abs(rows[-1][2] - 1.0) <= 1e-9, "cdf does not reach 1")

    return check


def check_figure3(probs, p, q, t_max):
    rate = _entropy(probs)

    def check(rc, out):
        pl = _payload(out)
        _need(abs(pl["entropy_rate"] - rate) <= 1e-12, "entropy rate mismatch")
        rows = pl["table"]["rows"]
        _need(len(rows) == t_max, "figure3 row count")
        for t, lo_p, hi_p, lo_q, hi_q in rows:
            center = 2.0 ** (-t * rate)
            for got, want in ((lo_p, center * p), (hi_p, center / p), (lo_q, center * q), (hi_q, center / q)):
                _need(math.isclose(got, want, rel_tol=1e-12), f"typical bound at t={t}")

    return check


# ---------------------------------------------------------------------------
# workloads


def _markov_json(memory, transitions):
    return {
        "kind": "markov",
        "memory": memory,
        "alphabet": len(next(iter(transitions.values()))),
        "transitions": transitions,
        "init": "stationary",
    }


def _sampling(rng):
    seeds = [rng.randrange(2**32) for _ in range(5)]
    m2 = {"00": [0.7, 0.3], "01": [0.4, 0.6], "10": [0.2, 0.8], "11": [0.5, 0.5]}
    message = "".join(rng.choice("01") for _ in range(8))
    comps = [[0.7, 0.3], [0.3, 0.7]]
    ops = [
        # the shipped config: one draw per freshly seeded source
        Op("sample-shipped", check_sample([0.25, 0.75], 100_000),
           {"kind": "sample", "spec": [0.25, 0.75], "t": 1, "trials": 100_000, "seed": seeds[0]}),
        Op("sample-rounded3", check_sample([0.2, 0.3, 0.5], 40_000),
           {"kind": "sample", "spec": [0.2, 0.3, 0.5], "t": 20, "trials": 2000, "seed": seeds[1]}),
        Op("sample-dyadic4", check_sample([0.125, 0.375, 0.25, 0.25], 100_000),
           {"kind": "sample", "spec": [0.125, 0.375, 0.25, 0.25], "t": 200, "trials": 500, "seed": seeds[2]}),
        Op("sample-markov2", check_sample(None, 50_000, markov=(m2, 2, 2)),
           {"kind": "sample", "spec": _markov_json(2, m2), "t": 50, "trials": 1000, "seed": seeds[3]}),
        Op("spread-10k", check_spread(comps, message, 10_000, 10),
           {"kind": "spread", "message": message, "components": comps, "t": 10_000, "trials": 10, "seed": seeds[4]}),
    ]
    return Workload(ops)


def _m1(a, b):
    return _markov_json(1, {"0": [a, round(1 - a, 10)], "1": [b, round(1 - b, 10)]})


def _stopping(rng):
    seeds = [rng.randrange(2**32) for _ in range(4)]
    threads = ["--threads", "2"]
    ops = [
        # well separated: the crossing is found by enumeration (t <= 16)
        Op("bayes-separated", check_bayes(2000, _exact_crossing((0.5, 0.5), (0.1, 0.9), (0.5, 0.5), 0.9), "enumeration"),
           {"kind": "bayes", "ideal": [0.5, 0.5], "hypotheses": [[0.5, 0.5], [0.1, 0.9]], "prior": [0.5, 0.5],
            "p": 0.9, "trials": 2000, "max_steps": 1000, "seed": seeds[0]}, threads),
        # iid novelty: trials stop near t = 2, so seeding weighs heavily
        Op("novelty-iid", check_novelty(4500),
           {"kind": "novelty", "ideal": [0.5, 0.5], "hypotheses": [[0.1, 0.9], [0.05, 0.95]], "q": 0.5,
            "trials": 4500, "budget": 1000, "seed": seeds[1]}, threads),
        # memory-1 members take the reference path; every trial decides
        Op("novelty-markov", check_novelty(1500),
           {"kind": "novelty", "ideal": _m1(0.7, 0.4), "hypotheses": [_m1(0.2, 0.9), _m1(0.1, 0.6)], "q": 0.7,
            "trials": 1500, "budget": 2000, "seed": seeds[2]}, threads),
    ]
    # the ideal is a Markov member of the set: must run or be refused
    # (exit 0, 2 or 3), never raise.  The unchanged library raises
    # AttributeError here (MarkovSpec has no .dist): counted, not fatal
    probe = Op("probe-markov-member", check_probe_bayes(20),
               {"kind": "bayes", "ideal": _m1(0.2, 0.9), "hypotheses": [_m1(0.2, 0.9), _m1(0.1, 0.6)],
                "prior": [0.5, 0.5], "p": 0.9, "trials": 20, "max_steps": 200, "seed": seeds[3]},
               accept=(0, 2, 3), fatal=False)
    return Workload(ops, probes=[probe], determinism=True)


def _curve_bayes(name, other, seed):
    """Ideal fair coin against one alternative: the crossing lies beyond
    the exact horizon (16), so the Monte Carlo curve decides it."""
    crossing = _exact_crossing((0.5, 0.5), other, (0.5, 0.5), 0.9)
    return Op(name, check_bayes(20, crossing, "monte-carlo"),
              {"kind": "bayes", "ideal": [0.5, 0.5], "hypotheses": [[0.5, 0.5], list(other)], "prior": [0.5, 0.5],
               "p": 0.9, "trials": 20, "max_steps": 10_000, "seed": seed})


def _curve(rng):
    seeds = [rng.randrange(2**32) for _ in range(4)]
    verify_crossing = _exact_crossing((0.5, 0.5), (0.1, 0.9), (0.5, 0.5), 0.9)
    return Workload([
        # crossing near 71: the curve runs to 128 horizons
        _curve_bayes("bayes-curve", (0.3, 0.7), seeds[0]),
        # crossing near 20: the curve runs to 32 horizons.  The median run
        # is one of these; two on their own seeds give it twice the samples
        _curve_bayes("bayes-curve-short", (0.15, 0.85), seeds[1]),
        _curve_bayes("bayes-curve-short", (0.15, 0.85), seeds[2]),
        # a 95% interval misses about one seed in twenty; --tolerance 1.0
        # widens each side by about 1.6 half-widths (0.63 is typical), so
        # the pair stays a check, not a coin flip: no miss in 250 seeds
        Op("verify-expected-sc-mc", check_verify(verify_crossing),
           argv=["verify", "--pair", "expected-sc-mc", "--seed", str(seeds[3]), "--tolerance", "1.0"]),
    ])


def _bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def _many_small(rng):
    ops = []
    for _ in range(15):
        members = set()
        while len(members) < 2000:
            members.add(_bits(rng, rng.randint(8, 24)))
        members = sorted(members)
        pick = rng.choice(members)
        query = rng.choice([pick, pick[: len(pick) // 2], _bits(rng, 16)])
        p, q = rng.choice([(0.7, 0.6), (0.9, 0.5), (0.8, 0.3)])
        head = rng.choice([0.5, 0.25, 0.125])
        ops += [
            Op("identify-2000", check_identify,
               {"kind": "identify", "members": members, "query": query, "r": 0.0, "algorithm": "all",
                "seed": rng.randrange(2**32)}),
            Op("scdist-L20", check_scdist(True),
               {"kind": "scdist", "L": 20, "K": rng.randint(1, 20), "moments": 2, "seed": rng.randrange(2**32)}),
            Op("scdist-L200", check_scdist(False),
               {"kind": "scdist", "L": 200, "K": rng.randint(1, 200), "moments": 2, "seed": rng.randrange(2**32)}),
            Op("figure3", check_figure3([head, 1 - head], p, q, 10),
               {"kind": "figure3", "spec": [head, 1 - head], "p": p, "q": q, "t_max": 10, "seed": rng.randrange(2**32)}),
            Op("verify-pairwise-L7", check_verify(), argv=["verify", "--pair", "pairwise-enumeration", "--L", "7"]),
            # the shipped identify and scdist configs
            Op("identify-shipped", check_identify,
               {"kind": "identify", "members": ["0", "10", "11"], "query": "10", "r": 0.0, "algorithm": "all",
                "seed": rng.randrange(2**32)}),
            Op("scdist-shipped", check_scdist(True),
               {"kind": "scdist", "L": 4, "K": 2, "moments": 2, "seed": rng.randrange(2**32)}),
        ]
    return Workload(ops)


WORKLOADS = {
    "sampling": _sampling,
    "stopping": _stopping,
    "curve": _curve,
    "many-small": _many_small,
}


def build(name: str, seed: int) -> Workload:
    """The workload's operations; the same seed gives the same configs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
