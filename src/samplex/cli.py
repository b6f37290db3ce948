"""Command-line front end: reproducible experiment runs from JSON
configs, analytic-vs-oracle verification pairs, and the config schema.

Exit codes: 0 success, 1 verification failure, 2 invalid config or
unknown name, 3 computation refused (budget or horizon too large).
Result records split into a deterministic payload (identical bytes for
identical config + seed) and a meta block holding wall-clock duration
and the toolkit version.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from importlib import resources
from typing import Sequence

import jsonschema

from . import __version__
from .bayes import (
    DecisionStatus,
    HypothesisSet,
    PosteriorState,
    StoppingConfig,
    check_stop,
    expected_sc_evaluator,
    falsification_bounds,
    mc_sample_complexity,
    posterior_update,
    typical_set_bounds,
    _IdealSampler,
    _member_index,
)
from .bitstrings import (
    SortedHypothesisSet,
    build_context_tree,
    identify_depth_first,
    identify_sorted,
    identify_tree,
)
from .info import (
    ComputationRefused,
    as_probvector,
    entropy,
    entropy_rate,
    total_variation,
)
from .processes import (
    BitSource,
    IidSpec,
    MarkovSpec,
    iid_sample,
    markov_sample,
    sample_discrete,
    spec_from_json,
)
from .scdist import (
    PairwiseSCDist,
    enumerate_orderings_oracle,
    pairwise_verification,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_REFUSED = 3

_STEP_BUDGET = 50_000_000  # symbols a single CLI run may draw
_OUT_DIR_VAR = "SAMPLEX_OUT"


class ConfigError(ValueError):
    """Invalid experiment config; message carries the field path."""


def _schema() -> dict:
    text = (
        resources.files("samplex.schema")
        .joinpath("experiment-v1.json")
        .read_text()
    )
    return json.loads(text)


def _process(node: object, path: str) -> IidSpec | MarkovSpec:
    """Build the process a config node describes.  One the schema admits
    but the model rejects (weights that do not sum to 1, a reducible
    chain) is a config error at ``path``."""
    if isinstance(node, list):
        node = {"kind": "iid", "probs": node}
    try:
        return spec_from_json(node)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def validate_config(cfg: object) -> dict:
    """Schema-validate, then enforce the cross-field constraints the
    schema only documents; returns the config as a dict."""
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigError(f"{first.json_path}: {first.message}")
    assert isinstance(cfg, dict)
    kind = cfg["kind"]
    if kind == "bayes":
        q = cfg.get("q", 0.0)
        if q > cfg["p"]:
            raise ConfigError(
                f"$.q: falsification level {q} exceeds verification "
                f"level {cfg['p']}"
            )
        if len(cfg["prior"]) != len(cfg["hypotheses"]):
            raise ConfigError(
                f"$.prior: {len(cfg['prior'])} weights for "
                f"{len(cfg['hypotheses'])} hypotheses"
            )
    if kind == "spread":
        n_comp = len(cfg["components"])
        for ch in cfg["message"]:
            if int(ch) >= n_comp:
                raise ConfigError(
                    f"$.message: symbol {ch!r} has no component "
                    f"(only {n_comp} given)"
                )
    return cfg


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(table: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table["columns"])
    for row in table["rows"]:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# kind handlers; each returns a JSON-ready payload with a "table" block


def _run_identify(cfg: dict, seed: int) -> dict:
    try:
        hset = SortedHypothesisSet.from_unsorted(cfg["members"])
    except ValueError as exc:
        raise ConfigError(f"$.members: {exc}") from exc
    algorithm = cfg.get("algorithm", "all")
    chosen = (
        ("sorted", "depth-first", "tree")
        if algorithm == "all"
        else (algorithm,)
    )
    outcomes = {}
    for name in chosen:
        if name == "sorted":
            out = identify_sorted(hset, cfg["query"], cfg["r"])
        elif name == "depth-first":
            out = identify_depth_first(hset.members, cfg["query"], cfg["r"])
        else:
            out = identify_tree(build_context_tree(hset), cfg["query"], cfg["r"])
        outcomes[name] = out
    statuses = {o.status for o in outcomes.values()}
    partials = {o.partial_subset for o in outcomes.values()}
    rows = [
        [name, o.status.value, o.h, o.i, "|".join(map(str, o.partial_subset))]
        for name, o in outcomes.items()
    ]
    return {
        "members": list(hset.members),
        "outcomes": {name: o.to_json() for name, o in outcomes.items()},
        "agree": len(statuses) == 1 and len(partials) == 1,
        "table": {
            "columns": ["algorithm", "status", "h", "i", "partial_subset"],
            "rows": rows,
        },
    }


def _run_scdist(cfg: dict, seed: int) -> dict:
    L, K = cfg["L"], cfg["K"]
    if K > L:
        raise ConfigError(f"$.K: {K} mismatches exceed the length {L}")
    if L > 1_000_000:
        raise ComputationRefused(f"length {L} beyond the supported range")
    dist = pairwise_verification(L) if K == 0 else PairwiseSCDist(L, K)
    highest = cfg.get("moments", 2)
    rows = []
    for i in dist.support():
        rows.append([i, float(dist.pmf(i)), float(dist.cdf(i))])
    return {
        "L": L,
        "K": K,
        "moments": [float(dist.moment(m)) for m in range(1, highest + 1)],
        "table": {"columns": ["i", "pmf", "cdf"], "rows": rows},
    }


def _run_sample(cfg: dict, seed: int) -> dict:
    spec = _process(cfg["spec"], "$.spec")
    t, trials = cfg["t"], cfg["trials"]
    if t * trials > _STEP_BUDGET:
        raise ComputationRefused(
            f"{trials} x {t} symbols exceeds the step budget {_STEP_BUDGET}"
        )
    counts = [0] * spec.alphabet_size
    total_bits = 0
    for i in range(trials):
        source = BitSource(f"{seed}:{i}")
        sample = (
            markov_sample(spec, t, source)
            if isinstance(spec, MarkovSpec)
            else iid_sample(spec, t, source)
        )
        for sym in sample:
            counts[sym] += 1
        total_bits += source.bits_consumed
    n = max(1, t * trials)
    freqs = [c / n for c in counts]
    payload = {
        "trials": trials,
        "t": t,
        "mean_bits_per_sample": total_bits / trials,
        "mean_bits_per_symbol": total_bits / n,
        "frequencies": freqs,
        "table": {
            "columns": ["symbol", "frequency", "count"],
            "rows": [[s, freqs[s], counts[s]] for s in range(len(freqs))],
        },
    }
    if isinstance(spec, IidSpec):
        payload["entropy_bits"] = entropy(spec.dist)
        payload["tv_to_spec"] = total_variation(
            {s: freqs[s] for s in range(len(freqs))},
            {s: spec.dist[s] for s in range(len(spec.dist))},
        )
    else:
        payload["entropy_rate_bits"] = entropy_rate(spec)
    return payload


def _run_spread(cfg: dict, seed: int) -> dict:
    from .processes import SpreadCode, spread_decode, spread_encode

    components = tuple(
        _process(probs, f"$.components[{i}]")
        for i, probs in enumerate(cfg["components"])
    )
    message: str = cfg["message"]
    try:
        code = SpreadCode(len(message), components)
    except ValueError as exc:
        raise ConfigError(f"$.components: {exc}") from exc
    t, trials = cfg["t"], cfg["trials"]
    if t * trials > _STEP_BUDGET:
        raise ComputationRefused(
            f"{trials} x {t} symbols exceeds the step budget {_STEP_BUDGET}"
        )
    msg_errors = 0
    bit_errors = 0
    conf_total = 0.0
    for i in range(trials):
        source = BitSource(f"{seed}:{i}")
        observed = spread_encode(code, message, t, source)
        decoded = spread_decode(code, observed)
        wrong = sum(
            1
            for pos, ch in enumerate(message)
            if decoded.bits[pos] != int(ch)
        )
        bit_errors += wrong
        msg_errors += 1 if wrong else 0
        conf_total += sum(decoded.confidences) / len(message)
    payload = {
        "trials": trials,
        "t": t,
        "message": message,
        "message_error_rate": msg_errors / trials,
        "bit_error_rate": bit_errors / (trials * len(message)),
        "mean_confidence_bits": conf_total / trials,
    }
    payload["table"] = {
        "columns": ["metric", "value"],
        "rows": [
            ["message_error_rate", payload["message_error_rate"]],
            ["bit_error_rate", payload["bit_error_rate"]],
            ["mean_confidence_bits", payload["mean_confidence_bits"]],
        ],
    }
    return payload


def _posterior_trace(ideal, hset, prior, scfg, seed, limit: int) -> list[list]:
    sampler = _IdealSampler(ideal, BitSource(f"{seed}:trace"))
    state = PosteriorState.from_prior(hset, prior)
    rows: list[list] = [[0, *state.posterior().probs]]
    for _ in range(limit):
        decision = check_stop(state, scfg, ())
        if decision.terminal or decision.status is not DecisionStatus.UNDETERMINED:
            break
        state = posterior_update(state, sampler.step())
        if state.all_falsified:
            break
        rows.append([state.t, *state.posterior().probs])
    return rows


def _mean_ci(report) -> list[float] | None:
    times = [t for t, c in report.dist.counts.items() for _ in range(c)]
    if not times:
        return None
    n = len(times)
    mean = sum(times) / n
    var = sum((x - mean) ** 2 for x in times) / n
    half = 1.96 * math.sqrt(var / n)
    return [mean - half, mean + half]


def _run_bayes(cfg: dict, seed: int) -> dict:
    ideal = _process(cfg["ideal"], "$.ideal")
    members = tuple(
        _process(h, f"$.hypotheses[{i}]")
        for i, h in enumerate(cfg["hypotheses"])
    )
    try:
        hset = HypothesisSet(members)
        scfg = StoppingConfig(
            p=cfg["p"],
            q=cfg.get("q", 0.0),
            eps_d=cfg.get("eps_d", 0.0),
            r=cfg.get("r", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"$: {exc}") from exc
    try:
        as_probvector(cfg["prior"])
    except ValueError as exc:
        raise ConfigError(f"$.prior: {exc}") from exc
    trials = cfg["trials"]
    max_steps = cfg.get("max_steps", 10_000)
    if trials * max_steps > _STEP_BUDGET:
        raise ComputationRefused(
            f"{trials} x {max_steps} steps exceeds the budget {_STEP_BUDGET}"
        )
    report = mc_sample_complexity(
        ideal, hset, cfg["prior"], scfg, trials, seed, max_steps=max_steps
    )
    try:
        _member_index(ideal, hset)
        analytic = expected_sc_evaluator(
            ideal, hset, cfg["prior"], cfg["p"], seed=seed
        ).to_json()
    except ValueError:
        analytic = None
    trace = _posterior_trace(ideal, hset, cfg["prior"], scfg, seed, 50)
    decided = report.dist.censored < trials
    return {
        "decision_histogram": report.decisions,
        "stopping_moments": list(report.moments(4)) if decided else None,
        "mean_stopping_time": report.mean() if decided else None,
        "censored": report.dist.censored,
        "analytic_expected_t": analytic,
        "ci": _mean_ci(report),
        "table": {
            "columns": ["t"]
            + [f"posterior_{i}" for i in range(len(members))],
            "rows": trace,
        },
    }


def _run_novelty(cfg: dict, seed: int) -> dict:
    ideal = _process(cfg["ideal"], "$.ideal")
    members = tuple(
        _process(h, f"$.hypotheses[{i}]")
        for i, h in enumerate(cfg["hypotheses"])
    )
    try:
        hset = HypothesisSet(members)
        scfg = StoppingConfig(p=1.0, q=cfg["q"], eps_d=0.0, r=0.0)
    except ValueError as exc:
        raise ConfigError(f"$: {exc}") from exc
    trials, budget = cfg["trials"], cfg["budget"]
    if trials * budget > _STEP_BUDGET:
        raise ComputationRefused(
            f"{trials} x {budget} steps exceeds the budget {_STEP_BUDGET}"
        )
    uniform = [1.0 / len(members)] * len(members)
    report = mc_sample_complexity(
        ideal, hset, uniform, scfg, trials, seed, max_steps=budget
    )
    bounds = [
        falsification_bounds(ideal, m, cfg["q"]) for m in members
    ]
    combined = [max(b[0] for b in bounds), max(b[1] for b in bounds)]
    falsified = report.decisions[DecisionStatus.FALSIFIED.value]
    times = sorted(
        t for t, c in report.dist.counts.items() for _ in range(c)
    )
    median = times[len(times) // 2] if times else None
    rows = [
        [i, bounds[i][0], bounds[i][1]] for i in range(len(members))
    ]
    return {
        "falsified_fraction": falsified / trials,
        "median_stopping_time": median,
        "decision_histogram": report.decisions,
        "censored": report.dist.censored,
        "falsification_bounds": combined,
        "per_member_bounds": [[b[0], b[1]] for b in bounds],
        "table": {
            "columns": ["member", "lower", "upper"],
            "rows": rows,
        },
    }


def _run_figure3(cfg: dict, seed: int) -> dict:
    spec = _process(cfg["spec"], "$.spec")
    p, q, t_max = cfg["p"], cfg["q"], cfg["t_max"]
    rate = entropy_rate(spec)
    rows = []
    for t in range(1, t_max + 1):
        lo_p, hi_p = typical_set_bounds(spec, t, p)
        lo_q, hi_q = typical_set_bounds(spec, t, q)
        rows.append([t, lo_p, hi_p, lo_q, hi_q])
    return {
        "entropy_rate": rate,
        "step_ratio": 2.0**-rate,
        "table": {
            "columns": ["t", "lower_p", "upper_p", "lower_q", "upper_q"],
            "rows": rows,
        },
    }


def run_experiment(cfg: dict, seed: int) -> dict:
    """Dispatch a validated config; returns the payload dict."""
    kind = cfg["kind"]
    if kind == "identify":
        return _run_identify(cfg, seed)
    if kind == "scdist":
        return _run_scdist(cfg, seed)
    if kind == "sample":
        return _run_sample(cfg, seed)
    if kind == "spread":
        return _run_spread(cfg, seed)
    if kind == "bayes":
        return _run_bayes(cfg, seed)
    if kind == "novelty":
        return _run_novelty(cfg, seed)
    if kind == "figure3":
        return _run_figure3(cfg, seed)
    raise ConfigError(f"$.kind: unknown kind {kind!r}")


def _sanitize(node: object) -> object:
    """Replace non-finite floats so the record is strict JSON."""
    if isinstance(node, float) and not math.isfinite(node):
        return repr(node)
    if isinstance(node, dict):
        return {k: _sanitize(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_sanitize(v) for v in node]
    return node


def _write_output(record: dict, fmt: str, out: str | None) -> None:
    if fmt == "csv":
        text = _csv_text(record["payload"]["table"])
    else:
        text = json.dumps(_sanitize(record), sort_keys=True, indent=2) + "\n"
    if out is None:
        out_dir = os.environ.get(_OUT_DIR_VAR)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            out = os.path.join(
                out_dir, f"{record['config']['kind']}.{fmt}"
            )
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        cfg = validate_config(raw)
    except ConfigError as exc:
        print(f"config invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    started = time.monotonic()
    try:
        payload = run_experiment(cfg, seed)
    except ConfigError as exc:
        print(f"config invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ComputationRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    duration = time.monotonic() - started
    record = {
        "config": {**cfg, "seed": seed},
        "payload": payload,
        "meta": {"duration_s": duration, "version": __version__},
    }
    _write_output(record, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: named analytic/oracle pairs


def _verify_pairwise_enumeration(args) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    max_l = args.L or 8
    for L in range(1, max_l + 1):
        for K in range(0, L + 1):
            dist = pairwise_verification(L) if K == 0 else PairwiseSCDist(L, K)
            oracle = enumerate_orderings_oracle("0" * L, "1" * K + "0" * (L - K))
            exact = all(
                dist.pmf(i) == oracle.pmf(i) for i in dist.support()
            ) and sum(oracle.pmf(i) for i in dist.support()) == 1
            ok = ok and exact
            lines.append(
                f"L={L} K={K}: {'exact match' if exact else 'MISMATCH'}"
            )
    return ok, lines


def _verify_expected_sc_mc(args) -> tuple[bool, list[str]]:
    fair = IidSpec.from_probs([0.5, 0.5])
    hset = HypothesisSet((fair, IidSpec.from_probs([0.1, 0.9])))
    prior = [0.5, 0.5]
    analytic = expected_sc_evaluator(fair, hset, prior, 0.9, seed=args.seed)
    mc = expected_sc_evaluator(
        fair, hset, prior, 0.9, seed=args.seed, exact_t_max=0
    )
    tol = args.tolerance if args.tolerance is not None else 0.0
    assert mc.ci is not None
    lo, hi = mc.ci[0] - tol, mc.ci[1] + tol
    ok = lo <= analytic.value <= hi
    lines = [
        f"analytic crossing: {analytic.value:.6g} ({analytic.method})",
        f"monte-carlo crossing: {mc.value:.6g}, 95% CI "
        f"[{mc.ci[0]:.6g}, {mc.ci[1]:.6g}]",
        f"containment: {'pass' if ok else 'FAIL'}",
    ]
    return ok, lines


def _verify_coin_bits(args) -> tuple[bool, list[str]]:
    probs = json.loads(args.spec) if args.spec else [0.25, 0.75]
    spec = IidSpec.from_probs(probs)
    trials = args.trials or 100_000
    counts = [0] * spec.alphabet_size
    total_bits = 0
    for i in range(trials):
        source = BitSource(f"{args.seed}:{i}")
        counts[sample_discrete(spec, source)] += 1
        total_bits += source.bits_consumed
    mean_bits = total_bits / trials
    h = entropy(spec.dist)
    in_band = h <= mean_bits < h + 2.0
    tol = args.tolerance if args.tolerance is not None else 0.01
    tv = total_variation(
        {s: counts[s] / trials for s in range(len(counts))},
        {s: spec.dist[s] for s in range(len(spec.dist))},
    )
    freq_ok = tv <= tol
    lines = [
        f"mean bits/draw: {mean_bits:.6g}, entropy: {h:.6g}, "
        f"band [H, H+2): {'pass' if in_band else 'FAIL'}",
        f"frequency TV: {tv:.6g} vs tolerance {tol:g}: "
        f"{'pass' if freq_ok else 'FAIL'}",
    ]
    return in_band and freq_ok, lines


_VERIFY_PAIRS = {
    "pairwise-enumeration": _verify_pairwise_enumeration,
    "expected-sc-mc": _verify_expected_sc_mc,
    "coin-bits": _verify_coin_bits,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    handler = _VERIFY_PAIRS.get(args.pair)
    if handler is None:
        known = ", ".join(sorted(_VERIFY_PAIRS))
        print(
            f"unknown pair {args.pair!r}; known pairs: {known}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    ok, lines = handler(args)
    for line in lines:
        print(line)
    print(f"verify {args.pair}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_emit_schema(_args: argparse.Namespace) -> int:
    print(json.dumps(_schema(), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samplex",
        description="identification, sample complexity, and novelty "
        "experiments over finite hypothesis sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("--config", required=True, help="path to a JSON config")
    run.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    run.add_argument("--out", default=None, help="output path")
    run.add_argument("--format", choices=("csv", "json"), default="json")
    run.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility (must be >= 1); Monte Carlo "
        "trials run in one thread and results never depend on it",
    )
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser(
        "verify", help="run a named analytic/oracle verification pair"
    )
    verify.add_argument(
        "--pair", required=True, help=", ".join(sorted(_VERIFY_PAIRS))
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the stochastic-check tolerance",
    )
    verify.add_argument("--spec", default=None, help="JSON probability list")
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--L", type=int, default=None)
    verify.set_defaults(func=_cmd_verify)

    schema = sub.add_parser("emit-schema", help="print the config schema")
    schema.set_defaults(func=_cmd_emit_schema)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("threads must be >= 1", file=sys.stderr)
        return EXIT_INVALID
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
