"""Command-line front end: reproducible experiment runs from JSON
configs, analytic-vs-oracle verification pairs, and the config schema.

Exit codes: 0 success, 1 verification failure, 2 invalid config,
unknown name or unwritable output, 3 computation refused (budget or
horizon too large).
Result records split into a deterministic payload (identical bytes for
identical config + seed) and a meta block holding wall-clock duration
and the toolkit version.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import re
import sys
import time
from importlib import resources
from typing import NoReturn, Sequence

from . import __version__
from .bayes import (
    DecisionStatus,
    HypothesisSet,
    StoppingConfig,
    expected_sc_evaluator,
    falsification_bounds,
    mc_sample_complexity,
    posterior_trace,
    typical_band,
)
from .bitstrings import (
    SortedHypothesisSet,
    build_context_tree,
    identify_depth_first,
    identify_sorted,
    identify_tree,
)
from .info import (
    STEP_BUDGET,
    ComputationRefused,
    entropy,
    entropy_rate,
    total_variation,
)
from .processes import (
    BitSource,
    IidSpec,
    MarkovSpec,
    SpreadCode,
    spec_from_json,
    spread_decode,
    spread_encode,
    symbols,
)
from .scdist import (
    ORACLE_MAX_L,
    PairwiseSCDist,
    enumerate_orderings_oracle,
    pairwise_verification,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_REFUSED = 3

_ROW_LIMIT = 1_000_000  # table rows: figure3 t_max, scdist L
_OUT_DIR_VAR = "SAMPLEX_OUT"


class ConfigError(ValueError):
    """Invalid experiment config; message carries the field path."""


@functools.cache
def _schema() -> dict:
    text = (
        resources.files("samplex.schema")
        .joinpath("experiment-v1.json")
        .read_text()
    )
    return json.loads(text)


# ---------------------------------------------------------------------------
# schema validation: the JSON Schema 2020-12 keywords the shipped schema
# uses, reporting the paths and messages jsonschema 4.26 reports


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
    "null": lambda v: v is None,
    "number": _is_number,
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}
# a key a path writes as .key; "$" lets a final newline through here too
_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _at(path: str, key: str) -> str:
    """``path`` extended by an object key: ``.key``, or ``['key']``
    with backslashes and quotes escaped."""
    if _NAME.match(key):
        return f"{path}.{key}"
    return path + "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"


def _equal(a: object, b: object) -> bool:
    """JSON equality: true is not 1, in an array or object either."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _type(walk, types, value, schema, path):
    types = [types] if isinstance(types, str) else types
    if not any(_TYPES[t](value) for t in types):
        yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"


def _enum(walk, enum, value, schema, path):
    if not any(_equal(e, value) for e in enum):
        yield path, f"{value!r} is not one of {enum!r}"


def _const(walk, const, value, schema, path):
    if not _equal(const, value):
        yield path, f"{const!r} was expected"


def _bound(beyond, text: str):
    """A numeric bound's check: a number ``beyond`` the bound fails."""
    def check(walk, bound, value, schema, path):
        if _is_number(value) and beyond(value, bound):
            yield path, f"{value!r} is {text} {bound!r}"
    return check


def _min_items(walk, bound, value, schema, path):
    if isinstance(value, list) and len(value) < bound:
        yield path, f"{value!r} {'should be non-empty' if bound == 1 else 'is too short'}"


def _required(walk, names, value, schema, path):
    if isinstance(value, dict):
        for name in names:
            if name not in value:
                yield path, f"{name!r} is a required property"


def _properties(walk, properties, value, schema, path):
    if isinstance(value, dict):
        for name, sub in properties.items():
            if name in value:
                yield from walk.errors(sub, value[name], _at(path, name))


def _additional(walk, sub, value, schema, path):
    if not isinstance(value, dict):
        return
    extras = [k for k in value if k not in schema.get("properties", {})]
    if isinstance(sub, dict):
        for key in extras:
            yield from walk.errors(sub, value[key], _at(path, key))
    elif not sub and extras:
        verb = "was" if len(extras) == 1 else "were"
        names = ", ".join(map(repr, sorted(extras)))
        yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


def _items(walk, sub, value, schema, path):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from walk.errors(sub, item, f"{path}[{i}]")


def _pattern(walk, pattern, value, schema, path):
    # a search, so "^...$" lets a final newline through
    if isinstance(value, str) and not re.search(pattern, value):
        yield path, f"{value!r} does not match {pattern!r}"


def _all_of(walk, subs, value, schema, path):
    for sub in subs:
        yield from walk.errors(sub, value, path)


def _if(walk, condition, value, schema, path):
    branch = "then" if next(walk.errors(condition, value, path), None) is None else "else"
    if branch in schema:
        yield from walk.errors(schema[branch], value, path)


def _ref(walk, ref, value, schema, path):
    target = walk.root
    for part in ref.removeprefix("#/").split("/"):
        target = target[part]
    yield from walk.errors(target, value, path)


# the check of each keyword the walk implements; "then" and "else" are
# read by "if", "$defs" by "$ref", and every other key is skipped
_CHECKS = {
    "type": _type,
    "enum": _enum,
    "const": _const,
    "minimum": _bound(lambda v, b: v < b, "less than the minimum of"),
    "maximum": _bound(lambda v, b: v > b, "greater than the maximum of"),
    "exclusiveMinimum": _bound(lambda v, b: v <= b, "less than or equal to the minimum of"),
    "minItems": _min_items,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional,
    "items": _items,
    "pattern": _pattern,
    "allOf": _all_of,
    "if": _if,
    "$ref": _ref,
}


class _SchemaWalk:
    """Validation against ``root``.  ``iter_errors`` yields an error as a
    ``(json_path, message)`` pair, keyword by keyword in the schema's
    order, so that the first error by path is the one jsonschema picks."""

    def __init__(self, root: dict) -> None:
        self.root = root

    def iter_errors(self, value: object):
        return self.errors(self.root, value, "$")

    def errors(self, schema: dict | bool, value: object, path: str):
        if schema is True:
            return
        for key, arg in schema.items():  # type: ignore[union-attr]
            check = _CHECKS.get(key)
            if check is not None:
                yield from check(self, arg, value, schema, path)


@functools.cache
def _validator() -> _SchemaWalk:
    """The schema validator, built once per process."""
    return _SchemaWalk(_schema())


@contextlib.contextmanager
def _field(path: str):
    """Re-raise a library ``ValueError`` as a ``ConfigError`` at ``path``;
    a ``ConfigError`` already names its field and passes through."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _process(node: object, path: str) -> IidSpec | MarkovSpec:
    """Build the process a config node describes.  One the schema admits
    but the model rejects (weights that do not sum to 1, a reducible
    chain) is a config error at ``path``.  Every kind needs a chain's
    stationary law, so a reducible chain is refused whatever its start."""
    if isinstance(node, list):
        node = {"kind": "iid", "probs": node}
    with _field(path):
        spec = spec_from_json(node)  # type: ignore[arg-type]
        spec.stationary_distribution()
    return spec


def validate_config(cfg: object) -> dict:
    """Schema-validate a config; returns it as a dict.  The schema picks
    each branch by a value's type or ``kind``, so every error is at the
    field of the branch the value selected; the first by path is raised.
    The cross-field constraints the schema lists under x-constraints are
    refused by the library objects a run builds, each at its field's path."""
    first = min(_validator().iter_errors(cfg), key=lambda e: e[0], default=None)
    if first is not None:
        raise ConfigError(": ".join(first))
    return cfg  # type: ignore[return-value]  # the schema's root is an object


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
# kind handlers


def _check_budget(runs: int, length: int) -> None:
    """Refuse ``runs`` runs of ``length`` symbols past the step budget."""
    if runs * length > STEP_BUDGET:
        raise ComputationRefused(
            f"{runs} x {length} symbols exceeds the step budget {STEP_BUDGET}"
        )


# the deciders in ``table.rows`` order; each looks its function up when
# called, so a wrapper later bound to the module name sees the call
_DECIDERS = (
    ("sorted", lambda hset, query, r: identify_sorted(hset, query, r)),
    ("depth-first", lambda hset, query, r: identify_depth_first(hset, query, r)),
    ("tree", lambda hset, query, r: identify_tree(build_context_tree(hset), query, r)),
)


def _run_identify(cfg: dict, seed: int, meta: dict) -> dict:
    with _field("$.members"):
        hset = SortedHypothesisSet.from_unsorted(cfg["members"])
    algorithm = cfg.get("algorithm", "all")
    # the schema's query pattern lets a final newline through
    with _field("$.query"):
        outcomes = {
            name: decide(hset, cfg["query"], cfg["r"])
            for name, decide in _DECIDERS
            if algorithm in ("all", name)
        }
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


def _run_scdist(cfg: dict, seed: int, meta: dict) -> dict:
    L, K = cfg["L"], cfg["K"]
    with _field("$.K"):
        dist = pairwise_verification(L) if K == 0 else PairwiseSCDist(L, K)
    if L > _ROW_LIMIT:
        raise ComputationRefused(f"length {L} beyond the row limit {_ROW_LIMIT}")
    meta["arithmetic"] = "float" if isinstance(dist.pmf(1), float) else "rational"
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


def _tally(spec, t: int, trials: int, seed: int) -> tuple[list[int], int]:
    """Symbol counts and fair bits read over ``trials`` runs of ``t``
    symbols, run i drawing from the source seeded ``"{seed}:{i}"``.

    One source is reseeded for each run.  A memoryless walk never
    changes state and reads its position from the source at each draw,
    so every run reads on from one stream; a chain draws its start
    context again, so each run opens its own."""
    counts = [0] * spec.alphabet_size
    total_bits = 0
    source = BitSource(f"{seed}:0")
    stream = symbols(spec, source) if spec.memory == 0 else None
    for i in range(trials):
        source.reseed(f"{seed}:{i}")
        for sym in itertools.islice(stream or symbols(spec, source), t):
            counts[sym] += 1
        total_bits += source.bits_consumed
    return counts, total_bits


def _run_sample(cfg: dict, seed: int, meta: dict) -> dict:
    spec = _process(cfg["spec"], "$.spec")
    t, trials = cfg["t"], cfg["trials"]
    _check_budget(trials, t)
    counts, total_bits = _tally(spec, t, trials, seed)
    meta.update(symbols=t * trials, fair_bits=total_bits)
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


def _run_spread(cfg: dict, seed: int, meta: dict) -> dict:
    components = tuple(
        _process(probs, f"$.components[{i}]")
        for i, probs in enumerate(cfg["components"])
    )
    message: str = cfg["message"]
    with _field("$.components"):
        code = SpreadCode(len(message), components)
    t, trials = cfg["t"], cfg["trials"]
    _check_budget(trials, t)
    msg_errors = 0
    bit_errors = 0
    conf_total = 0.0
    total_bits = 0
    source = BitSource(f"{seed}:0")
    for i in range(trials):
        source.reseed(f"{seed}:{i}")
        # the library refuses a symbol with no component, such as the
        # final newline the schema's pattern lets through
        with _field("$.message"):
            observed = spread_encode(code, message, t, source)
        total_bits += source.bits_consumed
        decoded = spread_decode(code, observed)
        wrong = sum(
            1
            for pos, ch in enumerate(message)
            if decoded.bits[pos] != int(ch)
        )
        bit_errors += wrong
        msg_errors += 1 if wrong else 0
        conf_total += sum(decoded.confidences) / len(message)
    meta.update(symbols=t * trials, fair_bits=total_bits)
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


@contextlib.contextmanager
def _phase(meta: dict, key: str):
    """Record the seconds the block takes in ``meta[key]``."""
    started = time.perf_counter()
    yield
    meta[key] = time.perf_counter() - started


def _stopping_setup(cfg: dict, prior: list, stopping_fields: dict, max_steps: int):
    """The checks ``bayes`` and ``novelty`` share, each at its field and
    all before any trial; returns the ideal, the hypothesis set and the
    stopping config."""
    ideal = _process(cfg["ideal"], "$.ideal")
    members = tuple(
        _process(h, f"$.hypotheses[{i}]")
        for i, h in enumerate(cfg["hypotheses"])
    )
    with _field("$.hypotheses"):
        hset = HypothesisSet(members)
    with _field("$.q"):
        scfg = StoppingConfig(**stopping_fields)
    with _field("$.prior"):
        hset.log_prior(prior)
    _check_budget(cfg["trials"], max_steps)
    with _field("$.ideal"):
        hset.check_ideal(ideal)
    return ideal, hset, scfg


def _mean_ci(report) -> list[float] | None:
    # summed in the report's count order: another order moves the last bits
    times = [t for t, c in report.dist.counts.items() for _ in range(c)]
    if not times:
        return None
    n = len(times)
    mean = sum(times) / n
    var = sum((x - mean) ** 2 for x in times) / n
    half = 1.96 * math.sqrt(var / n)
    return [mean - half, mean + half]


def _run_bayes(cfg: dict, seed: int, meta: dict) -> dict:
    # the config's defaults for q, eps_d and r are StoppingConfig's
    stopping_fields = {k: cfg[k] for k in ("p", "q", "eps_d", "r") if k in cfg}
    max_steps = cfg.get("max_steps", 10_000)
    ideal, hset, scfg = _stopping_setup(cfg, cfg["prior"], stopping_fields, max_steps)
    with _phase(meta, "trials_s"):
        report = mc_sample_complexity(
            ideal, hset, cfg["prior"], scfg, cfg["trials"], seed, max_steps=max_steps
        )
    meta.update(
        trials=report.trials, symbols=report.symbols, fair_bits=report.fair_bits,
        decides=report.decides, censored=report.dist.censored,
    )
    analytic = None
    with _phase(meta, "evaluator_s"):
        # expected sample complexity is defined for a member ideal only
        if ideal in hset.members:
            analytic = expected_sc_evaluator(
                ideal, hset, cfg["prior"], cfg["p"], seed=seed
            ).to_json()
    with _phase(meta, "trace_s"):
        trace = posterior_trace(ideal, hset, cfg["prior"], scfg, seed, 50)
    decided = report.dist.censored < cfg["trials"]
    return {
        "decision_histogram": report.decisions,
        "stopping_moments": list(report.moments(4)) if decided else None,
        "mean_stopping_time": report.mean() if decided else None,
        "censored": report.dist.censored,
        "analytic_expected_t": analytic,
        "ci": _mean_ci(report),
        "table": {
            "columns": ["t"] + [f"posterior_{i}" for i in range(len(hset))],
            "rows": [[t, *probs] for t, probs in enumerate(trace)],
        },
    }


def _run_novelty(cfg: dict, seed: int, meta: dict) -> dict:
    n = len(cfg["hypotheses"])
    prior = [1.0 / n] * n
    ideal, hset, scfg = _stopping_setup(
        cfg, prior, {"p": 1.0, "q": cfg["q"]}, cfg["budget"]
    )
    bounds = []
    with _phase(meta, "bounds_s"):
        for i, m in enumerate(hset.members):
            with _field(f"$.hypotheses[{i}]"):
                bounds.append(falsification_bounds(ideal, m, cfg["q"]))
    with _phase(meta, "trials_s"):
        report = mc_sample_complexity(
            ideal, hset, prior, scfg, cfg["trials"], seed, max_steps=cfg["budget"]
        )
    meta.update(
        trials=report.trials, symbols=report.symbols, fair_bits=report.fair_bits,
        decides=report.decides, censored=report.dist.censored,
    )
    combined = [max(b[0] for b in bounds), max(b[1] for b in bounds)]
    falsified = report.decisions[DecisionStatus.FALSIFIED.value]
    times = sorted(
        t for t, c in report.dist.counts.items() for _ in range(c)
    )
    median = times[len(times) // 2] if times else None
    rows = [[i, b[0], b[1]] for i, b in enumerate(bounds)]
    return {
        "falsified_fraction": falsified / cfg["trials"],
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


def _run_figure3(cfg: dict, seed: int, meta: dict) -> dict:
    spec = _process(cfg["spec"], "$.spec")
    p, q, t_max = cfg["p"], cfg["q"], cfg["t_max"]
    if t_max > _ROW_LIMIT:
        raise ComputationRefused(f"t_max {t_max} beyond the row limit {_ROW_LIMIT}")
    rate = entropy_rate(spec)
    rows = []
    for t in range(1, t_max + 1):
        lo_p, hi_p = typical_band(rate, t, p)
        lo_q, hi_q = typical_band(rate, t, q)
        rows.append([t, lo_p, hi_p, lo_q, hi_q])
    return {
        "entropy_rate": rate,
        "step_ratio": 2.0**-rate,
        "table": {
            "columns": ["t", "lower_p", "upper_p", "lower_q", "upper_q"],
            "rows": rows,
        },
    }


# each kind's handler takes (cfg, seed, meta) and returns a JSON-ready
# payload with a "table" block
_KINDS = {
    "identify": _run_identify,
    "scdist": _run_scdist,
    "sample": _run_sample,
    "spread": _run_spread,
    "bayes": _run_bayes,
    "novelty": _run_novelty,
    "figure3": _run_figure3,
}


def run_experiment(cfg: dict, seed: int, meta: dict | None = None) -> dict:
    """Run a validated config through the handler of its kind; returns
    the payload dict.

    Work counters of the run (``symbols`` drawn and ``fair_bits`` read by
    ``sample`` and ``spread``, and by the stopping trials of ``bayes``
    and ``novelty``, which also count their ``trials`` and the
    ``decides`` calls of the stopping rule; ``scdist``'s
    ``arithmetic``, ``"rational"`` or ``"float"``) and per-phase
    seconds (``bayes``: ``trials_s``, ``evaluator_s``, ``trace_s``;
    ``novelty``: ``bounds_s``, ``trials_s``) go into ``meta`` when it is
    given; they never enter the payload.
    """
    handler = _KINDS.get(cfg["kind"])
    if handler is None:
        raise ConfigError(f"$.kind: unknown kind {cfg['kind']!r}")
    return handler(cfg, seed, {} if meta is None else meta)


def _sanitize(node: object) -> object:
    """Replace non-finite floats by their ``repr`` so the record is
    strict JSON.  ``_write_output`` builds this copy only when the strict
    encode of the record itself refuses a non-finite float."""
    if isinstance(node, float) and not math.isfinite(node):
        return repr(node)
    if isinstance(node, dict):
        return {k: _sanitize(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_sanitize(v) for v in node]
    return node


_SCALARS = frozenset({str, int, float, bool, type(None)})
_ROWS = frozenset({list, tuple})


@functools.cache
def _c_encode(sep: str):
    """CPython's C encoder with item separator ``sep``.  ``json.dumps``
    with ``indent`` runs the pure-Python encoder instead, so
    ``_json_parts`` lays out the indentation itself and hands each
    container of scalars to this one."""
    return json.JSONEncoder(
        sort_keys=True, allow_nan=False, separators=(sep, ": ")
    ).encode


def _json_parts(node: object, out: list[str], outer: str = "") -> list[str]:
    """Append to ``out``, and return it, the pieces of the text of
    ``json.dumps(node, sort_keys=True, indent=2, allow_nan=False)`` for a
    node whose closing bracket is indented by ``outer``.

    A container of scalars is one C call, and so is a list of non-empty
    lists of scalars (table rows): it is encoded with a NUL item
    separator, which no encoded string holds (``ensure_ascii`` escapes
    every control character), and two ``str.replace`` calls lay it out.
    Containers of containers recurse, keeping the Python encoder's order
    of keys and of errors.  The pieces are written out as they are, so
    a 10^6-row table is copied once per replace and not once per level.
    """
    inner = outer + "  "
    sep = ",\n" + inner
    if isinstance(node, dict):
        brackets = "{}"
        flat = _SCALARS.issuperset(map(type, node.values()))
        # a key is written as the encoder writes {key: 0}, less ": 0}"
        items = (
            (_c_encode(sep)({key: 0})[1:-4] + ": ", value)
            for key, value in sorted(node.items())
        )
    elif isinstance(node, (list, tuple)):
        brackets = "[]"
        flat = _SCALARS.issuperset(map(type, node))
        items = (("", item) for item in node)
    else:
        out.append(_c_encode(sep)(node))
        return out
    if not node:
        out.append(brackets)
        return out
    out.append(brackets[0] + "\n" + inner)
    if flat:
        out.append(_c_encode(sep)(node)[1:-1])
    elif (
        brackets == "[]"
        and _ROWS.issuperset(map(type, node))
        and all(node)
        and _SCALARS.issuperset(map(type, itertools.chain.from_iterable(node)))
    ):
        deeper = inner + "  "
        rows = _c_encode("\0")(node)[2:-2]
        rows = rows.replace("]\0[", f"\n{inner}]{sep}[\n{deeper}")
        out += ("[\n" + deeper, rows.replace("\0", ",\n" + deeper), "\n" + inner + "]")
    else:
        for k, (key, value) in enumerate(items):
            out.append(sep + key if k else key)
            _json_parts(value, out, inner)
    out.append("\n" + outer + brackets[1])
    return out


def _write_output(record: dict, fmt: str, out: str | None) -> None:
    if fmt == "csv":
        parts = [_csv_text(record["payload"]["table"])]
    else:
        try:
            parts = _json_parts(record, [])
        except ValueError:
            parts = _json_parts(_sanitize(record), [])
        parts.append("\n")
    if out is None:
        out_dir = os.environ.get(_OUT_DIR_VAR)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            out = os.path.join(
                out_dir, f"{record['config']['kind']}.{fmt}"
            )
    if out is None:
        sys.stdout.writelines(parts)
    else:
        with open(out, "w") as fh:
            fh.writelines(parts)
        print(f"wrote {out}", file=sys.stderr)


def _not_json(constant: str) -> NoReturn:
    """``parse_constant`` hook: the schema's bounds would pass a NaN."""
    raise ValueError(f"{constant} is not a JSON number")


def _finite(literal: str) -> float:
    """``parse_float`` hook: a literal past the float range, such as
    ``1e999``, is JSON but would read as an infinity."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite number")
    return value


def _read_json(text: str) -> object:
    """Strict JSON: no NaN, no infinity, written or overflowing."""
    return json.loads(text, parse_constant=_not_json, parse_float=_finite)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.config) as fh:
            raw = _read_json(fh.read())
    except (OSError, ValueError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": args.seed}  # the schema bounds the override too
    meta: dict = {}
    try:
        cfg = validate_config(raw)
        seed = cfg.get("seed", 0)
        started = time.monotonic()
        payload = run_experiment(cfg, seed, meta)
    except ConfigError as exc:
        print(f"config invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    duration = time.monotonic() - started
    record = {
        "config": {**cfg, "seed": seed},
        "payload": payload,
        "meta": {**meta, "duration_s": duration, "version": __version__},
    }
    try:
        _write_output(record, args.format, args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: named analytic/oracle pairs


def _verify_pairwise_enumeration(args) -> tuple[bool, list[str]]:
    max_l = 8 if args.L is None else args.L
    if max_l > ORACLE_MAX_L:
        raise ComputationRefused(
            f"--L {max_l} exceeds the {ORACLE_MAX_L}-symbol limit of the "
            "reveal-order oracle"
        )
    lines = []
    ok = True
    for L in range(1, max_l + 1):
        for K in range(0, L + 1):
            dist = pairwise_verification(L) if K == 0 else PairwiseSCDist(L, K)
            oracle = enumerate_orderings_oracle("0" * L, "1" * K + "0" * (L - K))
            exact = all(
                dist.pmf(i) == oracle.pmf(i) and dist.cdf(i) == oracle.cdf(i)
                for i in dist.support()
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


def _spec_option(text: str | None) -> IidSpec:
    """The iid spec a ``--spec`` JSON probability list describes."""
    if text is None:
        return IidSpec.from_probs([0.25, 0.75])
    try:
        probs = _read_json(text)
    except ValueError as exc:
        raise ConfigError(f"--spec: not JSON ({exc})") from exc
    walk = _validator()
    errors = walk.errors(walk.root["$defs"]["probs"], probs, "--spec")
    first = min(errors, key=lambda e: e[0], default=None)
    if first is not None:
        raise ConfigError(": ".join(first))
    return _process(probs, "--spec")  # type: ignore[return-value]


def _verify_coin_bits(args) -> tuple[bool, list[str]]:
    spec = _spec_option(args.spec)
    trials = 100_000 if args.trials is None else args.trials
    _check_budget(trials, 1)
    counts, total_bits = _tally(spec, 1, trials, args.seed)
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
    try:
        ok, lines = handler(args)
    except ConfigError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return EXIT_INVALID
    for line in lines:
        print(line)
    print(f"verify {args.pair}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_emit_schema(_args: argparse.Namespace) -> int:
    print(json.dumps(_schema(), indent=2))
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each ``parse_args`` call
    starts from a fresh namespace, so no call sees the one before."""
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
        type=_positive_int,
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
        type=_tolerance,
        default=None,
        help="override the stochastic-check tolerance (finite, >= 0)",
    )
    verify.add_argument("--spec", default=None, help="JSON probability list")
    verify.add_argument(
        "--trials", type=_positive_int, default=None, help="draws (>= 1)"
    )
    verify.add_argument(
        "--L",
        type=_positive_int,
        default=None,
        help=f"longest length checked (1 to {ORACLE_MAX_L})",
    )
    verify.set_defaults(func=_cmd_verify)

    schema = sub.add_parser("emit-schema", help="print the config schema")
    schema.set_defaults(func=_cmd_emit_schema)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ComputationRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
