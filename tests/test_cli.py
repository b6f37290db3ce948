"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import tempfile
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import samplex.bayes
from samplex import (
    HypothesisSet,
    IidSpec,
    StoppingConfig,
    entropy,
    spec_from_json,
    typical_set_bounds,
)
from samplex.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_VERIFY_FAILED,
    ConfigError,
    _CHECKS,
    _SchemaWalk,
    _json_parts,
    _sanitize,
    _write_output,
    main,
    validate_config,
)

from oracles import exact_stationary, mc_stopping_reference, schema_with_process_oneof

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BAYES_CFG = {
    "kind": "bayes",
    "ideal": [0.5, 0.5],
    "hypotheses": [[0.5, 0.5], [0.1, 0.9]],
    "prior": [0.5, 0.5],
    "p": 0.9,
    "trials": 300,
    "max_steps": 2000,
    "seed": 11,
}

NOVELTY_CFG = {
    "kind": "novelty",
    "ideal": [0.5, 0.5],
    "hypotheses": [[0.1, 0.9], [0.05, 0.95]],
    "q": 0.5,
    "trials": 20,
    "budget": 200,
    "seed": 5,
}

# a non-member ideal, so no evaluator runs, and trials that average 190
# steps and reach past the verdict table's rows in a capped run; the
# digest is the payload of the step-by-step trial loop
LONG_BAYES_CFG = {
    "kind": "bayes",
    "ideal": [0.5, 0.5],
    "hypotheses": [[0.45, 0.55], [0.4, 0.6]],
    "prior": [0.5, 0.5],
    "p": 0.95,
    "trials": 200,
    "max_steps": 5000,
    "seed": 3,
}
LONG_BAYES_DIGEST = "bbd56d0556ea68259fed70fad3b1114d64b4157460b4827b82f357a172000b92"


SPREAD_CFG = {
    "kind": "spread",
    "message": "01",
    "components": [[0.7, 0.3], [0.3, 0.7]],
    "t": 20,
    "trials": 2,
}

SAMPLE_CFG = {
    "kind": "sample",
    "spec": [0.2, 0.3, 0.5],
    "t": 50,
    "trials": 40,
    "seed": 9,
}


def markov1(zero_after_0: float, zero_after_1: float) -> dict:
    return {
        "kind": "markov",
        "memory": 1,
        "alphabet": 2,
        "transitions": {
            "0": [zero_after_0, 1 - zero_after_0],
            "1": [zero_after_1, 1 - zero_after_1],
        },
    }


def markov2_three_symbols() -> dict:
    rows = [[0.5, 0.25, 0.25], [0.125, 0.625, 0.25], [0.25, 0.25, 0.5]]
    return {
        "kind": "markov",
        "memory": 2,
        "alphabet": 3,
        "transitions": {
            f"{a}{b}": rows[(a + 2 * b) % 3] for a in range(3) for b in range(3)
        },
    }


def markov_bayes_cfg(ideal: dict, other: dict) -> dict:
    return {
        "kind": "bayes",
        "ideal": ideal,
        "hypotheses": [ideal, other],
        "prior": [0.5, 0.5],
        "p": 0.9,
        "trials": 20,
        "max_steps": 200,
        "seed": 3,
    }


def write_config(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def assert_invalid_at(tmp_path: Path, capsys, cfg: dict, path: str) -> None:
    """``cfg`` runs to exit 2, refused at ``path`` with no traceback."""
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"config invalid: {path}:" in err
    assert "Traceback" not in err


def run_to_file(tmp_path: Path, cfg: dict, *extra: str) -> dict:
    out = tmp_path / "result.json"
    code = main(
        [
            "run",
            "--config",
            write_config(tmp_path, cfg),
            "--out",
            str(out),
            *extra,
        ]
    )
    assert code == EXIT_OK
    return json.loads(out.read_text())


class TestValidateConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            validate_config({"kind": "ouija"})

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match=r"\$"):
            validate_config({"kind": "scdist", "L": 4})

    def test_process_shapes_are_interchangeable(self):
        bare = validate_config(BAYES_CFG)
        tagged = validate_config(
            dict(BAYES_CFG, ideal={"kind": "iid", "probs": [0.5, 0.5]})
        )
        assert bare["kind"] == tagged["kind"] == "bayes"

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError):
            validate_config(dict(BAYES_CFG, trials=0))


class TestBundledConfigs:
    def test_directory_is_complete(self):
        names = {p.stem for p in CONFIG_DIR.glob("*.json")}
        assert names == {
            "identify",
            "scdist",
            "sample",
            "spread",
            "bayes",
            "novelty",
            "figure3",
        }

    @pytest.mark.parametrize(
        "name", ["identify", "scdist", "bayes", "novelty", "figure3"]
    )
    def test_bundled_config_runs_clean(self, tmp_path, name):
        out = tmp_path / "out.json"
        code = main(
            [
                "run",
                "--config",
                str(CONFIG_DIR / f"{name}.json"),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert set(record) == {"config", "payload", "meta"}
        assert record["config"]["kind"] == name
        assert "table" in record["payload"]

    # the first 1 rules member 0 out and verifies member 1, at a step
    # of mean 5 000: about one trial in seven runs past 10 000 steps, so
    # the payload shows the step cap
    SLOW_BAYES_CFG = {
        "kind": "bayes",
        "ideal": [0.9998, 0.0002],
        "hypotheses": [[1.0, 0.0], [0.999, 0.001]],
        "prior": [0.5, 0.5],
        "p": 1.0,
        "trials": 20,
    }

    def test_an_omitted_field_takes_its_declared_default(self, tmp_path):
        # every field a kind's branch declares a default for, run without
        # the field and with it set, from the kind's bundled config (bayes:
        # SLOW_BAYES_CFG)
        declared = [
            (branch["if"]["properties"]["kind"]["const"], field, spec["default"])
            for branch in _shipped_schema()["allOf"]
            for field, spec in branch["then"]["properties"].items()
            if isinstance(spec, dict) and "default" in spec
        ]
        assert {(kind, field) for kind, field, _ in declared} == {
            ("identify", "algorithm"),
            ("scdist", "moments"),
            ("bayes", "q"),
            ("bayes", "eps_d"),
            ("bayes", "r"),
            ("bayes", "max_steps"),
        }
        for kind, field, default in declared:
            cfg = (
                self.SLOW_BAYES_CFG
                if kind == "bayes"
                else json.loads((CONFIG_DIR / f"{kind}.json").read_text())
            )
            omitted = {key: value for key, value in cfg.items() if key != field}
            payloads = [
                json.dumps(run_to_file(tmp_path, c)["payload"], sort_keys=True)
                for c in (omitted, {**cfg, field: default})
            ]
            assert payloads[0] == payloads[1], (kind, field)

    def test_sample_and_spread_validate(self):
        # these two run longer; executed in the acceptance suite
        for name in ("sample", "spread"):
            raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
            validate_config(raw)


class TestExitCodes:
    def test_unreadable_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == EXIT_INVALID
        assert "cannot read" in capsys.readouterr().err

    # json.dumps writes NaN, Infinity and -Infinity, which JSON lacks
    @pytest.mark.parametrize(
        "text, reason",
        [
            (
                json.dumps({"kind": "figure3", "spec": [0.5, 0.5], "p": math.nan,
                            "q": 0.5, "t_max": 3}),
                "NaN is not a JSON number",
            ),
            (
                json.dumps({"kind": "identify", "members": ["0"], "query": "01",
                            "r": math.nan}),
                "NaN is not a JSON number",
            ),
            (json.dumps({**BAYES_CFG, "eps_d": math.nan}), "NaN is not a JSON number"),
            (
                json.dumps({**BAYES_CFG, "eps_d": math.inf}),
                "Infinity is not a JSON number",
            ),
            (
                json.dumps({**NOVELTY_CFG, "q": -math.inf}),
                "-Infinity is not a JSON number",
            ),
            ('{"kind": "scdist", "L": 3, "K": 1, "x": "\udcff"}', "can't decode"),
            # past the float range: JSON, but it reads as an infinity
            (json.dumps(BAYES_CFG)[:-1] + ', "eps_d": 1e999}', "1e999 is not a finite number"),
            (json.dumps(NOVELTY_CFG)[:-1] + ', "q": -1e999}', "-1e999 is not a finite number"),
        ],
        ids=["figure3-nan", "identify-nan", "bayes-nan", "bayes-infinity",
             "novelty-minus-infinity", "not-utf-8", "bayes-overflow",
             "novelty-minus-overflow"],
    )
    def test_configs_that_are_not_json_are_unreadable(
        self, tmp_path, capsys, text, reason
    ):
        path = tmp_path / "cfg.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["run", "--config", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("cannot read config:") and reason in err
        assert "Traceback" not in err

    def test_missing_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_INVALID

    def test_invalid_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "ouija"})
        assert main(["run", "--config", path]) == EXIT_INVALID
        assert "config invalid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seed, code",
        [("-1", EXIT_INVALID), ("0", EXIT_OK),
         (str(2**64 - 1), EXIT_OK), (str(2**64), EXIT_INVALID)],
    )
    def test_a_seed_override_is_held_to_the_schema(self, tmp_path, capsys, seed, code):
        out = tmp_path / "rec.json"
        argv = ["run", "--config", write_config(tmp_path, SAMPLE_CFG), "--seed", seed,
                "--out", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert ("config invalid: $.seed: " in err) == (code == EXIT_INVALID)
        assert "Traceback" not in err
        assert out.exists() == (code == EXIT_OK)

    @pytest.mark.parametrize("where", ["out", "env"])
    def test_an_unwritable_output_is_invalid(self, tmp_path, capsys, monkeypatch, where):
        argv = ["run", "--config", write_config(tmp_path, {"kind": "scdist", "L": 4, "K": 2})]
        if where == "out":
            argv += ["--out", str(tmp_path / "missing" / "x.json")]
        else:
            (tmp_path / "file").write_text("")
            monkeypatch.setenv("SAMPLEX_OUT", str(tmp_path / "file" / "results"))
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "cfg",
        [
            {**SAMPLE_CFG, "t": 100_000, "trials": 1_000},
            {**SPREAD_CFG, "t": 100_000, "trials": 1_000},
            {**BAYES_CFG, "trials": 100_000, "max_steps": 10_000},
            {**NOVELTY_CFG, "trials": 100_000, "budget": 1_000},
            {"kind": "figure3", "spec": [0.5, 0.5], "p": 0.9, "q": 0.5,
             "t_max": 1_000_001},
            {"kind": "scdist", "L": 1_000_001, "K": 1},
        ],
        ids=["sample", "spread", "bayes", "novelty", "figure3", "scdist"],
    )
    def test_oversized_run_is_refused(self, tmp_path, capsys, cfg):
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == EXIT_REFUSED
        err = capsys.readouterr().err
        assert err.startswith("refused:")
        assert "Traceback" not in err

    def test_novelty_refuses_a_member_before_any_trial(self, tmp_path, capsys, monkeypatch):
        import samplex.cli as cli

        def trials(*_args, **_kwargs):
            raise AssertionError("ran trials before the falsification bounds")

        monkeypatch.setattr(cli, "mc_sample_complexity", trials)
        cfg = {**NOVELTY_CFG, "hypotheses": [[1.0, 0.0]]}
        assert_invalid_at(tmp_path, capsys, cfg, "$.hypotheses[0]")

    def test_a_deep_chain_with_short_keys_is_invalid_at_once(self, tmp_path, capsys):
        # 2**40 contexts; the keys are refused without listing them
        cfg = {**SAMPLE_CFG, "spec": {**markov1(0.25, 0.5), "memory": 40}}
        started = time.perf_counter()
        assert_invalid_at(tmp_path, capsys, cfg, "$.spec")
        assert time.perf_counter() - started < 0.1

    # a transition key reads one character per symbol, so a chain's
    # alphabet stops at 10 symbols
    @pytest.mark.parametrize(
        "place, path",
        [("sample", "$.spec.alphabet"), ("bayes", "$.hypotheses[1].alphabet")],
    )
    def test_a_chain_over_11_symbols_is_invalid_at_its_alphabet(
        self, tmp_path, capsys, place, path
    ):
        law = [1 / 16] * 10 + [6 / 16]
        wide = {"kind": "markov", "memory": 1, "alphabet": 11,
                "transitions": {str(s): law for s in range(11)}}
        if place == "sample":
            cfg = {**SAMPLE_CFG, "spec": wide}
        else:
            cfg = {**BAYES_CFG, "hypotheses": [[0.5, 0.5], wide]}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"config invalid: {path}: 11 is greater than the maximum of 10" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["nope", 5])
    def test_an_unknown_process_kind_names_every_kind(self, tmp_path, capsys, kind):
        cfg = {"kind": "sample", "spec": {"kind": kind, "probs": [0.5, 0.5]}, "t": 3, "trials": 1}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"config invalid: $.spec.kind: {kind!r} is not one of ['iid', 'markov']" in err
        assert "Traceback" not in err

    def test_a_slowly_mixing_chain_runs_at_its_exact_rate(self, tmp_path, capsys):
        # leaves each state with probability about 1e-6, so its second
        # eigenvalue is 1 - 3e-6; its law is (2/3, 1/3)
        slow = {"kind": "markov", "memory": 1, "alphabet": 2, "transitions": {
            "0": [0.999999, 0.000001], "1": [0.000002, 0.999998],
        }}
        payload = run_to_file(tmp_path, {**SAMPLE_CFG, "spec": slow})["payload"]
        assert "Traceback" not in capsys.readouterr().err
        # the rows as the spec holds them: each last cell is 1 minus the rest
        rows = [law.dist.probs for law in spec_from_json(slow).transitions.values()]
        law = exact_stationary([[Fraction(p) for p in row] for row in rows])
        want = math.fsum(float(w) * entropy(row) for w, row in zip(law, rows))
        assert math.isclose(payload["entropy_rate_bits"], want, rel_tol=1e-12, abs_tol=0.0)

    def test_a_curve_past_the_step_budget_does_not_converge(
        self, tmp_path, capsys, monkeypatch
    ):
        import samplex.bayes

        # 50 horizons of the evaluator's 10 000 sequences; these members
        # cross exactly at t = 30 295.666, and under the real budget the
        # Monte Carlo curve still reads 0.707 bits at t = 5 016, against
        # a 0.152-bit target, so it ends not converged there too
        monkeypatch.setattr(samplex.bayes, "STEP_BUDGET", 50 * 10_000)
        cfg = {"kind": "bayes", "ideal": [0.5, 0.5], "hypotheses": [[0.5, 0.5], [0.49, 0.51]],
               "prior": [0.5, 0.5], "p": 0.9, "trials": 1, "max_steps": 10, "seed": 1}
        analytic = run_to_file(tmp_path, cfg)["payload"]["analytic_expected_t"]
        assert "Traceback" not in capsys.readouterr().err
        assert analytic["method"].startswith("not-converged")

    def test_zero_tolerance_verify_fails(self, capsys):
        code = main(
            [
                "verify",
                "--pair",
                "coin-bits",
                "--trials",
                "2000",
                "--tolerance",
                "0",
            ]
        )
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_verify_pair(self, capsys):
        assert main(["verify", "--pair", "astrology"]) == EXIT_INVALID
        assert "known pairs" in capsys.readouterr().err

    def test_bayes_q_must_not_exceed_p(self, tmp_path, capsys):
        assert_invalid_at(tmp_path, capsys, {**BAYES_CFG, "q": 0.95}, "$.q")

    def test_prior_length_must_match_hypotheses(self, tmp_path, capsys):
        cfg = {**BAYES_CFG, "prior": [0.2, 0.3, 0.5]}
        assert_invalid_at(tmp_path, capsys, cfg, "$.prior")

    def test_spread_message_symbols_need_components(self, tmp_path, capsys):
        cfg = {**SPREAD_CFG, "message": "012", "t": 50, "trials": 3}
        assert_invalid_at(tmp_path, capsys, cfg, "$.message")

    def test_a_bad_spec_is_invalid_before_the_row_limit(self, tmp_path, capsys):
        cfg = {"kind": "figure3", "spec": [0.5, 0.6], "p": 0.9, "q": 0.5,
               "t_max": 1_000_001}
        assert_invalid_at(tmp_path, capsys, cfg, "$.spec")

    def test_markov_member_far_crossing_is_refused(self, tmp_path, capsys):
        # the members differ only after a 1, so the expected-surprisal
        # crossing lies past the exact horizon, where the Monte Carlo
        # curve takes memoryless members only
        cfg = markov_bayes_cfg(markov1(0.0, 0.5), markov1(0.0, 0.375))
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == EXIT_REFUSED
        assert "refused:" in capsys.readouterr().err

    def test_a_twin_at_the_boundary_is_unreachable(self, tmp_path):
        # member 0's posterior 0.25 L5 / (0.5 L5 + 0.5 L9) stays below
        # p = 1/2 on every sequence, its ceiling
        cfg = {
            **BAYES_CFG,
            "hypotheses": [[0.5, 0.5], [0.5, 0.5], [0.1, 0.9]],
            "prior": [0.25, 0.25, 0.5],
            "p": 0.5,
            "trials": 50,
            "seed": 3,
        }
        analytic = run_to_file(tmp_path, cfg)["payload"]["analytic_expected_t"]
        assert analytic["method"] == "unreachable-threshold"

    def test_certainty_past_a_chain_with_no_zero_transition_runs(self, tmp_path):
        # the fair chain is never ruled out, so p = 1 is unreachable and
        # every trial runs to max_steps
        cfg = {**markov_bayes_cfg(markov1(0.3, 0.6), markov1(0.5, 0.5)), "p": 1.0}
        payload = run_to_file(tmp_path, cfg)["payload"]
        assert payload["analytic_expected_t"]["method"] == "unreachable-threshold"
        assert payload["decision_histogram"] == {
            "Falsified": 0, "PartiallyIdentified": 0, "Undetermined": 20, "Verified": 0
        }

    @pytest.mark.parametrize(
        "cfg, path",
        [
            ({**BAYES_CFG, "hypotheses": [[0.5, 0.5], [0.1, 0.95]]}, "$.hypotheses[1]"),
            ({**BAYES_CFG, "ideal": markov1(0.0, 0.0)}, "$.ideal"),  # reducible
            ({**BAYES_CFG, "prior": [0.3, 0.3]}, "$.prior"),
            ({**SPREAD_CFG, "components": [[0.5, 0.6], [0.1, 0.9]]}, "$.components[0]"),
            ({**SPREAD_CFG, "components": [[0.5, 0.5], [0.5, 0.5]]}, "$.components"),
            (  # reducible, started from a fixed context
                {**SAMPLE_CFG, "spec": {**markov1(0.0, 0.0), "init": {"context": "1"}}},
                "$.spec",
            ),
            # a declared alphabet the rows do not have
            ({**SAMPLE_CFG, "spec": {**markov1(0.25, 0.5), "alphabet": 7}}, "$.spec"),
            (  # transition keys that are not memory-1 contexts
                {**BAYES_CFG, "ideal": {**markov1(0.25, 0.5), "transitions": {
                    "0": [0.25, 0.75], "1": [0.5, 0.5], "2": [0.5, 0.5], "01": [0.5, 0.5],
                }}},
                "$.ideal",
            ),
            # members over different alphabets
            ({**BAYES_CFG, "hypotheses": [[0.5, 0.5], [0.2, 0.3, 0.5]]}, "$.hypotheses"),
            ({"kind": "scdist", "L": 4, "K": 5}, "$.K"),
        ],
    )
    def test_weights_the_model_rejects_are_invalid(self, tmp_path, capsys, cfg, path):
        assert_invalid_at(tmp_path, capsys, cfg, path)

    @pytest.mark.parametrize(
        "spec, path, text",
        [
            ({"kind": "iid", "probs": [0.5, 0.5], "x": 1}, "$.spec", "'x' was unexpected"),
            ({**markov1(0.25, 0.5), "x": 1}, "$.spec", "'x' was unexpected"),
            (
                {"kind": "nope", "probs": [0.5, 0.5]},
                "$.spec.kind",
                "'nope' is not one of ['iid', 'markov']",
            ),
            (
                {**markov1(0.25, 0.5), "init": {"context": "1", "x": 1}},
                "$.spec.init",
                "'x' was unexpected",
            ),
            ({**markov1(0.25, 0.5), "init": "foo"}, "$.spec.init", "'stationary' was expected"),
            ({**markov1(0.25, 0.5), "init": 5}, "$.spec.init", "'stationary' was expected"),
            ({**markov1(0.25, 0.5), "init": None}, "$.spec.init", "'stationary' was expected"),
            ({**markov1(0.25, 0.5), "init": {}}, "$.spec.init", "'context' is a required property"),
            (
                {**markov1(0.25, 0.5), "init": {"context": "1", "distribution": [0.5, 0.5]}},
                "$.spec.init",
                "'distribution' was unexpected",
            ),
            (
                {**markov1(0.25, 0.5), "init": {"distribution": [0.5, 0.5]}},
                "$.spec.init",
                "Additional properties are not allowed ('distribution' was unexpected)",
            ),
        ],
        ids=[
            "iid-extra-key", "markov-extra-key", "unknown-kind", "init-extra-key",
            "init-string", "init-number", "init-null", "init-empty", "init-both",
            "init-distribution",
        ],
    )
    def test_a_process_no_branch_accepts_is_invalid_at_its_field(
        self, tmp_path, capsys, spec, path, text
    ):
        # reported at the field that fails the branch the process's
        # type, kind or init shape selects, not as the whole process
        cfg = {**SAMPLE_CFG, "spec": spec}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"config invalid: {path}: " in err and text in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "cfg, path",
        [
            ({**BAYES_CFG, "ideal": [0.5, 0.25, 0.25]}, "$.ideal"),
            ({**NOVELTY_CFG, "ideal": [0.5, 0.25, 0.25]}, "$.ideal"),
            # falsification bounds compare specs of equal memory only
            ({**NOVELTY_CFG, "ideal": markov1(0.25, 0.5)}, "$.hypotheses[0]"),
            # an infinite cross-entropy rate bounds nothing
            ({**NOVELTY_CFG, "hypotheses": [[1.0, 0.0]]}, "$.hypotheses[0]"),
            # the schema patterns, matched by re.search, pass a final newline
            ({"kind": "identify", "members": ["0"], "query": "01\n", "r": 0}, "$.query"),
            ({**SPREAD_CFG, "message": "10\n"}, "$.message"),
        ],
        ids=[
            "bayes-alphabet", "novelty-alphabet", "novelty-memory", "novelty-support",
            "query-newline", "message-newline",
        ],
    )
    def test_an_ideal_the_library_refuses_is_invalid(self, tmp_path, capsys, cfg, path):
        assert_invalid_at(tmp_path, capsys, cfg, path)

    @pytest.mark.parametrize(
        "members",
        [[["0"]], [5], [None, "0"], [{"a": 1}], [""], ["012"], ["01\n"]],
        ids=["list", "number", "null", "object", "empty", "digit-2", "newline"],
    )
    def test_malformed_identify_members_are_invalid(self, tmp_path, capsys, members):
        # the schema asks only for an array; the hypothesis set checks
        # each member, unhashable ones included
        cfg = {"kind": "identify", "members": members, "query": "0", "r": 0}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "config invalid: $.members:" in err
        assert "Traceback" not in err

    def test_bad_thread_count(self, tmp_path):
        path = write_config(tmp_path, BAYES_CFG)
        assert _exit_code(["run", "--config", path, "--threads", "0"]) == (EXIT_INVALID, "")

    # one config per cross-field constraint the schema documents, each
    # schema-valid and breaking that constraint alone
    CONSTRAINTS = {
        "bayes: q <= p": ({**BAYES_CFG, "q": 0.95}, "$.q"),
        "bayes: len(prior) == len(hypotheses)": (
            {**BAYES_CFG, "prior": [0.2, 0.3, 0.5]}, "$.prior"
        ),
        "spread: every message symbol indexes a component": (
            {**SPREAD_CFG, "message": "012"}, "$.message"
        ),
        "identify: members must be non-empty bit strings": (
            {"kind": "identify", "members": ["0", ""], "query": "0", "r": 0}, "$.members"
        ),
        "scdist: K <= L": ({"kind": "scdist", "L": 4, "K": 5}, "$.K"),
        "bayes, novelty: hypotheses share one alphabet size and memory": (
            {**BAYES_CFG, "hypotheses": [[0.5, 0.5], [0.25, 0.25, 0.5]]},
            "$.hypotheses",
        ),
        "bayes, novelty: the ideal emits the hypotheses' alphabet": (
            {**BAYES_CFG, "ideal": [0.5, 0.25, 0.25]}, "$.ideal"
        ),
        "novelty: the ideal has the hypotheses' memory": (
            {**NOVELTY_CFG, "ideal": markov1(0.25, 0.5)}, "$.hypotheses[0]"
        ),
        "novelty: every hypothesis gives each symbol the ideal emits positive probability": (
            {**NOVELTY_CFG, "hypotheses": [[1.0, 0.0]]}, "$.hypotheses[0]"
        ),
        "markov: the context graph is irreducible": (
            {**SAMPLE_CFG, "spec": markov1(1.0, 0.0)}, "$.spec"
        ),
        "every probability list sums to 1 within 1e-12": (
            {**SAMPLE_CFG, "spec": [0.5, 0.6]}, "$.spec"
        ),
    }

    def test_every_documented_constraint_is_refused_at_its_field(self, tmp_path, capsys):
        assert list(self.CONSTRAINTS) == _shipped_schema()["x-constraints"]
        for cfg, path in self.CONSTRAINTS.values():
            assert validate_config(cfg) is cfg
            assert_invalid_at(tmp_path, capsys, cfg, path)

    def test_a_prior_and_a_hypothesis_meet_one_mass_rule(self, tmp_path, capsys):
        # off by 9.5e-13, past 2**-40 but within 1e-12: runs as either
        short = [0.5, 0.49999999999905]
        for cfg in ({"prior": short}, {"hypotheses": [short, [0.1, 0.9]]}):
            run_to_file(tmp_path, {**BAYES_CFG, **cfg, "trials": 5})
        # off by 1.2e-12: refused as either, with one message
        over = [0.5, 0.5000000000012]
        messages = []
        for cfg, path in (
            ({"prior": over}, "$.prior"),
            ({"hypotheses": [over, [0.1, 0.9]]}, "$.hypotheses[0]"),
        ):
            cfg = write_config(tmp_path, {**BAYES_CFG, **cfg})
            assert main(["run", "--config", cfg]) == EXIT_INVALID
            err = capsys.readouterr().err
            assert f"config invalid: {path}: " in err
            messages.append(err.split(f"{path}: ", 1)[1])
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "pair, flag, value",
        [
            ("coin-bits", "--trials", "-5"),
            ("coin-bits", "--trials", "0"),
            ("pairwise-enumeration", "--L", "0"),
            ("pairwise-enumeration", "--L", "-3"),
            ("coin-bits", "--tolerance", "-1"),
            ("coin-bits", "--tolerance", "nan"),
        ],
    )
    def test_bad_verify_flag_is_invalid(self, capsys, pair, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--pair", pair, flag, value])
        assert exc.value.code == EXIT_INVALID
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_verify_length_past_the_oracle_is_refused(self, capsys):
        code = main(["verify", "--pair", "pairwise-enumeration", "--L", "11"])
        assert code == EXIT_REFUSED
        captured = capsys.readouterr()
        assert captured.err.startswith("refused: --L 11")
        assert captured.out == ""

    def test_coin_bits_past_the_step_budget_is_refused(self, capsys, monkeypatch):
        # one symbol a trial; the refusal comes before any draw, so at
        # about 15 us a trial no 12-minute tally starts
        import samplex.cli as cli

        def tally(*_args):
            raise AssertionError("drew past the step budget")

        monkeypatch.setattr(cli, "_tally", tally)
        code = main(["verify", "--pair", "coin-bits", "--trials", "50000001"])
        assert code == EXIT_REFUSED
        captured = capsys.readouterr()
        assert captured.err.startswith("refused: 50000001 x 1 symbols")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestVerifyPairs:
    def test_pairwise_enumeration(self, capsys):
        assert main(["verify", "--pair", "pairwise-enumeration", "--L", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "L=5 K=5: exact match" in out

    def test_pairwise_enumeration_at_the_oracle_limit(self, capsys):
        code = main(["verify", "--pair", "pairwise-enumeration", "--L", "10"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "L=10 K=5: exact match" in out
        assert out.endswith("verify pairwise-enumeration: PASS\n")

    def test_coin_bits(self, capsys):
        code = main(["verify", "--pair", "coin-bits", "--trials", "20000"])
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_coin_bits_custom_spec(self, capsys):
        code = main(
            [
                "verify",
                "--pair",
                "coin-bits",
                "--trials",
                "20000",
                "--spec",
                "[0.5, 0.5]",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "entropy: 1" in out

    @pytest.mark.parametrize("spec", ["[0.5,0.6]", "[1.5,-0.5]", "notjson", "[1e999, 0.5]"])
    def test_coin_bits_bad_spec_is_invalid(self, capsys, spec):
        code = main(["verify", "--pair", "coin-bits", "--spec", spec])
        assert code == EXIT_INVALID
        assert "--spec" in capsys.readouterr().err

    def test_coin_bits_spec_meets_the_schema_rule(self, capsys):
        code = main(["verify", "--pair", "coin-bits", "--spec", '["a"]'])
        assert code == EXIT_INVALID
        assert "--spec[0]: 'a' is not of type 'number'" in capsys.readouterr().err

    def test_expected_sc_mc(self, capsys):
        code = main(["verify", "--pair", "expected-sc-mc", "--tolerance", "0.6"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "analytic crossing: 13.9054" in out
        assert "containment: pass" in out


class TestParserReuse:
    """``main`` parses every call with one parser; no call may see the
    options of the call before it."""

    def test_verify_defaults_return(self, capsys):
        assert main(["verify", "--pair", "pairwise-enumeration", "--L", "3"]) == EXIT_OK
        assert "L=3 K=3: exact match" in capsys.readouterr().out
        assert main(["verify", "--pair", "pairwise-enumeration"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "L=8 K=8: exact match" in out
        assert out.endswith("verify pairwise-enumeration: PASS\n")

    def test_run_seed_override_does_not_stick(self, tmp_path):
        assert run_to_file(tmp_path, SAMPLE_CFG, "--seed", "5")["config"]["seed"] == 5
        assert run_to_file(tmp_path, SAMPLE_CFG)["config"]["seed"] == SAMPLE_CFG["seed"]

    def test_a_refusal_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["verify", "--pair", "pairwise-enumeration", "--L", "0"])
        assert refused.value.code == 2
        assert "--L" in capsys.readouterr().err
        assert main(["verify", "--pair", "pairwise-enumeration", "--L", "2"]) == EXIT_OK
        assert "verify pairwise-enumeration: PASS" in capsys.readouterr().out


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a = run_to_file(tmp_path, BAYES_CFG)
        b = run_to_file(tmp_path, BAYES_CFG)
        assert json.dumps(a["payload"], sort_keys=True) == json.dumps(
            b["payload"], sort_keys=True
        )

    def test_every_trial_censored_leaves_the_moments_undefined(self, tmp_path):
        record = run_to_file(tmp_path, {**BAYES_CFG, "trials": 3, "max_steps": 1})
        assert record["payload"]["censored"] == 3
        assert record["payload"]["stopping_moments"] is None
        assert record["payload"]["mean_stopping_time"] is None

    def test_markov_member_separable_pair_runs(self, tmp_path):
        cfg = markov_bayes_cfg(markov1(0.875, 0.125), markov1(0.125, 0.875))
        record = run_to_file(tmp_path, cfg)
        analytic = record["payload"]["analytic_expected_t"]
        assert analytic["method"] == "enumeration"
        assert analytic["smallest_t"] <= 16
        assert sum(record["payload"]["decision_histogram"].values()) == 20

    def test_threads_do_not_change_results(self, tmp_path):
        solo = run_to_file(tmp_path, BAYES_CFG, "--threads", "1")
        quad = run_to_file(tmp_path, BAYES_CFG, "--threads", "4")
        assert json.dumps(solo["payload"], sort_keys=True) == json.dumps(
            quad["payload"], sort_keys=True
        )

    def test_seed_override_changes_the_draws(self, tmp_path):
        base = run_to_file(tmp_path, BAYES_CFG)
        other = run_to_file(tmp_path, BAYES_CFG, "--seed", "99")
        assert other["config"]["seed"] == 99
        assert json.dumps(base["payload"], sort_keys=True) != json.dumps(
            other["payload"], sort_keys=True
        )


class TestPosteriorTrace:
    @pytest.mark.parametrize(
        "ideal, other, start_draws",
        [
            ([0.5, 0.5], [0.1, 0.9], 0),
            (markov1(0.25, 0.75), markov1(0.75, 0.25), 1),  # a drawn start
        ],
        ids=["iid", "markov"],
    )
    def test_draws_only_the_symbols_it_scores(
        self, monkeypatch, ideal, other, start_draws
    ):
        import samplex.bayes as bayes
        import samplex.cli as cli
        import samplex.processes as processes
        from samplex import HypothesisSet, StoppingConfig, posterior_trace

        # a start draw goes through sample_discrete; every later symbol
        # is counted as the trial takes it from the stream
        draws = 0
        sample_discrete = processes.sample_discrete
        stream = bayes.symbols

        def counted_start(spec, source):
            nonlocal draws
            draws += 1
            return sample_discrete(spec, source)

        def counted(spec, source):
            nonlocal draws
            for sym in stream(spec, source):
                draws += 1
                yield sym

        monkeypatch.setattr(processes, "sample_discrete", counted_start)
        monkeypatch.setattr(bayes, "symbols", counted)
        spec = cli._process(ideal, "$.ideal")
        hset = HypothesisSet((spec, cli._process(other, "$.other")))
        scfg = StoppingConfig(p=0.9)
        rows = posterior_trace(spec, hset, [0.5, 0.5], scfg, 11, 50)
        s = len(rows) - 1  # row t is the posterior at t
        assert 0 < s < 50  # the trace stopped before its limit
        assert draws == s + start_draws

    def test_stops_when_every_member_is_falsified(self, tmp_path, capsys):
        cfg = {"kind": "bayes", "ideal": [0, 0, 1], "hypotheses": [[1, 0, 0], [0, 1, 0]],
               "prior": [0.5, 0.5], "p": 0.9, "trials": 5, "seed": 1}
        payload = run_to_file(tmp_path, cfg)["payload"]
        assert "Traceback" not in capsys.readouterr().err
        assert payload["table"]["rows"] == [[0, 0.5, 0.5]]
        assert payload["decision_histogram"]["Falsified"] == 5
        assert payload["analytic_expected_t"] is None


# JSON values for the record writer: bools, None, -0.0, 1e16, ints past
# 64 bits, non-finite floats, strings with brackets, quotes, control and
# non-ASCII characters, tables of rows, and keys of every kind json takes
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.sampled_from([-0.0, 1e16, 1e-300, 2.5, math.inf])
    | st.text(st.sampled_from('[]"\\\x00\n\x7fé中😀 a0,:'))
)
_JSON_RECORDS = st.recursive(
    _JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.lists(
            st.lists(_JSON_SCALARS, min_size=1, max_size=3), min_size=1, max_size=3
        )
        | st.dictionaries(
            st.text(st.sampled_from('[]"\x00é a:'), max_size=3), children, max_size=4
        )
        # int, float and bool keys sort together; None sorts with no other key
        | st.dictionaries(
            st.integers(-3, 3) | st.floats() | st.booleans(), children, max_size=3
        )
        | st.dictionaries(st.none(), children, max_size=1)
    ),
    max_leaves=20,
)


class TestOutputs:
    def test_stdout_by_default(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"kind": "identify", "members": ["0", "10", "11"], "query": "10", "r": 0},
        )
        assert main(["run", "--config", path]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["payload"]["agree"] is True
        assert (
            record["payload"]["outcomes"]["sorted"]["status"] == "Verified"
        )

    def test_env_var_names_the_output_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAMPLEX_OUT", str(tmp_path / "results"))
        path = write_config(
            tmp_path, {"kind": "scdist", "L": 4, "K": 2}
        )
        assert main(["run", "--config", path]) == EXIT_OK
        record = json.loads((tmp_path / "results" / "scdist.json").read_text())
        assert record["config"]["kind"] == "scdist"

    # digests of the payloads as written before the meta counters existed
    @pytest.mark.parametrize(
        "cfg, symbols, fair_bits, digest",
        [
            (
                SAMPLE_CFG, 2000, 4026,
                "23c4eda3b86a7257dc908ffb8be5409416bc1d20fdb2143b1ddd48145eb95cc3",
            ),
            (
                SPREAD_CFG, 40, 69,
                "42468e8b90f9f80c95b9c9c864fabc6380a51a7b54996774e388737d8300d9ba",
            ),
        ],
    )
    def test_sampling_runs_count_their_work_in_meta(
        self, tmp_path, cfg, symbols, fair_bits, digest
    ):
        record = run_to_file(tmp_path, cfg)
        assert record["meta"]["symbols"] == symbols
        assert record["meta"]["fair_bits"] == fair_bits
        assert not {"symbols", "fair_bits"} & set(record["payload"])
        text = json.dumps(record["payload"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # r = 0, so a censored trial drew the whole budget; the counters stay
    # out of the payload, whose digests test_payloads_keep_their_digests pins
    @pytest.mark.parametrize(
        "cfg, fair_bits",
        [
            (BAYES_CFG, 1774),
            (NOVELTY_CFG, 81),
            (
                {"kind": "novelty", "ideal": markov1(0.75, 0.25),
                 "hypotheses": [markov1(0.25, 0.75), markov1(0.125, 0.5)],
                 "q": 0.8, "trials": 60, "budget": 300, "seed": 8},
                709,
            ),
        ],
        ids=["bayes", "novelty", "markov-novelty"],
    )
    def test_stopping_runs_count_their_work_in_meta(self, tmp_path, cfg, fair_bits):
        def spec(node):
            if isinstance(node, list):
                return IidSpec.from_probs(node)
            return spec_from_json(node)

        record = run_to_file(tmp_path, cfg)
        ideal = spec(cfg["ideal"])
        hset = HypothesisSet(tuple(map(spec, cfg["hypotheses"])))
        if cfg["kind"] == "bayes":
            prior, budget = cfg["prior"], cfg["max_steps"]
            scfg = StoppingConfig(p=cfg["p"])
        else:
            prior = [1 / len(hset)] * len(hset)
            scfg, budget = StoppingConfig(p=1.0, q=cfg["q"]), cfg["budget"]
        counts, decisions = mc_stopping_reference(
            ideal, hset, prior, scfg, cfg["trials"], cfg["seed"], budget
        )
        symbols = sum(t * c for t, c in counts.items())
        symbols += decisions["Undetermined"] * budget
        meta = record["meta"]
        assert (meta["trials"], meta["symbols"], meta["fair_bits"]) == (
            cfg["trials"], symbols, fair_bits
        )
        # a binary memoryless set weighs each (t, n1) cell once, a chain
        # set every step
        if hset.memory == 0:
            assert meta["decides"] < meta["symbols"]
        else:
            assert meta["decides"] == meta["symbols"]
        assert not {"trials", "symbols", "fair_bits", "decides"} & set(record["payload"])
        # censored is a payload field that meta repeats
        assert meta["censored"] == record["payload"]["censored"] == decisions["Undetermined"]

    # K = 0 is a point mass, held exactly at any length
    @pytest.mark.parametrize(
        "L, K, arithmetic",
        [(20, 7, "rational"), (21, 7, "float"), (21, 0, "rational")],
    )
    def test_scdist_runs_name_their_arithmetic_in_meta(self, tmp_path, L, K, arithmetic):
        record = run_to_file(tmp_path, {"kind": "scdist", "L": L, "K": K})
        assert record["meta"]["arithmetic"] == arithmetic
        assert "arithmetic" not in record["payload"]

    @pytest.mark.parametrize(
        "kind, phases",
        [
            ("bayes", {"trials_s", "evaluator_s", "trace_s"}),
            ("novelty", {"trials_s", "bounds_s"}),
        ],
    )
    def test_stopping_runs_time_their_phases_in_meta(self, tmp_path, kind, phases):
        # their payload digests stay pinned in test_payloads_keep_their_digests
        cfg = json.loads((CONFIG_DIR / f"{kind}.json").read_text())
        record = run_to_file(tmp_path, cfg)
        assert all(record["meta"][key] >= 0.0 for key in phases)
        assert not phases & set(record["payload"])

    # digests of the payloads as written while the library still branched
    # on iid versus chain specs
    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (
                json.loads((CONFIG_DIR / "bayes.json").read_text()),
                "9921c6af7ec7b44b70dff4422dcb33ba42f101cbba03555dc25981e88af5f220",
            ),
            (
                json.loads((CONFIG_DIR / "novelty.json").read_text()),
                "95c3081ef9d034d9be4efc33116610f61fa5dbc45efacb15e8039ab26806012d",
            ),
            (
                json.loads((CONFIG_DIR / "figure3.json").read_text()),
                "311bc77efca37d09d4d372776252e428e53a0f0c51ee2835520550963cd04385",
            ),
            (  # the start draw follows the chain's exact stationary law
                {"kind": "sample", "spec": markov2_three_symbols(), "t": 40,
                 "trials": 50, "seed": 4},
                "1dcdeda88ed4326dd2a11a08038d48103a395cbe8f1d7cce69e8145957aca7b0",
            ),
            (  # crosses by enumeration at t = 5
                {**markov_bayes_cfg(markov1(0.875, 0.125), markov1(0.125, 0.875)),
                 "q": 0.05, "trials": 40},
                "1c97d21030789215fbfc3e033af6801ef4fe799b8507722b2fbfc3a01d2fc43f",
            ),
            (
                {"kind": "novelty", "ideal": markov1(0.75, 0.25),
                 "hypotheses": [markov1(0.25, 0.75), markov1(0.125, 0.5)],
                 "q": 0.8, "trials": 60, "budget": 300, "seed": 8},
                "352c6bc917a2dd66310ae32eb370cfe35a1d9dd35c05ac3e15820fb20c8dc6cc",
            ),
            (  # crosses by Monte Carlo at 72.55, CI [69.16, 75.19]
                {"kind": "bayes", "ideal": [0.5, 0.5],
                 "hypotheses": [[0.5, 0.5], [0.3, 0.7]], "prior": [0.5, 0.5],
                 "p": 0.9, "trials": 50, "seed": 3},
                "1bc084e55c1db361a68f8eedb5fde265d8d0f550532af54f4cd56a07b76fb900",
            ),
            (
                json.loads((CONFIG_DIR / "identify.json").read_text()),
                "a05ca3192d1c774ee54722d2bc62c4c3d05fd3aac7075e7a513c1ec78e9eb302",
            ),
            (
                json.loads((CONFIG_DIR / "scdist.json").read_text()),
                "15659630e44239b2481c008f5336f9fb8962316872bccb50c1de6037ab052b1c",
            ),
            # crosses by Monte Carlo at 193.297; small classes and top
            # bytes that a partial sum splits both reach _draw_counts
            (
                {"kind": "bayes", "ideal": [0.2, 0.3, 0.5],
                 "hypotheses": [[0.2, 0.3, 0.5], [0.3, 0.3, 0.4]],
                 "prior": [0.5, 0.5], "p": 0.9, "trials": 20, "seed": 3},
                "3c0d6513374c77e97898689ecc1fe00e64d733284fe436abc53bad89fcee721f",
            ),
            (LONG_BAYES_CFG, LONG_BAYES_DIGEST),
        ],
        ids=[
            "bayes", "novelty", "figure3",
            "markov-sample", "markov-bayes", "markov-novelty", "mc-bayes",
            "identify", "scdist", "mc-bayes-3", "long-bayes",
        ],
    )
    def test_payloads_keep_their_digests(self, tmp_path, cfg, digest):
        record = run_to_file(tmp_path, cfg)
        text = json.dumps(record["payload"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_a_capped_verdict_table_keeps_the_payload(self, tmp_path, monkeypatch):
        # the trials run to t = 190 on average and fill some 6 000 cells
        # uncapped, so a cap of 1 000 cells binds: the trials ask the rule
        # more often, and the payload stays the same
        uncapped = run_to_file(tmp_path, LONG_BAYES_CFG)["meta"]["decides"]
        monkeypatch.setattr(samplex.bayes, "_TABLE_CELLS", 1_000)
        record = run_to_file(tmp_path, LONG_BAYES_CFG)
        text = json.dumps(record["payload"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == LONG_BAYES_DIGEST
        assert record["meta"]["decides"] > uncapped

    @pytest.mark.parametrize(
        "payload",
        [
            {"rows": [[1, 0.5], [2, 1e-300]], "tag": "x", "n": None},
            {"b": {"lo": 0.25, "hi": math.inf}, "a": [math.nan, 1, -math.inf],
             "t": (math.inf, 2.0)},
        ],
        ids=["finite", "non-finite"],
    )
    def test_json_text_is_the_sanitized_records(self, tmp_path, payload):
        record = {"config": {"kind": "scdist"}, "payload": payload, "meta": {}}
        out = tmp_path / "rec.json"
        _write_output(record, "json", str(out))
        expected = json.dumps(_sanitize(record), sort_keys=True, indent=2) + "\n"
        assert out.read_text() == expected

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
    def test_every_bundled_record_is_its_indent_2_text(self, tmp_path, name):
        # novelty's record holds infinite bounds, so it is the sanitized one
        out = tmp_path / "out.json"
        config = str(CONFIG_DIR / f"{name}.json")
        assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        expected = json.dumps(
            json.loads(text), sort_keys=True, indent=2, allow_nan=False
        )
        assert text == expected + "\n"

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_JSON_RECORDS)
    def test_the_writer_is_json_dumps_indent_2(self, record):
        try:
            expected = json.dumps(record, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:
            with pytest.raises(ValueError):
                _json_parts(record, [])
        else:
            assert "".join(_json_parts(record, [])) == expected

    def test_csv_table(self, tmp_path):
        out = tmp_path / "table.csv"
        path = write_config(tmp_path, {"kind": "scdist", "L": 4, "K": 2})
        assert (
            main(["run", "--config", path, "--format", "csv", "--out", str(out)])
            == EXIT_OK
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("i,")
        assert lines[1] == "1,0.5,0.5"
        assert lines[2] == "2,0.33333333333333331,0.83333333333333337"
        assert lines[3] == "3,0.16666666666666666,1"

    def test_scdist_payload_is_exact(self, tmp_path):
        record = run_to_file(tmp_path, {"kind": "scdist", "L": 4, "K": 2})
        rows = record["payload"]["table"]["rows"]
        assert [r[0] for r in rows] == [1, 2, 3]
        assert rows[0][1] == 0.5
        assert record["payload"]["moments"][0] == pytest.approx(5 / 3)

    def test_figure3_pinned_first_row(self, tmp_path):
        record = run_to_file(
            tmp_path,
            {"kind": "figure3", "spec": [0.5, 0.5], "p": 0.7, "q": 0.6, "t_max": 10},
        )
        payload = record["payload"]
        row = payload["table"]["rows"][0]
        assert row[0] == 1
        assert row[1] == pytest.approx(0.35)
        assert row[2] == pytest.approx(0.7142857142857143)
        assert row[3] == pytest.approx(0.3)
        assert row[4] == pytest.approx(0.8333333333333334)
        assert payload["entropy_rate"] == pytest.approx(1.0)

    @pytest.mark.parametrize("spec", [{"kind": "iid", "probs": [0.3, 0.7]}, markov2_three_symbols()])
    def test_figure3_rows_are_the_typical_set_bounds(self, tmp_path, spec):
        # a run computes the entropy rate once; each row keeps the floats
        # of a typical_set_bounds call per level
        cfg = {"kind": "figure3", "spec": spec, "p": 0.7, "q": 0.35, "t_max": 200}
        rows = run_to_file(tmp_path, cfg)["payload"]["table"]["rows"]
        process = spec_from_json(spec)
        assert rows == [
            [t, *typical_set_bounds(process, t, 0.7), *typical_set_bounds(process, t, 0.35)]
            for t in range(1, 201)
        ]

    def test_novelty_serializes_infinite_bounds(self, tmp_path):
        record = run_to_file(
            tmp_path,
            {
                "kind": "novelty",
                "ideal": [0.5, 0.5],
                "hypotheses": [[0.1, 0.9], [0.05, 0.95]],
                "q": 0.5,
                "trials": 100,
                "budget": 500,
                "seed": 5,
            },
        )
        payload = record["payload"]
        assert payload["falsified_fraction"] == 1.0
        lo, hi = payload["falsification_bounds"]
        assert isinstance(lo, float)
        assert hi == "inf"


def test_emit_schema(capsys):
    assert main(["emit-schema"]) == EXIT_OK
    schema = json.loads(capsys.readouterr().out)
    jsonschema.Draft202012Validator.check_schema(schema)
    assert schema["$id"] == "samplex/experiment-v1"
    kinds = schema["properties"]["kind"]["enum"]
    assert set(kinds) == {
        "identify",
        "scdist",
        "sample",
        "spread",
        "bayes",
        "novelty",
        "figure3",
    }


def _shipped_schema() -> dict:
    return json.loads(
        resources.files("samplex.schema").joinpath("experiment-v1.json").read_text()
    )


def _keywords(node: object):
    """Every key of a schema, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keywords(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keywords(value)


def _names(node: object):
    """The keys of every properties and $defs map of a schema: names of
    fields and definitions, not keywords."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("properties", "$defs"):
                yield from value
            yield from _names(value)
    elif isinstance(node, list):
        for value in node:
            yield from _names(value)


# keys validate_config's walk reads through another keyword's check, and
# annotations, which validate nothing
_READ_BY_OTHERS = {"then", "else", "$defs"}
_ANNOTATIONS = {"$schema", "$id", "title", "description", "x-constraints", "default"}


def test_the_validator_implements_every_keyword_of_the_schema():
    # the walk skips a key it has no check for, as a validator skips an
    # annotation; a keyword added to the schema must get a check first
    schema = _shipped_schema()
    keywords = set(_keywords(schema)) - set(_names(schema))
    assert keywords - _READ_BY_OTHERS - _ANNOTATIONS == set(_CHECKS)


def test_the_schema_has_no_alternatives_to_rank():
    # each branch is picked by the value's type or kind, so every error
    # belongs to the branch the value selected and validate_config
    # reports the first by path with no ranking of alternatives
    assert not {"oneOf", "anyOf"} & set(_keywords(_shipped_schema()))


def _exit_code(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code, an argparse refusal's included, and
    its stdout; stderr must carry no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def keeps_the_exit_contract(cfg: dict | list[str]) -> None:
    """Run a config at --threads 1 and 2: each run exits 0, 2 or 3 with
    no traceback on stderr, and both give the same payload.  A list is
    the flags of one ``verify`` call, run twice: each run may also exit
    1 (a failed check), and both print the same."""
    if isinstance(cfg, list):
        first, second = (_exit_code(["verify", *cfg]) for _ in range(2))
        assert first[0] in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_INVALID, EXIT_REFUSED)
        assert first == second
        return
    payloads = []
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        for threads in ("1", "2"):
            out = Path(tmp) / f"out-{threads}.json"
            code, _ = _exit_code(
                ["run", "--config", path, "--out", str(out), "--threads", threads]
            )
            assert code in (EXIT_OK, EXIT_INVALID, EXIT_REFUSED)
            payloads.append(
                json.loads(out.read_text())["payload"] if code == EXIT_OK else code
            )
    assert payloads[0] == payloads[1]


# Property test over small schema-valid bayes configs.  Probabilities come
# from a coarse grid so that each example stays under a second.  The
# slowest case is p = 1 with the ideal in the set: the expected-surprisal
# curve reaches 0 only once every sampled posterior is exactly 1 in
# floating point, after about 53 / D horizons for a log-likelihood ratio
# that falls D bits per symbol.  On this grid every pair of members either
# differs in support or falls at least 0.58 bits per symbol, so no run
# walks past about 110 horizons (0.31 s per run measured on a 2-core
# x86_64 host).
_BINARY = ([0.0, 1.0], [0.5, 0.5], [0.96875, 0.03125])
_TERNARY = (
    [1 / 3, 1 / 3, 1 / 3],
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [1.0, 0.0, 0.0],
)


def _chain(rows: tuple[list[float], list[float]]) -> dict:
    return {
        "kind": "markov",
        "memory": 1,
        "alphabet": 2,
        "transitions": {"0": rows[0], "1": rows[1]},
    }


_FAMILIES = (
    st.sampled_from(_BINARY),
    st.sampled_from(_TERNARY),
    st.tuples(st.sampled_from(_BINARY), st.sampled_from(_BINARY)).map(_chain),
)


@st.composite
def _bayes_configs(draw) -> dict:
    member = draw(st.sampled_from(_FAMILIES))
    hypotheses = draw(st.lists(member, min_size=1, max_size=3))
    n = len(hypotheses)
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if not any(weights):
        weights = [1] * n
    inside = draw(st.booleans())
    return {
        "kind": "bayes",
        "ideal": draw(st.sampled_from(hypotheses)) if inside else draw(member),
        "hypotheses": hypotheses,
        "prior": [w / sum(weights) for w in weights],
        "p": draw(st.sampled_from([0.125, 0.5, 0.75, 0.9, 1.0])),
        "trials": draw(st.integers(1, 20)),
        "max_steps": draw(st.integers(1, 200)),
        "seed": draw(st.integers(0, 2**32)),
    }


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_bayes_configs())
def test_bayes_configs_keep_the_exit_contract(cfg):
    keeps_the_exit_contract(cfg)


# Property test over small schema-valid sample and spread configs.  Weights
# are small integers normalized, so zero cells and non-dyadic weights
# (thirds, fifths) come up often; t x trials stays at most 150 symbols.
@st.composite
def _iid_process(draw, k: int | None = None) -> list[float]:
    size = k if k is not None else draw(st.integers(1, 4))
    weights = draw(
        st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any)
    )
    return [w / sum(weights) for w in weights]


@st.composite
def _markov1_process(draw) -> dict:
    k = draw(st.integers(2, 3))
    init = draw(
        st.one_of(
            st.just("stationary"),
            st.integers(0, k - 1).map(lambda c: {"context": str(c)}),
        )
    )
    return {
        "kind": "markov",
        "memory": 1,
        "alphabet": k,
        "transitions": {str(c): draw(_iid_process(k)) for c in range(k)},
        "init": init,
    }


@st.composite
def _sample_configs(draw) -> dict:
    return {
        "kind": "sample",
        "spec": draw(st.one_of(_iid_process(), _markov1_process())),
        "t": draw(st.integers(0, 30)),
        "trials": draw(st.integers(1, 5)),
        "seed": draw(st.integers(0, 2**32)),
    }


@st.composite
def _spread_configs(draw) -> dict:
    k = draw(st.integers(1, 4))
    n = draw(st.integers(2, 3))
    return {
        "kind": "spread",
        "message": "".join(
            draw(st.lists(st.sampled_from("0123"[:n]), min_size=1, max_size=4))
        ),
        "components": draw(st.lists(_iid_process(k), min_size=n, max_size=n)),
        "t": draw(st.integers(1, 30)),
        "trials": draw(st.integers(1, 5)),
        "seed": draw(st.integers(0, 2**32)),
    }


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(_sample_configs(), _spread_configs()))
def test_sample_and_spread_configs_keep_the_exit_contract(cfg):
    keeps_the_exit_contract(cfg)


# Property test over schema-valid identify, scdist and figure3 configs:
# members and queries up to a few bits, lengths past the exact rational
# cutoff L = 20 and mismatch counts past L, any levels in (0, 1].
@st.composite
def _identify_configs(draw) -> dict:
    cfg = {
        "kind": "identify",
        "members": draw(st.lists(st.text("01", min_size=1, max_size=6), max_size=6)),
        "query": draw(st.text("01", max_size=8)),
        "r": draw(st.floats(min_value=0.0, max_value=1.0)),
        "seed": draw(st.integers(0, 2**32)),
    }
    algorithm = draw(st.sampled_from([None, "sorted", "depth-first", "tree", "all"]))
    if algorithm is not None:
        cfg["algorithm"] = algorithm
    return cfg


@st.composite
def _scdist_configs(draw) -> dict:
    length = draw(st.integers(1, 40))
    cfg = {"kind": "scdist", "L": length, "K": draw(st.integers(0, length + 2))}
    if draw(st.booleans()):
        cfg["moments"] = draw(st.integers(1, 8))
    return cfg


@st.composite
def _figure3_configs(draw) -> dict:
    level = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    return {
        "kind": "figure3",
        "spec": draw(st.one_of(_iid_process(), _markov1_process())),
        "p": draw(level),
        "q": draw(level),
        "t_max": draw(st.integers(1, 60)),
    }


@settings(
    max_examples=90,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(_identify_configs(), _scdist_configs(), _figure3_configs()))
def test_identify_scdist_and_figure3_configs_keep_the_exit_contract(cfg):
    keeps_the_exit_contract(cfg)


# Property tests over novelty configs and verify flags.  About one value
# in six is a bad one: the constants NaN, Infinity and -Infinity, which a
# config file may not hold and a flag must refuse, or a value with a
# final newline, which Python's int(), float() and json.loads() strip but
# the schema's patterns must not let through.
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _mostly(good: st.SearchStrategy, bad: st.SearchStrategy) -> st.SearchStrategy:
    """``good`` five times in six, else ``bad``."""
    return st.integers(0, 5).flatmap(lambda i: bad if i == 0 else good)


@st.composite
def _novelty_configs(draw) -> dict:
    member = draw(st.sampled_from(_FAMILIES))
    context = st.sampled_from(["0", "1"])
    chain = _mostly(context, st.sampled_from(["1\n", "\n"])).map(
        lambda c: {**_chain(([0.5, 0.5], [0.96875, 0.03125])), "init": {"context": c}}
    )
    return {
        "kind": "novelty",
        "ideal": draw(_mostly(member, chain | st.lists(_NON_FINITE, min_size=2, max_size=2))),
        "hypotheses": draw(st.lists(member, min_size=1, max_size=3)),
        "q": draw(_mostly(st.sampled_from([0.125, 0.5, 0.75, 1.0]), _NON_FINITE)),
        "trials": draw(st.integers(1, 20)),
        "budget": draw(st.integers(1, 200)),
        "seed": draw(st.integers(0, 2**32)),
    }


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_novelty_configs())
def test_novelty_configs_keep_the_exit_contract(cfg):
    keeps_the_exit_contract(cfg)


def _flag(name: str, values: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    """No ``--name``, or ``--name=value`` with the value mostly drawn
    from ``values``, else a non-finite constant or a final newline."""
    constants = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity"])
    text = _mostly(values, constants | values.map(lambda v: v + "\n"))
    return st.just([]) | text.map(lambda v: [f"--{name}={v}"])


# --L stays at 8 or less or goes past the oracle's limit, and --trials is
# always given, so that no run counts 9! reveal orders or draws the
# default 100 000 coin-bits symbols
@st.composite
def _verify_flags(draw) -> list[str]:
    probs = _mostly(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), _NON_FINITE)
    spec = st.lists(probs, min_size=1, max_size=3).map(json.dumps)
    trials = _mostly(st.sampled_from(["1", "500", "3000"]), st.sampled_from(["-2", "0"]))
    return [
        "--pair",
        draw(st.sampled_from(["pairwise-enumeration", "expected-sc-mc", "coin-bits"])),
        *draw(_flag("seed", st.integers(0, 2**32).map(str))),
        *draw(_flag("tolerance", st.sampled_from(["0", "0.01", "0.5", "-1"]))),
        *draw(_flag("spec", spec)),
        *draw(_flag("trials", trials).filter(bool)),
        *draw(_flag("L", st.sampled_from(["-1", "0", "1", "4", "8", "11"]))),
    ]


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_verify_flags())
def test_verify_flags_keep_the_exit_contract(argv):
    keeps_the_exit_contract(argv)


# Property test: the shipped process definition accepts exactly what its
# earlier oneOf form (oracles.PROCESS_ONEOF) accepts.  Objects start from a
# valid iid or markov process, a markov one with an init half the time, and
# have up to three keys dropped or set to a value, most often a valid one,
# else one of any type.
_SCALARS = st.sampled_from(
    [None, True, False, 0, 1, 2, -1, 0.5, "", "0", "iid", "markov", "stationary", "foo"]
)
_PROBS = _mostly(
    st.lists(st.sampled_from([0, 0.25, 0.5, 1]), min_size=1, max_size=3),
    st.lists(st.sampled_from([1.5, -0.5]) | _SCALARS, max_size=3) | _SCALARS,
)
_KEY_VALUES = {
    "kind": _mostly(st.sampled_from(["iid", "markov"]), st.just("nope") | _SCALARS),
    "probs": _PROBS,
    "memory": _mostly(st.integers(1, 2), st.integers(-1, 0) | _SCALARS),
    "alphabet": _mostly(st.integers(2, 10), st.sampled_from([0, 1, 11]) | _SCALARS),
    "transitions": _mostly(
        st.dictionaries(st.sampled_from(["0", "1", "00"]), _PROBS, max_size=2), _SCALARS
    ),
    "init": _mostly(
        st.fixed_dictionaries({}, optional={
            "context": _mostly(st.sampled_from(["0", "1", "", "a"]), _SCALARS),
            "distribution": _PROBS,
            "x": _SCALARS,
        }),
        _SCALARS,
    ),
    "x": _SCALARS,
}


@st.composite
def _process_values(draw) -> object:
    shape = draw(st.sampled_from(["array", "scalar", "iid", "markov"]))
    if shape == "array":
        return draw(_PROBS)
    if shape == "scalar":
        return draw(_SCALARS)
    value = {"kind": "iid", "probs": [0.5, 0.5]} if shape == "iid" else markov1(0.25, 0.5)
    if shape == "markov" and draw(st.booleans()):
        value["init"] = draw(_KEY_VALUES["init"])
    for key in draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), max_size=3, unique=True)):
        if draw(st.booleans()):
            value.pop(key, None)
        else:
            value[key] = draw(_KEY_VALUES[key])
    return value


_WRAPPERS = (
    lambda v: {"kind": "sample", "spec": v, "t": 3, "trials": 1},
    lambda v: {**BAYES_CFG, "ideal": v},
    lambda v: {**BAYES_CFG, "hypotheses": [[0.5, 0.5], v]},
    lambda v: {"kind": "figure3", "spec": v, "p": 0.9, "q": 0.5, "t_max": 3},
)


@functools.cache
def _validators() -> tuple:
    schema = _shipped_schema()
    return (
        jsonschema.Draft202012Validator(schema),
        jsonschema.Draft202012Validator(schema_with_process_oneof(schema)),
    )


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_process_values(), st.sampled_from(_WRAPPERS))
def test_the_schema_accepts_what_its_oneof_form_accepts(value, wrap):
    shipped, reference = _validators()
    cfg = wrap(value)
    assert shipped.is_valid(cfg) == reference.is_valid(cfg)


# Differential test: validate_config refuses exactly the configs jsonschema
# refuses, with the path and message of jsonschema's first error by path.
# Each config starts from a valid one of its kind and has up to three keys,
# most often its own fields, dropped or set to a value of any type: bools where numbers or constants
# go, integral floats, seeds at and past 2**64 - 1, a string with a final
# newline, processes (some with keys a path must quote) and lists of these.
_VALID = {
    "identify": {
        "kind": "identify", "members": ["01", "1"], "query": "01", "r": 0.5,
        "algorithm": "tree", "seed": 1,
    },
    "scdist": {"kind": "scdist", "L": 3, "K": 1, "moments": 2, "seed": 1},
    "sample": {**SAMPLE_CFG, "spec": markov1(0.25, 0.5)},
    "spread": {**SPREAD_CFG, "seed": 1},
    "bayes": {**BAYES_CFG, "q": 0.5, "eps_d": 0, "r": 0},
    "novelty": NOVELTY_CFG,
    "figure3": {"kind": "figure3", "spec": [0.5, 0.5], "p": 0.9, "q": 0.5, "t_max": 3, "seed": 1},
}
_ODD = st.sampled_from([
    None, True, False, 0, 1, 1.0, 3.0, 0.5, 1.5, -1, 2**64 - 1, 2**64,
    "", "0", "0\n", "01", "12", "x", "iid", "markov", "stationary", {}, *_VALID,
])
_TRANSITION_KEYS = st.sampled_from(["0", "1", "a", "a'b", "b\\c", "a\n", "_0"])
_ODD_CHAINS = st.dictionaries(_TRANSITION_KEYS, _PROBS | _ODD, max_size=3).map(
    lambda transitions: {**markov1(0.25, 0.5), "transitions": transitions}
)
_ANY = _process_values() | _ODD_CHAINS | _ODD
_PROCESS = _process_values() | _ODD_CHAINS
_PROCESS_LIST = st.lists(_PROCESS, min_size=1, max_size=3)
_FIELDS = {"spec": _PROCESS, "ideal": _PROCESS, "hypotheses": _PROCESS_LIST, "components": _PROCESS_LIST}
@st.composite
def _mutated_configs(draw) -> dict:
    cfg = dict(draw(st.sampled_from(list(_VALID.values()))))
    for key in sorted(_FIELDS.keys() & cfg.keys()):
        if draw(st.booleans()):
            cfg[key] = draw(_FIELDS[key])
    keys = st.sampled_from(sorted(cfg) + ["x", "a b"])
    for key in draw(st.lists(keys, max_size=3, unique=True)):
        if draw(st.sampled_from(["set"] * 5 + ["drop"])) == "drop":
            cfg.pop(key, None)
        else:
            cfg[key] = draw(_ANY | st.lists(_ANY, min_size=1, max_size=3))
    return cfg


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_mutated_configs())
@example({**_VALID["scdist"], "L": 3.0, "K": True})
@example({**_VALID["scdist"], "x": 1, "a b": 2})
@example({**_VALID["scdist"], "seed": 2**64 - 1})
@example({**_VALID["scdist"], "seed": 2**64})
@example({**_VALID["identify"], "query": "0\n"})
@example({**_VALID["bayes"], "p": True, "q": False, "ideal": {"kind": True}})
@example({**_VALID["sample"], "spec": {**markov1(0.25, 0.5), "transitions": {
    "0": [0.5, 0.5], "a'b": [1.5], "b\\c": True,
}}})
def test_validate_config_refuses_what_jsonschema_refuses(cfg):
    first = min(_validators()[0].iter_errors(cfg), key=lambda e: e.json_path, default=None)
    try:
        assert validate_config(cfg) is cfg
        refusal = None
    except ConfigError as exc:
        refusal = str(exc)
    assert refusal == (None if first is None else f"{first.json_path}: {first.message}")


def test_enum_and_const_tell_true_from_1():
    # the shipped schema's enum and const values are strings, so the
    # differential test above cannot see this
    for schema in ({"const": 1}, {"enum": [0.0, [1], {"a": [False]}]}):
        oracle = jsonschema.Draft202012Validator(schema)
        for value in (True, False, 1, 1.0, 0, [True], [1.0], {"a": [0]}, {"a": [False]}):
            errors = [(e.json_path, e.message) for e in oracle.iter_errors(value)]
            assert list(_SchemaWalk(schema).iter_errors(value)) == errors, (schema, value)
