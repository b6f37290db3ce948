"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from samplex.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_VERIFY_FAILED,
    ConfigError,
    main,
    validate_config,
)

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


SPREAD_CFG = {
    "kind": "spread",
    "message": "01",
    "components": [[0.7, 0.3], [0.3, 0.7]],
    "t": 20,
    "trials": 2,
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

    def test_bayes_q_must_not_exceed_p(self):
        cfg = dict(BAYES_CFG, q=0.95)
        with pytest.raises(ConfigError, match="q"):
            validate_config(cfg)

    def test_prior_length_must_match_hypotheses(self):
        cfg = dict(BAYES_CFG, prior=[0.2, 0.3, 0.5])
        with pytest.raises(ConfigError, match="prior"):
            validate_config(cfg)

    def test_spread_message_symbols_need_components(self):
        cfg = {
            "kind": "spread",
            "message": "012",
            "components": [[0.7, 0.3], [0.3, 0.7]],
            "t": 50,
            "trials": 3,
        }
        with pytest.raises(ConfigError, match="message"):
            validate_config(cfg)

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

    def test_missing_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_INVALID

    def test_invalid_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "ouija"})
        assert main(["run", "--config", path]) == EXIT_INVALID
        assert "config invalid" in capsys.readouterr().err

    def test_oversized_run_is_refused(self, tmp_path, capsys):
        cfg = dict(BAYES_CFG, trials=100_000, max_steps=10_000)
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == EXIT_REFUSED
        assert "refused" in capsys.readouterr().err

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

    def test_markov_member_far_crossing_is_refused(self, tmp_path, capsys):
        # the members differ only after a 1, so the expected-surprisal
        # crossing lies past the exact horizon, where the Monte Carlo
        # curve takes memoryless members only
        cfg = markov_bayes_cfg(markov1(0.0, 0.5), markov1(0.0, 0.375))
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == EXIT_REFUSED
        assert "refused:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, path",
        [
            ({**BAYES_CFG, "hypotheses": [[0.5, 0.5], [0.1, 0.95]]}, "$.hypotheses[1]"),
            ({**BAYES_CFG, "ideal": markov1(0.0, 0.0)}, "$.ideal"),  # reducible
            ({**BAYES_CFG, "prior": [0.3, 0.3]}, "$.prior"),
            ({**SPREAD_CFG, "components": [[0.5, 0.6], [0.1, 0.9]]}, "$.components[0]"),
            ({**SPREAD_CFG, "components": [[0.5, 0.5], [0.5, 0.5]]}, "$.components"),
        ],
    )
    def test_weights_the_model_rejects_are_invalid(self, tmp_path, capsys, cfg, path):
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == EXIT_INVALID
        assert f"config invalid: {path}:" in capsys.readouterr().err

    def test_bad_thread_count(self, tmp_path, capsys):
        path = write_config(tmp_path, BAYES_CFG)
        assert main(["run", "--config", path, "--threads", "0"]) == EXIT_INVALID


class TestVerifyPairs:
    def test_pairwise_enumeration(self, capsys):
        assert main(["verify", "--pair", "pairwise-enumeration", "--L", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "L=5 K=5: exact match" in out

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

    def test_expected_sc_mc(self, capsys):
        code = main(["verify", "--pair", "expected-sc-mc", "--tolerance", "0.6"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "analytic crossing: 13.9054" in out
        assert "containment: pass" in out


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
    payloads = []
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        for threads in ("1", "2"):
            out = Path(tmp) / f"out-{threads}.json"
            code = main(
                ["run", "--config", path, "--out", str(out), "--threads", threads]
            )
            assert code in (EXIT_OK, EXIT_INVALID, EXIT_REFUSED)
            payloads.append(
                json.loads(out.read_text())["payload"] if code == EXIT_OK else code
            )
    assert payloads[0] == payloads[1]
