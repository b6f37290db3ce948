"""samplex benchmark: end-to-end and per-module timings on four workloads.

    python3 perfbench/run.py --workload sampling --seed 1 --seconds 20 --trace 0

Run from the root of a samplex checkout; the library is imported from
``src/``.  Configs are generated from ``--seed`` and driven through
``samplex.cli.main(argv)`` in this process by one caller in a closed loop:
each run starts when the previous one returns.  A pass runs the
workload's whole run list; passes repeat until ``--seconds`` is spent.
Every output is checked (see workloads.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes and then traced passes (see tracer.py) and prints the per-module
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the seed and the sample counts behind each figure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_REPEATS = 9  # timed set-up starts
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10  # runs the tail percentile must leave beyond it
TAIL_MIN_RUNS = 20  # runs per pass needed for a tail percentile

# perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux
SETUP_CODE = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from samplex import cli\n"
    "cli.validate_config(json.load(sys.stdin))\n"
    "ready = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "print(ready, speed.ratio_now())\n"
)


def load_cli():
    """Import ``samplex.cli`` from this checkout's ``src/``, never from
    elsewhere on the path."""
    if not (SRC / "samplex" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no samplex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from samplex import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"benchmark: samplex imported from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# running operations


@dataclass
class Result:
    rc: int | None
    out: str
    error: str | None = None  # uncaught exception


def invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return Result(cli.main(argv), out.getvalue())
        except SystemExit as exc:  # argparse refusing the arguments
            return Result(exc.code if isinstance(exc.code, int) else 2, out.getvalue())
        except Exception as exc:
            return Result(None, out.getvalue(), f"{type(exc).__name__}: {exc}")


def argv_for(op, paths):
    if op.config is None:
        return op.argv
    return ["run", "--config", paths[id(op)], *op.argv]


def payload_bytes(out):
    return json.dumps(json.loads(out)["payload"], sort_keys=True).encode()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    fatal: int = 0  # failures that make the run incorrect
    reasons: dict = field(default_factory=dict)

    def record(self, name, reason=None, fatal=True):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.fatal += fatal
            self.reasons.setdefault(name, reason)


def judge(op, res, tally):
    """Count one operation; returns True when it passed.  Every failure is
    fatal except a non-fatal probe's raising or refused exit code."""
    if res.error is not None:
        tally.record(op.name, f"raised {res.error}", op.fatal)
        return False
    if res.rc not in op.accept:
        tally.record(op.name, f"exit {res.rc}, accepts {op.accept}", op.fatal)
        return False
    try:
        op.check(res.rc, res.out)
    except workloads.CheckFailed as exc:
        tally.record(op.name, f"check: {exc}")
        return False
    tally.record(op.name)
    return True


@dataclass
class Pass:
    wall: float  # reference seconds (see speed.py)
    runs: list  # reference seconds of each timed run
    raw_wall: float  # wall-clock seconds


def run_pass(cli, wl, paths, tally, baseline, tracer=None):
    """Run the timed list one run after another while the machine's speed
    is sampled (see speed.py), then check outputs and run the untimed
    probes.  Only the timed list is traced."""
    gc.collect()
    results, spans = [], []
    if tracer is not None:
        tracer.install()
    with speed.Calibration() as calibration:
        if tracer is not None:
            tracer.main_clock = calibration.now
        for index, op in enumerate(wl.timed):
            calibration.between()
            if tracer is not None:
                tracer.run_id = f"{len(tracer.walls)}:{index}"
            t0 = calibration.now()
            results.append(invoke(cli, argv_for(op, paths)))
            spans.append((t0, calibration.now()))
    raw = [t1 - t0 for t0, t1 in spans]
    runs = [(t1 - t0) * calibration.scale(t0, t1) for t0, t1 in spans]
    done = Pass(sum(runs), runs, sum(raw))
    if tracer is not None:
        tracer.uninstall()
        tracer.walls.append(done.wall)
        tracer.raw_walls.append(done.raw_wall)
    for op, res in zip(wl.timed, results):
        ok = judge(op, res, tally)
        if wl.determinism:
            same = ok and baseline.get(id(op)) == payload_bytes(res.out)
            tally.record(f"{op.name}/determinism", None if same else "payload differs from --threads 1 run")
    for extra in wl.probes:
        judge(extra, invoke(cli, argv_for(extra, paths)), tally)
    return done


def threads1_baseline(cli, wl, paths):
    """Payload bytes of each timed config run at --threads 1."""
    out = {}
    for op in wl.timed:
        argv = list(argv_for(op, paths))
        if "--threads" in argv:
            argv[argv.index("--threads") + 1] = "1"
        res = invoke(cli, argv)
        if res.error is None and res.rc == 0:
            try:
                out[id(op)] = payload_bytes(res.out)
            except (ValueError, KeyError):
                pass  # no baseline: every comparison with it fails
    return out


def measure(cli, wl, paths, seconds, tally, baseline, tracer=None, min_passes=MIN_PASSES, setup=None):
    """Repeat passes until the next one would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, wl, paths, tally, baseline, tracer))
        if setup is not None and len(setup.times) <= SETUP_REPEATS:
            setup.start()
        mean_pass = statistics.fmean(p.raw_wall for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + mean_pass > seconds:
            return passes


class SetupTimer:
    """Times fresh interpreters from start to ready: samplex.cli imported,
    the schema loaded and the workload's first config validated.  Each
    interpreter then times the speed kernel itself, and its time is
    scaled to reference seconds by its own speed.  The starts are spread
    over the run, one after each pass, so that they meet the host in more
    than one state; the first only fills the bytecode cache."""

    def __init__(self, config):
        self._data = json.dumps(config)
        # compiled modules are cached under OUT whatever the caller's
        # environment says, as an installed package's would be
        self._env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
        self._env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.times = []
        self.start()

    def start(self):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self._env,
        )
        # a blocking wait: Popen's timeout path polls in 50 ms steps
        guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            out, _ = proc.communicate(self._data)
        finally:
            guard.cancel()
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up interpreter exited {proc.returncode}")
        ready, ratio = map(float, out.split())
        self.times.append((ready - t0) * ratio)

    def seconds(self):
        while len(self.times) <= SETUP_REPEATS:
            self.start()
        return statistics.median(self.times[1:])


# ---------------------------------------------------------------------------
# metrics


def tail(runs, per_pass, medians):
    """(how it was taken, seconds).  With TAIL_MIN_RUNS runs per pass:
    the highest percentile leaving TAIL_BEYOND runs beyond it.  With fewer
    there is no tail percentile, and the median of the slowest kind of run
    stands in for it."""
    if per_pass < TAIL_MIN_RUNS:
        kind = max(medians, key=medians.get)
        return f"median of {kind}", medians[kind]
    ordered = sorted(runs)
    i = len(ordered) - 1 - TAIL_BEYOND
    return f"p{100.0 * (i + 1) / len(ordered):.2f} of {len(ordered)} runs", ordered[i]


def sloc():
    files = sorted((SRC / "samplex").glob("*.py"))
    counts = {f.stem: len(f.read_text().splitlines()) for f in files}
    out = {f"{m}.sloc": counts.get(m, 0) for m in tracing.MODULES}
    out["samplex.sloc"] = sum(counts.values())
    return out


def units():
    """Metric name to unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def layer_metrics(tr, untraced, tally):
    n = len(tr.walls)
    st = tr.collect()
    calls = st.calls
    # tracer times are wall-clock; express them in reference seconds too
    scale = sum(tr.walls) / sum(tr.raw_walls)
    incl = {k: v * scale for k, v in st.incl.items()}
    own = {k: v * scale for k, v in st.own.items()}

    def us(*keys):
        c = sum(calls.get(k, 0) for k in keys)
        return 1e6 * sum(incl.get(k, 0.0) for k in keys) / c if c else 0.0

    def busy(module):
        return sum(v for k, v in own.items() if k.startswith(module + ".")) / n

    mc_s = incl.get("bayes.mc_sample_complexity", 0.0)
    draws = calls.get("processes.sample_discrete", 0)
    bits, trials, steps = st.bits, st.mc_trials, st.mc_steps
    identify = [f"bitstrings.{p}" for _, p, _ in tracing.TARGETS if p.startswith("identify_")]
    pairwise = [f"scdist.{p}" for m, p, _ in tracing.TARGETS if m == "scdist" and p != "enumerate_orderings_oracle"]
    pairwise_n = calls.get("scdist.pairwise_verification", 0) + calls.get("scdist.PairwiseSCDist.__init__", 0)
    traced_wall = statistics.median(tr.walls)
    m = {
        "processes.bitsource_new_us": us("processes.BitSource"),
        "processes.bitsource_new_count": calls.get("processes.BitSource", 0) / n,
        "processes.sample_discrete_us": us("processes.sample_discrete"),
        "processes.sample_discrete_count": draws / n,
        "processes.bits_per_draw": bits / draws if draws else 0.0,
        "processes.bits_consumed": bits / n,
        "processes.spread_decode_us": us("processes.spread_decode"),
        "processes.busy_s": busy("processes"),
        "bayes.mc_s": mc_s / n,
        "bayes.mc_trials": trials / n,
        "bayes.mc_trial_us": 1e6 * mc_s / trials if trials else 0.0,
        "bayes.mc_step_us": 1e6 * mc_s / steps if steps else 0.0,
        "bayes.censored_ratio": st.mc_censored / trials if trials else 0.0,
        "bayes.posterior_update_us": us("bayes.posterior_update"),
        "bayes.posterior_update_count": calls.get("bayes.posterior_update", 0) / n,
        "bayes.check_stop_us": us("bayes.check_stop"),
        "bayes.check_stop_count": calls.get("bayes.check_stop", 0) / n,
        "bayes.expected_sc_s": incl.get("bayes.expected_sc_evaluator", 0.0) / n,
        "bayes.expected_sc_horizon": st.horizon,
        "bayes.busy_s": busy("bayes"),
        "cli.validate_config_us": us("cli.validate_config"),
        "cli.self_s": busy("cli"),
        "bitstrings.build_context_tree_us": us("bitstrings.build_context_tree"),
        "bitstrings.identify_us": us(*identify),
        "bitstrings.busy_s": busy("bitstrings"),
        "scdist.pairwise_us": 1e6 * sum(own.get(k, 0.0) for k in pairwise) / pairwise_n if pairwise_n else 0.0,
        "scdist.oracle_s": incl.get("scdist.enumerate_orderings_oracle", 0.0) / n,
        "scdist.busy_s": busy("scdist"),
        "info.busy_s": busy("info"),
        "trace.overhead_s": traced_wall - statistics.median(p.wall for p in untraced),
        "error_rate": tally.failed / tally.attempted,
    }
    m.update(sloc())
    mean_wall = sum(tr.walls) / n  # the per-pass figures above are means too
    shares = {
        "processes": m["processes.busy_s"] / mean_wall,
        "bayes.mc_sample_complexity": m["bayes.mc_s"] / mean_wall,
        "bayes.expected_sc_evaluator": m["bayes.expected_sc_s"] / mean_wall,
        "cli+bitstrings+scdist": (m["cli.self_s"] + m["bitstrings.busy_s"] + m["scdist.busy_s"]) / mean_wall,
    }
    return m, {
        "untraced_pass_walls_s": [p.wall for p in untraced],
        "traced_pass_walls_s": tr.walls,
        "traced_pass_walls_raw_s": tr.raw_walls,
        "share_of_traced_wall": shares,
    }


def run_medians(wl, passes):
    """Median reference seconds of each kind of timed run."""
    by_kind = {}
    for p in passes:
        for op, r in zip(wl.timed, p.runs):
            by_kind.setdefault(op.name, []).append(r)
    return {k: statistics.median(v) for k, v in by_kind.items()}


def end_to_end(wl, passes, setup_s, tally):
    runs = [r for p in passes for r in p.runs]
    medians = run_medians(wl, passes)
    how, tail_s = tail(runs, len(wl.timed), medians)
    m = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "run_p50_s": statistics.median(runs),
        "run_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - tally.failed / tally.attempted,
    }
    samples = {
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "pass_walls_raw_s": [p.raw_wall for p in passes],
        "runs": len(runs),
        "run_medians_s": medians,
        "run_tail": how,
    }
    return m, samples


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_cli()
    os.environ.pop("SAMPLEX_OUT", None)  # records go to the captured stdout
    wl = workloads.build(args.workload, args.seed)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        paths = {}
        for i, op in enumerate(wl.timed + wl.probes):
            if op.config is not None:
                path = Path(tmp) / f"{i:03d}-{op.name}.json"
                path.write_text(json.dumps(op.config))
                paths[id(op)] = str(path)
        # one untimed pass first, so lazy imports and caches are filled;
        # the --threads 1 runs of a determinism baseline serve as that pass
        if wl.determinism:
            baseline = threads1_baseline(cli, wl, paths)
        else:
            baseline = {}
            run_pass(cli, wl, paths, tally, baseline)
        if args.trace == 0:
            setup = SetupTimer(wl.timed[0].config)
            passes = measure(cli, wl, paths, args.seconds, tally, baseline, setup=setup)
            values, samples = end_to_end(wl, passes, setup.seconds(), tally)
            samples["setup_starts"] = len(setup.times) - 1
        else:
            untraced = measure(cli, wl, paths, args.seconds / 2, tally, baseline, min_passes=2)
            tr = tracing.Tracer()
            measure(cli, wl, paths, args.seconds / 2, tally, baseline, tracer=tr, min_passes=2)
            values, samples = layer_metrics(tr, untraced, tally)
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tr.write(spans_path)
            samples["spans"] = str(spans_path.relative_to(ROOT))

    unit = units()
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in values.items()}
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "samples": samples,
        "failures": tally.reasons,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": tally.fatal == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
