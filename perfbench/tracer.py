"""Tracing of the samplex library from outside its code.

Public functions are wrapped from outside: each wrapper replaces the
original under every name a ``samplex`` module bound it to, so calls made
by ``cli`` (which imports most functions by name) and by the library's
own modules are both seen.  Nothing under ``src/`` is edited.

Every wrapped call counts towards its function (calls, inclusive time)
and towards its module's self time (inclusive time minus the time of the
wrapped calls nested in it).  Calls that are not marked hot also leave a
span (name, start, end, parent span, run id, thread) kept in memory and
written out once the benchmark ends.  Fair bits are counted from each
BitSource's own ``bits_consumed`` when the source is released, not by
wrapping the per-bit ``next_bit``.

Calls on the main thread are timed by ``main_clock``, which the caller
may set to a clock that leaves out its own interruptions.  Trial loops
on a thread pool run beside a blocked caller: calls on a worker thread
are timed by that thread's CPU clock, which leaves out the time spent
waiting for the interpreter lock, and the interval of a worker's
outermost call is subtracted once (as a union) from the self time of the
caller that waits for it.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

MODULES = ("cli", "bayes", "processes", "scdist", "bitstrings", "info")

# (module, attribute path, hot).  Hot functions are called per symbol or
# per trial: they get counts and times but no spans.
TARGETS = (
    ("cli", "main", False),
    ("cli", "validate_config", False),
    ("processes", "BitSource", True),
    ("processes", "sample_discrete", True),
    ("processes", "iid_sample", True),
    ("processes", "markov_sample", True),
    ("processes", "spread_encode", False),
    ("processes", "spread_decode", False),
    ("processes", "spec_from_json", False),
    ("bayes", "mc_sample_complexity", False),
    ("bayes", "expected_sc_evaluator", False),
    ("bayes", "falsification_bounds", False),
    ("bayes", "posterior_update", True),
    ("bayes", "check_stop", True),
    ("bayes", "typical_set_bounds", True),
    ("bitstrings", "SortedHypothesisSet.from_unsorted", False),
    ("bitstrings", "build_context_tree", False),
    ("bitstrings", "identify_sorted", False),
    ("bitstrings", "identify_depth_first", False),
    ("bitstrings", "identify_tree", False),
    ("scdist", "pairwise_verification", True),
    ("scdist", "PairwiseSCDist.__init__", True),
    ("scdist", "PairwiseSCDist.pmf", True),
    ("scdist", "PairwiseSCDist.cdf", True),
    ("scdist", "PairwiseSCDist.moment", True),
    ("scdist", "PointMassSCDist.pmf", True),
    ("scdist", "PointMassSCDist.cdf", True),
    ("scdist", "PointMassSCDist.moment", True),
    ("scdist", "enumerate_orderings_oracle", False),
    ("info", "entropy", True),
    ("info", "entropy_rate", True),
    ("info", "total_variation", True),
    ("info", "cross_entropy", True),
    ("info", "relative_entropy", True),
)


class _Frame:
    __slots__ = ("key", "t0", "w0", "child", "detached", "span", "parent_frame")

    def __init__(self, key, t0, w0, span):
        self.key = key
        self.t0 = t0  # on the thread's clock
        self.w0 = w0  # main clock, kept for spans and worker roots
        self.child = 0.0
        self.detached = None
        self.span = span
        self.parent_frame = None


class _ThreadStats:
    """Aggregates of one thread; merged after a pass so that no two
    threads update the same counter."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.own = defaultdict(float)  # self time per wrapped function
        self.bits = 0
        self.mc_trials = 0
        self.mc_steps = 0
        self.mc_censored = 0
        self.horizon = 0


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class Tracer:
    """Installs the wrappers on ``install`` and removes them on
    ``uninstall``; ``collect`` merges the aggregates of every thread."""

    def __init__(self):
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None
        self._threads = []
        self._ids = itertools.count(1)
        self._undo = []
        self.spans = []
        self.run_id = None
        self.walls = []  # reference seconds of each traced pass
        self.raw_walls = []  # wall-clock seconds of each traced pass
        self.main_clock = time.perf_counter
        self.epoch = time.perf_counter()

    # -- per-thread state -------------------------------------------------
    def _state(self):
        loc = self._local
        stack = getattr(loc, "stack", None)
        if stack is None:
            stack = loc.stack = []
            loc.stats = _ThreadStats()
            self._threads.append(loc.stats)
            loc.worker = threading.current_thread() is not self._main
            if not loc.worker:
                self._main_stack = stack
        return loc

    def _clock(self, loc):
        return time.thread_time() if loc.worker else self.main_clock()

    def enter(self, key, hot):
        loc = self._state()
        stack = loc.stack
        span = None if hot else next(self._ids)
        worker_root = not stack and loc.worker and self._main_stack
        w0 = self.main_clock() if span or worker_root else None
        frame = _Frame(key, self._clock(loc), w0, span)
        if worker_root:
            frame.parent_frame = self._main_stack[-1]
        stack.append(frame)
        return frame

    def exit(self, frame):
        loc = self._state()
        dur = self._clock(loc) - frame.t0
        stack = loc.stack
        stack.pop()
        if stack:
            stack[-1].child += dur
        own = dur - frame.child
        if frame.detached:
            own -= _union_length(frame.detached)
        stats = loc.stats
        stats.calls[frame.key] += 1
        stats.incl[frame.key] += dur
        stats.own[frame.key] += max(own, 0.0)
        if frame.w0 is None:
            return
        w1 = self.main_clock()
        parent = stack[-1] if stack else frame.parent_frame
        if frame.parent_frame is not None:
            if parent.detached is None:
                parent.detached = []
            parent.detached.append((frame.w0, w1))
        if frame.span is not None:
            self.spans.append(
                {
                    "id": frame.span,
                    "name": frame.key,
                    "start": frame.w0 - self.epoch,
                    "end": w1 - self.epoch,
                    "parent": None if parent is None else parent.span,
                    "run": self.run_id,
                    "thread": threading.get_ident(),
                }
            )

    # -- wrappers ----------------------------------------------------------
    def _wrap_function(self, fn, key, hot, observe):
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            frame = enter(key, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _wrap_bitsource(self, cls, key):
        tracer = self

        class TracedBitSource(cls):
            """Times construction; adds the flips a source handed out to
            the fair-bit count when the source is released."""

            __slots__ = ()

            def __init__(self, seed):
                frame = tracer.enter(key, True)
                try:
                    super().__init__(seed)
                finally:
                    tracer.exit(frame)

            def __del__(self):
                tracer._state().stats.bits += self.bits_consumed

        return TracedBitSource

    def _observe_mc(self, args, kwargs, report):
        stats = self._state().stats
        max_steps = kwargs.get("max_steps", args[6] if len(args) > 6 else None)
        decided_steps = sum(t * c for t, c in report.dist.counts.items())
        stats.mc_trials += report.trials
        stats.mc_censored += report.dist.censored
        stats.mc_steps += decided_steps + report.dist.censored * (max_steps or 0)

    def _observe_esc(self, args, kwargs, estimate):
        stats = self._state().stats
        if estimate.smallest_t is not None:
            stats.horizon = max(stats.horizon, estimate.smallest_t)

    def install(self):
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "samplex" or name.startswith("samplex.")
        }
        observers = {
            "bayes.mc_sample_complexity": self._observe_mc,
            "bayes.expected_sc_evaluator": self._observe_esc,
        }
        for module, path, hot in TARGETS:
            owner = mods[f"samplex.{module}"]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            raw = owner.__dict__[attr]
            key = f"{module}.{path}"
            if isinstance(raw, staticmethod):
                original = raw.__func__
                replacement = staticmethod(
                    self._wrap_function(original, key, hot, None)
                )
                self._patch(owner, attr, raw, replacement)
                continue
            if isinstance(raw, type):
                original = raw
                replacement = self._wrap_bitsource(raw, key)
            else:
                original = raw
                replacement = self._wrap_function(
                    raw, key, hot, observers.get(key)
                )
            if len(parts) > 1:
                self._patch(owner, attr, raw, replacement)
                continue
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, value, replacement)

    def _patch(self, owner, name, old, new):
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def uninstall(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    # -- results -------------------------------------------------------------
    def collect(self):
        """Every thread's aggregates, merged."""
        out = _ThreadStats()
        for stats in self._threads:
            for k, v in stats.calls.items():
                out.calls[k] += v
            for k, v in stats.incl.items():
                out.incl[k] += v
            for k, v in stats.own.items():
                out.own[k] += v
            out.bits += stats.bits
            out.mc_trials += stats.mc_trials
            out.mc_steps += stats.mc_steps
            out.mc_censored += stats.mc_censored
            out.horizon = max(out.horizon, stats.horizon)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
