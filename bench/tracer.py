"""Outside-in span tracing of the polarcomm layers.

The program carries no tracing code, so the tracer replaces layer functions
with timing wrappers for the duration of a `with Tracer():` block and puts
the originals back on exit. Modules import each other with `from .x import
y`, so a function is patched under every module attribute its callers look it
up through (for example `sample_sequential` under `polarcomm.protocol`, where
`run_round` finds it), not only where it is defined.

Each span records its name, start, end and parent span; spans stay in memory
until the run ends. The tracer's own cost is computed, not inferred from two
noisy runs: the number of spans times the measured cost of one wrapper
(`calibrate`), plus the timed cost of the count hooks. Counts marked "computed" are derived from argument
shapes inside the wrappers, never from counters inside the program.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

import numpy as np

# (span name, defining "module.attr" or "module.Class.attr", other modules
# whose namespace holds the same function under the same attribute name)
TRACED = (
    ("probability.validate_markov", "probability.validate_markov", ("protocol",)),
    ("probability.decode_table", "probability.AuxChainModel.decode_table", ()),
    ("probability.mutual_information", "probability.mutual_information", ("protocol",)),
    ("probability.entropy_bits", "probability.entropy_bits", ("protocol",)),
    ("models.build", "models.build_and_chain", ()),
    ("models.build", "models.build_collocated_chain", ()),
    ("transform.apply_transform", "transform.apply_transform",
     ("protocol", "reliability", "exact")),
    ("sc.sample_sequential", "sc.sample_sequential", ("protocol",)),
    ("sc.chain_probability", "sc.chain_probability", ()),
    ("reliability.profile_monte_carlo", "reliability.profile_monte_carlo", ("protocol",)),
    ("reliability.profile_exact", "reliability.profile_exact", ("protocol",)),
    ("reliability.build_partition", "reliability.build_partition", ("protocol",)),
    ("exact.sampled_chain_table", "exact.sampled_chain_table", ("verification",)),
    ("exact.split_block_joint", "exact.split_block_joint", ("verification",)),
    ("protocol.plan_protocol", "protocol.plan_protocol", ()),
    ("protocol.run_round", "protocol.run_round", ()),
    ("protocol.run_two_terminal", "protocol.run_two_terminal", ("verification",)),
    ("protocol.run_collocated", "protocol.run_collocated", ("verification",)),
    ("protocol.sample_sources", "protocol.sample_sources", ("verification",)),
    ("protocol.compute_function", "protocol.compute_function", ()),
    ("verification.function_error_rate", "verification.function_error_rate", ()),
    ("verification.exact_q_tv", "verification.exact_q_tv", ()),
    ("verification.agreement_probability", "verification.agreement_probability", ()),
)

LAYERS = ("probability", "models", "transform", "sc", "reliability", "exact",
          "protocol", "verification")

# computed counts, summed over calls (the *_bytes entries are maxima)
COUNTS = ("sc.decisions", "sc.pair_ops", "sc.nulls", "sc.stack_bytes",
          "reliability.profile_cells", "reliability.pair_ops",
          "reliability.stack_bytes", "transform.bits")

OBS_TAG, PRIOR_TAG = 2, 1  # polarcomm.sc OBSERVATION_CONDITIONAL, PRIOR_CONDITIONAL


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span


def _log2(n: int) -> int:
    return int(n).bit_length() - 1


def _stack_bytes(batch: int, n_len: int) -> int:
    # PairStack levels (B, 2^l, 2) float64 for l = 0..n: 16 B (2N - 1) bytes
    return 16 * batch * (2 * n_len - 1)


class Tracer:
    """Patch the layer functions of `polarcomm` and record one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.counter_s = 0.0  # time spent in the computed-count hooks
        self.per_call_s = 0.0  # what a wrapper adds to a call, see calibrate()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for name, home, aliases in TRACED:
            module_name, *qual = home.split(".")
            owner = importlib.import_module(f"polarcomm.{module_name}")
            for part in qual[:-1]:
                owner = getattr(owner, part)
            attr = qual[-1]
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            owners = [owner]
            for alias in aliases:
                module = importlib.import_module(f"polarcomm.{alias}")
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{alias}.{attr} is not {home}")
                owners.append(module)
            for target in owners:
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._stack.clear()

    def _wrap(self, name: str, func):
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)
        signature = inspect.signature(func) if counter else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            bound = before = None
            if counter:
                hook_start = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
                before = counter(bound, None)
                self.counter_s += time.perf_counter() - hook_start
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter:
                hook_start = time.perf_counter()
                counter(bound, (before, result))
                self.counter_s += time.perf_counter() - hook_start
            return result

        return traced

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> float:
        """Measure `per_call_s`, the seconds a wrapper without a count hook
        adds to one call: a wrapped no-op against the bare one, best of
        `repeats` loops of `calls` calls each."""
        def noop():
            return None

        wrapped = self._wrap("trace.calibrate", noop)
        best = {}
        for label, func in (("bare", noop), ("wrapped", wrapped)):
            loops = []
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(calls):
                    func()
                loops.append(time.perf_counter() - start)
                self.spans.clear()
            best[label] = min(loops)
        self.reset()
        self.per_call_s = max(best["wrapped"] - best["bare"], 0.0) / calls
        return self.per_call_s

    def overhead_s(self) -> float:
        """Seconds the tracer added since the last reset: every span's wrapper
        cost plus the time spent in the count hooks."""
        return len(self.spans) * self.per_call_s + self.counter_s

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def _peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), int(value))

    # computed counts: called once before (done=None) and once after a call
    def _count_sc_sample_sequential(self, a, done):
        log = a["anomalies"]
        if done is None:
            return log.count if log is not None else 0
        before, v_block = done
        self._sc_counts(a["policy"].tags, np.atleast_2d(v_block).shape[0])
        if log is not None:
            self._add("sc.nulls", log.count - before)

    def _count_sc_chain_probability(self, a, done):
        if done is not None:
            self._sc_counts(a["policy"].tags, np.atleast_2d(a["v_block"]).shape[0])

    def _sc_counts(self, tags, batch: int) -> None:
        n_len = tags.size
        stacks = int(np.any(tags == OBS_TAG)) + int(np.any(tags == PRIOR_TAG))
        self._add("sc.decisions", batch * n_len)
        self._add("sc.pair_ops", stacks * batch * n_len * _log2(n_len))
        self._peak("sc.stack_bytes", stacks * _stack_bytes(batch, n_len))

    def _count_reliability_profile_monte_carlo(self, a, done):
        if done is not None:
            n_len, samples = int(a["n_len"]), int(a["samples"])
            self._add("reliability.profile_cells", samples * n_len)
            self._add("reliability.pair_ops", samples * n_len * _log2(n_len))
            self._peak("reliability.stack_bytes",
                       _stack_bytes(min(int(a["chunk"]), samples), n_len))

    def _count_transform_apply_transform(self, a, done):
        if done is not None:
            self._add("transform.bits", np.asarray(a["bits"]).size)

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per function and per layer.

        Self time is a span's duration minus its child spans. Inclusive time
        counts a span only when no ancestor has the same name (resp. layer),
        so nested calls are not summed twice.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict = {}
        for name in [t[0] for t in TRACED] + list(LAYERS):
            out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
        for idx, span in enumerate(self.spans):
            dur = span.end - span.start
            layer = span.name.split(".", 1)[0]
            ancestors = set()
            p = span.parent
            while p >= 0:
                ancestors.add(self.spans[p].name)
                ancestors.add(self.spans[p].name.split(".", 1)[0])
                p = self.spans[p].parent
            for key in (span.name, layer):
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += dur - child_time[idx]
                if key not in ancestors:
                    out[f"{key}.s"] += dur
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = self.overhead_s()
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        out["sc.null_ratio"] = out["sc.nulls"] / out["sc.decisions"] if out["sc.decisions"] else 0.0
        return out

    def top_level_s(self, start: float, end: float) -> float:
        """Seconds covered by top-level spans inside the interval [start, end]."""
        return sum(s.end - s.start for s in self.spans
                   if s.parent < 0 and s.start >= start and s.end <= end)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.counter_s = 0.0

    def records(self) -> list:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]
