"""Layer tracing from outside the package, for the benchmark's traced run.

`installed(tracer, mods)` replaces the functions in TARGETS with wrappers on
their module or class attribute, and on every other eaqec module that holds
the same function object under an imported name, then puts the originals
back.  The CLI reaches each layer through such attributes
(`analysis.analyze_subset`, `simulate.verify_ea`, ...) and the layers call
each other the same way, so the wrappers see the real calls.  A layer is a
package module; a call's layer is the module that defines the function.

SpanTracer records one span per call (name, start, end, parent, job) and
keeps them in memory.  AllocTracer, run in its own pass, records each
layer's tracemalloc high-water mark above the level at span entry.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("cli", "analysis", "stab", "codes", "structure", "simulate", "qla")

# (layer, attribute path) of every wrapped function.
TARGETS = (
    ("cli", "main"),
    ("analysis", "analyze_subset"),
    ("analysis", "kl_matrix"),
    ("analysis", "classify"),
    ("stab", "StabilizerGroup.from_strings"),
    ("stab", "codewords"),
    ("codes", "fixture"),
    ("codes", "min_distance"),
    ("codes", "PauliOperator.apply"),
    ("structure", "decompose"),
    ("structure", "compress"),
    ("simulate", "verify_ea"),
    ("simulate", "kl_recovery"),
    ("qla", "eig_hermitian"),
    ("qla", "svd"),
    ("qla", "sqrtm_psd"),
    ("qla", "bipartite_matrix"),
)


# Functions whose own self time, call count or calls per job is reported.
SELF_TIMED = ("analysis.kl_matrix", "analysis.classify", "simulate.verify_ea",
              "simulate.kl_recovery", "stab.codewords", "stab.StabilizerGroup.from_strings",
              "codes.min_distance", "codes.PauliOperator.apply", "codes.fixture",
              "structure.decompose", "structure.compress", "qla.eig_hermitian", "qla.svd",
              "qla.sqrtm_psd", "qla.bipartite_matrix")
CALL_COUNTED = ("analysis.kl_matrix", "simulate.kl_recovery", "stab.codewords",
                "codes.min_distance", "codes.PauliOperator.apply", "structure.decompose")
PER_JOB = ("analysis.kl_matrix", "stab.codewords")
# Inclusive time of the function that leads each workload, children included.
INCLUSIVE = ("analysis.kl_matrix", "simulate.verify_ea", "stab.codewords")


def _arg(sig, args, kwargs, name):
    return sig.bind_partial(*args, **kwargs).arguments[name]


# Work counts taken from a call's arguments or result: name -> (counter, fn).
COUNTERS = {
    "analysis.kl_matrix": (
        "pauli_pairs", lambda sig, a, k, r: 16 ** len(tuple(_arg(sig, a, k, "subset")))),
    "simulate.kl_recovery": (
        "dense_bytes",
        lambda sig, a, k, r: len(_arg(sig, a, k, "errors")) * 4 ** _arg(sig, a, k, "code").n * 16),
    "stab.codewords": (
        "projector_bytes", lambda sig, a, k, r: 4 ** _arg(sig, a, k, "group").n * 16),
    "simulate.verify_ea": ("cases", lambda sig, a, k, r: r.cases_run),
}


def _resolve(mods, layer, path):
    """(owner object, attribute name, raw attribute) for a TARGETS entry."""
    owner = getattr(mods, layer)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def current_targets(mods):
    """{span name: raw attribute} as the package holds them right now."""
    return {f"{layer}.{path}": _resolve(mods, layer, path)[2] for layer, path in TARGETS}


def _aliases(fn):
    """(module, name) of every eaqec module attribute bound to fn."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "eaqec" or mod_name.startswith("eaqec.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, name))
    return out


@contextlib.contextmanager
def installed(tracer, mods):
    """Swap every target for a wrapper that reports to the tracer; restore on exit."""
    saved = []   # (owner, attribute, original raw attribute)
    try:
        for layer, path in TARGETS:
            owner, attr, raw = _resolve(mods, layer, path)
            name = f"{layer}.{path}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, name))
                places = [(owner, attr)]
            elif isinstance(owner, type):
                wrapped = tracer.wrap(raw, name)
                places = [(owner, attr)]
            else:
                wrapped = tracer.wrap(raw, name)
                places = _aliases(raw)
            for place, place_attr in places:
                saved.append((place, place_attr, getattr(place, "__dict__")[place_attr]))
                setattr(place, place_attr, wrapped)
        yield tracer
    finally:
        for place, place_attr, raw in reversed(saved):
            setattr(place, place_attr, raw)


class SpanTracer:
    """Timing spans kept in memory: (id, name, start, end, parent id, job id)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.job = None

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job))
            if counter:
                self.counts[f"{name}.{counter[0]}"] += counter[1](sig, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def job_span(self, job_id, fn):
        """Run fn as the root span of one job."""
        self.job = job_id
        return self.wrap(fn, "job")()

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

    def metrics(self, jobs: int) -> dict:
        """Per-layer self times and shares, call counts and work counts."""
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for sid, name, start, end, parent, job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        total_s = defaultdict(float)
        layer_self = defaultdict(float)
        total = 0.0
        for sid, name, start, end, parent, job in self.spans:
            own = end - start - child_time[sid]
            if name == "job":
                total += end - start
                continue
            self_s[name] += own
            total_s[name] += end - start
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.self_share"] = layer_self[layer] / total
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_s[name]
        for name in INCLUSIVE:
            out[f"{name}.total_s"] = total_s[name]
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = calls[name]
        for name in PER_JOB:
            out[f"{name}.calls_per_job"] = calls[name] / jobs
        for name, (counter, _) in COUNTERS.items():
            out[f"{name}.{counter}"] = self.counts[f"{name}.{counter}"]
        out["codes.min_distance.paulis_tested"] = sum(
            1 for s in self.spans
            if s[1] == "codes.PauliOperator.apply" and s[4] is not None
            and by_id[s[4]][1] == "codes.min_distance")
        return out


class AllocTracer:
    """Per-layer tracemalloc peak above the traced size at span entry.

    A span entry folds the peak so far into the parent's record and resets
    it; on exit the span's peak is folded back into the parent's, so each
    span sees only its own interval and no peak is lost.
    """

    def __init__(self):
        self.peak = Counter()   # layer -> bytes
        self._stack = []        # [traced size at entry, peak so far]

    def wrap(self, fn, name):
        layer = name.split(".", 1)[0]
        stack, peak = self._stack, self.peak

        def wrapper(*args, **kwargs):
            current, so_far = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], so_far)
            tracemalloc.reset_peak()
            frame = [current, current]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frame_peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                stack.pop()
                peak[layer] = max(peak[layer], frame_peak - frame[0])
                if stack:
                    stack[-1][1] = max(stack[-1][1], frame_peak)
                tracemalloc.reset_peak()

        wrapper.__wrapped__ = fn
        return wrapper

    def job_span(self, job_id, fn):
        return fn()

    def metrics(self) -> dict:
        return {f"{layer}.peak_alloc_mb": self.peak[layer] / 2 ** 20 for layer in LAYERS}


def per_layer_units() -> dict:
    """Unit of every per-layer metric the traced run reports, keyed by name."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "ratio"
    units.update({f"{name}.self_s": "s" for name in SELF_TIMED})
    units.update({f"{name}.total_s": "s" for name in INCLUSIVE})
    units.update({f"{name}.calls": "count" for name in CALL_COUNTED})
    units.update({f"{name}.calls_per_job": "count/job" for name in PER_JOB})
    for name, (counter, _) in COUNTERS.items():
        units[f"{name}.{counter}"] = "bytes" if counter.endswith("bytes") else "count"
    units["codes.min_distance.paulis_tested"] = "count"
    units.update({f"{layer}.peak_alloc_mb": "MB" for layer in LAYERS})
    units["trace_overhead"] = "ratio"
    return units
