"""Span tracer that wraps the public functions of the p300loop modules.

The tracer lives outside the package: `install()` replaces every public
module-level function of the traced modules (and `FrameReader.feed`) with a
wrapper that records a span, in the defining module and in every other
package module that imported the same function object by name.  `uninstall()`
puts the originals back.  The `core` module is not wrapped: its helpers
(`slice_window`, `time_to_sample`) are called per epoch and per event, and
their time is counted in the caller's self time.

A span is (id, name, start, end, self, parent id, thread name, op, extra).
Self time is the span's duration minus the time covered by its child spans on
the same thread.  Spans opened on another thread (the stream's producer)
start a fresh stack there and carry the op that was current when they
opened, which is the op that started the thread.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

PACKAGE = "p300loop"
MODULES = ("scheduler", "subject", "acquisition", "dsp", "features", "ica",
           "lda", "session", "cli")
METHODS = (("acquisition", "FrameReader", "feed"),)

MIB = float(1 << 20)

# Per-layer metric -> the functions whose self time it sums.  A name ending
# in ".*" stands for every wrapped function of that module.
SELF_MS = {
    "scheduler.schedule_ms": ("scheduler.*",),
    "subject.simulate_ms": ("subject.*",),
    "acquisition.encode_ms": ("acquisition.encode_frame",
                              "acquisition.stream_record",
                              "acquisition.save_record"),
    "session.stream_wait_ms": ("session.run_online_selection",),
    "acquisition.feed_ms": ("acquisition.FrameReader.feed",
                            "acquisition.decode_frame"),
    "acquisition.reassemble_ms": ("acquisition.reassemble",),
    "dsp.design_ms": ("dsp.design_bandpass",),
    "dsp.filter_ms": ("dsp.filter_apply",),
    "dsp.scale_ms": ("dsp.minmax_fit", "dsp.minmax_apply"),
    "features.prune_ms": ("features.prune_channels",),
    "features.segment_ms": ("features.segment",
                            "features.build_feature_vector"),
    "features.dataset_ms": ("features.dataset_from_scenario",),
    "ica.fit_ms": ("ica.fit", "ica.whiten", "ica.fastica"),
    "ica.clean_ms": ("ica.classify_components", "ica.reconstruct"),
    "lda.train_ms": ("lda.train",),
    "session.cv_ms": ("session.cross_validated_auc",),
    "session.score_ms": ("session.score_vectors",),
    "session.vote_ms": ("session.trial_winner", "session.majority_vote"),
    "acquisition.model_io_ms": ("acquisition.save_model",
                                "acquisition.load_model"),
    "cli.train_self_ms": ("cli.*",),
}

# Per-layer metric -> the function whose calls it counts (per op).
CALLS = {
    "acquisition.feed_calls": "acquisition.FrameReader.feed",
    "dsp.design_calls": "dsp.design_bandpass",
    "ica.fit_calls": "ica.fit",
    "lda.train_calls": "lda.train",
}

def _feed_bytes(args, _kwargs):
    return len(args[1])


def _design_spec(args, _kwargs):
    return repr(args[0])


# What a span records beside its times, for the derived metrics.
EXTRA = {
    "acquisition.FrameReader.feed": _feed_bytes,
    "dsp.design_bandpass": _design_spec,
}


class Tracer:
    """Wraps the package's public functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                        for name in MODULES}
        self.names = self._targets()

    def _targets(self) -> dict[str, object]:
        """Qualified name -> original function, for every wrapped callable."""
        targets = {}
        for short, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[f"{short}.{attr}"] = obj
        for short, cls_name, meth in METHODS:
            cls = getattr(self.modules[short], cls_name)
            targets[f"{short}.{cls_name}.{meth}"] = cls.__dict__[meth]
        return targets

    def _wrap(self, name: str, func):
        extra_of = EXTRA.get(name)
        spans = self.spans
        ids = self._ids
        local = self._local
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else None
            span_id = next(ids)
            frame = [span_id, 0.0]  # id, time covered by children
            stack.append(frame)
            op = tracer.op
            extra = extra_of(args, kwargs) if extra_of else None
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, name, start, end, duration - frame[1],
                              parent, threading.current_thread().name, op,
                              extra))

        return wrapper

    def install(self) -> None:
        """Swap each wrapped function for its tracing wrapper, package-wide."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {id(func): self._wrap(name, func)
                    for name, func in self.names.items()}
        package = importlib.import_module(PACKAGE)
        namespaces = [package, *self.modules.values()]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._saved.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(self.modules[short], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, wrappers[id(original)])

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._saved):
            setattr(namespace, attr, obj)
        self._saved.clear()

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[1]] += span[4]
        return dict(totals)

    def calls_by_name(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[1]] += 1
        return dict(counts)

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Every per-layer metric, per op of the traced rounds."""
        if n_ops < 1:
            raise ValueError("need at least one traced op")
        self_s = self.self_time_by_name()
        calls = self.calls_by_name()
        out = {}
        for metric, members in SELF_MS.items():
            total = 0.0
            for member in members:
                if member.endswith(".*"):
                    prefix = member[:-1]
                    total += sum(v for k, v in self_s.items()
                                 if k.startswith(prefix))
                else:
                    total += self_s.get(member, 0.0)
            out[metric] = 1000.0 * total / n_ops
        for metric, member in CALLS.items():
            out[metric] = calls.get(member, 0) / n_ops
        fed = sum(s[8] for s in self.spans
                  if s[1] == "acquisition.FrameReader.feed")
        feed_s = (self_s.get("acquisition.FrameReader.feed", 0.0)
                  + self_s.get("acquisition.decode_frame", 0.0))
        out["acquisition.feed_mb"] = fed / MIB / n_ops
        out["acquisition.load_mb_per_s"] = (fed / MIB / feed_s
                                            if feed_s else 0.0)
        specs = {s[8] for s in self.spans if s[1] == "dsp.design_bandpass"}
        out["dsp.designs_per_spec"] = (calls.get("dsp.design_bandpass", 0)
                                       / len(specs)) if specs else 0.0
        return out

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span (gzip)."""
        keys = ("id", "name", "start", "end", "self", "parent", "thread",
                "op", "extra")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
