"""Spans around the calls into each exqual module, recorded from outside.

The traced run replaces module attributes with wrappers for the length of
one run and puts the originals back afterwards; nothing under src/exqual
changes. A wrapper sits on the name as the *calling* module resolves it
(`harness.encode`, not `encoding.encode`), so only calls made by that caller
are seen. Spans stay in memory and are written out when the run ends.

Each thread keeps its own stack of open spans. A span opened on a thread
whose stack is empty (a pool thread) takes as parent the innermost span open
on the thread that created the tracer, so pool work hangs under
`harness.run_experiment` and its time is not counted as that span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
import time
from dataclasses import dataclass, field

HARNESS_NAMES = (
    "generate_synthetic_log", "split_train_test", "downsample_majority",
    "extract_prefixes", "build_vocabulary", "encode", "train_gbt",
    "evaluate_accuracy", "explain_shapley", "explain_surrogate",
    "repeat_explanations", "evaluate_instance", "run_experiment", "emit_report",
)
STATS_SPAN = "encoding.MatrixStats.from_matrix"
PREDICT_SPANS = ("explain.predict_proba_rows", "model.predict_proba_rows")

# the span that a predict call is attributed to, by its nearest such ancestor
PREDICT_CALLERS = {
    "harness.explain_shapley": "shapley",
    "harness.explain_surrogate": "surrogate",
    "harness.evaluate_instance": "fidelity",
    "harness.evaluate_accuracy": "accuracy",
}
EXPLAINER_SPANS = ("harness.explain_shapley", "harness.explain_surrogate")


@dataclass
class Span:
    name: str
    start: float
    thread: int
    parent: int | None
    end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "thread": self.thread, "parent": self.parent, "info": self.info}


class Tracer:
    """In-memory span recorder, safe to use from several threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()

    def begin(self, name: str) -> int:
        tid = threading.get_ident()
        start = self.clock()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            owner_stack = self._stacks.get(self._owner)
            if stack:
                parent = stack[-1]
            elif owner_stack:
                parent = owner_stack[-1]
            else:
                parent = None
            sid = len(self.spans)
            self.spans.append(Span(name, start, tid, parent))
            stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        stop = self.clock()
        with self._lock:
            span = self.spans[sid]
            span.end = stop
            stack = self._stacks[span.thread]
            if not stack or stack[-1] != sid:
                raise RuntimeError(f"span {span.name} closed out of order")
            stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """fn inside a span called name. on_result(args, kwargs, result),
        run after the span has closed, returns numbers to keep on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if on_result is not None:
                self.spans[sid].info.update(on_result(args, kwargs, result))
            return result

        return wrapper


@contextlib.contextmanager
def patched(targets):
    """Set owner.attr = replacement for each (owner, attr, replacement) and
    restore every original on exit, also when the body raises."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _encoded_cells(args, kwargs, result):
    return {"cells": result.n * result.d}


def _train_cells(args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "matrix")
    return {"cells": matrix.n * matrix.d * len(result.trees)}


def _prefixes(args, kwargs, result):
    return {"prefixes": len(result)}


def _shapley_regime(args, kwargs, result):
    config = _arg(args, kwargs, 2, "config")
    return {"exact": int(result.n_features <= config.exact_max_d)}


def _bytes_written(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


_ON_RESULT = {
    "extract_prefixes": _prefixes,
    "encode": _encoded_cells,
    "train_gbt": _train_cells,
    "explain_shapley": _shapley_regime,
    "emit_report": _bytes_written,
}


def layer_targets(tracer: Tracer, on_shapley=None) -> list[tuple]:
    """The (owner, attr, wrapper) triples for one traced run. on_shapley, if
    given, also sees every explain_shapley call as the harness makes it."""
    from exqual import encoding, explain, harness, model

    targets = []
    for name in HARNESS_NAMES:
        hook = _ON_RESULT.get(name)
        if name == "explain_shapley" and on_shapley is not None:
            hook = _both(hook, on_shapley)
        targets.append((harness, name,
                        tracer.wrap(f"harness.{name}", getattr(harness, name), hook)))
    from_matrix = vars(encoding.MatrixStats)["from_matrix"]
    targets.append((encoding.MatrixStats, "from_matrix",
                    classmethod(tracer.wrap(STATS_SPAN, from_matrix.__func__))))
    targets.append((explain, "predict_proba_rows",
                    tracer.wrap(PREDICT_SPANS[0], explain.predict_proba_rows, _rows)))
    targets.append((model, "predict_proba_rows",
                    tracer.wrap(PREDICT_SPANS[1], model.predict_proba_rows, _rows)))
    return targets


def _both(first, second):
    def hook(args, kwargs, result):
        info = first(args, kwargs, result)
        second(args, kwargs, result)
        return info
    return hook


# ------------------------------------------------------------ span arithmetic

def _union_length(intervals) -> float:
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children on several threads may overlap each other)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = _union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in kids)
        out.append(span.duration - covered)
    return out


def nearest(spans: list[Span], index: int, names) -> str | None:
    """Name of the closest proper ancestor of spans[index] among names."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return spans[parent].name
        parent = spans[parent].parent
    return None


# ------------------------------------------------------------ layer metrics

def layer_metrics(spans: list[Span], workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit). Layer
    names are exqual's module names."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1

    def tot(name):
        return total.get(f"harness.{name}", 0.0)

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    predict_rows = {who: 0 for who in PREDICT_CALLERS.values()}
    predict_s = {who: 0.0 for who in PREDICT_CALLERS.values()}
    explainer_rows = 0
    for i, span in enumerate(spans):
        if span.name not in PREDICT_SPANS:
            continue
        caller = nearest(spans, i, PREDICT_CALLERS)
        if caller is None:
            raise ValueError(f"predict span {i} has no known caller")
        who = PREDICT_CALLERS[caller]
        predict_rows[who] += span.info["rows"]
        predict_s[who] += span.duration
        if caller in EXPLAINER_SPANS:
            explainer_rows += span.info["rows"]
    n_predict = sum(calls.get(name, 0) for name in PREDICT_SPANS)
    rows = sum(predict_rows.values())
    seconds = sum(predict_s.values())

    shapley = [i for i, s in enumerate(spans) if s.name == "harness.explain_shapley"]
    reference = [i for i in shapley
                 if nearest(spans, i, ("harness.repeat_explanations",)) is None]
    explain_calls = len(shapley) + calls.get("harness.explain_surrogate", 0)

    run = [s for s in spans if s.name == "harness.run_experiment"]
    task_spans = [s for s in spans if s.name in ("harness.repeat_explanations",
                                                  "harness.evaluate_instance")]
    if len(run) != 1 or not task_spans:
        raise ValueError("a traced run needs one run_experiment span and some tasks")
    pool_start = min(s.start for s in task_spans)
    pool_s = max(s.end for s in task_spans) - pool_start
    busy = sum(s.duration for s in task_spans)

    m = {
        "synthetic.generate_s": (tot("generate_synthetic_log"), "s"),
        "eventlog.prepare_s": (tot("split_train_test") + tot("downsample_majority")
                               + tot("extract_prefixes"), "s"),
        "eventlog.prefixes": (info_sum("harness.extract_prefixes", "prefixes"), "count"),
        "encoding.encode_s": (tot("encode"), "s"),
        "encoding.cells": (info_sum("harness.encode", "cells"), "count"),
        "encoding.stats_s": (tot("build_vocabulary") + total.get(STATS_SPAN, 0.0), "s"),
        "model.train_s": (tot("train_gbt"), "s"),
        "model.train_cells": (info_sum("harness.train_gbt", "cells"), "count"),
        "model.predict_calls": (n_predict, "count"),
        "model.predict_rows": (rows, "count"),
        "model.predict_s": (seconds, "s"),
        "model.rows_per_call": (rows / n_predict if n_predict else 0.0, "rows/call"),
        "model.us_per_row": (1e6 * seconds / rows if rows else 0.0, "us"),
    }
    for who in PREDICT_CALLERS.values():
        m[f"model.predict_rows.{who}"] = (predict_rows[who], "count")
        m[f"model.predict_s.{who}"] = (predict_s[who], "s")
    m.update({
        "explain.shapley_calls": (len(shapley), "count"),
        "explain.shapley_exact_calls": (info_sum("harness.explain_shapley", "exact"), "count"),
        "explain.shapley_self_s": (self_total.get("harness.explain_shapley", 0.0), "s"),
        "explain.reference_calls": (len(reference), "count"),
        "explain.reference_s": (sum(spans[i].duration for i in reference), "s"),
        "explain.surrogate_calls": (calls.get("harness.explain_surrogate", 0), "count"),
        "explain.surrogate_self_s": (self_total.get("harness.explain_surrogate", 0.0), "s"),
        "explain.rows_per_explanation": (
            explainer_rows / explain_calls if explain_calls else 0.0, "rows"),
        "explain.repeat_s": (tot("repeat_explanations"), "s"),
        "metrics.evaluate_s": (tot("evaluate_instance"), "s"),
        "metrics.evaluate_self_s": (self_total.get("harness.evaluate_instance", 0.0), "s"),
        "harness.serial_s": (pool_start - run[0].start, "s"),
        "harness.pool_s": (pool_s, "s"),
        "harness.pool_util": (busy / (workers * pool_s) if pool_s > 0 else 0.0, "ratio"),
        "harness.self_s": (self_total.get("harness.run_experiment", 0.0), "s"),
        "harness.emit_s": (tot("emit_report"), "s"),
        "harness.bytes_written": (info_sum("harness.emit_report", "bytes"), "B"),
    })
    return m
