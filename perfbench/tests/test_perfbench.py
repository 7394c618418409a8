"""Tests of the benchmark's own code: span arithmetic, wrapper removal and
metric names. Run with `python3 -m pytest perfbench/tests`."""

import json
import os
import re
import threading

import pytest

import child
import run
import tracing
from tracing import Span, Tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0]))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    leaf = tracer.begin("leaf")
    tracer.end(leaf)  # 2..3
    tracer.end(inner)  # 1..4
    second = tracer.begin("second")
    tracer.end(second)  # 5..6
    tracer.end(outer)  # 0..10
    assert [s.parent for s in tracer.spans] == [None, outer, inner, outer]
    assert tracing.self_times(tracer.spans) == [10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("run", 0.0, thread=1, parent=None, end=10.0),
             Span("a", 1.0, thread=2, parent=0, end=6.0),
             Span("b", 2.0, thread=3, parent=0, end=8.0),
             Span("c", 9.5, thread=2, parent=0, end=12.0)]  # clipped to the parent
    assert tracing.self_times(spans) == pytest.approx([10.0 - 7.0 - 0.5, 5.0, 6.0, 2.5])


def test_each_thread_keeps_its_own_parent_stack():
    tracer = Tracer()
    root = tracer.begin("run")
    both_open = threading.Barrier(2, timeout=10)
    ids = {}

    def work(name):
        ids[name] = tracer.begin(name)
        both_open.wait()
        ids[name + ".inner"] = tracer.begin(name + ".inner")
        tracer.end(ids[name + ".inner"])
        tracer.end(ids[name])

    threads = [threading.Thread(target=work, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.end(root)
    spans = tracer.spans
    assert spans[ids["a"]].parent == root and spans[ids["b"]].parent == root
    assert spans[ids["a.inner"]].parent == ids["a"]
    assert spans[ids["b.inner"]].parent == ids["b"]
    assert spans[ids["a"]].thread != spans[ids["b"]].thread


def test_patched_restores_originals_when_the_body_raises():
    class Owner:
        attr = "original"

    with pytest.raises(ZeroDivisionError):
        with tracing.patched([(Owner, "attr", "replacement")]):
            assert Owner.attr == "replacement"
            1 / 0
    assert Owner.attr == "original"


TINY = {
    "datasets": [{"name": "tiny", "gen_spec": {
        "n_traces": 60, "activities": ["a", "b", "c"],
        "trace_length": {"min": 2, "max": 4},
        "label_rule": {"kind": "activity_occurs", "activity": "a"}}}],
    "combos": [{"bucketing": "single", "encoding": "aggregate"}],
    "explainers": [{"id": "surrogate", "n_samples": 100, "k": 2},
                   {"id": "shapley", "n_background": 4, "reference_size": 2,
                    "n_permutations": 20}],
    "min_prefix_length": 2, "max_prefix_length": 3,
    "m": 2, "top_k": 2, "sample_size": 2, "n_perturbations": 3,
    "global_seed": 5, "model": {"n_trees": 3, "max_depth": 2},
}


@pytest.fixture(scope="module")
def traced_result(tmp_path_factory):
    from exqual import encoding, explain, harness, model

    owners = [(harness, n) for n in tracing.HARNESS_NAMES] + [
        (encoding.MatrixStats, "from_matrix"), (explain, "predict_proba_rows"),
        (model, "predict_proba_rows")]
    before = [vars(owner)[attr] for owner, attr in owners]
    run_dir = tmp_path_factory.mktemp("traced")
    with open(run_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(TINY, fh)
    assert child.main([ROOT, str(run_dir), "2", "1"]) == 0
    after = [vars(owner)[attr] for owner, attr in owners]
    with open(run_dir / "result.json", encoding="utf-8") as fh:
        return json.load(fh), before, after


def test_wrappers_are_removed_after_a_traced_run(traced_result):
    _, before, after = traced_result
    assert all(b is a for b, a in zip(before, after))


def test_traced_run_passes_its_checks(traced_result):
    result, _, _ = traced_result
    assert result["errors"] == [] and result["failures"] == 0
    assert result["records"] == result["tasks"] == 4
    eff = result["efficiency"]
    assert eff["errors"] == [] and eff["exact"] == 2 * 2 + 2  # m per task + reference


def test_trace_mode_reports_exactly_the_declared_per_layer_metrics(traced_result):
    result, _, _ = traced_result
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    untraced = [{"run_s": result["run_s"]}]
    metrics = run.per_layer(untraced, result)
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(unit == units[name] for name, (_, unit) in metrics.items())
    layers = dict(metrics)
    assert layers["explain.shapley_calls"][0] == 6
    assert layers["explain.reference_calls"][0] == 2
    assert layers["explain.surrogate_calls"][0] == 4
    assert layers["model.predict_rows.surrogate"][0] == 4 * 100


def test_metric_and_workload_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)
    e2e = run.end_to_end([{"setup_s": 0.2, "run_s": 2.0, "explanations": 10,
                           "explain_seconds": [[3, 0.1], [3, 0.2]], "rss_mb": 50.0}])
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
