"""Experiment harness: end-to-end runs, determinism across repeats and
worker counts, aggregate traceability, failure isolation, and emission."""

import csv
import os

import pytest

from exqual.errors import InvalidSpec
from exqual.harness import (
    ExperimentConfig,
    emit_report,
    read_bundle,
    run_experiment,
)


def small_gen_spec(n_traces=60):
    return {
        "n_traces": n_traces,
        "activities": ["a", "b", "c", "d"],
        "trace_length": {"min": 2, "max": 6},
        "label_rule": {"kind": "activity_occurs", "activity": "a"},
        "static_attrs": [{"name": "amount", "dtype": "numeric",
                          "distribution": {"kind": "uniform", "lo": 0.0, "hi": 10.0}}],
        "dynamic_attrs": [{"name": "cost", "dtype": "numeric",
                           "distribution": {"kind": "normal", "mean": 5.0, "std": 2.0}}],
    }


def tiny_config(**over):
    doc = {
        "datasets": [{"name": "synthA", "gen_spec": small_gen_spec()}],
        "combos": [{"bucketing": "single", "encoding": "aggregate"}],
        "explainers": [{"id": "surrogate", "n_samples": 300, "k": 4}],
        "min_prefix_length": 2,
        "max_prefix_length": 4,
        "m": 2,
        "top_k": 4,
        "sample_size": 3,
        "n_perturbations": 5,
        "global_seed": 11,
        "model": {"n_trees": 15, "max_depth": 2},
    }
    doc.update(over)
    return doc


@pytest.fixture(scope="module")
def basic_bundle():
    return run_experiment(ExperimentConfig.from_dict(tiny_config()))


def test_run_produces_expected_record_counts(basic_bundle):
    bundle = basic_bundle
    assert not bundle.failures
    # one dataset x one combo x single bucket x one explainer x 3 sampled
    assert len(bundle.records) == 3
    assert len(bundle.timings) == 3
    assert {r.explainer for r in bundle.records} == {"surrogate"}
    assert all(r.d == 10 for r in bundle.records)  # 5 counts + 4 stats + 1 static
    # three metrics for the single populated group
    assert {a.metric for a in bundle.aggregates} == {"by_subset", "by_weight",
                                                     "fidelity"}
    assert len(bundle.aggregates) == 3
    # accuracy rows for every prefix length in the test bucket
    assert {a.prefix_length for a in bundle.accuracy} == {2, 3, 4}
    assert bundle.manifest["counts"]["records"] == 3
    assert bundle.manifest["buckets"][0]["n_sampled"] == 3


def test_records_carry_scores_within_contracts(basic_bundle):
    for r in basic_bundle.records:
        assert r.by_subset <= 1.0
        assert r.by_weight <= 1.0
        assert r.fidelity >= 0.0
        assert 0.5 <= r.y_original < 1.0
        assert r.bucket_id == "all"


def test_aggregate_means_match_their_records(basic_bundle):
    bundle = basic_bundle
    for agg in bundle.aggregates:
        values = [getattr(r, agg.metric if agg.metric != "fidelity" else "fidelity")
                  for r in bundle.records
                  if (r.dataset, r.bucketing, r.encoding, r.explainer)
                  == (agg.dataset, agg.bucketing, agg.encoding, agg.explainer)]
        assert agg.n == len(values)
        assert abs(agg.mean - sum(values) / len(values)) <= 1e-12


def test_rerun_and_worker_count_leave_bundle_identical():
    config = ExperimentConfig.from_dict(tiny_config())
    first = run_experiment(config, workers=1)
    again = run_experiment(config, workers=1)
    threaded = run_experiment(config, workers=3)
    assert first.to_dict() == again.to_dict()
    assert first.to_dict() == threaded.to_dict()


def test_prefix_length_bucketing_trains_per_bucket():
    config = ExperimentConfig.from_dict(tiny_config(
        combos=[{"bucketing": "prefix_length", "encoding": "aggregate"}],
        sample_size=2))
    bundle = run_experiment(config)
    bucket_ids = {r.bucket_id for r in bundle.records}
    assert bucket_ids <= {"2", "3", "4"}
    assert len(bucket_ids) >= 2
    for a in bundle.accuracy:
        assert a.bucket_id == str(a.prefix_length)


def test_shapley_route_through_harness():
    config = ExperimentConfig.from_dict(tiny_config(
        explainers=[{"id": "shapley", "n_background": 6,
                     "n_permutations": 50, "reference_size": 8}],
        sample_size=2))
    bundle = run_experiment(config)
    assert not bundle.failures
    assert len(bundle.records) == 2
    # d=10 <= exact_max_d: repeated exact explanations are identical
    for r in bundle.records:
        assert r.by_subset == 1.0
        assert r.by_weight == 1.0


def test_bad_dataset_is_isolated_not_fatal(tmp_path):
    config = ExperimentConfig.from_dict(tiny_config(
        datasets=[
            {"name": "broken", "csv": str(tmp_path / "missing.csv"),
             "schema": str(tmp_path / "missing.json")},
            {"name": "synthA", "gen_spec": small_gen_spec()},
        ]))
    bundle = run_experiment(config)
    assert len(bundle.failures) == 1
    assert bundle.failures[0].stage == "dataset"
    assert bundle.failures[0].dataset == "broken"
    assert bundle.records  # the healthy dataset still produced results


def test_emitted_files_are_byte_identical_except_timing(tmp_path):
    config = ExperimentConfig.from_dict(tiny_config())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    emit_report(run_experiment(config, workers=1), str(out_a))
    emit_report(run_experiment(config, workers=3), str(out_b))
    names_a = sorted(os.listdir(out_a))
    names_b = sorted(os.listdir(out_b))
    assert names_a == names_b
    for name in names_a:
        if name == "timing.csv":
            continue
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_emitted_csv_tables_are_recomputable(tmp_path):
    bundle = run_experiment(ExperimentConfig.from_dict(tiny_config()))
    emit_report(bundle, str(tmp_path))
    with open(tmp_path / "records.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(bundle.records)
    with open(tmp_path / "aggregate_fidelity.csv", encoding="utf-8") as fh:
        agg_rows = list(csv.DictReader(fh))
    assert len(agg_rows) == 1
    recomputed = sum(float(r["fidelity"]) for r in rows) / len(rows)
    assert abs(float(agg_rows[0]["mean"]) - recomputed) <= 1e-12
    assert (tmp_path / "accuracy_by_prefix.csv").exists()
    assert (tmp_path / "failures.csv").exists()


def test_bundle_json_round_trip(tmp_path):
    bundle = run_experiment(ExperimentConfig.from_dict(tiny_config()))
    emit_report(bundle, str(tmp_path), format="json")
    loaded = read_bundle(str(tmp_path / "bundle.json"))
    assert loaded.to_dict() == bundle.to_dict()


def test_markdown_report_renders_tables(tmp_path):
    bundle = run_experiment(ExperimentConfig.from_dict(tiny_config()))
    emit_report(bundle, str(tmp_path), format="markdown")
    text = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert "Stability by subset" in text
    assert "synthA" in text
    assert "Model accuracy by prefix length" in text


def test_manifest_records_versions_and_seeds(basic_bundle):
    manifest = basic_bundle.manifest
    assert manifest["config"]["global_seed"] == 11
    assert "exqual" in manifest["versions"]
    assert "numpy" in manifest["versions"]
    assert "out_dir" not in manifest["config"]


def test_config_validation():
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_dict(tiny_config(combos=[]))
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_dict(tiny_config(explainers=[]))
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_dict(tiny_config(m=1))
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_dict(tiny_config(mystery_knob=3))
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_dict(tiny_config(
            explainers=[{"id": "gradient"}]))
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_dict(tiny_config(
            model={"n_trees": 5, "seed": 3}))
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_dict(tiny_config(
            datasets=[{"name": "x", "gen_spec": small_gen_spec()},
                      {"name": "x", "gen_spec": small_gen_spec()}]))
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_dict(tiny_config(
            combos=[{"bucketing": "single", "encoding": "bag_of_words"}]))


def test_duplicate_explainer_ids_get_distinct_labels():
    config = ExperimentConfig.from_dict(tiny_config(
        explainers=[{"id": "surrogate", "n_samples": 200, "k": 4},
                    {"id": "surrogate", "n_samples": 400, "k": 4}]))
    assert [e.label for e in config.explainers] == ["surrogate-1", "surrogate-2"]


def test_single_dataset_key_accepted():
    doc = tiny_config()
    doc["dataset"] = doc.pop("datasets")[0]
    config = ExperimentConfig.from_dict(doc)
    assert config.datasets[0].name == "synthA"
