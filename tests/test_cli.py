"""Command-line interface: the full subcommand chain, file outputs, and
exit-code contract (0 ok, 1 usage, 2 data error, 3 partial failure)."""

import csv
import json

import numpy as np
import pytest

from exqual.cli import main
from exqual.encoding import (
    SINGLE,
    BucketingStrategy,
    bucket,
    build_vocabulary,
    encode,
    read_matrix,
    write_matrix,
)
from exqual.eventlog import LogSchema, extract_prefixes, split_train_test
from exqual.explain import (
    Attribution,
    Explanation,
    ExplanationSet,
    derive_seed,
    explanation_set_to_dict,
    repeat_explanations,
)
from exqual.harness import ExplainerSpec, _sc, build_explainer_assets
from exqual.metrics import FLAG_INTERVAL_FALLBACK, evaluate_instance
from exqual.model import GBTConfig, read_model, train_gbt, write_model
from exqual.synthetic import generate_synthetic_log

from test_harness import small_gen_spec, tiny_config


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> encode -> train once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cliwork")
    spec_path = root / "gen.json"
    spec_path.write_text(json.dumps(small_gen_spec(n_traces=80)), encoding="utf-8")
    data_dir = root / "data"
    enc_dir = root / "encoded"
    model_path = root / "model.json"

    assert main(["synth", "--gen-spec", str(spec_path), "--seed", "3",
                 "--out", str(data_dir)]) == 0
    assert main(["encode", "--log", str(data_dir / "log.csv"),
                 "--schema", str(data_dir / "schema.json"),
                 "--bucketing", "single", "--encoding", "aggregate",
                 "--min-prefix", "2", "--max-prefix", "4",
                 "--out", str(enc_dir)]) == 0
    assert main(["train", "--matrix", str(enc_dir / "bucket_all"),
                 "--seed", "5", "--out", str(model_path)]) == 0
    return root


def test_synth_outputs(workspace):
    data = workspace / "data"
    assert (data / "log.csv").exists()
    assert (data / "schema.json").exists()
    meta = json.loads((data / "meta.json").read_text(encoding="utf-8"))
    assert meta["label_rule"]["kind"] == "activity_occurs"
    # schema file loads back into a usable schema
    schema = LogSchema.from_json(str(data / "schema.json"))
    assert schema.label_column == "label"


def test_encode_outputs(workspace):
    enc = workspace / "encoded"
    assert (enc / "vocab.json").exists()
    matrix = read_matrix(str(enc / "bucket_all"))
    assert matrix.d == 10
    assert matrix.n > 0


def test_explain_and_eval_chain(workspace, tmp_path):
    enc = workspace / "encoded"
    matrix = read_matrix(str(enc / "bucket_all"))
    expl_dir = tmp_path / "explanations"
    expl_dir.mkdir()
    # two instances, one per explainer flavor
    case_a, len_a = matrix.case_ids[0], int(matrix.prefix_lengths[0])
    case_b, len_b = matrix.case_ids[-1], int(matrix.prefix_lengths[-1])
    assert main(["explain", "--model", str(workspace / "model.json"),
                 "--matrix", str(enc / "bucket_all"),
                 "--case", case_a, "--prefix-length", str(len_a),
                 "--explainer", "surrogate", "--m", "3", "--seed", "7",
                 "--n-samples", "200", "--k", "4",
                 "--out", str(expl_dir / "a.json")]) == 0
    assert main(["explain", "--model", str(workspace / "model.json"),
                 "--matrix", str(enc / "bucket_all"),
                 "--case", case_b, "--prefix-length", str(len_b),
                 "--explainer", "shapley", "--m", "2", "--seed", "7",
                 "--n-background", "4", "--n-permutations", "50",
                 "--out", str(expl_dir / "b.json")]) == 0

    stab_csv = tmp_path / "stability.csv"
    assert main(["eval-stability", "--explanations", str(expl_dir),
                 "--k", "4", "--out", str(stab_csv)]) == 0
    with open(stab_csv, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["case_id"] for r in rows} == {case_a, case_b}
    shapley_row = next(r for r in rows if r["case_id"] == case_b)
    assert float(shapley_row["by_subset"]) == 1.0  # exact repeats

    fid_csv = tmp_path / "fidelity.csv"
    assert main(["eval-fidelity", "--explanations", str(expl_dir),
                 "--model", str(workspace / "model.json"),
                 "--matrix", str(enc / "bucket_all"),
                 "--k", "4", "--seed", "1", "--out", str(fid_csv)]) == 0
    with open(fid_csv, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for r in rows:
        assert float(r["fidelity"]) >= 0.0
        assert 0.5 <= float(r["y_original"]) < 1.0


@pytest.mark.parametrize("explainer, defaults", [
    ("surrogate", ["--n-samples", "5000", "--k", "10"]),
    ("shapley", ["--n-background", "16", "--n-permutations", "2000"]),
])
def test_explain_defaults_live_in_the_explainer(workspace, tmp_path, explainer, defaults):
    """Unset explainer flags store no options, and eval-fidelity scores the
    set as it scores one written with the defaults spelled out."""
    enc = workspace / "encoded"
    matrix = read_matrix(str(enc / "bucket_all"))
    case, length = matrix.case_ids[0], str(int(matrix.prefix_lengths[0]))
    scored = []
    for name, flags in (("bare", []), ("spelled", defaults)):
        out = tmp_path / name
        out.mkdir()
        assert main(["explain", "--model", str(workspace / "model.json"),
                     "--matrix", str(enc / "bucket_all"), "--case", case,
                     "--prefix-length", length, "--explainer", explainer, "--m", "2",
                     "--seed", "4", *flags, "--out", str(out / "set.json")]) == 0
        assert main(["eval-fidelity", "--explanations", str(out),
                     "--model", str(workspace / "model.json"),
                     "--matrix", str(enc / "bucket_all"), "--k", "4", "--seed", "1",
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
        scored.append((tmp_path / f"{name}.csv").read_bytes())
    assert scored[0] == scored[1]
    bare = json.loads((tmp_path / "bare" / "set.json").read_text(encoding="utf-8"))
    assert bare["explainer_spec"] == {"id": explainer}


def test_run_and_report(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny_config()), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--seed", "5",
                 "--workers", "2", "--out", str(out_dir)]) == 0
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "bundle.json").exists()
    assert (out_dir / "manifest.json").exists()

    re_dir = tmp_path / "rendered"
    assert main(["report", "--bundle", str(out_dir / "bundle.json"),
                 "--format", "markdown", "--out", str(re_dir)]) == 0
    assert "Stability by subset" in (re_dir / "report.md").read_text(encoding="utf-8")


def test_run_partial_failure_exit_code(tmp_path):
    doc = tiny_config(datasets=[
        {"name": "broken", "csv": str(tmp_path / "nope.csv"),
         "schema": str(tmp_path / "nope.json")},
        {"name": "ok", "gen_spec": small_gen_spec()},
    ])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 3


def test_usage_errors_exit_1(tmp_path):
    assert main(["frobnicate"]) == 1  # unknown subcommand
    assert main(["run"]) == 1  # missing required --config
    assert main(["run", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 1
    # config present but no out dir anywhere
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(tiny_config()), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_data_errors_exit_2(tmp_path, workspace):
    # structurally broken config file
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{\"combos\": []", encoding="utf-8")
    assert main(["run", "--config", str(bad_cfg), "--out", str(tmp_path)]) == 2

    # well-formed JSON holding a malformed setting
    for over in (
            {"combos": [{"bucketing": "single", "encoding": "aggregate", "x": 1}]},
            {"m": "ten"},
            {"explainers": [{"id": "shapley", "n_background": "many"}]}):
        bad_cfg.write_text(json.dumps(tiny_config(**over)), encoding="utf-8")
        assert main(["run", "--config", str(bad_cfg), "--out", str(tmp_path)]) == 2

    # model options the trainer does not take; the seed comes from --seed
    for options in ({"seed": 3}, {"min_samples_leaf": 5}):
        bad_cfg.write_text(json.dumps(options), encoding="utf-8")
        assert main(["train", "--matrix", str(workspace / "encoded" / "bucket_all"),
                     "--config", str(bad_cfg),
                     "--out", str(tmp_path / "model.json")]) == 2

    # a bundle that is not valid JSON
    bundle = tmp_path / "bundle.json"
    bundle.write_text("{\"records\": [", encoding="utf-8")
    assert main(["report", "--bundle", str(bundle), "--out", str(tmp_path / "r")]) == 2

    # CSV missing the columns its schema promises
    log = tmp_path / "log.csv"
    log.write_text("foo,bar\n1,2\n", encoding="utf-8")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "case_id_column": "case_id", "activity_column": "activity",
        "timestamp_column": "timestamp", "attribute_decls": [],
        "label_column": "label", "positive_label": "deviant",
    }), encoding="utf-8")
    assert main(["encode", "--log", str(log), "--schema", str(schema),
                 "--out", str(tmp_path / "enc")]) == 2


def test_eval_stability_partial_exit_3(tmp_path, workspace):
    enc = workspace / "encoded"
    matrix = read_matrix(str(enc / "bucket_all"))
    expl_dir = tmp_path / "expl"
    expl_dir.mkdir()
    case_a, len_a = matrix.case_ids[0], int(matrix.prefix_lengths[0])
    assert main(["explain", "--model", str(workspace / "model.json"),
                 "--matrix", str(enc / "bucket_all"),
                 "--case", case_a, "--prefix-length", str(len_a),
                 "--m", "2", "--n-samples", "200", "--k", "4",
                 "--out", str(expl_dir / "good.json")]) == 0
    (expl_dir / "broken.json").write_text("{}", encoding="utf-8")
    out = tmp_path / "stab.csv"
    assert main(["eval-stability", "--explanations", str(expl_dir),
                 "--k", "4", "--out", str(out)]) == 3
    with open(out, encoding="utf-8") as fh:
        assert len(list(csv.DictReader(fh))) == 1


def test_cli_fidelity_matches_harness_path(tmp_path):
    """explain -> eval-fidelity scores an instance exactly as the in-process
    harness path does with the same assets and seeds."""
    log = generate_synthetic_log(small_gen_spec(n_traces=80), seed=3)
    train_log, test_log = split_train_test(log, 0.7, seed=1)
    single = BucketingStrategy(SINGLE)
    (_, train_prefixes), = bucket(extract_prefixes(train_log, 2, 4), single)
    (_, test_prefixes), = bucket(extract_prefixes(test_log, 2, 4), single)
    vocab = build_vocabulary(train_prefixes, log.schema)
    paths = {}
    for name, prefixes in (("train", train_prefixes), ("test", test_prefixes)):
        paths[name] = str(tmp_path / name)
        write_matrix(encode(prefixes, log.schema, "aggregate", vocab, "all"), paths[name])
    model_path = str(tmp_path / "model.json")
    write_model(train_gbt(read_matrix(paths["train"]),
                          GBTConfig(n_trees=5, max_depth=3, seed=2)), model_path)
    model = read_model(model_path)
    train, test = read_matrix(paths["train"]), read_matrix(paths["test"])

    expl_dir = tmp_path / "explanations"
    expl_dir.mkdir()
    common = ["--model", model_path, "--train-matrix", paths["train"],
              "--matrix", paths["test"]]
    cases = {
        "shapley": (0, {"n_background": 8, "n_permutations": 50}),
        "surrogate": (test.n - 1, {"n_samples": 300, "k": 4}),
    }
    for eid, (r, options) in cases.items():
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in options.items()]
        assert main(["explain", *common, "--case", test.case_ids[r],
                     "--prefix-length", str(int(test.prefix_lengths[r])),
                     "--explainer", eid, "--m", "3", "--seed", "11", *flags,
                     "--out", str(expl_dir / f"{eid}.json")]) == 0
    fid_csv = tmp_path / "fidelity.csv"
    assert main(["eval-fidelity", "--explanations", str(expl_dir), *common,
                 "--k", "4", "--n-perturbations", "10", "--seed", "5",
                 "--out", str(fid_csv)]) == 0
    with open(fid_csv, encoding="utf-8") as fh:
        rows = {(r["case_id"], int(r["prefix_length"])): r for r in csv.DictReader(fh)}

    for eid, (r, options) in cases.items():
        case = (test.case_ids[r], int(test.prefix_lengths[r]))
        spec = ExplainerSpec.from_dict({"id": eid, **options}, eid)
        assets = build_explainer_assets(spec, train, test, model, global_seed=11)
        es = repeat_explanations(assets.explain_fn, model, test.rows[r], m=3,
                                 base_seed=11)
        record = evaluate_instance(
            model, ExplanationSet(es.explanations, case_ref=case),
            assets.region_matrix, train_stats=assets.train_stats, k=4,
            n_perturbations=10, attribution_matrix=assets.attribution_matrix,
            rng=np.random.default_rng(derive_seed(5, _sc(case[0]), case[1])),
            row=test.rows[r])
        row = rows[case]
        assert row["fidelity"] == repr(record.f)
        assert row["y_original"] == repr(record.y_original)
        assert row["flags"] == "|".join(record.flags)
        if eid == "shapley":
            assert FLAG_INTERVAL_FALLBACK not in row["flags"]

    # a set written without its explainer spec and seed cannot be rescored
    doc = json.loads((expl_dir / "shapley.json").read_text(encoding="utf-8"))
    del doc["explainer_spec"], doc["assets_seed"]
    old_dir = tmp_path / "old"
    old_dir.mkdir()
    (old_dir / "shapley.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval-fidelity", "--explanations", str(old_dir), *common,
                 "--out", str(tmp_path / "old.csv")]) == 2


def _copy_matrix(workspace, tmp_path, edit_csv=None, edit_doc=None) -> str:
    """A copy of the workspace matrix at tmp_path/matrix, edited on the way."""
    src = workspace / "encoded" / "bucket_all"
    text = src.with_suffix(".csv").read_text(encoding="utf-8")
    doc = json.loads(src.with_suffix(".json").read_text(encoding="utf-8"))
    (tmp_path / "matrix.csv").write_text(edit_csv(text) if edit_csv else text,
                                         encoding="utf-8")
    if edit_doc:
        edit_doc(doc)
    (tmp_path / "matrix.json").write_text(json.dumps(doc), encoding="utf-8")
    return str(tmp_path / "matrix")


def _report(ws, tmp, text):
    (tmp / "bundle.json").write_text(text, encoding="utf-8")
    return ["report", "--bundle", str(tmp / "bundle.json"), "--out", str(tmp / "r")]


def _explain(ws, tmp, text):
    (tmp / "model.json").write_text(text, encoding="utf-8")
    matrix = read_matrix(str(ws / "encoded" / "bucket_all"))
    return ["explain", "--model", str(tmp / "model.json"),
            "--matrix", str(ws / "encoded" / "bucket_all"),
            "--case", matrix.case_ids[0], "--prefix-length",
            str(int(matrix.prefix_lengths[0])), "--out", str(tmp / "e.json")]


def _edited_model(edit):
    def build(ws, tmp):
        doc = json.loads((ws / "model.json").read_text(encoding="utf-8"))
        edit(doc)
        return _explain(ws, tmp, json.dumps(doc))
    return build


def _first_split(doc) -> tuple[dict, int]:
    tree = doc["trees"][0]
    return tree, next(i for i, f in enumerate(tree["feature"]) if f >= 0)


def _split_on(feature):
    def edit(doc):
        tree, node = _first_split(doc)
        tree["feature"][node] = feature
    return edit


def _dangling_child(doc):
    tree, node = _first_split(doc)
    tree["left"][node] = len(tree["feature"])


def _infinite_threshold(doc):
    tree, node = _first_split(doc)
    tree["threshold"][node] = float("inf")


def _zero_width(doc):
    """n_features 0, with every tree a single leaf so that no split names a
    column past it."""
    doc["n_features"] = 0
    for tree in doc["trees"]:
        tree.update(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                    default_left=[True], value=tree["value"][:1])


def _as_linear(doc):
    width = doc["n_features"]
    doc.clear()
    doc.update(format_version=1, kind="linear", intercept=0.0,
               weights=[str(k + 1) for k in range(width)])


def _encode(ws, tmp, text):
    (tmp / "schema.json").write_text(text, encoding="utf-8")
    return ["encode", "--log", str(ws / "data" / "log.csv"),
            "--schema", str(tmp / "schema.json"), "--out", str(tmp / "enc")]


def _train(ws, tmp, basepath):
    return ["train", "--matrix", basepath, "--out", str(tmp / "model.json")]


def _bad_cell(value):
    def edit(text):
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[3] = value
        return "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
    return edit


def _eval_stability(ws, tmp, name="listed.json", text="[]"):
    (tmp / "expl").mkdir()
    (tmp / "expl" / name).write_text(text, encoding="utf-8")
    return ["eval-stability", "--explanations", str(tmp / "expl"),
            "--out", str(tmp / "stab.csv")]


def _edited_set(edit):
    """eval-stability on one explanation set, as the writer lays it out
    and then edited."""
    def build(ws, tmp):
        exps = tuple(Explanation(attributions=(Attribution(0, 0.5, (1.0, 2.0)),
                                               Attribution(2, -0.25)),
                                 selected_k=2, explainer_id="surrogate", seed_used=s,
                                 n_features=4)
                     for s in (1, 2))
        doc = explanation_set_to_dict(ExplanationSet(exps, case_ref=("c1", 2)))
        edit(doc)
        return _eval_stability(ws, tmp, "set.json", json.dumps(doc))
    return build


def _negative_width(doc):
    doc["n_features"] = -1
    for explanation in doc["explanations"]:
        explanation["attributions"] = []


def _attribution(key, value):
    return lambda doc: doc["explanations"][0]["attributions"][1].update({key: value})


def _run(ws, tmp, **over):
    (tmp / "config.json").write_text(json.dumps(tiny_config(**over)), encoding="utf-8")
    return ["run", "--config", str(tmp / "config.json"), "--out", str(tmp / "out")]


def _gen_spec(**over):
    spec = small_gen_spec()
    spec.update(over)
    return spec


def _run_gen_spec(**over):
    return lambda ws, tmp: _run(
        ws, tmp, datasets=[{"name": "synthA", "gen_spec": _gen_spec(**over)}])


def _synth(**over):
    def build(ws, tmp):
        (tmp / "gen.json").write_text(json.dumps(_gen_spec(**over)), encoding="utf-8")
        return ["synth", "--gen-spec", str(tmp / "gen.json"), "--out", str(tmp / "data")]
    return build


def _numeric_attr(distribution):
    return [{"name": "amount", "dtype": "numeric", "distribution": distribution}]


def _score_rule(weight):
    return {"kind": "score_threshold", "threshold": 1.0,
            "terms": [{"feature": {"kind": "activity_count", "activity": "a"},
                       "weight": weight}]}


def _mistyped_bundle(ws, tmp):
    doc = {"aggregates": [{"dataset": "d", "bucketing": "single",
                           "encoding": "aggregate", "explainer": "surrogate",
                           "metric": "fidelity", "n": 1, "mean": "x", "min": 0.0,
                           "q1": 0.0, "median": 0.0, "q3": 0.0, "max": 0.0}]}
    return _report(ws, tmp, json.dumps(doc))


def _manifest_bundle(config):
    return lambda ws, tmp: _report(ws, tmp, json.dumps({"manifest": {"config": config}}))


# name -> (argv builder, expected exit code, the file stderr must name)
MALFORMED_INPUTS = {
    "report-list-bundle": (lambda ws, tmp: _report(ws, tmp, "[]"), 2, "bundle.json"),
    "report-mistyped-aggregate": (_mistyped_bundle, 2, "bundle.json"),
    "explain-invalid-json-model": (lambda ws, tmp: _explain(ws, tmp, "{"), 2, "model.json"),
    "explain-list-model": (lambda ws, tmp: _explain(ws, tmp, "[]"), 2, "model.json"),
    "explain-model-without-trees": (_edited_model(lambda doc: doc.pop("trees")),
                                    2, "model.json"),
    "explain-out-of-range-feature": (_edited_model(_split_on(99)), 2, "model.json"),
    "explain-negative-feature": (_edited_model(_split_on(-2)), 2, "model.json"),
    "explain-fractional-feature": (_edited_model(_split_on(1.5)), 2, "model.json"),
    "explain-dangling-child": (_edited_model(_dangling_child), 2, "model.json"),
    "explain-short-tree-array": (
        _edited_model(lambda doc: doc["trees"][0]["value"].pop()), 2, "model.json"),
    "explain-string-n-features": (
        _edited_model(lambda doc: doc.update(n_features=str(doc["n_features"]))),
        2, "model.json"),
    "explain-fractional-n-features": (
        _edited_model(lambda doc: doc.update(n_features=doc["n_features"] + 0.9)),
        2, "model.json"),
    "explain-bool-n-features": (_edited_model(lambda doc: doc.update(n_features=True)),
                                2, "model.json"),
    "explain-string-base-score": (
        _edited_model(lambda doc: doc.update(base_score=str(doc["base_score"]))),
        2, "model.json"),
    "explain-int-fingerprint": (
        _edited_model(lambda doc: doc.update(descriptors_fingerprint=7)), 2, "model.json"),
    "explain-bool-learning-rate": (
        _edited_model(lambda doc: doc["config"].update(learning_rate=True)),
        2, "model.json"),
    "explain-float-n-trees": (
        _edited_model(lambda doc: doc["config"].update(n_trees=float(doc["config"]["n_trees"]))),
        2, "model.json"),
    "explain-linear-model-kind": (_edited_model(_as_linear), 2, "model.json"),
    "explain-nan-base-score": (
        _edited_model(lambda doc: doc.update(base_score=float("nan"))), 2, "model.json"),
    "explain-infinite-threshold": (_edited_model(_infinite_threshold), 2, "model.json"),
    "explain-empty-trees": (_edited_model(lambda doc: doc.update(trees=[])), 2, "model.json"),
    "explain-fewer-trees-than-config": (
        _edited_model(lambda doc: doc.update(trees=doc["trees"][:-1])), 2, "model.json"),
    "explain-zero-n-features": (_edited_model(_zero_width), 2, "model.json"),
    "report-list-config": (_manifest_bundle([]), 2, "bundle.json"),
    "report-dataset-without-name": (_manifest_bundle({"datasets": [{}]}),
                                    2, "bundle.json"),
    "encode-invalid-json-schema": (lambda ws, tmp: _encode(ws, tmp, "{"), 2, "schema.json"),
    "encode-list-schema": (lambda ws, tmp: _encode(ws, tmp, "[]"), 2, "schema.json"),
    "train-non-numeric-cell": (
        lambda ws, tmp: _train(ws, tmp, _copy_matrix(ws, tmp, edit_csv=_bad_cell("x"))),
        2, "matrix.csv"),
    "train-infinite-cell": (
        lambda ws, tmp: _train(ws, tmp, _copy_matrix(ws, tmp, edit_csv=_bad_cell("inf"))),
        2, "matrix.csv"),
    "train-matrix-without-descriptors": (
        lambda ws, tmp: _train(ws, tmp, _copy_matrix(
            ws, tmp, edit_doc=lambda doc: doc.pop("descriptors"))),
        2, "matrix.json"),
    "train-missing-matrix": (lambda ws, tmp: _train(ws, tmp, str(tmp / "absent")),
                             1, "absent"),
    "train-negative-seed": (
        lambda ws, tmp: _train(ws, tmp, str(ws / "encoded" / "bucket_all")) + ["--seed", "-1"],
        2, "seed"),
    "synth-negative-seed": (lambda ws, tmp: _synth()(ws, tmp) + ["--seed", "-1"], 2, "seed"),
    "explain-negative-model-seed": (
        _edited_model(lambda doc: doc["config"].update(seed=-1)), 2, "model.json"),
    "eval-stability-list-explanations": (_eval_stability, 2, "listed.json"),
    "eval-stability-fractional-prefix-length": (
        _edited_set(lambda doc: doc.update(prefix_length=2.7)), 2, "set.json"),
    "eval-stability-fractional-n-features": (
        _edited_set(lambda doc: doc.update(n_features=3.9)), 2, "set.json"),
    "eval-stability-negative-n-features": (_edited_set(_negative_width), 2, "set.json"),
    "eval-stability-fractional-column": (
        _edited_set(_attribution("column_index", 1.9)), 2, "set.json"),
    "eval-stability-string-column": (
        _edited_set(_attribution("column_index", "2")), 2, "set.json"),
    "eval-stability-bool-weight": (_edited_set(_attribution("weight", True)), 2, "set.json"),
    "eval-stability-string-weight": (
        _edited_set(_attribution("weight", "0.5")), 2, "set.json"),
    "eval-stability-string-degenerate": (
        _edited_set(lambda doc: doc["explanations"][1].update(degenerate="no")),
        2, "set.json"),
    "eval-stability-reversed-interval": (
        _edited_set(lambda doc: doc["explanations"][0]["attributions"][0].update(
            interval={"lo": 5.0, "hi": 1.0})),
        2, "set.json"),
    "eval-stability-selected-k-off-count": (
        _edited_set(lambda doc: doc["explanations"][1].update(selected_k=-3)),
        2, "set.json"),
    "run-non-object-explainer": (lambda ws, tmp: _run(ws, tmp, explainers=[5]),
                                 2, "config.json"),
    "run-string-n-trees": (lambda ws, tmp: _run(ws, tmp, model={"n_trees": "x"}),
                           2, "config.json"),
    "run-bool-n-trees": (lambda ws, tmp: _run(ws, tmp, model={"n_trees": True}),
                         2, "config.json"),
    "run-string-downsample": (lambda ws, tmp: _run(ws, tmp, downsample="no"),
                              2, "config.json"),
    "run-fractional-m": (lambda ws, tmp: _run(ws, tmp, m=10.5), 2, "config.json"),
    "run-nan-kernel-width": (
        lambda ws, tmp: _run(ws, tmp, explainers=[{"id": "surrogate", "n_samples": 300,
                                                   "kernel_width": float("nan")}]),
        2, "config.json"),
    "run-too-few-surrogate-samples": (
        lambda ws, tmp: _run(ws, tmp, explainers=[{"id": "surrogate", "n_samples": 99}]),
        2, "config.json"),
    "run-zero-surrogate-k": (
        lambda ws, tmp: _run(ws, tmp, explainers=[{"id": "surrogate", "n_samples": 300,
                                                   "k": 0}]),
        2, "config.json"),
    "run-negative-kernel-width": (
        lambda ws, tmp: _run(ws, tmp, explainers=[{"id": "surrogate", "n_samples": 300,
                                                   "kernel_width": -1.0}]),
        2, "config.json"),
    "run-zero-n-background": (
        lambda ws, tmp: _run(ws, tmp, explainers=[{"id": "shapley", "n_background": 0}]),
        2, "config.json"),
    "run-zero-reference-size": (
        lambda ws, tmp: _run(ws, tmp, explainers=[{"id": "shapley", "reference_size": 0}]),
        2, "config.json"),
    "run-zero-n-permutations": (
        lambda ws, tmp: _run(ws, tmp, explainers=[{"id": "shapley", "n_permutations": 0}]),
        2, "config.json"),
    "run-exact-max-d-above-cap": (
        lambda ws, tmp: _run(ws, tmp, explainers=[{"id": "shapley", "exact_max_d": 25}]),
        2, "config.json"),
    "run-negative-exact-max-d": (
        lambda ws, tmp: _run(ws, tmp, explainers=[{"id": "shapley", "exact_max_d": -1}]),
        2, "config.json"),
    "run-string-n-traces": (_run_gen_spec(n_traces="ten"), 2, "config.json"),
    "run-misspelt-gen-spec-key": (_run_gen_spec(n_trace=10), 2, "config.json"),
    "run-attribute-named-like-a-log-column": (
        _run_gen_spec(static_attrs=_numeric_attr({"kind": "normal", "mean": 0, "std": 1})
                      + [{"name": "label", "dtype": "categorical", "categories": ["x"]}]),
        2, "config.json"),
    "synth-trace-length-without-max": (_synth(trace_length={"min": 2}), 2, "gen.json"),
    "synth-uniform-without-lo": (
        _synth(static_attrs=_numeric_attr({"kind": "uniform", "hi": 1.0})), 2, "gen.json"),
    "synth-int-activities": (_synth(activities=5), 2, "gen.json"),
    "synth-string-missing-rate": (_synth(missing_rate="lots"), 2, "gen.json"),
    "synth-string-term-weight": (_synth(label_rule=_score_rule("2")), 2, "gen.json"),
    "synth-misspelt-key": (_synth(n_trace=10), 2, "gen.json"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_one_line(name, workspace, tmp_path, capsys):
    build, expected, culprit = MALFORMED_INPUTS[name]
    argv = build(workspace, tmp_path)
    capsys.readouterr()
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert culprit in err
    assert len(err.strip().splitlines()) == 1, err


def test_model_refuses_matrix_from_other_vocabulary(workspace, tmp_path, capsys):
    """Same width, other columns: the model's descriptor fingerprint differs."""
    spec = small_gen_spec(n_traces=80)
    spec["activities"] = ["a", "b", "c", "z"]
    spec_path = tmp_path / "gen.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["synth", "--gen-spec", str(spec_path), "--seed", "3",
                 "--out", str(tmp_path / "data")]) == 0
    assert main(["encode", "--log", str(tmp_path / "data" / "log.csv"),
                 "--schema", str(tmp_path / "data" / "schema.json"),
                 "--min-prefix", "2", "--max-prefix", "4",
                 "--out", str(tmp_path / "enc")]) == 0
    ours = str(workspace / "encoded" / "bucket_all")
    other = str(tmp_path / "enc" / "bucket_all")
    matrix = read_matrix(other)
    assert matrix.d == read_matrix(ours).d
    model = str(workspace / "model.json")
    capsys.readouterr()
    assert main(["explain", "--model", model, "--matrix", other,
                 "--case", matrix.case_ids[0],
                 "--prefix-length", str(int(matrix.prefix_lengths[0])),
                 "--out", str(tmp_path / "e.json")]) == 2
    assert "fingerprint" in capsys.readouterr().err
    (tmp_path / "expl").mkdir()
    (tmp_path / "expl" / "unread.json").write_text("{}", encoding="utf-8")
    assert main(["eval-fidelity", "--explanations", str(tmp_path / "expl"),
                 "--model", model, "--matrix", ours, "--train-matrix", other,
                 "--out", str(tmp_path / "fid.csv")]) == 2
    assert "fingerprint" in capsys.readouterr().err
