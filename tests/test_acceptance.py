"""Acceptance gate: property-based checks plus qualitative reproduction of
the structural findings the toolkit is built around. Each test prints one
PASS line; a failed assertion means the criterion is red.

Criterion list:
 1. metric implementations match independent oracles (1e-12) + hand values
 2. deterministic explainer => perfect stability on every instance
 3. exact Shapley: efficiency within 1e-6, dummy features exactly 0
 4. surrogate recovers a linear black box (ranking, signs, ratios <= 5%)
 5. fidelity separates ground-truth targets from random targets
 6. encoding widths match closed-form arithmetic; index grows linearly
 7. surrogate stability decreases as the feature space grows
 8. per-explanation wall time increases with the feature space
 9. (optional) real datasets produce the documented widths, skipped if absent
10. full runs are byte-identical across repeats and worker counts
"""

import csv
import math
import os

import numpy as np
import pytest

from exqual.encoding import (
    BucketingStrategy,
    MatrixStats,
    bucket,
    build_vocabulary,
    encode,
    feature_domain,
)
from exqual.eventlog import LogSchema, extract_prefixes, parse_log, split_train_test
from exqual.explain import (
    ShapleyConfig,
    SurrogateConfig,
    explain_shapley,
    explain_surrogate,
    repeat_explanations,
)
from exqual.harness import ExperimentConfig, emit_report, run_experiment
from exqual.metrics import (
    PerturbationPlan,
    PerturbationTarget,
    _continuous_segments,
    _integer_values,
    build_subset_matrix,
    build_weight_matrix,
    fidelity,
    score_stability,
    stability_by_subset,
    stability_by_weight,
)
from exqual.model import GBTConfig, predict_proba_rows, train_gbt
from exqual.synthetic import generate_synthetic_log

from linear_box import logistic_box

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def _passed(n: int, message: str) -> None:
    print(f"[PASS] criterion {n}: {message}")


# ---------------------------------------------------------------- criterion 1

def _oracle_subset(rows):
    m, d = len(rows), len(rows[0])
    kbar = sum(sum(r) for r in rows) / m
    total = 0.0
    for j in range(d):
        p = sum(r[j] for r in rows) / m
        total += (m / (m - 1)) * p * (1 - p)
    return 1 - (total / d) / ((kbar / d) * (1 - kbar / d))


def _oracle_weight(rows):
    m, d = len(rows), len(rows[0])
    total = 0.0
    for j in range(d):
        mu = sum(r[j] for r in rows) / m
        var = sum((r[j] - mu) ** 2 for r in rows) / (m - 1)
        if var == 0.0:
            continue
        denom = abs(mu) if abs(mu) >= 1e-8 else 1e-8
        total += var / denom
    return 1 - total / d


@pytest.mark.filterwarnings("ignore:subset stability")
def test_criterion_01_metric_oracles():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 500:
        m = int(rng.integers(2, 11))
        d = int(rng.integers(2, 51))
        z = (rng.random((m, d)) < rng.uniform(0.1, 0.9)).astype(np.int8)
        ks = z.sum(axis=1)
        if ks.sum() == 0 or ks.sum() == m * d:
            continue
        got = stability_by_subset(z)
        assert abs(got - _oracle_subset(z.tolist())) <= 1e-12
        w = rng.normal(size=(m, d)) * rng.random(d)
        got_w, _ = stability_by_weight(w)
        assert abs(got_w - _oracle_weight(w.tolist())) <= 1e-12
        checked += 1

    def subset(rows):
        return stability_by_subset(np.asarray(rows, dtype=np.int8))

    assert subset([[1, 1, 0, 0], [1, 0, 1, 0]]) == 0.0
    assert abs(subset([[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0]])
               - 1.0 / 3.0) <= 1e-12
    assert stability_by_weight(np.array([[1.0, 0.0], [1.0, 1.0]])) == (0.5, False)
    assert abs(stability_by_weight(np.array([[0.5], [2.5]]))[0] - (-1.0 / 3.0)) <= 1e-12
    _passed(1, "500 random fixtures match independent oracles at 1e-12; "
               "hand-derived values exact")


# ------------------------------------------------------- shared fixture logs

def _balanced_gen_spec(n_traces, activities=4, lo=2, hi=6, rule=None):
    return {
        "n_traces": n_traces,
        "activities": [chr(ord("a") + i) for i in range(activities)],
        "trace_length": {"min": lo, "max": hi},
        "label_rule": rule or {"kind": "activity_occurs", "activity": "a"},
        "static_attrs": [{"name": "amount", "dtype": "numeric",
                          "distribution": {"kind": "uniform", "lo": 0.0, "hi": 10.0}}],
        "dynamic_attrs": [{"name": "cost", "dtype": "numeric",
                           "distribution": {"kind": "normal", "mean": 5.0, "std": 2.0}}],
    }


def _pipeline(gen_spec, seed, min_len=2, max_len=4, encoding="aggregate",
              model_cfg=None):
    log = generate_synthetic_log(gen_spec, seed=seed)
    train_log, test_log = split_train_test(log, 0.8, seed=seed + 1)
    train_prefixes = extract_prefixes(train_log, min_len, max_len)
    test_prefixes = extract_prefixes(test_log, min_len, max_len)
    vocab = build_vocabulary(train_prefixes, log.schema)
    padding = None
    if encoding == "index_based":
        padding = max(train_prefixes.max_prefix_length(),
                      test_prefixes.max_prefix_length())
    train_matrix = encode(train_prefixes, log.schema, encoding, vocab,
                          index_padding_len=padding)
    test_matrix = encode(test_prefixes, log.schema, encoding, vocab,
                         index_padding_len=padding)
    model = train_gbt(train_matrix, model_cfg or GBTConfig(n_trees=20, seed=seed))
    return log, train_matrix, test_matrix, model


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_deterministic_explainer_perfect_stability():
    _, train_matrix, test_matrix, model = _pipeline(
        _balanced_gen_spec(200), seed=31)
    assert test_matrix.d <= 15  # exact enumeration regime
    rng = np.random.default_rng(7)
    bg_idx = np.sort(rng.choice(train_matrix.n, size=16, replace=False))
    config = ShapleyConfig(background=train_matrix.rows[bg_idx])

    def explainer(mdl, row, seed):
        return explain_shapley(mdl, row, config, seed)

    for i in range(test_matrix.n):
        es = repeat_explanations(explainer, model, test_matrix.rows[i],
                                 m=10, base_seed=1000 + i)
        score = score_stability(es, build_subset_matrix(es, 4), build_weight_matrix(es))
        assert score.by_subset == 1.0, f"row {i}"
        assert score.by_weight == 1.0, f"row {i}"
    _passed(2, f"exact Shapley with M=10 scored 1.0/1.0 on all "
               f"{test_matrix.n} instances")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_shapley_efficiency_and_dummies():
    rng = np.random.default_rng(5)
    n, d = 400, 8
    rows = rng.normal(size=(n, d))
    rows[:, 6] = 1.5  # constant: never split on
    rows[:, 7] = -0.5  # constant: never split on
    logits = 1.2 * rows[:, 0] - 0.8 * rows[:, 1] + 0.5 * rows[:, 2] * rows[:, 3]
    labels = (logits + 0.3 * rng.normal(size=n) > 0).astype(np.int8)

    from exqual.encoding import FeatureDescriptor, FeatureMatrix
    matrix = FeatureMatrix(
        rows=rows,
        descriptors=tuple(FeatureDescriptor(j, f"x{j}", "static_numeric")
                          for j in range(d)),
        labels=labels,
        case_ids=tuple(f"c{i}" for i in range(n)),
        prefix_lengths=np.ones(n, dtype=np.int64),
        bucket_id="all")
    model = train_gbt(matrix, GBTConfig(n_trees=30, seed=2))

    background = rows[:16]
    config = ShapleyConfig(background=background)
    baseline = float(predict_proba_rows(model, background).mean())
    test_rows = rng.normal(size=(100, d))
    test_rows[:, 6] = 1.5
    test_rows[:, 7] = -0.5
    for i in range(100):
        es = explain_shapley(model, test_rows[i], config, seed=0)
        phi = es.weight_vector()
        fx = float(predict_proba_rows(model, test_rows[i][None, :])[0])
        assert abs(phi.sum() - (fx - baseline)) <= 1e-6, f"row {i}"
        assert phi[6] == 0.0 and phi[7] == 0.0, f"row {i}"
    _passed(3, "efficiency within 1e-6 and exact-zero dummy attributions "
               "on 100 instances")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_surrogate_recovers_linear_model():
    true_w = np.array([0.30, -0.22, 0.15, -0.09, 0.04])
    model = logistic_box(true_w)
    d = true_w.size
    rng = np.random.default_rng(17)
    train_rows = rng.normal(scale=0.3, size=(500, d))

    from exqual.encoding import FeatureDescriptor, FeatureMatrix
    train_matrix = FeatureMatrix(
        rows=train_rows,
        descriptors=tuple(FeatureDescriptor(j, f"x{j}", "static_numeric")
                          for j in range(d)),
        labels=np.zeros(500, dtype=np.int8),
        case_ids=tuple(f"c{i}" for i in range(500)),
        prefix_lengths=np.ones(500, dtype=np.int64),
        bucket_id="all")
    stats = MatrixStats.from_matrix(train_matrix)
    config = SurrogateConfig(n_samples=6000, k=d, discretize_numeric=False)

    for i in range(50):
        x = rng.normal(scale=0.3, size=d)
        es = explain_surrogate(model, x, stats, config, seed=100 + i)
        est = es.weight_vector()
        assert np.array_equal(np.argsort(-np.abs(est)), np.argsort(-np.abs(true_w))), i
        assert np.array_equal(np.sign(est), np.sign(true_w)), i
        for a in range(d):
            for b in range(a + 1, d):
                got = abs(est[a] / est[b])
                want = abs(true_w[a] / true_w[b])
                assert abs(got - want) / want <= 0.05, (i, a, b)
    _passed(4, "exact ranking and signs, pairwise ratios within 5%, "
               "on 50 instances")


# ---------------------------------------------------------------- criterion 5

def _manual_plan(matrix, stats, row, columns, width_frac=0.5):
    """A perturbation plan targeting the given columns, each with the
    instance's value +- width_frac training stds marked influential."""
    targets = []
    for col in columns:
        value = float(row[col])
        if math.isnan(value):
            value = float(stats.means[col])
        half = width_frac * float(stats.scales[col])
        interval = (value - half, value + half)
        domain = feature_domain(matrix, col)
        if domain.is_integer_valued:
            values = _integer_values(domain, interval)
            targets.append(PerturbationTarget(col, values=values))
        else:
            segments = _continuous_segments(domain, interval)
            targets.append(PerturbationTarget(col, segments=segments))
    return PerturbationPlan(targets=tuple(targets), n_perturbations=10, flags=())


def test_criterion_05_fidelity_separates_informative_targets():
    rule = {
        "kind": "score_threshold",
        "terms": [
            {"feature": {"kind": "activity_count", "activity": "a"}, "weight": 2.0},
            {"feature": {"kind": "static_numeric", "name": "amount"}, "weight": 1.5},
            {"feature": {"kind": "dynamic_mean", "name": "cost"}, "weight": 1.0},
        ],
        "threshold": 14.5,
    }
    _, train_matrix, test_matrix, model = _pipeline(
        _balanced_gen_spec(600, lo=2, hi=6, rule=rule), seed=9, min_len=2,
        max_len=6, model_cfg=GBTConfig(n_trees=80, seed=3))
    stats = MatrixStats.from_matrix(train_matrix)
    names = test_matrix.feature_names()
    gt_cols = [names.index("activity=a#count"), names.index("amount"),
               names.index("cost#mean")]
    other_cols = [j for j in range(test_matrix.d) if j not in gt_cols]

    rng = np.random.default_rng(41)
    n_eval = min(100, test_matrix.n)
    rows = rng.choice(test_matrix.n, size=n_eval, replace=False)
    wins = 0
    for i, r in enumerate(rows):
        row = test_matrix.rows[r]
        gt_plan = _manual_plan(test_matrix, stats, row, gt_cols)
        rand_cols = list(rng.choice(other_cols, size=len(gt_cols), replace=False))
        rand_plan = _manual_plan(test_matrix, stats, row, rand_cols)
        f_gt = fidelity(model, row, gt_plan, np.random.default_rng(500 + i)).f
        f_rand = fidelity(model, row, rand_plan, np.random.default_rng(900 + i)).f
        wins += f_gt > f_rand
    assert n_eval == 100
    assert wins >= 90, f"ground-truth plan won only {wins}/100"
    _passed(5, f"ground-truth targets beat random targets on {wins}/100 instances")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_encoding_width_arithmetic():
    gen = {
        "n_traces": 60,
        "activities": ["a", "b", "c", "d"],
        "trace_length": {"min": 4, "max": 7},
        "label_rule": {"kind": "activity_occurs", "activity": "a"},
        "static_attrs": [
            {"name": "amount", "dtype": "numeric",
             "distribution": {"kind": "uniform", "lo": 0.0, "hi": 10.0}},
            {"name": "channel", "dtype": "categorical",
             "categories": ["web", "phone", "mail"]},
        ],
        "dynamic_attrs": [
            {"name": "cost", "dtype": "numeric",
             "distribution": {"kind": "normal", "mean": 5.0, "std": 2.0}},
            {"name": "resource", "dtype": "categorical",
             "categories": ["r1", "r2"]},
        ],
    }
    log = generate_synthetic_log(gen, seed=13)
    prefixes = extract_prefixes(log, 2, 6)
    vocab = build_vocabulary(prefixes, log.schema)
    # the fixture must actually exhibit its full alphabets
    assert set(vocab.for_attr("activity")) == {"a", "b", "c", "d"}
    assert set(vocab.for_attr("channel")) == {"web", "phone", "mail"}
    assert set(vocab.for_attr("resource")) == {"r1", "r2"}

    n_act, n_chan, n_res = 4, 3, 2
    static_d = 1 + (n_chan + 1)  # amount + channel one-hot incl. "other"
    agg_d = static_d + (n_act + 1) + (n_res + 1) + 4  # counts + cost stats
    per_event = (n_act + 1) + (n_res + 1) + 1  # activity + resource + cost

    single = dict(bucket(prefixes, BucketingStrategy("single")))
    agg_all = encode(single["all"], log.schema, "aggregate", vocab, "all")
    assert agg_all.d == agg_d

    idx_all = encode(single["all"], log.schema, "index_based", vocab, "all",
                     index_padding_len=6)
    assert idx_all.d == static_d + 6 * per_event

    widths = {}
    for bucket_id, bl in bucket(prefixes, BucketingStrategy("prefix_length")):
        length = int(bucket_id)
        agg_b = encode(bl, log.schema, "aggregate", vocab, bucket_id)
        idx_b = encode(bl, log.schema, "index_based", vocab, bucket_id,
                       index_padding_len=length)
        assert agg_b.d == agg_d  # constant across buckets
        assert idx_b.d == static_d + length * per_event
        widths[length] = idx_b.d
    lengths = sorted(widths)
    assert lengths == [2, 3, 4, 5, 6]
    diffs = {widths[b] - widths[a] for a, b in zip(lengths, lengths[1:])}
    assert diffs == {per_event}  # exactly linear growth
    _passed(6, "closed-form widths exact for every combo; index width "
               "linear in prefix length, aggregate constant")


# ------------------------------------------------- criteria 7 + 8 (one sweep)

def _sweep_config(encoding, max_prefix, k, seed=23):
    # five separated signals: the aggregate encoding exposes each as one
    # column, the index encoding smears the counts over every position.
    # The explanation budget k tracks the width (~10% of d): weight stability
    # normalizes its per-column relative variances by d, so a fixed-k
    # explainer's churn mass (at most M*k nonzero columns) vanishes as d
    # grows; the decline only shows when explanation detail grows with the
    # representation.
    rule = {
        "kind": "score_threshold",
        "terms": [
            {"feature": {"kind": "activity_count", "activity": "a00"}, "weight": 2.5},
            {"feature": {"kind": "activity_count", "activity": "a01"}, "weight": 2.0},
            {"feature": {"kind": "activity_count", "activity": "a02"}, "weight": 1.5},
            {"feature": {"kind": "activity_count", "activity": "a03"}, "weight": 1.0},
            {"feature": {"kind": "static_numeric", "name": "amount"}, "weight": 0.6},
        ],
        "threshold": 9.3,
    }
    gen = {
        "n_traces": 160,
        "activities": [f"a{i:02d}" for i in range(30)],
        "trace_length": {"min": 25, "max": 30},
        "label_rule": rule,
        "static_attrs": [{"name": "amount", "dtype": "numeric",
                          "distribution": {"kind": "uniform", "lo": 0.0, "hi": 10.0}}],
        "dynamic_attrs": [{"name": "cost", "dtype": "numeric",
                           "distribution": {"kind": "normal", "mean": 5.0, "std": 2.0}}],
    }
    return ExperimentConfig.from_dict({
        "datasets": [{"name": "sweep", "gen_spec": gen}],
        "combos": [{"bucketing": "single", "encoding": encoding}],
        "explainers": [{"id": "surrogate", "n_samples": 1500, "k": k}],
        "min_prefix_length": 2,
        "max_prefix_length": max_prefix,
        "m": 4,
        "top_k": k,
        "sample_size": 10,
        "n_perturbations": 5,
        "global_seed": seed,
        "model": {"n_trees": 40, "max_depth": 3},
    })


@pytest.fixture(scope="module")
def dimension_sweep():
    bundles = []
    for encoding, max_prefix, k in (("aggregate", 8, 5),
                                    ("index_based", 8, 26),
                                    ("index_based", 25, 80)):
        bundles.append(run_experiment(_sweep_config(encoding, max_prefix, k)))
    return bundles


def test_criterion_07_instability_grows_with_width(dimension_sweep):
    dims, subset_means, weight_means = [], [], []
    for bundle in dimension_sweep:
        assert not bundle.failures
        dims.append(bundle.records[0].d)
        by_metric = {a.metric: a for a in bundle.aggregates}
        subset_means.append(by_metric["by_subset"].mean)
        weight_means.append(by_metric["by_weight"].mean)
    assert dims[0] < dims[1] < dims[2]
    assert subset_means[0] > subset_means[1] > subset_means[2], (dims, subset_means)
    assert weight_means[0] > weight_means[1] > weight_means[2], (dims, weight_means)
    _passed(7, f"surrogate stability decreases across d={dims}: "
               f"subset {['%.3f' % v for v in subset_means]}, "
               f"weight {['%.3f' % v for v in weight_means]}")


def test_criterion_08_explanation_time_grows_with_width(dimension_sweep):
    dims, times = [], []
    for bundle in dimension_sweep:
        assert bundle.timings
        dims.append(bundle.timings[0].d)
        times.append(float(np.mean([t.seconds_per_explanation
                                    for t in bundle.timings])))
    assert dims[0] < dims[1] < dims[2]
    assert times[0] < times[1] < times[2], (dims, times)
    _passed(8, f"mean seconds per explanation increases across d={dims}: "
               f"{['%.4f' % t for t in times]}")


# ---------------------------------------------------------------- criterion 9

@pytest.mark.parametrize("name,expected_d", [("production", 162),
                                             ("bpic2012", 134)])
def test_criterion_09_real_dataset_widths(name, expected_d):
    log_path = os.path.join(DATA_DIR, name, "log.csv")
    schema_path = os.path.join(DATA_DIR, name, "schema.json")
    if not (os.path.isfile(log_path) and os.path.isfile(schema_path)):
        pytest.skip(f"real dataset {name!r} not provided under data/")
    schema = LogSchema.from_json(schema_path)
    log = parse_log(log_path, schema)
    prefixes = extract_prefixes(log, 1, max(len(t) for t in log.traces))
    vocab = build_vocabulary(prefixes, schema)
    single = dict(bucket(prefixes, BucketingStrategy("single")))
    matrix = encode(single["all"], schema, "aggregate", vocab, "all")
    assert matrix.d == expected_d
    _passed(9, f"{name} single-bucket aggregate width is {expected_d}")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_full_run_byte_identical(tmp_path):
    gen = _balanced_gen_spec(100, activities=5, lo=3, hi=6)
    config = ExperimentConfig.from_dict({
        "datasets": [{"name": "detA", "gen_spec": gen}],
        "combos": [{"bucketing": "single", "encoding": "aggregate"},
                   {"bucketing": "prefix_length", "encoding": "index_based"}],
        "explainers": [
            {"id": "surrogate", "n_samples": 400, "k": 5},
            {"id": "shapley", "n_background": 8, "n_permutations": 100,
             "reference_size": 20},
        ],
        "min_prefix_length": 3,
        "max_prefix_length": 5,
        "m": 3,
        "top_k": 5,
        "sample_size": 4,
        "n_perturbations": 5,
        "global_seed": 77,
        "model": {"n_trees": 15, "max_depth": 2},
    })
    outs = []
    for label, workers in (("one_a", 1), ("one_b", 1), ("eight", 8)):
        out = tmp_path / label
        emit_report(run_experiment(config, workers=workers), str(out))
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    for other in outs[1:]:
        assert sorted(os.listdir(other)) == names
        for name in names:
            if name == "timing.csv":
                continue
            assert (outs[0] / name).read_bytes() == (other / name).read_bytes(), name
    # the run actually produced cross-combo, cross-explainer results
    with open(outs[0] / "records.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["encoding"] for r in rows} == {"aggregate", "index_based"}
    assert {r["explainer"] for r in rows} == {"surrogate", "shapley"}
    _passed(10, f"three runs (1/1/8 workers) byte-identical across "
                f"{len(names) - 1} bundle files; {len(rows)} records")
