"""Stability and fidelity metrics: hand-checked values, straight-from-the-
formula oracles, and the perturbation protocol's disjointness guarantees."""

import numpy as np
import pytest

from exqual.encoding import FeatureDescriptor, FeatureMatrix, MatrixStats
from exqual.errors import DegenerateSubsetSize, EmptyInput, InvalidSpec
from exqual.explain import (
    SHAPLEY_ID,
    SURROGATE_ID,
    Attribution,
    Explanation,
    ExplanationSet,
    ShapleyConfig,
    explain_shapley,
    repeat_explanations,
)
from exqual.metrics import (
    FLAG_EPSILON_GUARD,
    InfluentialRegion,
    PerturbationPlan,
    PerturbationTarget,
    StabilityScore,
    SubsetMatrix,
    WeightMatrix,
    aggregate,
    build_perturbation_plan,
    build_subset_matrix,
    evaluate_instance,
    fidelity,
    influential_interval,
    perturb,
    score_stability,
    select_perturbation_targets,
    stability_by_subset,
    stability_by_weight,
)

from linear_box import logistic_box


# ---------------------------------------------------------------- oracles

def oracle_subset_stability(rows):
    """Straight from the definition with plain Python arithmetic."""
    m = len(rows)
    d = len(rows[0])
    kbar = sum(sum(r) for r in rows) / m
    total = 0.0
    for j in range(d):
        p = sum(r[j] for r in rows) / m
        total += (m / (m - 1)) * p * (1 - p)
    return 1 - (total / d) / ((kbar / d) * (1 - kbar / d))


def oracle_weight_stability(rows):
    m = len(rows)
    d = len(rows[0])
    total = 0.0
    for j in range(d):
        mu = sum(r[j] for r in rows) / m
        var = sum((r[j] - mu) ** 2 for r in rows) / (m - 1)
        if var == 0.0:
            continue
        denom = abs(mu) if abs(mu) >= 1e-8 else 1e-8
        total += var / denom
    return 1 - total / d


def make_set(weight_rows, d, explainer=SURROGATE_ID, intervals=None, case_ref=None):
    """weight_rows: list of {column: weight} dicts, one per explanation."""
    intervals = intervals or {}
    explanations = []
    for row in weight_rows:
        attrs = tuple(Attribution(j, w, interval=intervals.get(j))
                      for j, w in sorted(row.items()))
        explanations.append(Explanation(
            attributions=attrs, selected_k=len(attrs), explainer_id=explainer,
            seed_used=0, n_features=d))
    return ExplanationSet(explanations=tuple(explanations), case_ref=case_ref)


def subset_from_rows(rows):
    z = np.asarray(rows, dtype=np.int8)
    return SubsetMatrix(z=z, k_per_row=z.sum(axis=1))


# ------------------------------------------------------- subset stability

def test_subset_identical_rows_scores_one():
    z = subset_from_rows([[1, 1, 0, 0]] * 3)
    assert stability_by_subset(z) == 1.0


def test_subset_disagreement_scores_below_one():
    z = subset_from_rows([[1, 1, 0, 0], [1, 0, 1, 0]])
    assert stability_by_subset(z) < 1.0


def test_subset_hand_example_total_disagreement_on_free_slots():
    # {f1, f2} vs {f1, f3} over d=4: exactly 0
    z = subset_from_rows([[1, 1, 0, 0], [1, 0, 1, 0]])
    assert stability_by_subset(z) == 0.0


def test_subset_hand_example_one_third():
    # {f1,f2}, {f1,f2}, {f1,f3} over d=4: exactly 1/3
    z = subset_from_rows([[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0]])
    assert abs(stability_by_subset(z) - 1.0 / 3.0) <= 1e-12


@pytest.mark.filterwarnings("ignore:subset stability")
def test_subset_matches_oracle_on_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(2, 15))
        z = (rng.random((m, d)) < 0.4).astype(np.int8)
        ks = z.sum(axis=1)
        if ks.sum() == 0 or ks.sum() == m * d:
            continue
        got = stability_by_subset(SubsetMatrix(z=z, k_per_row=ks))
        assert abs(got - oracle_subset_stability(z.tolist())) <= 1e-12


def test_subset_column_permutation_invariance():
    rng = np.random.default_rng(3)
    z = (rng.random((6, 12)) < 0.3).astype(np.int8)
    z[0, 0] = 1  # keep kbar strictly inside (0, d)
    base = stability_by_subset(SubsetMatrix(z=z, k_per_row=z.sum(axis=1)))
    for _ in range(5):
        perm = rng.permutation(12)
        zp = z[:, perm]
        assert abs(stability_by_subset(SubsetMatrix(z=zp, k_per_row=zp.sum(axis=1)))
                   - base) <= 1e-12


def test_subset_degenerate_sizes_raise():
    with pytest.raises(DegenerateSubsetSize):
        stability_by_subset(subset_from_rows([[0, 0, 0], [0, 0, 0]]))
    with pytest.raises(DegenerateSubsetSize):
        stability_by_subset(subset_from_rows([[1, 1, 1], [1, 1, 1]]))


def test_subset_single_explanation_rejected():
    with pytest.raises(InvalidSpec):
        stability_by_subset(subset_from_rows([[1, 0]]))


def test_subset_below_zero_warns_instead_of_failing():
    # maximally adversarial selections can push the score below zero
    z = subset_from_rows([[1, 0], [0, 1]])
    with pytest.warns(UserWarning, match="below 0"):
        value = stability_by_subset(z)
    assert value < 0.0


def test_subset_matrix_validates_row_sums():
    with pytest.raises(InvalidSpec):
        SubsetMatrix(z=np.array([[1, 0], [1, 1]], dtype=np.int8),
                     k_per_row=np.array([1, 1]))


# ------------------------------------------------------- weight stability

def test_weight_identical_rows_scores_one():
    w = WeightMatrix(w=np.array([[0.3, -1.2, 0.0]] * 4))
    assert stability_by_weight(w) == 1.0


def test_weight_hand_example_half():
    # rows (1, 0) and (1, 1): column terms 0 and 1, mean 0.5
    w = WeightMatrix(w=np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert stability_by_weight(w) == 0.5


def test_weight_hand_example_negative_third():
    # single column with weights 0.5 and 2.5: 1 - (2 / 1.5)
    w = WeightMatrix(w=np.array([[0.5], [2.5]]))
    assert abs(stability_by_weight(w) - (-1.0 / 3.0)) <= 1e-12


def test_weight_matches_oracle_on_random_grids():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, 12))
        w = rng.normal(size=(m, d)) * rng.random(d)  # varied column scales
        got = stability_by_weight(WeightMatrix(w=w))
        assert abs(got - oracle_weight_stability(w.tolist())) <= 1e-12


def test_weight_zero_column_contributes_zero():
    # an always-unselected feature must not drag the score down
    w = WeightMatrix(w=np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert stability_by_weight(w) == 1.0


def test_weight_epsilon_guard_flags_and_scores():
    # column 0: mean 0 but variance 2 -> denominator guarded, score dives
    es = make_set([{0: -1.0, 1: 0.3}, {0: 1.0, 1: 0.3}], d=3)
    score = score_stability(es, k=2)
    assert FLAG_EPSILON_GUARD in score.flags
    assert abs(score.by_weight - (1.0 - (2.0 / 1e-8) / 3.0)) <= 1e-3


def test_weight_matrix_rejects_nonfinite():
    with pytest.raises(InvalidSpec):
        WeightMatrix(w=np.array([[np.nan, 0.0], [1.0, 0.0]]))


# -------------------------------------------------------- subset building

def test_build_subset_matrix_top_k_with_index_ties():
    es = make_set([
        {0: 1.0, 1: -2.0, 2: 1.0, 3: 0.5},
        {0: 1.0, 1: -2.0, 2: 1.0, 3: 0.5},
    ], d=5)
    sm = build_subset_matrix(es, k=2)
    # |weights|: 1, 2, 1, 0.5 -> top 2 = column 1 then the 0-vs-2 tie -> 0
    assert sm.z.tolist() == [[1, 1, 0, 0, 0]] * 2
    assert sm.k_per_row.tolist() == [2, 2]


def test_build_subset_matrix_fewer_nonzero_than_k():
    es = make_set([{0: 0.7}, {0: 0.7, 2: 0.1}], d=4)
    sm = build_subset_matrix(es, k=3)
    assert sm.k_per_row.tolist() == [1, 2]
    assert sm.z.tolist() == [[1, 0, 0, 0], [1, 0, 1, 0]]


def test_build_subset_matrix_ignores_exact_zero_weights():
    es = make_set([{0: 0.0, 1: 0.4}, {0: 0.0, 1: 0.4}], d=3)
    sm = build_subset_matrix(es, k=2)
    assert sm.z.tolist() == [[0, 1, 0], [0, 1, 0]]


# -------------------------------------------------------- stability score

def test_score_stability_combines_both_metrics():
    es = make_set([{0: 1.0, 1: 0.5}, {0: 1.0, 2: 0.5}], d=4,
                  case_ref=("c1", 3))
    score = score_stability(es, k=2)
    assert score.case_ref == ("c1", 3)
    assert score.by_subset == 0.0  # {0,1} vs {0,2} over d=4
    # columns: (1,1) term 0; (0.5,0) var .125 mean .25 -> 0.5; (0,0.5) -> 0.5
    assert abs(score.by_weight - (1.0 - 1.0 / 4.0)) <= 1e-12


def test_stability_score_type_rejects_values_above_one():
    with pytest.raises(InvalidSpec):
        StabilityScore(case_ref=None, by_subset=1.5, by_weight=0.0)


def test_exact_shapley_repeats_are_perfectly_stable():
    model = logistic_box([1.0, -2.0, 0.5, 0.0], 0.1)
    config = ShapleyConfig(background=np.zeros((3, 4)))
    row = np.array([1.0, 2.0, -1.0, 3.0])

    def explainer(mdl, r, seed):
        return explain_shapley(mdl, r, config, seed)

    es = repeat_explanations(explainer, model, row, m=5, base_seed=42)
    score = score_stability(es, k=2)
    assert score.by_subset == 1.0
    assert score.by_weight == 1.0


# ------------------------------------------------------- target selection

def test_target_budget_is_ceil_ten_percent():
    es = make_set([{0: 1.0}, {0: 1.0}], d=134)
    assert len(select_perturbation_targets(es, k=1)) == 14
    es_small = make_set([{0: 1.0}, {0: 1.0}], d=5)
    assert len(select_perturbation_targets(es_small, k=1)) == 1


def test_target_ordering_by_occurrence_then_weight_then_index():
    # column 2 selected twice; columns 0 and 4 once each, 4 carries more weight
    es = make_set([{2: 1.0, 0: 0.2}, {2: 0.9, 4: 0.8}], d=20)
    targets = select_perturbation_targets(es, k=2)
    assert targets == [2, 4]  # budget ceil(2) = 2
    es_wide = make_set([{2: 1.0, 0: 0.2}, {2: 0.9, 4: 0.8}], d=30)
    assert select_perturbation_targets(es_wide, k=2) == [2, 4, 0]


# --------------------------------------------------- influential regions

def continuous_matrix(values, encoder="static_numeric"):
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    d = values.shape[1]
    descs = tuple(FeatureDescriptor(j, f"x{j}", encoder) for j in range(d))
    return FeatureMatrix(rows=values, descriptors=descs,
                         labels=np.zeros(n, dtype=np.int8),
                         case_ids=tuple(f"c{i}" for i in range(n)),
                         prefix_lengths=np.ones(n, dtype=np.int64),
                         bucket_id="all")


def test_surrogate_modal_interval():
    es = make_set(
        [{1: 0.5}, {1: 0.4}, {1: 0.6}], d=2,
        intervals=None, case_ref=("c0", 1))
    # attach differing intervals by rebuilding explanations manually
    exps = []
    for w, iv in [(0.5, (0.0, 2.0)), (0.4, (0.0, 2.0)), (0.6, (1.0, 3.0))]:
        exps.append(Explanation(
            attributions=(Attribution(1, w, interval=iv),), selected_k=1,
            explainer_id=SURROGATE_ID, seed_used=0, n_features=2))
    es = ExplanationSet(explanations=tuple(exps), case_ref=("c0", 1))
    rows = np.array([[0.0, 1.5], [1.0, 2.5], [2.0, 0.5], [3.0, 3.5]])
    matrix = continuous_matrix(rows)
    region = influential_interval(es, 1, matrix)
    assert region.kind == "interval" and region.interval == (0.0, 2.0)
    assert not region.fallback


def test_surrogate_modal_tie_breaks_to_smaller_interval():
    exps = []
    for iv in [(1.0, 3.0), (0.0, 2.0)]:
        exps.append(Explanation(
            attributions=(Attribution(0, 0.5, interval=iv),), selected_k=1,
            explainer_id=SURROGATE_ID, seed_used=0, n_features=1))
    es = ExplanationSet(explanations=tuple(exps), case_ref=("c0", 1))
    matrix = continuous_matrix(np.array([[0.5], [1.5], [2.5]]))
    region = influential_interval(es, 0, matrix)
    assert region.interval == (0.0, 2.0)


def test_missing_interval_falls_back_to_one_training_std():
    es = make_set([{0: 1.0}, {0: 0.9}], d=2, case_ref=("c1", 1))
    rows = np.array([[0.0, 10.5], [1.0, 20.0], [2.0, 30.0], [3.5, 40.0]])
    matrix = continuous_matrix(rows)
    stats = MatrixStats.from_matrix(matrix)
    region = influential_interval(es, 1, matrix, train_stats=stats)
    assert region.fallback
    value = 20.0  # instance c1 at column 1
    std = float(stats.scales[1])
    assert region.interval == (value - std, value + std)


def test_binary_column_region_is_value_complement():
    rows = np.array([[1.0, 3.5], [0.0, 1.0], [1.0, 2.0]])
    descs = (FeatureDescriptor(0, "a", "static_onehot", category="x"),
             FeatureDescriptor(1, "b", "static_numeric"))
    matrix = FeatureMatrix(rows=rows, descriptors=descs,
                           labels=np.zeros(3, dtype=np.int8),
                           case_ids=("c0", "c1", "c2"),
                           prefix_lengths=np.ones(3, dtype=np.int64),
                           bucket_id="all")
    es = make_set([{0: 1.0}, {0: 0.8}], d=2, case_ref=("c0", 1))
    region = influential_interval(es, 0, matrix)
    assert region.kind == "complement" and region.values == (0.0,)
    es1 = make_set([{0: 1.0}, {0: 0.8}], d=2, case_ref=("c1", 1))
    region1 = influential_interval(es1, 0, matrix)
    assert region1.values == (1.0,)


def test_shapley_region_uses_attribution_deciles():
    # attribution values increase with the feature: the instance sits in the
    # lowest decile, whose members have feature values 0 and 1
    n = 20
    rows = np.arange(n, dtype=np.float64).reshape(-1, 1) + 0.5
    matrix = continuous_matrix(rows)
    shap_col = np.arange(n, dtype=np.float64)
    es = make_set([{0: 0.0}, {0: 0.0}], d=1, explainer=SHAPLEY_ID,
                  case_ref=("c0", 1))
    region = influential_interval(es, 0, matrix, test_attributions=shap_col)
    assert region.kind == "interval"
    assert region.interval == (0.5, 1.5)  # rows 0 and 1 share the first decile


def test_shapley_without_attribution_column_falls_back():
    matrix = continuous_matrix(np.array([[0.25], [1.0], [2.0], [4.0]]))
    es = make_set([{0: 0.3}, {0: 0.3}], d=1, explainer=SHAPLEY_ID,
                  case_ref=("c2", 1))
    region = influential_interval(es, 0, matrix)
    assert region.fallback


# ------------------------------------------------------------ perturbation

def interval_target(column, domain_matrix, interval):
    from exqual.metrics import _continuous_segments
    from exqual.encoding import feature_domain
    dom = feature_domain(domain_matrix, column)
    return PerturbationTarget(column, InfluentialRegion("interval", interval=interval),
                              segments=_continuous_segments(dom, interval))


def test_perturb_never_lands_inside_the_interval():
    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0], [7.5]]))
    plan = PerturbationPlan(case_ref=None,
                            targets=(interval_target(0, matrix, (2.0, 4.0)),))
    rng = np.random.default_rng(123)
    row = np.array([3.0])
    for _ in range(10_000):
        v = perturb(row, plan, rng)[0]
        assert 0.25 <= v <= 10.0
        assert not (2.0 <= v <= 4.0)


def test_perturb_full_coverage_extends_outward():
    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0]]))
    plan = PerturbationPlan(case_ref=None,
                            targets=(interval_target(0, matrix, (0.0, 12.0)),))
    rng = np.random.default_rng(5)
    width = 10.0 - 0.25
    seen_low = seen_high = False
    for _ in range(10_000):
        v = perturb(np.array([3.0]), plan, rng)[0]
        assert (0.25 - width <= v < 0.25) or (10.0 < v <= 10.0 + width)
        seen_low |= v < 0.25
        seen_high |= v > 10.0
    assert seen_low and seen_high


def test_perturb_integer_column_enumerates_allowed_values():
    rows = np.array([[0.0], [5.0], [2.0], [3.0]])
    matrix = continuous_matrix(rows, encoder="agg_count")
    from exqual.metrics import _integer_values
    from exqual.encoding import feature_domain
    dom = feature_domain(matrix, 0)
    values = _integer_values(dom, (1.5, 3.5))
    assert values == (0.0, 1.0, 4.0, 5.0)
    target = PerturbationTarget(0, InfluentialRegion("interval", interval=(1.5, 3.5)),
                                values=values)
    plan = PerturbationPlan(case_ref=None, targets=(target,))
    rng = np.random.default_rng(2)
    seen = {perturb(np.array([2.0]), plan, rng)[0] for _ in range(2000)}
    assert seen == {0.0, 1.0, 4.0, 5.0}


def test_perturb_binary_flips_value():
    target = PerturbationTarget(0, InfluentialRegion("complement", values=(0.0,)),
                                values=(0.0,))
    plan = PerturbationPlan(case_ref=None, targets=(target,))
    rng = np.random.default_rng(0)
    assert perturb(np.array([1.0, 9.0]), plan, rng).tolist() == [0.0, 9.0]


def test_perturb_touches_only_target_columns():
    matrix = continuous_matrix(np.hstack([
        np.array([[0.25], [10.0], [5.0]]),
        np.array([[1.0], [2.0], [3.5]]),
    ]))
    plan = PerturbationPlan(case_ref=None,
                            targets=(interval_target(0, matrix, (2.0, 4.0)),))
    row = np.array([3.0, np.nan])
    out = perturb(row, plan, np.random.default_rng(1))
    assert out[0] != 3.0 or not (2.0 <= out[0] <= 4.0)
    assert np.isnan(out[1])


def test_perturbation_plan_end_to_end_with_integer_rounding():
    # count column with values {0, 2, 5}; influential interval [1.5, 3.5]
    rows = np.array([[0.0, 0.2], [2.0, 1.4], [5.0, 3.6], [2.0, 2.8]])
    descs = (FeatureDescriptor(0, "a", "agg_count", category="x"),
             FeatureDescriptor(1, "b", "static_numeric"))
    matrix = FeatureMatrix(rows=rows, descriptors=descs,
                           labels=np.zeros(4, dtype=np.int8),
                           case_ids=("c0", "c1", "c2", "c3"),
                           prefix_lengths=np.ones(4, dtype=np.int64),
                           bucket_id="all")
    exps = [Explanation(
        attributions=(Attribution(0, 1.0, interval=(1.5, 3.5)),),
        selected_k=1, explainer_id=SURROGATE_ID, seed_used=s, n_features=2)
        for s in (0, 1)]
    es = ExplanationSet(explanations=tuple(exps), case_ref=("c1", 1))
    plan = build_perturbation_plan(es, matrix, k=1)
    assert len(plan.targets) == 1
    # integer grid of the observed domain [0, 5] minus integers in [1.5, 3.5]
    assert plan.targets[0].values == (0.0, 1.0, 4.0, 5.0)
    rng = np.random.default_rng(9)
    draws = {perturb(matrix.rows[1], plan, rng)[0] for _ in range(500)}
    assert draws == {0.0, 1.0, 4.0, 5.0}


# ---------------------------------------------------------------- fidelity

def test_fidelity_hand_example():
    calls = []

    def predictor(rows):
        calls.append(rows.shape[0])
        if len(calls) == 1:
            return np.array([0.8])
        return np.array([0.6, 0.7])

    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0]]))
    plan = PerturbationPlan(case_ref=("c", 1),
                            targets=(interval_target(0, matrix, (2.0, 4.0)),),
                            n_perturbations=2)
    score = fidelity(predictor, np.array([3.0]), plan,
                     rng=np.random.default_rng(0))
    assert abs(score.f - 0.1875) <= 1e-12
    assert score.y_original == 0.8
    assert len(score.deltas) == 2
    assert abs(score.deltas[0] - 0.25) <= 1e-12


def test_fidelity_uses_predicted_class_probability():
    # model predicts the negative class (p = 0.2 < 0.5): Y(x) = 0.8
    def predictor(rows):
        return np.full(rows.shape[0], 0.2)

    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0]]))
    plan = PerturbationPlan(case_ref=None,
                            targets=(interval_target(0, matrix, (2.0, 4.0)),))
    score = fidelity(predictor, np.array([3.0]), plan,
                     rng=np.random.default_rng(0))
    assert score.y_original == 0.8
    assert score.f == 0.0


def test_fidelity_zero_iff_probability_unchanged():
    def constant(rows):
        return np.full(rows.shape[0], 0.75)

    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0]]))
    plan = PerturbationPlan(case_ref=None,
                            targets=(interval_target(0, matrix, (2.0, 4.0)),))
    assert fidelity(constant, np.array([3.0]), plan,
                    rng=np.random.default_rng(1)).f == 0.0

    def sensitive(rows):
        return 1.0 / (1.0 + np.exp(-0.5 * rows[:, 0]))

    score = fidelity(sensitive, np.array([3.0]), plan,
                     rng=np.random.default_rng(1))
    assert score.f > 0.0
    assert all(d >= 0.0 for d in score.deltas)


def test_fidelity_default_perturbation_count():
    def predictor(rows):
        return np.full(rows.shape[0], 0.9)

    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0]]))
    plan = PerturbationPlan(case_ref=None,
                            targets=(interval_target(0, matrix, (2.0, 4.0)),))
    score = fidelity(predictor, np.array([3.0]), plan,
                     rng=np.random.default_rng(3))
    assert len(score.deltas) == 10


# ------------------------------------------------------------- aggregation

def test_aggregate_summary_statistics():
    summary = aggregate([1.0, 2.0, 3.0, 4.0])
    assert summary["n"] == 4
    assert summary["mean"] == 2.5
    assert summary["min"] == 1.0 and summary["max"] == 4.0
    assert summary["median"] == 2.5
    assert summary["q1"] == 1.75 and summary["q3"] == 3.25


def test_aggregate_empty_raises():
    with pytest.raises(EmptyInput):
        aggregate([])


# ------------------------------------------------------- record emission

def test_evaluate_instance_produces_full_record():
    rows = np.array([[0.25, 1.0], [10.0, 0.0], [5.0, 1.0], [7.5, 0.0]])
    descs = (FeatureDescriptor(0, "a", "static_numeric"),
             FeatureDescriptor(1, "b", "static_onehot", category="y"))
    matrix = FeatureMatrix(rows=rows, descriptors=descs,
                           labels=np.array([0, 1, 0, 1], dtype=np.int8),
                           case_ids=("c0", "c1", "c2", "c3"),
                           prefix_lengths=np.ones(4, dtype=np.int64),
                           bucket_id="all")
    stats = MatrixStats.from_matrix(matrix)
    exps = [Explanation(
        attributions=(Attribution(0, 1.0, interval=(4.0, 6.0)),
                      Attribution(1, 0.5, interval=(1.0, 1.0))),
        selected_k=2, explainer_id=SURROGATE_ID, seed_used=s, n_features=2)
        for s in (0, 1)]
    es = ExplanationSet(explanations=tuple(exps), case_ref=("c2", 1))
    model = logistic_box([0.3, -0.2], 0.05)
    record = evaluate_instance(model, es, matrix, train_stats=stats, k=1,
                               rng=np.random.default_rng(0))
    assert record.case_id == "c2" and record.prefix_length == 1
    assert record.by_subset == 1.0 and record.by_weight == 1.0
    assert record.f >= 0.0
    assert 0.5 <= record.y_original < 1.0
