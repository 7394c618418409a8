"""Stability and fidelity metrics: hand-checked values, straight-from-the-
formula oracles, and the perturbation protocol's disjointness guarantees."""

import numpy as np
import pytest

from exqual import metrics
from exqual.encoding import FeatureDescriptor, FeatureMatrix, MatrixStats, feature_domain
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
    FLAG_INTERVAL_FALLBACK,
    WEIGHT_MEAN_EPSILON,
    PerturbationPlan,
    PerturbationTarget,
    StabilityScore,
    _weight_terms,
    aggregate,
    build_perturbation_plan,
    build_subset_matrix,
    build_weight_matrix,
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


def reference_weight_terms(w):
    """The per-column loop that metrics._weight_terms replaced, kept as its
    bit-for-bit reference."""
    mu = w.mean(axis=0)
    var = w.var(axis=0, ddof=1)
    terms = np.zeros(w.shape[1])
    guarded = False
    for i in range(w.shape[1]):
        if var[i] == 0.0:
            continue
        denom = abs(mu[i])
        if denom < WEIGHT_MEAN_EPSILON:
            denom = WEIGHT_MEAN_EPSILON
            guarded = True
        terms[i] = var[i] / denom
    return terms, guarded


def make_set(weight_rows, d, explainer=SURROGATE_ID):
    """weight_rows: list of {column: weight} dicts, one per explanation."""
    explanations = []
    for row in weight_rows:
        attrs = tuple(Attribution(j, w) for j, w in sorted(row.items()))
        explanations.append(Explanation(
            attributions=attrs, selected_k=len(attrs), explainer_id=explainer,
            seed_used=0, n_features=d))
    return ExplanationSet(explanations=tuple(explanations))


def grids(es, k):
    """The selection and weight grids that evaluate_instance scores es by."""
    return build_subset_matrix(es, k), build_weight_matrix(es)


def grid(rows):
    return np.asarray(rows, dtype=np.int8)


# ------------------------------------------------------- subset stability

def test_subset_identical_rows_scores_one():
    z = grid([[1, 1, 0, 0]] * 3)
    assert stability_by_subset(z) == 1.0


def test_subset_disagreement_scores_below_one():
    z = grid([[1, 1, 0, 0], [1, 0, 1, 0]])
    assert stability_by_subset(z) < 1.0


def test_subset_hand_example_total_disagreement_on_free_slots():
    # {f1, f2} vs {f1, f3} over d=4: exactly 0
    z = grid([[1, 1, 0, 0], [1, 0, 1, 0]])
    assert stability_by_subset(z) == 0.0


def test_subset_hand_example_one_third():
    # {f1,f2}, {f1,f2}, {f1,f3} over d=4: exactly 1/3
    z = grid([[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0]])
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
        got = stability_by_subset(z)
        assert abs(got - oracle_subset_stability(z.tolist())) <= 1e-12


def test_subset_column_permutation_invariance():
    rng = np.random.default_rng(3)
    z = (rng.random((6, 12)) < 0.3).astype(np.int8)
    z[0, 0] = 1  # keep kbar strictly inside (0, d)
    base = stability_by_subset(z)
    for _ in range(5):
        perm = rng.permutation(12)
        assert abs(stability_by_subset(z[:, perm]) - base) <= 1e-12


def test_subset_degenerate_sizes_raise():
    with pytest.raises(DegenerateSubsetSize):
        stability_by_subset(grid([[0, 0, 0], [0, 0, 0]]))
    with pytest.raises(DegenerateSubsetSize):
        stability_by_subset(grid([[1, 1, 1], [1, 1, 1]]))


def test_subset_single_explanation_rejected():
    with pytest.raises(InvalidSpec):
        stability_by_subset(grid([[1, 0]]))
    with pytest.raises(InvalidSpec):
        stability_by_subset(grid([1, 0, 1]))  # not an (M, d) grid


def test_subset_below_zero_warns_instead_of_failing():
    # maximally adversarial selections can push the score below zero
    z = grid([[1, 0], [0, 1]])
    with pytest.warns(UserWarning, match="below 0"):
        value = stability_by_subset(z)
    assert value < 0.0


# ------------------------------------------------------- weight stability

def test_weight_identical_rows_scores_one():
    w = np.array([[0.3, -1.2, 0.0]] * 4)
    assert stability_by_weight(w) == (1.0, False)


def test_weight_hand_example_half():
    # rows (1, 0) and (1, 1): column terms 0 and 1, mean 0.5
    w = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert stability_by_weight(w) == (0.5, False)


def test_weight_hand_example_negative_third():
    # single column with weights 0.5 and 2.5: 1 - (2 / 1.5)
    w = np.array([[0.5], [2.5]])
    assert abs(stability_by_weight(w)[0] - (-1.0 / 3.0)) <= 1e-12


def test_weight_matches_oracle_on_random_grids():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, 12))
        w = rng.normal(size=(m, d)) * rng.random(d)  # varied column scales
        got, _ = stability_by_weight(w)
        assert abs(got - oracle_weight_stability(w.tolist())) <= 1e-12


def test_weight_zero_column_contributes_zero():
    # an always-unselected feature must not drag the score down
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert stability_by_weight(w) == (1.0, False)


def test_weight_epsilon_guard_flags_and_scores():
    # column 0: mean 0 but variance 2 -> denominator guarded, score dives
    es = make_set([{0: -1.0, 1: 0.3}, {0: 1.0, 1: 0.3}], d=3)
    score = score_stability(es, *grids(es, 2))
    assert FLAG_EPSILON_GUARD in score.flags
    assert abs(score.by_weight - (1.0 - (2.0 / 1e-8) / 3.0)) <= 1e-3


def test_weight_terms_match_the_per_column_loop_bit_for_bit():
    rng = np.random.default_rng(19)
    guarded_grids = zero_variance_columns = 0
    for _ in range(300):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, 12))
        w = rng.normal(size=(m, d)) * rng.random(d)
        kind = rng.integers(0, 4, size=d)
        for j in np.flatnonzero(kind == 1):  # zero variance, zero or not
            w[:, j] = rng.choice([0.0, rng.normal()])
        for j in np.flatnonzero(kind == 2):  # varies, |mean| below the guard
            w[:, j] = rng.normal(size=m) * 1e-10
        for j in np.flatnonzero(kind == 3):  # varies, mean exactly 0
            w[:, j] = 0.0
            w[0, j], w[1, j] = 0.5, -0.5
        terms, guarded = _weight_terms(w)
        expected, expected_guarded = reference_weight_terms(w)
        assert terms.tolist() == expected.tolist()
        assert guarded == expected_guarded
        assert stability_by_weight(w) == (1.0 - float(expected.mean()), expected_guarded)
        guarded_grids += guarded
        zero_variance_columns += int(np.sum(kind == 1))
    assert 0 < guarded_grids < 300 and zero_variance_columns > 0


def test_weight_matrix_rejects_nonfinite():
    with pytest.raises(InvalidSpec):
        stability_by_weight(np.array([[np.nan, 0.0], [1.0, 0.0]]))
    with pytest.raises(InvalidSpec):
        stability_by_weight(np.array([[0.5, 1.0]]))  # a single explanation


# -------------------------------------------------------- subset building

def test_build_subset_matrix_top_k_with_index_ties():
    es = make_set([
        {0: 1.0, 1: -2.0, 2: 1.0, 3: 0.5},
        {0: 1.0, 1: -2.0, 2: 1.0, 3: 0.5},
    ], d=5)
    z = build_subset_matrix(es, k=2)
    # |weights|: 1, 2, 1, 0.5 -> top 2 = column 1 then the 0-vs-2 tie -> 0
    assert z.tolist() == [[1, 1, 0, 0, 0]] * 2


def test_build_subset_matrix_fewer_nonzero_than_k():
    es = make_set([{0: 0.7}, {0: 0.7, 2: 0.1}], d=4)
    z = build_subset_matrix(es, k=3)
    assert z.tolist() == [[1, 0, 0, 0], [1, 0, 1, 0]]


def test_build_subset_matrix_ignores_exact_zero_weights():
    es = make_set([{0: 0.0, 1: 0.4}, {0: 0.0, 1: 0.4}], d=3)
    z = build_subset_matrix(es, k=2)
    assert z.tolist() == [[0, 1, 0], [0, 1, 0]]


# -------------------------------------------------------- stability score

def test_score_stability_combines_both_metrics():
    es = make_set([{0: 1.0, 1: 0.5}, {0: 1.0, 2: 0.5}], d=4)
    score = score_stability(es, *grids(es, 2))
    assert score.by_subset == 0.0  # {0,1} vs {0,2} over d=4
    # columns: (1,1) term 0; (0.5,0) var .125 mean .25 -> 0.5; (0,0.5) -> 0.5
    assert abs(score.by_weight - (1.0 - 1.0 / 4.0)) <= 1e-12


def test_stability_score_type_rejects_values_above_one():
    with pytest.raises(InvalidSpec):
        StabilityScore(by_subset=1.5, by_weight=0.0, flags=())


def test_exact_shapley_repeats_are_perfectly_stable():
    model = logistic_box([1.0, -2.0, 0.5, 0.0], 0.1)
    config = ShapleyConfig(background=np.zeros((3, 4)))
    row = np.array([1.0, 2.0, -1.0, 3.0])

    def explainer(mdl, r, seed):
        return explain_shapley(mdl, r, config, seed)

    es = repeat_explanations(explainer, model, row, m=5, base_seed=42)
    score = score_stability(es, *grids(es, 2))
    assert score.by_subset == 1.0
    assert score.by_weight == 1.0


# ------------------------------------------------------- target selection

def test_target_budget_is_ceil_ten_percent():
    es = make_set([{0: 1.0}, {0: 1.0}], d=134)
    assert len(select_perturbation_targets(*grids(es, 1))) == 14
    es_small = make_set([{0: 1.0}, {0: 1.0}], d=5)
    assert len(select_perturbation_targets(*grids(es_small, 1))) == 1


def test_target_ordering_by_occurrence_then_weight_then_index():
    # column 2 selected twice; columns 0 and 4 once each, 4 carries more weight
    es = make_set([{2: 1.0, 0: 0.2}, {2: 0.9, 4: 0.8}], d=20)
    targets = select_perturbation_targets(*grids(es, 2))
    assert targets == [2, 4]  # budget ceil(2) = 2
    es_wide = make_set([{2: 1.0, 0: 0.2}, {2: 0.9, 4: 0.8}], d=30)
    assert select_perturbation_targets(*grids(es_wide, 2)) == [2, 4, 0]


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


def surrogate_set(column, d, weighted_intervals):
    return ExplanationSet(explanations=tuple(
        Explanation(attributions=(Attribution(column, w, interval=iv),), selected_k=1,
                    explainer_id=SURROGATE_ID, seed_used=0, n_features=d)
        for w, iv in weighted_intervals))


def test_surrogate_modal_interval():
    es = surrogate_set(1, 2, [(0.5, (0.0, 2.0)), (0.4, (0.0, 2.0)), (0.6, (1.0, 3.0))])
    rows = np.array([[0.0, 1.5], [1.0, 2.5], [2.0, 0.5], [3.0, 3.5]])
    matrix = continuous_matrix(rows)
    region = influential_interval(es, 1, matrix, None, rows[0],
                                  MatrixStats.from_matrix(matrix), feature_domain(matrix, 1))
    assert region.kind == "interval" and region.interval == (0.0, 2.0)
    assert not region.fallback


def test_surrogate_modal_tie_breaks_to_smaller_interval():
    es = surrogate_set(0, 1, [(0.5, (1.0, 3.0)), (0.5, (0.0, 2.0))])
    matrix = continuous_matrix(np.array([[0.5], [1.5], [2.5]]))
    region = influential_interval(es, 0, matrix, None, matrix.rows[0],
                                  MatrixStats.from_matrix(matrix), feature_domain(matrix, 0))
    assert region.interval == (0.0, 2.0)


def test_missing_interval_falls_back_to_one_training_std():
    es = make_set([{0: 1.0}, {0: 0.9}], d=2)
    rows = np.array([[0.0, 10.5], [1.0, 20.0], [2.0, 30.0], [3.5, 40.0]])
    matrix = continuous_matrix(rows)
    stats = MatrixStats.from_matrix(continuous_matrix(rows * 3.0))  # not the region rows
    region = influential_interval(es, 1, matrix, None, rows[1], stats,
                                  feature_domain(matrix, 1))
    assert region.fallback
    value = 20.0  # the instance's value at column 1
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
    stats = MatrixStats.from_matrix(matrix)
    es = make_set([{0: 1.0}, {0: 0.8}], d=2)
    domain = feature_domain(matrix, 0)
    region = influential_interval(es, 0, matrix, None, rows[0], stats, domain)
    assert region.kind == "complement" and region.values == (0.0,)
    region1 = influential_interval(es, 0, matrix, None, rows[1], stats, domain)
    assert region1.values == (1.0,)
    missing = influential_interval(es, 0, matrix, None, np.array([np.nan, 3.5]), stats,
                                   domain)
    assert missing.values == (0.0, 1.0)


def test_shapley_region_uses_attribution_deciles():
    # attribution values increase with the feature: the instance sits in the
    # lowest decile, whose members have feature values 0 and 1
    n = 20
    rows = np.arange(n, dtype=np.float64).reshape(-1, 1) + 0.5
    matrix = continuous_matrix(rows)
    shap_col = np.arange(n, dtype=np.float64)
    es = make_set([{0: 0.0}, {0: 0.0}], d=1, explainer=SHAPLEY_ID)
    region = influential_interval(es, 0, matrix, shap_col, rows[0],
                                  MatrixStats.from_matrix(matrix), feature_domain(matrix, 0))
    assert region.kind == "interval"
    assert region.interval == (0.5, 1.5)  # rows 0 and 1 share the first decile


def test_shapley_region_without_present_members_falls_back():
    # the instance's decile holds rows 0 and 1, both missing at the column;
    # the instance is missing there too, so the band centres on the training mean
    n = 20
    rows = np.arange(n, dtype=np.float64).reshape(-1, 1) + 0.5
    rows[:2] = np.nan
    stats = MatrixStats.from_matrix(continuous_matrix(np.array([[2.0], [6.0]])))
    es = make_set([{0: 0.0}, {0: 0.0}], d=1, explainer=SHAPLEY_ID)
    matrix = continuous_matrix(rows)
    region = influential_interval(es, 0, matrix, np.arange(n, dtype=np.float64),
                                  np.array([np.nan]), stats, feature_domain(matrix, 0))
    assert region.fallback and region.interval == (2.0, 6.0)


# ------------------------------------------------------------ perturbation

def interval_target(column, domain_matrix, interval):
    from exqual.metrics import _continuous_segments
    dom = feature_domain(domain_matrix, column)
    return PerturbationTarget(column, segments=_continuous_segments(dom, interval))


def plan_of(*targets, n_perturbations=10):
    return PerturbationPlan(targets=targets, n_perturbations=n_perturbations, flags=())


def test_perturb_never_lands_inside_the_interval():
    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0], [7.5]]))
    plan = plan_of(interval_target(0, matrix, (2.0, 4.0)))
    rng = np.random.default_rng(123)
    row = np.array([3.0])
    for _ in range(10_000):
        v = perturb(row, plan, rng)[0]
        assert 0.25 <= v <= 10.0
        assert not (2.0 <= v <= 4.0)


def test_perturb_full_coverage_extends_outward():
    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0]]))
    plan = plan_of(interval_target(0, matrix, (0.0, 12.0)))
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
    dom = feature_domain(matrix, 0)
    values = _integer_values(dom, (1.5, 3.5))
    assert values == (0.0, 1.0, 4.0, 5.0)
    plan = plan_of(PerturbationTarget(0, values=values))
    rng = np.random.default_rng(2)
    seen = {perturb(np.array([2.0]), plan, rng)[0] for _ in range(2000)}
    assert seen == {0.0, 1.0, 4.0, 5.0}


def test_perturb_binary_flips_value():
    plan = plan_of(PerturbationTarget(0, values=(0.0,)))
    rng = np.random.default_rng(0)
    assert perturb(np.array([1.0, 9.0]), plan, rng).tolist() == [0.0, 9.0]


def test_perturb_touches_only_target_columns():
    matrix = continuous_matrix(np.hstack([
        np.array([[0.25], [10.0], [5.0]]),
        np.array([[1.0], [2.0], [3.5]]),
    ]))
    plan = plan_of(interval_target(0, matrix, (2.0, 4.0)))
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
    es = surrogate_set(0, 2, [(1.0, (1.5, 3.5)), (1.0, (1.5, 3.5))])
    plan = build_perturbation_plan(es, select_perturbation_targets(*grids(es, 1)), matrix,
                                   MatrixStats.from_matrix(matrix), 7, rows[1], None)
    assert len(plan.targets) == 1
    assert plan.n_perturbations == 7 and plan.flags == ()
    # integer grid of the observed domain [0, 5] minus integers in [1.5, 3.5]
    assert plan.targets[0].values == (0.0, 1.0, 4.0, 5.0)
    rng = np.random.default_rng(9)
    draws = {perturb(matrix.rows[1], plan, rng)[0] for _ in range(500)}
    assert draws == {0.0, 1.0, 4.0, 5.0}


def test_perturbation_plan_flags_a_fallback_region():
    # no explanation carries an interval for column 0: the plan falls back
    rows = np.array([[0.25], [10.0], [5.0]])
    matrix = continuous_matrix(rows)
    es = make_set([{0: 1.0}, {0: 0.9}], d=1)
    plan = build_perturbation_plan(es, select_perturbation_targets(*grids(es, 1)), matrix,
                                   MatrixStats.from_matrix(matrix), 3, rows[2], None)
    assert plan.flags == (FLAG_INTERVAL_FALLBACK,)


# ---------------------------------------------------------------- fidelity

def test_fidelity_hand_example():
    calls = []

    def predictor(rows):
        calls.append(rows.shape[0])
        if len(calls) == 1:
            return np.array([0.8])
        return np.array([0.6, 0.7])

    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0]]))
    plan = plan_of(interval_target(0, matrix, (2.0, 4.0)), n_perturbations=2)
    score = fidelity(predictor, np.array([3.0]), plan, np.random.default_rng(0))
    assert calls == [1, 2]  # the original row, then the plan's 2 perturbations
    assert abs(score.f - 0.1875) <= 1e-12  # mean of 0.25 and 0.125
    assert score.y_original == 0.8


def test_fidelity_uses_predicted_class_probability():
    # model predicts the negative class (p = 0.2 < 0.5): Y(x) = 0.8
    def predictor(rows):
        return np.full(rows.shape[0], 0.2)

    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0]]))
    plan = plan_of(interval_target(0, matrix, (2.0, 4.0)))
    score = fidelity(predictor, np.array([3.0]), plan, np.random.default_rng(0))
    assert score.y_original == 0.8
    assert score.f == 0.0


def test_fidelity_zero_iff_probability_unchanged():
    def constant(rows):
        return np.full(rows.shape[0], 0.75)

    matrix = continuous_matrix(np.array([[0.25], [10.0], [5.0]]))
    plan = plan_of(interval_target(0, matrix, (2.0, 4.0)))
    assert fidelity(constant, np.array([3.0]), plan, np.random.default_rng(1)).f == 0.0

    def sensitive(rows):
        return 1.0 / (1.0 + np.exp(-0.5 * rows[:, 0]))

    score = fidelity(sensitive, np.array([3.0]), plan, np.random.default_rng(1))
    assert score.f > 0.0


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
    es = ExplanationSet(explanations=tuple(exps))
    model = logistic_box([0.3, -0.2], 0.05)
    record = evaluate_instance(model, es, matrix, stats, 1, 10, None,
                               np.random.default_rng(0), rows[2])
    assert record.by_subset == 1.0 and record.by_weight == 1.0
    assert record.f >= 0.0
    assert 0.5 <= record.y_original < 1.0


def test_evaluate_instance_builds_each_grid_and_domain_once(monkeypatch):
    # 12 columns: a budget of 2 targets, a one-hot and a numeric one
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(30, 12))
    rows[:, 3] = rng.integers(0, 2, size=30)
    descs = tuple(FeatureDescriptor(j, f"f{j}", "static_numeric") for j in range(12))
    descs = descs[:3] + (FeatureDescriptor(3, "b", "static_onehot", category="y"),) + descs[4:]
    matrix = FeatureMatrix(rows=rows, descriptors=descs,
                           labels=np.asarray(np.arange(30) % 2, dtype=np.int8),
                           case_ids=tuple(f"c{i}" for i in range(30)),
                           prefix_lengths=np.ones(30, dtype=np.int64), bucket_id="all")
    es = make_set([{3: 1.0, 5: 0.8, 7: 0.1}, {3: 0.9, 5: 0.7, 8: 0.2}], d=12)
    calls = {}
    for name in ("build_subset_matrix", "build_weight_matrix", "_weight_terms",
                 "feature_domain"):
        def counting(*args, _name=name, _fn=getattr(metrics, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(metrics, name, counting)
    record = evaluate_instance(logistic_box(np.full(12, 0.1)), es, matrix,
                               MatrixStats.from_matrix(matrix), 2, 5, None,
                               np.random.default_rng(0), rows[0])
    assert calls == {"build_subset_matrix": 1, "build_weight_matrix": 1,
                     "_weight_terms": 1, "feature_domain": 2}
    assert record.by_subset == 1.0  # columns 3 and 5 twice
