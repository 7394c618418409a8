import itertools
import math
import tracemalloc

import numpy as np
import pytest

from exqual import explain
from exqual.encoding import FeatureDescriptor, FeatureMatrix, MatrixStats
from exqual.errors import EmptyBackground, InvalidSpec, WidthMismatch
from exqual.explain import (
    _SCRATCH_CELLS,
    Attribution,
    Explanation,
    ExplanationSet,
    ShapleyConfig,
    SurrogateConfig,
    derive_seed,
    explain_shapley,
    explain_surrogate,
    explanation_set_from_dict,
    explanation_set_to_dict,
    kernel_weights,
    read_explanation_set,
    repeat_explanations,
    sample_neighborhood,
    write_explanation_set,
)
from exqual.model import (
    GBTConfig,
    predict_proba_rows,
    routing_differs,
    train_gbt,
)

from linear_box import logistic_box


def matrix_from(rows, labels):
    rows = np.asarray(rows, dtype=np.float64)
    n, d = rows.shape
    descs = tuple(FeatureDescriptor(j, f"f{j}", "static_numeric") for j in range(d))
    return FeatureMatrix(rows=rows, descriptors=descs,
                         labels=np.asarray(labels, dtype=np.int8),
                         case_ids=tuple(f"c{i}" for i in range(n)),
                         prefix_lengths=np.ones(n, dtype=np.int64), bucket_id="all")


def stats_for(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return MatrixStats.from_matrix(matrix_from(rows, np.arange(len(rows)) % 2))


def brute_shapley(predict, row, background):
    """Straight-from-definition Shapley oracle (independent of the package)."""
    d = len(row)
    background = np.atleast_2d(background)

    def v(subset):
        comp = background.copy()
        if subset:
            comp[:, list(subset)] = row[list(subset)]
        return float(np.mean(predict(comp)))

    phi = np.zeros(d)
    for i in range(d):
        others = [j for j in range(d) if j != i]
        for r in range(d):
            for subset in itertools.combinations(others, r):
                weight = (math.factorial(r) * math.factorial(d - r - 1)
                          / math.factorial(d))
                phi[i] += weight * (v(subset + (i,)) - v(subset))
    return phi


def test_exact_shapley_additive_model():
    predict = lambda rows: rows[:, 0] + rows[:, 1]
    row = np.array([1.0, 1.0])
    cfg = ShapleyConfig(background=np.zeros((1, 2)))
    exp = explain_shapley(predict, row, cfg)
    assert [a.weight for a in exp.attributions] == [1.0, 1.0]
    assert all(a.interval is None for a in exp.attributions)
    assert exp.selected_k == 2 and exp.explainer_id == "shapley"


def test_exact_shapley_matches_brute_force():
    rng = np.random.default_rng(0)
    predict = lambda rows: np.tanh(rows[:, 0] * rows[:, 1] - 0.5 * rows[:, 2]) + rows[:, 3]
    row = rng.normal(size=4)
    bg = rng.normal(size=(5, 4))
    exp = explain_shapley(predict, row, ShapleyConfig(background=bg))
    expected = brute_shapley(predict, row, bg)
    assert np.allclose(exp.weight_vector(), expected, atol=1e-9)


def test_exact_shapley_efficiency_and_dummy_on_gbt():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(120, 6))
    rows[:, 5] = rng.normal(size=120)  # never predictive
    y = (rows[:, 0] + 0.5 * rows[:, 1] > 0).astype(int)
    m = matrix_from(rows, y)
    model = train_gbt(m, GBTConfig(n_trees=15, max_depth=2, min_leaf=5))
    used = {int(f) for t in model.trees for f in t.feature if f >= 0}
    dummies = set(range(6)) - used
    assert dummies, "fixture needs at least one never-split feature"

    bg = rows[:16]
    row = rows[40]
    exp = explain_shapley(model, row, ShapleyConfig(background=bg))
    phi = exp.weight_vector()
    f_row = float(predict_proba_rows(model, row[None, :])[0])
    f_bg = float(predict_proba_rows(model, bg).mean())
    assert abs(phi.sum() - (f_row - f_bg)) < 1e-6  # efficiency
    for j in dummies:
        assert phi[j] == 0.0  # dummy axiom, exact mode


def test_exact_shapley_symmetry_and_seed_independence():
    predict = lambda rows: rows[:, 0] * rows[:, 1]
    bg = np.array([[0.0, 0.0], [1.0, 1.0]])  # exchangeable in both coordinates
    row = np.array([1.0, 1.0])
    e1 = explain_shapley(predict, row, ShapleyConfig(background=bg), seed=1)
    e2 = explain_shapley(predict, row, ShapleyConfig(background=bg), seed=2)
    phi = e1.weight_vector()
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)
    assert np.array_equal(phi, e2.weight_vector())


def test_constant_model_gives_zero_shapley():
    predict = lambda rows: np.full(rows.shape[0], 0.37)
    exp = explain_shapley(predict, np.ones(3), ShapleyConfig(background=np.zeros((2, 3))))
    assert np.array_equal(exp.weight_vector(), np.zeros(3))


def test_sampled_shapley_exact_for_linear_single_background():
    # With one background row, every permutation's telescoping walk yields
    # w_i * (x_i - b_i) exactly for a linear predict function, so sampling
    # introduces no variance at all.
    d = 20
    rng = np.random.default_rng(9)
    w = rng.normal(size=d)
    b_row = rng.normal(size=d)
    row = rng.normal(size=d)
    predict = lambda rows: rows @ w
    cfg = ShapleyConfig(background=b_row[None, :], exact_max_d=10, n_permutations=50)
    exp = explain_shapley(predict, row, cfg, seed=3)
    assert np.allclose(exp.weight_vector(), w * (row - b_row), atol=1e-10)


def test_sampled_shapley_efficiency_exact_and_deterministic():
    rng = np.random.default_rng(11)
    d = 18
    rows = rng.normal(size=(200, d))
    y = (rows[:, 0] - rows[:, 1] > 0).astype(int)
    model = train_gbt(matrix_from(rows, y), GBTConfig(n_trees=10, max_depth=2, min_leaf=5))
    bg = rows[:24]
    row = rows[100]
    cfg = ShapleyConfig(background=bg, exact_max_d=10, n_permutations=400)
    exp = explain_shapley(model, row, cfg, seed=7)
    again = explain_shapley(model, row, cfg, seed=7)
    assert np.array_equal(exp.weight_vector(), again.weight_vector())

    f_row = float(predict_proba_rows(model, row[None, :])[0])
    target = f_row - float(predict_proba_rows(model, bg).mean())
    # every background row gets the same number of walks, and each walk's
    # gains add up to f(x) - f(b): only rounding is left
    assert abs(exp.weight_vector().sum() - target) <= 1e-9


REFERENCE_EXACT_ROWS = 262144  # composite rows per predict call, exact reference
REFERENCE_WALK_ROWS = 8192  # composite rows per predict call, sampled reference


def reference_exact_shapley(predict, row, background):
    """Exact Shapley that predicts all 2^d x n_bg composites."""
    d = row.shape[0]
    n_masks = 1 << d
    n_bg = background.shape[0]
    v = np.empty(n_masks)
    chunk = max(1, REFERENCE_EXACT_ROWS // n_bg)
    masks = np.arange(n_masks, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(d)[None, :]) & 1  # (n_masks, d)
    for start in range(0, n_masks, chunk):
        block = bits[start:start + chunk].astype(bool)  # (b, d)
        composite = np.where(block[:, None, :], row[None, None, :], background[None, :, :])
        preds = predict(composite.reshape(-1, d)).reshape(block.shape[0], n_bg)
        v[start:start + chunk] = preds.mean(axis=1)

    counts = bits.sum(axis=1)
    fact = [math.factorial(s) for s in range(d + 1)]
    coeff = np.array([fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)])
    phi = np.zeros(d)
    for i in range(d):
        without = masks[(masks >> i) & 1 == 0]
        gains = v[without | (1 << i)] - v[without]
        phi[i] = float(np.sum(coeff[counts[without]] * gains))
    return phi


def baseline_sampled_shapley(predict, row, background, n_permutations, rng):
    """The estimator that the stratified walks replaced, kept as the error
    baseline: every walk is a permutation of all d features over a random
    background row, and every one of its d + 1 steps is predicted."""
    d = row.shape[0]
    n_bg = background.shape[0]
    phi = np.zeros(d)
    batch = max(1, REFERENCE_WALK_ROWS // (d + 1))
    done = 0
    while done < n_permutations:
        b = min(batch, n_permutations - done)
        composites = np.empty((b, d + 1, d))
        perms = np.empty((b, d), dtype=np.int64)
        for p in range(b):
            perm = rng.permutation(d)
            perms[p] = perm
            base = background[rng.integers(0, n_bg)]
            position = np.empty(d, dtype=np.int64)
            position[perm] = np.arange(d)
            take = position[None, :] < np.arange(d + 1)[:, None]
            composites[p] = np.where(take, row[None, :], base[None, :])
        preds = predict(composites.reshape(-1, d)).reshape(b, d + 1)
        gains = np.diff(preds, axis=1)
        for p in range(b):
            phi[perms[p]] += gains[p]
        done += b
    return phi / n_permutations


def stratified_walks(differs, n_permutations, rng):
    """(b, D_b's columns in walk order) for every walk the sampled regime
    takes: each b with a nonempty D_b gets ceil(n / (2 n_bg)) uniform
    permutations of D_b, each followed by its reverse. Permutation r is the
    stable argsort of uniform row r, whose columns from |D_b| on are padded
    to sort last; all rows come from one generator call."""
    n_bg = differs.shape[0]
    sizes = differs.sum(axis=1)
    pairs = -(-n_permutations // (2 * n_bg))
    active = np.repeat(np.flatnonzero(sizes), pairs)
    if active.size == 0:
        return []
    u = rng.random((active.size, int(sizes.max())))
    walks = []
    for r, b in enumerate(active):
        u[r, sizes[b]:] = 1.0
        cols = np.flatnonzero(differs[b])[np.argsort(u[r], kind="stable")[:sizes[b]]]
        walks += [(int(b), cols), (int(b), cols[::-1])]
    return walks


def reference_sampled_shapley(predict, row, background, differs, n_permutations, rng):
    """Sampled Shapley that predicts every step of every stratified walk,
    the start included, and sums each walk's gains in walk order."""
    n_bg, d = differs.shape
    phi = np.zeros(d)
    for b, cols in stratified_walks(differs, n_permutations, rng):
        composites = np.repeat(background[b][None, :], cols.size + 1, axis=0)
        for t, j in enumerate(cols):
            composites[t + 1:, j] = row[j]
        phi[cols] += np.diff(predict(composites))
    return phi / (n_bg * 2 * -(-n_permutations // (2 * n_bg)))


def per_b_exact_shapley(predict, row, background, differs):
    """The Shapley value as the mean over b of b's own exact Shapley value:
    the game of b is v_b(S) = f(composite of S with b), in which only D_b's
    features can change the value, so it enumerates the 2^|D_b| subsets of
    D_b. Exact at any d where every |D_b| is small."""
    n_bg, d = differs.shape
    phi = np.zeros(d)
    for b in range(n_bg):
        cols = np.flatnonzero(differs[b])
        k = cols.size
        masks = np.arange(1 << k)
        inside = ((masks[:, None] >> np.arange(k)) & 1).astype(bool)
        composites = np.repeat(background[b][None, :], 1 << k, axis=0)
        for i, j in enumerate(cols):
            composites[inside[:, i], j] = row[j]
        v = predict(composites)
        weight = np.array([math.factorial(s) * math.factorial(k - 1 - s) / math.factorial(k)
                           for s in range(k)])
        for i, j in enumerate(cols):
            without = masks[~inside[:, i]]
            gains = v[without | (1 << i)] - v[without]
            phi[j] += np.sum(weight[inside[without].sum(axis=1)] * gains)
    return phi / n_bg


def gbt_with_missing(d, seed):
    """A 30-tree GBT over d columns with missing cells, the rows it was
    trained on, and a 16-row background; both sides of default_left occur."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(300, d))
    rows[rng.random(size=rows.shape) < 0.15] = np.nan
    filled = np.nan_to_num(rows)
    y = (filled[:, 0] - filled[:, 1] + 0.5 * filled[:, 2] * filled[:, 3]
         + np.isnan(rows[:, 4]) > 0).astype(int)
    model = train_gbt(matrix_from(rows, y), GBTConfig(n_trees=30, max_depth=3, min_leaf=5))
    return model, rows, rows[:16]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_shapley_bit_identical_to_full_enumeration(seed):
    d = 13
    model, rows, bg = gbt_with_missing(d, seed)
    row = rows[100 + seed]
    assert np.isnan(row).any() and np.isnan(bg).any()
    differs = routing_differs(model, row, bg)
    assert differs.sum(axis=1).max() < d  # some composites are skipped
    predict = lambda block: predict_proba_rows(model, block)
    exp = explain_shapley(model, row, ShapleyConfig(background=bg), seed=seed)
    assert np.array_equal(exp.weight_vector(), per_b_exact_shapley(predict, row, bg, differs))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_shapley_bit_identical_to_full_walks(seed):
    d = 19
    model, rows, bg = gbt_with_missing(d, 10 + seed)
    row = rows[200 + seed]
    assert np.isnan(row).any() and np.isnan(bg).any()
    differs = routing_differs(model, row, bg)
    assert differs.sum(axis=1).max() < d
    predict = lambda block: predict_proba_rows(model, block)
    cfg = ShapleyConfig(background=bg, n_permutations=300)
    exp = explain_shapley(model, row, cfg, seed=seed)
    expected = reference_sampled_shapley(predict, row, bg, differs, cfg.n_permutations,
                                         np.random.default_rng(seed))
    assert np.array_equal(exp.weight_vector(), expected)


@pytest.mark.parametrize("n_permutations", [1, 5, 31, 32, 33])
def test_sampled_shapley_bit_identical_at_any_walk_budget(n_permutations):
    # 16 background rows: budgets below n_background, not divisible by
    # 2 * n_background, and divisible; each b gets 2 * ceil(n / 32) walks
    d = 19
    model, rows, bg = gbt_with_missing(d, 11)
    row = rows[201]
    differs = routing_differs(model, row, bg)
    assert differs.any(axis=1).all()
    walks = stratified_walks(differs, n_permutations, np.random.default_rng(3))
    per_b = np.bincount([b for b, _ in walks], minlength=16)
    assert (per_b == 2 * -(-n_permutations // 32)).all()
    predict = lambda block: predict_proba_rows(model, block)
    cfg = ShapleyConfig(background=bg, n_permutations=n_permutations)
    phi = explain_shapley(model, row, cfg, seed=3).weight_vector()
    expected = reference_sampled_shapley(predict, row, bg, differs, n_permutations,
                                         np.random.default_rng(3))
    assert np.array_equal(phi, expected)
    target = float(predict(row[None, :])[0]) - float(predict(bg).mean())
    assert abs(phi.sum() - target) <= 1e-9


def test_sampled_shapley_predicts_nothing_when_every_background_row_routes_like_the_instance(
        monkeypatch):
    # every D_b is empty: every b is a null game, so no walk is taken
    model, rows, _ = gbt_with_missing(19, 30)
    row = rows[120]
    bg = np.repeat(row[None, :], 4, axis=0)
    assert not routing_differs(model, row, bg).any()
    calls = []

    def counting(mdl, block):
        calls.append(block.shape[0])
        return predict_proba_rows(mdl, block)

    monkeypatch.setattr(explain, "predict_proba_rows", counting)
    exp = explain_shapley(model, row, ShapleyConfig(background=bg), seed=1)
    assert calls == []
    assert np.array_equal(exp.weight_vector(), np.zeros(19))


def distinct_walk_composites(differs, n_permutations, rng):
    """The distinct (b, S ∩ D_b) pairs over every step of the stratified
    walks, the starts included, S ∩ D_b as a bitmask over the columns."""
    seen = set()
    for b, cols in stratified_walks(differs, n_permutations, rng):
        mask = 0
        seen.add((b, mask))
        for j in cols:
            mask |= 1 << int(j)
            seen.add((b, mask))
    return len(seen)


def test_sampled_shapley_predicts_each_distinct_composite_once(monkeypatch):
    d = 25
    model, rows, bg = gbt_with_missing(d, 20)
    row = rows[150]
    assert np.isnan(row).any() and np.isnan(bg).any()
    calls = []

    def counting(mdl, block):
        calls.append(block.shape[0])
        return predict_proba_rows(mdl, block)

    monkeypatch.setattr(explain, "predict_proba_rows", counting)
    cfg = ShapleyConfig(background=bg, n_permutations=2000)
    explain_shapley(model, row, cfg, seed=4)
    differs = routing_differs(model, row, bg)
    assert differs.sum(axis=1).max() < d
    expected = distinct_walk_composites(differs, cfg.n_permutations,
                                        np.random.default_rng(4))
    assert sum(calls) == expected > _SCRATCH_CELLS // d
    assert max(calls) <= _SCRATCH_CELLS // d


def test_sampled_shapley_two_word_keys_bit_identical_for_opaque_model():
    d = 40  # D_b is all 40 features: each step's key spans two 31-bit words
    rng = np.random.default_rng(8)
    row, bg = rng.normal(size=d), rng.normal(size=(16, d))
    differs = np.ones((16, d), dtype=bool)
    calls = []

    def predict(block):  # row-wise: element-wise terms and a per-row sum
        calls.append(block.shape[0])
        return np.tanh(block[:, 0] * block[:, 39]) + (block * np.cos(block)).sum(axis=1)

    cfg = ShapleyConfig(background=bg, n_permutations=2000)
    assert 16 * 63 > _SCRATCH_CELLS // d  # the walks are drawn in two calls
    exp = explain_shapley(predict, row, cfg, seed=6)
    expected = distinct_walk_composites(differs, cfg.n_permutations,
                                        np.random.default_rng(6))
    assert sum(calls) == expected > _SCRATCH_CELLS // d
    assert max(calls) <= _SCRATCH_CELLS // d
    reference = reference_sampled_shapley(predict, row, bg, differs, cfg.n_permutations,
                                          np.random.default_rng(6))
    assert np.array_equal(exp.weight_vector(), reference)


def test_sampled_shapley_two_word_keys_bit_identical_on_gbt():
    d = 40
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(300, d))
    rows[rng.random(size=rows.shape) < 0.1] = np.nan
    y = (np.nan_to_num(rows).sum(axis=1) > 0).astype(int)
    model = train_gbt(matrix_from(rows, y), GBTConfig(n_trees=80, max_depth=3, min_leaf=5))
    row, bg = rows[100], rows[:16]
    differs = routing_differs(model, row, bg)
    sizes = differs.sum(axis=1)
    assert sizes.min() < d and sizes.max() > 31  # tree-aware keys of two words
    predict = lambda block: predict_proba_rows(model, block)
    cfg = ShapleyConfig(background=bg, n_permutations=300)
    exp = explain_shapley(model, row, cfg, seed=2)
    expected = reference_sampled_shapley(predict, row, bg, differs, cfg.n_permutations,
                                         np.random.default_rng(2))
    assert np.array_equal(exp.weight_vector(), expected)


@pytest.mark.parametrize("d, copies", [(12, 1), (12, 16), (19, 1), (19, 16)])
def test_shapley_bit_identical_when_background_rows_route_like_the_instance(d, copies):
    # the instance itself in the background: its differs row is all False,
    # so its coalitions all predict alike (every b's, with 16 copies)
    model, rows, bg = gbt_with_missing(d, 30)
    row = rows[120]
    bg = bg.copy()
    bg[:copies] = row
    differs = routing_differs(model, row, bg)
    assert not differs[:copies].any()
    predict = lambda block: predict_proba_rows(model, block)
    cfg = ShapleyConfig(background=bg, n_permutations=200)
    exp = explain_shapley(model, row, cfg, seed=5)
    if d <= cfg.exact_max_d:
        expected = per_b_exact_shapley(predict, row, bg, differs)
    else:
        expected = reference_sampled_shapley(predict, row, bg, differs, cfg.n_permutations,
                                             np.random.default_rng(5))
    assert np.array_equal(exp.weight_vector(), expected)
    assert (copies < 16) == exp.weight_vector().any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_b_oracle_matches_full_enumeration(seed):
    # d = 13 is the case the engine is pinned to the per-b oracle on
    for d in (12, 13):
        model, rows, bg = gbt_with_missing(d, seed)
        row = rows[100 + seed]
        differs = routing_differs(model, row, bg)
        predict = lambda block: predict_proba_rows(model, block)
        oracle = per_b_exact_shapley(predict, row, bg, differs)
        assert np.allclose(oracle, reference_exact_shapley(predict, row, bg), rtol=0, atol=1e-12)


def opaque_case():
    """A d = 15 callable with no routing, an instance and 16 background rows."""
    d = 15
    rng = np.random.default_rng(5)
    row, bg = rng.normal(size=d), rng.normal(size=(16, d))

    def predict(block):
        return np.tanh(block[:, 0] * block[:, 1]) + block[:, 2:].sum(axis=1)

    return predict, row, bg


def test_per_b_oracle_matches_full_enumeration_for_opaque_model():
    predict, row, bg = opaque_case()
    differs = routing_differs(predict, row, bg)
    assert differs.all()
    oracle = per_b_exact_shapley(predict, row, bg, differs)
    assert np.allclose(oracle, reference_exact_shapley(predict, row, bg), rtol=0, atol=1e-12)


def relative_error(phi, oracle):
    return float(np.linalg.norm(phi - oracle) / np.abs(oracle).sum())


def test_stratified_walks_cut_the_error_at_equal_walks():
    # eight sampled-regime cases (d = 19) whose D_b are small enough for the
    # per-b oracle: the engine's median error is at most a third of the
    # replaced estimator's at the same n_permutations
    n_permutations = 200
    errors, baseline = [], []
    for case in range(8):
        model, rows, bg = gbt_with_missing(19, 40 + case)
        predict = lambda block: predict_proba_rows(model, block)
        row = next(r for r in rows[150:] if routing_differs(model, r, bg).sum(axis=1).max() <= 12)
        oracle = per_b_exact_shapley(predict, row, bg, routing_differs(model, row, bg))
        cfg = ShapleyConfig(background=bg, n_permutations=n_permutations)
        errors.append(relative_error(
            explain_shapley(model, row, cfg, seed=case).weight_vector(), oracle))
        baseline.append(relative_error(
            baseline_sampled_shapley(predict, row, bg, n_permutations,
                                     np.random.default_rng(case)), oracle))
    assert np.median(errors) <= np.median(baseline) / 3


def traced_peak(fn):
    """Peak traced allocation while fn runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_shapley_scratch_does_not_grow_with_walks_times_width():
    d = 300
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(200, d))
    y = (rows[:, 0] + rows[:, 1] > 0).astype(int)
    model = train_gbt(matrix_from(rows, y), GBTConfig(n_trees=5, max_depth=2, min_leaf=5))
    cfg = ShapleyConfig(background=rows[:16])  # 2000 walks
    explain_shapley(model, rows[100], cfg, seed=1)  # packs the trees
    peak = traced_peak(lambda: explain_shapley(model, rows[100], cfg, seed=1))
    # the 1.1 MiB of int16 walks, their D_b lookup and one composite chunk;
    # int64 per-step arrays of 2000 x 301 keys would take 4.6 MiB each
    assert peak < 3 * 2**20


def test_exact_shapley_scratch_does_not_grow_with_composite_batch():
    d = 15
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(300, d))
    y = (np.sin(rows[:, :8]).sum(axis=1) + rng.normal(size=300) > 0).astype(int)
    model = train_gbt(matrix_from(rows, y), GBTConfig(n_trees=30, max_depth=6, min_leaf=2))
    row, bg = rows[150], rows[:4]
    sizes = routing_differs(model, row, bg).sum(axis=1)
    assert sizes.sum() >= 4 * 12  # deep trees: about 60k distinct composites
    cfg = ShapleyConfig(background=bg)
    explain_shapley(model, row, cfg)
    peak = traced_peak(lambda: explain_shapley(model, row, cfg))
    # 0.5 MiB of distinct predictions, one composite chunk and the code and
    # weight tables of one (|D_b|, feature); a single batch of every
    # composite would take 7 MiB per (rows, d) array
    assert peak < 3 * 2**20


def test_routing_differs_all_true_without_trees():
    rng = np.random.default_rng(2)
    row, bg = rng.normal(size=5), rng.normal(size=(3, 5))
    linear = logistic_box(np.zeros(5))
    for model in (linear, lambda block: block.sum(axis=1)):
        differs = routing_differs(model, row, bg)
        assert differs.shape == (3, 5) and differs.all()


def test_exact_shapley_keeps_row_budget_for_opaque_model():
    opaque, row, bg = opaque_case()
    d = row.shape[0]
    calls = []

    def predict(block):
        calls.append(block.shape[0])
        return opaque(block)

    exp = explain_shapley(predict, row, ShapleyConfig(background=bg))
    assert sum(calls) == 16 << d  # no routing is known: every composite
    assert max(calls) <= _SCRATCH_CELLS // d
    expected = per_b_exact_shapley(opaque, row, bg, routing_differs(opaque, row, bg))
    assert np.array_equal(exp.weight_vector(), expected)


def test_shapley_input_validation():
    with pytest.raises(EmptyBackground):
        ShapleyConfig(background=np.zeros((0, 3)))
    for exact_max_d in (-1, 21):
        with pytest.raises(InvalidSpec):
            ShapleyConfig(background=np.zeros((1, 3)), exact_max_d=exact_max_d)
    cfg = ShapleyConfig(background=np.zeros((2, 3)))
    with pytest.raises(WidthMismatch):
        explain_shapley(lambda r: r[:, 0], np.ones(4), cfg)


def test_surrogate_recovers_linear_black_box_without_discretization():
    d = 8
    rng = np.random.default_rng(21)
    train_rows = rng.normal(size=(400, d))
    stats = stats_for(train_rows)
    w_true = 0.25 * np.array([1.2, -0.9, 0.6, -0.45, 0.3, -0.2, 0.12, 0.06])
    black_box = logistic_box(w_true)
    row = np.zeros(d)
    cfg = SurrogateConfig(n_samples=5000, k=d, discretize_numeric=False)
    exp = explain_surrogate(black_box, row, stats, cfg, seed=5)
    got = exp.weight_vector()

    # same rank order and signs as the black box
    assert list(np.argsort(-np.abs(got))) == list(np.argsort(-np.abs(w_true)))
    assert np.array_equal(np.sign(got), np.sign(w_true))
    # pairwise ratios within 5% (weights recovered up to a common scale)
    order = np.argsort(-np.abs(w_true))
    for a, b in zip(order, order[1:]):
        assert got[a] / got[b] == pytest.approx(w_true[a] / w_true[b], rel=0.05)


def test_surrogate_equals_closed_form_wls_on_same_samples():
    d = 5
    rng = np.random.default_rng(13)
    stats = stats_for(rng.normal(size=(300, d)))
    w_true = 0.2 * np.array([1.0, -0.8, 0.5, 0.3, -0.1])
    black_box = logistic_box(w_true, 0.1)
    row = np.full(d, 0.2)
    cfg = SurrogateConfig(n_samples=800, k=d, discretize_numeric=False)
    exp = explain_surrogate(black_box, row, stats, cfg, seed=17)

    # independent route: regenerate the identical neighborhood, solve the
    # full weighted least squares directly
    samples = sample_neighborhood(row, stats, cfg.n_samples,
                                  np.random.default_rng(17), discretize_numeric=False)
    y = black_box(samples)
    w = kernel_weights(samples, samples[0], stats, cfg.resolved_kernel_width(d))
    A = np.column_stack([samples, np.ones(len(y))]) * np.sqrt(w)[:, None]
    beta, *_ = np.linalg.lstsq(A, y * np.sqrt(w), rcond=None)
    assert np.allclose(exp.weight_vector(), beta[:d], atol=1e-8)


def test_surrogate_constant_black_box_degenerates():
    d = 4
    stats = stats_for(np.random.default_rng(0).normal(size=(100, d)))
    predict = lambda rows: np.full(rows.shape[0], 0.5)
    exp = explain_surrogate(predict, np.zeros(d), stats,
                            SurrogateConfig(n_samples=200), seed=0)
    assert exp.degenerate and exp.selected_k == 0 and exp.attributions == ()
    assert np.array_equal(exp.weight_vector(), np.zeros(d))


def test_surrogate_selects_exactly_k_features():
    d = 10
    rng = np.random.default_rng(31)
    train_rows = rng.normal(size=(500, d))
    stats = stats_for(train_rows)
    w = np.zeros(d)
    w[[0, 3, 7]] = [0.8, -0.6, 0.4]
    black_box = logistic_box(w)
    cfg = SurrogateConfig(n_samples=1500, k=3, discretize_numeric=False)
    exp = explain_surrogate(black_box, np.zeros(d), stats, cfg, seed=2)
    assert exp.selected_k == 3
    assert len(exp.attributions) == 3
    assert all(a.weight != 0.0 for a in exp.attributions)
    assert {a.column_index for a in exp.attributions} == {0, 3, 7}
    assert all(a.interval is not None for a in exp.attributions)


def test_forward_selection_matches_exhaustive_greedy_refit():
    # the incremental orthogonalization must pick the same features, in the
    # same order, as brute-force greedy refitting at every step
    rng = np.random.default_rng(41)
    n, d, k = 200, 6, 3
    A = rng.normal(size=(n, d)) @ (np.eye(d) + 0.4 * rng.normal(size=(d, d)))
    y = A @ rng.normal(size=d) + 0.1 * rng.normal(size=n)
    w = rng.random(n) + 0.1
    sw = np.sqrt(w)

    def wls_sse(cols):
        X = np.column_stack([A[:, cols], np.ones(n)]) * sw[:, None]
        beta, *_ = np.linalg.lstsq(X, y * sw, rcond=None)
        resid = y * sw - X @ beta
        return float(resid @ resid)

    expected = []
    while len(expected) < k:
        best = min((j for j in range(d) if j not in expected),
                   key=lambda j: wls_sse(expected + [j]))
        expected.append(best)

    from exqual.explain import _forward_select
    got = _forward_select(A, y, w, k)
    assert got == expected


def test_surrogate_intervals_by_column_kind():
    rng = np.random.default_rng(8)
    numeric = rng.normal(loc=5.0, scale=2.0, size=(300, 1))
    binary = (rng.random(size=(300, 1)) < 0.3).astype(float)
    rows = np.hstack([numeric, binary])
    descs = (FeatureDescriptor(0, "x", "agg_mean"),
             FeatureDescriptor(1, "flag", "index_onehot", category="a", event_index=1))
    m = FeatureMatrix(rows=rows, descriptors=descs,
                      labels=np.asarray(np.arange(300) % 2, dtype=np.int8),
                      case_ids=tuple(f"c{i}" for i in range(300)),
                      prefix_lengths=np.ones(300, dtype=np.int64), bucket_id="all")
    stats = MatrixStats.from_matrix(m)
    predict = lambda block: 1.0 / (1.0 + np.exp(-(0.5 * block[:, 0] - 1.0 * block[:, 1])))
    row = np.array([float(numeric[10, 0]), 1.0])

    exp = explain_surrogate(predict, row, stats, SurrogateConfig(n_samples=600, k=2), seed=1)
    by_col = {a.column_index: a for a in exp.attributions}
    lo, hi = by_col[0].interval
    assert lo <= row[0] <= hi  # the instance's own quartile bin
    assert by_col[1].interval == (1.0, 1.0)  # binary: the instance value

    flat = explain_surrogate(predict, row, stats,
                             SurrogateConfig(n_samples=600, k=2, discretize_numeric=False),
                             seed=1)
    by_col = {a.column_index: a for a in flat.attributions}
    assert by_col[0].interval == pytest.approx(
        (row[0] - stats.scales[0], row[0] + stats.scales[0]))


def reference_fit_design(samples, x, stats, discretize):
    """The per-column loop that explain._fit_design replaced."""
    n, d = samples.shape
    design = np.empty((n, d))
    for j in range(d):
        if stats.domains[j] is None:
            design[:, j] = 0.0
        elif not np.isnan(stats.p_one[j]):
            design[:, j] = (samples[:, j] == x[j]).astype(np.float64)
        elif discretize and stats.bin_edges[j] is not None:
            target = stats.bin_of(j, x[j])
            inner = stats.bin_edges[j][1:-1]
            sample_bins = np.searchsorted(inner, samples[:, j], side="left")
            design[:, j] = (sample_bins == target).astype(np.float64)
        else:
            design[:, j] = samples[:, j]
    return design


@pytest.mark.parametrize("discretize", [True, False])
def test_fit_design_matches_the_per_column_loop_bit_for_bit(discretize):
    # binary, continuous, integer-valued (tied quartile edges), all-missing
    # and constant columns; samples on the edges, missing and out of range
    rng = np.random.default_rng(17)
    n = 200
    rows = np.column_stack([
        (rng.random(n) < 0.3).astype(float), rng.normal(size=n),
        rng.integers(0, 3, size=n).astype(float), np.full(n, np.nan), np.full(n, 2.5),
        rng.exponential(size=n)])
    descs = (FeatureDescriptor(0, "flag", "static_onehot", category="a"),) + tuple(
        FeatureDescriptor(j, f"f{j}", "static_numeric") for j in range(1, 6))
    stats = MatrixStats.from_matrix(FeatureMatrix(
        rows=rows, descriptors=descs, labels=np.asarray(np.arange(n) % 2, dtype=np.int8),
        case_ids=tuple(f"c{i}" for i in range(n)),
        prefix_lengths=np.ones(n, dtype=np.int64), bucket_id="all"))
    for row in (rows[3], rows[7], np.array([1.0, 0.0, 1.0, np.nan, 2.5, 0.0])):
        samples = sample_neighborhood(row, stats, 500, np.random.default_rng(2),
                                      discretize_numeric=discretize)
        for j, edges in enumerate(stats.bin_edges):
            if edges is not None:
                samples[1:4, j] = edges[1:-1]  # exactly on each inner edge
        samples[6, 1:] = np.nan
        samples[7, 1:] = 1e9
        got = explain._fit_design(samples, samples[0], stats, discretize)
        expected = reference_fit_design(samples, samples[0], stats, discretize)
        assert np.array_equal(got, expected, equal_nan=True)


def test_neighborhood_sampling_distributions():
    rng = np.random.default_rng(3)
    numeric = rng.normal(loc=2.0, scale=0.5, size=(400, 1))
    binary = (rng.random(size=(400, 1)) < 0.25).astype(float)
    rows = np.hstack([numeric, binary])
    descs = (FeatureDescriptor(0, "x", "agg_mean"),
             FeatureDescriptor(1, "flag", "static_onehot", category="a"))
    m = FeatureMatrix(rows=rows, descriptors=descs,
                      labels=np.asarray(np.arange(400) % 2, dtype=np.int8),
                      case_ids=tuple(f"c{i}" for i in range(400)),
                      prefix_lengths=np.ones(400, dtype=np.int64), bucket_id="all")
    stats = MatrixStats.from_matrix(m)
    row = np.array([2.0, 0.0])
    samples = sample_neighborhood(row, stats, 4000, np.random.default_rng(5))
    assert np.array_equal(samples[0], row)
    assert set(np.unique(samples[1:, 1])) <= {0.0, 1.0}
    assert samples[1:, 1].mean() == pytest.approx(stats.p_one[1], abs=0.03)
    # discretized numeric stays inside the observed range
    assert samples[1:, 0].min() >= numeric.min() - 1e-9
    assert samples[1:, 0].max() <= numeric.max() + 1e-9
    # missing instance cells are mean-imputed before sampling
    with_nan = sample_neighborhood(np.array([np.nan, 1.0]), stats, 200,
                                   np.random.default_rng(6))
    assert with_nan[0, 0] == pytest.approx(stats.means[0])


def test_repeat_explanations_deterministic_and_seed_derived():
    d = 4
    stats = stats_for(np.random.default_rng(1).normal(size=(200, d)))
    black_box = logistic_box([0.4, -0.3, 0.2, 0.1])

    def surrogate_fn(model, row, seed):
        return explain_surrogate(model, row, stats,
                                 SurrogateConfig(n_samples=300, k=2,
                                                 discretize_numeric=False), seed)

    row = np.zeros(d)
    s1 = repeat_explanations(surrogate_fn, black_box, row, m=10, base_seed=99)
    s2 = repeat_explanations(surrogate_fn, black_box, row, m=10, base_seed=99)
    assert s1 == s2
    assert s1.m == 10
    seeds = {e.seed_used for e in s1.explanations}
    assert len(seeds) == 10  # per-repetition derived streams

    bg = np.zeros((1, 2))
    shap_fn = lambda model, row, seed: explain_shapley(
        model, row, ShapleyConfig(background=bg), seed)
    additive = lambda rows: rows[:, 0] + rows[:, 1]
    es = repeat_explanations(shap_fn, additive, np.array([1.0, 2.0]), m=10, base_seed=0)
    first = es.explanations[0].weight_vector()
    for e in es.explanations[1:]:
        assert np.array_equal(e.weight_vector(), first)

    with pytest.raises(InvalidSpec):
        repeat_explanations(shap_fn, additive, np.array([1.0, 2.0]), m=1, base_seed=0)
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


def test_explanation_type_invariants():
    with pytest.raises(InvalidSpec):
        Explanation(attributions=(Attribution(0, 1.0), Attribution(0, 2.0)),
                    selected_k=2, explainer_id="surrogate", seed_used=0, n_features=3)
    with pytest.raises(InvalidSpec):
        Explanation(attributions=(Attribution(5, 1.0),),
                    selected_k=1, explainer_id="surrogate", seed_used=0, n_features=3)
    exp = Explanation(attributions=(Attribution(0, -2.0), Attribution(2, 1.0)),
                      selected_k=2, explainer_id="surrogate", seed_used=0, n_features=3)
    with pytest.raises(InvalidSpec):
        ExplanationSet(explanations=(exp,))


def test_explanation_set_round_trip(tmp_path):
    exps = tuple(
        Explanation(attributions=(Attribution(0, 0.5, (1.0, 2.0)), Attribution(1, -0.25, (0.0, 0.0))),
                    selected_k=2, explainer_id="surrogate", seed_used=s, n_features=4)
        for s in (1, 2, 3)
    )
    es = ExplanationSet(explanations=exps, case_ref=("c9", 3))
    path = str(tmp_path / "c9_3.json")
    write_explanation_set(es, path)
    again = read_explanation_set(path)
    assert again == es
    assert explanation_set_from_dict(explanation_set_to_dict(es)) == es


def test_surrogate_config_validation():
    with pytest.raises(InvalidSpec):
        SurrogateConfig(n_samples=50)
    with pytest.raises(InvalidSpec):
        SurrogateConfig(k=0)
    for width in (-1.0, float("nan")):
        with pytest.raises(InvalidSpec):
            SurrogateConfig(kernel_width=width)
    assert SurrogateConfig().resolved_kernel_width(16) == pytest.approx(3.0)
