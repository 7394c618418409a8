import json
import tracemalloc

import numpy as np
import pytest

from exqual.encoding import FeatureDescriptor, FeatureMatrix
from exqual.errors import (
    DegenerateMatrix,
    EmptyMatrix,
    InvalidSpec,
    SingleClass,
    WidthMismatch,
)
from exqual import model as model_module
from exqual.model import (
    LEAF_REG,
    MAX_LEAF_VALUE,
    MAX_RAW_SCORE,
    GBTConfig,
    GBTModel,
    Tree,
    descriptor_fingerprint,
    evaluate_accuracy,
    model_to_dict,
    predict_proba_rows,
    predict_raw,
    read_model,
    train_gbt,
    write_model,
)


def matrix_from(rows, labels, bucket_id="all"):
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    n, d = rows.shape
    descs = tuple(FeatureDescriptor(j, f"f{j}", "static_numeric") for j in range(d))
    return FeatureMatrix(
        rows=rows,
        descriptors=descs,
        labels=np.asarray(labels, dtype=np.int8),
        case_ids=tuple(f"c{i}" for i in range(n)),
        prefix_lengths=np.ones(n, dtype=np.int64),
        bucket_id=bucket_id,
    )


def separable_1d(n=40):
    x = np.concatenate([np.linspace(-5, -0.5, n // 2), np.linspace(0.5, 5, n // 2)])
    y = (x >= 0).astype(int)
    return matrix_from(x, y)


def test_gbt_fits_separable_data_with_stumps():
    m = separable_1d()
    model = train_gbt(m, GBTConfig(n_trees=10, max_depth=1, learning_rate=0.5, min_leaf=2))
    assert evaluate_accuracy(model, m) == 1.0


def test_gbt_rejects_degenerate_inputs():
    with pytest.raises(SingleClass):
        train_gbt(matrix_from([1.0, 2.0, 3.0], [1, 1, 1]))
    with pytest.raises(DegenerateMatrix):
        train_gbt(matrix_from([1.0], [1]))


def test_gbt_never_splits_all_missing_column():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=60)
    rows = np.column_stack([x0, np.full(60, np.nan)])
    y = (x0 > 0).astype(int)
    model = train_gbt(matrix_from(rows, y), GBTConfig(n_trees=5, max_depth=2, min_leaf=2))
    used = {int(f) for t in model.trees for f in t.feature if f >= 0}
    assert 1 not in used
    assert evaluate_accuracy(model, matrix_from(rows, y)) == 1.0


def test_empty_ensemble_predicts_logistic_of_base_score():
    model = GBTModel(trees=(), base_score=0.0, n_features=3, descriptors_fingerprint="x")
    assert predict_proba_rows(model, np.zeros((1, 3)))[0] == 0.5
    trained = train_gbt(separable_1d(), GBTConfig(n_trees=4, max_depth=1, min_leaf=2))
    raw0 = predict_raw(trained, np.array([[1.0], [2.0]]), n_trees=0)
    assert np.allclose(raw0, trained.base_score)


def test_probabilities_strictly_inside_unit_interval():
    m = separable_1d()
    model = train_gbt(m, GBTConfig(n_trees=30, max_depth=2, learning_rate=1.0, min_leaf=2))
    rng = np.random.default_rng(1)
    rows = rng.normal(scale=100.0, size=(1000, 1))
    p = predict_proba_rows(model, rows)
    assert np.all(p > 0.0) and np.all(p < 1.0)


def logistic_loss(raw, y):
    p = 1.0 / (1.0 + np.exp(-raw))
    eps = 1e-15
    return float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))


def test_training_loss_non_increasing_per_round():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(80, 4))
    y = (rows[:, 0] + 0.5 * rows[:, 1] + 0.2 * rng.normal(size=80) > 0).astype(int)
    m = matrix_from(rows, y)
    model = train_gbt(m, GBTConfig(n_trees=25, max_depth=3, min_leaf=5))
    losses = [logistic_loss(predict_raw(model, m.rows, n_trees=k), y)
              for k in range(model.config.n_trees + 1)]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-12


def test_missing_value_routing_matches_default_side():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(100, 2))
    x[rng.random(size=(100, 2)) < 0.25] = np.nan
    score = np.where(np.isnan(x[:, 0]), 0.8, x[:, 0])
    y = (score + 0.3 * np.nan_to_num(x[:, 1]) > 0).astype(int)
    model = train_gbt(matrix_from(x, y), GBTConfig(n_trees=6, max_depth=1, min_leaf=3))
    checked = 0
    for tree in model.trees:
        j, thr, default_left = int(tree.feature[0]), tree.threshold[0], bool(tree.default_left[0])
        if j < 0:
            continue
        row_nan = np.full((1, 2), 1.0)
        row_nan[0, j] = np.nan
        row_filled = row_nan.copy()
        row_filled[0, j] = thr - 1.0 if default_left else thr + 1.0
        assert tree.predict(row_nan)[0] == tree.predict(row_filled)[0]
        checked += 1
    assert checked > 0


def test_gbt_deterministic_given_seed():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(60, 3))
    y = (rows[:, 0] > 0).astype(int)
    m = matrix_from(rows, y)
    cfg = GBTConfig(n_trees=10, max_depth=2, min_leaf=3, subsample=0.7, seed=11)
    p1 = predict_proba_rows(train_gbt(m, cfg), m.rows)
    p2 = predict_proba_rows(train_gbt(m, cfg), m.rows)
    assert np.array_equal(p1, p2)
    p3 = predict_proba_rows(train_gbt(m, GBTConfig(n_trees=10, max_depth=2, min_leaf=3,
                                                   subsample=0.7, seed=12)), m.rows)
    assert not np.array_equal(p1, p3)


def test_evaluate_accuracy_and_width_checks():
    m = matrix_from([[1.0], [2.0], [3.0]], [1, 1, 1])
    high = GBTModel(trees=(), base_score=5.0, n_features=1,
                    descriptors_fingerprint="x")  # predicts ~0.99
    low = GBTModel(trees=(), base_score=-5.0, n_features=1, descriptors_fingerprint="x")
    assert evaluate_accuracy(high, m) == 1.0
    assert evaluate_accuracy(low, m) == 0.0
    with pytest.raises(WidthMismatch):
        predict_proba_rows(high, np.array([[1.0, 2.0]]))
    empty = FeatureMatrix(
        rows=np.zeros((0, 1)),
        descriptors=(FeatureDescriptor(0, "f0", "static_numeric"),),
        labels=np.zeros(0, dtype=np.int8),
        case_ids=(),
        prefix_lengths=np.zeros(0, dtype=np.int64),
        bucket_id="all",
    )
    with pytest.raises(EmptyMatrix):
        evaluate_accuracy(high, empty)


def test_config_validation():
    with pytest.raises(InvalidSpec):
        GBTConfig(n_trees=0)
    with pytest.raises(InvalidSpec):
        GBTConfig(learning_rate=0.0)
    with pytest.raises(InvalidSpec):
        GBTConfig(subsample=1.5)


def test_model_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(50, 3))
    rows[rng.random(size=(50, 3)) < 0.2] = np.nan
    y = (np.nan_to_num(rows[:, 0]) > 0).astype(int)
    m = matrix_from(rows, y)
    model = train_gbt(m, GBTConfig(n_trees=7, max_depth=3, min_leaf=2))
    path = str(tmp_path / "model.json")
    write_model(model, path)
    again = read_model(path)
    assert again.base_score == model.base_score
    assert again.descriptors_fingerprint == model.descriptors_fingerprint
    assert np.array_equal(predict_proba_rows(again, m.rows), predict_proba_rows(model, m.rows))

    assert descriptor_fingerprint(m.descriptors) == descriptor_fingerprint(m.descriptors)
    assert model.descriptors_fingerprint == descriptor_fingerprint(m.descriptors)


# ---------------------------------------------- reference: one tree at a time
# The loops train_gbt and predict_raw replaced: sort every column at every
# node, and sum one tree's predictions after another. The presorted builder
# and the packed walk must reproduce them bit for bit.

class _ReferenceBuilder:
    def __init__(self, X, grad, hess, max_depth, min_leaf):
        self.X, self.grad, self.hess = X, grad, hess
        self.max_depth, self.min_leaf = max_depth, min_leaf
        self.nodes = []  # [feature, threshold, left, right, default_left, value]

    def _best_split(self, idx):
        r = self.grad[idx]
        n = len(idx)
        parent = (r.sum() ** 2) / n
        best = (1e-12, None)
        for j in range(self.X.shape[1]):
            col = self.X[idx, j]
            miss = np.isnan(col)
            n_m = int(miss.sum())
            n_p = n - n_m
            if n_p < 2:
                continue
            vals = col[~miss]
            rp = r[~miss]
            order = np.argsort(vals, kind="stable")
            vs = vals[order]
            cum = np.cumsum(rp[order])
            cuts = np.nonzero(np.diff(vs) > 0)[0] + 1
            if cuts.size == 0:
                continue
            s_m = float(r[miss].sum())
            s_l = cum[cuts - 1]
            s_r = cum[-1] - s_l
            n_l = cuts.astype(np.float64)
            n_r = n_p - n_l
            thresholds = (vs[cuts - 1] + vs[cuts]) / 2.0
            for default_left in (True, False) if n_m else (True,):
                if default_left:
                    score = (s_l + s_m) ** 2 / (n_l + n_m) + np.where(
                        n_r > 0, s_r ** 2 / np.maximum(n_r, 1), 0.0)
                    ok = ((n_l + n_m) >= self.min_leaf) & (n_r >= self.min_leaf)
                else:
                    score = s_l ** 2 / np.maximum(n_l, 1) + (s_r + s_m) ** 2 / (n_r + n_m)
                    ok = (n_l >= self.min_leaf) & ((n_r + n_m) >= self.min_leaf)
                score = np.where(ok, score, -np.inf)
                k = int(np.argmax(score))
                gain = float(score[k]) - parent
                if gain > best[0]:
                    best = (gain, (j, float(thresholds[k]), default_left))
        return best[1]

    def build(self, idx, depth=0) -> int:
        node = len(self.nodes)
        self.nodes.append([-1, 0.0, -1, -1, True, 0.0])
        split = None
        if depth < self.max_depth and len(idx) >= 2 * self.min_leaf:
            split = self._best_split(idx)
        if split is None:
            raw = self.grad[idx].sum() / (self.hess[idx].sum() + LEAF_REG)
            self.nodes[node][5] = float(np.clip(raw, -MAX_LEAF_VALUE, MAX_LEAF_VALUE))
            return node
        j, thr, default_left = split
        col = self.X[idx, j]
        with np.errstate(invalid="ignore"):
            go_left = np.where(np.isnan(col), default_left, col < thr)
        self.nodes[node][:2] = [j, thr]
        self.nodes[node][4] = default_left
        self.nodes[node][2] = self.build(idx[go_left], depth + 1)
        self.nodes[node][3] = self.build(idx[~go_left], depth + 1)
        return node

    def tree(self, learning_rate) -> Tree:
        f, t, left, right, dl, v = zip(*self.nodes)
        return Tree(np.asarray(f, dtype=np.int32), np.asarray(t, dtype=np.float64),
                    np.asarray(left, dtype=np.int32), np.asarray(right, dtype=np.int32),
                    np.asarray(dl, dtype=bool),
                    np.asarray(v, dtype=np.float64) * learning_rate)


def _reference_train(matrix, config) -> GBTModel:
    X, y = matrix.rows, matrix.labels.astype(np.float64)
    n = X.shape[0]
    pos = float(y.sum())
    base = float(np.log(pos / (n - pos)))
    raw = np.full(n, base)
    rng = np.random.default_rng(config.seed)
    n_sub = int(np.floor(config.subsample * n))
    trees = []
    for _ in range(config.n_trees):
        p = 1.0 / (1.0 + np.exp(-np.clip(raw, -MAX_RAW_SCORE, MAX_RAW_SCORE)))
        grad, hess = y - p, p * (1.0 - p)
        if config.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=max(n_sub, 1), replace=False))
        else:
            rows = np.arange(n)
        builder = _ReferenceBuilder(X, grad, hess, config.max_depth, config.min_leaf)
        builder.build(rows)
        trees.append(builder.tree(config.learning_rate))
        raw = raw + trees[-1].predict(X)
    return GBTModel(tuple(trees), base, X.shape[1],
                    descriptor_fingerprint(matrix.descriptors), config)


def _reference_predict_raw(model, rows, n_trees=None):
    out = np.full(rows.shape[0], model.base_score)
    for tree in model.trees if n_trees is None else model.trees[:n_trees]:
        out = out + tree.predict(rows)
    return out


def _awkward_columns(n, seed):
    """Columns that stress ties, missing values and degenerate splits."""
    rng = np.random.default_rng(seed)
    some_nan = rng.normal(size=n)
    some_nan[rng.random(n) < 0.3] = np.nan
    int_nan = rng.integers(0, 3, size=n).astype(np.float64)
    int_nan[rng.random(n) < 0.2] = np.nan
    one_present = np.full(n, np.nan)
    one_present[n // 3] = 1.5
    ties = rng.integers(0, 4, size=n).astype(np.float64)
    return np.column_stack([
        rng.normal(size=n),
        ties,
        rng.choice([-0.0, 0.0, 1.0], size=n),  # signed zeros compare equal
        np.full(n, 3.0),  # constant
        np.full(n, np.nan),  # all missing
        one_present,
        some_nan,
        int_nan,
        -some_nan,  # the same cuts as some_nan, its sums added in reverse
        # some_nan's candidates again, its missing rows summed in sorted order
        np.where(np.isnan(some_nan), 99.0, some_nan),
        np.where(np.isnan(some_nan), -99.0, some_nan),
        ties,  # a duplicate: the first column wins
        # adjacent floats: the midpoint rounds down to the lower value, so
        # that cut sends every present row right
        rng.choice([1.0, np.nextafter(1.0, 2.0)], size=n),
    ])


def _awkward_matrix(n=150, seed=0, columns=None):
    X = _awkward_columns(n, seed)
    signal = np.nan_to_num(X[:, 0]) + X[:, 1] - 1.5 + np.where(np.isnan(X[:, 6]), 1.0, 0.0)
    y = (signal + np.random.default_rng(seed + 1).normal(size=n) > 0).astype(int)
    return matrix_from(X if columns is None else X[:, columns], y)


def _queries(matrix, seed=9):
    rng = np.random.default_rng(seed)
    extra = _awkward_columns(40, seed)[:, :matrix.d] if matrix.d > 1 else rng.normal(size=(40, 1))
    extra[rng.random(extra.shape) < 0.2] = np.nan
    return np.vstack([matrix.rows, extra])


def _assert_same_model(model, reference, rows):
    """Same model file, and the same predictions on rows and on rows that
    hold a split's threshold exactly."""
    assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(reference))
    at_threshold = []
    for tree in model.trees:
        for f, t in zip(tree.feature, tree.threshold):
            if f >= 0:
                at_threshold.append(rows[0].copy())
                at_threshold[-1][f] = t
    rows = np.vstack([rows, *at_threshold])
    assert np.array_equal(predict_raw(model, rows), _reference_predict_raw(reference, rows))


def _tied_matrix(columns):
    """Balanced labels, so that the first tree's residuals are exactly ±0.5
    and equal scores tie exactly. Column a's cuts 0|1 and 1|2 score alike,
    b duplicates a, and c (missing where a is 1) scores alike with its
    missing rows sent either way."""
    y = np.repeat([1, 0, 1, 0, 1, 0], [5, 1, 2, 10, 5, 1])
    a = np.repeat([0.0, 1.0, 2.0], [6, 12, 6])
    named = {"a": a, "b": a, "c": np.where(a == 1.0, np.nan, a / 2.0)}
    return matrix_from(np.column_stack([named[k] for k in columns]), y)


@pytest.mark.parametrize("columns", ["abc", "cab"])
@pytest.mark.parametrize("split_cells", [None, 24])
def test_gbt_exact_ties_pick_the_first_candidate(columns, split_cells, monkeypatch):
    """The first of equal candidates wins: column, then missing values sent
    left, then the lowest cut; also when columns are scored in blocks."""
    if split_cells is not None:
        monkeypatch.setattr(model_module, "_SPLIT_CELLS", split_cells)
    matrix = _tied_matrix(columns)
    config = GBTConfig(n_trees=2, max_depth=2, min_leaf=1)
    model = train_gbt(matrix, config)
    root = model.trees[0]
    assert (root.feature[0], root.threshold[0], root.default_left[0]) == (0, 0.5, True)
    _assert_same_model(model, _reference_train(matrix, config), _queries(matrix))


@pytest.mark.parametrize("config", [
    GBTConfig(n_trees=12, max_depth=3, min_leaf=5),
    GBTConfig(n_trees=12, max_depth=4, min_leaf=3, subsample=0.7, seed=5),
    GBTConfig(n_trees=8, max_depth=3, min_leaf=1),
    GBTConfig(n_trees=8, max_depth=2, min_leaf=7, learning_rate=0.5),
    # long enough that later trees repeat, and differ from, earlier split paths
    GBTConfig(n_trees=40, max_depth=3, min_leaf=3),
    GBTConfig(n_trees=40, max_depth=3, min_leaf=3, subsample=0.7, seed=2),
])
def test_gbt_bit_identical_to_reference_loop(config):
    matrix = _awkward_matrix()
    model = train_gbt(matrix, config)
    _assert_same_model(model, _reference_train(matrix, config), _queries(matrix))


@pytest.mark.parametrize("subsample", [1.0, 0.7])
def test_gbt_reuses_node_structure_only_on_the_same_rows(subsample, monkeypatch):
    """A tree grown on the previous tree's rows builds the candidates of a
    split path they share once; a tree on other rows builds all of its own."""
    counts = {"searches": 0, "built": 0}

    def counting(name, key):
        method = getattr(model_module._TreeBuilder, name)

        def wrapper(self, *args):
            counts[key] += 1
            return method(self, *args)
        monkeypatch.setattr(model_module._TreeBuilder, name, wrapper)

    counting("_best_split", "searches")
    counting("_candidates", "built")
    matrix = _awkward_matrix()
    config = GBTConfig(n_trees=20, max_depth=3, min_leaf=3, subsample=subsample, seed=2)
    model = train_gbt(matrix, config)
    assert counts["searches"] > config.n_trees
    if subsample == 1.0:
        assert counts["built"] < counts["searches"]
    else:
        assert counts["built"] == counts["searches"]
    monkeypatch.undo()
    _assert_same_model(model, _reference_train(matrix, config), _queries(matrix))


@pytest.mark.parametrize("column", [0, 1, 2, 6, 12])
def test_gbt_bit_identical_to_reference_loop_one_column(column):
    matrix = _awkward_matrix(n=90, seed=2, columns=[column])
    config = GBTConfig(n_trees=6, max_depth=3, min_leaf=2, subsample=0.8, seed=1)
    model = train_gbt(matrix, config)
    _assert_same_model(model, _reference_train(matrix, config), _queries(matrix))


def test_gbt_bit_identical_to_reference_loop_across_column_blocks(monkeypatch):
    """Columns scored in several numpy passes pick the same splits."""
    matrix = _awkward_matrix(n=120, seed=4)
    config = GBTConfig(n_trees=5, max_depth=3, min_leaf=2)
    monkeypatch.setattr(model_module, "_SPLIT_CELLS", 3 * 120)
    model = train_gbt(matrix, config)
    _assert_same_model(model, _reference_train(matrix, config), _queries(matrix))


def _leaf_tree(value):
    return Tree(np.array([-1], dtype=np.int32), np.zeros(1), np.array([-1], dtype=np.int32),
                np.array([-1], dtype=np.int32), np.array([True]), np.array([value]))


def test_predict_raw_matches_tree_by_tree_sum_at_block_edges():
    matrix = _awkward_matrix(seed=3)
    trained = train_gbt(matrix, GBTConfig(n_trees=7, max_depth=3, min_leaf=2))
    # a root-leaf tree between trees of different sizes
    model = GBTModel(trained.trees[:3] + (_leaf_tree(0.125),) + trained.trees[3:],
                     trained.base_score, trained.n_features, "x")
    queries = _queries(matrix)
    pool = np.tile(queries, (model_module._WALK_CELLS // len(queries) + 1, 1))
    for n_trees in range(len(model.trees) + 1):
        block = model_module._WALK_CELLS // max(n_trees, 1)
        for n in (0, 1, block - 1, block, block + 1):
            rows = pool[:n]
            assert np.array_equal(predict_raw(model, rows, n_trees=n_trees),
                                  _reference_predict_raw(model, rows, n_trees))
    empty = GBTModel(trees=(), base_score=-0.25, n_features=matrix.d, descriptors_fingerprint="x")
    for n in (0, 1, model_module._WALK_CELLS + 1):
        assert np.array_equal(predict_raw(empty, pool[:n]), np.full(n, -0.25))


def test_predict_raw_memory_does_not_grow_with_call_size():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(400, 6))
    X[rng.random(X.shape) < 0.1] = np.nan
    y = (np.nan_to_num(X[:, 0]) + rng.normal(size=400) > 0).astype(int)
    model = train_gbt(matrix_from(X, y), GBTConfig(n_trees=60, max_depth=3, min_leaf=5))
    rows = rng.normal(size=(65536, 6))
    tracemalloc.start()
    try:
        predict_raw(model, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # the 0.5 MiB result and one block's scratch
