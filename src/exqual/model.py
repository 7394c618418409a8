"""Binary outcome classifiers over feature matrices.

Two models: a from-scratch gradient-boosted tree ensemble (the black box
under explanation — native missing-value routing, logistic loss) and an
L2-regularized logistic linear model used as a white-box oracle when
validating explainers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .encoding import FeatureDescriptor, FeatureMatrix
from .errors import (
    DegenerateMatrix,
    EmptyMatrix,
    InvalidSpec,
    NonConvergence,
    SingleClass,
    WidthMismatch,
    read_json,
    write_json,
)

LEAF_REG = 1.0  # L2 term on leaf weights (Newton denominator)
MAX_LEAF_VALUE = 10.0
MAX_RAW_SCORE = 30.0  # keeps logistic(raw) strictly inside (0, 1)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -MAX_RAW_SCORE, MAX_RAW_SCORE)))


def descriptor_fingerprint(descriptors: tuple[FeatureDescriptor, ...]) -> str:
    doc = json.dumps([d.to_dict() for d in descriptors], sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GBTConfig:
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 5
    subsample: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise InvalidSpec(f"bad tree counts in {self}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise InvalidSpec(f"learning_rate must be in (0,1], got {self.learning_rate}")
        if not (0.0 < self.subsample <= 1.0):
            raise InvalidSpec(f"subsample must be in (0,1], got {self.subsample}")

    def to_dict(self) -> dict:
        return {"n_trees": self.n_trees, "max_depth": self.max_depth,
                "learning_rate": self.learning_rate, "min_leaf": self.min_leaf,
                "subsample": self.subsample, "seed": self.seed}


# Tree array -> (dtype, accepted JSON element types, matched exactly)
_TREE_ARRAYS = {
    "feature": (np.int32, (int,)),
    "threshold": (np.float64, (int, float)),
    "left": (np.int32, (int,)),
    "right": (np.int32, (int,)),
    "default_left": (bool, (bool,)),
    "value": (np.float64, (int, float)),
}


@dataclass(frozen=True)
class Tree:
    """Flat regression tree. feature[i] == -1 marks a leaf (value[i] is its
    log-odds increment, learning rate folded in); internal nodes route
    row[feature] < threshold to left[i], else right[i]; missing values go
    to the side default_left[i] says."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    default_left: np.ndarray  # bool
    value: np.ndarray  # float64

    def predict(self, rows: np.ndarray) -> np.ndarray:
        n = rows.shape[0]
        node = np.zeros(n, dtype=np.int32)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.nonzero(active)[0]
            nd = node[idx]
            feat = self.feature[nd]
            vals = rows[idx, feat]
            missing = np.isnan(vals)
            with np.errstate(invalid="ignore"):
                go_left = np.where(missing, self.default_left[nd], vals < self.threshold[nd])
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active[idx] = self.feature[node[idx]] >= 0
        return self.value[node]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": [float(t) for t in self.threshold],
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "default_left": [bool(b) for b in self.default_left],
            "value": [float(v) for v in self.value],
        }

    @classmethod
    def from_dict(cls, doc: dict, n_features: int) -> "Tree":
        """The tree stored in doc, once its arrays are checked to describe a
        tree over n_features columns that every row can walk to a leaf."""
        arrays = {}
        for key, (dtype, types) in _TREE_ARRAYS.items():
            items = doc[key]
            if type(items) is not list or any(type(v) not in types for v in items):
                raise InvalidSpec(f"tree {key!r} must be a list of "
                                  f"{'/'.join(t.__name__ for t in types)}")
            arrays[key] = np.asarray(items, dtype=dtype)
        n_nodes = len(arrays["feature"])
        if n_nodes == 0 or any(len(a) != n_nodes for a in arrays.values()):
            raise InvalidSpec("tree arrays must be non-empty and of equal length")
        tree = cls(**arrays)
        internal = tree.feature >= 0
        if np.any(tree.feature < -1) or np.any(tree.feature >= n_features):
            raise InvalidSpec(f"tree features must be -1 (leaf) or in [0, {n_features})")
        # children come after their parent, as training writes them, so
        # that every walk from the root ends at a leaf
        node = np.arange(n_nodes)[internal]
        for child in (tree.left[internal], tree.right[internal]):
            if np.any(child <= node) or np.any(child >= n_nodes):
                raise InvalidSpec("tree child index outside the node arrays")
        return tree


@dataclass(frozen=True)
class GBTModel:
    trees: tuple[Tree, ...]
    base_score: float  # log-odds
    n_features: int
    descriptors_fingerprint: str
    config: GBTConfig = field(default=GBTConfig(), compare=False)

    @property
    def d(self) -> int:
        return self.n_features


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    intercept: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weights)) and np.isfinite(self.intercept)):
            raise InvalidSpec("linear model parameters must be finite")

    @property
    def d(self) -> int:
        return len(self.weights)


class _TreeBuilder:
    def __init__(self, X, grad, hess, max_depth, min_leaf):
        self.X = X
        self.grad = grad
        self.hess = hess
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.default_left: list[bool] = []
        self.value: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.default_left.append(True)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _leaf_value(self, idx) -> float:
        raw = self.grad[idx].sum() / (self.hess[idx].sum() + LEAF_REG)
        return float(np.clip(raw, -MAX_LEAF_VALUE, MAX_LEAF_VALUE))

    def _best_split(self, idx):
        """Maximize the variance-reduction surrogate Σ_children (Σr)²/n over
        (feature, threshold, missing-direction); returns None when nothing
        beats the parent by more than a tolerance."""
        r = self.grad[idx]
        n = len(idx)
        parent = (r.sum() ** 2) / n
        best = (1e-12, None)  # (gain, (feature, threshold, default_left))
        for j in range(self.X.shape[1]):
            col = self.X[idx, j]
            miss = np.isnan(col)
            n_m = int(miss.sum())
            n_p = n - n_m
            if n_p < 2:
                continue  # nothing to order: all (or all but one) missing
            vals = col[~miss]
            rp = r[~miss]
            order = np.argsort(vals, kind="stable")
            vs = vals[order]
            cum = np.cumsum(rp[order])
            cuts = np.nonzero(np.diff(vs) > 0)[0] + 1  # split after position i
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
        node = self._new_node()
        split = None
        if depth < self.max_depth and len(idx) >= 2 * self.min_leaf:
            split = self._best_split(idx)
        if split is None:
            self.value[node] = self._leaf_value(idx)
            return node
        j, thr, default_left = split
        col = self.X[idx, j]
        miss = np.isnan(col)
        with np.errstate(invalid="ignore"):
            go_left = np.where(miss, default_left, col < thr)
        self.feature[node] = j
        self.threshold[node] = thr
        self.default_left[node] = default_left
        self.left[node] = self.build(idx[go_left], depth + 1)
        self.right[node] = self.build(idx[~go_left], depth + 1)
        return node

    def freeze(self) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            default_left=np.asarray(self.default_left, dtype=bool),
            value=np.asarray(self.value, dtype=np.float64),
        )


def train_gbt(matrix: FeatureMatrix, config: GBTConfig = GBTConfig()) -> GBTModel:
    """Boost regression trees on the logistic loss.

    Per round: residuals y − p and hessians p(1−p) at the current scores,
    greedy variance-reduction splits on the residuals, Newton leaf values
    Σr/(Σh + reg) scaled by the learning rate. Missing values take the
    split direction that scored better during training.
    """
    X, y = matrix.rows, matrix.labels.astype(np.float64)
    n, d = X.shape
    if d == 0 or n < 2:
        raise DegenerateMatrix(f"need n >= 2 and d >= 1, got n={n} d={d}")
    pos = float(y.sum())
    if pos == 0.0 or pos == n:
        raise SingleClass("training labels are all one class")

    base = float(np.log(pos / (n - pos)))
    raw = np.full(n, base)
    rng = np.random.default_rng(config.seed)
    n_sub = int(np.floor(config.subsample * n))
    trees = []
    for _ in range(config.n_trees):
        p = _sigmoid(raw)
        grad = y - p
        hess = p * (1.0 - p)
        if config.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=max(n_sub, 1), replace=False))
        else:
            rows = np.arange(n)
        builder = _TreeBuilder(X, grad, hess, config.max_depth, config.min_leaf)
        builder.build(rows)
        tree = builder.freeze()
        tree = Tree(tree.feature, tree.threshold, tree.left, tree.right,
                    tree.default_left, tree.value * config.learning_rate)
        trees.append(tree)
        raw = raw + tree.predict(X)

    return GBTModel(
        trees=tuple(trees),
        base_score=base,
        n_features=d,
        descriptors_fingerprint=descriptor_fingerprint(matrix.descriptors),
        config=config,
    )


def predict_raw(model: GBTModel, rows: np.ndarray, n_trees: int | None = None) -> np.ndarray:
    """Accumulated log-odds of the first n_trees trees (all by default)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != model.n_features:
        raise WidthMismatch(model.n_features, rows.shape[1])
    out = np.full(rows.shape[0], model.base_score)
    use = model.trees if n_trees is None else model.trees[:n_trees]
    for tree in use:
        out = out + tree.predict(rows)
    return out


def predict_proba_rows(model, rows: np.ndarray) -> np.ndarray:
    """Vectorized predict_proba over a 2-D block of rows."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if isinstance(model, LinearModel):
        if rows.shape[1] != model.d:
            raise WidthMismatch(model.d, rows.shape[1])
        filled = np.where(np.isnan(rows), 0.0, rows)
        return _sigmoid(filled @ model.weights + model.intercept)
    return _sigmoid(predict_raw(model, rows))


def routing_differs(model, row: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(n, d) bool: entry (i, j) is True when some split on feature j, in any
    tree and reached or not, sends row and rows[i] to different sides
    (missing values follow default_left). Where it is False, swapping
    rows[i, j] for row[j] in any composite changes no leaf, so no
    prediction. For a model other than a GBTModel, or any callable, every
    entry is True."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    row = np.asarray(row, dtype=np.float64)
    d = row.shape[0]
    if not isinstance(model, GBTModel):
        return np.ones((rows.shape[0], d), dtype=bool)
    for width in (d, rows.shape[1]):
        if width != model.n_features:
            raise WidthMismatch(model.n_features, width)
    internal = [t.feature >= 0 for t in model.trees]
    feature = np.concatenate([t.feature[i] for t, i in zip(model.trees, internal)])
    threshold = np.concatenate([t.threshold[i] for t, i in zip(model.trees, internal)])
    default_left = np.concatenate([t.default_left[i] for t, i in zip(model.trees, internal)])

    def go_left(vals):
        with np.errstate(invalid="ignore"):
            return np.where(np.isnan(vals), default_left, vals < threshold)

    split_differs = go_left(rows[:, feature]) != go_left(row[feature])  # (n, n_splits)
    on_feature = feature[:, None] == np.arange(d)[None, :]  # (n_splits, d)
    return (split_differs.astype(np.int64) @ on_feature) > 0


def predict_proba(model, row: np.ndarray) -> float:
    """Probability of the positive class for one feature vector, in (0, 1)."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise InvalidSpec("predict_proba takes one row; use predict_proba_rows for blocks")
    return float(predict_proba_rows(model, row[None, :])[0])


def evaluate_accuracy(model, matrix: FeatureMatrix, threshold: float = 0.5) -> float:
    if matrix.n == 0:
        raise EmptyMatrix("cannot score an empty matrix")
    p = predict_proba_rows(model, matrix.rows)
    predicted = (p >= threshold).astype(np.int8)
    return float((predicted == matrix.labels).mean())


def train_logistic(matrix: FeatureMatrix, l2: float = 1e-6, seed: int = 0,
                   tol: float = 1e-8, max_iter: int = 200_000) -> LinearModel:
    """L2-regularized logistic regression (intercept unpenalized), fit with
    deterministic accelerated batch proximal gradient descent until the
    mean-loss gradient's infinity norm drops below tol.

    Missing cells are mean-imputed per column for this model only. The seed
    is accepted for interface uniformity; the zero-initialized batch fit
    does not consume randomness.
    """
    del seed
    X, y = matrix.rows, matrix.labels.astype(np.float64)
    n, d = X.shape
    if l2 < 0.0:
        raise InvalidSpec(f"l2 must be non-negative, got {l2}")
    pos = float(y.sum())
    if pos == 0.0 or pos == n:
        raise SingleClass("training labels are all one class")

    col_mean = np.zeros(d)
    for j in range(d):
        col = X[:, j]
        present = col[~np.isnan(col)]
        if present.size:
            col_mean[j] = float(present.mean())
    Xf = np.where(np.isnan(X), col_mean, X)

    aug = np.hstack([Xf, np.ones((n, 1))])
    lam = float(np.linalg.eigvalsh(aug.T @ aug / n)[-1])
    step = 1.0 / (0.25 * lam)  # Lipschitz bound of the smooth (data) term

    def smooth_grad(wb):
        p = _sigmoid(aug @ wb)
        return aug.T @ (p - y) / n

    # Accelerated proximal gradient: the L2 penalty is applied exactly via
    # its closed-form shrinkage step (intercept left unshrunk), so the step
    # size is independent of l2. Momentum restarts on overshoot.
    shrink = np.full(d + 1, 1.0 + step * l2)
    shrink[d] = 1.0
    wb = np.zeros(d + 1)
    prev = wb.copy()
    momentum = 0
    g_norm = np.inf
    for t in range(1, max_iter + 1):
        look = wb + (momentum / (momentum + 3)) * (wb - prev)
        g = smooth_grad(look)
        prev, wb = wb, (look - step * g) / shrink
        momentum = 0 if float(g @ (wb - prev)) > 0.0 else momentum + 1
        if t % 20 == 0 or t == max_iter:
            full = smooth_grad(wb)
            full[:d] += l2 * wb[:d]
            g_norm = float(np.abs(full).max())
            if g_norm < tol:
                return LinearModel(weights=wb[:d].copy(), intercept=float(wb[d]))
    raise NonConvergence(max_iter, g_norm)


def model_to_dict(model) -> dict:
    if isinstance(model, LinearModel):
        return {
            "format_version": 1,
            "kind": "linear",
            "weights": [float(w) for w in model.weights],
            "intercept": float(model.intercept),
        }
    return {
        "format_version": 1,
        "kind": "gbt",
        "base_score": float(model.base_score),
        "n_features": int(model.n_features),
        "descriptors_fingerprint": model.descriptors_fingerprint,
        "config": model.config.to_dict(),
        "trees": [t.to_dict() for t in model.trees],
    }


def model_from_dict(doc: dict):
    kind = doc.get("kind")
    if kind == "linear":
        return LinearModel(weights=np.asarray(doc["weights"], dtype=np.float64),
                           intercept=float(doc["intercept"]))
    if kind == "gbt":
        n_features = int(doc["n_features"])
        return GBTModel(
            trees=tuple(Tree.from_dict(t, n_features) for t in doc["trees"]),
            base_score=float(doc["base_score"]),
            n_features=n_features,
            descriptors_fingerprint=doc["descriptors_fingerprint"],
            config=GBTConfig(**doc["config"]),
        )
    raise InvalidSpec(f"unknown model kind {kind!r}")


def write_model(model, path: str) -> None:
    write_json(path, model_to_dict(model))


def read_model(path: str):
    return read_json(path, "model", model_from_dict)
