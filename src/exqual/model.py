"""Binary outcome classifiers over feature matrices.

Two models: a from-scratch gradient-boosted tree ensemble (the black box
under explanation — native missing-value routing, logistic loss) and an
L2-regularized logistic linear model used as a white-box oracle when
validating explainers.

The ensemble's two hot loops avoid per-column and per-tree numpy calls
without changing a single bit of a tree or a prediction:

- Training sorts every column once per model (`train_gbt`) and scores all
  columns of a node in one pass over its presorted segments
  (`_TreeBuilder`), in the manner of XGBoost's exact greedy column blocks
  (Chen & Guestrin, KDD 2016, section 4.1).
- Prediction walks all trees of the packed ensemble one level per step
  over blocks of rows (`predict_raw`).
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
    check_options,
    read_json,
    write_json,
)

LEAF_REG = 1.0  # L2 term on leaf weights (Newton denominator)
MAX_LEAF_VALUE = 10.0
MAX_RAW_SCORE = 30.0  # keeps logistic(raw) strictly inside (0, 1)
_SPLIT_CELLS = 1 << 15  # columns x rows of a node scored per numpy pass
_WALK_CELLS = 16384  # rows x trees walked per block by predict_raw

# option name -> accepted JSON value types, checked exactly by check_options.
# GBTConfig options other than the seed, which an experiment config or the
# CLI's --seed supplies; a model file records the seed too.
_NUMBER = (int, float)
MODEL_OPTIONS = {"n_trees": (int,), "max_depth": (int,), "learning_rate": _NUMBER,
                 "min_leaf": (int,), "subsample": _NUMBER}
_GBT_FILE = {"format_version": (int,), "kind": (str,), "base_score": _NUMBER,
             "n_features": (int,), "descriptors_fingerprint": (str,),
             "config": (dict,), "trees": (list,)}
_LINEAR_FILE = {"format_version": (int,), "kind": (str,), "weights": (list,),
                "intercept": _NUMBER}


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
    "threshold": (np.float64, _NUMBER),
    "left": (np.int32, (int,)),
    "right": (np.int32, (int,)),
    "default_left": (bool, (bool,)),
    "value": (np.float64, _NUMBER),
}


def _typed_array(items, dtype, types: tuple, what: str) -> np.ndarray:
    """items as a dtype array, once it is a JSON list whose elements all
    have one of the given types exactly (so that true is not taken for 1)."""
    if type(items) is not list or any(type(v) not in types for v in items):
        raise InvalidSpec(f"{what} must be a list of "
                          f"{'/'.join(t.__name__ for t in types)}")
    return np.asarray(items, dtype=dtype)


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
        arrays = {key: _typed_array(doc[key], dtype, types, f"tree {key!r}")
                  for key, (dtype, types) in _TREE_ARRAYS.items()}
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
class _PackedTrees:
    """An ensemble's trees in padded (n_trees, max_nodes) arrays, for walking
    all trees at once. Padding nodes and leaves have feature -1 and point
    left and right to themselves, so a walk that reaches one stays there;
    left and right hold flat indices into the raveled arrays. depth is the
    number of steps that brings every row to a leaf in every tree."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # intp
    right: np.ndarray  # intp
    default_left: np.ndarray  # bool
    value: np.ndarray  # float64
    depth: int

    @classmethod
    def of(cls, trees: tuple[Tree, ...]) -> "_PackedTrees":
        shape = (len(trees), max((len(t.feature) for t in trees), default=1))
        flat = np.arange(shape[0] * shape[1]).reshape(shape)
        packed = {"feature": np.full(shape, -1, dtype=np.int32),
                  "threshold": np.zeros(shape), "left": flat.copy(),
                  "right": flat.copy(), "default_left": np.ones(shape, dtype=bool),
                  "value": np.zeros(shape)}
        for t, tree in enumerate(trees):
            size = len(tree.feature)
            internal = tree.feature >= 0
            for key in ("feature", "threshold", "default_left", "value"):
                packed[key][t, :size] = getattr(tree, key)
            for key in ("left", "right"):
                packed[key][t, :size][internal] = flat[t, getattr(tree, key)[internal]]
        # every child index exceeds its parent's (Tree.from_dict checks it and
        # training writes trees so), so this descent ends
        depth, frontier = 0, flat[:, 0]
        feature = packed["feature"].ravel()
        while True:
            frontier = frontier[feature[frontier] >= 0]
            if frontier.size == 0:
                break
            frontier = np.concatenate([packed["left"].ravel()[frontier],
                                       packed["right"].ravel()[frontier]])
            depth += 1
        return cls(**packed, depth=depth)


@dataclass(frozen=True)
class GBTModel:
    trees: tuple[Tree, ...]
    base_score: float  # log-odds
    n_features: int
    descriptors_fingerprint: str
    config: GBTConfig = field(default=GBTConfig(), compare=False)
    packed: _PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "packed", _PackedTrees.of(self.trees))

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


def _column_blocks(n_cols: int, n: int) -> list[slice]:
    """Slices of n_cols columns of n rows, each of at most _SPLIT_CELLS cells
    (or one column): they bound the scratch memory of a node's pass."""
    step = max(1, _SPLIT_CELLS // n)
    return [slice(c, min(c + step, n_cols)) for c in range(0, n_cols, step)]


class _TreeBuilder:
    """Grows one regression tree on the residuals grad of a block of rows.

    order is the tree's (d + 1, n_rows) int32 block of row ids: row j < d
    lists the rows sorted by column j, stably and NaN last, so that equal
    values and NaNs keep ascending row ids; row d lists them ascending. A
    node owns the segment [lo, hi) of every row of order, and splitting it
    stably partitions each segment in place, left child first. A node's
    rows therefore stay ascending, and each column segment lists them in
    the order a stable sort of just those rows would give: every sum below
    adds the same floats in the same order as sorting each column afresh at
    every node.
    """

    def __init__(self, XT, grad, hess, order, max_depth, min_leaf):
        self.XT = XT  # (d, n) training rows, column by column
        self.grad = grad
        self.hess = hess
        self.order = order
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.goes_left = np.zeros(XT.shape[1], dtype=bool)  # by row id, at one split
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

    def _best_split(self, lo, hi, idx):
        """Maximize the variance-reduction surrogate Σ_children (Σr)²/n over
        (feature, threshold, missing-direction); returns None when nothing
        beats the parent by more than a tolerance.

        A column is cut where its sorted present values rise. Each column
        and missing direction (default left before right) keeps its first
        best-scoring cut, and the first of those candidates, column by
        column, with the highest gain wins: the order of a loop over
        columns, directions and cuts that keeps only strict improvements."""
        r = self.grad[idx]
        n = hi - lo
        parent = (r.sum() ** 2) / n
        best = (1e-12, None)  # (gain, (feature, threshold, default_left))
        for cols in _column_blocks(self.XT.shape[0], n):
            seg = self.order[cols, lo:hi]
            vals = np.take_along_axis(self.XT[cols], seg, axis=1)
            # cut after pos, where the sorted values rise (NaN never does)
            col, pos = np.nonzero(vals[:, 1:] > vals[:, :-1])
            if col.size == 0:
                continue
            starts = np.flatnonzero(np.diff(col, prepend=-1))
            cut_cols = col[starts]
            n_m = np.isnan(vals).sum(axis=1)  # NaNs sit at the end
            n_p = n - n_m
            res = self.grad[seg]
            s_m = np.zeros(len(seg))
            missing = cut_cols[n_m[cut_cols] > 0]
            for count in np.unique(n_m[missing]):
                # the residuals of the missing rows, in row order
                same = missing[n_m[missing] == count]
                s_m[same] = res[same, n - count:].sum(axis=1)
            cum = np.cumsum(res, axis=1, out=res)

            n_l = (pos + 1).astype(np.float64)
            n_r = n_p[col] - n_l
            s_l = cum[col, pos]
            s_r = cum[col, n_p[col] - 1] - s_l
            m, sm = n_m[col], s_m[col]
            score = np.empty((2, col.size))  # default left, default right
            score[0] = (s_l + sm) ** 2 / (n_l + m) + np.where(
                n_r > 0, s_r ** 2 / np.maximum(n_r, 1), 0.0)
            score[1] = s_l ** 2 / np.maximum(n_l, 1) + (s_r + sm) ** 2 / (n_r + m)
            score[0][~(((n_l + m) >= self.min_leaf) & (n_r >= self.min_leaf))] = -np.inf
            score[1][~((n_l >= self.min_leaf) & ((n_r + m) >= self.min_leaf)
                       & (m > 0))] = -np.inf

            gain = np.maximum.reduceat(score, starts, axis=1) - parent  # (2, cols)
            q = int(np.argmax(gain.T))
            if gain.T.flat[q] > best[0]:
                c, side = divmod(q, 2)
                first, last = starts[c], np.append(starts, col.size)[c + 1]
                k = first + int(np.argmax(score[side, first:last]))
                j, p = cut_cols[c], pos[k]
                threshold = float((vals[j, p] + vals[j, p + 1]) / 2.0)
                best = (gain.T.flat[q], (cols.start + int(j), threshold, side == 0))
        return best[1]

    def _partition(self, lo, mid, hi, idx, go_left, columns: bool) -> None:
        """Stably partition the node's segment of row ids, and of every
        column when columns is set, so that [lo, mid) holds the rows going
        left."""
        if columns:
            self.goes_left[idx] = go_left
            for rows in _column_blocks(self.XT.shape[0], hi - lo):
                seg = self.order[rows, lo:hi]
                left = self.goes_left[seg]
                k = len(seg)
                go, stay = seg[left].reshape(k, mid - lo), seg[~left].reshape(k, hi - mid)
                self.order[rows, lo:mid] = go
                self.order[rows, mid:hi] = stay
        self.order[-1, lo:mid], self.order[-1, mid:hi] = idx[go_left], idx[~go_left]

    def build(self, lo, hi, depth=0) -> int:
        node = self._new_node()
        idx = self.order[-1, lo:hi]
        split = None
        if depth < self.max_depth and hi - lo >= 2 * self.min_leaf:
            split = self._best_split(lo, hi, idx)
        if split is None:
            self.value[node] = self._leaf_value(idx)
            return node
        j, thr, default_left = split
        col = self.XT[j, idx]
        with np.errstate(invalid="ignore"):
            go_left = np.where(np.isnan(col), default_left, col < thr)
        mid = lo + int(np.count_nonzero(go_left))
        # a leaf reads only its row ids: columns are partitioned only for
        # children that may split
        may_split = (depth + 1 < self.max_depth
                     and max(mid - lo, hi - mid) >= 2 * self.min_leaf)
        self._partition(lo, mid, hi, idx, go_left, may_split)
        self.feature[node] = j
        self.threshold[node] = thr
        self.default_left[node] = default_left
        self.left[node] = self.build(lo, mid, depth + 1)
        self.right[node] = self.build(mid, hi, depth + 1)
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

    Each column is stable-argsorted once (NaN last); every tree starts from
    that order, filtered to its subsample, and `_TreeBuilder` partitions it
    node by node without sorting again.
    """
    X, y = matrix.rows, matrix.labels.astype(np.float64)
    n, d = X.shape
    if d == 0 or n < 2:
        raise DegenerateMatrix(f"need n >= 2 and d >= 1, got n={n} d={d}")
    pos = float(y.sum())
    if pos == 0.0 or pos == n:
        raise SingleClass("training labels are all one class")

    XT = np.ascontiguousarray(X.T)
    presorted = np.empty((d + 1, n), dtype=np.int32)
    presorted[:d] = np.argsort(XT, axis=1, kind="stable")
    presorted[d] = np.arange(n)

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
            sampled = np.zeros(n, dtype=bool)
            sampled[rows] = True
            order = presorted[sampled[presorted]].reshape(d + 1, len(rows))
        else:
            order = presorted.copy()
        builder = _TreeBuilder(XT, grad, hess, order, config.max_depth, config.min_leaf)
        builder.build(0, order.shape[1])
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
    """Accumulated log-odds of the first n_trees trees (all by default).

    Walks every tree at once, one level per step, over blocks of at most
    _WALK_CELLS rows x trees, then adds the leaf values tree by tree to
    base_score with a sequential cumsum: the same floats in the same order
    as summing one tree's predictions after another."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != model.n_features:
        raise WidthMismatch(model.n_features, rows.shape[1])
    packed = model.packed
    n_used = packed.feature[:n_trees].shape[0]
    out = np.full(rows.shape[0], model.base_score)
    if n_used == 0:
        return out
    feature, threshold = packed.feature.ravel(), packed.threshold.ravel()
    left, right = packed.left.ravel(), packed.right.ravel()
    default_left, value = packed.default_left.ravel(), packed.value.ravel()
    roots = np.arange(n_used)[:, None] * packed.feature.shape[1]  # flat node 0s
    step = max(1, _WALK_CELLS // n_used)
    for lo in range(0, rows.shape[0], step):
        block = rows[lo:lo + step]
        at = np.arange(len(block))[None, :]
        node = np.broadcast_to(roots, (n_used, len(block)))
        for _ in range(packed.depth):
            # a leaf (feature -1) reads the last column and stays put
            vals = block[at, feature[node]]
            with np.errstate(invalid="ignore"):
                go_left = np.where(np.isnan(vals), default_left[node],
                                   vals < threshold[node])
            node = np.where(go_left, left[node], right[node])
        terms = np.empty((n_used + 1, len(block)))
        terms[0] = model.base_score
        terms[1:] = value[node]
        out[lo:lo + step] = np.cumsum(terms, axis=0)[-1]
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
    packed = model.packed
    internal = packed.feature >= 0
    feature = packed.feature[internal]
    threshold = packed.threshold[internal]
    default_left = packed.default_left[internal]

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
    """The model stored in doc, once every field has its exact JSON type."""
    kind = doc.get("kind")
    if kind == "linear":
        check_options(doc, _LINEAR_FILE, "model")
        return LinearModel(weights=_typed_array(doc["weights"], np.float64, _NUMBER,
                                                "linear 'weights'"),
                           intercept=float(doc["intercept"]))
    if kind == "gbt":
        check_options(doc, _GBT_FILE, "model")
        config = check_options(doc["config"], {**MODEL_OPTIONS, "seed": (int,)},
                               "model config")
        n_features = doc["n_features"]
        return GBTModel(
            trees=tuple(Tree.from_dict(t, n_features) for t in doc["trees"]),
            base_score=float(doc["base_score"]),
            n_features=n_features,
            descriptors_fingerprint=doc["descriptors_fingerprint"],
            config=GBTConfig(**config),
        )
    raise InvalidSpec(f"unknown model kind {kind!r}")


def write_model(model, path: str) -> None:
    write_json(path, model_to_dict(model))


def read_model(path: str):
    return read_json(path, "model", model_from_dict)
