"""The binary outcome classifier over feature matrices: a from-scratch
gradient-boosted tree ensemble, the black box under explanation, with
native missing-value routing and logistic loss.

Its two hot loops avoid per-column and per-tree numpy calls without
changing a single bit of a tree or a prediction:

- Training sorts every column once per model (`train_gbt`) and scores all
  columns of a node in one pass over its presorted segments
  (`_TreeBuilder`), in the manner of XGBoost's exact greedy column blocks
  (Chen & Guestrin, KDD 2016, section 4.1). What a node's split search
  needs that does not depend on the residuals (each column's sorted rows
  and cut positions, missing counts, `min_leaf` masks) depends only on the
  node's rows. Each tree keeps it in a node structure (`_Node`) that the
  next tree grown on the same rows starts from: where that tree repeats a
  split, the child's search only gathers residuals, sums and scores.
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
    NUMBER,
    DegenerateMatrix,
    EmptyMatrix,
    InvalidSpec,
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
MODEL_OPTIONS = {"n_trees": (int,), "max_depth": (int,), "learning_rate": NUMBER,
                 "min_leaf": (int,), "subsample": NUMBER}
_GBT_FILE = {"format_version": (int,), "kind": (str,), "base_score": NUMBER,
             "n_features": (int,), "descriptors_fingerprint": (str,),
             "config": (dict,), "trees": (list,)}


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
    "threshold": (np.float64, NUMBER),
    "left": (np.int32, (int,)),
    "right": (np.int32, (int,)),
    "default_left": (bool, (bool,)),
    "value": (np.float64, NUMBER),
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


def _column_blocks(n_cols: int, n: int) -> list[slice]:
    """Slices of n_cols columns of n rows, each of at most _SPLIT_CELLS cells
    (or one column): they bound the scratch memory of a node's pass."""
    step = max(1, _SPLIT_CELLS // n)
    return [slice(c, min(c + step, n_cols)) for c in range(0, n_cols, step)]


class _Node:
    """A node of the tree being grown, kept afterwards as the memo of the
    next tree, which grows on the same rows.

    idx lists the node's row ids ascending (int32). A node that searches
    for a split also holds seg, the (d, n) int32 block whose row j lists
    its rows sorted by column j, stably and NaN last, and blocks, its
    residual-free split candidates (`_Candidates`, one per column block).
    split is the split last chosen here and left and right the children it
    led to. All of this depends only on the node's rows, so a tree that
    picks the same split reuses the children as they are."""

    __slots__ = ("idx", "seg", "blocks", "split", "left", "right")

    def __init__(self, idx, seg=None):
        self.idx = idx
        self.seg = seg
        self.blocks = None
        self.split = self.left = self.right = None


@dataclass(frozen=True)
class _Candidates:
    """The cuts of a node's columns cols where their sorted present values
    rise, column by column, as flat indices into a (len(cols), n) array:
    the cut after sorted position p of block column j is at j * n + p, and
    at_last holds its column's last present position. col is that j;
    starts[c] is the first cut of cut_cols[c], the c-th column with any.
    counts holds, per cut, the present rows left and right of it, and the
    same plus the column's missing rows; all are >= 1. refused[side] marks
    the cuts whose children would hold fewer than min_leaf rows, with the
    missing rows sent left (side 0) or right (side 1). missing pairs each
    NaN count with the block columns that have it."""

    cols: slice
    at_cut: np.ndarray  # int32, as are at_last, col and counts
    at_last: np.ndarray
    col: np.ndarray
    starts: np.ndarray
    cut_cols: np.ndarray
    counts: np.ndarray  # (4, cuts): left, right, left + missing, right + missing
    refused: np.ndarray  # (2, cuts) bool
    missing: tuple  # ((count, block columns), ...)


class _TreeBuilder:
    """Grows one regression tree on the residuals grad of the rows of a
    root `_Node`, and leaves the node structure behind as the next tree's
    memo.

    A searched node scores every column over its seg, so every sum below
    adds the same floats in the same order as sorting each column afresh at
    every node. Where the node already holds its candidates (built while
    growing an earlier tree on the same rows), only the residual-dependent
    work runs. A child of a split that differs from the memo's stably
    partitions its parent's seg instead, left child first, which keeps that
    order.
    """

    def __init__(self, XT, grad, hess, max_depth, min_leaf):
        self.XT = XT  # (d, n) training rows, column by column
        self.grad = grad
        self.hess = hess
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.goes_left = np.zeros(XT.shape[1], dtype=bool)  # by row id, at one split
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.default_left: list[bool] = []
        self.value: list[float] = []
        self.leaves: list[tuple[int, np.ndarray]] = []  # (tree node, row ids)

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.default_left.append(True)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _leaf_value(self, idx) -> float:
        raw = self.grad.take(idx).sum() / (self.hess.take(idx).sum() + LEAF_REG)
        return float(np.clip(raw, -MAX_LEAF_VALUE, MAX_LEAF_VALUE))

    def _candidates(self, node: _Node) -> list[_Candidates]:
        """The node's split candidates, column block by column block; a
        block without a cut has none."""
        n = len(node.idx)
        width = self.XT.shape[1]
        blocks = []
        for cols in _column_blocks(self.XT.shape[0], n):
            seg = node.seg[cols]
            at = seg + (np.arange(len(seg)) * width)[:, None]  # into XT[cols].ravel()
            vals = self.XT[cols].ravel().take(at)
            # cut after pos, where the sorted values rise (NaN never does)
            col, pos = np.nonzero(vals[:, 1:] > vals[:, :-1])
            if col.size == 0:
                continue
            starts = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
            cut_cols = col[starts]
            n_m = np.isnan(vals).sum(axis=1)  # NaNs sit at the end
            n_p = n - n_m
            missing = cut_cols[n_m[cut_cols] > 0]
            m = n_m[col]
            counts = np.empty((4, col.size), dtype=np.int32)
            counts[0] = pos + 1
            counts[1] = n_p[col] - counts[0]
            counts[2:] = counts[:2] + m
            n_l, n_r, n_lm, n_rm = counts
            refused = np.empty((2, col.size), dtype=bool)
            refused[0] = ~((n_lm >= self.min_leaf) & (n_r >= self.min_leaf))
            refused[1] = ~((n_l >= self.min_leaf) & (n_rm >= self.min_leaf) & (m > 0))
            blocks.append(_Candidates(
                cols, (col * n + pos).astype(np.int32),
                (col * n + n_p[col] - 1).astype(np.int32), col.astype(np.int32),
                starts, cut_cols, counts, refused,
                tuple((int(count), missing[n_m[missing] == count])
                      for count in np.unique(n_m[missing]))))
        return blocks

    def _best_split(self, node: _Node):
        """Maximize the variance-reduction surrogate Σ_children (Σr)²/n over
        (feature, threshold, missing-direction); returns None when nothing
        beats the parent by more than a tolerance.

        A column is cut where its sorted present values rise. Each column
        and missing direction (default left before right) keeps its first
        best-scoring cut, and the first of those candidates, column by
        column, with the highest gain wins: the order of a loop over
        columns, directions and cuts that keeps only strict improvements."""
        if node.blocks is None:
            node.blocks = self._candidates(node)
        r = self.grad.take(node.idx)
        n = len(node.idx)
        parent = (r.sum() ** 2) / n
        best = (1e-12, None)  # (gain, (feature, threshold, default_left))
        for b in node.blocks:
            seg = node.seg[b.cols]
            res = self.grad.take(seg)
            sm = 0.0  # the residual sum of a cut column's missing rows
            if b.missing:
                s_m = np.zeros(len(seg))
                for count, same in b.missing:
                    # the residuals of the missing rows, in row order
                    s_m[same] = res[same, n - count:].sum(axis=1)
                sm = s_m.take(b.col)
            cum = np.cumsum(res, axis=1, out=res).ravel()

            s_l = cum.take(b.at_cut)
            s_r = cum.take(b.at_last) - s_l
            n_l, n_r, n_lm, n_rm = b.counts
            score = np.empty((2, len(s_l)))  # default left, default right
            score[0] = (s_l + sm) ** 2 / n_lm + s_r ** 2 / n_r
            # without missing rows, sending them right is refused at every cut
            score[1] = s_l ** 2 / n_l + (s_r + sm) ** 2 / n_rm if b.missing else -np.inf
            score[b.refused] = -np.inf

            gain = np.maximum.reduceat(score, b.starts, axis=1) - parent  # (2, cols)
            q = int(np.argmax(gain.T))
            if gain.T.flat[q] > best[0]:
                c, side = divmod(q, 2)
                first, last = b.starts[c], np.append(b.starts, len(s_l))[c + 1]
                k = first + int(np.argmax(score[side, first:last]))
                j = b.cut_cols[c]
                p = b.at_cut[k] - j * n
                feature = b.cols.start + int(j)
                lower, upper = self.XT[feature, seg[j, p:p + 2]]
                best = (gain.T.flat[q], (feature, float((lower + upper) / 2.0), side == 0))
        return best[1]

    def _children(self, node: _Node, split, depth) -> tuple[_Node, _Node]:
        """The nodes of the rows split sends left and right; a child that
        will search gets its seg, a stable partition of the node's."""
        j, thr, default_left = split
        col = self.XT[j, node.idx]
        with np.errstate(invalid="ignore"):
            go_left = np.where(np.isnan(col), default_left, col < thr)
        children = []
        for rows in (node.idx[go_left], node.idx[~go_left]):
            searches = depth + 1 < self.max_depth and len(rows) >= 2 * self.min_leaf
            children.append(_Node(rows, np.empty((self.XT.shape[0], len(rows)), np.int32)
                                  if searches else None))
        left, right = children
        if left.seg is not None or right.seg is not None:
            self.goes_left[node.idx] = go_left
            for cols in _column_blocks(self.XT.shape[0], len(node.idx)):
                seg = node.seg[cols].ravel()
                goes = self.goes_left.take(seg)
                for child, side in ((left, goes), (right, ~goes)):
                    if child.seg is not None:
                        child.seg[cols] = np.compress(side, seg).reshape(-1, len(child.idx))
        return left, right

    def build(self, node: _Node, depth=0) -> int:
        at = self._new_node()
        split = None
        if depth < self.max_depth and len(node.idx) >= 2 * self.min_leaf:
            split = self._best_split(node)
        if split is None:
            node.split = node.left = node.right = None
            self.value[at] = self._leaf_value(node.idx)
            self.leaves.append((at, node.idx))
            return at
        if split != node.split:
            # the memo's children hold other rows: drop them before
            # partitioning this node's rows anew
            node.split, node.left, node.right = split, None, None
            node.left, node.right = self._children(node, split, depth)
        self.feature[at], self.threshold[at], self.default_left[at] = split
        self.left[at] = self.build(node.left, depth + 1)
        self.right[at] = self.build(node.right, depth + 1)
        return at

    def freeze(self, learning_rate: float) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            default_left=np.asarray(self.default_left, dtype=bool),
            value=np.asarray(self.value, dtype=np.float64) * learning_rate,
        )


def train_gbt(matrix: FeatureMatrix, config: GBTConfig = GBTConfig()) -> GBTModel:
    """Boost regression trees on the logistic loss.

    Per round: residuals y − p and hessians p(1−p) at the current scores,
    greedy variance-reduction splits on the residuals, Newton leaf values
    Σr/(Σh + reg) scaled by the learning rate. Missing values take the
    split direction that scored better during training.

    Each column is stable-argsorted once (NaN last), and every tree's root
    starts from that order, filtered to its subsample. A tree grown on the
    same rows as the one before it (always at subsample 1.0) grows on that
    tree's node structure (`_Node`), so a split path the two share is
    sorted and cut once. The training scores are updated from the leaves'
    rows; only out-of-bag rows are walked through the new tree.
    """
    X, y = matrix.rows, matrix.labels.astype(np.float64)
    n, d = X.shape
    if d == 0 or n < 2:
        raise DegenerateMatrix(f"need n >= 2 and d >= 1, got n={n} d={d}")
    pos = float(y.sum())
    if pos == 0.0 or pos == n:
        raise SingleClass("training labels are all one class")

    XT = np.ascontiguousarray(X.T)
    presorted = np.argsort(XT, axis=1, kind="stable").astype(np.int32)

    base = float(np.log(pos / (n - pos)))
    raw = np.full(n, base)
    rng = np.random.default_rng(config.seed)
    n_sub = int(np.floor(config.subsample * n))
    every_row = np.arange(n, dtype=np.int32)
    root = None
    trees = []
    for _ in range(config.n_trees):
        p = _sigmoid(raw)
        grad = y - p
        hess = p * (1.0 - p)
        rows = every_row
        if config.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=max(n_sub, 1), replace=False)).astype(np.int32)
        in_bag = np.zeros(n, dtype=bool)
        in_bag[rows] = True
        if root is None or not np.array_equal(root.idx, rows):
            root = _Node(rows, presorted if len(rows) == n
                         else presorted[in_bag[presorted]].reshape(d, len(rows)))
        builder = _TreeBuilder(XT, grad, hess, config.max_depth, config.min_leaf)
        builder.build(root)
        tree = builder.freeze(config.learning_rate)
        trees.append(tree)
        for at, idx in builder.leaves:
            raw[idx] += tree.value[at]
        if len(rows) < n:
            raw[~in_bag] += tree.predict(X[~in_bag])

    return GBTModel(
        trees=tuple(trees),
        base_score=base,
        n_features=d,
        descriptors_fingerprint=descriptor_fingerprint(matrix.descriptors),
        config=config,
    )


def predict_raw(model: GBTModel, rows: np.ndarray) -> np.ndarray:
    """Accumulated log-odds of the model's trees.

    Walks every tree at once, one level per step, over blocks of at most
    _WALK_CELLS rows x trees, then adds the leaf values tree by tree to
    base_score with a sequential cumsum: the same floats in the same order
    as summing one tree's predictions after another."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != model.n_features:
        raise WidthMismatch(model.n_features, rows.shape[1])
    packed = model.packed
    n_used = packed.feature.shape[0]
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


def predict_proba_rows(model: GBTModel, rows: np.ndarray) -> np.ndarray:
    """Probability of the positive class for each row of a 2-D block, in (0, 1)."""
    return _sigmoid(predict_raw(model, rows))


def routing_differs(model, row: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(n, d) bool: entry (i, j) is True when some split on feature j, in any
    tree and reached or not, sends row and rows[i] to different sides
    (missing values follow default_left). Where it is False, swapping
    rows[i, j] for row[j] in any composite changes no leaf, so no
    prediction. For a callable other than a GBTModel, whose routing is
    unknown, every entry is True."""
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


def evaluate_accuracy(model: GBTModel, matrix: FeatureMatrix) -> float:
    """Share of rows whose label the model predicts (positive at p >= 0.5)."""
    if matrix.n == 0:
        raise EmptyMatrix("cannot score an empty matrix")
    p = predict_proba_rows(model, matrix.rows)
    predicted = (p >= 0.5).astype(np.int8)
    return float((predicted == matrix.labels).mean())


def model_to_dict(model: GBTModel) -> dict:
    return {
        "format_version": 1,
        "kind": "gbt",
        "base_score": float(model.base_score),
        "n_features": int(model.n_features),
        "descriptors_fingerprint": model.descriptors_fingerprint,
        "config": model.config.to_dict(),
        "trees": [t.to_dict() for t in model.trees],
    }


def model_from_dict(doc: dict) -> GBTModel:
    """The model stored in doc, once every field has its exact JSON type,
    its width is positive and it holds the number of trees its config
    names."""
    kind = doc.get("kind")
    if kind != "gbt":
        raise InvalidSpec(f"unknown model kind {kind!r}")
    check_options(doc, _GBT_FILE, "model")
    config = GBTConfig(**check_options(doc["config"], {**MODEL_OPTIONS, "seed": (int,)},
                                       "model config"))
    n_features = doc["n_features"]
    if n_features < 1:
        raise InvalidSpec(f"model n_features must be positive, got {n_features}")
    if len(doc["trees"]) != config.n_trees:
        raise InvalidSpec(f"model holds {len(doc['trees'])} trees but its config "
                          f"names n_trees {config.n_trees}")
    return GBTModel(
        trees=tuple(Tree.from_dict(t, n_features) for t in doc["trees"]),
        base_score=float(doc["base_score"]),
        n_features=n_features,
        descriptors_fingerprint=doc["descriptors_fingerprint"],
        config=config,
    )


def write_model(model: GBTModel, path: str) -> None:
    write_json(path, model_to_dict(model))


def read_model(path: str) -> GBTModel:
    return read_json(path, "model", model_from_dict)
