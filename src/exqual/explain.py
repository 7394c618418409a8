"""Local feature-attribution explainers and repeated-explanation orchestration.

Two built-in explainers over any predict function:

* a perturbation-based local surrogate: sample a neighborhood from the
  training distribution, weight it by proximity, pick k features by
  forward selection and fit a weighted linear model;
* a Shapley-value explainer: exact coalition enumeration for narrow
  matrices, permutation sampling otherwise.

`model` may be a trained `GBTModel` or any callable mapping an (n, d)
block of rows to n prediction probabilities.

The Shapley explainer predicts each distinct composite row once. A
composite takes some features from the instance and the rest from one
background row b; a feature whose splits (in every tree) send the instance
and b the same way reaches the same leaves from either value. So a
composite predicts the same as its restriction to D_b, the set of features
that route the instance and b apart (`model.routing_differs`), which takes
only the D_b features of its coalition from the instance. Both regimes
predict each distinct restricted composite once: all 2^|D_b| of them per b
in the exact regime, and those the sampled walks reach in the sampled one.
Every value is the one predicting all composites would give, bit for bit;
for an opaque callable D_b is every feature.

The Shapley explainer's working memory grows with the distinct composites,
not with the composites it stands for. The sampled regime holds the walks'
permutations as small integers and one entry per walk start and per step
that changes a walk's composite; the exact regime holds the 2^|D_b|
predictions of each b and the 2^d coalition values. On top of that, either
regime builds at most `_SCRATCH_CELLS` composite cells (rows x d) at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoding import MatrixStats
from .errors import (
    NULL,
    NUMBER,
    EmptyBackground,
    InvalidSpec,
    WidthMismatch,
    check_options,
    read_json,
    write_json,
)
from .model import GBTModel, predict_proba_rows, routing_differs

SURROGATE_ID = "surrogate"
SHAPLEY_ID = "shapley"

_PREDICTION_SPREAD_TOL = 1e-12  # below this the neighborhood carries no signal
_SCRATCH_CELLS = 1 << 15  # composite cells (rows x d) built at a time, in both regimes
_KEY_BITS = 31  # coalition bits per word of a sampled-walk step's key


# explanation-set file: object -> accepted JSON value types, checked exactly
# by check_options
_SET_FILE = {"format_version": (int,), "case_id": (str, NULL),
             "prefix_length": (int, NULL), "explainer_id": (str,),
             "n_features": (int,), "explanations": (list,),
             "explainer_spec": (dict, NULL), "assets_seed": (int, NULL)}
_EXPLANATION_FILE = {"attributions": (list,), "selected_k": (int,),
                     "seed_used": (int,), "degenerate": (bool,)}
_ATTRIBUTION_FILE = {"column_index": (int,), "weight": NUMBER,
                     "interval": (dict, NULL)}
_INTERVAL_FILE = {"lo": NUMBER, "hi": NUMBER}


def _as_predict_fn(model):
    if isinstance(model, GBTModel):
        return lambda rows: predict_proba_rows(model, rows)
    return model


@dataclass(frozen=True)
class Attribution:
    column_index: int
    weight: float
    interval: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        return {
            "column_index": self.column_index,
            "weight": self.weight,
            "interval": None if self.interval is None else
            {"lo": self.interval[0], "hi": self.interval[1]},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Attribution":
        check_options(doc, _ATTRIBUTION_FILE, "attribution")
        iv = doc.get("interval")
        if iv is not None:
            check_options(iv, _INTERVAL_FILE, "interval")
            if iv["lo"] > iv["hi"]:
                raise InvalidSpec(f"interval lo {iv['lo']} is above hi {iv['hi']}")
        return cls(
            column_index=doc["column_index"],
            weight=float(doc["weight"]),
            interval=None if iv is None else (float(iv["lo"]), float(iv["hi"])),
        )


@dataclass(frozen=True)
class Explanation:
    attributions: tuple[Attribution, ...]
    selected_k: int
    explainer_id: str
    seed_used: int
    n_features: int
    degenerate: bool = False

    def __post_init__(self):
        if self.n_features < 1:
            raise InvalidSpec(f"an explanation needs n_features >= 1, got {self.n_features}")
        cols = [a.column_index for a in self.attributions]
        if len(set(cols)) != len(cols):
            raise InvalidSpec("duplicate column indices in attribution list")
        if any(not (0 <= c < self.n_features) for c in cols):
            raise InvalidSpec("attribution column index outside [0, d)")

    def weight_vector(self) -> np.ndarray:
        w = np.zeros(self.n_features)
        for a in self.attributions:
            w[a.column_index] = a.weight
        return w

    def top_k(self, k: int) -> tuple[int, ...]:
        """Column indices of the k largest |weight| attributions; ties break
        toward the lower column index."""
        ranked = sorted(self.attributions, key=lambda a: (-abs(a.weight), a.column_index))
        return tuple(a.column_index for a in ranked[:k])

    def to_dict(self) -> dict:
        return {
            "attributions": [a.to_dict() for a in self.attributions],
            "selected_k": self.selected_k,
            "seed_used": self.seed_used,
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class ExplanationSet:
    explanations: tuple[Explanation, ...]
    case_ref: tuple[str, int] | None = None
    # what the explainer assets were built from, so that they can be rebuilt
    explainer_spec: dict | None = None  # explainer id and options
    assets_seed: int | None = None

    def __post_init__(self):
        if len(self.explanations) < 2:
            raise InvalidSpec("stability evaluation needs at least 2 explanations")
        ids = {e.explainer_id for e in self.explanations}
        widths = {e.n_features for e in self.explanations}
        if len(ids) != 1 or len(widths) != 1:
            raise InvalidSpec("explanation set mixes explainers or feature widths")
        if self.explainer_spec is not None and self.explainer_spec.get("id") not in ids:
            raise InvalidSpec("explainer spec names another explainer than the set")

    @property
    def m(self) -> int:
        return len(self.explanations)

    @property
    def explainer_id(self) -> str:
        return self.explanations[0].explainer_id

    @property
    def n_features(self) -> int:
        return self.explanations[0].n_features


@dataclass(frozen=True)
class SurrogateConfig:
    n_samples: int = 5000
    kernel_width: float | None = None  # resolved to 0.75 * sqrt(d)
    k: int = 10
    discretize_numeric: bool = True

    def __post_init__(self):
        if self.n_samples < 100:
            raise InvalidSpec(f"n_samples must be >= 100, got {self.n_samples}")
        if self.k < 1:
            raise InvalidSpec(f"k must be >= 1, got {self.k}")
        if self.kernel_width is not None and not self.kernel_width > 0:
            raise InvalidSpec("kernel_width must be positive")

    def resolved_kernel_width(self, d: int) -> float:
        return self.kernel_width if self.kernel_width is not None else 0.75 * math.sqrt(d)


@dataclass(frozen=True)
class ShapleyConfig:
    background: np.ndarray = field(repr=False)
    exact_max_d: int = 15
    n_permutations: int = 2000

    def __post_init__(self):
        bg = np.atleast_2d(np.asarray(self.background, dtype=np.float64))
        object.__setattr__(self, "background", bg)
        if bg.shape[0] == 0:
            raise EmptyBackground("shapley needs a non-empty background sample")
        check_shapley_options(self.exact_max_d, self.n_permutations)


def check_shapley_options(exact_max_d: int = 15, n_permutations: int = 2000) -> None:
    """Refuse the Shapley options that `ShapleyConfig` refuses."""
    if not 0 <= exact_max_d <= 20:
        raise InvalidSpec(f"exact_max_d must be in 0..20 (exact coalition enumeration "
                          f"is capped at d = 20), got {exact_max_d}")
    if n_permutations < 1:
        raise InvalidSpec(f"n_permutations must be >= 1, got {n_permutations}")


def sample_neighborhood(row: np.ndarray, stats: MatrixStats, n_samples: int,
                        rng: np.random.Generator,
                        discretize_numeric: bool = True) -> np.ndarray:
    """Draw a neighborhood from the training marginals: binary indicators
    are Bernoulli with the training one-frequency, discretized numerics get
    a uniform quartile bin then a uniform value inside it, everything else
    is normal around the training mean. Row 0 is the (mean-imputed)
    instance itself. Columns with no training observations stay constant.
    """
    d = stats.d
    x = np.where(np.isnan(row), stats.means, row)
    out = np.empty((n_samples, d))
    out[0] = x
    n = n_samples - 1
    for j in range(d):
        dom = stats.domains[j]
        if dom is None:
            out[1:, j] = x[j]
        elif not np.isnan(stats.p_one[j]):
            out[1:, j] = (rng.random(n) < stats.p_one[j]).astype(np.float64)
        elif discretize_numeric and stats.bin_edges[j] is not None:
            edges = stats.bin_edges[j]
            bins = rng.integers(0, len(edges) - 1, size=n)
            lo, hi = edges[bins], edges[bins + 1]
            out[1:, j] = lo + rng.random(n) * (hi - lo)
        else:
            out[1:, j] = stats.means[j] + stats.scales[j] * rng.normal(size=n)
    return out


def kernel_weights(samples: np.ndarray, x: np.ndarray, stats: MatrixStats,
                   kernel_width: float) -> np.ndarray:
    """exp(-dist^2 / kw^2) with distances in standardized feature space."""
    u = (samples - x) / stats.scales
    dist2 = np.sum(u * u, axis=1)
    return np.exp(-dist2 / (kernel_width ** 2))


def _fit_design(samples: np.ndarray, x: np.ndarray, stats: MatrixStats,
                discretize: bool) -> np.ndarray:
    """Feature representation the linear fit runs on. Binary indicators and
    (when discretizing) binned numerics become same-value/same-bin-as-the-
    instance indicators; other numerics enter as raw values."""
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


def _forward_select(design: np.ndarray, y: np.ndarray, w: np.ndarray, k: int) -> list[int]:
    """Greedy weighted-SSE forward selection via incremental orthogonalization.

    Equivalent to refitting weighted least squares for every candidate at
    every step, at O(k * n * d): selected columns are peeled off all
    remaining candidates, so each candidate's score is the exact SSE drop
    it would contribute on top of the current selection."""
    sw = np.sqrt(w)
    A = design * sw[:, None]
    r = y * sw
    # intercept first: orthogonalize everything against the weighted mean
    ones = sw / np.linalg.norm(sw)
    A = A - ones[:, None] * (ones @ A)
    r = r - ones * (ones @ r)

    selected: list[int] = []
    norms = np.einsum("ij,ij->j", A, A)
    for _ in range(min(k, design.shape[1])):
        scores = np.where(norms > 1e-12, (r @ A) ** 2 / np.maximum(norms, 1e-12), -np.inf)
        if len(selected) > 0:
            scores[selected] = -np.inf
        j = int(np.argmax(scores))
        if not np.isfinite(scores[j]) or scores[j] <= 0.0:
            break
        q = A[:, j] / np.sqrt(norms[j])
        selected.append(j)
        proj = q @ A
        A = A - q[:, None] * proj
        norms = norms - proj ** 2
        r = r - q * (q @ r)
    return selected


def explain_surrogate(model, row: np.ndarray, matrix_stats: MatrixStats,
                      config: SurrogateConfig = SurrogateConfig(),
                      seed: int = 0) -> Explanation:
    """Fit a local weighted linear surrogate around one instance and return
    the k selected features with signed weights and influential intervals
    (the instance's quartile bin for discretized numerics, the instance
    value for binary indicators, a one-std band otherwise).

    A neighborhood whose predictions do not vary yields an all-zero,
    degenerate-flagged explanation instead of an error.
    """
    predict = _as_predict_fn(model)
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (matrix_stats.d,):
        raise WidthMismatch(matrix_stats.d, row.shape)
    d = matrix_stats.d
    rng = np.random.default_rng(seed)

    samples = sample_neighborhood(row, matrix_stats, config.n_samples, rng,
                                  config.discretize_numeric)
    x = samples[0]
    y = np.asarray(predict(samples), dtype=np.float64)

    if float(y.max() - y.min()) < _PREDICTION_SPREAD_TOL:
        return Explanation(attributions=(), selected_k=0, explainer_id=SURROGATE_ID,
                           seed_used=seed, n_features=d, degenerate=True)

    w = kernel_weights(samples, x, matrix_stats, config.resolved_kernel_width(d))
    design = _fit_design(samples, x, matrix_stats, config.discretize_numeric)
    selected = _forward_select(design, y, w, config.k)
    if not selected:
        return Explanation(attributions=(), selected_k=0, explainer_id=SURROGATE_ID,
                           seed_used=seed, n_features=d, degenerate=True)

    sw = np.sqrt(w)
    A = np.column_stack([design[:, selected], np.ones(len(y))]) * sw[:, None]
    beta, *_ = np.linalg.lstsq(A, y * sw, rcond=None)

    attributions = []
    for j in sorted(selected):
        coef = float(beta[selected.index(j)])
        if coef == 0.0:
            continue  # keep the exactly-selected_k-nonzero invariant honest
        attributions.append(Attribution(j, coef, _surrogate_interval(j, x, matrix_stats,
                                                                     config.discretize_numeric)))
    return Explanation(attributions=tuple(attributions), selected_k=len(attributions),
                       explainer_id=SURROGATE_ID, seed_used=seed, n_features=d)


def _surrogate_interval(j: int, x: np.ndarray, stats: MatrixStats,
                        discretize: bool) -> tuple[float, float]:
    if not np.isnan(stats.p_one[j]):
        return (float(x[j]), float(x[j]))
    if discretize and stats.bin_edges[j] is not None:
        return stats.bin_interval(j, stats.bin_of(j, float(x[j])))
    return (float(x[j] - stats.scales[j]), float(x[j] + stats.scales[j]))


def _exact_shapley(predict, row: np.ndarray, background: np.ndarray,
                   differs: np.ndarray) -> np.ndarray:
    d = row.shape[0]
    n_masks = 1 << d
    n_bg = background.shape[0]
    # The composite of coalition S with background row b predicts the same
    # as its restriction to D_b = differs[b], so predict each of the
    # 2^|D_b| restrictions once. Restriction `code` of b takes feature j
    # from `row` when bit place[b, j] of code is set.
    place = np.where(differs, np.cumsum(differs, axis=1) - 1, 0)
    sizes = np.left_shift(1, differs.sum(axis=1), dtype=np.int64)
    offset = np.cumsum(sizes) - sizes
    distinct = np.empty(int(sizes.sum()))
    rows = max(1, _SCRATCH_CELLS // d)
    for start in range(0, distinct.size, rows):
        idx = np.arange(start, min(start + rows, distinct.size))
        b = np.searchsorted(offset, idx, side="right") - 1
        take = differs[b] & (((idx - offset[b])[:, None] >> place[b]) & 1).astype(bool)
        distinct[start:start + idx.size] = predict(np.where(take, row[None, :], background[b]))

    # v(S) = mean over b of the prediction of S restricted to D_b, gathered
    # for one chunk of coalitions at a time
    weight = np.where(differs, np.left_shift(1, place), 0).T  # (d, n_bg)
    v = np.empty(n_masks)
    counts = np.empty(n_masks, dtype=np.int8)  # |S|
    chunk = max(1, _SCRATCH_CELLS // max(d, n_bg))  # bits is (chunk, d), codes (chunk, n_bg)
    for start in range(0, n_masks, chunk):
        masks = np.arange(start, min(start + chunk, n_masks), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(d)[None, :]) & 1  # (chunk, d)
        v[start:start + chunk] = distinct[bits @ weight + offset].mean(axis=1)
        counts[start:start + chunk] = bits.sum(axis=1)
    del distinct

    masks = np.arange(n_masks, dtype=np.int64)
    fact = [math.factorial(s) for s in range(d + 1)]
    coeff = np.array([fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)])
    phi = np.zeros(d)
    for i in range(d):
        without = masks[(masks >> i) & 1 == 0]
        gains = v[without | (1 << i)] - v[without]
        phi[i] = float(np.sum(coeff[counts[without]] * gains))
    return phi


def _sampled_shapley(predict, row: np.ndarray, background: np.ndarray,
                     differs: np.ndarray, n_permutations: int,
                     rng: np.random.Generator) -> np.ndarray:
    d = row.shape[0]
    n_bg = background.shape[0]
    index = np.int16 if d < 1 << 15 else np.int32  # holds every column and d itself
    perms = np.empty((n_permutations, d), dtype=index)
    base = np.empty(n_permutations, dtype=np.int64)
    for p in range(n_permutations):
        perms[p] = rng.permutation(d)
        base[p] = rng.integers(0, n_bg)

    # Step t of walk p takes the set S of the first t + 1 features of
    # perms[p] from `row`. Its composite reaches the same leaves as its
    # restriction to D_b of the walk's background row b, so its value
    # depends only on b and S ∩ D_b. Only a step that adds a feature of D_b
    # (a change point) changes that value; every other step's gain is
    # exactly +0.0, and phi, which starts at +0.0, is the same without it.
    # So keep one entry per walk start and one per change point, in walk
    # order. Key each entry by b and the bits of S ∩ D_b, 31 bits to a word,
    # folding each word in by its np.unique rank so that keys stay exact at
    # any |D_b|, and predict one restricted composite per key.
    walk, step = np.nonzero(differs[base[:, None], perms])
    feature = perms[walk, step]
    place = (np.cumsum(differs, axis=1, dtype=index) - 1)[base[walk], feature]  # bit in D_b
    lengths = np.bincount(walk, minlength=n_permutations) + 1  # entries per walk
    starts = np.cumsum(lengths) - lengths
    changed = np.ones(int(lengths.sum()), dtype=bool)
    changed[starts] = False
    size = np.zeros(changed.size, dtype=index)  # |S| after each entry
    size[changed] = step + 1
    del walk, step

    key = np.repeat(base, lengths)
    n_words = max(1, -(-int(differs.sum(axis=1).max()) // _KEY_BITS))  # ceil, at least 1
    for word in range(n_words):
        masks = np.zeros(changed.size, dtype=np.int64)
        masks[changed] = np.where(place // _KEY_BITS == word,
                                  np.left_shift(1, place % _KEY_BITS, dtype=np.int64), 0)
        np.cumsum(masks, out=masks)
        masks -= np.repeat(masks[starts], lengths)  # restart at each walk
        _, first, key = np.unique((key << _KEY_BITS) | masks,
                                  return_index=True, return_inverse=True)
    del masks, place

    preds = np.empty(first.size)
    rows = max(1, _SCRATCH_CELLS // d)
    for start in range(0, first.size, rows):
        entry = first[start:start + rows]
        w = np.searchsorted(starts, entry, side="right") - 1
        position = np.empty((entry.size, d), dtype=index)
        position[np.arange(entry.size)[:, None], perms[w]] = np.arange(d)
        take = differs[base[w]] & (position < size[entry][:, None])
        preds[start:start + entry.size] = predict(
            np.where(take, row[None, :], background[base[w]]))
    gains = np.diff(preds[key])[changed[1:]]

    phi = np.zeros(d)
    np.add.at(phi, feature, gains)  # in walk order, as a loop over p would
    return phi / n_permutations


def explain_shapley(model, row: np.ndarray, config: ShapleyConfig,
                    seed: int = 0) -> Explanation:
    """Shapley values under the value function v(S) = mean over background
    rows of the prediction on composites taking S's features from the
    instance. Exact coalition enumeration when d <= exact_max_d (seed
    independent), permutation sampling otherwise. Attributions carry no
    intervals; the perturbation planner infers them from value binning.

    Each distinct restricted composite is predicted once, in both regimes.
    For background row b, D_b is the set of features with a split that
    sends the instance and b to different sides (`model.routing_differs`;
    every feature for an opaque callable). Taking a feature outside D_b
    from the instance instead of b reaches the same leaves, so the same
    prediction: the composite of coalition S predicts the same as its
    restriction, which takes only S ∩ D_b from the instance. The exact
    regime predicts the 2^|D_b| restrictions of each b (not 2^d) and
    gathers v(S) from them; the sampled regime keys every walk step by b
    and S ∩ D_b and predicts one restriction per distinct key. Both give
    the same values, bit for bit, as predicting every composite.

    Scratch memory is bounded by those distinct restrictions, not by
    n_permutations x d or 2^d x n_background: the sampled regime keeps one
    entry per walk start and per step that adds a feature of D_b, the exact
    regime the 2^|D_b| predictions per b and 2^d coalition values, and each
    predict call gets at most `_SCRATCH_CELLS // d` composite rows.
    """
    predict = _as_predict_fn(model)
    row = np.asarray(row, dtype=np.float64)
    background = config.background
    if row.ndim != 1 or background.shape[1] != row.shape[0]:
        raise WidthMismatch(background.shape[1], row.shape)
    d = row.shape[0]
    differs = routing_differs(model, row, background)

    if d <= config.exact_max_d:
        phi = _exact_shapley(predict, row, background, differs)
    else:
        rng = np.random.default_rng(seed)
        phi = _sampled_shapley(predict, row, background, differs,
                               config.n_permutations, rng)

    attributions = tuple(Attribution(j, float(phi[j]), None) for j in range(d))
    return Explanation(attributions=attributions, selected_k=d,
                       explainer_id=SHAPLEY_ID, seed_used=seed, n_features=d)


def derive_seed(base_seed: int, *path: int) -> int:
    """Deterministic child seed for a (base seed, index path) pair."""
    state = np.random.SeedSequence([int(base_seed) & 0xFFFFFFFF] + [int(p) for p in path])
    return int(state.generate_state(1, dtype=np.uint64)[0])


def repeat_explanations(explainer_fn, model, row: np.ndarray, m: int = 10,
                        base_seed: int = 0) -> ExplanationSet:
    """Run explainer_fn(model, row, seed) M times with per-repetition derived
    seeds. Each repetition genuinely recomputes the explanation; exact-
    Shapley repeats come out identical by construction."""
    if m < 2:
        raise InvalidSpec(f"need M >= 2 repeated explanations, got {m}")
    explanations = tuple(
        explainer_fn(model, row, derive_seed(base_seed, rep)) for rep in range(m)
    )
    return ExplanationSet(explanations=explanations)


def explanation_set_to_dict(es: ExplanationSet) -> dict:
    case_id, prefix_length = es.case_ref if es.case_ref else (None, None)
    return {
        "format_version": 1,
        "case_id": case_id,
        "prefix_length": prefix_length,
        "explainer_id": es.explainer_id,
        "n_features": es.n_features,
        "explanations": [e.to_dict() for e in es.explanations],
        "explainer_spec": es.explainer_spec,
        "assets_seed": es.assets_seed,
    }


def _explanation_from_dict(doc: dict, explainer_id: str, d: int) -> Explanation:
    check_options(doc, _EXPLANATION_FILE, "explanation")
    if doc["selected_k"] != len(doc["attributions"]):
        raise InvalidSpec(f"selected_k {doc['selected_k']} differs from the "
                          f"{len(doc['attributions'])} attributions")
    return Explanation(
        attributions=tuple(Attribution.from_dict(a) for a in doc["attributions"]),
        selected_k=doc["selected_k"],
        explainer_id=explainer_id,
        seed_used=doc["seed_used"],
        n_features=d,
        degenerate=doc.get("degenerate", False),
    )


def explanation_set_from_dict(doc: dict) -> ExplanationSet:
    """The set stored in doc, once every field has its exact JSON type."""
    check_options(doc, _SET_FILE, "explanation set")
    case_id, prefix_length = doc.get("case_id"), doc.get("prefix_length")
    if case_id is not None and prefix_length is None:
        raise InvalidSpec("an explanation set with a case_id needs a prefix_length")
    case_ref = None if case_id is None else (case_id, prefix_length)
    explanations = tuple(_explanation_from_dict(e, doc["explainer_id"], doc["n_features"])
                         for e in doc["explanations"])
    return ExplanationSet(explanations=explanations, case_ref=case_ref,
                          explainer_spec=doc.get("explainer_spec"),
                          assets_seed=doc.get("assets_seed"))


def write_explanation_set(es: ExplanationSet, path: str) -> None:
    write_json(path, explanation_set_to_dict(es))


def read_explanation_set(path: str) -> ExplanationSet:
    return read_json(path, "explanation set", explanation_set_from_dict)
