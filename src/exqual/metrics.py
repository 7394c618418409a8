"""Explanation-quality metrics: stability across repeated explanations
(by selected-feature subset and by attributed weight) and a perturbation-
based internal fidelity protocol.

Stability reads an M x d grid built from repeated explanations of one
instance. Fidelity perturbs the most commonly selected feature columns
outside their influential value regions and measures the relative change
of the predicted-class probability.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .encoding import FeatureMatrix, MatrixStats, ObservedDomain, feature_domain
from .errors import (
    AllMissingColumn,
    DegenerateSubsetSize,
    EmptyInput,
    EmptySamplingDomain,
    InvalidSpec,
)
from .explain import SURROGATE_ID, ExplanationSet, _as_predict_fn

WEIGHT_MEAN_EPSILON = 1e-8  # denominator guard when |mean| ~ 0 but var > 0
TARGET_FRACTION = 0.1  # perturb the top 10% most commonly selected columns
SHAPLEY_BINS = 10  # decile binning of attribution values

FLAG_EPSILON_GUARD = "epsilon_guard"
FLAG_DEGENERATE_EXPLANATION = "degenerate_explanation"
FLAG_INTERVAL_FALLBACK = "interval_fallback"


@dataclass(frozen=True)
class StabilityScore:
    by_subset: float
    by_weight: float
    flags: tuple[str, ...]

    def __post_init__(self):
        if self.by_subset > 1.0 or self.by_weight > 1.0:
            raise InvalidSpec("stability scores cannot exceed 1")


def build_subset_matrix(es: ExplanationSet, k: int) -> np.ndarray:
    """(M, d) 0/1 selection grid: per explanation, the k nonzero attributions
    largest by |weight| (ties toward the lower column index). Explanations
    with fewer than k nonzero weights contribute all of them."""
    if k < 1:
        raise InvalidSpec(f"k must be >= 1, got {k}")
    z = np.zeros((es.m, es.n_features), dtype=np.int8)
    for i, e in enumerate(es.explanations):
        nonzero = [a for a in e.attributions if a.weight != 0.0]
        nonzero.sort(key=lambda a: (-abs(a.weight), a.column_index))
        for a in nonzero[:k]:
            z[i, a.column_index] = 1
    return z


def build_weight_matrix(es: ExplanationSet) -> np.ndarray:
    """(M, d) attributed weights, 0 for unselected features."""
    return np.vstack([e.weight_vector() for e in es.explanations])


def _check_grid(grid: np.ndarray, what: str) -> None:
    if grid.ndim != 2 or not np.all(np.isfinite(grid)):
        raise InvalidSpec(f"{what} matrix must be 2-D and finite")
    if grid.shape[0] < 2:
        raise InvalidSpec(f"need M >= 2 explanations, got {grid.shape[0]}")


def stability_by_subset(z: np.ndarray) -> float:
    """1 - (mean per-column unbiased sample variance of the (M, d) selection
    grid z) normalized by (kbar/d)(1 - kbar/d), kbar the mean selected
    count. Equals 1 exactly when every repetition selected the same subset."""
    _check_grid(z, "subset")
    d = z.shape[1]
    kbar = float(z.sum(axis=1).mean())
    if kbar == 0.0 or kbar == float(d):
        raise DegenerateSubsetSize(
            f"mean subset size {kbar} of d={d} leaves a zero normalizer")
    s2 = z.astype(np.float64).var(axis=0, ddof=1)
    normalizer = (kbar / d) * (1.0 - kbar / d)
    value = 1.0 - float(s2.mean()) / normalizer
    assert value <= 1.0 + 1e-12
    if value < 0.0:
        warnings.warn(f"subset stability {value:.6f} fell below 0", stacklevel=2)
    return value


def _weight_terms(w: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-column var / |mean|, with |mean| raised to WEIGHT_MEAN_EPSILON,
    and whether that guard acted. A zero-variance column contributes 0
    (the 0/0 column included)."""
    mu = w.mean(axis=0)
    var = w.var(axis=0, ddof=1)
    denom = np.abs(mu)
    varies = var != 0.0
    guarded = bool(np.any(varies & (denom < WEIGHT_MEAN_EPSILON)))
    terms = np.where(varies, var / np.maximum(denom, WEIGHT_MEAN_EPSILON), 0.0)
    return terms, guarded


def stability_by_weight(w: np.ndarray) -> tuple[float, bool]:
    """1 - mean over columns of (unbiased weight variance / |mean weight|)
    of the (M, d) weight grid w, and whether the WEIGHT_MEAN_EPSILON guard
    acted. At most 1 (zero variance everywhere), unbounded below."""
    _check_grid(w, "weight")
    terms, guarded = _weight_terms(w)
    return 1.0 - float(terms.mean()), guarded


def score_stability(es: ExplanationSet, z: np.ndarray, w: np.ndarray) -> StabilityScore:
    """Both stability variants for one instance's repeated explanations es,
    from its selection grid z (build_subset_matrix) and weight grid w
    (build_weight_matrix)."""
    by_weight, guarded = stability_by_weight(w)  # refuses a non-finite grid first
    flags = []
    if guarded:
        flags.append(FLAG_EPSILON_GUARD)
    if any(e.degenerate for e in es.explanations):
        flags.append(FLAG_DEGENERATE_EXPLANATION)
    return StabilityScore(by_subset=stability_by_subset(z), by_weight=by_weight,
                          flags=tuple(flags))


def select_perturbation_targets(z: np.ndarray, w: np.ndarray) -> list[int]:
    """Columns selected most often across the M top-k subsets of the
    selection grid z; budget is ceil(0.1 * d), at least 1. Ties rank by
    larger mean |weight| in the weight grid w, then lower column index."""
    occurrences = z.sum(axis=0)
    mean_abs = np.abs(w).mean(axis=0)
    d = z.shape[1]
    budget = max(1, math.ceil(TARGET_FRACTION * d))
    order = sorted(range(d), key=lambda j: (-occurrences[j], -mean_abs[j], j))
    return order[:budget]


@dataclass(frozen=True)
class InfluentialRegion:
    """Feature values an explanation marked influential for one column:
    a closed interval (kind 'interval', `interval` = (lo, hi)) or, for a
    binary indicator, the complement of the instance's value (kind
    'complement', `values` = the admissible values, and no interval)."""

    kind: str  # "interval" | "complement"
    interval: tuple[float, float] | None = None
    values: tuple[float, ...] | None = None  # complement kind: allowed values
    fallback: bool = False

    def __post_init__(self):
        if self.kind not in ("interval", "complement"):
            raise InvalidSpec(f"unknown region kind {self.kind!r}")
        if (self.kind == "interval") != (self.interval is not None):
            raise InvalidSpec("interval regions need lo/hi; complement regions must not carry one")
        if (self.kind == "complement") != (self.values is not None):
            raise InvalidSpec("complement regions need their admissible value set")


def _fallback_region(value: float, std: float) -> InfluentialRegion:
    return InfluentialRegion(kind="interval", interval=(value - std, value + std),
                             fallback=True)


def influential_interval(es: ExplanationSet, column: int,
                         region_matrix: FeatureMatrix,
                         attributions: np.ndarray | None, row: np.ndarray,
                         train_stats: MatrixStats,
                         domain: ObservedDomain | None) -> InfluentialRegion:
    """The feature-value region the explanations mark influential for one
    column of the instance `row`.

    Binary indicator columns (by `domain`, the column's observed domain in
    region_matrix; None when it holds no value there) always yield the
    complement of the instance's value. Surrogate sets yield the modal
    interval attached to the column across the M explanations.
    Attribution-value sets (Shapley) yield the [min, max] of the column's
    values over the region_matrix rows whose attribution for this column
    falls in the same SHAPLEY_BINS-quantile bin as this instance's mean
    attribution (attributions: that column's attribution value per
    region_matrix row; None for surrogate sets).

    When no region can be read off, falls back to the instance's value
    (the training mean when missing) plus/minus one training standard
    deviation, flagged."""
    value = float(row[column])
    std = float(train_stats.scales[column])
    if math.isnan(value):
        value = float(train_stats.means[column])

    if domain is not None and domain.is_binary_indicator:
        if math.isnan(float(row[column])):
            allowed: tuple[float, ...] = (0.0, 1.0)  # missing cell: both values lie outside
        else:
            allowed = tuple(v for v in (0.0, 1.0) if v != float(row[column]))
        return InfluentialRegion(kind="complement", values=allowed)

    if es.explainer_id == SURROGATE_ID:
        intervals = [a.interval for e in es.explanations for a in e.attributions
                     if a.column_index == column and a.interval is not None]
        if not intervals:
            return _fallback_region(value, std)
        counts = Counter(intervals)
        top = max(counts.values())
        modal = min(iv for iv, c in counts.items() if c == top)
        return InfluentialRegion(kind="interval", interval=modal)

    # attribution-value binning (Shapley route)
    shap_col = np.asarray(attributions, dtype=np.float64)
    if shap_col.shape != (region_matrix.n,):
        raise InvalidSpec("attributions must align with region_matrix rows")
    own = float(np.mean([e.weight_vector()[column] for e in es.explanations]))
    edges = np.quantile(shap_col, np.linspace(0.0, 1.0, SHAPLEY_BINS + 1))
    inner = edges[1:-1]
    own_bin = int(np.searchsorted(inner, own, side="left"))
    member_bins = np.searchsorted(inner, shap_col, side="left")
    values = region_matrix.rows[member_bins == own_bin, column]
    values = values[~np.isnan(values)]
    if values.size == 0:
        return _fallback_region(value, std)
    return InfluentialRegion(kind="interval", interval=(float(values.min()), float(values.max())))


@dataclass(frozen=True)
class PerturbationTarget:
    column_index: int
    # sampling domain, disjoint from the influential region by construction:
    segments: tuple[tuple[float, float, bool], ...] = ()  # (lo, hi, open_left)
    values: tuple[float, ...] = ()  # discrete columns: explicit allowed values

    def __post_init__(self):
        if bool(self.segments) == bool(self.values):
            raise InvalidSpec("target needs exactly one sampling representation")


@dataclass(frozen=True)
class PerturbationPlan:
    targets: tuple[PerturbationTarget, ...]
    n_perturbations: int
    flags: tuple[str, ...]

    def __post_init__(self):
        if self.n_perturbations < 1:
            raise InvalidSpec("n_perturbations must be >= 1")


def _continuous_segments(domain: ObservedDomain,
                         interval: tuple[float, float]) -> tuple[tuple[float, float, bool], ...]:
    dlo, dhi = domain.lo, domain.hi
    ilo, ihi = max(interval[0], dlo), min(interval[1], dhi)
    segments = []
    if ilo > ihi:  # interval entirely outside the domain
        return ((dlo, dhi, False),) if dhi > dlo else _extension_segments(dlo, dhi)
    if ilo > dlo:
        segments.append((dlo, ilo, False))  # [dlo, ilo)
    if ihi < dhi:
        segments.append((ihi, dhi, True))  # (ihi, dhi]
    if not segments:
        return _extension_segments(dlo, dhi)
    return tuple(segments)


def _extension_segments(dlo: float, dhi: float) -> tuple[tuple[float, float, bool], ...]:
    width = max(dhi - dlo, 1.0)  # a constant column still gets a real band
    return ((dlo - width, dlo, False), (dhi, dhi + width, True))


def _integer_values(domain: ObservedDomain,
                    interval: tuple[float, float]) -> tuple[float, ...]:
    lo_int = int(math.ceil(domain.lo))
    hi_int = int(math.floor(domain.hi))
    candidates = set(range(lo_int, hi_int + 1))
    banned = set(range(int(math.ceil(interval[0])), int(math.floor(interval[1])) + 1))
    allowed = sorted(candidates - banned)
    if not allowed:
        for seg_lo, seg_hi, open_left in _extension_segments(domain.lo, domain.hi):
            lo_i = int(math.floor(seg_lo)) + 1 if open_left else int(math.ceil(seg_lo))
            hi_i = int(math.floor(seg_hi)) if open_left else int(math.ceil(seg_hi)) - 1
            allowed.extend(v for v in range(lo_i, hi_i + 1) if v not in banned)
        allowed.sort()
    return tuple(float(v) for v in allowed)


def build_perturbation_plan(es: ExplanationSet, targets: list[int],
                            region_matrix: FeatureMatrix, train_stats: MatrixStats,
                            n_perturbations: int, row: np.ndarray,
                            attribution_matrix: np.ndarray | None) -> PerturbationPlan:
    """Assemble the fidelity protocol's plan for the instance `row`: the
    target columns (select_perturbation_targets), each with its influential
    region and a sampling domain = observed domain minus that region
    (extended outward when the region swallows the domain).

    attribution_matrix: (region_matrix.n, d) attribution values of the
    region_matrix rows, which attribution-value explainers (Shapley) infer
    regions from; None for surrogate sets."""
    built = []
    flags: set[str] = set()
    for col in targets:
        try:
            domain = feature_domain(region_matrix, col)
        except AllMissingColumn:
            domain = None
        attr_col = None if attribution_matrix is None else attribution_matrix[:, col]
        region = influential_interval(es, col, region_matrix, attr_col, row, train_stats,
                                      domain)
        if region.fallback:
            flags.add(FLAG_INTERVAL_FALLBACK)
        if region.kind == "complement":
            built.append(PerturbationTarget(col, values=region.values))
            continue
        if domain is None:
            domain = train_stats.domains[col]
        if domain is None:
            raise AllMissingColumn(col)
        if domain.is_integer_valued:
            values = _integer_values(domain, region.interval)
            if not values:
                raise EmptySamplingDomain(f"no integer values left for column {col}")
            built.append(PerturbationTarget(col, values=values))
        else:
            segments = _continuous_segments(domain, region.interval)
            built.append(PerturbationTarget(col, segments=segments))
    return PerturbationPlan(targets=tuple(built), n_perturbations=n_perturbations,
                            flags=tuple(sorted(flags)))


def perturb(row: np.ndarray, plan: PerturbationPlan,
            rng: np.random.Generator) -> np.ndarray:
    """One perturbed copy of the row: every target column is resampled
    uniformly from its sampling domain; everything else is untouched."""
    out = row.copy()
    for target in plan.targets:
        if target.values:
            out[target.column_index] = target.values[rng.integers(0, len(target.values))]
            continue
        lengths = np.array([hi - lo for lo, hi, _ in target.segments])
        seg = target.segments[int(rng.choice(len(lengths), p=lengths / lengths.sum()))]
        lo, hi, open_left = seg
        u = rng.random()
        # [lo, hi) when closed on the left, (lo, hi] when open on the left
        out[target.column_index] = hi - u * (hi - lo) if open_left else lo + u * (hi - lo)
    return out


@dataclass(frozen=True)
class FidelityScore:
    f: float
    y_original: float

    def __post_init__(self):
        if self.f < 0.0:
            raise InvalidSpec("fidelity is a mean of absolute ratios, cannot be negative")


def fidelity(model, row: np.ndarray, plan: PerturbationPlan,
             rng: np.random.Generator) -> FidelityScore:
    """Mean absolute relative change of the predicted-class probability over
    the plan's n_perturbations perturbations of the row: F = mean |Y(x) -
    Y(x')| / Y(x), with Y the probability of the class the model predicts
    for the original x (so Y(x) >= 0.5 and each ratio stays below 2)."""
    predict = _as_predict_fn(model)

    p = float(predict(row[None, :])[0])
    positive = p >= 0.5
    y0 = p if positive else 1.0 - p

    perturbed = np.vstack([perturb(row, plan, rng) for _ in range(plan.n_perturbations)])
    pp = np.asarray(predict(perturbed), dtype=np.float64)
    yp = pp if positive else 1.0 - pp
    deltas = np.abs(y0 - yp) / y0
    return FidelityScore(f=float(deltas.mean()), y_original=y0)


def aggregate(scores) -> dict:
    """Unweighted mean with min/max/quartiles over per-instance scores."""
    values = np.asarray(list(scores), dtype=np.float64)
    if values.size == 0:
        raise EmptyInput("nothing to aggregate")
    q1, med, q3 = (float(v) for v in np.quantile(values, [0.25, 0.5, 0.75]))
    return {
        "n": int(values.size),
        "mean": float(values.mean()),
        "min": float(values.min()),
        "q1": q1,
        "median": med,
        "q3": q3,
        "max": float(values.max()),
    }


@dataclass(frozen=True)
class ScoreRecord:
    """One evaluated instance: original prediction, both stability
    variants, fidelity, and any guard flags raised on the way."""

    y_original: float
    by_subset: float
    by_weight: float
    f: float
    flags: tuple[str, ...]


def evaluate_instance(model, es: ExplanationSet, region_matrix: FeatureMatrix,
                      train_stats: MatrixStats, k: int, n_perturbations: int,
                      attribution_matrix: np.ndarray | None,
                      rng: np.random.Generator, row: np.ndarray) -> ScoreRecord:
    """Stability (both variants) plus fidelity for the repeated explanations
    es of the instance `row`; the one-row-per-instance record the report
    tables aggregate. region_matrix, train_stats and attribution_matrix are
    the explainer's assets (harness.build_explainer_assets)."""
    z, w = build_subset_matrix(es, k), build_weight_matrix(es)
    stability = score_stability(es, z, w)
    plan = build_perturbation_plan(es, select_perturbation_targets(z, w), region_matrix,
                                   train_stats, n_perturbations, row, attribution_matrix)
    fid = fidelity(model, row, plan, rng)
    return ScoreRecord(
        y_original=fid.y_original,
        by_subset=stability.by_subset,
        by_weight=stability.by_weight,
        f=fid.f,
        flags=tuple(sorted(set(stability.flags) | set(plan.flags))),
    )
