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
    EmptySet,
    InvalidSpec,
)
from .explain import SURROGATE_ID, ExplanationSet, _as_predict_fn

WEIGHT_MEAN_EPSILON = 1e-8  # denominator guard when |mean| ~ 0 but var > 0
TARGET_FRACTION = 0.1  # perturb the top 10% most commonly selected columns
DEFAULT_N_PERTURBATIONS = 10
DEFAULT_SHAPLEY_BINS = 10  # decile binning of attribution values

FLAG_EPSILON_GUARD = "epsilon_guard"
FLAG_DEGENERATE_EXPLANATION = "degenerate_explanation"
FLAG_INTERVAL_FALLBACK = "interval_fallback"


@dataclass(frozen=True)
class SubsetMatrix:
    z: np.ndarray  # (M, d) 0/1 selection grid
    k_per_row: np.ndarray  # (M,) actual selected count per explanation

    def __post_init__(self):
        if self.z.ndim != 2:
            raise InvalidSpec("subset matrix must be 2-D")
        if not np.array_equal(self.z.sum(axis=1), self.k_per_row):
            raise InvalidSpec("row sums disagree with k_per_row")

    @property
    def m(self) -> int:
        return self.z.shape[0]

    @property
    def d(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True)
class WeightMatrix:
    w: np.ndarray  # (M, d), 0 for unselected features

    def __post_init__(self):
        if self.w.ndim != 2 or not np.all(np.isfinite(self.w)):
            raise InvalidSpec("weight matrix must be 2-D and finite")

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class StabilityScore:
    case_ref: tuple[str, int] | None
    by_subset: float
    by_weight: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.by_subset > 1.0 or self.by_weight > 1.0:
            raise InvalidSpec("stability scores cannot exceed 1")


def build_subset_matrix(es: ExplanationSet, k: int) -> SubsetMatrix:
    """Mark, per explanation, the k nonzero attributions largest by |weight|
    (ties toward the lower column index). Explanations with fewer than k
    nonzero weights contribute all of them; k_per_row records actuals."""
    if len(es.explanations) == 0:
        raise EmptySet("no explanations to build a subset matrix from")
    if k < 1:
        raise InvalidSpec(f"k must be >= 1, got {k}")
    d = es.n_features
    z = np.zeros((es.m, d), dtype=np.int8)
    for i, e in enumerate(es.explanations):
        nonzero = [a for a in e.attributions if a.weight != 0.0]
        nonzero.sort(key=lambda a: (-abs(a.weight), a.column_index))
        for a in nonzero[:k]:
            z[i, a.column_index] = 1
    return SubsetMatrix(z=z, k_per_row=z.sum(axis=1))


def build_weight_matrix(es: ExplanationSet) -> WeightMatrix:
    return WeightMatrix(w=np.vstack([e.weight_vector() for e in es.explanations]))


def stability_by_subset(subset: SubsetMatrix) -> float:
    """1 - (mean per-column unbiased sample variance of the selection grid)
    normalized by (kbar/d)(1 - kbar/d), kbar the mean selected count.
    Equals 1 exactly when every repetition selected the same subset."""
    m, d = subset.m, subset.d
    if m < 2:
        raise InvalidSpec(f"need M >= 2 explanations, got {m}")
    kbar = float(subset.k_per_row.mean())
    if kbar == 0.0 or kbar == float(d):
        raise DegenerateSubsetSize(
            f"mean subset size {kbar} of d={d} leaves a zero normalizer")
    s2 = subset.z.astype(np.float64).var(axis=0, ddof=1)
    normalizer = (kbar / d) * (1.0 - kbar / d)
    value = 1.0 - float(s2.mean()) / normalizer
    assert value <= 1.0 + 1e-12
    if value < 0.0:
        warnings.warn(f"subset stability {value:.6f} fell below 0", stacklevel=2)
    return value


def _weight_terms(weight: WeightMatrix) -> tuple[np.ndarray, bool]:
    mu = weight.w.mean(axis=0)
    var = weight.w.var(axis=0, ddof=1)
    terms = np.zeros(weight.d)
    guarded = False
    for i in range(weight.d):
        if var[i] == 0.0:
            continue  # includes the 0/0 column convention: contributes 0
        denom = abs(mu[i])
        if denom < WEIGHT_MEAN_EPSILON:
            denom = WEIGHT_MEAN_EPSILON
            guarded = True
        terms[i] = var[i] / denom
    return terms, guarded


def stability_by_weight(weight: WeightMatrix) -> float:
    """1 - mean over columns of (unbiased weight variance / |mean weight|).
    At most 1 (zero variance everywhere), unbounded below."""
    if weight.m < 2:
        raise InvalidSpec(f"need M >= 2 explanations, got {weight.m}")
    terms, _ = _weight_terms(weight)
    return 1.0 - float(terms.mean())


def score_stability(es: ExplanationSet, k: int = 10) -> StabilityScore:
    """Both stability variants for one instance's repeated explanations."""
    subset = build_subset_matrix(es, k)
    weight = build_weight_matrix(es)
    _, guarded = _weight_terms(weight)
    flags = []
    if guarded:
        flags.append(FLAG_EPSILON_GUARD)
    if any(e.degenerate for e in es.explanations):
        flags.append(FLAG_DEGENERATE_EXPLANATION)
    return StabilityScore(
        case_ref=es.case_ref,
        by_subset=stability_by_subset(subset),
        by_weight=stability_by_weight(weight),
        flags=tuple(flags),
    )


def select_perturbation_targets(es: ExplanationSet, k: int = 10) -> list[int]:
    """Columns selected most often across the M top-k subsets; budget is
    ceil(0.1 * d), at least 1. Ties rank by larger mean |weight|, then
    lower column index."""
    if len(es.explanations) == 0:
        raise EmptySet("no explanations to pick perturbation targets from")
    subset = build_subset_matrix(es, k)
    occurrences = subset.z.sum(axis=0)
    mean_abs = np.abs(build_weight_matrix(es).w).mean(axis=0)
    d = es.n_features
    budget = max(1, math.ceil(TARGET_FRACTION * d))
    order = sorted(range(d), key=lambda j: (-occurrences[j], -mean_abs[j], j))
    return order[:budget]


@dataclass(frozen=True)
class InfluentialRegion:
    """Feature values an explanation marked influential for one column:
    either a closed interval or, for binary indicators, the instance-value
    complement expressed through `interval` = (v, v) with kind 'complement'
    carrying the admissible values."""

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


def _instance_row(es: ExplanationSet, test_matrix: FeatureMatrix,
                  row: np.ndarray | None) -> np.ndarray:
    if row is not None:
        return np.asarray(row, dtype=np.float64)
    if es.case_ref is None:
        raise InvalidSpec("need the instance row: explanation set has no case_ref")
    idx = test_matrix.row_index(*es.case_ref)
    return test_matrix.rows[idx]


def _fallback_region(value: float, std: float) -> InfluentialRegion:
    return InfluentialRegion(kind="interval", interval=(value - std, value + std),
                             fallback=True)


def influential_interval(es: ExplanationSet, column: int,
                         test_matrix: FeatureMatrix,
                         test_attributions: np.ndarray | None = None,
                         row: np.ndarray | None = None,
                         train_stats: MatrixStats | None = None,
                         n_bins: int = DEFAULT_SHAPLEY_BINS) -> InfluentialRegion:
    """The feature-value region the explanations mark influential for one
    column of one instance.

    Binary indicator columns always yield the complement of the instance's
    value. Surrogate sets yield the modal interval attached to the column
    across the M explanations. Attribution-value sets (Shapley) yield the
    [min, max] of the column's values over the test instances whose
    attribution for this column falls in the same n_bins-quantile bin as
    this instance's mean attribution (test_attributions: that column's
    attribution value per test row, aligned with test_matrix).

    When no region can be read off, falls back to the instance's value
    plus/minus one training standard deviation, flagged."""
    x = _instance_row(es, test_matrix, row)
    value = float(x[column])
    if train_stats is not None:
        std = float(train_stats.scales[column])
        if math.isnan(value):
            value = float(train_stats.means[column])
    else:
        col = test_matrix.rows[:, column]
        present = col[~np.isnan(col)]
        std = float(present.std()) if present.size else 1.0
        if std == 0.0:
            std = 1.0
        if math.isnan(value):
            value = float(present.mean()) if present.size else 0.0

    try:
        domain = feature_domain(test_matrix, column)
    except AllMissingColumn:
        domain = None
    if domain is not None and domain.is_binary_indicator:
        if math.isnan(float(x[column])):
            allowed: tuple[float, ...] = (0.0, 1.0)  # missing cell: both values lie outside
        else:
            allowed = tuple(v for v in (0.0, 1.0) if v != float(x[column]))
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
    if test_attributions is None:
        return _fallback_region(value, std)
    shap_col = np.asarray(test_attributions, dtype=np.float64)
    if shap_col.shape[0] != test_matrix.n:
        raise InvalidSpec("test_attributions must align with test_matrix rows")
    own = float(np.mean([e.weight_vector()[column] for e in es.explanations]))
    edges = np.quantile(shap_col, np.linspace(0.0, 1.0, n_bins + 1))
    inner = edges[1:-1]
    own_bin = int(np.searchsorted(inner, own, side="left"))
    member_bins = np.searchsorted(inner, shap_col, side="left")
    values = test_matrix.rows[member_bins == own_bin, column]
    values = values[~np.isnan(values)]
    if values.size == 0:
        return _fallback_region(value, std)
    return InfluentialRegion(kind="interval", interval=(float(values.min()), float(values.max())))


@dataclass(frozen=True)
class PerturbationTarget:
    column_index: int
    region: InfluentialRegion
    # sampling domain, disjoint from the influential region by construction:
    segments: tuple[tuple[float, float, bool], ...] = ()  # (lo, hi, open_left)
    values: tuple[float, ...] = ()  # discrete columns: explicit allowed values

    def __post_init__(self):
        if bool(self.segments) == bool(self.values):
            raise InvalidSpec("target needs exactly one sampling representation")


@dataclass(frozen=True)
class PerturbationPlan:
    case_ref: tuple[str, int] | None
    targets: tuple[PerturbationTarget, ...]
    n_perturbations: int = DEFAULT_N_PERTURBATIONS
    flags: tuple[str, ...] = ()

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


def build_perturbation_plan(es: ExplanationSet, test_matrix: FeatureMatrix,
                            train_stats: MatrixStats | None = None,
                            k: int = 10,
                            n_perturbations: int = DEFAULT_N_PERTURBATIONS,
                            row: np.ndarray | None = None,
                            attribution_matrix: np.ndarray | None = None,
                            n_bins: int = DEFAULT_SHAPLEY_BINS) -> PerturbationPlan:
    """Assemble the fidelity protocol's plan for one instance: the top 10%
    most commonly selected columns, each with its influential region and a
    sampling domain = observed domain minus that region (extended outward
    when the region swallows the domain).

    attribution_matrix: (n_test, d) per-test-row attribution values, needed
    to infer regions for attribution-value explainers (Shapley)."""
    targets = select_perturbation_targets(es, k)
    built = []
    flags: set[str] = set()
    for col in targets:
        attr_col = None if attribution_matrix is None else attribution_matrix[:, col]
        region = influential_interval(es, col, test_matrix, test_attributions=attr_col,
                                      row=row, train_stats=train_stats, n_bins=n_bins)
        if region.fallback:
            flags.add(FLAG_INTERVAL_FALLBACK)
        if region.kind == "complement":
            if not region.values:
                raise EmptySamplingDomain(f"binary column {col} admits no complement value")
            built.append(PerturbationTarget(col, region, values=region.values))
            continue
        try:
            domain = feature_domain(test_matrix, col)
        except AllMissingColumn:
            domain = train_stats.domains[col] if train_stats is not None else None
        if domain is None:
            raise AllMissingColumn(col)
        if domain.is_integer_valued:
            values = _integer_values(domain, region.interval)
            if not values:
                raise EmptySamplingDomain(f"no integer values left for column {col}")
            built.append(PerturbationTarget(col, region, values=values))
        else:
            segments = _continuous_segments(domain, region.interval)
            built.append(PerturbationTarget(col, region, segments=segments))
    return PerturbationPlan(case_ref=es.case_ref, targets=tuple(built),
                            n_perturbations=n_perturbations, flags=tuple(sorted(flags)))


def perturb(row: np.ndarray, plan: PerturbationPlan,
            rng: np.random.Generator) -> np.ndarray:
    """One perturbed copy of the row: every target column is resampled
    uniformly from its sampling domain; everything else is untouched."""
    out = np.asarray(row, dtype=np.float64).copy()
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
    case_ref: tuple[str, int] | None
    f: float
    y_original: float
    deltas: tuple[float, ...]

    def __post_init__(self):
        if self.f < 0.0:
            raise InvalidSpec("fidelity is a mean of absolute ratios, cannot be negative")


def fidelity(model, row: np.ndarray, plan: PerturbationPlan,
             n: int | None = None, rng: np.random.Generator | None = None) -> FidelityScore:
    """Mean absolute relative change of the predicted-class probability over
    n perturbations of the row: F = mean |Y(x) - Y(x')| / Y(x), with Y the
    probability of the class the model predicts for the original x (so
    Y(x) >= 0.5 and each ratio stays below 2)."""
    if n is None:
        n = plan.n_perturbations
    if n < 1:
        raise InvalidSpec("need at least one perturbation")
    if rng is None:
        rng = np.random.default_rng(0)
    row = np.asarray(row, dtype=np.float64)
    predict = _as_predict_fn(model)

    p = float(predict(row[None, :])[0])
    positive = p >= 0.5
    y0 = p if positive else 1.0 - p

    perturbed = np.vstack([perturb(row, plan, rng) for _ in range(n)])
    pp = np.asarray(predict(perturbed), dtype=np.float64)
    yp = pp if positive else 1.0 - pp
    deltas = np.abs(y0 - yp) / y0
    return FidelityScore(case_ref=plan.case_ref, f=float(deltas.mean()),
                         y_original=y0, deltas=tuple(float(v) for v in deltas))


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
    """One evaluated instance: identifiers, original prediction, both
    stability variants, fidelity, and any guard flags raised on the way."""

    case_id: str
    prefix_length: int
    y_original: float
    by_subset: float
    by_weight: float
    f: float
    flags: tuple[str, ...] = ()


def evaluate_instance(model, es: ExplanationSet, test_matrix: FeatureMatrix,
                      train_stats: MatrixStats | None = None, k: int = 10,
                      n_perturbations: int = DEFAULT_N_PERTURBATIONS,
                      attribution_matrix: np.ndarray | None = None,
                      rng: np.random.Generator | None = None,
                      row: np.ndarray | None = None) -> ScoreRecord:
    """Stability (both variants) plus fidelity for one instance's repeated
    explanations; the one-row-per-instance record the report tables aggregate.

    row overrides the case_ref lookup in test_matrix — pass it when
    test_matrix is a reference subsample that may not hold the instance."""
    if es.case_ref is None:
        raise InvalidSpec("instance evaluation needs a case_ref")
    stability = score_stability(es, k)
    if row is None:
        row = test_matrix.rows[test_matrix.row_index(*es.case_ref)]
    plan = build_perturbation_plan(es, test_matrix, train_stats=train_stats, k=k,
                                   n_perturbations=n_perturbations, row=row,
                                   attribution_matrix=attribution_matrix)
    fid = fidelity(model, row, plan, rng=rng)
    return ScoreRecord(
        case_id=es.case_ref[0],
        prefix_length=es.case_ref[1],
        y_original=fid.y_original,
        by_subset=stability.by_subset,
        by_weight=stability.by_weight,
        f=fid.f,
        flags=tuple(sorted(set(stability.flags) | set(plan.flags))),
    )
