"""Bucket prefix logs and encode buckets into numeric feature matrices.

Every column carries a FeatureDescriptor naming the source attribute, the
encoder that produced it and (where relevant) the category or event index,
so explanations can be traced back to log attributes.

Column layout is deterministic: the static block first (attributes sorted
by name, categories sorted with the shared "other" indicator last), then
the dynamic block sorted by (attribute name, category or statistic, event
index). Numeric aggregate statistics use the fixed order min, max, mean,
std. Missing cells are carried as NaN, never imputed here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllMissingColumn, EmptyBucket, InvalidSpec, read_json, write_json
from .eventlog import CATEGORICAL, NUMERIC, EventLog, LogSchema, PrefixLog

OTHER_CATEGORY = "__other__"
ELAPSED_ATTR = "__elapsed__"

AGG_STATS = ("min", "max", "mean", "std")

SINGLE = "single"
PREFIX_LENGTH = "prefix_length"

AGGREGATE = "aggregate"
INDEX_BASED = "index_based"


@dataclass(frozen=True)
class BucketingStrategy:
    kind: str

    def __post_init__(self):
        if self.kind not in (SINGLE, PREFIX_LENGTH):
            raise InvalidSpec(f"unknown bucketing kind {self.kind!r}")


@dataclass(frozen=True)
class FeatureDescriptor:
    column_index: int
    source_attr: str
    encoder: str  # static_numeric | static_onehot | agg_count | agg_min/max/mean/std | index_numeric | index_onehot
    category: str | None = None
    event_index: int | None = None  # 1-based, index encoders only

    @property
    def name(self) -> str:
        base = self.source_attr
        if self.category is not None:
            base = f"{base}={self.category}"
        if self.encoder == "agg_count":
            base = f"{base}#count"
        elif self.encoder.startswith("agg_"):
            base = f"{base}#{self.encoder[4:]}"
        if self.event_index is not None:
            base = f"{base}@{self.event_index}"
        return base

    def to_dict(self) -> dict:
        return {
            "column_index": self.column_index,
            "source_attr": self.source_attr,
            "encoder": self.encoder,
            "category": self.category,
            "event_index": self.event_index,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureDescriptor":
        return cls(
            column_index=int(doc["column_index"]),
            source_attr=doc["source_attr"],
            encoder=doc["encoder"],
            category=doc.get("category"),
            event_index=doc.get("event_index"),
        )


@dataclass(frozen=True)
class CategoryVocabulary:
    """Per-attribute category lists, frozen from training data.

    Categories are sorted; unseen values map to a shared "other" indicator
    column per attribute so the feature width is stable between train and
    test."""

    categories: dict = field(default_factory=dict)  # attr name -> tuple of str

    def for_attr(self, name: str) -> tuple[str, ...]:
        return self.categories[name]

    def to_dict(self) -> dict:
        return {k: list(v) for k, v in self.categories.items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "CategoryVocabulary":
        return cls({k: tuple(v) for k, v in doc.items()})


def build_vocabulary(log: EventLog | PrefixLog, schema: LogSchema) -> CategoryVocabulary:
    """Collect sorted category lists for the activity and every categorical
    attribute. Build this from training data only."""
    traces = log.traces if isinstance(log, EventLog) else [e.trace for e in log.entries]
    seen: dict[str, set] = {schema.activity_column: set()}
    for a in schema.attribute_decls:
        if a.dtype == CATEGORICAL:
            seen[a.name] = set()
    static_cat = [a.name for a in schema.static_attrs if a.dtype == CATEGORICAL]
    dyn_cat = [a.name for a in schema.dynamic_attrs if a.dtype == CATEGORICAL]
    for trace in traces:
        for name in static_cat:
            v = trace.static_attrs.get(name)
            if v is not None:
                seen[name].add(str(v))
        for ev in trace.events:
            seen[schema.activity_column].add(ev.activity)
            for name in dyn_cat:
                v = ev.dynamic_attrs.get(name)
                if v is not None:
                    seen[name].add(str(v))
    return CategoryVocabulary({k: tuple(sorted(v)) for k, v in seen.items()})


@dataclass(frozen=True)
class FeatureMatrix:
    rows: np.ndarray  # (n, d) float64, NaN = missing
    descriptors: tuple[FeatureDescriptor, ...]
    labels: np.ndarray  # (n,) int8
    case_ids: tuple[str, ...]
    prefix_lengths: np.ndarray  # (n,) int64
    bucket_id: str

    def __post_init__(self):
        n, d = self.rows.shape
        if d == 0 or len(self.descriptors) != d:
            raise InvalidSpec(f"descriptor count {len(self.descriptors)} != width {d} or zero width")
        if not (len(self.labels) == len(self.case_ids) == len(self.prefix_lengths) == n):
            raise InvalidSpec("row metadata length mismatch")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def row_index(self, case_id: str, prefix_length: int) -> int:
        for i in range(self.n):
            if self.case_ids[i] == case_id and int(self.prefix_lengths[i]) == prefix_length:
                return i
        raise KeyError((case_id, prefix_length))

    def feature_names(self) -> list[str]:
        return [desc.name for desc in self.descriptors]


def bucket(prefix_log: PrefixLog, strategy: BucketingStrategy) -> list[tuple[str, PrefixLog]]:
    """Partition prefix entries: one bucket for everything, or one per
    distinct prefix length (keyed by that length, ascending)."""
    if len(prefix_log) == 0:
        raise EmptyBucket("prefix log has no entries")
    if strategy.kind == SINGLE:
        return [("all", prefix_log)]
    by_len: dict[int, list] = {}
    for e in prefix_log.entries:
        by_len.setdefault(e.prefix_length, []).append(e)
    return [(str(length), PrefixLog(tuple(by_len[length]))) for length in sorted(by_len)]


def _categories_with_other(vocab: CategoryVocabulary, attr: str) -> list[str]:
    return list(vocab.for_attr(attr)) + [OTHER_CATEGORY]


def _build_descriptors(schema: LogSchema, method: str, vocab: CategoryVocabulary,
                       max_len: int, include_elapsed_time: bool) -> list[FeatureDescriptor]:
    descs: list[FeatureDescriptor] = []

    def add(source, encoder, category=None, event_index=None):
        descs.append(FeatureDescriptor(len(descs), source, encoder, category, event_index))

    for a in sorted(schema.static_attrs, key=lambda a: a.name):
        if a.dtype == NUMERIC:
            add(a.name, "static_numeric")
        else:
            for cat in _categories_with_other(vocab, a.name):
                add(a.name, "static_onehot", category=cat)

    dyn = [(schema.activity_column, CATEGORICAL)]
    dyn += [(a.name, a.dtype) for a in schema.dynamic_attrs]
    if include_elapsed_time:
        dyn.append((ELAPSED_ATTR, NUMERIC))
    dyn.sort(key=lambda t: t[0])

    for name, dtype in dyn:
        if method == AGGREGATE:
            if dtype == CATEGORICAL:
                for cat in _categories_with_other(vocab, name):
                    add(name, "agg_count", category=cat)
            else:
                for stat in AGG_STATS:
                    add(name, f"agg_{stat}")
        else:
            if dtype == CATEGORICAL:
                for cat in _categories_with_other(vocab, name):
                    for idx in range(1, max_len + 1):
                        add(name, "index_onehot", category=cat, event_index=idx)
            else:
                for idx in range(1, max_len + 1):
                    add(name, "index_numeric", event_index=idx)
    return descs


def _dynamic_values(trace, name: str):
    """Per-event values of one dynamic attribute over a (truncated) trace."""
    if name == ELAPSED_ATTR:
        out = [0.0]
        for prev, cur in zip(trace.events, trace.events[1:]):
            out.append((cur.timestamp - prev.timestamp).total_seconds())
        return out[: len(trace.events)]
    return [ev.dynamic_attrs.get(name) for ev in trace.events]


def encode(bucket_log: PrefixLog, schema: LogSchema, method: str,
           vocab: CategoryVocabulary, bucket_id: str = "all",
           index_padding_len: int | None = None,
           include_elapsed_time: bool = False) -> FeatureMatrix:
    """Encode one bucket of prefixes into a feature matrix.

    method "aggregate": per categorical dynamic attribute one occurrence
    count column per category, per numeric dynamic attribute min/max/mean/
    std. method "index_based": per event index, numeric attributes as-is
    and categorical attributes one-hot; positions past a row's prefix
    length are missing-marked. Static attributes are encoded identically
    in both methods (numeric as-is, categorical one-hot).

    index_padding_len fixes the index-based width (defaults to the bucket's
    maximum prefix length); pass the training bucket's value when encoding
    test data so the widths line up.
    """
    if method not in (AGGREGATE, INDEX_BASED):
        raise InvalidSpec(f"unknown encoding method {method!r}")
    if len(bucket_log) == 0:
        raise EmptyBucket(f"bucket {bucket_id!r} is empty")

    max_len = index_padding_len if index_padding_len is not None else bucket_log.max_prefix_length()
    descs = _build_descriptors(schema, method, vocab, max_len, include_elapsed_time)
    col_of = {(d.source_attr, d.encoder, d.category, d.event_index): d.column_index for d in descs}
    d = len(descs)
    n = len(bucket_log)
    rows = np.full((n, d), np.nan)

    static_attrs = sorted(schema.static_attrs, key=lambda a: a.name)
    dyn_names = sorted([schema.activity_column] + [a.name for a in schema.dynamic_attrs]
                       + ([ELAPSED_ATTR] if include_elapsed_time else []))
    dyn_dtype = {schema.activity_column: CATEGORICAL, ELAPSED_ATTR: NUMERIC}
    dyn_dtype.update({a.name: a.dtype for a in schema.dynamic_attrs})

    # (attribute, number of present values) -> (rows, their present values):
    # each group's aggregate statistics are reduced in one call per statistic
    numeric: dict[tuple[str, int], tuple[list, list]] = {}
    for r, entry in enumerate(bucket_log.entries):
        trace = entry.trace
        for a in static_attrs:
            value = trace.static_attrs.get(a.name)
            if a.dtype == NUMERIC:
                rows[r, col_of[(a.name, "static_numeric", None, None)]] = (
                    np.nan if value is None else float(value))
            else:
                if value is None:
                    continue  # whole one-hot block stays missing
                cats = _categories_with_other(vocab, a.name)
                hit = str(value) if str(value) in vocab.for_attr(a.name) else OTHER_CATEGORY
                for cat in cats:
                    rows[r, col_of[(a.name, "static_onehot", cat, None)]] = float(cat == hit)

        for name in dyn_names:
            values = _dynamic_values(trace, name) if name != schema.activity_column \
                else [ev.activity for ev in trace.events]
            if method == AGGREGATE:
                if dyn_dtype[name] == CATEGORICAL:
                    known = vocab.for_attr(name)
                    counts = {cat: 0 for cat in _categories_with_other(vocab, name)}
                    for v in values:
                        if v is None:
                            continue
                        key = str(v) if str(v) in known else OTHER_CATEGORY
                        counts[key] += 1
                    for cat, c in counts.items():
                        rows[r, col_of[(name, "agg_count", cat, None)]] = float(c)
                else:
                    present = [float(v) for v in values if v is not None]
                    if present:
                        at, batch = numeric.setdefault((name, len(present)), ([], []))
                        at.append(r)
                        batch.append(present)
            else:
                if dyn_dtype[name] == CATEGORICAL:
                    known = vocab.for_attr(name)
                    cats = _categories_with_other(vocab, name)
                    for idx in range(1, min(len(values), max_len) + 1):
                        v = values[idx - 1]
                        if v is None:
                            continue
                        hit = str(v) if str(v) in known else OTHER_CATEGORY
                        for cat in cats:
                            rows[r, col_of[(name, "index_onehot", cat, idx)]] = float(cat == hit)
                else:
                    for idx in range(1, min(len(values), max_len) + 1):
                        v = values[idx - 1]
                        if v is not None:
                            rows[r, col_of[(name, "index_numeric", None, idx)]] = float(v)

    for (name, count), (at, batch) in numeric.items():
        arr = np.asarray(batch)  # (rows, count), each row reduced as on its own
        stats = {"min": arr.min(axis=1), "max": arr.max(axis=1), "mean": arr.mean(axis=1),
                 "std": arr.std(axis=1, ddof=1) if count > 1 else 0.0}
        for stat, v in stats.items():
            rows[at, col_of[(name, f"agg_{stat}", None, None)]] = v

    labels = np.asarray([1 if e.label else 0 for e in bucket_log.entries], dtype=np.int8)
    case_ids = tuple(e.case_id for e in bucket_log.entries)
    prefix_lengths = np.asarray([e.prefix_length for e in bucket_log.entries], dtype=np.int64)
    return FeatureMatrix(rows=rows, descriptors=tuple(descs), labels=labels,
                         case_ids=case_ids, prefix_lengths=prefix_lengths,
                         bucket_id=bucket_id)


@dataclass(frozen=True)
class ObservedDomain:
    lo: float
    hi: float
    is_binary_indicator: bool
    is_integer_valued: bool
    values: tuple[float, ...] | None  # value set for integer-valued columns


def feature_domain(matrix: FeatureMatrix, column_index: int) -> ObservedDomain:
    """Observed value range of one column, missing cells excluded.

    One-hot columns are binary indicators with value set {0, 1} regardless of
    what was observed; count columns carry their observed integer value set.
    """
    if not (0 <= column_index < matrix.d):
        raise InvalidSpec(f"no column {column_index} in matrix of width {matrix.d}")
    col = matrix.rows[:, column_index]
    present = col[~np.isnan(col)]
    if present.size == 0:
        raise AllMissingColumn(column_index)
    encoder = matrix.descriptors[column_index].encoder
    is_binary = encoder in ("static_onehot", "index_onehot")
    integral = bool(np.all(present == np.round(present)))
    is_integer = is_binary or encoder == "agg_count" or integral
    if is_binary:
        values: tuple[float, ...] | None = (0.0, 1.0)
    elif is_integer:
        values = tuple(float(v) for v in np.unique(present))
    else:
        values = None
    return ObservedDomain(lo=float(present.min()), hi=float(present.max()),
                          is_binary_indicator=is_binary, is_integer_valued=is_integer,
                          values=values)


@dataclass(frozen=True)
class MatrixStats:
    """Per-column training statistics consumed by the surrogate explainer
    and the perturbation planner: means, scales, binary-one frequencies,
    quartile bin edges and observed domains. Columns with no observed
    values get a None domain and neutral mean/scale."""

    means: np.ndarray
    scales: np.ndarray  # population std, guarded to 1.0 where zero/undefined
    p_one: np.ndarray  # frequency of 1 for binary indicator columns, NaN elsewhere
    bin_edges: tuple  # per column: np.ndarray of quartile edges, or None
    domains: tuple  # per column: ObservedDomain or None

    @classmethod
    def from_matrix(cls, matrix: FeatureMatrix, n_bins: int = 4) -> "MatrixStats":
        d = matrix.d
        means = np.zeros(d)
        scales = np.ones(d)
        p_one = np.full(d, np.nan)
        edges: list = []
        domains: list = []
        for j in range(d):
            col = matrix.rows[:, j]
            present = col[~np.isnan(col)]
            if present.size == 0:
                edges.append(None)
                domains.append(None)
                continue
            dom = feature_domain(matrix, j)
            domains.append(dom)
            means[j] = float(present.mean())
            s = float(present.std(ddof=0))
            scales[j] = s if s > 0.0 else 1.0
            if dom.is_binary_indicator:
                p_one[j] = float((present == 1.0).mean())
                edges.append(None)
            else:
                qs = np.quantile(present, np.linspace(0.0, 1.0, n_bins + 1))
                edges.append(qs)
        return cls(means=means, scales=scales, p_one=p_one,
                   bin_edges=tuple(edges), domains=tuple(domains))

    @property
    def d(self) -> int:
        return len(self.means)

    def bin_of(self, column: int, value: float) -> int:
        """Index of the quartile bin holding value (clamped to the edges)."""
        qs = self.bin_edges[column]
        if qs is None:
            raise InvalidSpec(f"column {column} has no discretization bins")
        inner = qs[1:-1]
        return int(np.searchsorted(inner, value, side="left"))

    def bin_interval(self, column: int, bin_index: int) -> tuple[float, float]:
        qs = self.bin_edges[column]
        return (float(qs[bin_index]), float(qs[bin_index + 1]))


def _cell(value: float) -> str:
    return "" if math.isnan(value) else repr(float(value))


def _read_cell(text: str) -> float:
    """The value _cell wrote: blank for missing, else a finite number."""
    value = float(text) if text else np.nan
    if text and not math.isfinite(value):
        raise ValueError(f"non-finite cell {text!r}")
    return value


def write_matrix(matrix: FeatureMatrix, basepath: str) -> tuple[str, str]:
    """Write <basepath>.csv (values) and <basepath>.json (provenance)."""
    csv_path, json_path = basepath + ".csv", basepath + ".json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case_id", "prefix_length", "label"] + matrix.feature_names())
        for i in range(matrix.n):
            row = [matrix.case_ids[i], str(int(matrix.prefix_lengths[i])),
                   str(int(matrix.labels[i]))]
            row += [_cell(v) for v in matrix.rows[i]]
            writer.writerow(row)
    doc = {
        "format_version": 1,
        "bucket_id": matrix.bucket_id,
        "descriptors": [desc.to_dict() for desc in matrix.descriptors],
        "case_ids": list(matrix.case_ids),
        "prefix_lengths": [int(v) for v in matrix.prefix_lengths],
        "labels": [int(v) for v in matrix.labels],
    }
    write_json(json_path, doc)
    return csv_path, json_path


def read_matrix(basepath: str) -> FeatureMatrix:
    """The matrix written by write_matrix(matrix, basepath)."""
    csv_path = basepath + ".csv"

    def parse(doc: dict) -> FeatureMatrix:
        descriptors = tuple(FeatureDescriptor.from_dict(d) for d in doc["descriptors"])
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)  # header
            values = []
            for line, row in enumerate(reader, start=2):
                try:
                    values.append([_read_cell(c) for c in row[3:]])
                except ValueError as exc:
                    raise ValueError(f"{csv_path} line {line}: {exc}") from None
        rows = np.asarray(values, dtype=np.float64)
        if rows.ndim != 2:
            rows = rows.reshape(len(values), len(descriptors))
        return FeatureMatrix(
            rows=rows,
            descriptors=descriptors,
            labels=np.asarray(doc["labels"], dtype=np.int8),
            case_ids=tuple(doc["case_ids"]),
            prefix_lengths=np.asarray(doc["prefix_lengths"], dtype=np.int64),
            bucket_id=doc["bucket_id"],
        )

    return read_json(basepath + ".json", "matrix", parse)
