"""Experiment orchestration: run every (bucketing x encoding x explainer)
combination over one or more datasets, score stability and fidelity per
sampled test instance, and emit deterministic report bundles.

Determinism contract: given the same config and global seed, the bundle is
byte-identical across runs and worker counts. Wall-clock timings are the one
exception and live in their own file (timing.csv), excluded from that
guarantee. Nothing in the bundle depends on time-of-day, filesystem layout,
or scheduling order: per-instance RNG streams are derived from the global
seed plus the item's identity, and results are merged in task order.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import os
import platform
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .encoding import (
    AGGREGATE,
    INDEX_BASED,
    PREFIX_LENGTH,
    SINGLE,
    BucketingStrategy,
    FeatureMatrix,
    MatrixStats,
    bucket,
    build_vocabulary,
    encode,
)
from .errors import (
    NULL,
    NUMBER,
    DataError,
    InvalidSpec,
    UsageError,
    check_options,
    read_json,
    write_json,
)
from .eventlog import (
    LogSchema,
    downsample_majority,
    extract_prefixes,
    parse_log,
    split_train_test,
)
from .explain import (
    SHAPLEY_ID,
    SURROGATE_ID,
    ShapleyConfig,
    SurrogateConfig,
    derive_seed,
    explain_shapley,
    explain_surrogate,
    repeat_explanations,
)
from .metrics import aggregate as aggregate_scores
from .metrics import evaluate_instance
from .model import MODEL_OPTIONS, GBTConfig, evaluate_accuracy, train_gbt
from .synthetic import check_gen_spec, generate_synthetic_log


def _sc(text: str) -> int:
    """Stable 32-bit seed-path component for a string identity."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")


# ------------------------------------------------------------- config types

@dataclass(frozen=True)
class DatasetSpec:
    name: str
    csv_path: str | None = None
    schema_path: str | None = None
    gen_spec: dict | None = None

    def __post_init__(self):
        file_based = self.csv_path is not None or self.schema_path is not None
        if file_based and (self.csv_path is None or self.schema_path is None):
            raise InvalidSpec(f"dataset {self.name!r} needs both csv and schema paths")
        if file_based == (self.gen_spec is not None):
            raise InvalidSpec(
                f"dataset {self.name!r} must give either csv+schema or gen_spec")

    def to_dict(self) -> dict:
        if self.gen_spec is not None:
            return {"name": self.name, "gen_spec": self.gen_spec}
        return {"name": self.name, "csv": self.csv_path, "schema": self.schema_path}

    @classmethod
    def from_dict(cls, doc: dict, index: int) -> "DatasetSpec":
        check_options(doc, _DATASET_OPTIONS, "dataset")
        name = doc.get("name")
        if name is None:
            if doc.get("csv") is not None:
                name = os.path.splitext(os.path.basename(doc["csv"]))[0]
            else:
                name = f"synthetic-{index}"
        gen_spec = doc.get("gen_spec")
        if gen_spec is not None:
            check_gen_spec(gen_spec)
        return cls(name=name, csv_path=doc.get("csv"),
                   schema_path=doc.get("schema"), gen_spec=gen_spec)


@dataclass(frozen=True)
class ComboSpec:
    bucketing: str
    encoding: str

    def __post_init__(self):
        if self.bucketing not in (SINGLE, PREFIX_LENGTH):
            raise InvalidSpec(f"unknown bucketing {self.bucketing!r}")
        if self.encoding not in (AGGREGATE, INDEX_BASED):
            raise InvalidSpec(f"unknown encoding {self.encoding!r}")

    @property
    def combo_id(self) -> str:
        return f"{self.bucketing}+{self.encoding}"

    @classmethod
    def from_dict(cls, doc: dict) -> "ComboSpec":
        if not isinstance(doc, dict) or set(doc) != {"bucketing", "encoding"}:
            raise InvalidSpec(f"a combo needs exactly the keys bucketing and "
                              f"encoding, got {doc!r}")
        return cls(**doc)


# option name -> accepted JSON value types, checked exactly by check_options
_EXPLAINER_OPTIONS = {
    SURROGATE_ID: {"n_samples": (int,), "kernel_width": (*NUMBER, NULL),
                   "k": (int,), "discretize_numeric": (bool,)},
    SHAPLEY_ID: {"n_background": (int,), "exact_max_d": (int,),
                 "n_permutations": (int,), "reference_size": (int,)},
}

_DATASET_OPTIONS = {"name": (str, NULL), "csv": (str, NULL),
                    "schema": (str, NULL), "gen_spec": (dict, NULL)}

_CONFIG_OPTIONS = {
    "datasets": (list, NULL), "dataset": (dict, NULL), "combos": (list,),
    "explainers": (list,), "min_prefix_length": (int,),
    "max_prefix_length": (int,), "train_fraction": (float,),
    "downsample": (bool,), "m": (int,), "top_k": (int,),
    "n_perturbations": (int,), "sample_size": (int,), "global_seed": (int,),
    "model": (dict,), "out_dir": (str, NULL),
}


@dataclass(frozen=True)
class ExplainerSpec:
    explainer_id: str
    label: str
    options: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict, label: str) -> "ExplainerSpec":
        """Validated spec: a known id, and options of the documented types
        whose values the explainer accepts."""
        eid = doc.get("id") if isinstance(doc, dict) else None
        if type(eid) is not str or eid not in _EXPLAINER_OPTIONS:
            raise InvalidSpec(f"an explainer needs a known id, got {doc!r}")
        options = {k: v for k, v in doc.items() if k != "id"}
        check_options(options, _EXPLAINER_OPTIONS[eid], eid)
        # refused here, a bad value fails the config, not each bucket of a run
        if eid == SURROGATE_ID:
            SurrogateConfig(**options)
        else:
            shapley = dict(options)
            for name in ("n_background", "reference_size"):
                if shapley.pop(name, 1) < 1:
                    raise InvalidSpec(f"{name} must be >= 1, got {options[name]}")
            ShapleyConfig(background=np.zeros((1, 1)), **shapley)  # its options only
        return cls(explainer_id=eid, label=label, options=options)

    def to_dict(self) -> dict:
        return {"id": self.explainer_id, **self.options}


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetSpec, ...]
    combos: tuple[ComboSpec, ...]
    explainers: tuple[ExplainerSpec, ...]
    min_prefix_length: int = 1
    max_prefix_length: int = 8
    train_fraction: float = 0.8
    downsample: bool = True
    m: int = 10
    top_k: int = 10
    n_perturbations: int = 10
    sample_size: int = 50
    global_seed: int = 0
    model: dict = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self):
        if not self.datasets:
            raise InvalidSpec("config needs at least one dataset")
        if not self.combos:
            raise InvalidSpec("config needs at least one bucketing+encoding combo")
        if not self.explainers:
            raise InvalidSpec("config needs at least one explainer")
        if self.m < 2:
            raise InvalidSpec(f"m must be >= 2, got {self.m}")
        if not (1 <= self.min_prefix_length <= self.max_prefix_length):
            raise InvalidSpec("bad prefix length range")
        if not (0.0 < self.train_fraction < 1.0):
            raise InvalidSpec("train_fraction must be in (0, 1)")
        if self.sample_size < 1 or self.n_perturbations < 1 or self.top_k < 1:
            raise InvalidSpec("sample_size, n_perturbations and top_k must be >= 1")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise InvalidSpec(f"duplicate dataset names: {names}")
        check_options(self.model, MODEL_OPTIONS, "model")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        check_options(doc, _CONFIG_OPTIONS, "config")
        raw_datasets = doc.get("datasets")
        if raw_datasets is None:
            single = doc.get("dataset")
            raw_datasets = [single] if single is not None else []
        datasets = tuple(DatasetSpec.from_dict(d, i) for i, d in enumerate(raw_datasets))
        combos = tuple(ComboSpec.from_dict(c) for c in doc.get("combos", []))
        specs = [ExplainerSpec.from_dict(e, "") for e in doc.get("explainers", [])]
        ids = [s.explainer_id for s in specs]
        explainers = []
        for i, spec in enumerate(specs):
            label = spec.explainer_id
            if ids.count(label) > 1:  # repeated ids are numbered in order
                label = f"{label}-{ids[:i + 1].count(label)}"
            explainers.append(replace(spec, label=label))
        scalars = {k: v for k, v in doc.items()
                   if k not in ("datasets", "dataset", "combos", "explainers", "model")}
        return cls(datasets=datasets, combos=combos, explainers=tuple(explainers),
                   model=dict(doc.get("model", {})), **scalars)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        return read_json(path, "config", cls.from_dict)

    def to_dict(self) -> dict:
        # out_dir deliberately omitted: the manifest must not depend on where
        # the bundle happens to be written
        return {
            "datasets": [d.to_dict() for d in self.datasets],
            "combos": [asdict(c) for c in self.combos],
            "explainers": [e.to_dict() for e in self.explainers],
            "min_prefix_length": self.min_prefix_length,
            "max_prefix_length": self.max_prefix_length,
            "train_fraction": self.train_fraction,
            "downsample": self.downsample,
            "m": self.m,
            "top_k": self.top_k,
            "n_perturbations": self.n_perturbations,
            "sample_size": self.sample_size,
            "global_seed": self.global_seed,
            "model": dict(sorted(self.model.items())),
        }


# ------------------------------------------------------------- bundle types

@dataclass(frozen=True)
class InstanceRecord:
    dataset: str
    bucketing: str
    encoding: str
    explainer: str
    bucket_id: str
    case_id: str
    prefix_length: int
    d: int
    y_original: float
    by_subset: float
    by_weight: float
    fidelity: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class TimingRecord:
    dataset: str
    bucketing: str
    encoding: str
    explainer: str
    bucket_id: str
    case_id: str
    prefix_length: int
    d: int
    seconds_per_explanation: float


@dataclass(frozen=True)
class AccuracyRecord:
    dataset: str
    bucketing: str
    encoding: str
    bucket_id: str
    prefix_length: int
    n: int
    accuracy: float


@dataclass(frozen=True)
class FailureRecord:
    dataset: str
    stage: str  # dataset | bucket | instance
    error: str
    bucketing: str = ""
    encoding: str = ""
    explainer: str = ""
    bucket_id: str = ""
    case_id: str = ""
    prefix_length: int = 0


@dataclass(frozen=True)
class AggregateRecord:
    dataset: str
    bucketing: str
    encoding: str
    explainer: str
    metric: str  # by_subset | by_weight | fidelity
    n: int
    mean: float
    min: float
    q1: float
    median: float
    q3: float
    max: float


# bundle record field annotation -> accepted JSON value types
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": NUMBER, "tuple[str, ...]": (list,)}


@dataclass(frozen=True)
class ReportBundle:
    aggregates: tuple[AggregateRecord, ...]
    records: tuple[InstanceRecord, ...]
    timings: tuple[TimingRecord, ...]
    accuracy: tuple[AccuracyRecord, ...]
    failures: tuple[FailureRecord, ...]
    manifest: dict

    def to_dict(self) -> dict:
        """Everything except timings, which are wall-clock measurements and
        deliberately excluded from the deterministic payload."""
        return {
            "format_version": 1,
            "manifest": self.manifest,
            "aggregates": [asdict(a) for a in self.aggregates],
            "records": [asdict(r) for r in self.records],
            "accuracy": [asdict(a) for a in self.accuracy],
            "failures": [asdict(f) for f in self.failures],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ReportBundle":
        manifest = doc.get("manifest", {})
        if not isinstance(manifest, dict):
            raise InvalidSpec("the bundle manifest must be an object")
        config = manifest.get("config", {})
        if not isinstance(config, dict):
            raise InvalidSpec("the bundle manifest's config must be an object")
        datasets = config.get("datasets", [])
        if not isinstance(datasets, list) or any(
                not isinstance(ds, dict) or type(ds.get("name")) is not str
                for ds in datasets):
            raise InvalidSpec("the bundle manifest's datasets must be objects "
                              "with a string name")

        def records(key, record_cls):
            types = {f.name: _FIELD_TYPES[f.type] for f in fields(record_cls)}
            return tuple(record_cls(**check_options(r, types, key))
                         for r in doc.get(key, []))

        instances = records("records", InstanceRecord)
        if any(type(flag) is not str for r in instances for flag in r.flags):
            raise InvalidSpec("record flags must be strings")
        return cls(
            aggregates=records("aggregates", AggregateRecord),
            records=tuple(replace(r, flags=tuple(r.flags)) for r in instances),
            timings=(),
            accuracy=records("accuracy", AccuracyRecord),
            failures=records("failures", FailureRecord),
            manifest=manifest,
        )


# ------------------------------------------------------------ orchestration

def _submatrix(matrix: FeatureMatrix, indices) -> FeatureMatrix:
    idx = np.asarray(indices, dtype=np.int64)
    return FeatureMatrix(
        rows=matrix.rows[idx],
        descriptors=matrix.descriptors,
        labels=matrix.labels[idx],
        case_ids=tuple(matrix.case_ids[i] for i in idx),
        prefix_lengths=matrix.prefix_lengths[idx],
        bucket_id=matrix.bucket_id,
    )


def _load_dataset(ds: DatasetSpec, seed: int):
    if ds.gen_spec is not None:
        return generate_synthetic_log(ds.gen_spec, seed=seed)
    try:
        schema = LogSchema.from_json(ds.schema_path)
        return parse_log(ds.csv_path, schema)
    except (OSError, UsageError) as exc:
        raise DataError(f"cannot read dataset {ds.name!r}: {exc}") from exc


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class ExplainerAssets:
    """What scoring one explainer on one bucket needs beyond the model."""

    explain_fn: object  # (model, row, seed) -> Explanation
    train_stats: MatrixStats
    region_matrix: FeatureMatrix  # matrix whose rows back influential regions
    attribution_matrix: np.ndarray | None  # Shapley: attributions of region rows


@dataclass
class _BucketContext:
    """Read-only state shared by all work items of one (dataset, combo,
    bucket, explainer): the trained model, matrices, and explainer assets."""

    dataset: str
    combo: ComboSpec
    bucket_id: str
    explainer: ExplainerSpec
    model: object
    test_matrix: FeatureMatrix
    assets: ExplainerAssets


@dataclass
class _Task:
    ctx: _BucketContext
    row_index: int
    base_seed: int
    fidelity_seed: int
    m: int
    top_k: int
    n_perturbations: int


def _run_task(task: _Task):
    ctx = task.ctx
    matrix = ctx.test_matrix
    case_id = matrix.case_ids[task.row_index]
    prefix_length = int(matrix.prefix_lengths[task.row_index])
    row = matrix.rows[task.row_index]
    ident = dict(dataset=ctx.dataset, bucketing=ctx.combo.bucketing,
                 encoding=ctx.combo.encoding, explainer=ctx.explainer.label,
                 bucket_id=ctx.bucket_id, case_id=case_id,
                 prefix_length=prefix_length)
    try:
        started = time.perf_counter()
        es = repeat_explanations(ctx.assets.explain_fn, ctx.model, row,
                                 m=task.m, base_seed=task.base_seed)
        elapsed = time.perf_counter() - started
        score = evaluate_instance(
            ctx.model, es, ctx.assets.region_matrix,
            train_stats=ctx.assets.train_stats, k=task.top_k,
            n_perturbations=task.n_perturbations,
            attribution_matrix=ctx.assets.attribution_matrix,
            rng=np.random.default_rng(task.fidelity_seed), row=row)
        record = InstanceRecord(**ident, d=matrix.d, y_original=score.y_original,
                                by_subset=score.by_subset, by_weight=score.by_weight,
                                fidelity=score.f, flags=score.flags)
        timing = TimingRecord(**ident, d=matrix.d,
                              seconds_per_explanation=elapsed / task.m)
        return record, timing, None
    except Exception as exc:  # failures are isolated per instance
        return None, None, FailureRecord(dataset=ctx.dataset, stage="instance",
                                         error=_error_text(exc),
                                         bucketing=ctx.combo.bucketing,
                                         encoding=ctx.combo.encoding,
                                         explainer=ctx.explainer.label,
                                         bucket_id=ctx.bucket_id, case_id=case_id,
                                         prefix_length=prefix_length)


def build_explain_fn(spec: ExplainerSpec, train_matrix: FeatureMatrix,
                     global_seed: int, seed_path: tuple[int, ...] = ()):
    """(explain fn, training statistics) for spec, with the Shapley
    background drawn from train_matrix, seeded by (global_seed, seed_path).
    `exqual explain` needs only these."""
    train_stats = MatrixStats.from_matrix(train_matrix)
    if spec.explainer_id == SURROGATE_ID:
        cfg = SurrogateConfig(**spec.options)

        def fn(mdl, row, seed, _cfg=cfg, _stats=train_stats):
            return explain_surrogate(mdl, row, _stats, _cfg, seed)

        return fn, train_stats

    options = dict(spec.options)
    n_background = options.pop("n_background", 16)
    options.pop("reference_size", None)
    bg_rng = np.random.default_rng(
        derive_seed(global_seed, _sc("background"), *seed_path))
    n_bg = min(n_background, train_matrix.n)
    bg_idx = np.sort(bg_rng.choice(train_matrix.n, size=n_bg, replace=False))
    cfg = ShapleyConfig(background=train_matrix.rows[bg_idx], **options)

    def fn(mdl, row, seed, _cfg=cfg):
        return explain_shapley(mdl, row, _cfg, seed)

    return fn, train_stats


def build_explainer_assets(spec: ExplainerSpec, train_matrix: FeatureMatrix,
                           test_matrix: FeatureMatrix, model, global_seed: int,
                           seed_path: tuple[int, ...] = ()) -> ExplainerAssets:
    """Explainer function, training statistics and the matrix/attribution
    pair backing influential-region inference, seeded by (global_seed,
    seed_path). `exqual run` and `exqual eval-fidelity` build them here."""
    fn, train_stats = build_explain_fn(spec, train_matrix, global_seed, seed_path)
    if spec.explainer_id == SURROGATE_ID:
        return ExplainerAssets(fn, train_stats, test_matrix, None)

    ref_rng = np.random.default_rng(
        derive_seed(global_seed, _sc("reference_sample"), *seed_path))
    n_ref = min(spec.options.get("reference_size", 100), test_matrix.n)
    ref_idx = np.sort(ref_rng.choice(test_matrix.n, size=n_ref, replace=False))
    region_matrix = _submatrix(test_matrix, ref_idx)
    attribution = np.vstack([
        fn(model, region_matrix.rows[r],
           derive_seed(global_seed, _sc("reference"), *seed_path, int(ref_idx[r]))
           ).weight_vector()
        for r in range(region_matrix.n)
    ])
    return ExplainerAssets(fn, train_stats, region_matrix, attribution)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ReportBundle:
    """Execute the full pipeline per dataset and combo: ingest, prefix,
    split, downsample, bucket, encode, train, then score every sampled test
    instance with every explainer. Deterministic for a given config and
    global_seed, independent of the worker count."""
    if workers < 1:
        raise InvalidSpec(f"workers must be >= 1, got {workers}")
    gs = config.global_seed
    tasks: list[_Task] = []
    failures: list[FailureRecord] = []
    accuracy: list[AccuracyRecord] = []
    bucket_infos: list[dict] = []

    for di, ds in enumerate(config.datasets):
        try:
            log = _load_dataset(ds, seed=derive_seed(gs, _sc("synth"), di))
            train_log, test_log = split_train_test(
                log, config.train_fraction, seed=derive_seed(gs, _sc("split"), di))
            if config.downsample:
                train_log = downsample_majority(
                    train_log, seed=derive_seed(gs, _sc("downsample"), di))
            train_prefixes = extract_prefixes(
                train_log, config.min_prefix_length, config.max_prefix_length)
            test_prefixes = extract_prefixes(
                test_log, config.min_prefix_length, config.max_prefix_length)
        except DataError as exc:
            failures.append(FailureRecord(dataset=ds.name, stage="dataset",
                                          error=_error_text(exc)))
            continue

        for ci, combo in enumerate(config.combos):
            strategy = BucketingStrategy(combo.bucketing)
            train_buckets = bucket(train_prefixes, strategy)
            test_buckets = dict(bucket(test_prefixes, strategy))
            for bucket_id, train_bucket in train_buckets:
                test_bucket = test_buckets.get(bucket_id)
                if test_bucket is None or not test_bucket.entries:
                    continue
                bpath = (di, ci, _sc(bucket_id))
                try:
                    schema = log.schema
                    vocab = build_vocabulary(train_bucket, schema)
                    padding = None
                    if combo.encoding == INDEX_BASED:
                        padding = max(train_bucket.max_prefix_length(),
                                      test_bucket.max_prefix_length())
                    train_matrix = encode(train_bucket, schema, combo.encoding,
                                          vocab, bucket_id, index_padding_len=padding)
                    test_matrix = encode(test_bucket, schema, combo.encoding,
                                         vocab, bucket_id, index_padding_len=padding)
                    model_cfg = GBTConfig(**config.model,
                                          seed=derive_seed(gs, _sc("model"), *bpath))
                    model = train_gbt(train_matrix, model_cfg)
                except DataError as exc:
                    failures.append(FailureRecord(
                        dataset=ds.name, stage="bucket", error=_error_text(exc),
                        bucketing=combo.bucketing, encoding=combo.encoding,
                        bucket_id=bucket_id))
                    continue

                for length in sorted({int(v) for v in test_matrix.prefix_lengths}):
                    mask = np.flatnonzero(test_matrix.prefix_lengths == length)
                    sub = _submatrix(test_matrix, mask)
                    accuracy.append(AccuracyRecord(
                        dataset=ds.name, bucketing=combo.bucketing,
                        encoding=combo.encoding, bucket_id=bucket_id,
                        prefix_length=length, n=sub.n,
                        accuracy=evaluate_accuracy(model, sub)))

                sample_rng = np.random.default_rng(
                    derive_seed(gs, _sc("sample"), *bpath))
                n_sampled = min(config.sample_size, test_matrix.n)
                sampled = np.sort(sample_rng.choice(
                    test_matrix.n, size=n_sampled, replace=False))
                bucket_infos.append({
                    "dataset": ds.name, "combo": combo.combo_id,
                    "bucket_id": bucket_id, "d": test_matrix.d,
                    "n_train": train_matrix.n, "n_test": test_matrix.n,
                    "n_sampled": int(n_sampled),
                    "index_padding": padding,
                })

                for ei, spec in enumerate(config.explainers):
                    try:
                        assets = build_explainer_assets(
                            spec, train_matrix, test_matrix, model, global_seed=gs,
                            seed_path=(*bpath, ei))
                    except DataError as exc:
                        failures.append(FailureRecord(
                            dataset=ds.name, stage="bucket", error=_error_text(exc),
                            bucketing=combo.bucketing, encoding=combo.encoding,
                            explainer=spec.label, bucket_id=bucket_id))
                        continue
                    ctx = _BucketContext(
                        dataset=ds.name, combo=combo, bucket_id=bucket_id,
                        explainer=spec, model=model, test_matrix=test_matrix,
                        assets=assets)
                    for r in sampled:
                        case_path = (*bpath, ei, _sc(test_matrix.case_ids[r]),
                                     int(test_matrix.prefix_lengths[r]))
                        tasks.append(_Task(
                            ctx=ctx, row_index=int(r),
                            base_seed=derive_seed(gs, _sc("explain"), *case_path),
                            fidelity_seed=derive_seed(gs, _sc("fidelity"), *case_path),
                            m=config.m, top_k=config.top_k,
                            n_perturbations=config.n_perturbations))

    records: list[InstanceRecord] = []
    timings: list[TimingRecord] = []
    if workers == 1:
        outcomes = [_run_task(t) for t in tasks]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_task, tasks))
    for record, timing, failure in outcomes:
        if failure is not None:
            failures.append(failure)
        else:
            records.append(record)
            timings.append(timing)

    aggregates = _aggregate_records(config, records)
    manifest = {
        "config": config.to_dict(),
        "versions": {"exqual": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "buckets": bucket_infos,
        "counts": {"tasks": len(tasks), "records": len(records),
                   "failures": len(failures)},
        "notes": ["timing.csv is wall-clock data, excluded from the "
                  "byte-identity guarantee"],
    }
    return ReportBundle(aggregates=tuple(aggregates), records=tuple(records),
                        timings=tuple(timings), accuracy=tuple(accuracy),
                        failures=tuple(failures), manifest=manifest)


def _aggregate_records(config: ExperimentConfig,
                       records: list[InstanceRecord]) -> list[AggregateRecord]:
    out = []
    for ds in config.datasets:
        for combo in config.combos:
            for spec in config.explainers:
                group = [r for r in records
                         if r.dataset == ds.name
                         and r.bucketing == combo.bucketing
                         and r.encoding == combo.encoding
                         and r.explainer == spec.label]
                if not group:
                    continue
                for metric, values in (
                        ("by_subset", [r.by_subset for r in group]),
                        ("by_weight", [r.by_weight for r in group]),
                        ("fidelity", [r.fidelity for r in group])):
                    stats = aggregate_scores(values)
                    out.append(AggregateRecord(
                        dataset=ds.name, bucketing=combo.bucketing,
                        encoding=combo.encoding, explainer=spec.label,
                        metric=metric, **stats))
    return out


# ----------------------------------------------------------------- emission

RECORD_COLUMNS = ["dataset", "bucketing", "encoding", "explainer", "bucket_id",
                  "case_id", "prefix_length", "d", "y_original", "by_subset",
                  "by_weight", "fidelity", "flags"]
AGGREGATE_COLUMNS = ["dataset", "bucketing", "encoding", "explainer", "n",
                     "mean", "min", "q1", "median", "q3", "max"]
TIMING_COLUMNS = ["dataset", "bucketing", "encoding", "explainer", "bucket_id",
                  "case_id", "prefix_length", "d", "seconds_per_explanation"]
ACCURACY_COLUMNS = ["dataset", "bucketing", "encoding", "bucket_id",
                    "prefix_length", "n", "accuracy"]
FAILURE_COLUMNS = ["dataset", "stage", "bucketing", "encoding", "explainer",
                   "bucket_id", "case_id", "prefix_length", "error"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):  # flags
        return "|".join(value)
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _markdown_table(bundle: ReportBundle, metric: str) -> str:
    datasets = [d["name"] for d in bundle.manifest.get("config", {}).get("datasets", [])]
    if not datasets:
        datasets = sorted({a.dataset for a in bundle.aggregates})
    cells = {(a.bucketing, a.encoding, a.explainer, a.dataset): a
             for a in bundle.aggregates if a.metric == metric}
    row_keys = sorted({(a.bucketing, a.encoding, a.explainer)
                       for a in bundle.aggregates if a.metric == metric})
    lines = [f"| bucketing | encoding | explainer | {' | '.join(datasets)} |",
             f"|---|---|---|{'---|' * len(datasets)}"]
    for bk, en, ex in row_keys:
        row = [bk, en, ex]
        for ds in datasets:
            a = cells.get((bk, en, ex, ds))
            row.append("" if a is None else f"{a.mean:.4f} (n={a.n})")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _render_markdown(bundle: ReportBundle) -> str:
    parts = ["# Explanation quality report", ""]
    for metric, title in (("by_subset", "Stability by subset"),
                          ("by_weight", "Stability by weight"),
                          ("fidelity", "Fidelity")):
        parts += [f"## {title} (mean per combination)", "",
                  _markdown_table(bundle, metric), ""]
    if bundle.accuracy:
        parts += ["## Model accuracy by prefix length", "",
                  "| dataset | bucketing | encoding | bucket | prefix length | n | accuracy |",
                  "|---|---|---|---|---|---|---|"]
        for a in bundle.accuracy:
            parts.append(f"| {a.dataset} | {a.bucketing} | {a.encoding} | "
                         f"{a.bucket_id} | {a.prefix_length} | {a.n} | "
                         f"{a.accuracy:.4f} |")
        parts.append("")
    if bundle.failures:
        parts += ["## Failures", ""]
        for f in bundle.failures:
            where = "/".join(x for x in (f.bucketing, f.encoding, f.explainer,
                                         f.bucket_id, f.case_id) if x)
            parts.append(f"- `{f.dataset}` {f.stage} {where}: {f.error}")
        parts.append("")
    return "\n".join(parts)


def emit_report(bundle: ReportBundle, out_dir: str, format: str = "csv") -> list[str]:
    """Write the bundle under out_dir. Always writes manifest.json and
    bundle.json (and timing.csv when timings exist); the format picks the
    presentation: csv tables, a markdown report, or nothing extra for json.
    Everything except timing.csv is byte-deterministic."""
    if format not in ("csv", "json", "markdown"):
        raise UsageError(f"unknown report format {format!r}")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def path_of(name: str) -> str:
        written.append(os.path.join(out_dir, name))
        return written[-1]

    def table(name: str, columns: list[str], items) -> None:
        _write_csv(path_of(name), columns,
                   [[getattr(item, c) for c in columns] for item in items])

    write_json(path_of("manifest.json"), bundle.manifest)
    write_json(path_of("bundle.json"), bundle.to_dict())
    if bundle.timings:
        table("timing.csv", TIMING_COLUMNS, bundle.timings)
    if format == "csv":
        table("records.csv", RECORD_COLUMNS, bundle.records)
        for metric, name in (("by_subset", "aggregate_stability_subset.csv"),
                             ("by_weight", "aggregate_stability_weight.csv"),
                             ("fidelity", "aggregate_fidelity.csv")):
            table(name, AGGREGATE_COLUMNS,
                  [a for a in bundle.aggregates if a.metric == metric])
        table("accuracy_by_prefix.csv", ACCURACY_COLUMNS, bundle.accuracy)
        table("failures.csv", FAILURE_COLUMNS, bundle.failures)
    elif format == "markdown":
        with open(path_of("report.md"), "w", encoding="utf-8", newline="") as fh:
            fh.write(_render_markdown(bundle))
    return written


def read_bundle(path: str) -> ReportBundle:
    return read_json(path, "bundle", ReportBundle.from_dict)
