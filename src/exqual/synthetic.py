"""Seeded synthetic event log generation with a known labeling rule.

The generator spec is a plain dict (JSON-compatible). The labeling rule is a
stated function of named trace features, and the generated log records that
rule in its metadata so downstream tests know exactly which features drive
the outcome.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from .errors import InvalidSpec
from .eventlog import (
    CATEGORICAL,
    DYNAMIC,
    NUMERIC,
    STATIC,
    AttributeDecl,
    Event,
    EventLog,
    LogSchema,
    Trace,
)

POSITIVE_LABEL = "deviant"


def _require(spec: dict, key: str):
    if key not in spec:
        raise InvalidSpec(f"gen_spec missing {key!r}")
    return spec[key]


def _draw_numeric(dist: dict, rng: np.random.Generator) -> float:
    kind = dist.get("kind")
    if kind == "uniform":
        return float(rng.uniform(dist["lo"], dist["hi"]))
    if kind == "normal":
        return float(rng.normal(dist["mean"], dist["std"]))
    raise InvalidSpec(f"unknown numeric distribution kind {kind!r}")


def _draw_categorical(attr: dict, rng: np.random.Generator) -> str:
    cats = attr["categories"]
    weights = attr.get("weights")
    if weights is not None:
        p = np.asarray(weights, dtype=float)
        p = p / p.sum()
        return str(cats[rng.choice(len(cats), p=p)])
    return str(cats[rng.integers(0, len(cats))])


def _check_attr(attr: dict, kind: str) -> AttributeDecl:
    name = _require(attr, "name")
    dtype = _require(attr, "dtype")
    if dtype == CATEGORICAL and not attr.get("categories"):
        raise InvalidSpec(f"categorical attribute {name!r} needs categories")
    if dtype == NUMERIC and "distribution" not in attr:
        raise InvalidSpec(f"numeric attribute {name!r} needs a distribution")
    return AttributeDecl(name, kind, dtype)


def _feature_value(ref: dict, trace_activities: list[str],
                   statics: dict, dynamics_per_event: list[dict]) -> float:
    kind = ref.get("kind")
    if kind == "activity_count":
        return float(sum(1 for a in trace_activities if a == ref["activity"]))
    if kind == "static_numeric":
        v = statics.get(ref["name"])
        return 0.0 if v is None else float(v)
    if kind == "dynamic_mean":
        vals = [d.get(ref["name"]) for d in dynamics_per_event]
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else 0.0
    raise InvalidSpec(f"unknown feature reference kind {kind!r}")


def _evaluate_rule(rule: dict, trace_activities, statics, dynamics_per_event,
                   rng: np.random.Generator) -> bool:
    kind = rule.get("kind")
    if kind == "always":
        raw = True
    elif kind == "activity_occurs":
        raw = rule["activity"] in trace_activities
    elif kind == "score_threshold":
        score = sum(
            term["weight"] * _feature_value(term["feature"], trace_activities,
                                            statics, dynamics_per_event)
            for term in rule["terms"]
        )
        raw = score > rule["threshold"]
    else:
        raise InvalidSpec(f"unknown label rule kind {kind!r}")
    noise = float(rule.get("noise", 0.0))
    if noise > 0.0 and rng.random() < noise:
        raw = not raw
    return raw


def _validate_rule(rule: dict) -> None:
    kind = rule.get("kind")
    if kind == "always":
        return
    if kind == "activity_occurs":
        _require(rule, "activity")
        return
    if kind == "score_threshold":
        terms = _require(rule, "terms")
        _require(rule, "threshold")
        if not terms:
            raise InvalidSpec("score_threshold rule needs at least one term")
        for term in terms:
            _require(term, "weight")
            ref = _require(term, "feature")
            if ref.get("kind") not in ("activity_count", "static_numeric", "dynamic_mean"):
                raise InvalidSpec(f"unknown feature reference kind {ref.get('kind')!r}")
        return
    raise InvalidSpec(f"unknown label rule kind {kind!r}")


def ground_truth_features(rule: dict) -> list[dict]:
    """Feature references the labeling rule depends on (empty for 'always')."""
    if rule.get("kind") == "activity_occurs":
        return [{"kind": "activity_count", "activity": rule["activity"]}]
    if rule.get("kind") == "score_threshold":
        return [dict(term["feature"]) for term in rule["terms"]]
    return []


def generate_synthetic_log(gen_spec: dict, seed: int) -> EventLog:
    """Generate an EventLog from a generator spec, deterministically per seed.

    Required keys: n_traces, activities, trace_length {min,max}, label_rule.
    Optional: activity_weights, static_attrs, dynamic_attrs, start_time,
    case_spacing_seconds, gap_seconds {min,max}, missing_rate, case_id_prefix.

    Trace start times are strictly increasing in generation order, so a
    temporal split keeps the first traces in train.
    """
    n_traces = int(_require(gen_spec, "n_traces"))
    if n_traces < 1:
        raise InvalidSpec("n_traces must be positive")
    activities = list(_require(gen_spec, "activities"))
    if not activities:
        raise InvalidSpec("activity alphabet is empty")
    length_spec = _require(gen_spec, "trace_length")
    lo, hi = int(length_spec["min"]), int(length_spec["max"])
    if not (1 <= lo <= hi):
        raise InvalidSpec(f"bad trace_length range [{lo}, {hi}]")
    rule = _require(gen_spec, "label_rule")
    _validate_rule(rule)

    act_weights = gen_spec.get("activity_weights")
    if act_weights is not None:
        if len(act_weights) != len(activities):
            raise InvalidSpec("activity_weights length must match activities")
        act_p = np.asarray(act_weights, dtype=float)
        act_p = act_p / act_p.sum()
    else:
        act_p = None

    static_specs = list(gen_spec.get("static_attrs", []))
    dynamic_specs = list(gen_spec.get("dynamic_attrs", []))
    decls = tuple([_check_attr(a, STATIC) for a in static_specs]
                  + [_check_attr(a, DYNAMIC) for a in dynamic_specs])

    start = datetime.fromisoformat(gen_spec.get("start_time", "2024-01-01T00:00:00"))
    spacing = int(gen_spec.get("case_spacing_seconds", 3600))
    gap = gen_spec.get("gap_seconds", {"min": 60, "max": 600})
    gap_lo, gap_hi = int(gap["min"]), int(gap["max"])
    missing_rate = float(gen_spec.get("missing_rate", 0.0))
    prefix = gen_spec.get("case_id_prefix", "case")

    schema = LogSchema(
        case_id_column="case_id",
        activity_column="activity",
        timestamp_column="timestamp",
        attribute_decls=decls,
        label_column="label",
        positive_label=POSITIVE_LABEL,
    )

    rng = np.random.default_rng(seed)
    width = len(str(n_traces))
    traces = []
    for i in range(n_traces):
        case_id = f"{prefix}_{i:0{width}d}"
        length = int(rng.integers(lo, hi + 1))
        if act_p is not None:
            acts = [str(activities[j]) for j in rng.choice(len(activities), size=length, p=act_p)]
        else:
            acts = [str(activities[j]) for j in rng.integers(0, len(activities), size=length)]

        statics = {}
        for a in static_specs:
            if a["dtype"] == NUMERIC:
                v = _draw_numeric(a["distribution"], rng)
            else:
                v = _draw_categorical(a, rng)
            if missing_rate > 0.0 and rng.random() < missing_rate:
                v = None
            statics[a["name"]] = v

        dynamics_per_event = []
        for _ in range(length):
            dyn = {}
            for a in dynamic_specs:
                if a["dtype"] == NUMERIC:
                    v = _draw_numeric(a["distribution"], rng)
                else:
                    v = _draw_categorical(a, rng)
                if missing_rate > 0.0 and rng.random() < missing_rate:
                    v = None
                dyn[a["name"]] = v
            dynamics_per_event.append(dyn)

        case_start = start + timedelta(seconds=i * spacing)
        ts = case_start
        events = []
        for j in range(length):
            if j > 0:
                ts = ts + timedelta(seconds=int(rng.integers(gap_lo, gap_hi + 1)))
            events.append(Event(acts[j], ts, dynamics_per_event[j]))

        label = _evaluate_rule(rule, acts, statics, dynamics_per_event, rng)
        traces.append(Trace(case_id, tuple(events), statics, label))

    metadata = {
        "generator": dict(gen_spec),
        "seed": int(seed),
        "label_rule": dict(rule),
        "ground_truth_features": ground_truth_features(rule),
    }
    return EventLog(schema=schema, traces=tuple(traces), metadata=metadata)
