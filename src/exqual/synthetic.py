"""Seeded synthetic event log generation with a known labeling rule.

The generator spec is a plain dict (JSON-compatible). The labeling rule is a
stated function of named trace features, and the generated log records that
rule in its metadata so downstream tests know exactly which features drive
the outcome.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta

import numpy as np

from .errors import NULL, NUMBER, InvalidSpec, check_options
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

# generator spec objects -> accepted JSON value types, checked exactly by
# check_options; a kind (or dtype) selects the table of its object
_GEN_SPEC = {"n_traces": (int,), "activities": (list,), "trace_length": (dict,),
             "label_rule": (dict,), "activity_weights": (list, NULL),
             "static_attrs": (list,), "dynamic_attrs": (list,), "start_time": (str,),
             "case_spacing_seconds": (int,), "gap_seconds": (dict,),
             "missing_rate": NUMBER, "case_id_prefix": (str,)}
_GEN_SPEC_REQUIRED = ("n_traces", "activities", "trace_length", "label_rule")
_RANGE = {"min": (int,), "max": (int,)}
_ATTRIBUTES = {
    CATEGORICAL: {"name": (str,), "dtype": (str,), "categories": (list,),
                  "weights": (list, NULL)},
    NUMERIC: {"name": (str,), "dtype": (str,), "distribution": (dict,)},
}
_DISTRIBUTIONS = {
    "uniform": {"kind": (str,), "lo": NUMBER, "hi": NUMBER},
    "normal": {"kind": (str,), "mean": NUMBER, "std": NUMBER},
}
_RULES = {
    "always": {"kind": (str,), "noise": NUMBER},
    "activity_occurs": {"kind": (str,), "activity": (str,), "noise": NUMBER},
    "score_threshold": {"kind": (str,), "terms": (list,), "threshold": NUMBER,
                        "noise": NUMBER},
}
_TERM = {"weight": NUMBER, "feature": (dict,)}
_FEATURES = {
    "activity_count": {"kind": (str,), "activity": (str,)},
    "static_numeric": {"kind": (str,), "name": (str,)},
    "dynamic_mean": {"kind": (str,), "name": (str,)},
}


def _check(doc, types: dict, what: str, optional=()) -> dict:
    """check_options, and every key of types that is not optional present."""
    check_options(doc, types, what)
    missing = sorted(set(types) - set(doc) - set(optional))
    if missing:
        raise InvalidSpec(f"{what} needs the keys {missing}")
    return doc


def _check_kind(doc, tables: dict, what: str, key: str = "kind", optional=()) -> dict:
    """_check against the table that doc's `key` value names."""
    kind = doc.get(key) if isinstance(doc, dict) else None
    if type(kind) is not str or kind not in tables:
        raise InvalidSpec(f"{what} needs a {key} among {sorted(tables)}, got {doc!r}")
    return _check(doc, tables[kind], f"{kind} {what}", optional)


def _check_probability(value, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvalidSpec(f"{what} must lie in [0, 1], got {value!r}")


def _check_weights(weights: list, n: int, what: str) -> None:
    if len(weights) != n:
        raise InvalidSpec(f"{what} needs {n} weights, got {len(weights)}")
    if any(type(w) not in NUMBER or not 0.0 <= w < math.inf for w in weights) \
            or not sum(weights) > 0:
        raise InvalidSpec(f"{what} must be finite numbers >= 0 with a positive sum")


def _check_strings(values: list, what: str) -> None:
    if not values or any(type(v) is not str for v in values):
        raise InvalidSpec(f"{what} must be a nonempty list of strings")


def _check_attribute(attr) -> None:
    _check_kind(attr, _ATTRIBUTES, "attribute", key="dtype", optional=("weights",))
    if attr["dtype"] == CATEGORICAL:
        _check_strings(attr["categories"], f"categories of {attr['name']!r}")
        if attr.get("weights") is not None:
            _check_weights(attr["weights"], len(attr["categories"]),
                           f"weights of {attr['name']!r}")
        return
    dist = _check_kind(attr["distribution"], _DISTRIBUTIONS, "distribution")
    if dist["kind"] == "normal" and not dist["std"] >= 0:
        raise InvalidSpec(f"std of {attr['name']!r} must be >= 0")


def _check_rule(rule) -> None:
    _check_kind(rule, _RULES, "label_rule", optional=("noise",))
    _check_probability(rule.get("noise", 0.0), "label_rule noise")
    if rule["kind"] == "score_threshold":
        if not rule["terms"]:
            raise InvalidSpec("score_threshold rule needs at least one term")
        for term in rule["terms"]:
            _check(term, _TERM, "score_threshold term")
            _check_kind(term["feature"], _FEATURES, "feature reference")


def check_gen_spec(gen_spec) -> dict:
    """gen_spec, once every key has its documented JSON type (numbers are
    int or float, never bool; counts and seconds are int), the required
    keys and each kind's keys are present, and the values can be drawn
    from. Raises InvalidSpec otherwise."""
    _check(gen_spec, _GEN_SPEC, "gen_spec",
           optional=set(_GEN_SPEC) - set(_GEN_SPEC_REQUIRED))
    if gen_spec["n_traces"] < 1:
        raise InvalidSpec("n_traces must be positive")
    activities = gen_spec["activities"]
    _check_strings(activities, "activities")
    length = _check(gen_spec["trace_length"], _RANGE, "trace_length")
    if not 1 <= length["min"] <= length["max"]:
        raise InvalidSpec(f"bad trace_length range [{length['min']}, {length['max']}]")
    if "gap_seconds" in gen_spec:
        gap = _check(gen_spec["gap_seconds"], _RANGE, "gap_seconds")
        if gap["min"] > gap["max"]:
            raise InvalidSpec(f"bad gap_seconds range [{gap['min']}, {gap['max']}]")
    if gen_spec.get("activity_weights") is not None:
        _check_weights(gen_spec["activity_weights"], len(activities), "activity_weights")
    for attr in gen_spec.get("static_attrs", []) + gen_spec.get("dynamic_attrs", []):
        _check_attribute(attr)
    _schema(gen_spec)  # refuses an attribute name used twice or by a log column
    _check_probability(gen_spec.get("missing_rate", 0.0), "missing_rate")
    try:
        datetime.fromisoformat(gen_spec.get("start_time", "2024-01-01T00:00:00"))
    except ValueError as exc:
        raise InvalidSpec(f"start_time: {exc}") from None
    _check_rule(gen_spec["label_rule"])
    return gen_spec


def _schema(gen_spec: dict) -> LogSchema:
    decls = tuple([AttributeDecl(a["name"], STATIC, a["dtype"])
                   for a in gen_spec.get("static_attrs", [])]
                  + [AttributeDecl(a["name"], DYNAMIC, a["dtype"])
                     for a in gen_spec.get("dynamic_attrs", [])])
    return LogSchema(
        case_id_column="case_id",
        activity_column="activity",
        timestamp_column="timestamp",
        attribute_decls=decls,
        label_column="label",
        positive_label=POSITIVE_LABEL,
    )


def _draw_numeric(dist: dict, rng: np.random.Generator) -> float:
    if dist["kind"] == "uniform":
        return float(rng.uniform(dist["lo"], dist["hi"]))
    return float(rng.normal(dist["mean"], dist["std"]))


def _draw_categorical(attr: dict, rng: np.random.Generator) -> str:
    cats = attr["categories"]
    weights = attr.get("weights")
    if weights is not None:
        p = np.asarray(weights, dtype=float)
        p = p / p.sum()
        return str(cats[rng.choice(len(cats), p=p)])
    return str(cats[rng.integers(0, len(cats))])


def _feature_value(ref: dict, trace_activities: list[str],
                   statics: dict, dynamics_per_event: list[dict]) -> float:
    kind = ref["kind"]
    if kind == "activity_count":
        return float(sum(1 for a in trace_activities if a == ref["activity"]))
    if kind == "static_numeric":
        v = statics.get(ref["name"])
        return 0.0 if v is None else float(v)
    vals = [d.get(ref["name"]) for d in dynamics_per_event]  # dynamic_mean
    vals = [v for v in vals if v is not None]
    return float(np.mean(vals)) if vals else 0.0


def _evaluate_rule(rule: dict, trace_activities, statics, dynamics_per_event,
                   rng: np.random.Generator) -> bool:
    kind = rule["kind"]
    if kind == "always":
        raw = True
    elif kind == "activity_occurs":
        raw = rule["activity"] in trace_activities
    else:  # score_threshold
        score = sum(
            term["weight"] * _feature_value(term["feature"], trace_activities,
                                            statics, dynamics_per_event)
            for term in rule["terms"]
        )
        raw = score > rule["threshold"]
    noise = float(rule.get("noise", 0.0))
    if noise > 0.0 and rng.random() < noise:
        raw = not raw
    return raw


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
    `check_gen_spec` gives each key's JSON type.

    Trace start times are strictly increasing in generation order, so a
    temporal split keeps the first traces in train.
    """
    check_gen_spec(gen_spec)
    if seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")
    n_traces = gen_spec["n_traces"]
    activities = gen_spec["activities"]
    lo, hi = gen_spec["trace_length"]["min"], gen_spec["trace_length"]["max"]
    rule = gen_spec["label_rule"]

    act_weights = gen_spec.get("activity_weights")
    if act_weights is not None:
        act_p = np.asarray(act_weights, dtype=float)
        act_p = act_p / act_p.sum()
    else:
        act_p = None

    static_specs = gen_spec.get("static_attrs", [])
    dynamic_specs = gen_spec.get("dynamic_attrs", [])

    start = datetime.fromisoformat(gen_spec.get("start_time", "2024-01-01T00:00:00"))
    spacing = gen_spec.get("case_spacing_seconds", 3600)
    gap = gen_spec.get("gap_seconds", {"min": 60, "max": 600})
    gap_lo, gap_hi = gap["min"], gap["max"]
    missing_rate = float(gen_spec.get("missing_rate", 0.0))
    prefix = gen_spec.get("case_id_prefix", "case")

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
    return EventLog(schema=_schema(gen_spec), traces=tuple(traces), metadata=metadata)
