import io
import math

import numpy as np
import pytest

from exqual.errors import (
    EmptySource,
    InvalidSpec,
    MissingColumn,
    NonConstantStatic,
    SingleClass,
    TooFewTraces,
    TypeMismatch,
)
from exqual.eventlog import (
    AttributeDecl,
    LogSchema,
    downsample_majority,
    extract_prefixes,
    parse_log,
    split_train_test,
    write_log,
)
from exqual.synthetic import generate_synthetic_log

SCHEMA = LogSchema(
    case_id_column="case",
    activity_column="activity",
    timestamp_column="ts",
    attribute_decls=(
        AttributeDecl("age", "static", "numeric"),
        AttributeDecl("channel", "static", "categorical"),
        AttributeDecl("amount", "dynamic", "numeric"),
        AttributeDecl("resource", "dynamic", "categorical"),
    ),
    label_column="outcome",
    positive_label="deviant",
)

CSV_TEXT = """case,activity,ts,age,channel,amount,resource,outcome
c1,register,2024-01-01T10:00:00,34,web,100.5,alice,deviant
c1,review,2024-01-01T11:00:00,34,web,,bob,deviant
c2,register,2024-01-01T10:30:00,51,phone,20,alice,regular
c1,close,2024-01-01T12:00:00,34,web,80,alice,deviant
c2,close,2024-01-01T10:45:00,51,phone,30,carol,regular
c3,register,2024-01-02T09:00:00,,web,5,bob,regular
"""


def parse_text(text, schema=SCHEMA):
    return parse_log(io.StringIO(text), schema)


def csv_text(log, tmp_path):
    path = tmp_path / "log.csv"
    write_log(log, str(path))
    return path.read_text(encoding="utf-8")


def test_parse_groups_and_orders_events():
    log = parse_text(CSV_TEXT)
    assert len(log) == 3
    by_id = {t.case_id: t for t in log.traces}
    assert [e.activity for e in by_id["c1"].events] == ["register", "review", "close"]
    assert [e.activity for e in by_id["c2"].events] == ["register", "close"]
    assert by_id["c1"].label is True
    assert by_id["c2"].label is False
    assert by_id["c1"].static_attrs == {"age": 34.0, "channel": "web"}
    # empty cells are missing markers
    assert by_id["c1"].events[1].dynamic_attrs["amount"] is None
    assert by_id["c3"].static_attrs["age"] is None
    assert log.class_counts() == (1, 2)


def test_parse_sorts_by_timestamp_with_source_order_tiebreak():
    text = (
        "case,activity,ts,age,channel,amount,resource,outcome\n"
        "c1,b,2024-01-01T10:00:00,1,web,1,r,regular\n"
        "c1,a,2024-01-01T10:00:00,1,web,1,r,regular\n"
    )
    log = parse_text(text)
    assert [e.activity for e in log.traces[0].events] == ["b", "a"]


def test_parse_missing_column():
    bad = CSV_TEXT.replace("amount", "amnt")
    with pytest.raises(MissingColumn) as err:
        parse_text(bad)
    assert err.value.name == "amount"


def test_parse_type_mismatch_reports_location():
    bad = CSV_TEXT.replace("100.5", "lots")
    with pytest.raises(TypeMismatch) as err:
        parse_text(bad)
    assert err.value.row == 2
    assert err.value.column == "amount"
    assert err.value.value == "lots"


def test_parse_non_finite_number_reports_location():
    for token in ("inf", "-Infinity", "nan"):
        with pytest.raises(TypeMismatch) as err:
            parse_text(CSV_TEXT.replace("100.5", token))
        assert (err.value.row, err.value.column, err.value.value) == (2, "amount", token)


def test_parse_bad_timestamp():
    bad = CSV_TEXT.replace("2024-01-01T10:30:00", "yesterday")
    with pytest.raises(TypeMismatch):
        parse_text(bad)


def test_parse_ragged_row():
    bad = CSV_TEXT + "c4,register,2024-01-03T09:00:00,1\n"
    with pytest.raises(TypeMismatch):
        parse_text(bad)


def test_parse_non_constant_static():
    bad = CSV_TEXT.replace("c1,review,2024-01-01T11:00:00,34",
                           "c1,review,2024-01-01T11:00:00,35")
    with pytest.raises(NonConstantStatic) as err:
        parse_text(bad)
    assert err.value.case_id == "c1"
    assert err.value.attr == "age"


def test_parse_non_constant_label():
    bad = CSV_TEXT.replace("c1,close,2024-01-01T12:00:00,34,web,80,alice,deviant",
                           "c1,close,2024-01-01T12:00:00,34,web,80,alice,regular")
    with pytest.raises(NonConstantStatic):
        parse_text(bad)


def test_parse_empty_source():
    with pytest.raises(EmptySource):
        parse_text("case,activity,ts,age,channel,amount,resource,outcome\n")
    with pytest.raises(EmptySource):
        parse_text("")


def test_round_trip_through_csv(tmp_path):
    log = parse_text(CSV_TEXT)
    again = parse_text(csv_text(log, tmp_path))
    assert again.traces == log.traces


def test_extract_prefixes_counts():
    log = parse_text(CSV_TEXT)  # lengths 3, 2, 1
    pl = extract_prefixes(log, 1, 10)
    assert len(pl) == 3 + 2 + 1
    pl = extract_prefixes(log, 2, 2)
    assert len(pl) == 2
    assert all(e.prefix_length == 2 for e in pl.entries)
    assert all(len(e.trace) == 2 for e in pl.entries)
    # traces shorter than min_len contribute nothing
    pl = extract_prefixes(log, 3, 5)
    assert [e.case_id for e in pl.entries] == ["c1"]
    with pytest.raises(InvalidSpec):
        extract_prefixes(log, 0, 3)
    with pytest.raises(InvalidSpec):
        extract_prefixes(log, 4, 2)


def test_extract_prefixes_count_formula_matches_direct_sum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        log = generate_synthetic_log({
            "n_traces": int(rng.integers(2, 15)),
            "activities": ["a", "b"],
            "trace_length": {"min": 1, "max": int(rng.integers(1, 9))},
            "label_rule": {"kind": "always"},
        }, seed=int(rng.integers(0, 10_000)))
        lo = int(rng.integers(1, 4))
        hi = lo + int(rng.integers(0, 5))
        expected = sum(max(0, min(hi, len(t)) - lo + 1) for t in log.traces)
        assert len(extract_prefixes(log, lo, hi)) == expected


def test_prefix_truncation_preserves_case_fields():
    log = parse_text(CSV_TEXT)
    pl = extract_prefixes(log, 1, 1)
    entry = next(e for e in pl.entries if e.case_id == "c1")
    assert len(entry.trace.events) == 1
    assert entry.trace.static_attrs == {"age": 34.0, "channel": "web"}
    assert entry.label is True


def synth_log(n=40, seed=0, spacing=3600):
    return generate_synthetic_log({
        "n_traces": n,
        "activities": ["a", "b", "c"],
        "trace_length": {"min": 2, "max": 6},
        "case_spacing_seconds": spacing,
        "label_rule": {"kind": "activity_occurs", "activity": "c"},
    }, seed=seed)


def test_split_is_temporal_and_sized_by_floor():
    log = synth_log(n=41)
    train, test = split_train_test(log, 0.8, seed=5)
    assert len(train) == math.floor(41 * 0.8) == 32
    assert len(test) == 9
    latest_train = max(t.start_time for t in train.traces)
    earliest_test = min(t.start_time for t in test.traces)
    assert latest_train <= earliest_test
    ids = {t.case_id for t in train.traces} | {t.case_id for t in test.traces}
    assert len(ids) == 41


def test_split_deterministic_and_seed_breaks_ties():
    log = synth_log(n=30, spacing=0)  # all start times collide
    a1, b1 = split_train_test(log, 0.7, seed=9)
    a2, b2 = split_train_test(log, 0.7, seed=9)
    assert [t.case_id for t in a1.traces] == [t.case_id for t in a2.traces]
    assert [t.case_id for t in b1.traces] == [t.case_id for t in b2.traces]
    a3, _ = split_train_test(log, 0.7, seed=10)
    assert [t.case_id for t in a1.traces] != [t.case_id for t in a3.traces]


def test_split_rejects_tiny_logs_and_bad_fractions():
    log = synth_log(n=1)
    with pytest.raises(TooFewTraces):
        split_train_test(log, 0.8, seed=0)
    with pytest.raises(InvalidSpec):
        split_train_test(synth_log(n=5), 1.0, seed=0)


def test_downsample_balances_and_keeps_order():
    log = synth_log(n=60, seed=3)
    pos, neg = log.class_counts()
    assert pos != neg  # fixture must actually be imbalanced
    balanced = downsample_majority(log, seed=1)
    bpos, bneg = balanced.class_counts()
    assert bpos == bneg == min(pos, neg)
    kept = [t.case_id for t in balanced.traces]
    original = [t.case_id for t in log.traces if t.case_id in set(kept)]
    assert kept == original  # subset, original order
    again = downsample_majority(log, seed=1)
    assert [t.case_id for t in again.traces] == kept


def test_downsample_single_class_rejected():
    log = generate_synthetic_log({
        "n_traces": 5,
        "activities": ["a"],
        "trace_length": {"min": 1, "max": 2},
        "label_rule": {"kind": "always"},
    }, seed=0)
    with pytest.raises(SingleClass):
        downsample_majority(log, seed=0)


def test_downsample_noop_when_balanced():
    log = synth_log(n=60, seed=3)
    balanced = downsample_majority(log, seed=1)
    assert downsample_majority(balanced, seed=2) == balanced


def test_synthetic_deterministic_per_seed(tmp_path):
    spec = {
        "n_traces": 12,
        "activities": ["a", "b", "c"],
        "trace_length": {"min": 1, "max": 5},
        "static_attrs": [
            {"name": "priority", "dtype": "categorical", "categories": ["low", "high"]},
            {"name": "budget", "dtype": "numeric",
             "distribution": {"kind": "uniform", "lo": 0, "hi": 10}},
        ],
        "dynamic_attrs": [
            {"name": "cost", "dtype": "numeric",
             "distribution": {"kind": "normal", "mean": 5, "std": 2}},
        ],
        "missing_rate": 0.1,
        "label_rule": {"kind": "activity_occurs", "activity": "b", "noise": 0.1},
    }
    a = csv_text(generate_synthetic_log(spec, seed=42), tmp_path)
    b = csv_text(generate_synthetic_log(spec, seed=42), tmp_path)
    c = csv_text(generate_synthetic_log(spec, seed=43), tmp_path)
    assert a == b
    assert a != c


def test_synthetic_respects_bounds_and_rule():
    log = synth_log(n=50, seed=11)
    assert all(2 <= len(t) <= 6 for t in log.traces)
    for t in log.traces:  # noise-free rule: label == containment
        assert t.label == any(e.activity == "c" for e in t.events)
    starts = [t.start_time for t in log.traces]
    assert all(s1 < s2 for s1, s2 in zip(starts, starts[1:]))
    assert log.metadata["ground_truth_features"] == [
        {"kind": "activity_count", "activity": "c"}]


def test_synthetic_score_threshold_rule():
    log = generate_synthetic_log({
        "n_traces": 30,
        "activities": ["a", "b"],
        "trace_length": {"min": 3, "max": 8},
        "label_rule": {
            "kind": "score_threshold",
            "terms": [{"feature": {"kind": "activity_count", "activity": "a"}, "weight": 1.0}],
            "threshold": 3.0,
        },
    }, seed=2)
    for t in log.traces:
        count = sum(1 for e in t.events if e.activity == "a")
        assert t.label == (count > 3.0)


def test_synthetic_rejects_malformed_specs():
    base = {"n_traces": 3, "activities": ["a"], "trace_length": {"min": 1, "max": 2}}
    with pytest.raises(InvalidSpec):
        generate_synthetic_log({**base, "label_rule": {"kind": "sometimes"}}, seed=0)
    with pytest.raises(InvalidSpec):
        generate_synthetic_log({**base, "label_rule": {"kind": "score_threshold",
                                                       "terms": [], "threshold": 0}}, seed=0)
    with pytest.raises(InvalidSpec):
        generate_synthetic_log({"n_traces": 0, "activities": ["a"],
                                "trace_length": {"min": 1, "max": 2},
                                "label_rule": {"kind": "always"}}, seed=0)
    with pytest.raises(InvalidSpec):
        generate_synthetic_log({**base, "activities": [],
                                "label_rule": {"kind": "always"}}, seed=0)


def test_schema_round_trip_and_validation():
    doc = SCHEMA.to_dict()
    assert LogSchema.from_dict(doc) == SCHEMA
    with pytest.raises(InvalidSpec):
        LogSchema("c", "c", "ts", (), "y", "pos")  # duplicate column name
    with pytest.raises(InvalidSpec):
        AttributeDecl("x", "static", "text")
