import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from exqual.encoding import (
    AGGREGATE,
    INDEX_BASED,
    OTHER_CATEGORY,
    BucketingStrategy,
    CategoryVocabulary,
    MatrixStats,
    bucket,
    build_vocabulary,
    encode,
    feature_domain,
    read_matrix,
    write_matrix,
)
from exqual.errors import AllMissingColumn, EmptyBucket, InvalidSpec
from exqual.eventlog import (
    AttributeDecl,
    Event,
    EventLog,
    LogSchema,
    Trace,
    extract_prefixes,
)
from exqual.synthetic import generate_synthetic_log

T0 = datetime(2024, 1, 1, 9, 0, 0)


def make_trace(case_id, activities, label=False, statics=None, amounts=None, resources=None):
    events = []
    for i, act in enumerate(activities):
        dyn = {}
        if amounts is not None:
            dyn["amount"] = amounts[i]
        if resources is not None:
            dyn["resource"] = resources[i]
        events.append(Event(act, T0 + timedelta(minutes=10 * i), dyn))
    return Trace(case_id, tuple(events), statics or {}, label)


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

VOCAB = CategoryVocabulary({
    "activity": ("A", "B", "C"),
    "channel": ("phone", "web"),
    "resource": ("alice", "bob"),
})

SIMPLE_SCHEMA = LogSchema(
    case_id_column="case",
    activity_column="activity",
    timestamp_column="ts",
    attribute_decls=(AttributeDecl("amount", "dynamic", "numeric"),),
    label_column="outcome",
    positive_label="deviant",
)

SIMPLE_VOCAB = CategoryVocabulary({"activity": ("A", "B", "C")})


def one_trace_bucket(trace):
    log = EventLog(SIMPLE_SCHEMA, (trace,))
    return extract_prefixes(log, len(trace), len(trace))


def test_aggregate_counts_and_stats_hand_checked():
    trace = make_trace("c1", ["A", "A", "B"], amounts=[1.0, 3.0, 2.0])
    m = encode(one_trace_bucket(trace), SIMPLE_SCHEMA, AGGREGATE, SIMPLE_VOCAB)
    by_name = dict(zip(m.feature_names(), m.rows[0]))
    assert by_name["activity=A#count"] == 2.0
    assert by_name["activity=B#count"] == 1.0
    assert by_name["activity=C#count"] == 0.0
    assert by_name[f"activity={OTHER_CATEGORY}#count"] == 0.0
    assert by_name["amount#min"] == 1.0
    assert by_name["amount#max"] == 3.0
    assert by_name["amount#mean"] == 2.0
    assert by_name["amount#std"] == 1.0  # sample std of {1,2,3}


def test_aggregate_statistics_bitwise_equal_to_per_row_reductions():
    """Rows with 0 to 20 present values, gaps of None between them and
    magnitudes far apart: each agg_* cell holds exactly the float a call on
    that row's present values alone gives."""
    rng = np.random.default_rng(12)
    traces = []
    for c in range(60):
        n_events = int(rng.integers(1, 27))
        amounts = (rng.normal(size=n_events) * 10.0 ** rng.integers(-3, 7, size=n_events)).tolist()
        for i in np.flatnonzero(rng.random(n_events) < 0.25):
            amounts[i] = None
        traces.append(make_trace(f"c{c}", ["A"] * n_events, amounts=amounts))
    prefixes = extract_prefixes(EventLog(SIMPLE_SCHEMA, tuple(traces)), 1, 26)
    m = encode(prefixes, SIMPLE_SCHEMA, AGGREGATE, SIMPLE_VOCAB)
    col = {name: j for j, name in enumerate(m.feature_names())}
    seen = set()
    for r, entry in enumerate(prefixes.entries):
        present = np.asarray([ev.dynamic_attrs["amount"] for ev in entry.trace.events
                              if ev.dynamic_attrs["amount"] is not None], dtype=np.float64)
        seen.add(len(present))
        expected = {"min": np.nan, "max": np.nan, "mean": np.nan, "std": np.nan}
        if len(present):
            expected = {"min": present.min(), "max": present.max(), "mean": present.mean(),
                        "std": present.std(ddof=1) if len(present) > 1 else 0.0}
        for stat, value in expected.items():
            got = m.rows[r, col[f"amount#{stat}"]]
            assert np.float64(got).tobytes() == np.float64(value).tobytes(), (r, stat)
    assert set(range(21)) <= seen


def test_index_onehot_hand_checked():
    trace = make_trace("c1", ["A", "B"], amounts=[1.0, 2.0])
    m = encode(one_trace_bucket(trace), SIMPLE_SCHEMA, INDEX_BASED, SIMPLE_VOCAB,
               index_padding_len=3)
    by_name = dict(zip(m.feature_names(), m.rows[0]))
    assert [by_name["activity=A@1"], by_name["activity=B@1"], by_name["activity=C@1"]] == [1.0, 0.0, 0.0]
    assert [by_name["activity=A@2"], by_name["activity=B@2"], by_name["activity=C@2"]] == [0.0, 1.0, 0.0]
    # positions beyond the prefix are missing-marked
    assert math.isnan(by_name["activity=A@3"])
    assert math.isnan(by_name["amount@3"])
    assert by_name["amount@1"] == 1.0 and by_name["amount@2"] == 2.0


def test_column_layout_is_static_block_then_sorted_dynamic():
    trace = make_trace("c1", ["A"], statics={"age": 30.0, "channel": "web"},
                       amounts=[1.0], resources=["alice"])
    log = EventLog(SCHEMA, (trace,))
    m = encode(extract_prefixes(log, 1, 1), SCHEMA, AGGREGATE, VOCAB)
    assert m.feature_names() == [
        "age",
        "channel=phone", "channel=web", f"channel={OTHER_CATEGORY}",
        "activity=A#count", "activity=B#count", "activity=C#count",
        f"activity={OTHER_CATEGORY}#count",
        "amount#min", "amount#max", "amount#mean", "amount#std",
        "resource=alice#count", "resource=bob#count", f"resource={OTHER_CATEGORY}#count",
    ]
    assert m.d == 15
    for j, desc in enumerate(m.descriptors):
        assert desc.column_index == j
    # one-hot/count descriptors carry a category, others don't
    for desc in m.descriptors:
        has_cat = desc.encoder in ("static_onehot", "agg_count", "index_onehot")
        assert (desc.category is not None) == has_cat


def test_index_width_formula_and_event_index_provenance():
    trace = make_trace("c1", ["A", "B"], statics={"age": 1.0, "channel": "web"},
                       amounts=[1.0, 2.0], resources=["alice", "bob"])
    log = EventLog(SCHEMA, (trace,))
    for pad in (2, 5, 9):
        m = encode(extract_prefixes(log, 2, 2), SCHEMA, INDEX_BASED, VOCAB,
                   index_padding_len=pad)
        # static block 4 + per index: activity one-hot 4 + amount 1 + resource one-hot 3
        assert m.d == 4 + pad * (4 + 1 + 3)
        indexed = [d for d in m.descriptors if d.event_index is not None]
        assert {d.event_index for d in indexed} == set(range(1, pad + 1))


def test_unseen_category_maps_to_other_everywhere():
    trace = make_trace("c1", ["A", "Z"], statics={"age": 2.0, "channel": "fax"},
                       amounts=[1.0, 1.0], resources=["alice", "mallory"])
    log = EventLog(SCHEMA, (trace,))
    m = encode(extract_prefixes(log, 2, 2), SCHEMA, AGGREGATE, VOCAB)
    by_name = dict(zip(m.feature_names(), m.rows[0]))
    assert by_name[f"channel={OTHER_CATEGORY}"] == 1.0
    assert by_name["channel=web"] == 0.0
    assert by_name[f"activity={OTHER_CATEGORY}#count"] == 1.0
    assert by_name[f"resource={OTHER_CATEGORY}#count"] == 1.0
    assert by_name["resource=alice#count"] == 1.0


def test_missing_values_stay_missing():
    trace = make_trace("c1", ["A", "B"], statics={"age": None, "channel": None},
                       amounts=[None, None], resources=[None, "bob"])
    log = EventLog(SCHEMA, (trace,))
    m = encode(extract_prefixes(log, 2, 2), SCHEMA, AGGREGATE, VOCAB)
    by_name = dict(zip(m.feature_names(), m.rows[0]))
    assert math.isnan(by_name["age"])
    for cat in ("phone", "web", OTHER_CATEGORY):
        assert math.isnan(by_name[f"channel={cat}"])
    for stat in ("min", "max", "mean", "std"):
        assert math.isnan(by_name[f"amount#{stat}"])
    # missing categorical event values count toward no category
    assert by_name["resource=bob#count"] == 1.0
    assert by_name["resource=alice#count"] == 0.0
    assert by_name[f"resource={OTHER_CATEGORY}#count"] == 0.0

    mi = encode(extract_prefixes(log, 2, 2), SCHEMA, INDEX_BASED, VOCAB)
    by_name = dict(zip(mi.feature_names(), mi.rows[0]))
    assert math.isnan(by_name["amount@1"])
    assert math.isnan(by_name["resource=alice@1"])
    assert by_name["resource=bob@2"] == 1.0


def test_singleton_aggregate_statistics():
    trace = make_trace("c1", ["A"], amounts=[7.0])
    m = encode(one_trace_bucket(trace), SIMPLE_SCHEMA, AGGREGATE, SIMPLE_VOCAB)
    by_name = dict(zip(m.feature_names(), m.rows[0]))
    assert by_name["amount#min"] == by_name["amount#max"] == by_name["amount#mean"] == 7.0
    assert by_name["amount#std"] == 0.0


def synth_prefixes(n=25, seed=4, min_len=1, max_len=6):
    log = generate_synthetic_log({
        "n_traces": n,
        "activities": ["a", "b", "c", "d"],
        "trace_length": {"min": min_len, "max": max_len},
        "dynamic_attrs": [
            {"name": "cost", "dtype": "numeric",
             "distribution": {"kind": "normal", "mean": 3, "std": 1}},
        ],
        "label_rule": {"kind": "activity_occurs", "activity": "c"},
    }, seed=seed)
    return log, extract_prefixes(log, min_len, max_len)


def test_activity_count_sum_equals_prefix_length():
    log, pl = synth_prefixes()
    vocab = build_vocabulary(log, log.schema)
    m = encode(pl, log.schema, AGGREGATE, vocab)
    count_cols = [d.column_index for d in m.descriptors
                  if d.encoder == "agg_count" and d.source_attr == "activity"]
    sums = m.rows[:, count_cols].sum(axis=1)
    assert np.array_equal(sums, m.prefix_lengths.astype(float))


def test_encoding_invariant_under_trace_permutation():
    log, pl = synth_prefixes()
    vocab = build_vocabulary(log, log.schema)
    m1 = encode(pl, log.schema, AGGREGATE, vocab)
    reversed_pl = type(pl)(tuple(reversed(pl.entries)))
    m2 = encode(reversed_pl, log.schema, AGGREGATE, vocab)
    assert m1.descriptors == m2.descriptors
    for i in range(m1.n):
        j = m2.row_index(m1.case_ids[i], int(m1.prefix_lengths[i]))
        assert np.array_equal(m1.rows[i], m2.rows[j], equal_nan=True)


def test_bucketing_single_and_by_prefix_length():
    _, pl = synth_prefixes()
    single = bucket(pl, BucketingStrategy("single"))
    assert len(single) == 1 and single[0][0] == "all"
    assert single[0][1] is pl

    per_len = bucket(pl, BucketingStrategy("prefix_length"))
    lengths = sorted({e.prefix_length for e in pl.entries})
    assert [bid for bid, _ in per_len] == [str(length) for length in lengths]
    total = 0
    seen = set()
    for bid, b in per_len:
        assert all(e.prefix_length == int(bid) for e in b.entries)
        for e in b.entries:
            key = (e.case_id, e.prefix_length)
            assert key not in seen
            seen.add(key)
        total += len(b)
    assert total == len(pl)

    with pytest.raises(InvalidSpec):
        BucketingStrategy("weekly")
    with pytest.raises(EmptyBucket):
        bucket(type(pl)(()), BucketingStrategy("single"))


def test_aggregate_width_constant_index_width_linear_across_buckets():
    log, pl = synth_prefixes(n=30, seed=9, min_len=1, max_len=7)
    vocab = build_vocabulary(log, log.schema)
    agg_widths, idx_widths, lengths = [], [], []
    for bid, b in bucket(pl, BucketingStrategy("prefix_length")):
        agg_widths.append(encode(b, log.schema, AGGREGATE, vocab, bucket_id=bid).d)
        idx_widths.append(encode(b, log.schema, INDEX_BASED, vocab, bucket_id=bid).d)
        lengths.append(int(bid))
    assert len(set(agg_widths)) == 1
    # index width = per-index block * L: exactly linear through the origin
    per_index = {w / length for w, length in zip(idx_widths, lengths)}
    assert len(per_index) == 1


def test_feature_domain_kinds():
    log, pl = synth_prefixes()
    vocab = build_vocabulary(log, log.schema)
    m = encode(pl, log.schema, INDEX_BASED, vocab)
    onehot_col = next(d.column_index for d in m.descriptors if d.encoder == "index_onehot")
    dom = feature_domain(m, onehot_col)
    assert dom.is_binary_indicator and dom.is_integer_valued
    assert dom.values == (0.0, 1.0)

    trace = make_trace("c1", ["A", "A", "B"], amounts=[1.0, 3.0, 2.0])
    ma = encode(one_trace_bucket(trace), SIMPLE_SCHEMA, AGGREGATE, SIMPLE_VOCAB)
    mean_col = next(d.column_index for d in ma.descriptors if d.encoder == "agg_mean")
    dom = feature_domain(ma, mean_col)
    assert (dom.lo, dom.hi) == (2.0, 2.0)
    count_col = next(d.column_index for d in ma.descriptors
                     if d.encoder == "agg_count" and d.category == "A")
    dom = feature_domain(ma, count_col)
    assert dom.is_integer_valued and not dom.is_binary_indicator
    assert dom.values == (2.0,)

    with pytest.raises(InvalidSpec):
        feature_domain(ma, 99)


def test_feature_domain_count_value_set_from_fixture():
    traces = tuple(make_trace(f"c{i}", acts, amounts=[1.0] * len(acts))
                   for i, acts in enumerate([["B"], ["B"], ["A", "A"],
                                             ["A"] * 5]))
    log = EventLog(SIMPLE_SCHEMA, traces)
    pl = extract_prefixes(log, 1, 10)
    longest = {}
    for e in pl.entries:  # keep each case's full-length prefix only
        if e.case_id not in longest or e.prefix_length > longest[e.case_id].prefix_length:
            longest[e.case_id] = e
    full = type(pl)(tuple(longest.values()))
    m = encode(full, SIMPLE_SCHEMA, AGGREGATE, SIMPLE_VOCAB)
    col = next(d.column_index for d in m.descriptors
               if d.encoder == "agg_count" and d.category == "A")
    dom = feature_domain(m, col)
    assert (dom.lo, dom.hi) == (0.0, 5.0)
    assert dom.values == (0.0, 2.0, 5.0)


def test_feature_domain_all_missing_column():
    trace = make_trace("c1", ["A"], amounts=[None])
    m = encode(one_trace_bucket(trace), SIMPLE_SCHEMA, AGGREGATE, SIMPLE_VOCAB)
    col = next(d.column_index for d in m.descriptors if d.encoder == "agg_mean")
    with pytest.raises(AllMissingColumn):
        feature_domain(m, col)


def test_matrix_stats():
    log, pl = synth_prefixes(n=40, seed=12)
    vocab = build_vocabulary(log, log.schema)
    m = encode(pl, log.schema, AGGREGATE, vocab)
    stats = MatrixStats.from_matrix(m)
    assert stats.d == m.d
    j = next(d.column_index for d in m.descriptors if d.encoder == "agg_mean")
    col = m.rows[:, j]
    present = col[~np.isnan(col)]
    assert stats.means[j] == pytest.approx(present.mean())
    assert stats.scales[j] == pytest.approx(present.std())
    assert math.isnan(stats.p_one[j])
    edges = stats.bin_edges[j]
    assert edges[0] == present.min() and edges[-1] == present.max()
    assert stats.bin_of(j, present.min()) == 0
    assert stats.bin_of(j, present.max()) == 3
    lo, hi = stats.bin_interval(j, stats.bin_of(j, float(present[0])))
    assert lo <= present[0] <= hi

    mi = encode(pl, log.schema, INDEX_BASED, vocab)
    si = MatrixStats.from_matrix(mi)
    onehot = next(d.column_index for d in mi.descriptors if d.encoder == "index_onehot")
    col = mi.rows[:, onehot]
    present = col[~np.isnan(col)]
    assert si.p_one[onehot] == pytest.approx((present == 1.0).mean())
    assert si.bin_edges[onehot] is None


def test_matrix_stats_tolerates_all_missing_column():
    trace = make_trace("c1", ["A"], amounts=[None])
    trace2 = make_trace("c2", ["B"], amounts=[None])
    log = EventLog(SIMPLE_SCHEMA, (trace, trace2))
    m = encode(extract_prefixes(log, 1, 1), SIMPLE_SCHEMA, AGGREGATE, SIMPLE_VOCAB)
    stats = MatrixStats.from_matrix(m)
    j = next(d.column_index for d in m.descriptors if d.encoder == "agg_mean")
    assert stats.domains[j] is None
    assert stats.means[j] == 0.0 and stats.scales[j] == 1.0


def test_matrix_round_trip(tmp_path):
    log, pl = synth_prefixes(n=10, seed=3)
    vocab = build_vocabulary(log, log.schema)
    m = encode(pl, log.schema, INDEX_BASED, vocab, bucket_id="all")
    base = str(tmp_path / "bucket_all")
    csv_path, json_path = write_matrix(m, base)
    assert csv_path.endswith(".csv") and json_path.endswith(".json")
    again = read_matrix(base)
    assert again.descriptors == m.descriptors
    assert np.array_equal(again.rows, m.rows, equal_nan=True)
    assert np.array_equal(again.labels, m.labels)
    assert again.case_ids == m.case_ids
    assert np.array_equal(again.prefix_lengths, m.prefix_lengths)
    assert again.bucket_id == m.bucket_id


def test_build_vocabulary_sorted_and_train_only():
    log, _ = synth_prefixes()
    vocab = build_vocabulary(log, log.schema)
    assert vocab.for_attr("activity") == tuple(sorted(vocab.for_attr("activity")))
    assert set(vocab.for_attr("activity")) <= {"a", "b", "c", "d"}
    assert CategoryVocabulary.from_dict(vocab.to_dict()) == vocab

