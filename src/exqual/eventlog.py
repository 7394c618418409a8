"""Event log ingestion: schema-driven CSV parsing, prefix extraction,
temporal train/test splitting and class balancing.

A log is a set of traces (cases). Each trace carries case-level static
attributes, an ordered list of events with event-level dynamic attributes,
and a binary outcome label (True = deviant).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .errors import (
    EmptySource,
    InvalidSpec,
    MissingColumn,
    NonConstantStatic,
    SingleClass,
    TooFewTraces,
    TypeMismatch,
    read_json,
)

STATIC = "static"
DYNAMIC = "dynamic"
CATEGORICAL = "categorical"
NUMERIC = "numeric"


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    kind: str  # static | dynamic
    dtype: str  # categorical | numeric

    def __post_init__(self):
        if self.kind not in (STATIC, DYNAMIC):
            raise InvalidSpec(f"attribute {self.name!r}: bad kind {self.kind!r}")
        if self.dtype not in (CATEGORICAL, NUMERIC):
            raise InvalidSpec(f"attribute {self.name!r}: bad dtype {self.dtype!r}")


@dataclass(frozen=True)
class LogSchema:
    case_id_column: str
    activity_column: str
    timestamp_column: str
    attribute_decls: tuple[AttributeDecl, ...]
    label_column: str
    positive_label: str

    def __post_init__(self):
        names = [self.case_id_column, self.activity_column, self.timestamp_column,
                 self.label_column] + [a.name for a in self.attribute_decls]
        if len(set(names)) != len(names):
            raise InvalidSpec(f"duplicate column names in schema: {sorted(names)}")

    @property
    def static_attrs(self) -> tuple[AttributeDecl, ...]:
        return tuple(a for a in self.attribute_decls if a.kind == STATIC)

    @property
    def dynamic_attrs(self) -> tuple[AttributeDecl, ...]:
        return tuple(a for a in self.attribute_decls if a.kind == DYNAMIC)

    def to_dict(self) -> dict:
        return {
            "case_id_column": self.case_id_column,
            "activity_column": self.activity_column,
            "timestamp_column": self.timestamp_column,
            "attribute_decls": [
                {"name": a.name, "kind": a.kind, "dtype": a.dtype}
                for a in self.attribute_decls
            ],
            "label_column": self.label_column,
            "positive_label": self.positive_label,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LogSchema":
        decls = tuple(
            AttributeDecl(d["name"], d["kind"], d["dtype"])
            for d in doc.get("attribute_decls", [])
        )
        return cls(
            case_id_column=doc["case_id_column"],
            activity_column=doc["activity_column"],
            timestamp_column=doc["timestamp_column"],
            attribute_decls=decls,
            label_column=doc["label_column"],
            positive_label=doc["positive_label"],
        )

    @classmethod
    def from_json(cls, path: str) -> "LogSchema":
        return read_json(path, "schema", cls.from_dict)


@dataclass(frozen=True)
class Event:
    activity: str
    timestamp: datetime
    dynamic_attrs: dict = field(default_factory=dict)  # name -> value | None


@dataclass(frozen=True)
class Trace:
    case_id: str
    events: tuple[Event, ...]
    static_attrs: dict  # name -> value | None
    label: bool

    def __len__(self) -> int:
        return len(self.events)

    @property
    def start_time(self) -> datetime:
        return self.events[0].timestamp

    def prefix(self, length: int) -> "Trace":
        return Trace(self.case_id, self.events[:length], self.static_attrs, self.label)


@dataclass(frozen=True)
class EventLog:
    schema: LogSchema
    traces: tuple[Trace, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __len__(self) -> int:
        return len(self.traces)

    def class_counts(self) -> tuple[int, int]:
        pos = sum(1 for t in self.traces if t.label)
        return pos, len(self.traces) - pos


@dataclass(frozen=True)
class PrefixEntry:
    case_id: str
    prefix_length: int
    trace: Trace  # truncated to prefix_length events
    label: bool


@dataclass(frozen=True)
class PrefixLog:
    entries: tuple[PrefixEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def max_prefix_length(self) -> int:
        return max(e.prefix_length for e in self.entries)


def _parse_value(raw: str, dtype: str, row_no: int, column: str):
    """Empty cells are explicit missing markers (None)."""
    if raw == "":
        return None
    if dtype == NUMERIC:
        try:
            return float(raw)
        except ValueError:
            raise TypeMismatch(row_no, column, raw) from None
    return raw


def _parse_timestamp(raw: str, row_no: int, column: str) -> datetime:
    try:
        return datetime.fromisoformat(raw)
    except ValueError:
        raise TypeMismatch(row_no, column, raw) from None


def parse_log(csv_source, schema: LogSchema) -> EventLog:
    """Parse a header-ed CSV (path or text stream) into an EventLog.

    One trace per distinct case id, events ordered by timestamp with source
    order breaking ties. Static attributes and the label are read from the
    case's first row and verified constant across the case.
    """
    if isinstance(csv_source, str):
        with open(csv_source, "r", encoding="utf-8", newline="") as fh:
            return parse_log(fh, schema)

    reader = csv.reader(csv_source)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptySource("no header row") from None

    required = [schema.case_id_column, schema.activity_column,
                schema.timestamp_column, schema.label_column]
    required += [a.name for a in schema.attribute_decls]
    col_index = {name: i for i, name in enumerate(header)}
    for name in required:
        if name not in col_index:
            raise MissingColumn(name)

    statics = schema.static_attrs
    dynamics = schema.dynamic_attrs

    # case_id -> list of (timestamp, source_order, Event); dicts keep insertion order
    cases: dict[str, list] = {}
    case_static: dict[str, dict] = {}
    case_label: dict[str, str] = {}
    n_rows = 0
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise TypeMismatch(row_no, "<row>", f"{len(row)} cells, header has {len(header)}")
        n_rows += 1

        def cell(name):
            return row[col_index[name]]

        case_id = cell(schema.case_id_column)
        activity = cell(schema.activity_column)
        if activity == "":
            raise TypeMismatch(row_no, schema.activity_column, activity)
        ts = _parse_timestamp(cell(schema.timestamp_column), row_no, schema.timestamp_column)
        dyn = {a.name: _parse_value(cell(a.name), a.dtype, row_no, a.name) for a in dynamics}
        stat = {a.name: _parse_value(cell(a.name), a.dtype, row_no, a.name) for a in statics}
        label_raw = cell(schema.label_column)

        if case_id not in cases:
            cases[case_id] = []
            case_static[case_id] = stat
            case_label[case_id] = label_raw
        else:
            if case_static[case_id] != stat:
                bad = next(a.name for a in statics if case_static[case_id][a.name] != stat[a.name])
                raise NonConstantStatic(case_id, bad)
            if case_label[case_id] != label_raw:
                raise NonConstantStatic(case_id, schema.label_column)
        cases[case_id].append((ts, row_no, Event(activity, ts, dyn)))

    if n_rows == 0:
        raise EmptySource("no data rows")

    traces = []
    for case_id, items in cases.items():
        items.sort(key=lambda t: (t[0], t[1]))
        traces.append(Trace(
            case_id=case_id,
            events=tuple(ev for _, _, ev in items),
            static_attrs=case_static[case_id],
            label=case_label[case_id] == schema.positive_label,
        ))
    return EventLog(schema=schema, traces=tuple(traces))


def write_log(log: EventLog, destination, negative_label: str = "regular") -> None:
    """Serialize an EventLog back to CSV (one row per event).

    parse_log(write_log(log)) reconstructs an equal log; the original
    negative label string is not retained, so a stand-in is written.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            write_log(log, fh, negative_label)
            return

    schema = log.schema
    statics = schema.static_attrs
    dynamics = schema.dynamic_attrs
    header = [schema.case_id_column, schema.activity_column, schema.timestamp_column]
    header += [a.name for a in statics] + [a.name for a in dynamics]
    header.append(schema.label_column)

    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(header)
    for trace in log.traces:
        label = schema.positive_label if trace.label else negative_label
        for ev in trace.events:
            row = [trace.case_id, ev.activity, ev.timestamp.isoformat()]
            row += [fmt(trace.static_attrs.get(a.name)) for a in statics]
            row += [fmt(ev.dynamic_attrs.get(a.name)) for a in dynamics]
            row.append(label)
            writer.writerow(row)


def log_to_csv_text(log: EventLog, negative_label: str = "regular") -> str:
    buf = io.StringIO()
    write_log(log, buf, negative_label)
    return buf.getvalue()


def extract_prefixes(log: EventLog, min_len: int, max_len: int) -> PrefixLog:
    """One entry per trace per prefix length L in [min_len, min(max_len, len)].

    Traces shorter than min_len contribute nothing.
    """
    if not (1 <= min_len <= max_len):
        raise InvalidSpec(f"bad prefix range [{min_len}, {max_len}]")
    entries = []
    for trace in log.traces:
        top = min(max_len, len(trace))
        for length in range(min_len, top + 1):
            entries.append(PrefixEntry(trace.case_id, length, trace.prefix(length), trace.label))
    return PrefixLog(entries=tuple(entries))


def split_train_test(log: EventLog, train_fraction: float, seed: int) -> tuple[EventLog, EventLog]:
    """Temporal split: the earliest floor(n * fraction) traces by first-event
    timestamp go to train. The seed only breaks exact-timestamp ties."""
    if not (0.0 < train_fraction < 1.0):
        raise InvalidSpec(f"train_fraction must be in (0,1), got {train_fraction}")
    n = len(log.traces)
    if n < 2:
        raise TooFewTraces(f"need at least 2 traces to split, got {n}")
    rng = np.random.default_rng(seed)
    tiebreak = rng.random(n)
    order = sorted(range(n), key=lambda i: (log.traces[i].start_time, tiebreak[i]))
    n_train = int(np.floor(n * train_fraction))
    train_idx = set(order[:n_train])
    train = tuple(log.traces[i] for i in order[:n_train])
    test = tuple(log.traces[i] for i in order if i not in train_idx)
    return (EventLog(log.schema, train, dict(log.metadata)),
            EventLog(log.schema, test, dict(log.metadata)))


def downsample_majority(log: EventLog, seed: int) -> EventLog:
    """Randomly drop majority-class traces until the classes balance.

    Retained traces keep their input order; the minority class is untouched.
    """
    pos, neg = log.class_counts()
    if pos == 0 or neg == 0:
        raise SingleClass(f"both classes required, got {pos} positive / {neg} negative")
    if pos == neg:
        return log
    majority = pos > neg
    minority_count = min(pos, neg)
    majority_idx = [i for i, t in enumerate(log.traces) if t.label == majority]
    rng = np.random.default_rng(seed)
    keep = set(rng.choice(len(majority_idx), size=minority_count, replace=False).tolist())
    drop = {majority_idx[j] for j in range(len(majority_idx)) if j not in keep}
    traces = tuple(t for i, t in enumerate(log.traces) if i not in drop)
    return EventLog(log.schema, traces, dict(log.metadata))
