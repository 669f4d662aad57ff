"""Labeled datasets over flow records: the 4 classification features
(addresses and ports), train/test splitting, class balancing, CSV I/O.

A record is labeled malicious (1) when a blackhole absorbed at least one
of its packets; loss for any other reason stays normal (0).

Each CSV table is defined once, by its record's fields: dataset.csv has a
column per DatasetRow field, flows.csv a column per FlowRecord field plus
the computed label. One writer and one reader serve both; the reader
checks the header, width, values, flow-key ranges and label of every row,
and read_flows_csv adds the record invariants (finite, non-negative
measures and consistent accounting) and the label's agreement with the
ground truth.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any, Callable, Iterable, Optional, get_type_hints

from .errors import InsufficientClassCount, SchemaError, TooFewRows
from .flows import FlowRecord


@dataclass(frozen=True)
class DatasetRow:
    src_addr: int
    dst_addr: int
    src_port: int
    dst_port: int
    label: int


@dataclass
class Dataset:
    rows: list[DatasetRow]

    def __len__(self) -> int:
        return len(self.rows)

    def class_counts(self) -> tuple[int, int]:
        """(positive, negative) row counts."""
        pos = sum(1 for r in self.rows if r.label == 1)
        return pos, len(self.rows) - pos


def record_label(record: FlowRecord) -> int:
    return 1 if record.blackhole_absorbed >= 1 else 0


def label_flows(records: Iterable[FlowRecord]) -> Dataset:
    rows = [
        DatasetRow(r.src_addr, r.dst_addr, r.src_port, r.dst_port, record_label(r))
        for r in records
    ]
    return Dataset(rows)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int
    stratified: bool = False

    def validate(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Uniform random partition; first round(fraction*N) permuted rows train.

    With stratified=True the rounding rule applies per class instead.
    TooFewRows if either side would be empty.
    """
    spec.validate()
    n = len(ds.rows)
    rng = random.Random(spec.seed)
    if spec.stratified:
        train: list[DatasetRow] = []
        test: list[DatasetRow] = []
        for label in (1, 0):
            group = [r for r in ds.rows if r.label == label]
            rng.shuffle(group)
            k = _round_half_up(spec.train_fraction * len(group))
            train.extend(group[:k])
            test.extend(group[k:])
        rng.shuffle(train)
        rng.shuffle(test)
    else:
        order = list(range(n))
        rng.shuffle(order)
        n_train = _round_half_up(spec.train_fraction * n)
        train = [ds.rows[i] for i in order[:n_train]]
        test = [ds.rows[i] for i in order[n_train:]]
    if not train or not test:
        raise TooFewRows(
            f"a {spec.train_fraction} split of {n} rows leaves "
            f"{len(train)} train / {len(test)} test rows; both need at least one"
        )
    return Dataset(train), Dataset(test)


def balance(ds: Dataset, target_pos: int, target_neg: int, seed: int) -> Dataset:
    """Subsample without replacement to exact per-class counts, then shuffle."""
    pos = [r for r in ds.rows if r.label == 1]
    neg = [r for r in ds.rows if r.label == 0]
    if len(pos) < target_pos or len(neg) < target_neg:
        raise InsufficientClassCount(
            f"need {target_pos} positive / {target_neg} negative rows, "
            f"have {len(pos)} / {len(neg)}",
            available_positive=len(pos),
            available_negative=len(neg),
        )
    rng = random.Random(seed)
    chosen = rng.sample(pos, target_pos) + rng.sample(neg, target_neg)
    rng.shuffle(chosen)
    return Dataset(chosen)


# -- CSV I/O ----------------------------------------------------------------

_UNSET_TIME = -1  # CSV sentinel for rx timestamps of flows with no Rx

# column type -> (parse, format)
_CODECS = {
    int: (int, str),
    float: (float, repr),
    Optional[int]: (lambda text: None if int(text) == _UNSET_TIME else int(text),
                    lambda value: str(_UNSET_TIME if value is None else value)),
}
# exclusive upper bound of each flow-key column: 32-bit addresses, 16-bit ports
_KEY_ENDS = {"src_addr": 1 << 32, "dst_addr": 1 << 32, "src_port": 1 << 16, "dst_port": 1 << 16}


class _Table:
    """The CSV format of one record class: a column per field in field
    order (time fields carry an _ns suffix), then an int column per
    computed value, named by its keyword."""

    def __init__(self, cls, **computed: Callable[[Any], int]):
        hints = get_type_hints(cls)
        names = [f.name for f in fields(cls)]
        columns = [f.name + "_ns" if f.metadata.get("unit") == "ns" else f.name
                   for f in fields(cls)] + list(computed)
        codecs = [_CODECS[hints[name]] for name in names] + [_CODECS[int]] * len(computed)
        self.cls = cls
        self.header = ",".join(columns)
        self.parses = [parse for parse, _ in codecs]
        self.formats = [fmt for _, fmt in codecs]
        get, extra = attrgetter(*names), tuple(computed.values())
        self.values = (lambda r: (*get(r), *[f(r) for f in extra])) if extra else get
        self.n_fields = len(names)
        self.ranges = [(columns.index(name), name, end) for name, end in _KEY_ENDS.items()]
        self.label = columns.index("label")

    def write(self, records: Iterable, path) -> None:
        formats, values = self.formats, self.values
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.header + "\n")
            for r in records:
                fh.write(",".join([fmt(v) for fmt, v in zip(formats, values(r))]) + "\n")

    def read(self, path) -> list[tuple[int, Any, list]]:
        """(line number, record, computed values) per row. SchemaError on
        text that is not UTF-8 and, with path:line for a row, on a wrong
        header or width, an unparsable value, a flow-key value outside its
        column or a label not 0 or 1."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as e:
            raise SchemaError(f"{path}: not UTF-8 text ({e})") from None
        if not lines or lines[0] != self.header:
            raise SchemaError(f"{path}:1: header is not {self.header}")
        width = len(self.parses)
        rows = []
        for ln, line in enumerate(lines[1:], start=2):
            texts = line.split(",")
            if len(texts) != width:
                raise SchemaError(f"{path}:{ln}: expected {width} fields, got {len(texts)}")
            try:
                values = [parse(text) for parse, text in zip(self.parses, texts)]
            except ValueError as e:
                raise SchemaError(f"{path}:{ln}: bad field ({e})") from None
            for i, name, end in self.ranges:
                if not 0 <= values[i] < end:
                    raise SchemaError(f"{path}:{ln}: {name} outside [0, {end - 1}]")
            if values[self.label] not in (0, 1):
                raise SchemaError(
                    f"{path}:{ln}: label must be 0 or 1, got {values[self.label]}")
            rows.append((ln, self.cls(*values[:self.n_fields]), values[self.n_fields:]))
        return rows


_DATASET = _Table(DatasetRow)
_FLOWS = _Table(FlowRecord, label=record_label)  # 17 features, ground truth, label
# every flows.csv column but the flow key: times, counts and throughput
_MEASURES = [f.name for f in fields(FlowRecord) if f.name not in _KEY_ENDS]
DATASET_HEADER = _DATASET.header
FLOWS_HEADER = _FLOWS.header


def write_csv(ds: Dataset, path) -> None:
    _DATASET.write(ds.rows, path)


def read_csv(path) -> Dataset:
    return Dataset([row for _, row, _ in _DATASET.read(path)])


def write_flows_csv(records: Iterable[FlowRecord], path) -> None:
    _FLOWS.write(records, path)


def read_flows_csv(path) -> list[FlowRecord]:
    records = []
    for ln, rec, (label,) in _FLOWS.read(path):
        for name in _MEASURES:
            value = getattr(rec, name)  # None is an unset rx time
            if value is not None and not 0 <= value < math.inf:
                raise SchemaError(f"{path}:{ln}: {name} must be finite and non-negative")
        if rec.rx_packets + rec.lost_packets != rec.tx_packets:
            raise SchemaError(f"{path}:{ln}: rx_packets + lost_packets != tx_packets")
        received = rec.rx_packets > 0
        if not received == (rec.time_first_rx is not None) == (rec.time_last_rx is not None):
            raise SchemaError(f"{path}:{ln}: rx times must be set exactly when rx_packets > 0")
        if rec.blackhole_absorbed > rec.lost_packets:
            raise SchemaError(f"{path}:{ln}: blackhole_absorbed exceeds lost_packets")
        if record_label(rec) != label:
            raise SchemaError(f"{path}:{ln}: label inconsistent with ground truth")
        records.append(rec)
    return records
