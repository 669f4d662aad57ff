"""Labeled datasets over flow records: the 4 classification features
(addresses and ports), train/test splitting, class balancing, CSV I/O.

A record is labeled malicious (1) when a blackhole absorbed at least one
of its packets; loss for any other reason stays normal (0).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterable, Optional, get_type_hints

from .errors import InsufficientClassCount, SchemaError, TooFewRows
from .flows import FlowRecord

DATASET_HEADER = "src_addr,dst_addr,src_port,dst_port,label"

_UNSET_TIME = -1  # CSV sentinel for rx timestamps of flows with no Rx

# flows.csv column type -> (parse, format)
_CODECS = {
    int: (int, str),
    float: (float, repr),
    Optional[int]: (lambda text: None if int(text) == _UNSET_TIME else int(text),
                    lambda value: str(_UNSET_TIME if value is None else value)),
}
_FLOW_HINTS = get_type_hints(FlowRecord)
# (column, FlowRecord field, parse, format) in field order; time columns carry _ns
_FLOW_COLUMNS = [
    (f.name + "_ns" if f.metadata.get("unit") == "ns" else f.name, f.name,
     *_CODECS[_FLOW_HINTS[f.name]])
    for f in fields(FlowRecord)
]
FLOWS_HEADER = ",".join([column for column, *_ in _FLOW_COLUMNS] + ["label"])
_flow_values = attrgetter(*(name for _, name, _, _ in _FLOW_COLUMNS))


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
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def class_counts(self) -> tuple[int, int]:
        """(positive, negative) row counts."""
        pos = sum(1 for r in self.rows if r.label == 1)
        return pos, len(self.rows) - pos


def record_label(record: FlowRecord) -> int:
    return 1 if record.blackhole_absorbed >= 1 else 0


def label_flows(records: Iterable[FlowRecord], provenance: Optional[dict] = None) -> Dataset:
    rows = [
        DatasetRow(r.src_addr, r.dst_addr, r.src_port, r.dst_port, record_label(r))
        for r in records
    ]
    return Dataset(rows, provenance or {})


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
    """
    spec.validate()
    n = len(ds.rows)
    if n < 2:
        raise TooFewRows(f"need at least 2 rows to split, got {n}")
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
    prov = dict(ds.provenance)
    return (
        Dataset(train, {**prov, "split": "train", "split_seed": spec.seed}),
        Dataset(test, {**prov, "split": "test", "split_seed": spec.seed}),
    )


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
    return Dataset(chosen, {**ds.provenance, "balanced": [target_pos, target_neg]})


# -- CSV I/O ----------------------------------------------------------------


def write_csv(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(DATASET_HEADER + "\n")
        for r in ds.rows:
            fh.write(f"{r.src_addr},{r.dst_addr},{r.src_port},{r.dst_port},{r.label}\n")


def read_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != DATASET_HEADER:
        raise SchemaError(f"bad dataset header in {path}")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 5:
            raise SchemaError(f"{path}:{ln}: expected 5 fields, got {len(fields)}")
        try:
            values = [int(f) for f in fields]
        except ValueError as e:
            raise SchemaError(f"{path}:{ln}: non-integer field ({e})") from None
        if values[4] not in (0, 1):
            raise SchemaError(f"{path}:{ln}: label must be 0 or 1, got {values[4]}")
        rows.append(DatasetRow(*values))
    return Dataset(rows, {"source": str(path)})


def write_flows_csv(records: Iterable[FlowRecord], path) -> None:
    """Full 17-feature flow table plus ground truth and label."""
    formats = [fmt for *_, fmt in _FLOW_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FLOWS_HEADER + "\n")
        for r in records:
            values = ",".join(fmt(v) for fmt, v in zip(formats, _flow_values(r)))
            fh.write(f"{values},{record_label(r)}\n")


def read_flows_csv(path) -> list[FlowRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FLOWS_HEADER:
        raise SchemaError(f"bad flows header in {path}")
    width = len(_FLOW_COLUMNS) + 1
    records = []
    for ln, line in enumerate(lines[1:], start=2):
        texts = line.split(",")
        if len(texts) != width:
            raise SchemaError(f"{path}:{ln}: expected {width} fields, got {len(texts)}")
        try:
            rec = FlowRecord(**{name: parse(text) for (_, name, parse, _), text
                                in zip(_FLOW_COLUMNS, texts)})
            label = int(texts[-1])
        except ValueError as e:
            raise SchemaError(f"{path}:{ln}: bad field ({e})") from None
        if label not in (0, 1):
            raise SchemaError(f"{path}:{ln}: label must be 0 or 1, got {label}")
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
