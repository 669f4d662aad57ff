"""Dataset labeling, splitting, balancing, and CSV schema tests."""

import dataclasses
import math
import re

import pytest

from vanetlab.config import ScenarioConfig, sample_scenario
from vanetlab.dataset import (
    DATASET_HEADER,
    FLOWS_HEADER,
    DatasetRow,
    balance,
    class_counts,
    label_flows,
    read_csv,
    read_flows_csv,
    record_label,
    split,
    write_csv,
    write_flows_csv,
)
from vanetlab.errors import DataError
from vanetlab.flows import FlowRecord
from vanetlab.scenario import run_scenario


def make_record(absorbed=0, lost=0, rx=10, src=0, dst=1, port=49153):
    tx = rx + lost
    return FlowRecord(
        src_addr=167837953 + src,
        dst_addr=167837953 + dst,
        src_port=port,
        dst_port=9,
        time_first_tx=1_000_000_000,
        time_first_rx=1_008_000_000 if rx else None,
        time_last_tx=1_000_000_000 + (tx - 1) * 8_000_000,
        time_last_rx=1_008_000_000 + (rx - 1) * 8_000_000 if rx else None,
        delay_sum=8_000_000 * rx,
        jitter_sum=0,
        last_delay=8_000_000 if rx else 0,
        tx_packets=tx,
        rx_packets=rx,
        lost_packets=lost,
        tx_bytes=1024 * tx,
        rx_bytes=1024 * rx,
        throughput_bps=1_024_000.0 if rx else 0.0,
        blackhole_absorbed=absorbed,
    )


def make_rows(pos, neg):
    rows = []
    for i in range(pos):
        rows.append(DatasetRow(100 + i, 200, 49153 + i, 9, 1))
    for i in range(neg):
        rows.append(DatasetRow(300 + i, 400, 52000 + i, 9, 0))
    return rows


def test_label_rule_is_absorption_not_loss():
    assert record_label(make_record(absorbed=7, lost=7, rx=3)) == 1
    assert record_label(make_record(absorbed=1, lost=1, rx=9)) == 1
    # congestion-style loss alone stays benign
    assert record_label(make_record(absorbed=0, lost=5, rx=5)) == 0
    assert record_label(make_record(absorbed=0, lost=0, rx=10)) == 0


def test_label_flows_and_class_counts():
    records = [make_record(absorbed=1, port=49153 + i) for i in range(4)]
    records += [make_record(port=50000 + i) for i in range(12)]
    rows = label_flows(records)
    assert class_counts(rows) == {"positive": 4, "negative": 12}
    assert len(rows) == 16


def test_split_2000_rows_default_fraction():
    ds = make_rows(500, 1500)
    train, test = split(ds, 0.6, seed=42)
    assert len(train) == 1200
    assert len(test) == 800


def test_split_rounds_half_up():
    ds = make_rows(3, 2)
    train, test = split(ds, 0.6, seed=1)
    assert len(train) == 3  # round(3.0) stays 3
    train, test = split(ds, 0.5, seed=1)
    assert len(train) == 3  # 2.5 rounds up


def test_split_partitions_without_loss():
    ds = make_rows(40, 60)
    train, test = split(ds, 0.6, seed=9)
    combined = sorted(train + test, key=lambda r: (r.src_addr, r.src_port))
    original = sorted(ds, key=lambda r: (r.src_addr, r.src_port))
    assert combined == original


def test_split_is_deterministic_and_seed_sensitive():
    ds = make_rows(40, 60)
    a_train, a_test = split(ds, 0.6, seed=9)
    b_train, b_test = split(ds, 0.6, seed=9)
    assert a_train == b_train and a_test == b_test
    c_train, _ = split(ds, 0.6, seed=10)
    assert c_train != a_train


def test_split_too_few_rows():
    cases = [
        (make_rows(1, 0), 0.6),
        (make_rows(5, 5), 0.99),  # no test rows
        (make_rows(5, 5), 0.01),  # no train rows
    ]
    for ds, fraction in cases:
        with pytest.raises(DataError, match="both need at least one"):
            split(ds, fraction, seed=1)


def test_split_validates_fraction_first():
    # checked before the rows, so rows that no fraction could split
    # still report the fraction
    for fraction in (0.0, 1.0, -0.5, 1.5, math.nan):
        for rows in (make_rows(5, 5), []):
            with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
                split(rows, fraction, seed=1)


def test_balance_exact_counts():
    ds = make_rows(812, 3100)
    out = balance(ds, 500, 1500, seed=7)
    assert class_counts(out) == {"positive": 500, "negative": 1500}
    assert len(out) == 2000


def test_balance_deterministic_and_subset():
    ds = make_rows(812, 3100)
    a = balance(ds, 500, 1500, seed=7)
    b = balance(ds, 500, 1500, seed=7)
    assert a == b
    pool = set(ds)
    assert all(r in pool for r in a)
    assert len(set(a)) == len(a)  # sampled without replacement


def test_balance_insufficient_rows_reports_counts():
    ds = make_rows(300, 3100)
    with pytest.raises(DataError, match="have 300 / 3100"):
        balance(ds, 500, 1500, seed=7)


def test_dataset_csv_round_trip(tmp_path):
    ds = make_rows(4, 12)
    path = tmp_path / "dataset.csv"
    write_csv(ds, path)
    again = read_csv(path)
    assert again == ds


def test_dataset_csv_literal_line(tmp_path):
    ds = [DatasetRow(167837957, 167837958, 49153, 9, 1)]
    path = tmp_path / "one.csv"
    write_csv(ds, path)
    text = path.read_text().splitlines()
    assert text[0] == DATASET_HEADER
    assert text[1] == "167837957,167837958,49153,9,1"


def test_dataset_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text() == DATASET_HEADER + "\n"
    assert read_csv(path) == []


@pytest.mark.parametrize("content", [
    "src,dst,label\n167837957,167837958,1\n",
    DATASET_HEADER + "\n1,2,3,4\n",
    DATASET_HEADER + "\n1,2,3,4,5,6\n",
    DATASET_HEADER + "\n1,2,3,x,1\n",
    DATASET_HEADER + "\n1,2,3,4,2\n",
    DATASET_HEADER + "\n1,2,3,65536,1\n",
    DATASET_HEADER + "\n1,4294967296,3,4,1\n",
    DATASET_HEADER + "\n-1,2,3,4,0\n",
    "",
])
def test_dataset_csv_schema_errors(tmp_path, content):
    """A bad header is line 1's error, a bad row line 2's."""
    path = tmp_path / "bad.csv"
    path.write_text(content)
    line = 2 if content.startswith(DATASET_HEADER + "\n") else 1
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:{line}: ')}"):
        read_csv(path)


def test_flows_csv_round_trip_with_unset_rx(tmp_path):
    records = [
        make_record(absorbed=3, lost=3, rx=7, port=49153),
        make_record(absorbed=10, lost=10, rx=0, port=49154),  # rx=None sentinel
        make_record(port=49155),
    ]
    path = tmp_path / "flows.csv"
    write_flows_csv(records, path)
    again = read_flows_csv(path)
    assert again == records
    assert again[1].time_first_rx is None
    assert again[1].time_last_rx is None


def test_flows_csv_round_trips_simulator_records(tmp_path):
    """Real records, not hand-made ones: received, blackholed and
    never-received flows come back equal from flows.csv."""
    cfg = dataclasses.replace(ScenarioConfig(), flows_per_scenario=40)
    records = run_scenario(sample_scenario(cfg, 9)).records
    assert {record_label(r) for r in records} == {0, 1}
    assert any(r.time_first_rx is None for r in records)
    assert any(r.rx_packets > 0 and r.blackhole_absorbed > 0 for r in records)
    path, again = tmp_path / "flows.csv", tmp_path / "again.csv"
    write_flows_csv(records, path)
    assert read_flows_csv(path) == records
    # equality alone would let 5.0 pass for 5; the bytes would not
    write_flows_csv(read_flows_csv(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_flows_csv_header_frozen(tmp_path):
    path = tmp_path / "flows.csv"
    write_flows_csv([], path)
    assert path.read_text().splitlines()[0] == (
        "src_addr,dst_addr,src_port,dst_port,"
        "time_first_tx_ns,time_first_rx_ns,time_last_tx_ns,time_last_rx_ns,"
        "delay_sum_ns,jitter_sum_ns,last_delay_ns,"
        "tx_packets,rx_packets,lost_packets,tx_bytes,rx_bytes,"
        "throughput_bps,blackhole_absorbed,label"
    )
    assert DATASET_HEADER == "src_addr,dst_addr,src_port,dst_port,label"
    assert FLOWS_HEADER.split(",")[16] == "throughput_bps"


def test_flows_csv_tampered_label_rejected(tmp_path):
    path = tmp_path / "flows.csv"
    write_flows_csv([make_record(absorbed=2, lost=2, rx=8)], path)
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    assert fields[-1] == "1"
    fields[-1] = "0"  # contradicts blackhole_absorbed=2
    path.write_text(lines[0] + "\n" + ",".join(fields) + "\n")
    with pytest.raises(DataError, match="label inconsistent with ground truth"):
        read_flows_csv(path)


@pytest.mark.parametrize("edits, problem", [
    pytest.param(dict(tx_packets=5, rx_packets=1, time_first_rx=None, time_last_rx=None),
                 "rx_packets + lost_packets != tx_packets", id="rx-without-time-or-loss"),
    pytest.param(dict(tx_packets=11), "rx_packets + lost_packets != tx_packets", id="tx-over"),
    pytest.param(dict(rx_packets=8), "rx_packets + lost_packets != tx_packets", id="tx-under"),
    pytest.param(dict(time_first_rx=None), "rx times", id="first-rx-unset"),
    pytest.param(dict(time_last_rx=None), "rx times", id="last-rx-unset"),
    pytest.param(dict(rx_packets=0, lost_packets=10, time_last_rx=None), "rx times",
                 id="first-rx-set"),
    pytest.param(dict(rx_packets=0, lost_packets=10, time_first_rx=None), "rx times",
                 id="last-rx-set"),
    pytest.param(dict(rx_packets=8, lost_packets=2, blackhole_absorbed=3),
                 "blackhole_absorbed exceeds lost_packets", id="absorbed-over-lost"),
    pytest.param(dict(dst_addr=1 << 32), "dst_addr outside [0, 4294967295]",
                 id="addr-over-32-bits"),
    # each of these would pass every accounting check above
    pytest.param(dict(rx_packets=-1, lost_packets=11), "rx_packets must be finite and "
                 "non-negative", id="rx-negative"),
    pytest.param(dict(blackhole_absorbed=-3), "blackhole_absorbed must be finite and "
                 "non-negative", id="absorbed-negative"),
    pytest.param(dict(tx_bytes=-7), "tx_bytes must be finite and non-negative",
                 id="tx-bytes-negative"),
    pytest.param(dict(throughput_bps=math.nan), "throughput_bps must be finite",
                 id="throughput-nan"),
    pytest.param(dict(throughput_bps=math.inf), "throughput_bps must be finite",
                 id="throughput-inf"),
    pytest.param(dict(time_first_rx=-2), "time_first_rx must be finite and non-negative",
                 id="rx-time-negative"),
    # times and byte counts out of order
    pytest.param(dict(time_last_tx=1), "time_first_tx exceeds time_last_tx",
                 id="last-tx-before-first-tx"),
    pytest.param(dict(time_first_rx=1), "time_first_tx exceeds time_first_rx",
                 id="first-rx-before-first-tx"),
    pytest.param(dict(time_last_rx=1_004_000_000), "time_first_rx exceeds time_last_rx",
                 id="last-rx-before-first-rx"),
    pytest.param(dict(tx_bytes=5120, rx_bytes=10**9), "rx_bytes exceeds tx_bytes",
                 id="rx-bytes-over-tx-bytes"),
])
def test_flows_csv_broken_accounting_rejected(tmp_path, edits, problem):
    path = tmp_path / "flows.csv"
    write_flows_csv([make_record(), dataclasses.replace(make_record(port=49154), **edits)], path)
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:3: ')}.*{re.escape(problem)}"):
        read_flows_csv(path)


def test_flows_csv_throughput_survives_repr_round_trip(tmp_path):
    rec = make_record()
    rec = FlowRecord(**{**rec.__dict__, "throughput_bps": 913_066.6666666667})
    path = tmp_path / "flows.csv"
    write_flows_csv([rec], path)
    again = read_flows_csv(path)
    assert again[0].throughput_bps == rec.throughput_bps
