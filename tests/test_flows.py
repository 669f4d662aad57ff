"""Flow monitor accounting tests.

The jitter and delay bookkeeping is audited two ways: handcrafted
observation sequences with expected values computed by hand, and random
streams checked against recompute_from_log, which re-derives every
accumulator from the observations recorded by wrapping FlowMonitor.observe.
"""

import pytest
from flow_audit import recompute_from_log, record_observations

from vanetlab.engine import Engine, seconds, substream
from vanetlab.errors import DuplicateTerminal, InvalidSpec
from vanetlab.flows import (
    DropCause,
    FlowKey,
    FlowMonitor,
    FlowObservation,
    FlowSpec,
    ObsKind,
    node_address,
    start_flow,
)

KEY = FlowKey(node_address(0), node_address(2), 49153, 9)


def observe_tx(mon, key, seq, time, size_bytes):
    mon.observe(FlowObservation(ObsKind.TX, key, seq, time, size_bytes))


def test_node_address_encoding():
    # node 4 lives at 10.1.1.5
    assert node_address(4) == (10 << 24) | (1 << 16) | (1 << 8) | 5
    assert node_address(4) == 167837957


def test_node_address_range():
    node_address(0)
    node_address(253)
    with pytest.raises(ValueError):
        node_address(-1)
    with pytest.raises(ValueError):
        node_address(254)


def test_flow_spec_interval_exact():
    spec = FlowSpec(0, 2, 49153, 9, packet_size_bytes=1024,
                    data_rate_bps=1_024_000, packet_count=10, start=0)
    assert spec.interval_ns == 8_000_000  # exactly 8 ms


def test_flow_spec_validation():
    good = dict(src=0, dst=2, src_port=49153, dst_port=9,
                packet_size_bytes=1024, data_rate_bps=600_000,
                packet_count=7, start=0)
    FlowSpec(**good).validate()
    with pytest.raises(InvalidSpec):
        FlowSpec(**{**good, "dst": 0}).validate()
    with pytest.raises(InvalidSpec):
        FlowSpec(**{**good, "packet_count": 0}).validate()
    with pytest.raises(InvalidSpec):
        FlowSpec(**{**good, "data_rate_bps": 0}).validate()
    with pytest.raises(InvalidSpec):
        FlowSpec(**{**good, "src_port": 70000}).validate()


def test_single_packet_delay():
    mon = FlowMonitor()
    observe_tx(mon, KEY, 0, seconds(1.0), 1024)
    mon.observe_rx(KEY, 0, seconds(1.01), 1024)
    rec = mon.finalize(seconds(2))[0]
    assert rec.delay_sum == 10_000_000
    assert rec.last_delay == 10_000_000
    assert rec.jitter_sum == 0
    assert rec.rx_packets == 1


def test_two_packet_jitter_is_delay_difference():
    mon = FlowMonitor()
    observe_tx(mon, KEY, 0, seconds(1.0), 1024)
    mon.observe_rx(KEY, 0, seconds(1.0) + 10_000_000, 1024)
    observe_tx(mon, KEY, 1, seconds(1.1), 1024)
    mon.observe_rx(KEY, 1, seconds(1.1) + 14_000_000, 1024)
    rec = mon.finalize(seconds(2))[0]
    assert rec.jitter_sum == 4_000_000
    assert rec.delay_sum == 24_000_000
    assert rec.last_delay == 14_000_000


def test_absorbed_drop_counts_ground_truth():
    mon = FlowMonitor()
    observe_tx(mon, KEY, 0, seconds(1), 1024)
    mon.observe_drop(KEY, 0, seconds(2), 1024, DropCause.BLACKHOLE_ABSORBED)
    rec = mon.finalize(seconds(3))[0]
    assert rec.lost_packets == 1
    assert rec.blackhole_absorbed == 1
    assert rec.rx_packets == 0


def test_non_absorbed_drops_leave_ground_truth_zero():
    mon = FlowMonitor()
    for cause in (DropCause.NO_ROUTE, DropCause.QUEUE_OVERFLOW, DropCause.OUT_OF_RANGE):
        observe_tx(mon, KEY, cause.value, seconds(1), 1024)
        mon.observe_drop(KEY, cause.value, seconds(2), 1024, cause)
    rec = mon.finalize(seconds(3))[0]
    assert rec.lost_packets == 3
    assert rec.blackhole_absorbed == 0


def test_duplicate_tx_rejected():
    mon = FlowMonitor()
    observe_tx(mon, KEY, 0, seconds(1), 1024)
    with pytest.raises(DuplicateTerminal):
        observe_tx(mon, KEY, 0, seconds(2), 1024)


def test_second_terminal_rejected():
    mon = FlowMonitor()
    observe_tx(mon, KEY, 0, seconds(1), 1024)
    mon.observe_rx(KEY, 0, seconds(1.5), 1024)
    with pytest.raises(DuplicateTerminal):
        mon.observe_rx(KEY, 0, seconds(1.6), 1024)
    with pytest.raises(DuplicateTerminal):
        mon.observe_drop(KEY, 0, seconds(1.7), 1024, DropCause.NO_ROUTE)


def test_terminal_before_tx_rejected():
    mon = FlowMonitor()
    with pytest.raises(DuplicateTerminal):
        mon.observe_rx(KEY, 5, seconds(1), 1024)


def test_finalize_closes_open_packets_as_end_of_sim(monkeypatch):
    logs = record_observations(monkeypatch)
    mon = FlowMonitor()
    observe_tx(mon, KEY, 0, seconds(1), 1024)
    observe_tx(mon, KEY, 1, seconds(1.1), 1024)
    mon.observe_rx(KEY, 0, seconds(1.2), 1024)
    rec = mon.finalize(seconds(30))[0]
    assert rec.tx_packets == 2
    assert rec.rx_packets == 1
    assert rec.lost_packets == 1
    tail = logs[mon][-1]
    assert tail.kind.value == "drop"
    assert tail.cause is DropCause.END_OF_SIM
    assert tail.time == seconds(30)


def test_no_rx_record_keeps_zero_stats():
    mon = FlowMonitor()
    observe_tx(mon, KEY, 0, seconds(1), 1024)
    rec = mon.finalize(seconds(30))[0]
    assert rec.rx_packets == 0
    assert rec.delay_sum == 0
    assert rec.jitter_sum == 0
    assert rec.last_delay == 0
    assert rec.time_first_rx is None
    assert rec.time_last_rx is None
    assert rec.throughput_bps == 0.0


def test_throughput_closed_form():
    # 10 packets of 1024 B received over a 0.08 s window
    mon = FlowMonitor()
    first_tx = seconds(1.0)
    for i in range(10):
        observe_tx(mon, KEY, i, first_tx + i * 8_000_000, 1024)
        mon.observe_rx(KEY, i, first_tx + i * 8_000_000 + 8_000_000, 1024)
    rec = mon.finalize(seconds(2))[0]
    window_s = (rec.time_last_rx - rec.time_first_tx) / 1e9
    assert window_s == pytest.approx(0.08)
    assert rec.throughput_bps == pytest.approx(10 * 1024 * 8 / 0.08, rel=1e-12)


def test_conservation_with_mixed_terminals():
    mon = FlowMonitor()
    for i in range(20):
        observe_tx(mon, KEY, i, seconds(1) + i, 1024)
    for i in range(17):
        mon.observe_rx(KEY, i, seconds(2) + i, 1024)
    for i in range(17, 20):
        mon.observe_drop(KEY, i, seconds(2) + i, 1024, DropCause.NO_ROUTE)
    rec = mon.finalize(seconds(3))[0]
    assert (rec.tx_packets, rec.rx_packets, rec.lost_packets) == (20, 17, 3)


def test_records_sorted_by_flow_key():
    mon = FlowMonitor()
    keys = [
        FlowKey(node_address(3), node_address(1), 50000, 9),
        FlowKey(node_address(0), node_address(1), 49200, 9),
        FlowKey(node_address(0), node_address(1), 49100, 9),
    ]
    for k in keys:
        observe_tx(mon, k, 0, seconds(1), 100)
    recs = mon.finalize(seconds(2))
    ordered = [(r.src_addr, r.src_port) for r in recs]
    assert ordered == sorted(ordered)


def test_recompute_matches_monitor_on_random_streams(monkeypatch):
    """Feed a randomized but valid observation stream and require the
    incremental accumulators to agree with the from-scratch re-derivation."""
    logs = record_observations(monkeypatch)
    rng = substream(99, 7)
    mon = FlowMonitor()
    for f in range(5):
        key = FlowKey(node_address(f), node_address(f + 1), 49153 + f, 9)
        t = seconds(1)
        for seq in range(30):
            size = rng.randint(100, 1500)
            t += rng.randint(1_000_000, 9_000_000)
            observe_tx(mon, key, seq, t, size)
            roll = rng.random()
            if roll < 0.6:
                mon.observe_rx(key, seq, t + rng.randint(1_000_000, 20_000_000), size)
            elif roll < 0.9:
                mon.observe_drop(key, seq, t + rng.randint(1, 5_000_000), size,
                                 rng.choice(list(DropCause)[:4]))
            # ~10% stay open for finalize to close
    records = mon.finalize(seconds(60))
    audit = recompute_from_log(logs[mon])
    assert len(audit) == len(records) == 5
    for rec in records:
        ref = audit[rec.key]
        assert rec.tx_packets == ref["tx_packets"]
        assert rec.rx_packets == ref["rx_packets"]
        assert rec.lost_packets == ref["lost_packets"]
        assert rec.delay_sum == ref["delay_sum"]
        assert rec.jitter_sum == ref["jitter_sum"]
        assert rec.last_delay == ref["last_delay"]
        assert rec.blackhole_absorbed == ref["blackhole_absorbed"]
        assert rec.rx_packets + rec.lost_packets == rec.tx_packets


class _StubNode:
    """Routing stand-in that records handed packets without sending."""

    def __init__(self):
        self.packets = []

    def send_data(self, pkt):
        self.packets.append(pkt)


def test_start_flow_emits_exact_packet_count_on_schedule(monkeypatch):
    logs = record_observations(monkeypatch)
    eng = Engine()
    eng.register_node(0, (0.0, 0.0))
    mon = FlowMonitor()
    node = _StubNode()
    spec = FlowSpec(0, 2, 49153, 9, packet_size_bytes=1024,
                    data_rate_bps=1_024_000, packet_count=7, start=seconds(1))
    start_flow(eng, node, mon, spec)
    eng.run_until(seconds(10))
    assert len(node.packets) == 7
    tx_times = [o.time for o in logs[mon]]
    assert tx_times == [seconds(1) + i * 8_000_000 for i in range(7)]
    rec = mon.finalize(seconds(10))[0]
    assert rec.tx_packets == 7


def test_start_flow_validates_spec():
    eng = Engine()
    mon = FlowMonitor()
    bad = FlowSpec(0, 0, 49153, 9, packet_size_bytes=1024,
                   data_rate_bps=1_024_000, packet_count=7, start=0)
    with pytest.raises(InvalidSpec):
        start_flow(eng, _StubNode(), mon, bad)
