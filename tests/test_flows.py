"""Flow monitor accounting tests.

The jitter and delay bookkeeping is audited two ways: handcrafted
observation sequences with expected values computed by hand, and random
streams checked against recompute_from_log, which re-derives every
accumulator from the observations recorded by wrapping FlowMonitor's
observe_tx, observe_rx and observe_drop.
"""

import copy

import pytest
from flow_audit import flow_key, recompute_from_log, record_observations

from vanetlab.engine import Engine, seconds, substream
from vanetlab.errors import VanetlabError
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
    with pytest.raises(VanetlabError, match="src and dst must differ") as exc:
        FlowSpec(**{**good, "dst": 0}).validate()
    assert exc.value.exit_code == 4
    with pytest.raises(VanetlabError, match="packet count must be positive") as exc:
        FlowSpec(**{**good, "packet_count": 0}).validate()
    assert exc.value.exit_code == 4
    with pytest.raises(VanetlabError, match="packet count must be positive") as exc:
        FlowSpec(**{**good, "data_rate_bps": 0}).validate()
    assert exc.value.exit_code == 4
    with pytest.raises(VanetlabError, match="ports must fit in 16 bits") as exc:
        FlowSpec(**{**good, "src_port": 70000}).validate()
    assert exc.value.exit_code == 4


def test_single_packet_delay():
    mon = FlowMonitor()
    mon.observe_tx(KEY, 0, seconds(1.0), 1024)
    mon.observe_rx(KEY, 0, seconds(1.01), 1024)
    rec = mon.finalize(seconds(2))[0]
    assert rec.delay_sum == 10_000_000
    assert rec.last_delay == 10_000_000
    assert rec.jitter_sum == 0
    assert rec.rx_packets == 1


def test_two_packet_jitter_is_delay_difference():
    mon = FlowMonitor()
    mon.observe_tx(KEY, 0, seconds(1.0), 1024)
    mon.observe_rx(KEY, 0, seconds(1.0) + 10_000_000, 1024)
    mon.observe_tx(KEY, 1, seconds(1.1), 1024)
    mon.observe_rx(KEY, 1, seconds(1.1) + 14_000_000, 1024)
    rec = mon.finalize(seconds(2))[0]
    assert rec.jitter_sum == 4_000_000
    assert rec.delay_sum == 24_000_000
    assert rec.last_delay == 14_000_000


def test_absorbed_drop_counts_ground_truth():
    mon = FlowMonitor()
    mon.observe_tx(KEY, 0, seconds(1), 1024)
    mon.observe_drop(KEY, 0, seconds(2), 1024, DropCause.BLACKHOLE_ABSORBED)
    rec = mon.finalize(seconds(3))[0]
    assert rec.lost_packets == 1
    assert rec.blackhole_absorbed == 1
    assert rec.rx_packets == 0


def test_non_absorbed_drops_leave_ground_truth_zero():
    mon = FlowMonitor()
    causes = (DropCause.NO_ROUTE, DropCause.QUEUE_OVERFLOW, DropCause.OUT_OF_RANGE)
    for seq, cause in enumerate(causes):
        mon.observe_tx(KEY, seq, seconds(1), 1024)
        mon.observe_drop(KEY, seq, seconds(2), 1024, cause)
    rec = mon.finalize(seconds(3))[0]
    assert rec.lost_packets == 3
    assert rec.blackhole_absorbed == 0


def test_duplicate_tx_rejected():
    mon = FlowMonitor()
    mon.observe_tx(KEY, 0, seconds(1), 1024)
    with pytest.raises(VanetlabError, match="seq 0, expected seq 1") as exc:
        mon.observe_tx(KEY, 0, seconds(2), 1024)
    assert exc.value.exit_code == 4


def test_second_terminal_rejected():
    mon = FlowMonitor()
    mon.observe_tx(KEY, 0, seconds(1), 1024)
    mon.observe_rx(KEY, 0, seconds(1.5), 1024)
    with pytest.raises(VanetlabError, match="second terminal observation") as exc:
        mon.observe_rx(KEY, 0, seconds(1.6), 1024)
    assert exc.value.exit_code == 4
    with pytest.raises(VanetlabError, match="second terminal observation") as exc:
        mon.observe_drop(KEY, 0, seconds(1.7), 1024, DropCause.NO_ROUTE)
    assert exc.value.exit_code == 4


def test_terminal_before_tx_rejected():
    mon = FlowMonitor()
    with pytest.raises(VanetlabError, match="terminal before Tx") as exc:
        mon.observe_rx(KEY, 5, seconds(1), 1024)
    assert exc.value.exit_code == 4


def per_kind(mon, o):
    """Hand observation o to the monitor's entry point for its kind."""
    if o.kind is ObsKind.TX:
        mon.observe_tx(o.key, o.seq, o.time, o.size_bytes)
    elif o.kind is ObsKind.RX:
        mon.observe_rx(o.key, o.seq, o.time, o.size_bytes)
    else:
        mon.observe_drop(o.key, o.seq, o.time, o.size_bytes, o.cause)


# (kind, seq) calls on KEY, each accepted but the last
REJECTED = {
    "tx-twice": [("tx", 0), ("tx", 0)],
    "tx-after-rx": [("tx", 0), ("rx", 0), ("tx", 0)],
    "tx-after-drop": [("tx", 0), ("drop", 0), ("tx", 0)],
    "tx-skips-a-seq": [("tx", 0), ("tx", 2)],
    "first-tx-not-zero": [("tx", 1)],
    "rx-on-an-unseen-flow": [("rx", 0)],
    "drop-on-an-unseen-flow": [("drop", 0)],
    "rx-of-an-unsent-seq": [("tx", 0), ("rx", 1)],
    "drop-of-an-unsent-seq": [("tx", 0), ("drop", 1)],
    "rx-of-a-negative-seq": [("tx", 0), ("rx", -1)],
    "rx-after-rx": [("tx", 0), ("rx", 0), ("rx", 0)],
    "drop-after-rx": [("tx", 0), ("rx", 0), ("drop", 0)],
    "rx-after-drop": [("tx", 0), ("drop", 0), ("rx", 0)],
    "drop-after-drop": [("tx", 0), ("drop", 0), ("drop", 0)],
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_per_kind_methods_reject_every_duplicate_and_orphan(case):
    """Each entry point raises a VanetlabError when called directly on a
    Tx that is not its flow's next seq or a terminal without a live Tx,
    and the rejected call changes no record."""
    calls = [
        FlowObservation(ObsKind(kind), KEY, seq, seconds(1 + i), 1024,
                        DropCause.NO_ROUTE if kind == "drop" else None)
        for i, (kind, seq) in enumerate(REJECTED[case])
    ]
    mon = FlowMonitor()
    for o in calls[:-1]:
        per_kind(mon, o)
    before = copy.deepcopy(mon)
    with pytest.raises(VanetlabError,
                       match="expected seq|terminal before Tx|second terminal") as exc:
        per_kind(mon, calls[-1])
    assert exc.value.exit_code == 4
    assert mon.finalize(seconds(9)) == before.finalize(seconds(9))


def random_stream(rng, flows=5, packets=30) -> list[FlowObservation]:
    """A valid observation stream: per packet a Tx, then an Rx (about 60%),
    a drop of a random in-run cause (30%) or nothing, left for finalize."""
    stream = []
    for f in range(flows):
        key = FlowKey(node_address(f), node_address(f + 1), 49153 + f, 9)
        t = seconds(1)
        for seq in range(packets):
            size = rng.randint(100, 1500)
            t += rng.randint(1_000_000, 9_000_000)
            stream.append(FlowObservation(ObsKind.TX, key, seq, t, size))
            roll = rng.random()
            if roll < 0.6:
                stream.append(FlowObservation(
                    ObsKind.RX, key, seq, t + rng.randint(1_000_000, 20_000_000), size))
            elif roll < 0.9:
                stream.append(FlowObservation(
                    ObsKind.DROP, key, seq, t + rng.randint(1, 5_000_000), size,
                    rng.choice(list(DropCause)[:4])))
    return stream


def test_observe_matches_the_per_kind_methods(monkeypatch):
    """observe(o) hands each observation once to its kind's entry point, so
    it builds the same records as calling those entry points directly."""
    logs = record_observations(monkeypatch)
    stream = random_stream(substream(99, 8))
    direct, dispatched = FlowMonitor(), FlowMonitor()
    for o in stream:
        per_kind(direct, o)
        dispatched.observe(o)
    assert logs[dispatched] == logs[direct] == stream
    assert dispatched.finalize(seconds(60)) == direct.finalize(seconds(60))
    assert logs[dispatched] == logs[direct]  # the same end-of-sim drops


def test_finalize_closes_open_packets_as_end_of_sim(monkeypatch):
    logs = record_observations(monkeypatch)
    mon = FlowMonitor()
    mon.observe_tx(KEY, 0, seconds(1), 1024)
    mon.observe_tx(KEY, 1, seconds(1.1), 1024)
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
    mon.observe_tx(KEY, 0, seconds(1), 1024)
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
        mon.observe_tx(KEY, i, first_tx + i * 8_000_000, 1024)
        mon.observe_rx(KEY, i, first_tx + i * 8_000_000 + 8_000_000, 1024)
    rec = mon.finalize(seconds(2))[0]
    window_s = (rec.time_last_rx - rec.time_first_tx) / 1e9
    assert window_s == pytest.approx(0.08)
    assert rec.throughput_bps == pytest.approx(10 * 1024 * 8 / 0.08, rel=1e-12)


def test_conservation_with_mixed_terminals():
    mon = FlowMonitor()
    for i in range(20):
        mon.observe_tx(KEY, i, seconds(1) + i, 1024)
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
        mon.observe_tx(k, 0, seconds(1), 100)
    recs = mon.finalize(seconds(2))
    ordered = [(r.src_addr, r.src_port) for r in recs]
    assert ordered == sorted(ordered)


def test_recompute_matches_monitor_on_random_streams(monkeypatch):
    """Feed a randomized but valid observation stream and require the
    incremental accumulators to agree with the from-scratch re-derivation."""
    logs = record_observations(monkeypatch)
    mon = FlowMonitor()
    for o in random_stream(substream(99, 7)):
        per_kind(mon, o)
    records = mon.finalize(seconds(60))
    audit = recompute_from_log(logs[mon])
    assert len(audit) == len(records) == 5
    for rec in records:
        ref = audit[flow_key(rec)]
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
    with pytest.raises(VanetlabError, match="src and dst must differ") as exc:
        start_flow(eng, _StubNode(), mon, bad)
    assert exc.value.exit_code == 4
