"""Scenario layout and end-to-end run tests."""

import collections

import pytest
from flow_audit import record_observations

from vanetlab.aodv import AodvNode
from vanetlab.config import default_config, sample_scenario
from vanetlab.engine import BROADCAST, Engine, RadioConfig, seconds, substream
from vanetlab.flows import FlowMonitor, FlowSpec
from vanetlab.scenario import (
    ATTACKER_JITTER_M,
    MIN_GAP_M,
    PLATOON_HEADWAY_M,
    SPAN_FRACTION,
    ArenaConfig,
    MobilityConfig,
    ScenarioParams,
    _layout_positions,
    _PLACEMENT,
    run_scenario,
)


def make_params(vehicles, blackholes, length_m=2000.0, seed=7, index=0,
                flows=None, duration=10.0, speeds=(0.0, 0.0)):
    return ScenarioParams(
        index=index,
        seed=seed,
        vehicles=vehicles,
        blackholes=tuple(blackholes),
        flows=flows or [],
        sim_duration_ns=seconds(duration),
        arena=ArenaConfig(length_m=length_m, width_m=20.0),
        radio=RadioConfig(),
        mobility=MobilityConfig(speed_min_mps=speeds[0], speed_max_mps=speeds[1]),
    )


def test_layout_platoon_geometry():
    params = make_params(vehicles=10, blackholes=(4, 5))
    rng = substream(params.seed, params.index, _PLACEMENT)
    xs = _layout_positions(params, rng)
    honest = [n for n in range(10) if n not in (4, 5)]
    span = SPAN_FRACTION * 2000.0
    x0 = (2000.0 - span) / 2.0

    # front platoon: first half of honest ids at fixed headway from x0
    front = honest[:4]
    for i, n in enumerate(front):
        assert xs[n] == x0 + i * PLATOON_HEADWAY_M
    # rear platoon closes exactly at x0 + span
    rear = honest[4:]
    assert xs[rear[-1]] == x0 + span
    for i in range(1, len(rear)):
        assert xs[rear[i]] - xs[rear[i - 1]] == PLATOON_HEADWAY_M
    # attackers sit near the middle of the inter-platoon gap
    gap_lo = xs[front[-1]]
    gap_hi = xs[rear[0]]
    assert gap_hi - gap_lo >= MIN_GAP_M
    mid = (gap_lo + gap_hi) / 2.0
    for b in (4, 5):
        assert abs(xs[b] - mid) <= ATTACKER_JITTER_M


def test_layout_honest_ids_ascend_left_to_right():
    params = make_params(vehicles=12, blackholes=(3,))
    rng = substream(params.seed, params.index, _PLACEMENT)
    xs = _layout_positions(params, rng)
    honest = [n for n in range(12) if n != 3]
    ordered = [xs[n] for n in honest]
    assert ordered == sorted(ordered)


def test_layout_gap_clamped_to_minimum():
    # a short arena would squeeze the platoons together; the layout must
    # keep the attacker corridor open instead
    params = make_params(vehicles=10, blackholes=(4,), length_m=200.0)
    rng = substream(params.seed, params.index, _PLACEMENT)
    xs = _layout_positions(params, rng)
    honest = [n for n in range(10) if n != 4]
    front_last = xs[honest[4]]
    rear_first = xs[honest[5]]
    assert rear_first - front_last == MIN_GAP_M


def test_run_scenario_is_deterministic():
    cfg = default_config()
    params = sample_scenario(cfg, 11)
    first = run_scenario(params).records
    second = run_scenario(params).records
    assert first == second


def test_run_scenario_blackhole_places_attacker_mid_width():
    flows = [FlowSpec(0, 2, 49153, 9, packet_size_bytes=1024,
                      data_rate_bps=1_024_000, packet_count=5,
                      start=seconds(1))]
    params = make_params(vehicles=3, blackholes=(1,), length_m=444.0,
                         flows=flows)
    result = run_scenario(params)
    engine = result.engine
    assert engine.position_at(1, engine.clock)[1] == params.arena.width_m / 2.0
    assert result.records[0].tx_packets == 5


def test_default_sweep_low_end_is_clean_and_high_end_is_poisoned():
    cfg = default_config()

    lo = run_scenario(sample_scenario(cfg, 0))
    assert all(r.blackhole_absorbed == 0 for r in lo.records)

    hi = run_scenario(sample_scenario(cfg, cfg.scenario_count - 1))
    poisoned = sum(1 for r in hi.records if r.blackhole_absorbed > 0)
    assert poisoned > 0
    # every flow still accounted for
    for r in hi.records:
        assert r.rx_packets + r.lost_packets == r.tx_packets


def test_every_observation_passes_once_through_observe(monkeypatch):
    """Per-layer benchmark counts wrap FlowMonitor.observe: every Tx and
    every terminal observation goes through it exactly once, and the
    monitor itself retains none of them."""
    logs = record_observations(monkeypatch)
    result = run_scenario(sample_scenario(default_config(), 9))
    total = sum(r.tx_packets + r.rx_packets + r.lost_packets for r in result.records)
    assert total > 0
    assert list(logs) == [result.monitor]
    assert len(logs[result.monitor]) == total
    assert result.monitor.log == []


# Per default-config scenario: events run, transmits by kind, frames
# received by payload type, observations by kind, distance checks and the
# AODV counters summed over nodes. Scenario 0 is a split corridor with its
# attacker out of reach; scenario 9 has attackers in reach of both platoons.
TRACES = {
    0: {"events": 16574, "broadcast": 299, "unicast": 5802,
        "Rreq": 1032, "Rrep": 9, "DataPacket": 5793,
        "tx": 9670, "rx": 5791, "drop": 3879, "distance": 6834,
        "rreq_tx": 299, "rrep_tx": 9, "data_tx": 5793, "data_forwarded": 2},
    9: {"events": 42697, "broadcast": 627, "unicast": 23955,
        "Rreq": 9389, "Rrep": 496, "DataPacket": 23459,
        "tx": 9326, "rx": 1664, "drop": 7662, "distance": 35730,
        "rreq_tx": 627, "rrep_tx": 496, "data_tx": 23459, "data_forwarded": 14218},
}


@pytest.mark.parametrize("index", sorted(TRACES))
def test_default_scenario_keeps_its_event_trace(index, monkeypatch):
    """The calls the benchmark's per-layer counts wrap, counted on a default
    scenario: a faster engine or routing path must run the same trace."""
    counts = collections.Counter()

    def count(owner, attr, key, add_result=False):
        orig = getattr(owner, attr)

        def counting(*args):
            result = orig(*args)
            counts[key(*args)] += result if add_result else 1
            return result

        monkeypatch.setattr(owner, attr, counting)

    count(Engine, "run_until", lambda *a: "events", add_result=True)
    count(Engine, "transmit",
          lambda eng, src, dst, *rest: "broadcast" if dst == BROADCAST else "unicast")
    count(Engine, "distance", lambda *a: "distance")
    count(AodvNode, "on_frame", lambda node, prev_hop, payload: type(payload).__name__)
    count(FlowMonitor, "observe", lambda monitor, o: o.kind.value)
    result = run_scenario(sample_scenario(default_config(), index))
    for node in result.nodes.values():
        counts.update(node.counters)
    assert dict(counts) == TRACES[index]
