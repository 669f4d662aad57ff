"""Scenario layout and end-to-end run tests."""

import collections
import random

import pytest
from flow_audit import record_observations
from pins import TRACED, WORKLOADS, load, trace

from vanetlab.aodv import AodvNode, Rreq
from vanetlab.config import (
    ATTACKER_JITTER_M,
    MIN_GAP_M,
    PLATOON_HEADWAY_M,
    SPAN_FRACTION,
    ScenarioConfig,
    _layout_positions,
    sample_scenario,
)
from vanetlab.engine import Engine
from vanetlab.flows import FlowMonitor
from vanetlab.scenario import run_scenario


def test_layout_platoon_geometry():
    xs = _layout_positions(10, (4, 5), 2000.0, random.Random(7))
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
    xs = _layout_positions(12, (3,), 2000.0, random.Random(7))
    honest = [n for n in range(12) if n != 3]
    ordered = [xs[n] for n in honest]
    assert ordered == sorted(ordered)


def test_layout_gap_clamped_to_minimum():
    # a short arena would squeeze the platoons together; the layout must
    # keep the attacker corridor open instead
    xs = _layout_positions(10, (4,), 200.0, random.Random(7))
    honest = [n for n in range(10) if n != 4]
    front_last = xs[honest[4]]
    rear_first = xs[honest[5]]
    assert rear_first - front_last == MIN_GAP_M


def test_run_scenario_is_deterministic():
    cfg = ScenarioConfig()
    params = sample_scenario(cfg, 11)
    first = run_scenario(params).records
    second = run_scenario(params).records
    assert first == second


def test_run_scenario_blackhole_places_attacker_mid_width(monkeypatch):
    """Sampling puts each attacker mid-width and standing across it, and
    run_scenario registers every vehicle at its sampled start."""
    cfg = ScenarioConfig()
    params = sample_scenario(cfg, 9)
    registered = []
    register = Engine.register_node

    def recorded(engine, node_id, position, velocity=(0.0, 0.0), receiver=None):
        registered.append((*position, *velocity))
        register(engine, node_id, position, velocity, receiver)

    monkeypatch.setattr(Engine, "register_node", recorded)
    result = run_scenario(params)
    assert registered == params.nodes
    for b in params.blackholes:
        _, y, _, vy = registered[b]
        assert y == cfg.arena.width_m / 2.0 and vy == 0.0
    assert sum(r.tx_packets for r in result.records) > 0


# the random.Random methods a draw goes through
DRAWS = ("random", "uniform", "randint", "randrange", "sample", "getrandbits")


@pytest.mark.parametrize("index", [0, 9])
def test_run_scenario_takes_no_draw(index, monkeypatch):
    """A sampled scenario is fully drawn: run_scenario gives the same
    records with every random draw made to raise."""
    params = sample_scenario(ScenarioConfig(), index)
    want = run_scenario(params).records

    def refused(*args, **kwargs):
        raise AssertionError("run_scenario took a random draw")

    for name in DRAWS:
        monkeypatch.setattr(random.Random, name, refused)
    with pytest.raises(AssertionError):
        random.Random(1).uniform(0.0, 1.0)
    assert run_scenario(params).records == want


def test_default_sweep_low_end_is_clean_and_high_end_is_poisoned():
    cfg = ScenarioConfig()

    lo = run_scenario(sample_scenario(cfg, 0))
    assert all(r.blackhole_absorbed == 0 for r in lo.records)

    hi = run_scenario(sample_scenario(cfg, cfg.scenario_count - 1))
    poisoned = sum(1 for r in hi.records if r.blackhole_absorbed > 0)
    assert poisoned > 0
    # every flow still accounted for
    for r in hi.records:
        assert r.rx_packets + r.lost_packets == r.tx_packets


def test_every_observation_passes_once_through_one_per_kind_method(monkeypatch):
    """Every Tx and every terminal observation goes exactly once through
    FlowMonitor's observe_tx, observe_rx or observe_drop, none through the
    generic observe, and the monitor itself retains none of them."""
    logs = record_observations(monkeypatch)
    generic = []
    observe = FlowMonitor.observe

    def counting(monitor, o):
        generic.append(o)
        observe(monitor, o)

    monkeypatch.setattr(FlowMonitor, "observe", counting)
    result = run_scenario(sample_scenario(ScenarioConfig(), 9))
    total = sum(r.tx_packets + r.rx_packets + r.lost_packets for r in result.records)
    assert total > 0
    assert list(logs) == [result.monitor]
    assert len(logs[result.monitor]) == total
    assert generic == []
    assert result.monitor.log == []


PINNED_TRACES = load()["simulator"]["traces"]


@pytest.mark.parametrize("index", TRACED)
def test_default_scenario_keeps_its_event_trace(index):
    """The boundaries behind the benchmark's per-layer counts, counted on a
    default scenario: a faster engine or routing path must run the same trace."""
    assert trace(index) == PINNED_TRACES[str(index)]


# (config overrides, seed, scenario index): the two default scenarios of
# the pinned event traces, and the benchmark's dense-corridor and
# split-corridor simulator workloads at two other seeds each
CONNECTED, PARTITIONED = WORKLOADS["sim-connected"], WORKLOADS["sim-partitioned"]
FLOOD_RUNS = {
    "default-0": ({}, 1729, 0),
    "default-9": ({}, 1729, 9),
    "connected-1": (CONNECTED, 1, 0),
    "connected-2": (CONNECTED, 2, 5),
    "partitioned-1": (PARTITIONED, 1, 8),
    "partitioned-2": (PARTITIONED, 2, 4),
}


def _flood_run(params, keyed):
    """One run's records, observations, summed AODV counters and route
    requests received; with keyed=False every flood key is dropped, so
    every copy of every route request is queued and delivered."""
    rreqs = 0
    with pytest.MonkeyPatch.context() as mp:
        logs = record_observations(mp)
        on_frame, transmit = AodvNode.on_frame, Engine.transmit

        def counting(node, prev_hop, payload):
            nonlocal rreqs
            rreqs += type(payload) is Rreq
            on_frame(node, prev_hop, payload)

        mp.setattr(AodvNode, "on_frame", counting)
        if not keyed:
            mp.setattr(Engine, "transmit",
                       lambda eng, src, dst, size, payload, flood=None:
                       transmit(eng, src, dst, size, payload))
        result = run_scenario(params)
    counters = collections.Counter()
    for node in result.nodes.values():
        counters.update(node.counters)
    return result.records, logs[result.monitor], counters, rreqs


@pytest.mark.parametrize("run", sorted(FLOOD_RUNS))
def test_flood_keys_skip_only_copies_aodv_discards(run):
    """Queueing a route request copy only where it can arrive first
    changes no outcome: the same records, the same observations in the
    same order (so the same drops by cause) and the same AODV counters,
    from strictly fewer route request receptions."""
    overrides, seed, index = FLOOD_RUNS[run]
    params = sample_scenario(ScenarioConfig.from_dict({**overrides, "seed": seed}), index)
    records, observations, counters, rreqs = _flood_run(params, keyed=True)
    want_records, want_observations, want_counters, all_rreqs = _flood_run(params, keyed=False)
    assert records == want_records
    assert observations == want_observations
    assert any(o.cause is not None for o in observations)  # drops are compared too
    assert counters == want_counters
    assert counters["rreq_tx"] > 0
    assert rreqs < all_rreqs
