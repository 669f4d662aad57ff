"""Scenario layout and end-to-end run tests."""

from vanetlab.config import default_config, sample_scenario
from vanetlab.engine import RadioConfig, seconds, substream
from vanetlab.flows import FlowSpec
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
