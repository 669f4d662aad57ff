"""Event loop, radio model and RNG derivation tests.

Latency and neighborhood checks recompute expected values from the raw
formulas rather than trusting the engine's own arithmetic.
"""

import math

import pytest

from vanetlab.engine import (
    BROADCAST,
    NS_PER_S,
    Engine,
    RadioConfig,
    mix64,
    seconds,
    substream,
)
from vanetlab.errors import VanetlabError


def test_seconds_floors_to_integer_ns():
    assert seconds(1.0) == 1_000_000_000
    assert seconds(0.0000000015) == 1
    assert isinstance(seconds(2.5), int)


def test_mix64_deterministic_and_order_sensitive():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    assert mix64(1, 2) != mix64(2, 1)
    assert 0 <= mix64(2**64 - 1, 12345) < 2**64


def test_substream_reproducible_and_independent():
    a = [substream(7, 1).random() for _ in range(5)]
    b = [substream(7, 1).random() for _ in range(5)]
    c = [substream(7, 2).random() for _ in range(5)]
    assert a == b
    assert a != c


def test_events_fire_in_time_then_insertion_order():
    eng = Engine()
    fired = []
    eng.schedule_at(seconds(5), lambda: fired.append("first"))
    eng.schedule_at(seconds(5), lambda: fired.append("second"))
    eng.schedule_at(seconds(1), lambda: fired.append("early"))
    eng.run_until(seconds(10))
    assert fired == ["early", "first", "second"]


def test_child_at_same_fire_time_runs_after_parent():
    eng = Engine()
    fired = []

    def parent():
        fired.append("parent")
        eng.schedule_at(eng.clock, lambda: fired.append("child"))

    eng.schedule_at(seconds(2), parent)
    count = eng.run_until(seconds(2))
    assert fired == ["parent", "child"]
    assert count == 2


def test_run_until_is_boundary_inclusive():
    eng = Engine()
    fired = []
    for t in (1, 2, 3):
        eng.schedule_at(seconds(t), lambda t=t: fired.append(t))
    assert eng.run_until(seconds(2)) == 2
    assert fired == [1, 2]
    assert eng.clock == seconds(2)


def test_run_until_empty_queue_advances_clock():
    eng = Engine()
    assert eng.run_until(seconds(10)) == 0
    assert eng.clock == seconds(10)


def test_run_until_backwards_rejected():
    eng = Engine()
    eng.run_until(seconds(5))
    with pytest.raises(ValueError):
        eng.run_until(seconds(4))


def test_scheduling_in_the_past_rejected():
    eng = Engine()
    eng.run_until(seconds(3))
    with pytest.raises(VanetlabError, match="but clock is") as exc:
        eng.schedule_at(seconds(2), lambda: None)
    assert exc.value.exit_code == 4


def test_position_static_node():
    eng = Engine()
    eng.register_node(0, (100.0, 0.0))
    eng.register_node(1, (0.0, 0.0))
    assert eng.distance(0, 1, 0) == 100.0
    assert eng.distance(0, 1, seconds(42)) == 100.0


def test_position_linear_motion():
    # node 0 drives along x onto the spot 30 m straight below node 1
    eng = Engine()
    eng.register_node(0, (0.0, 0.0), velocity=(10.0, 0.0))
    eng.register_node(1, (50.0, 30.0))
    assert eng.distance(0, 1, 0) == math.hypot(50.0, 30.0)
    assert eng.distance(0, 1, seconds(5)) == 30.0


def test_unknown_node_raises():
    eng = Engine()
    with pytest.raises(VanetlabError, match="node 99 is not registered") as exc:
        eng.neighbors(99, 0)
    assert exc.value.exit_code == 4
    eng.register_node(0, (0.0, 0.0))
    for a, b in ((99, 0), (0, 99)):
        with pytest.raises(VanetlabError, match="node 99 is not registered") as exc:
            eng.distance(a, b, 0)
        assert exc.value.exit_code == 4
    for src, dst in ((99, BROADCAST), (99, 0), (99, 99), (0, 99)):
        with pytest.raises(VanetlabError, match="node 99 is not registered") as exc:
            eng.transmit(src, dst, 64, "x")
        assert exc.value.exit_code == 4
    assert eng.run_until(seconds(1)) == 0  # nothing was scheduled


def test_neighbors_collinear_chain():
    eng = Engine(RadioConfig(range_m=250.0))
    for i, x in enumerate((0.0, 200.0, 400.0)):
        eng.register_node(i, (x, 0.0))
    assert eng.neighbors(0, 0) == [1]
    assert eng.neighbors(1, 0) == [0, 2]
    assert eng.neighbors(2, 0) == [1]


def test_neighbors_boundary_distance_is_in_range():
    eng = Engine(RadioConfig(range_m=250.0))
    eng.register_node(0, (0.0, 0.0))
    eng.register_node(1, (250.0, 0.0))
    assert eng.neighbors(0, 0) == [1]


def test_neighbors_symmetry_random_layout():
    eng = Engine(RadioConfig(range_m=120.0))
    rng = substream(11, 0)
    for i in range(15):
        eng.register_node(i, (rng.uniform(0, 500), rng.uniform(0, 500)))
    for n in range(15):
        for m in eng.neighbors(n, 0):
            assert n in eng.neighbors(m, 0)


def latency(radio, size, d):
    """The radio's delay for `size` bytes over d metres, from the raw
    formula: serialization plus propagation, floored to whole ns, >= 1."""
    tx = (size * 8 * NS_PER_S) // radio.bandwidth_bps
    prop = int(radio.prop_delay_s_per_m * d * NS_PER_S)
    return max(1, tx + prop)


def arrival(radio, size, d):
    """When a unicast of `size` bytes sent at t = 0 reaches a node d
    metres away."""
    eng = Engine(radio)
    got = []
    eng.register_node(0, (0.0, 0.0))
    eng.register_node(1, (d, 0.0), receiver=lambda src, p: got.append(eng.clock))
    assert eng.transmit(0, 1, size, "x")
    eng.run_until(seconds(1))
    assert len(got) == 1
    return got[0]


def test_latency_formula_serialization_only():
    # 1024 bytes over 6 Mbps at zero distance: floor(1024*8/6e6 * 1e9)
    assert arrival(RadioConfig(bandwidth_bps=6_000_000), 1024, 0.0) == 1_365_333


def test_latency_includes_propagation():
    radio = RadioConfig(bandwidth_bps=6_000_000, prop_delay_s_per_m=3.336e-9)
    expected = (1024 * 8 * NS_PER_S) // 6_000_000 + int(3.336e-9 * 200.0 * NS_PER_S)
    assert arrival(radio, 1024, 200.0) == latency(radio, 1024, 200.0) == expected


def test_latency_floors_at_one_ns():
    eng = Engine(RadioConfig(bandwidth_bps=10**12))
    assert arrival(eng.radio, 1, 0.0) == 1
    # a frame whose serialization rounds to 0 ns, between co-located nodes
    got = []
    for n in (0, 1):
        eng.register_node(n, (5.0, 5.0), receiver=lambda s, p, n=n: got.append((n, eng.clock)))
    eng.run_until(7)
    eng.transmit(0, 1, 1, "unicast")
    eng.transmit(1, BROADCAST, 1, "broadcast")
    eng.run_until(20)
    assert got == [(1, 8), (0, 8)]


def test_unicast_delivery_time_and_payload():
    eng = Engine()
    got = []
    eng.register_node(0, (0.0, 0.0))
    eng.register_node(1, (100.0, 0.0), receiver=lambda src, p: got.append((src, p, eng.clock)))
    eng.transmit(0, 1, 1024, "hello")
    eng.run_until(seconds(1))
    assert len(got) == 1
    src, payload, at = got[0]
    assert src == 0
    assert payload == "hello"
    assert at == latency(eng.radio, 1024, 100.0)


def test_unicast_out_of_range_reports_no_delivery():
    eng = Engine(RadioConfig(range_m=250.0))
    got = []
    eng.register_node(0, (0.0, 0.0))
    eng.register_node(1, (300.0, 0.0), receiver=lambda src, p: got.append(p))
    assert eng.transmit(0, 1, 512, "lost") is False
    eng.run_until(seconds(1))
    assert got == []


def test_broadcast_reaches_all_in_range_except_sender():
    eng = Engine(RadioConfig(range_m=250.0))
    got = {1: [], 2: [], 3: []}
    eng.register_node(0, (0.0, 0.0), receiver=lambda s, p: pytest.fail("sender received"))
    eng.register_node(1, (100.0, 0.0), receiver=lambda s, p: got[1].append(p))
    eng.register_node(2, (200.0, 0.0), receiver=lambda s, p: got[2].append(p))
    eng.register_node(3, (900.0, 0.0), receiver=lambda s, p: got[3].append(p))
    eng.transmit(0, BROADCAST, 64, "beacon")
    eng.run_until(seconds(1))
    assert got[1] == ["beacon"]
    assert got[2] == ["beacon"]
    assert got[3] == []


def test_broadcast_with_no_neighbors_is_silent():
    eng = Engine()
    eng.register_node(0, (0.0, 0.0))
    eng.register_node(1, (900.0, 0.0))
    assert eng.transmit(0, BROADCAST, 64, "beacon") is True  # no loss to report
    assert eng.run_until(seconds(1)) == 0


def test_equal_time_timers_series_and_receptions_run_in_seq_order():
    # co-located nodes at 10**12 b/s: every frame arrives 1 ns after sending
    eng = Engine(RadioConfig(bandwidth_bps=10**12, prop_delay_s_per_m=0.0))
    trace = []
    for n in (0, 1, 2):
        eng.register_node(n, (0.0, 0.0), receiver=lambda s, p, n=n: trace.append((n, p)))
    eng.schedule_at(1, lambda: trace.append("timer 1"))
    eng.transmit(0, 1, 1, "unicast")
    eng.schedule_series(1, 0, 2, lambda i: trace.append(f"series {i}"))
    eng.transmit(2, BROADCAST, 1, "broadcast")
    eng.schedule_at(1, lambda: trace.append("timer 2"))
    assert eng.run_until(1) == 7
    assert trace == ["timer 1", (1, "unicast"), "series 0", "series 1",
                     (0, "broadcast"), (1, "broadcast"), "timer 2"]


def test_transmit_rejects_nonpositive_size():
    eng = Engine()
    eng.register_node(0, (0.0, 0.0))
    eng.register_node(1, (1.0, 0.0))
    with pytest.raises(ValueError):
        eng.transmit(0, 1, 0, "x")


def test_mobility_changes_connectivity_over_time():
    # node 1 approaches node 0 at 10 m/s from 400 m away
    eng = Engine(RadioConfig(range_m=250.0))
    got = []
    eng.register_node(0, (0.0, 0.0), receiver=lambda s, p: got.append(p))
    eng.register_node(1, (400.0, 0.0), velocity=(-10.0, 0.0))
    eng.transmit(1, 0, 64, "far")
    eng.run_until(seconds(20))
    assert got == []  # still 400 m apart at t=0
    assert eng.distance(0, 1, eng.clock) == pytest.approx(200.0)
    eng.transmit(1, 0, 64, "near")
    eng.run_until(seconds(21))
    assert got == ["near"]


def test_distance_matches_hypot():
    eng = Engine()
    eng.register_node(0, (3.0, 0.0))
    eng.register_node(1, (0.0, 4.0))
    assert eng.distance(0, 1, 0) == pytest.approx(math.hypot(3.0, 4.0))


def test_distance_is_bitwise_hypot_of_positions():
    # exact equality: a last-ulp difference could flip an arrival time
    eng = Engine()
    rng = substream(5, 0)
    kin = {}
    for n in range(12):
        kin[n] = (
            (rng.uniform(0.0, 2000.0), rng.uniform(0.0, 20.0)),
            (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
        )
        eng.register_node(n, *kin[n])

    def position(n, t):
        (x, y), (vx, vy) = kin[n]
        dt = t / NS_PER_S
        return x + vx * dt, y + vy * dt

    for t in (0, 1, seconds(0.3), seconds(17.123456789), seconds(29.9)):
        for a in range(12):
            for b in range(12):
                (ax, ay), (bx, by) = position(a, t), position(b, t)
                assert eng.distance(a, b, t) == math.hypot(ax - bx, ay - by)


def _series_trace(lazy: bool):
    """Run three flow-like series plus one-off events, some scheduled by
    the series' own actions at the same nanosecond as other series
    events; lazily with schedule_series, or eagerly with one schedule_at
    per event. Returns (trace, events executed)."""
    eng = Engine()
    trace = []

    def series(tag, start, interval, count):
        def act(i):
            trace.append((eng.clock, tag, i))
            if i % 2 == 0:  # runtime events tied with series events
                eng.schedule_at(eng.clock, lambda: trace.append((eng.clock, tag, i, "now")))
                eng.schedule_in(10, lambda: trace.append((eng.clock, tag, i, "later")))

        if lazy:
            eng.schedule_series(start, interval, count, act)
        else:
            for i in range(count):
                eng.schedule_at(start + i * interval, lambda i=i: act(i))

    eng.schedule_at(20, lambda: trace.append((eng.clock, "one-off")))
    series("a", 0, 10, 6)
    series("b", 10, 10, 5)  # every b packet ties with an a packet
    eng.schedule_at(20, lambda: trace.append((eng.clock, "one-off, later seq")))
    series("c", 20, 0, 3)  # zero interval: all at one instant
    executed = eng.run_until(25)
    series("d", 30, 5, 4)  # started mid-run
    series("e", 40, 10, 1)
    executed += eng.run_until(200)
    return trace, executed


def test_series_runs_in_eager_schedule_order():
    lazy, eager = _series_trace(True), _series_trace(False)
    assert lazy == eager
    assert len(lazy[0]) == lazy[1] == 6 + 5 + 3 + 4 + 1 + 2 + 2 * (3 + 3 + 2 + 2 + 1)


def test_series_rejects_bad_arguments():
    eng = Engine()
    eng.run_until(seconds(1))
    with pytest.raises(VanetlabError, match="but clock is") as exc:
        eng.schedule_series(0, 10, 3, lambda i: None)
    assert exc.value.exit_code == 4
    for interval, count in ((-1, 3), (10, 0)):
        with pytest.raises(ValueError):
            eng.schedule_series(seconds(2), interval, count, lambda i: None)
    assert eng.run_until(seconds(5)) == 0


def test_identical_schedules_execute_identically():
    def build():
        eng = Engine()
        trace = []
        for t, tag in ((3, "a"), (1, "b"), (3, "c"), (2, "d")):
            eng.schedule_at(seconds(t), lambda tag=tag: trace.append(tag))
        eng.run_until(seconds(5))
        return trace

    assert build() == build()


def test_radio_config_validation():
    with pytest.raises(ValueError):
        RadioConfig(range_m=0.0).validate()
    with pytest.raises(ValueError):
        RadioConfig(bandwidth_bps=0).validate()


def _reference_frames(eng, ids, frames, radio):
    """Brute-force deliveries of `frames` [(t, src, dst, size)]: every
    node in `ids` but src (or dst only, for a unicast) whose distance at
    t is within range, arriving after the raw latency formula, ordered
    by arrival time, then transmit order, then id.
    Returns (deliveries [(arrival, rcv, src, frame)], dropped frames)."""
    out, dropped = [], []
    for k, (t, src, dst, size) in enumerate(frames):
        hits = []
        for rcv in (sorted(ids) if dst == BROADCAST else [dst]):
            d = eng.distance(src, rcv, t)
            if rcv != src and d <= radio.range_m:
                hits.append((t + latency(radio, size, d), k, rcv))
        if dst != BROADCAST and not hits:
            dropped.append(k)
        out.extend(hits)
    out.sort()
    return [(at, rcv, frames[k][1], k) for at, k, rcv in out], dropped


@pytest.mark.parametrize("prop_delay", [3.336e-9, 0.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_transmit_matches_brute_force_reference(seed, prop_delay):
    # zero propagation delay makes every receiver of one frame arrive at
    # the same instant, so the tie order (ascending id) is exercised
    radio = RadioConfig(range_m=150.0, bandwidth_bps=6_000_000, prop_delay_s_per_m=prop_delay)
    eng = Engine(radio)
    rng = substream(seed, 7)
    got = []
    ids = rng.sample(range(60), 24)  # registered out of id order
    for i, n in enumerate(ids):
        # a third of the nodes drive at 200-240 m/s either way, so a
        # broadcast list lives about 0.08 s, over which a head-on pair
        # closes in by nearly the whole skin
        if i % 3 == 0:
            vx = rng.choice((-1, 1)) * rng.uniform(200.0, 240.0)
        else:
            vx = rng.uniform(-30.0, 30.0)
        eng.register_node(
            n,
            (rng.uniform(0.0, 700.0), rng.uniform(0.0, 40.0)),
            (vx, rng.uniform(-2.0, 2.0)),
            receiver=lambda src, k, n=n: got.append((eng.clock, n, src, k)),
        )
    drops = []
    frames = []
    for step in range(240):
        # four frames per instant: 0.01 s apart and mostly broadcasts
        # first, so lists are reused while pairs cross in and out of the
        # skin; then 0.7 s apart, so every list has expired
        fine = step < 200
        t = seconds(step // 4 * 0.01 if fine else 0.5 + (step - 200) // 4 * 0.7)
        eng.run_until(t)
        src = rng.choice(ids)
        dst = BROADCAST if rng.random() < (0.8 if fine else 0.4) else rng.choice(ids)
        size = rng.choice((64, 512, 1500))
        frames.append((t, src, dst, size))
        if not eng.transmit(src, dst, size, len(frames) - 1):
            drops.append(len(frames) - 1)
    eng.run_until(seconds(60))
    expected, dropped = _reference_frames(eng, ids, frames, radio)
    assert got == expected
    assert drops == dropped
    assert len(expected) > 120 and dropped  # the layouts exercise both outcomes


def test_reregistered_node_invalidates_broadcast_lists():
    # static nodes: a broadcast list would otherwise never expire
    eng = Engine(RadioConfig(range_m=100.0))
    got = []
    for n, x in ((0, 0.0), (1, 500.0), (2, 90.0)):
        eng.register_node(n, (x, 0.0), receiver=lambda s, p, n=n: got.append((n, p)))
    eng.transmit(0, BROADCAST, 64, "before")
    eng.run_until(seconds(1))
    eng.register_node(1, (50.0, 0.0), receiver=lambda s, p: got.append((1, p)))  # moved in
    eng.register_node(2, (400.0, 0.0), receiver=lambda s, p: got.append((2, p)))  # moved out
    eng.register_node(3, (-80.0, 0.0), receiver=lambda s, p: got.append((3, p)))  # new
    eng.transmit(0, BROADCAST, 64, "after")
    eng.run_until(seconds(2))
    assert got == [(2, "before"), (1, "after"), (3, "after")]
    assert eng.neighbors(0, eng.clock) == [1, 3]


def test_transmit_edge_cases():
    eng = Engine(RadioConfig(range_m=250.0))
    got = []
    for n, x in ((0, 0.0), (1, 250.0), (2, 250.5)):
        eng.register_node(n, (x, 0.0), receiver=lambda s, p, n=n: got.append((n, s, p)))
    eng.register_node(3, (10.0, 0.0))  # no receiver: its frames arrive nowhere

    assert eng.transmit(0, 0, 64, "self") is False
    assert eng.transmit(0, 2, 64, "far") is False
    assert eng.run_until(seconds(1)) == 0

    # a frame in range is delivered even when nobody handles it
    assert [eng.transmit(0, dst, 64, p)
            for dst, p in ((1, "edge"), (3, "mute"), (BROADCAST, "all"))] == [True] * 3
    assert eng.run_until(seconds(2)) == 4  # edge, mute, all to nodes 1 and 3
    assert got == [(1, 0, "edge"), (1, 0, "all")]
    with pytest.raises(VanetlabError, match="node 9 is not registered") as exc:
        eng.transmit(0, 9, 64, "nobody")
    assert exc.value.exit_code == 4


def _flood_engine(xs, prop_delay=3.336e-9):
    """Static nodes on a line at range 250 m, each recording (node, src,
    payload, arrival), and the (sender, node) pairs the engine measures."""
    eng = Engine(RadioConfig(range_m=250.0, prop_delay_s_per_m=prop_delay))
    got, checks = [], []
    for n, x in enumerate(xs):
        eng.register_node(n, (x, 0.0),
                          receiver=lambda s, p, n=n: got.append((n, s, p, eng.clock)))
    distance = eng.distance
    eng.distance = lambda a, b, t: checks.append((a, b)) or distance(a, b, t)
    return eng, got, checks


@pytest.mark.parametrize("prop_delay", [3.336e-9, 0.0])
def test_flood_copy_with_an_equal_arrival_is_not_queued(prop_delay):
    # nodes 0 and 1 sit 200 m either side of node 2, out of each other's reach
    eng, got, checks = _flood_engine([0.0, 400.0, 200.0], prop_delay)
    eng.transmit(0, BROADCAST, 64, "first", flood="k")
    eng.transmit(1, BROADCAST, 64, "second", flood="k")
    eng.run_until(seconds(1))
    assert got == [(2, 0, "first", latency(eng.radio, 64, 200.0))]
    # the second copy could arrive no earlier than node 2's record: with no
    # propagation delay that is known before its distance is measured
    assert checks == ([(0, 2), (1, 2)] if prop_delay else [(0, 2)])


def test_flood_copy_that_overtakes_an_earlier_one_is_queued():
    eng, got, _ = _flood_engine([0.0, 230.0, 240.0])
    eng.transmit(0, BROADCAST, 64, "far", flood="k")
    eng.run_until(100)
    eng.transmit(1, BROADCAST, 64, "near", flood="k")  # 10 m away, sent 100 ns later
    eng.run_until(seconds(1))
    near, far = 100 + latency(eng.radio, 64, 10.0), latency(eng.radio, 64, 240.0)
    assert near < far
    # the earlier copy is already queued and still arrives; the receiver
    # discards it as it would any copy after its first
    assert [g for g in got if g[0] == 2] == [(2, 1, "near", near), (2, 0, "far", far)]


def test_flood_never_returns_to_a_sender():
    # 0 reaches only 1; 1 relays the flood on its first copy and reaches 0 and 2
    eng, got, checks = _flood_engine([0.0, 100.0, 300.0])
    eng.register_node(1, (100.0, 0.0), receiver=lambda s, p: (
        got.append((1, s, p, eng.clock)), eng.transmit(1, BROADCAST, 64, p, flood="k")))
    eng.transmit(0, BROADCAST, 64, "req", flood="k")
    eng.run_until(seconds(1))
    assert [(n, s) for n, s, _, _ in got] == [(1, 0), (2, 1)]
    # node 0 holds the flood since it sent it: no distance is measured to it
    assert checks == [(0, 1), (0, 2), (1, 2)]


def test_keyless_broadcasts_reach_every_node_in_range():
    eng, got, _ = _flood_engine([0.0, 100.0, 200.0])
    eng.transmit(2, BROADCAST, 64, "flood", flood="k")
    eng.transmit(0, BROADCAST, 64, "a")
    eng.transmit(0, BROADCAST, 64, "b")
    eng.transmit(1, BROADCAST, 64, "c")
    eng.transmit(2, BROADCAST, 64, "d")
    eng.run_until(seconds(1))
    assert sorted((p, n) for n, _, p, _ in got) == [
        ("a", 1), ("a", 2), ("b", 1), ("b", 2), ("c", 0), ("c", 2),
        ("d", 0), ("d", 1), ("flood", 0), ("flood", 1)]
