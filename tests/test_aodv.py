"""Routing protocol tests.

Route quality is audited against an independent breadth-first-search
oracle over the same unit-disk connectivity graph, so shortest-path
claims never depend on the router's own bookkeeping.
"""

import collections
import math

from flow_audit import record_observations

from vanetlab.aodv import ROUTE_LIFETIME_NS, AodvNode, RouteEntry, Rrep
from vanetlab.engine import Engine, seconds, substream
from vanetlab.flows import DropCause, FlowMonitor, FlowSpec, start_flow

RANGE_M = 250.0


def bfs_hops(positions, src, dst, radio_range=RANGE_M):
    """Shortest hop count over the unit-disk graph, or None if disconnected."""
    ids = list(positions)
    dist = {src: 0}
    frontier = collections.deque([src])
    while frontier:
        cur = frontier.popleft()
        if cur == dst:
            return dist[cur]
        for other in ids:
            if other in dist:
                continue
            dx = positions[other][0] - positions[cur][0]
            dy = positions[other][1] - positions[cur][1]
            if math.hypot(dx, dy) <= radio_range:
                dist[other] = dist[cur] + 1
                frontier.append(other)
    return dist.get(dst)


def build_static(positions, blackholes=()):
    """Wire a static topology: engine, monitor, and one AodvNode per entry."""
    engine = Engine()
    monitor = FlowMonitor()
    nodes = {}
    for node_id, pos in positions.items():
        node = AodvNode(node_id, engine, monitor, blackhole=node_id in blackholes)
        nodes[node_id] = node
        engine.register_node(node_id, pos, (0.0, 0.0), receiver=node.on_frame)
    return engine, monitor, nodes


def run_flow(engine, monitor, nodes, src, dst, count=10, until=20.0,
             size=1024, rate=1_024_000, start=1.0):
    spec = FlowSpec(src, dst, 49153, 9, packet_size_bytes=size,
                    data_rate_bps=rate, packet_count=count,
                    start=seconds(start))
    start_flow(engine, nodes[src], monitor, spec)
    engine.run_until(seconds(until))
    return monitor.finalize(seconds(until))


def test_chain_route_matches_bfs_and_delivers():
    positions = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0)}
    engine, monitor, nodes = build_static(positions)
    records = run_flow(engine, monitor, nodes, 0, 2)
    route = nodes[0].routes[2]
    assert route.hop_count == 2 == bfs_hops(positions, 0, 2)
    assert route.next_hop == 1
    rec = records[0]
    assert rec.tx_packets == rec.rx_packets == 10
    assert rec.lost_packets == 0


def test_random_static_graphs_find_shortest_paths():
    """Across seeded random connected layouts the installed route must be
    exactly as short as the BFS oracle says it can be."""
    rng = substream(424242, 17)
    checked = 0
    attempts = 0
    while checked < 8 and attempts < 60:
        attempts += 1
        positions = {i: (rng.uniform(0, 600), rng.uniform(0, 600))
                     for i in range(12)}
        hops = bfs_hops(positions, 0, 11)
        if hops is None:
            continue
        engine, monitor, nodes = build_static(positions)
        records = run_flow(engine, monitor, nodes, 0, 11, count=5)
        assert nodes[0].routes[11].hop_count == hops
        assert records[0].rx_packets == 5
        total_rreq = sum(n.counters["rreq_tx"] for n in nodes.values())
        assert total_rreq <= len(positions)  # flood dedup: one rebroadcast each
        checked += 1
    assert checked == 8


def test_diamond_flood_dedup():
    # two equal-length branches; each node rebroadcasts at most once and
    # the destination answers instead of rebroadcasting
    positions = {0: (0.0, 0.0), 1: (200.0, 100.0), 2: (200.0, -100.0),
                 3: (400.0, 0.0)}
    engine, monitor, nodes = build_static(positions)
    run_flow(engine, monitor, nodes, 0, 3, count=1)
    assert nodes[0].counters["rreq_tx"] == 1
    assert nodes[1].counters["rreq_tx"] == 1
    assert nodes[2].counters["rreq_tx"] == 1
    assert nodes[3].counters["rreq_tx"] == 0
    assert nodes[3].counters["rrep_tx"] == 1


def test_intermediate_cached_route_reply():
    positions = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0)}
    engine, monitor, nodes = build_static(positions)
    nodes[1].routes[2] = RouteEntry(next_hop=2, hop_count=1, dest_seq=5,
                                    expiry=seconds(100))
    records = run_flow(engine, monitor, nodes, 0, 2)
    # the middle node answered from cache, so the destination stayed silent
    assert nodes[1].counters["rrep_tx"] == 1
    assert nodes[2].counters["rrep_tx"] == 0
    route = nodes[0].routes[2]
    assert route.dest_seq == 5
    assert route.hop_count == 2
    assert route.next_hop == 1
    assert records[0].rx_packets == 10


def test_freshness_rules_unit():
    engine, monitor, nodes = build_static({0: (0.0, 0.0)})
    node = nodes[0]

    def install(seq, hops):
        """The (dest_seq, hop_count) of the route to 9 after offering one."""
        node._maybe_install(9, 9, hops, seq)
        route = node.routes[9]
        return route.dest_seq, route.hop_count

    assert install(5, 3) == (5, 3)
    assert install(9, 5) == (9, 5)  # higher seq replaces despite longer path
    assert install(9, 2) == (9, 2)  # same seq, fewer hops replaces
    assert install(9, 4) == (9, 2)  # same seq, more hops keeps incumbent
    assert install(8, 1) == (9, 2)  # lower seq never replaces


def test_expired_incumbent_never_blocks():
    engine, monitor, nodes = build_static({0: (0.0, 0.0)})
    node = nodes[0]
    node.routes[9] = RouteEntry(9, 1, 50, expiry=0)
    engine.clock = seconds(1)
    node._maybe_install(9, 9, 3, 2)
    assert node.routes[9].dest_seq == 2
    assert node.routes[9].expiry == seconds(1) + ROUTE_LIFETIME_NS


def test_route_expiry_triggers_rediscovery():
    positions = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0)}
    engine, monitor, nodes = build_static(positions)
    spec1 = FlowSpec(0, 2, 49153, 9, packet_size_bytes=1024,
                     data_rate_bps=1_024_000, packet_count=5, start=seconds(1))
    spec2 = FlowSpec(0, 2, 49154, 9, packet_size_bytes=1024,
                     data_rate_bps=1_024_000, packet_count=5, start=seconds(15))
    start_flow(engine, nodes[0], monitor, spec1)
    start_flow(engine, nodes[0], monitor, spec2)
    engine.run_until(seconds(30))
    records = monitor.finalize(seconds(30))
    # the 10 s lifetime lapsed between flows, forcing a second discovery
    assert nodes[0].counters["rreq_tx"] == 2
    assert all(r.rx_packets == 5 for r in records)


def test_unreachable_destination_retries_then_fails(monkeypatch):
    logs = record_observations(monkeypatch)
    positions = {0: (0.0, 0.0), 1: (600.0, 0.0)}
    engine, monitor, nodes = build_static(positions)
    records = run_flow(engine, monitor, nodes, 0, 1, count=10, until=20.0)
    # initial request plus two retries
    assert nodes[0].counters["rreq_tx"] == 3
    rec = records[0]
    assert rec.rx_packets == 0
    assert rec.lost_packets == 10
    drops = [o for o in logs[monitor] if o.kind.value == "drop"]
    assert len(drops) == 10
    assert all(o.cause is DropCause.NO_ROUTE for o in drops)
    # discovery started at 1 s; failure lands after the 3 s retry window
    assert all(o.time == seconds(4) for o in drops)


def test_queue_overflow_sheds_excess_packets(monkeypatch):
    logs = record_observations(monkeypatch)
    positions = {0: (0.0, 0.0), 1: (600.0, 0.0)}
    engine, monitor, nodes = build_static(positions)
    # 70 packets injected every 1 ms overwhelm the 64-slot pending queue
    # long before the discovery window closes
    records = run_flow(engine, monitor, nodes, 0, 1, count=70,
                       size=1024, rate=8_192_000_000, until=20.0)
    causes = collections.Counter(
        o.cause for o in logs[monitor] if o.kind.value == "drop")
    assert causes[DropCause.QUEUE_OVERFLOW] == 6
    assert causes[DropCause.NO_ROUTE] == 64
    assert records[0].lost_packets == 70


def test_blackhole_forges_sequence_from_known_seq():
    positions = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0)}
    engine, monitor, nodes = build_static(positions, blackholes={1})
    # origin remembers an expired route whose seq the forger must top
    nodes[0].routes[2] = RouteEntry(2, 9, dest_seq=7, expiry=0)
    run_flow(engine, monitor, nodes, 0, 2, count=1)
    route = nodes[0].routes[2]
    assert route.dest_seq == 1_000_007
    assert route.next_hop == 1
    assert route.hop_count == 2  # attacker claimed 1 hop, +1 at install


def test_blackhole_absorbs_relayed_data():
    # triangle: direct A-C link exists, but the attacker outbids it
    positions = {0: (0.0, 0.0), 1: (100.0, 100.0), 2: (200.0, 0.0)}
    engine, monitor, nodes = build_static(positions, blackholes={1})
    records = run_flow(engine, monitor, nodes, 0, 2)
    assert nodes[0].routes[2].next_hop == 1
    rec = records[0]
    assert rec.rx_packets == 0
    assert rec.blackhole_absorbed == 10
    assert nodes[1].counters["data_forwarded"] == 0
    assert nodes[1].counters["data_tx"] == 0


def test_blackhole_never_rebroadcasts_rreq():
    positions = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0)}
    engine, monitor, nodes = build_static(positions, blackholes={1})
    run_flow(engine, monitor, nodes, 0, 2, count=3)
    assert nodes[1].counters["rreq_tx"] == 0
    # the honest destination never heard the flood
    assert nodes[2].counters["rrep_tx"] == 0


def test_blackhole_delivers_when_it_is_the_destination():
    positions = {0: (0.0, 0.0), 1: (200.0, 0.0)}
    engine, monitor, nodes = build_static(positions, blackholes={1})
    records = run_flow(engine, monitor, nodes, 0, 1)
    rec = records[0]
    assert rec.rx_packets == 10
    assert rec.blackhole_absorbed == 0


def test_blackhole_answers_each_origin():
    positions = {0: (0.0, 0.0), 1: (100.0, 100.0), 2: (200.0, 0.0)}
    engine, monitor, nodes = build_static(positions, blackholes={1})
    spec_a = FlowSpec(0, 2, 49153, 9, packet_size_bytes=512,
                      data_rate_bps=1_024_000, packet_count=2, start=seconds(1))
    spec_b = FlowSpec(2, 0, 49154, 9, packet_size_bytes=512,
                      data_rate_bps=1_024_000, packet_count=2, start=seconds(1))
    start_flow(engine, nodes[0], monitor, spec_a)
    start_flow(engine, nodes[2], monitor, spec_b)
    engine.run_until(seconds(10))
    assert nodes[1].counters["rrep_tx"] == 2


def test_rrep_without_reverse_path_dies():
    engine, monitor, nodes = build_static({0: (0.0, 0.0), 1: (200.0, 0.0)})
    orphan = Rrep(origin=5, dest=9, dest_seq=3, hop_count=1)
    nodes[1].handle_rrep(orphan, prev_hop=0)
    assert nodes[1].counters["rrep_tx"] == 0
    # the forwarder still learned the route it carried
    assert 9 in nodes[1].routes


def test_rrep_to_an_out_of_range_hop_counts_as_lost():
    """A reply forwarded to a reverse next hop beyond radio range is
    counted as sent and as lost; one within range only as sent."""
    engine, monitor, nodes = build_static({0: (0.0, 0.0), 1: (200.0, 0.0), 2: (600.0, 0.0)})
    for origin, hop in ((5, 0), (6, 2)):
        nodes[1].routes[origin] = RouteEntry(next_hop=hop, hop_count=1, dest_seq=1,
                                             expiry=seconds(100))
        nodes[1].handle_rrep(Rrep(origin=origin, dest=9, dest_seq=3, hop_count=1), prev_hop=0)
    assert nodes[1].counters["rrep_tx"] == 2
    assert nodes[1].counters["rrep_lost"] == 1


def test_stale_route_drops_out_of_range(monkeypatch):
    """A receding node keeps using its cached route past the radio edge;
    those frames must surface as out-of-range losses, never vanish."""
    engine = Engine()
    logs = record_observations(monkeypatch)
    monitor = FlowMonitor()
    a = AodvNode(0, engine, monitor)
    b = AodvNode(1, engine, monitor)
    engine.register_node(0, (0.0, 0.0), (-0.5, 0.0), receiver=a.on_frame)
    engine.register_node(1, (245.0, 0.0), (0.0, 0.0), receiver=b.on_frame)
    spec = FlowSpec(0, 1, 49153, 9, packet_size_bytes=512,
                    data_rate_bps=12_288, packet_count=60, start=seconds(1))
    start_flow(engine, a, monitor, spec)
    engine.run_until(seconds(25))
    rec = monitor.finalize(seconds(25))[0]
    assert rec.rx_packets > 0
    assert rec.lost_packets > 0
    assert rec.rx_packets + rec.lost_packets == rec.tx_packets == 60
    causes = {o.cause for o in logs[monitor] if o.kind.value == "drop"}
    assert DropCause.OUT_OF_RANGE in causes


def test_destination_seq_reply_uses_max_of_own_and_known():
    positions = {0: (0.0, 0.0), 1: (200.0, 0.0)}
    engine, monitor, nodes = build_static(positions)
    nodes[1].own_seq = 3
    run_flow(engine, monitor, nodes, 0, 1, count=1)
    assert nodes[0].routes[1].dest_seq == 3
    assert nodes[1].own_seq == 3
