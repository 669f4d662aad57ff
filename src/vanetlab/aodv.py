"""On-demand distance-vector routing with a blackhole behavioral variant.

Honest nodes discover routes by flooding route requests and unicasting
replies along the reverse path; entries are ordered by destination
sequence number (higher wins, ties by hop count). A blackhole node
answers every overheard request with a forged, maximally fresh reply and
silently absorbs any data packet it is asked to relay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .engine import BROADCAST, Engine, SimTime, seconds
from .errors import InvalidSpec
from .flows import DataPacket, DropCause, FlowMonitor

U32_MAX = 0xFFFFFFFF

RREQ_SIZE_BYTES = 24
RREP_SIZE_BYTES = 20


class Behavior(enum.Enum):
    HONEST = "honest"
    BLACKHOLE = "blackhole"


@dataclass
class AodvConfig:
    seq_boost: int = 1_000_000
    route_lifetime_ns: SimTime = seconds(10.0)
    rreq_retry_delay_ns: SimTime = seconds(1.0)
    max_retries: int = 2
    queue_cap: int = 64


@dataclass(slots=True)
class RouteEntry:
    dest: int
    next_hop: int
    hop_count: int
    dest_seq: int
    expiry: SimTime


class Rreq(NamedTuple):
    origin: int
    origin_seq: int
    rreq_id: int
    dest: int
    known_dest_seq: int
    hop_count: int


class Rrep(NamedTuple):
    dest: int
    dest_seq: int
    hop_count: int
    origin: int


class AodvNode:
    """Per-node routing agent driven by engine delivery events."""

    def __init__(
        self,
        node_id: int,
        engine: Engine,
        monitor: FlowMonitor,
        behavior: Behavior = Behavior.HONEST,
        config: AodvConfig | None = None,
    ):
        self.id = node_id
        self.engine = engine
        self.monitor = monitor
        self.behavior = behavior
        self.config = config or AodvConfig()
        self.routes: dict[int, RouteEntry] = {}
        self.own_seq = 0
        self._next_rreq_id = 0
        self._seen_rreqs: set[tuple[int, int]] = set()
        self._pending: dict[int, list[DataPacket]] = {}
        self._discovering: dict[int, int] = {}  # dest -> attempt number
        self.counters = {"rreq_tx": 0, "rrep_tx": 0, "data_tx": 0, "data_forwarded": 0}
        # exact payload type -> handler(payload, prev_hop)
        self._handlers = {
            Rreq: self.blackhole_handle_rreq
            if behavior is Behavior.BLACKHOLE else self.handle_rreq,
            Rrep: self.handle_rrep,
            DataPacket: self.handle_data,
        }

    # -- engine wiring ---------------------------------------------------

    def on_frame(self, prev_hop: int, payload) -> None:
        """Hand a received frame to its type's handler; other payloads are
        ignored."""
        handler = self._handlers.get(type(payload))
        if handler is not None:
            handler(payload, prev_hop)

    # -- data plane -------------------------------------------------------

    def send_data(self, pkt: DataPacket) -> None:
        """Origin entry point: route if possible, else queue and discover."""
        if pkt.dst == self.id:
            raise InvalidSpec("packet addressed to its own source")
        if self._send_routed(pkt):
            return
        queue = self._pending.setdefault(pkt.dst, [])
        if len(queue) >= self.config.queue_cap:
            self.monitor.observe_drop(
                pkt.key, pkt.seq, self.engine.clock, pkt.size_bytes, DropCause.QUEUE_OVERFLOW
            )
        else:
            queue.append(pkt)
        if pkt.dst not in self._discovering:
            self.originate_route_discovery(pkt.dst)

    def handle_data(self, pkt: DataPacket, prev_hop: int) -> None:
        """Deliver, relay or drop a data packet addressed through this node."""
        if pkt.dst == self.id:
            self.monitor.observe_rx(pkt.key, pkt.seq, self.engine.clock, pkt.size_bytes)
            return
        if self.behavior is Behavior.BLACKHOLE:
            cause = DropCause.BLACKHOLE_ABSORBED
        elif self._send_routed(pkt):
            self.counters["data_forwarded"] += 1
            return
        else:
            cause = DropCause.NO_ROUTE
        self.monitor.observe_drop(pkt.key, pkt.seq, self.engine.clock, pkt.size_bytes, cause)

    def _send_routed(self, pkt: DataPacket) -> bool:
        """Transmit pkt to its live route's next hop and count it as data_tx;
        False, with nothing sent, when no route to pkt.dst is live."""
        # live_route's rule, inlined: this runs once per data hop
        route = self.routes.get(pkt.dst)
        if route is None or route.expiry <= self.engine.clock:
            return False
        self.counters["data_tx"] += 1
        self.engine.transmit(self.id, route.next_hop, pkt.size_bytes, pkt)
        return True

    # -- route table --------------------------------------------------------

    def live_route(self, dest: int) -> Optional[RouteEntry]:
        entry = self.routes.get(dest)
        if entry is None or entry.expiry <= self.engine.clock:
            return None
        return entry

    def _maybe_install(self, entry: RouteEntry) -> bool:
        """Install `entry` iff it is fresher than the incumbent.

        Higher dest_seq wins; equal seq falls back to shorter hop count;
        an expired incumbent never blocks installation.
        """
        cur = self.routes.get(entry.dest)
        if cur is None or cur.expiry <= self.engine.clock:
            self.routes[entry.dest] = entry
            return True
        if entry.dest_seq > cur.dest_seq or (
            entry.dest_seq == cur.dest_seq and entry.hop_count < cur.hop_count
        ):
            self.routes[entry.dest] = entry
            return True
        return False

    # -- discovery ------------------------------------------------------------

    def originate_route_discovery(self, dest: int) -> None:
        self._discovering[dest] = 1
        self._broadcast_rreq(dest)
        self._schedule_retry_check(dest)

    def _broadcast_rreq(self, dest: int) -> None:
        self.own_seq += 1
        self._next_rreq_id += 1
        known = self.routes.get(dest)
        rreq = Rreq(
            origin=self.id,
            origin_seq=self.own_seq,
            rreq_id=self._next_rreq_id,
            dest=dest,
            known_dest_seq=known.dest_seq if known is not None else 0,
            hop_count=0,
        )
        # own flood echoes must not be reprocessed
        self._seen_rreqs.add((rreq.origin, rreq.rreq_id))
        self.counters["rreq_tx"] += 1
        self.engine.transmit(self.id, BROADCAST, RREQ_SIZE_BYTES, rreq)

    def _schedule_retry_check(self, dest: int) -> None:
        def check():
            if dest not in self._discovering:
                return
            if self.live_route(dest) is not None:
                del self._discovering[dest]
                return
            attempt = self._discovering[dest]
            if attempt <= self.config.max_retries:
                self._discovering[dest] = attempt + 1
                self._broadcast_rreq(dest)
                self._schedule_retry_check(dest)
            else:
                del self._discovering[dest]
                self._fail_pending(dest)

        self.engine.schedule_in(self.config.rreq_retry_delay_ns, check)

    def _fail_pending(self, dest: int) -> None:
        for pkt in self._pending.pop(dest, []):
            self.monitor.observe_drop(
                pkt.key, pkt.seq, self.engine.clock, pkt.size_bytes, DropCause.NO_ROUTE
            )

    def _flush_pending(self, dest: int) -> None:
        if self.live_route(dest) is None:
            return
        self._discovering.pop(dest, None)
        for pkt in self._pending.pop(dest, []):
            self._send_routed(pkt)

    # -- control plane -----------------------------------------------------------

    def handle_rreq(self, r: Rreq, prev_hop: int) -> None:
        if (r.origin, r.rreq_id) in self._seen_rreqs:
            return
        self._seen_rreqs.add((r.origin, r.rreq_id))
        self._maybe_install(
            RouteEntry(
                dest=r.origin,
                next_hop=prev_hop,
                hop_count=r.hop_count + 1,
                dest_seq=r.origin_seq,
                expiry=self.engine.clock + self.config.route_lifetime_ns,
            )
        )
        if r.dest == self.id:
            self.own_seq = max(self.own_seq, r.known_dest_seq)
            self._unicast_rrep(
                Rrep(dest=self.id, dest_seq=self.own_seq, hop_count=0, origin=r.origin),
                prev_hop,
            )
            return
        cached = self.live_route(r.dest)
        if cached is not None and cached.dest_seq >= r.known_dest_seq:
            self._unicast_rrep(
                Rrep(
                    dest=r.dest,
                    dest_seq=cached.dest_seq,
                    hop_count=cached.hop_count,
                    origin=r.origin,
                ),
                prev_hop,
            )
            return
        rebroadcast = Rreq(
            origin=r.origin,
            origin_seq=r.origin_seq,
            rreq_id=r.rreq_id,
            dest=r.dest,
            known_dest_seq=r.known_dest_seq,
            hop_count=r.hop_count + 1,
        )
        self.counters["rreq_tx"] += 1
        self.engine.transmit(self.id, BROADCAST, RREQ_SIZE_BYTES, rebroadcast)

    def blackhole_handle_rreq(self, r: Rreq, prev_hop: int) -> None:
        """Answer with a forged, maximally fresh reply; never rebroadcast."""
        if (r.origin, r.rreq_id) in self._seen_rreqs:
            return
        self._seen_rreqs.add((r.origin, r.rreq_id))
        if r.dest == self.id:
            # legitimate destination claim, answered in honest form; data
            # relayed through this node is still absorbed
            self.own_seq = max(self.own_seq, r.known_dest_seq)
            self._unicast_rrep(
                Rrep(dest=self.id, dest_seq=self.own_seq, hop_count=0, origin=r.origin),
                prev_hop,
            )
            return
        forged_seq = min(r.known_dest_seq + self.config.seq_boost, U32_MAX)
        self._unicast_rrep(
            Rrep(dest=r.dest, dest_seq=forged_seq, hop_count=1, origin=r.origin),
            prev_hop,
        )

    def handle_rrep(self, r: Rrep, prev_hop: int) -> None:
        self._maybe_install(
            RouteEntry(
                dest=r.dest,
                next_hop=prev_hop,
                hop_count=r.hop_count + 1,
                dest_seq=r.dest_seq,
                expiry=self.engine.clock + self.config.route_lifetime_ns,
            )
        )
        if r.origin == self.id:
            self._flush_pending(r.dest)
            return
        reverse = self.live_route(r.origin)
        if reverse is None:
            return  # no reverse path; reply dies here
        self._unicast_rrep(
            Rrep(dest=r.dest, dest_seq=r.dest_seq, hop_count=r.hop_count + 1, origin=r.origin),
            reverse.next_hop,
        )

    def _unicast_rrep(self, r: Rrep, next_hop: int) -> None:
        self.counters["rrep_tx"] += 1
        self.engine.transmit(self.id, next_hop, RREP_SIZE_BYTES, r)
