"""On-demand distance-vector routing, for honest and blackhole nodes alike.

Nodes discover routes by flooding route requests and unicasting replies
along the reverse path; entries are ordered by destination sequence
number (higher wins, ties by hop count). A blackhole node is the same
agent with its `blackhole` flag set, and differs at exactly two
decisions: handle_rreq answers every request not addressed to it with a
forged, maximally fresh reply (installing no reverse route and never
rebroadcasting), and handle_data absorbs every data packet it is asked
to relay.

Nodes record every data-packet loss with its cause: no_route,
queue_overflow, blackhole_absorbed, or out_of_range when Engine.transmit
finds the next hop out of reach (RFC 3561 section 6.11).

Every node handles only its first copy of a route request, keyed by
(originator, request id) as in RFC 3561 section 6.5. Both request
broadcasts pass that key to Engine.transmit as the flood key, so the
engine queues no copy that could not be a node's first; the seen check
stays, so the outcome does not depend on the engine's skipping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .engine import BROADCAST, Engine, SimTime, seconds
from .errors import VanetlabError
from .flows import DataPacket, DropCause, FlowMonitor

U32_MAX = 0xFFFFFFFF

RREQ_SIZE_BYTES = 24
RREP_SIZE_BYTES = 20

SEQ_BOOST = 1_000_000  # added to the requested sequence number by a forged reply
ROUTE_LIFETIME_NS: SimTime = seconds(10.0)
RREQ_RETRY_DELAY_NS: SimTime = seconds(1.0)
MAX_RETRIES = 2
QUEUE_CAP = 64  # packets buffered per destination while a route is found


@dataclass(slots=True)
class RouteEntry:
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
        blackhole: bool = False,
    ):
        self.id = node_id
        self.engine = engine
        self.monitor = monitor
        self.blackhole = blackhole
        self.routes: dict[int, RouteEntry] = {}
        self.own_seq = 0
        self._next_rreq_id = 0
        self._seen_rreqs: set[tuple[int, int]] = set()
        self._pending: dict[int, list[DataPacket]] = {}
        self._discovering: dict[int, int] = {}  # dest -> attempt number
        self.counters = {"rreq_tx": 0, "rrep_tx": 0, "rrep_lost": 0, "data_tx": 0,
                         "data_forwarded": 0}
        # exact payload type -> handler(payload, prev_hop)
        self._handlers = {
            Rreq: self.handle_rreq,
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
            raise VanetlabError("packet addressed to its own source")
        if self._send_routed(pkt):
            return
        queue = self._pending.setdefault(pkt.dst, [])
        if len(queue) >= QUEUE_CAP:
            self._drop(pkt, DropCause.QUEUE_OVERFLOW)
        else:
            queue.append(pkt)
        if pkt.dst not in self._discovering:
            self._discovering[pkt.dst] = 1
            self._broadcast_rreq(pkt.dst)
            self._schedule_retry_check(pkt.dst)

    def handle_data(self, pkt: DataPacket, prev_hop: int) -> None:
        """Deliver, relay or drop a data packet addressed through this node."""
        if pkt.dst == self.id:
            self.monitor.observe_rx(pkt.key, pkt.seq, self.engine.clock, pkt.size_bytes)
            return
        if self.blackhole:
            self._drop(pkt, DropCause.BLACKHOLE_ABSORBED)
        elif self._send_routed(pkt):
            self.counters["data_forwarded"] += 1
        else:
            self._drop(pkt, DropCause.NO_ROUTE)

    def _send_routed(self, pkt: DataPacket) -> bool:
        """Transmit pkt to its live route's next hop and count it as data_tx,
        recording an out_of_range drop when that hop is out of reach;
        False, with nothing sent, when no route to pkt.dst is live."""
        # live_route's rule, inlined: this runs once per data hop
        route = self.routes.get(pkt.dst)
        if route is None or route.expiry <= self.engine.clock:
            return False
        self.counters["data_tx"] += 1
        if not self.engine.transmit(self.id, route.next_hop, pkt.size_bytes, pkt):
            self._drop(pkt, DropCause.OUT_OF_RANGE)
        return True

    def _drop(self, pkt: DataPacket, cause: DropCause) -> None:
        self.monitor.observe_drop(pkt.key, pkt.seq, self.engine.clock, pkt.size_bytes, cause)

    # -- route table --------------------------------------------------------

    def live_route(self, dest: int) -> Optional[RouteEntry]:
        entry = self.routes.get(dest)
        if entry is None or entry.expiry <= self.engine.clock:
            return None
        return entry

    def _maybe_install(self, dest: int, next_hop: int, hop_count: int, dest_seq: int) -> None:
        """Install a route for ROUTE_LIFETIME_NS iff it is fresher than the incumbent.

        Higher dest_seq wins; equal seq falls back to shorter hop count;
        an expired incumbent never blocks installation.
        """
        cur = self.live_route(dest)
        if cur is not None and (
            dest_seq < cur.dest_seq or (dest_seq == cur.dest_seq and hop_count >= cur.hop_count)
        ):
            return
        expiry = self.engine.clock + ROUTE_LIFETIME_NS
        self.routes[dest] = RouteEntry(next_hop, hop_count, dest_seq, expiry)

    # -- discovery ------------------------------------------------------------

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
        key = (rreq.origin, rreq.rreq_id)
        self._seen_rreqs.add(key)
        self.counters["rreq_tx"] += 1
        self.engine.transmit(self.id, BROADCAST, RREQ_SIZE_BYTES, rreq, flood=key)

    def _schedule_retry_check(self, dest: int) -> None:
        def check():
            if dest not in self._discovering:
                return
            if self.live_route(dest) is not None:
                del self._discovering[dest]
                return
            attempt = self._discovering[dest]
            if attempt <= MAX_RETRIES:
                self._discovering[dest] = attempt + 1
                self._broadcast_rreq(dest)
                self._schedule_retry_check(dest)
            else:
                del self._discovering[dest]
                self._fail_pending(dest)

        self.engine.schedule_in(RREQ_RETRY_DELAY_NS, check)

    def _fail_pending(self, dest: int) -> None:
        for pkt in self._pending.pop(dest, []):
            self._drop(pkt, DropCause.NO_ROUTE)

    def _flush_pending(self, dest: int) -> None:
        """Send what waits for dest; the caller holds a live route to it."""
        self._discovering.pop(dest, None)
        for pkt in self._pending.pop(dest, []):
            self._send_routed(pkt)

    # -- control plane -----------------------------------------------------------

    def handle_rreq(self, r: Rreq, prev_hop: int) -> None:
        """Answer a request as its destination, else (blackhole) with a
        forged reply, else from a fresh cached route, else rebroadcast it."""
        key = (r.origin, r.rreq_id)
        if key in self._seen_rreqs:
            return
        self._seen_rreqs.add(key)
        if not self.blackhole:
            self._maybe_install(r.origin, prev_hop, r.hop_count + 1, r.origin_seq)
        if r.dest == self.id:
            # a blackhole answers in honest form too; it still absorbs relays
            self.own_seq = max(self.own_seq, r.known_dest_seq)
            reply = Rrep(dest=self.id, dest_seq=self.own_seq, hop_count=0, origin=r.origin)
        elif self.blackhole:
            forged_seq = min(r.known_dest_seq + SEQ_BOOST, U32_MAX)
            reply = Rrep(dest=r.dest, dest_seq=forged_seq, hop_count=1, origin=r.origin)
        else:
            cached = self.live_route(r.dest)
            if cached is None or cached.dest_seq < r.known_dest_seq:
                self.counters["rreq_tx"] += 1
                onward = r._replace(hop_count=r.hop_count + 1)
                self.engine.transmit(self.id, BROADCAST, RREQ_SIZE_BYTES, onward, flood=key)
                return
            reply = Rrep(dest=r.dest, dest_seq=cached.dest_seq, hop_count=cached.hop_count,
                         origin=r.origin)
        self._unicast_rrep(reply, prev_hop)

    def handle_rrep(self, r: Rrep, prev_hop: int) -> None:
        self._maybe_install(r.dest, prev_hop, r.hop_count + 1, r.dest_seq)
        if r.origin == self.id:
            self._flush_pending(r.dest)
            return
        reverse = self.live_route(r.origin)
        if reverse is None:
            return  # no reverse path; reply dies here
        self._unicast_rrep(r._replace(hop_count=r.hop_count + 1), reverse.next_hop)

    def _unicast_rrep(self, r: Rrep, next_hop: int) -> None:
        """Send r to next_hop, counted in rrep_tx, and also in rrep_lost
        when next_hop is out of range."""
        self.counters["rrep_tx"] += 1
        if not self.engine.transmit(self.id, next_hop, RREP_SIZE_BYTES, r):
            self.counters["rrep_lost"] += 1
