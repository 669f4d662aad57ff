"""Constant-bit-rate traffic generation and per-flow statistics.

A flow is the stream of packets sharing (src address, dst address,
src port, dst port). The monitor accumulates, per flow, the 17 stored
statistics (addresses/ports, first/last tx and rx times, delay sum,
jitter sum, last delay, packet and byte counters, throughput) plus the
ground-truth count of packets absorbed by a blackhole node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .engine import NS_PER_S, SimTime
from .errors import DuplicateTerminal, InvalidSpec


def node_address(node_id: int) -> int:
    """32-bit address of node n: the base-256 value of 10.1.1.(n+1)."""
    if not 0 <= node_id <= 253:
        raise ValueError(f"node id {node_id} outside addressable range")
    return (10 << 24) | (1 << 16) | (1 << 8) | (node_id + 1)


class DropCause(enum.Enum):
    NO_ROUTE = "no_route"
    QUEUE_OVERFLOW = "queue_overflow"
    BLACKHOLE_ABSORBED = "blackhole_absorbed"
    OUT_OF_RANGE = "out_of_range"
    END_OF_SIM = "end_of_sim"


class FlowKey(NamedTuple):
    src_addr: int
    dst_addr: int
    src_port: int
    dst_port: int


@dataclass
class FlowSpec:
    """One CBR flow: packet_count packets of packet_size_bytes, paced so the
    on-air bit rate equals data_rate_bps, starting at `start`."""

    src: int
    dst: int
    src_port: int
    dst_port: int
    packet_size_bytes: int
    data_rate_bps: int
    packet_count: int
    start: SimTime

    def validate(self) -> None:
        if self.src == self.dst:
            raise InvalidSpec("flow src and dst must differ")
        if self.packet_size_bytes <= 0 or self.data_rate_bps <= 0 or self.packet_count <= 0:
            raise InvalidSpec("packet size, data rate and packet count must be positive")
        if not (0 <= self.src_port <= 0xFFFF and 0 <= self.dst_port <= 0xFFFF):
            raise InvalidSpec("ports must fit in 16 bits")

    @property
    def key(self) -> FlowKey:
        return FlowKey(
            node_address(self.src), node_address(self.dst), self.src_port, self.dst_port
        )

    @property
    def interval_ns(self) -> SimTime:
        return (self.packet_size_bytes * 8 * NS_PER_S) // self.data_rate_bps


@dataclass(slots=True)
class DataPacket:
    key: FlowKey
    seq: int
    src: int
    dst: int
    size_bytes: int
    tx_time: SimTime


class ObsKind(enum.Enum):
    TX = "tx"
    RX = "rx"
    DROP = "drop"


class FlowObservation(NamedTuple):
    kind: ObsKind
    key: FlowKey
    seq: int
    time: SimTime
    size_bytes: int
    cause: Optional[DropCause] = None


_NS = {"unit": "ns"}  # flows.csv writes these columns with an _ns suffix
_NOT_SENT = object()  # FlowMonitor's marker for a seq with no Tx observation


@dataclass
class FlowRecord:
    """Per-flow statistics, accumulated in place by FlowMonitor; the field
    order is the flows.csv column order. rx timestamps stay None when
    nothing was received."""

    src_addr: int
    dst_addr: int
    src_port: int
    dst_port: int
    time_first_tx: SimTime = field(metadata=_NS)
    time_first_rx: Optional[SimTime] = field(metadata=_NS)
    time_last_tx: SimTime = field(metadata=_NS)
    time_last_rx: Optional[SimTime] = field(metadata=_NS)
    delay_sum: int = field(default=0, metadata=_NS)
    jitter_sum: int = field(default=0, metadata=_NS)
    last_delay: int = field(default=0, metadata=_NS)
    tx_packets: int = 0
    rx_packets: int = 0
    lost_packets: int = 0
    tx_bytes: int = 0
    rx_bytes: int = 0
    throughput_bps: float = 0.0
    blackhole_absorbed: int = 0  # ground truth, not one of the 17 features

    @property
    def key(self) -> FlowKey:
        return FlowKey(self.src_addr, self.dst_addr, self.src_port, self.dst_port)


class FlowMonitor:
    """Collects Tx/Rx/Drop observations straight into one FlowRecord per
    flow; finalize returns the monitor's own records.

    Per flow it keeps `(record, sent)`, where `sent` maps each seq to its
    Tx time, or to None once the packet has its terminal observation.
    No per-packet log is kept: no artifact reads one, and one retained
    tuple per observation costs memory and garbage-collector passes. An
    audit that needs the raw sequence wraps `observe`, which every
    observation passes through exactly once.
    """

    def __init__(self) -> None:
        self._flows: dict[FlowKey, tuple[FlowRecord, dict[int, Optional[SimTime]]]] = {}
        # always empty; read only by the benchmark's flows.log_objects count,
        # which goes with it (ROADMAP item 1)
        self.log: list[FlowObservation] = []

    # -- observation entry points ---------------------------------------

    def observe_rx(self, key: FlowKey, seq: int, time: SimTime, size_bytes: int) -> None:
        self.observe(FlowObservation(ObsKind.RX, key, seq, time, size_bytes))

    def observe_drop(
        self, key: FlowKey, seq: int, time: SimTime, size_bytes: int, cause: DropCause
    ) -> None:
        self.observe(FlowObservation(ObsKind.DROP, key, seq, time, size_bytes, cause))

    def observe(self, o: FlowObservation) -> None:
        kind, key, seq, time, size_bytes, cause = o
        entry = self._flows.get(key)
        if kind is ObsKind.TX:
            if entry is None:
                entry = self._flows[key] = (FlowRecord(*key, time, None, time, None), {})
            rec, sent = entry
            if seq in sent:
                raise DuplicateTerminal(f"duplicate Tx for {key} seq {seq}")
            sent[seq] = time
            rec.tx_packets += 1
            rec.tx_bytes += size_bytes
            rec.time_last_tx = time
        else:
            tx_time = _NOT_SENT if entry is None else entry[1].get(seq, _NOT_SENT)
            if tx_time is _NOT_SENT:
                raise DuplicateTerminal(f"terminal before Tx for {key} seq {seq}")
            if tx_time is None:
                raise DuplicateTerminal(f"second terminal observation for {key} seq {seq}")
            rec, sent = entry
            sent[seq] = None
            if kind is ObsKind.RX:
                delay = time - tx_time
                if rec.rx_packets > 0:
                    rec.jitter_sum += abs(delay - rec.last_delay)
                rec.last_delay = delay
                rec.delay_sum += delay
                rec.rx_packets += 1
                rec.rx_bytes += size_bytes
                if rec.time_first_rx is None:
                    rec.time_first_rx = time
                rec.time_last_rx = time
            else:
                rec.lost_packets += 1
                if cause is DropCause.BLACKHOLE_ABSORBED:
                    rec.blackhole_absorbed += 1

    # -- finalize ---------------------------------------------------------

    def finalize(self, t_end: SimTime) -> list[FlowRecord]:
        """Close still-open packets as end-of-sim drops, set each flow's
        throughput and return the records ordered by flow key."""
        for key, (_, sent) in self._flows.items():
            for seq in sorted(seq for seq, tx_time in sent.items() if tx_time is not None):
                self.observe_drop(key, seq, t_end, 0, DropCause.END_OF_SIM)
        records = [self._flows[key][0] for key in sorted(self._flows)]
        for rec in records:
            window_ns = rec.time_last_rx - rec.time_first_tx if rec.rx_packets else 0
            if window_ns > 0:
                rec.throughput_bps = rec.rx_bytes * 8 / (window_ns / NS_PER_S)
        return records


def start_flow(engine, node, monitor: FlowMonitor, spec: FlowSpec) -> None:
    """Schedule the flow's packets on the engine as one series.

    `node` is the source's routing agent; each packet is handed to it via
    send_data() right after the Tx observation is recorded, so every packet
    has a Tx entry regardless of what routing later does with it.
    """
    spec.validate()
    key = spec.key
    src, dst, size = spec.src, spec.dst, spec.packet_size_bytes

    def emit(i: int) -> None:
        now = engine.clock
        monitor.observe(FlowObservation(ObsKind.TX, key, i, now, size))
        node.send_data(DataPacket(key, i, src, dst, size, now))

    engine.schedule_series(spec.start, spec.interval_ns, spec.packet_count, emit)

