"""Observation recording and brute-force re-derivation of FlowMonitor
accumulators, shared by the flow-accounting tests as their reference."""

import collections
from typing import Iterable

from vanetlab.engine import SimTime
from vanetlab.flows import (
    DropCause,
    FlowKey,
    FlowMonitor,
    FlowObservation,
    FlowRecord,
    ObsKind,
)


def flow_key(rec: FlowRecord) -> FlowKey:
    """The four-tuple that names rec's flow, as its observations carry it."""
    return FlowKey(rec.src_addr, rec.dst_addr, rec.src_port, rec.dst_port)


def record_observations(monkeypatch) -> dict[FlowMonitor, list[FlowObservation]]:
    """Wrap FlowMonitor's observe_tx, observe_rx and observe_drop for the
    test's duration; the returned dict maps each monitor to every
    observation it took, in order, one FlowObservation per call."""
    logs: dict[FlowMonitor, list[FlowObservation]] = collections.defaultdict(list)

    def recording(kind: ObsKind):
        observe = getattr(FlowMonitor, f"observe_{kind.value}")

        def record(monitor, *fields):
            logs[monitor].append(FlowObservation(kind, *fields))
            observe(monitor, *fields)

        return record

    for kind in ObsKind:
        monkeypatch.setattr(FlowMonitor, f"observe_{kind.value}", recording(kind))
    return logs


def recompute_from_log(
    log: Iterable[FlowObservation],
) -> dict[FlowKey, dict[str, int]]:
    """Re-derive delay/jitter/counter accumulators from an observation log
    (one monitor's list from record_observations); used to audit the
    incremental bookkeeping."""
    tx_times: dict[tuple[FlowKey, int], SimTime] = {}
    out: dict[FlowKey, dict[str, int]] = {}
    delays: dict[FlowKey, list[int]] = {}
    for o in log:
        acc = out.setdefault(
            o.key,
            {
                "tx_packets": 0,
                "rx_packets": 0,
                "lost_packets": 0,
                "delay_sum": 0,
                "jitter_sum": 0,
                "last_delay": 0,
                "blackhole_absorbed": 0,
            },
        )
        if o.kind is ObsKind.TX:
            tx_times[(o.key, o.seq)] = o.time
            acc["tx_packets"] += 1
        elif o.kind is ObsKind.RX:
            d = o.time - tx_times[(o.key, o.seq)]
            delays.setdefault(o.key, []).append(d)
            acc["rx_packets"] += 1
        else:
            acc["lost_packets"] += 1
            if o.cause is DropCause.BLACKHOLE_ABSORBED:
                acc["blackhole_absorbed"] += 1
    for key, ds in delays.items():
        out[key]["delay_sum"] = sum(ds)
        out[key]["jitter_sum"] = sum(abs(b - a) for a, b in zip(ds, ds[1:]))
        out[key]["last_delay"] = ds[-1]
    return out
