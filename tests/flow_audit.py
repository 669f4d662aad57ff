"""Observation recording and brute-force re-derivation of FlowMonitor
accumulators, shared by the flow-accounting tests as their reference."""

import collections
from typing import Iterable

from vanetlab.engine import SimTime
from vanetlab.flows import DropCause, FlowKey, FlowMonitor, FlowObservation, ObsKind


def record_observations(monkeypatch) -> dict[FlowMonitor, list[FlowObservation]]:
    """Wrap FlowMonitor.observe for the test's duration; the returned dict
    maps each monitor to every observation it took, in order."""
    logs: dict[FlowMonitor, list[FlowObservation]] = collections.defaultdict(list)
    observe = FlowMonitor.observe

    def recording(monitor, o):
        logs[monitor].append(o)
        observe(monitor, o)

    monkeypatch.setattr(FlowMonitor, "observe", recording)
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
