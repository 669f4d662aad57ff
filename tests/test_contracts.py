"""The simulator's contracts on paths the pinned configs never take.

The pinned digests cover the default sweep and the benchmark's two
simulator workloads. Each config below moves one setting off those
paths: equal arrival times, vehicles that never move, frames longer on
air than their send interval, single-packet flows, three vehicles,
fast-expiring neighbour lists, a radio that reaches nobody, and one
conversation pair. Every run must still account for each packet
(`rx + lost == tx`), count a blackhole loss only as a loss, and write
the same bytes twice: once sweeping in two worker processes, once in
process. No digest is pinned, so a deliberate behaviour change leaves
these tests alone.
"""

import json
import os

import pytest

from vanetlab.cli import cmd_simulate
from vanetlab.dataset import read_flows_csv

BASE = {
    "seed": 1729,
    "scenario_count": 2,
    "flows_per_scenario": 20,
    "vehicles": [58, 64],
    "malicious": [1, 2],
    "sim_duration_s": 12.0,
}

OFF_DEFAULT = {
    "no-propagation-delay": {"radio": {"prop_delay_s_per_m": 0.0}},
    "standing-still": {"mobility": {"speed_min_mps": 0.0, "speed_max_mps": 0.0}},
    "slow-radio": {"radio": {"bandwidth_bps": 20_000}},
    "one-packet-flows": {"packet_count": [1, 1]},
    "three-vehicles": {"vehicles": [3, 3], "malicious": [1, 1]},
    "fast-vehicles": {"mobility": {"speed_min_mps": 30.0, "speed_max_mps": 40.0}},
    "one-metre-range": {"radio": {"range_m": 1.0}},
    "one-flow-pair": {"flow_pairs_per_scenario": 1},
}
# the rest must reach an attacker, so that the blackhole path is checked
# too: on these two, no packet reaches one
MISS_THE_ATTACKER = {"one-metre-range", "three-vehicles"}


# usable CPUs per run: the first sweeps in a pool, the second in process
CPUS = {"first": {0, 1}, "second": {0}}


def simulate(tmp_path, monkeypatch, config, name):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: CPUS[name])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config) + "\n")
    out = tmp_path / name
    out.mkdir()
    cmd_simulate(str(path), str(out / "flows.csv"))
    return out / "flows.csv"


@pytest.mark.parametrize("name", sorted(OFF_DEFAULT))
def test_off_default_sweep_keeps_the_simulator_contracts(name, tmp_path, monkeypatch):
    config = {**BASE, **OFF_DEFAULT[name]}
    first, second = (simulate(tmp_path, monkeypatch, config, run) for run in CPUS)
    assert first.read_bytes() == second.read_bytes()
    records = read_flows_csv(first)
    assert len(records) == BASE["scenario_count"] * BASE["flows_per_scenario"]
    for r in records:
        assert r.rx_packets + r.lost_packets == r.tx_packets, r.key
        assert r.blackhole_absorbed <= r.lost_packets, r.key
    if name not in MISS_THE_ATTACKER:
        assert any(r.blackhole_absorbed for r in records)
