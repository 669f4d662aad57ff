"""One fully drawn simulation scenario, wired and run: register each
vehicle at its start, start the flows, run the engine and collect the
flow records. Every random draw was taken by config.sample_scenario."""

from __future__ import annotations

from dataclasses import dataclass

from .aodv import AodvNode
from .engine import Engine, RadioConfig, SimTime
from .flows import FlowMonitor, FlowRecord, FlowSpec, start_flow


@dataclass
class ScenarioParams:
    """Everything run_scenario needs, drawn upstream: `nodes[n]` is
    vehicle n's (x, y, vx, vy) at t = 0, and the ids in `blackholes`
    are the attackers."""

    index: int
    nodes: list[tuple[float, float, float, float]]
    blackholes: tuple[int, ...]
    flows: list[FlowSpec]
    sim_duration_ns: SimTime
    radio: RadioConfig


@dataclass
class ScenarioResult:
    records: list[FlowRecord]
    monitor: FlowMonitor
    nodes: dict[int, AodvNode]


def run_scenario(params: ScenarioParams) -> ScenarioResult:
    engine = Engine(radio=params.radio)
    monitor = FlowMonitor()

    nodes: dict[int, AodvNode] = {}
    for n, (x, y, vx, vy) in enumerate(params.nodes):
        node = AodvNode(n, engine, monitor, blackhole=n in params.blackholes)
        nodes[n] = node
        engine.register_node(n, (x, y), (vx, vy), receiver=node.on_frame)

    for spec in params.flows:
        start_flow(engine, nodes[spec.src], monitor, spec)

    engine.run_until(params.sim_duration_ns)
    records = monitor.finalize(params.sim_duration_ns)
    return ScenarioResult(records, monitor, nodes)
