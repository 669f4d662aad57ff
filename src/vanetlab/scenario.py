"""One fully-resolved simulation scenario: place vehicles, run traffic,
collect flow records."""

from __future__ import annotations

from dataclasses import dataclass

from .aodv import AodvNode
from .engine import Engine, RadioConfig, SimTime, substream
from .flows import FlowMonitor, FlowRecord, FlowSpec, start_flow

# substream purposes, mixed with (seed, scenario index)
_PLACEMENT = 101
_VELOCITY = 102

# Corridor layout. Honest vehicles travel as two platoons at a fixed
# headway; the space left over in the usable span becomes the single
# inter-platoon gap. Attackers idle near the middle of that gap, so
# whether they fall inside radio reach of a platoon edge is decided by
# the vehicle count, not by placement luck.
PLATOON_HEADWAY_M = 25.0
SPAN_FRACTION = 0.9
ATTACKER_JITTER_M = 2.0
MIN_GAP_M = 60.0


@dataclass
class ArenaConfig:
    length_m: float = 1760.0
    width_m: float = 20.0


@dataclass
class MobilityConfig:
    """Each vehicle's speed is drawn uniformly from [min, max]."""

    speed_min_mps: float = 0.4
    speed_max_mps: float = 1.0


@dataclass
class ScenarioParams:
    """Everything run_scenario needs; sampling happens upstream."""

    index: int
    seed: int
    vehicles: int
    blackholes: tuple[int, ...]
    flows: list[FlowSpec]
    sim_duration_ns: SimTime
    arena: ArenaConfig
    radio: RadioConfig
    mobility: MobilityConfig


@dataclass
class ScenarioResult:
    records: list[FlowRecord]
    monitor: FlowMonitor
    nodes: dict[int, AodvNode]


def _layout_positions(params: ScenarioParams, rng) -> dict[int, float]:
    """Corridor x coordinate per node id.

    Honest ids, in ascending order, form a front and a rear platoon at
    PLATOON_HEADWAY_M spacing inside the usable span; whatever length is
    left over becomes the single inter-platoon gap. Attacker ids are
    dropped near the gap midpoint with a little jitter.
    """
    blackhole_set = set(params.blackholes)
    honest = [n for n in range(params.vehicles) if n not in blackhole_set]
    span = SPAN_FRACTION * params.arena.length_m
    x0 = (params.arena.length_m - span) / 2.0
    front = honest[: (len(honest) + 1) // 2]
    rear = honest[(len(honest) + 1) // 2:]
    gap = max(span - PLATOON_HEADWAY_M * max(len(honest) - 2, 0), MIN_GAP_M)

    xs: dict[int, float] = {}
    for i, n in enumerate(front):
        xs[n] = x0 + i * PLATOON_HEADWAY_M
    front_end = x0 + PLATOON_HEADWAY_M * max(len(front) - 1, 0)
    for i, n in enumerate(rear):
        xs[n] = front_end + gap + i * PLATOON_HEADWAY_M
    mid = front_end + gap / 2.0
    for n in params.blackholes:
        xs[n] = mid + rng.uniform(-ATTACKER_JITTER_M, ATTACKER_JITTER_M)
    return xs


def run_scenario(params: ScenarioParams) -> ScenarioResult:
    engine = Engine(radio=params.radio)
    monitor = FlowMonitor()

    place_rng = substream(params.seed, params.index, _PLACEMENT)
    speed_rng = substream(params.seed, params.index, _VELOCITY)
    blackhole_set = set(params.blackholes)
    mobility = params.mobility

    xs = _layout_positions(params, place_rng)

    nodes: dict[int, AodvNode] = {}
    for n in range(params.vehicles):
        if n in blackhole_set:
            y = params.arena.width_m / 2.0
        else:
            y = place_rng.uniform(0.0, params.arena.width_m)
        speed = speed_rng.uniform(mobility.speed_min_mps, mobility.speed_max_mps)
        direction = 1.0 if speed_rng.random() < 0.5 else -1.0
        node = AodvNode(n, engine, monitor, blackhole=n in blackhole_set)
        nodes[n] = node
        engine.register_node(
            n, (xs[n], y), (speed * direction, 0.0), receiver=node.on_frame
        )

    for spec in params.flows:
        start_flow(engine, nodes[spec.src], monitor, spec)

    engine.run_until(params.sim_duration_ns)
    records = monitor.finalize(params.sim_duration_ns)
    return ScenarioResult(records, monitor, nodes)
