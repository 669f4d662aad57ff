"""Sweep configuration: parameter ranges, the JSON config file format
used by the command line, and per-scenario sampling. Sampling takes
every random draw a scenario needs (its attackers, its traffic and each
vehicle's start), so run_scenario only wires and runs what it is given."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import Optional, get_type_hints

from .engine import NS_PER_S, RadioConfig, mix64, seconds, substream
from .errors import ConfigError
from .flows import FlowSpec
from .scenario import ScenarioParams

SRC_PORT_BASE = 49153
DST_PORT = 9
MAX_PORT = 0xFFFF

# sample_scenario builds the whole conversation pool up front
MAX_FLOW_PAIRS = 10_000

FLOW_START_MIN_S = 1.0
FLOW_START_MAX_S = 5.0

# substream purposes, mixed with (seed, scenario index)
_PLACEMENT = 101
_VELOCITY = 102
_SAMPLE = 103

# Corridor layout. Honest vehicles travel as two platoons at a fixed
# headway; the space left over in the usable span becomes the single
# inter-platoon gap. Attackers idle near the middle of that gap, so
# whether they fall inside radio reach of a platoon edge is decided by
# the vehicle count, not by placement luck.
PLATOON_HEADWAY_M = 25.0
SPAN_FRACTION = 0.9
ATTACKER_JITTER_M = 2.0
MIN_GAP_M = 60.0


def _int_range(value: tuple[int, int], name: str) -> None:
    """Order and sign of a pair that `_parse` has made exact integers."""
    lo, hi = value
    if lo > hi:
        raise ConfigError(f"{name}: lo {lo} exceeds hi {hi}")
    if lo <= 0:
        raise ConfigError(f"{name}: bounds must be positive")


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
class ScenarioConfig:
    """Everything a sweep needs. Ranges are inclusive [lo, hi] bounds
    sampled uniformly per scenario (per flow for the traffic ranges)."""

    seed: int = 1729
    scenario_count: int = 12
    flows_per_scenario: int = 250
    flow_pairs_per_scenario: int = 30
    sim_duration_s: float = 30.0
    vehicles: tuple[int, int] = (10, 65)
    malicious: tuple[int, int] = (1, 10)
    data_rate_kbps: tuple[int, int] = (600, 1800)
    packet_count: tuple[int, int] = (7, 70)
    packet_size_bytes: tuple[int, int] = (1024, 1800)
    arena: ArenaConfig = field(default_factory=ArenaConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    balance: Optional[tuple[int, int]] = (500, 1500)
    split_fraction: float = 0.6

    def validate(self) -> None:
        if self.seed < 0 or self.seed > 0xFFFFFFFFFFFFFFFF:
            raise ConfigError("seed must fit in 64 bits")
        if self.scenario_count < 1 or self.flows_per_scenario < 1:
            raise ConfigError("scenario_count and flows_per_scenario must be >= 1")
        if not 1 <= self.flow_pairs_per_scenario <= MAX_FLOW_PAIRS:
            raise ConfigError(f"flow_pairs_per_scenario must lie in [1, {MAX_FLOW_PAIRS}]")
        # finite in nanoseconds, where the simulator keeps time
        if not (FLOW_START_MAX_S < self.sim_duration_s
                and math.isfinite(self.sim_duration_s * NS_PER_S)):
            raise ConfigError(
                f"sim_duration_s must be finite in ns and exceed the flow start window "
                f"({FLOW_START_MAX_S}s)"
            )
        for name, hint in _FIELDS[ScenarioConfig].items():
            if hint == _PAIR:
                _int_range(getattr(self, name), name)
        for v_end, m_end in zip(self.vehicles, self.malicious):
            if m_end + 2 > v_end:
                raise ConfigError(
                    "each end of the malicious range must leave room for two "
                    f"honest vehicles ({m_end} + 2 > {v_end})"
                )
        if self.vehicles[1] > 254:
            raise ConfigError("at most 254 vehicles are addressable")
        last_port = SRC_PORT_BASE + self.scenario_count * self.flows_per_scenario - 1
        if last_port > MAX_PORT:
            raise ConfigError(
                f"scenario_count * flows_per_scenario exhausts the source port space "
                f"(last port {last_port} > {MAX_PORT})"
            )
        if not (0 < self.arena.length_m < math.inf and 0 < self.arena.width_m < math.inf):
            raise ConfigError("arena dimensions must be positive and finite")
        try:
            self.radio.validate()
        except ValueError as e:
            raise ConfigError(f"radio: {e}") from None
        m = self.mobility
        if not 0 <= m.speed_min_mps <= m.speed_max_mps < math.inf:
            raise ConfigError("need 0 <= speed_min_mps <= speed_max_mps < inf")
        if self.balance is not None:
            if self.balance[0] < 1 or self.balance[1] < 1:
                raise ConfigError("balance counts must be positive")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("split_fraction must lie in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_json_pairs)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Parse a JSON config object: every key optional, types exact, an
        omitted key (or a key omitted from a section) keeps its default."""
        cfg = _parse(raw, cls, "config", cls())
        cfg.validate()
        return cfg


def _json_pairs(items) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in items}


_PAIR = tuple[int, int]
_OPTIONAL_PAIR = Optional[_PAIR]
# scalar field type -> (the exact Python types json may give for it, wording)
_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _parse(value, hint, name: str, default):
    """`value`, read from JSON, as a field of type `hint`. Types are
    checked exactly: bool is an int subclass and must not pass for a
    count. A section starts from `default`, so a partial one keeps the
    rest of it."""
    if is_dataclass(hint):
        if type(value) is not dict:
            raise ConfigError(f"{name} must be a JSON object")
        hints = _FIELDS[hint]
        unknown = value.keys() - hints.keys()
        if unknown:
            raise ConfigError(f"unknown {name} keys: {json.dumps(sorted(unknown))}")
        return replace(default, **{
            key: _parse(item, hints[key], f"{name}.{key}", getattr(default, key))
            for key, item in value.items()
        })
    if hint == _OPTIONAL_PAIR and value is None:
        return None
    if hint in (_PAIR, _OPTIONAL_PAIR):
        if type(value) is not list or len(value) != 2 or any(type(v) is not int for v in value):
            raise ConfigError(f"{name} must be a [lo, hi] integer pair")
        return tuple(value)
    types, wording = _SCALARS[hint]
    if type(value) not in types:
        raise ConfigError(f"{name} must be {wording}, got {json.dumps(value)}")
    try:
        return hint(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None


# field name -> type of every config section, resolved once at import
_FIELDS = {
    cls: get_type_hints(cls)
    for cls in (ScenarioConfig, ArenaConfig, RadioConfig, MobilityConfig)
}


def _grid(lo: int, hi: int, index: int, count: int) -> int:
    """Integer grid point `index` of `count` spanning [lo, hi] inclusive."""
    if count <= 1:
        return hi
    return lo + round(index * (hi - lo) / (count - 1))


def _layout_positions(vehicles: int, blackholes: tuple[int, ...], length_m: float,
                      rng) -> dict[int, float]:
    """Corridor x coordinate per node id.

    Honest ids, in ascending order, form a front and a rear platoon at
    PLATOON_HEADWAY_M spacing inside the usable span; whatever length is
    left over becomes the single inter-platoon gap. Attacker ids are
    dropped near the gap midpoint with a little jitter.
    """
    honest = [n for n in range(vehicles) if n not in blackholes]
    span = SPAN_FRACTION * length_m
    x0 = (length_m - span) / 2.0
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
    for n in blackholes:
        xs[n] = mid + rng.uniform(-ATTACKER_JITTER_M, ATTACKER_JITTER_M)
    return xs


def sample_scenario(cfg: ScenarioConfig, index: int) -> ScenarioParams:
    """Scenario `index` of the sweep, every draw taken. Vehicle and
    attacker counts walk an ascending grid over their ranges, the way a
    load sweep steps through its operating points; the attackers and the
    traffic, each vehicle's placement, and its speed and direction each
    come from their own (seed, index)-derived substream."""
    rng = substream(cfg.seed, index, _SAMPLE)
    vehicles = _grid(cfg.vehicles[0], cfg.vehicles[1], index, cfg.scenario_count)
    malicious = min(
        _grid(cfg.malicious[0], cfg.malicious[1], index, cfg.scenario_count),
        vehicles - 2,
    )
    blackholes = tuple(sorted(rng.sample(range(vehicles), malicious)))
    honest = [n for n in range(vehicles) if n not in blackholes]

    # Traffic concentrates on a fixed pool of conversation pairs so the
    # same endpoints exchange packets repeatedly, as fleet telemetry and
    # platooning links do. Pool entries may collide; that only skews the
    # repeat counts, not the uniformity of the draw.
    pairs = [tuple(rng.sample(honest, 2)) for _ in range(cfg.flow_pairs_per_scenario)]

    port_base = SRC_PORT_BASE + index * cfg.flows_per_scenario
    flows = []
    for f in range(cfg.flows_per_scenario):
        src, dst = pairs[rng.randrange(len(pairs))]
        flows.append(
            FlowSpec(
                src=src,
                dst=dst,
                src_port=port_base + f,
                dst_port=DST_PORT,
                packet_size_bytes=rng.randint(*cfg.packet_size_bytes),
                data_rate_bps=rng.randint(*cfg.data_rate_kbps) * 1000,
                packet_count=rng.randint(*cfg.packet_count),
                start=seconds(rng.uniform(FLOW_START_MIN_S, FLOW_START_MAX_S)),
            )
        )

    # each vehicle's start, in id order; an attacker sits mid-width and
    # draws no y, and its x jitter is drawn first, inside the layout
    place_rng = substream(cfg.seed, index, _PLACEMENT)
    speed_rng = substream(cfg.seed, index, _VELOCITY)
    xs = _layout_positions(vehicles, blackholes, cfg.arena.length_m, place_rng)
    width, mobility = cfg.arena.width_m, cfg.mobility
    nodes = []
    for n in range(vehicles):
        y = width / 2.0 if n in blackholes else place_rng.uniform(0.0, width)
        speed = speed_rng.uniform(mobility.speed_min_mps, mobility.speed_max_mps)
        direction = 1.0 if speed_rng.random() < 0.5 else -1.0
        nodes.append((xs[n], y, speed * direction, 0.0))
    return ScenarioParams(
        index=index,
        nodes=nodes,
        blackholes=blackholes,
        flows=flows,
        sim_duration_ns=seconds(cfg.sim_duration_s),
        radio=replace(cfg.radio),
    )


def derived_seed(seed: int, purpose: int) -> int:
    """Stable sub-seed for downstream stages (split, balance, models)."""
    return mix64(seed, purpose)
