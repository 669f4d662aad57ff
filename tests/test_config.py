"""Configuration and sweep-sampling tests."""

import json
import random

import pytest

from vanetlab.config import (
    DST_PORT,
    FLOW_START_MAX_S,
    FLOW_START_MIN_S,
    MAX_FLOW_PAIRS,
    SRC_PORT_BASE,
    ArenaConfig,
    MobilityConfig,
    ScenarioConfig,
    _grid,
    derived_seed,
    sample_scenario,
)
from vanetlab.engine import Engine, RadioConfig, mix64, seconds
from vanetlab.errors import ConfigError


def test_defaults_are_valid_and_match_sweep_ranges():
    cfg = ScenarioConfig()
    cfg.validate()
    assert cfg.seed == 1729
    assert cfg.scenario_count == 12
    assert cfg.flows_per_scenario == 250
    assert cfg.vehicles == (10, 65)
    assert cfg.malicious == (1, 10)
    assert cfg.data_rate_kbps == (600, 1800)
    assert cfg.packet_count == (7, 70)
    assert cfg.packet_size_bytes == (1024, 1800)
    assert cfg.sim_duration_s == 30.0
    assert cfg.balance == (500, 1500)
    assert cfg.split_fraction == 0.6


def test_grid_hits_both_endpoints_and_ascends():
    points = [_grid(10, 65, i, 12) for i in range(12)]
    assert points[0] == 10
    assert points[-1] == 65
    assert points == sorted(points)
    # a one-point sweep collapses to the top of the range
    assert _grid(10, 65, 0, 1) == 65


def test_sample_scenario_respects_bounds():
    cfg = ScenarioConfig()
    for index in range(cfg.scenario_count):
        params = sample_scenario(cfg, index)
        vehicles = len(params.nodes)
        assert cfg.vehicles[0] <= vehicles <= cfg.vehicles[1]
        assert 1 <= len(params.blackholes) <= cfg.malicious[1]
        assert len(params.blackholes) <= vehicles - 2
        assert list(params.blackholes) == sorted(set(params.blackholes))
        assert len(params.flows) == cfg.flows_per_scenario
        bh = set(params.blackholes)
        port_base = SRC_PORT_BASE + index * cfg.flows_per_scenario
        for f, spec in enumerate(params.flows):
            assert spec.src != spec.dst
            assert spec.src not in bh and spec.dst not in bh
            assert spec.src_port == port_base + f
            assert spec.dst_port == DST_PORT
            assert cfg.packet_size_bytes[0] <= spec.packet_size_bytes <= cfg.packet_size_bytes[1]
            assert cfg.data_rate_kbps[0] * 1000 <= spec.data_rate_bps <= cfg.data_rate_kbps[1] * 1000
            assert cfg.packet_count[0] <= spec.packet_count <= cfg.packet_count[1]
            assert seconds(FLOW_START_MIN_S) <= spec.start <= seconds(FLOW_START_MAX_S)
        m = cfg.mobility
        for x, y, vx, vy in params.nodes:
            assert 0.0 < x < cfg.arena.length_m and 0.0 <= y <= cfg.arena.width_m
            assert m.speed_min_mps <= abs(vx) <= m.speed_max_mps and vy == 0.0


def test_sample_scenario_is_deterministic():
    cfg = ScenarioConfig()
    a = sample_scenario(cfg, 7)
    b = sample_scenario(cfg, 7)
    assert a == b  # attackers, traffic and every vehicle's start


def test_sample_scenario_varies_with_seed():
    cfg_a = ScenarioConfig()
    cfg_b = ScenarioConfig()
    cfg_b.seed = 999
    assert sample_scenario(cfg_a, 5).flows != sample_scenario(cfg_b, 5).flows


def test_round_trip_through_dict():
    cfg = ScenarioConfig()
    cfg.balance = None
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"seeed": 3})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"stratified_split": False})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"arena": {"length_m": 100, "height_m": 9}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"radio": {"rage_m": 250}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"mobility": {"speed": 1}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict([1, 2])


def test_from_dict_rejects_malformed_values():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"vehicles": [10]})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"vehicles": [65, 10]})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"balance": [500, "x"]})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"sim_duration_s": "long"})


@pytest.mark.parametrize("patch", [
    {"seed": -1},
    {"seed": 1 << 64},
    {"scenario_count": 0},
    {"flows_per_scenario": 0},
    {"flow_pairs_per_scenario": 0},
    {"flow_pairs_per_scenario": MAX_FLOW_PAIRS + 1},
    {"flow_pairs_per_scenario": 10**12},
    {"flow_pairs_per_scenario": 10**30},
    {"sim_duration_s": 5.0},
    {"vehicles": (0, 10)},
    {"vehicles": (10, 300)},
    {"malicious": (9, 10), "vehicles": (10, 65)},
    {"malicious": (1, 64), "vehicles": (10, 65)},
    {"scenario_count": 80, "flows_per_scenario": 250},
    {"split_fraction": 0.0},
    {"split_fraction": 1.0},
    {"mobility": MobilityConfig(speed_min_mps=-0.1, speed_max_mps=1.0)},
    {"mobility": MobilityConfig(speed_min_mps=0.4, speed_max_mps=0.1)},
    {"balance": (0, 100)},
])
def test_validate_error_catalogue(patch):
    cfg = ScenarioConfig()
    for key, value in patch.items():
        setattr(cfg, key, value)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_partial_section_keeps_the_sweep_defaults():
    """A section given in part keeps the rest of ScenarioConfig's default
    for it (a 1760 x 20 m corridor)."""
    cfg = ScenarioConfig.from_dict({"arena": {"length_m": 500}})
    assert cfg.arena.length_m == 500.0
    assert cfg.arena.width_m == 20.0
    cfg = ScenarioConfig.from_dict({"radio": {"range_m": 100}, "mobility": {"speed_max_mps": 2}})
    assert cfg.radio.bandwidth_bps == ScenarioConfig().radio.bandwidth_bps
    assert cfg.mobility.speed_min_mps == 0.4


def test_float_fields_accept_integers_and_serialise_as_floats():
    cfg = ScenarioConfig.from_dict({"sim_duration_s": 30, "arena": {"width_m": 20}})
    assert json.dumps(cfg.to_dict()) == json.dumps(ScenarioConfig().to_dict())


_DEFAULT = ScenarioConfig().to_dict()
_SECTIONS = {key: list(value) for key, value in _DEFAULT.items() if isinstance(value, dict)}
# every key and nested key, a section as a whole too, and some unknown ones
_LEAVES = [(key,) for key in _DEFAULT] + [
    (key, name) for key, names in _SECTIONS.items() for name in names
] + [("seeed",), ("speed_min_mps",), ("arena", "height_m"), ("radio", "")]
_SPECIAL = [0, -1, 2**64, 10**400, 0.5, 1e300, float("nan"), float("inf"), float("-inf"),
            True, False, "12", "0.5", None, [], [1], [1, 2, 3], [1.0, 2], [True, 2], {}]


def _fuzz_value(rng, depth=0):
    roll = rng.random()
    if roll < 0.15:
        return rng.randint(1, 300)
    if roll < 0.25:
        return rng.uniform(0.0, 600.0)
    if roll < 0.35:
        return sorted(rng.randint(1, 80) for _ in range(2))
    if depth < 2 and roll < 0.45:
        return [_fuzz_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    if depth < 2 and roll < 0.5:
        return {key: _fuzz_value(rng, depth + 1) for (key, *_) in rng.sample(_LEAVES, 2)}
    return rng.choice(_SPECIAL)


def _near(rng, default):
    """A value of the default's own JSON type, often a valid one; a
    random value where there is no scalar or pair default."""
    if isinstance(default, int):
        return rng.randint(1, 2 * default)
    if isinstance(default, float):
        return default * rng.uniform(0.5, 2.0)
    if isinstance(default, list):
        return sorted(_near(rng, end) for end in default)
    return _fuzz_value(rng)


def _fuzz_config(rng):
    """One to three keys (or nested keys) set to a value near their
    default or to a random one."""
    raw = {}
    for path in rng.sample(_LEAVES, rng.randint(1, 3)):
        default = _DEFAULT
        for key in path:
            default = default.get(key) if isinstance(default, dict) else None
        value = _near(rng, default) if rng.random() < 0.5 else _fuzz_value(rng)
        if len(path) == 1:
            raw[path[0]] = value
        elif isinstance(raw.setdefault(path[0], {}), dict):
            raw[path[0]][path[1]] = value
    return raw


def _json_types(value):
    if isinstance(value, dict):
        return {key: _json_types(item) for key, item in value.items()}
    if isinstance(value, list):
        return [type(item) for item in value]
    return type(value)


def _kept(given, got) -> bool:
    """`got` holds `given` unchanged, bar an int given for a float field."""
    if type(given) is dict:
        return type(got) is dict and all(_kept(v, got[k]) for k, v in given.items())
    if type(given) is list:
        return type(got) is list and len(got) == len(given) and all(map(_kept, given, got))
    if type(given) is int and type(got) is float:
        return got == given
    return type(got) is type(given) and got == given


def _accepts(raw) -> bool:
    """Parse `raw`: False if ConfigError refuses it, else check that the
    simulator can time the config, that it holds the given values
    unchanged with the default's JSON types, and that it reads back as
    itself from plain, finite JSON. Any other exception escapes."""
    try:
        cfg = ScenarioConfig.from_dict(raw)
    except ConfigError:
        return False
    seconds(cfg.sim_duration_s)
    # one byte across the whole range: the longest propagation delay the
    # radio can schedule, which must fit in integer ns
    engine = Engine(cfg.radio)
    engine.register_node(0, (0.0, 0.0))
    engine.register_node(1, (cfg.radio.range_m, 0.0))
    assert engine.transmit(0, 1, 1, None)
    got = cfg.to_dict()
    assert _kept(raw, got)
    types = _json_types(got)
    if got["balance"] is None:
        types["balance"] = _json_types(_DEFAULT["balance"])
    assert types == _json_types(_DEFAULT)
    assert ScenarioConfig.from_dict(json.loads(json.dumps(got, allow_nan=False))) == cfg
    return True


@pytest.mark.parametrize("path", _LEAVES, ids=".".join)
def test_from_dict_takes_each_special_value_or_refuses_it(path):
    for value in _SPECIAL:
        _accepts({path[0]: value} if len(path) == 1 else {path[0]: {path[1]: value}})


def test_from_dict_fuzz_returns_a_config_or_raises_config_error():
    """Random objects over the real keys: each parses into a config that
    _accepts checks, or is refused with ConfigError. No simulation runs."""
    rng = random.Random(20240)
    cases = 500
    accepted = sum(_accepts(_fuzz_config(rng)) for _ in range(cases))
    # both outcomes occur, so neither branch is vacuous
    assert 0.05 * cases < accepted < 0.95 * cases


def test_honest_room_guard_checks_both_ends():
    cfg = ScenarioConfig()
    cfg.vehicles = (10, 65)
    cfg.malicious = (8, 10)
    cfg.validate()
    cfg.malicious = (9, 10)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_derived_seed_is_plain_mix():
    assert derived_seed(1729, 301) == mix64(1729, 301)
    assert derived_seed(0, 1) != derived_seed(1, 0)


def test_radio_is_copied_not_shared():
    cfg = ScenarioConfig()
    params = sample_scenario(cfg, 0)
    assert params.radio is not cfg.radio
    assert params.radio == cfg.radio


def test_each_section_has_one_default():
    """The sweep's sections are their classes' own defaults, so a second
    default (say, a different arena for scenarios) cannot come back."""
    cfg = ScenarioConfig()
    assert cfg.arena == ArenaConfig()
    assert cfg.radio == RadioConfig()
    assert cfg.mobility == MobilityConfig()
    assert (cfg.arena.length_m, cfg.arena.width_m) == (1760.0, 20.0)


def test_flow_pair_cap_is_inclusive():
    cfg = ScenarioConfig()
    cfg.flow_pairs_per_scenario = MAX_FLOW_PAIRS
    cfg.validate()


def test_flow_pairs_reuse_endpoints():
    """All flows of a scenario must come from the fixed conversation pool."""
    cfg = ScenarioConfig()
    params = sample_scenario(cfg, 3)
    pairs = {(s.src, s.dst) for s in params.flows}
    assert len(pairs) <= cfg.flow_pairs_per_scenario
