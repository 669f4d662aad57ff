"""The golden corpus's configs and pins, and the script that
regenerates them; `test_corpus.py` checks every pin.

Each config below is BASE with a few settings changed and seed
1000 + its position in CONFIGS, so a new config goes at the end. Every
scenario of a config runs in process, and the pin is the SHA-256 of
the flows.csv bytes of all its records together with the five AODV
counters summed over every node.

A deliberate behaviour change re-pins the table. Run

    PYTHONPATH=src python tests/corpus_pins.py

to print the regenerated PINNED table, the names of the entries that
moved (`moved: none` when none did) and the SHA-256 of the default
config's flows.csv, swept in process; the new table and those names
belong in the change's review. This module imports neither pytest nor
numpy, so the script runs on any Python that the simulator supports.
"""

import hashlib
import tempfile
from pathlib import Path

from vanetlab.config import ScenarioConfig, sample_scenario
from vanetlab.dataset import write_flows_csv
from vanetlab.scenario import run_scenario

BASE = {"scenario_count": 2, "flows_per_scenario": 30, "sim_duration_s": 12.0}

CONFIGS = {
    "defaults": {},
    "dense-few-attackers": {"vehicles": [58, 64], "malicious": [1, 2]},
    "dense-many-attackers": {"vehicles": [40, 65], "malicious": [3, 10]},
    "few-vehicles": {"vehicles": [4, 6], "malicious": [1, 2]},
    "no-propagation-delay": {"radio": {"prop_delay_s_per_m": 0.0}},
    "standing-still": {"mobility": {"speed_min_mps": 0.0, "speed_max_mps": 0.0}},
    "fast-vehicles": {"mobility": {"speed_min_mps": 25.0, "speed_max_mps": 40.0}},
    "slow-radio": {"radio": {"bandwidth_bps": 20_000}},
    "slow-radio-one-attacker": {"radio": {"bandwidth_bps": 60_000}, "malicious": [1, 1]},
    "one-packet-flows": {"packet_count": [1, 1]},
    "long-fast-flows": {"packet_count": [60, 70], "data_rate_kbps": [1500, 1800]},
    "one-metre-range": {"radio": {"range_m": 1.0}},
    "wide-range": {"radio": {"range_m": 600.0}},
    "one-flow-pair": {"flow_pairs_per_scenario": 1},
    "many-flow-pairs": {"flow_pairs_per_scenario": 200},
    "small-arena": {"arena": {"length_m": 300.0, "width_m": 5.0}},
    "tiny-packets": {"packet_size_bytes": [40, 60]},
    "short-run": {"sim_duration_s": 5.5},
    "many-attackers-slow-radio": {"malicious": [8, 10], "radio": {"bandwidth_bps": 200_000}},
    "mid-size-moving": {"vehicles": [30, 30], "malicious": [5, 5],
                        "mobility": {"speed_min_mps": 3.0, "speed_max_mps": 6.0}},
    # fast vehicles leave a short range while a reply is on its way back,
    # so some replies go to a reverse hop out of reach (rrep_lost)
    "reverse-hop-drives-off": {"radio": {"bandwidth_bps": 20_000, "range_m": 100.0},
                               "mobility": {"speed_min_mps": 25.0, "speed_max_mps": 40.0}},
}

COUNTERS = ("rreq_tx", "rrep_tx", "rrep_lost", "data_tx", "data_forwarded")

# name -> (flows.csv SHA-256, summed COUNTERS)
PINNED = {
    "defaults": (
        "c98f4f29abd19629b94b43de46f9bc4b5769f95c1526fa94cf0b01111deb2a63",
        (696, 511, 0, 2990, 1467),
    ),
    "dense-few-attackers": (
        "55fbd9f1fd70251ac107589ea8ed22d3458c9a35b550ccf8d301bf4172f78bb2",
        (2138, 314, 0, 5978, 3691),
    ),
    "dense-many-attackers": (
        "91ad34378f4e79e2260382f2e5c5acc476e9f529c88f88632a022ae571ca8cbe",
        (1203, 456, 0, 3342, 1613),
    ),
    "few-vehicles": (
        "1b8f3f333c9ef52368f9efcc690e6ed43d0a038f323db4a18604adac29d15eb9",
        (71, 2, 0, 548, 0),
    ),
    "no-propagation-delay": (
        "6b4c2c47a8e98817ff101d34b91cf9961a75616cc79c686aee36ac7ffc30b5d9",
        (646, 441, 0, 3039, 1160),
    ),
    "standing-still": (
        "a8670fb12f7505bd4eef20fec1bc15c46c1e40d8a02a0d168176fcbd5e06ab0d",
        (634, 467, 0, 3191, 1532),
    ),
    "fast-vehicles": (
        "0ac55e5e6a4bbfe4558f0f8eb7ea41238173293bce505d952dd820310ba569f8",
        (1121, 601, 0, 3049, 1459),
    ),
    "slow-radio": (
        "496cb491d9217405697e7780c273d44f2fd25afda93e2b2e1093687b6808b19d",
        (679, 467, 0, 2903, 1507),
    ),
    "slow-radio-one-attacker": (
        "cbd69ade1cdb0ba43889276386cf69267da677d73b6274b05ff5aec59a37f25a",
        (1214, 101, 0, 2923, 1363),
    ),
    "one-packet-flows": (
        "bb7c094e93268477f906e966998e5c5e58b7b6b7749d975c913b7ff79b8ebf3f",
        (607, 445, 0, 83, 39),
    ),
    "long-fast-flows": (
        "4fa081f10afb0625c783d1b5737808f18c73274fe85c618dd28e99ddb8f063fc",
        (563, 318, 0, 4556, 1602),
    ),
    "one-metre-range": (
        "d10fc1310f321135893f22681064b690fe94ecc5a097a48c7d256e74fc4ca535",
        (126, 0, 0, 0, 0),
    ),
    "wide-range": (
        "544f67183ab0ec455d5520c3821483bd488e20e725a49f6ccd7f681ee8f0bc41",
        (1076, 259, 0, 1795, 284),
    ),
    "one-flow-pair": (
        "be218df5664d26c66ccfac7bc2ccfda6dfdb0f7fc3b64f91eeb6f22bc3f5f721",
        (56, 21, 0, 2417, 1208),
    ),
    "many-flow-pairs": (
        "58785fbfc4d53bdb58b42dfbaa4fbd4058e9d13dbefc2d635b625cac9f90d936",
        (861, 648, 0, 3122, 1658),
    ),
    "small-arena": (
        "b8712d65814da0ae554df6137a026ea28ec1a1d1a9a6c88ad96c7cc710549ba6",
        (1147, 463, 0, 3354, 1239),
    ),
    "tiny-packets": (
        "56a5578eb5826f738ae90cb83ec08719e940a809ec30131390d8af10ad39c50d",
        (702, 543, 0, 3373, 1689),
    ),
    "short-run": (
        "2ed5bf8d3f5ffa630e8c6a5e21f3db13245cf2e36fd3ca34f8a76a76ea8c4f0d",
        (596, 462, 0, 2889, 1435),
    ),
    "many-attackers-slow-radio": (
        "f506525401538ac2b0fe905c44ead2e3dbf0739ef2780d5234d95fb9b5ab7f86",
        (419, 421, 0, 3145, 1900),
    ),
    "mid-size-moving": (
        "c1837c9bd6a573faeef51c42b6dca69706b82af10bb1b5a722a14f8c5cf0b623",
        (883, 17, 0, 1305, 54),
    ),
    "reverse-hop-drives-off": (
        "9c9e1f11429d228c33cf521dd25a13a83f2e541beab65a170f4105b82599047b",
        (511, 511, 8, 4242, 2557),
    ),
}


def config(name: str) -> ScenarioConfig:
    seed = 1000 + list(CONFIGS).index(name)
    return ScenarioConfig.from_dict({**BASE, **CONFIGS[name], "seed": seed})


def sweep(cfg: ScenarioConfig, path: Path) -> tuple[str, tuple[int, ...]]:
    """Run every scenario of `cfg` in process and write their records to
    `path` as flows.csv: its SHA-256 and the summed AODV COUNTERS."""
    records = []
    counters = dict.fromkeys(COUNTERS, 0)
    for index in range(cfg.scenario_count):
        result = run_scenario(sample_scenario(cfg, index))
        records.extend(result.records)
        for node in result.nodes.values():
            for counter in COUNTERS:
                counters[counter] += node.counters[counter]
    write_flows_csv(records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest(), tuple(counters.values())


def measure(name: str, workdir: Path) -> tuple[str, tuple[int, ...]]:
    """The config's flows.csv SHA-256 and its summed AODV counters."""
    return sweep(config(name), workdir / f"{name}.csv")


def main() -> None:
    """Print the regenerated PINNED table, every entry that moved and
    the default config's flows.csv digest."""
    with tempfile.TemporaryDirectory() as workdir:
        fresh = {name: measure(name, Path(workdir)) for name in CONFIGS}
        default, _ = sweep(ScenarioConfig(), Path(workdir) / "default.csv")
    print("PINNED = {")
    for name, (digest, counts) in fresh.items():
        print(f'    "{name}": (\n        "{digest}",\n        {counts},\n    ),')
    print("}")
    moved = [name for name in CONFIGS if PINNED.get(name) != fresh[name]]
    print(f"moved: {', '.join(moved) if moved else 'none'}")
    print(f"default flows.csv: {default}")


if __name__ == "__main__":
    main()
