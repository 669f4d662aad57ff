"""Every value the tests pin, and the script that regenerates them.

`pins.json`, next to this file, holds every pinned digest and count in
two sections:

- `simulator`: the default config's flows.csv, the event traces of two
  default scenarios and the golden corpus. Their computations need
  neither numpy nor pytest.
- `learning`: the default pipeline's other artifacts, the model states
  fitted on its training split, the benchmark's two simulator workloads
  (whose manifest.json `vanetlab.cli` writes) and the classifier pins
  on small seeded data. Their computations import numpy.

Each family of pins has one function below. The family's tests and
`main` both call it, and the tests read only the expected value from
`pins.json`.

The golden corpus: each config in CONFIGS is BASE with a few settings
changed and seed 1000 + its position in CONFIGS, so a new config goes at
the end. Every scenario of a config runs in process, and the pin is the
SHA-256 of the flows.csv bytes of all its records together with the
five AODV counters summed over every node.

A deliberate behaviour change re-pins. Run

    PYTHONPATH=src python tests/pins.py

to rewrite pins.json in place and print the entries that moved
(`moved: none` when none did). `git diff tests/pins.json` and the reason
for each move belong in the change's review. Under a Python without
numpy the script regenerates the simulator section only and leaves the
learning section as it is. This module loads neither pytest nor numpy,
so the script runs on any Python that the simulator supports.
"""

import collections
import hashlib
import json
import tempfile
from contextlib import ExitStack, nullcontext
from importlib.util import find_spec
from pathlib import Path
from unittest import mock

from vanetlab.aodv import AodvNode
from vanetlab.config import ScenarioConfig, derived_seed, sample_scenario
from vanetlab.dataset import read_csv, split, write_flows_csv
from vanetlab.engine import BROADCAST, Engine, substream
from vanetlab.flows import FlowMonitor
from vanetlab.scenario import run_scenario

REGISTRY = Path(__file__).with_name("pins.json")

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

# the default-config scenarios whose event traces are pinned: scenario 0
# is a split corridor with its attacker out of reach; scenario 9 has
# attackers in reach of both platoons
TRACED = (0, 9)

# the config overrides of the benchmark's two simulator workloads, run at
# config seed 1729: a dense corridor on a 60 kb/s radio (multi-hop unicast
# forwarding) and a split corridor (route-discovery floods, retries and
# no_route drops), which weight the radio and routing paths differently
# from the default run
WORKLOADS = {
    "sim-connected": {"vehicles": [55, 65], "malicious": [1, 1], "scenario_count": 6,
                      "radio": {"bandwidth_bps": 60_000}},
    "sim-partitioned": {"vehicles": [10, 50], "malicious": [1, 8], "scenario_count": 9},
}

# the default pipeline's artifacts besides flows.csv, which the simulator
# section pins
LEARNED_ARTIFACTS = ("dataset.csv", "report.json", "roc.csv", "manifest.json")

# classify cases beyond one per model kind: (kind, constructor arguments,
# the module constant patched in, its value). An even K and an even tree
# count cover split votes and threshold ties.
CLASSIFY_EXTRAS = {
    "KNN-k4": ("KNN", {}, "vanetlab.classifiers.neighbors.K", 4),
    "RF-10": ("RF", {"seed": 3}, "vanetlab.classifiers.forest.N_TREES", 10),
}


def load() -> dict:
    """The registry, `{"simulator": {...}, "learning": {...}}`."""
    return json.loads(REGISTRY.read_text(encoding="utf-8"))


def json_sha256(value) -> str:
    """SHA-256 of json.dumps(value, sort_keys=True)."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def artifact_digests(run_dir: Path, names) -> dict:
    """SHA-256 of each named file in `run_dir`, by name."""
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


def write_config(path: Path, payload: dict) -> str:
    """Write `payload` to `path` as a JSON config; the path as a string."""
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


# -- simulator section -------------------------------------------------------


def sweep(cfg: ScenarioConfig, path: Path) -> dict:
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
    return {"flows.csv": hashlib.sha256(path.read_bytes()).hexdigest(), "counters": counters}


def default_flows(workdir: Path) -> str:
    """SHA-256 of the default config's flows.csv, swept in process. The
    default pipeline's flows.csv must match it too."""
    return sweep(ScenarioConfig(), workdir / "default.csv")["flows.csv"]


def corpus(name: str, workdir: Path) -> dict:
    """The corpus config's flows.csv SHA-256 and summed AODV counters."""
    seed = 1000 + list(CONFIGS).index(name)
    cfg = ScenarioConfig.from_dict({**BASE, **CONFIGS[name], "seed": seed})
    return sweep(cfg, workdir / f"{name}.csv")


def trace(index: int) -> dict:
    """The boundaries behind the benchmark's per-layer counts, counted on
    default scenario `index`: events run, transmits by kind, frames
    received by payload type, observations by kind, distance checks and
    the AODV counters summed over nodes."""
    counts = collections.Counter()
    with ExitStack() as patches:
        def count(owner, attr, key, add_result=False):
            orig = getattr(owner, attr)

            def counting(*args, **kwargs):
                result = orig(*args, **kwargs)
                counts[key(*args)] += result if add_result else 1
                return result

            patches.enter_context(mock.patch.object(owner, attr, counting))

        count(Engine, "run_until", lambda *a: "events", add_result=True)
        count(Engine, "transmit",
              lambda eng, src, dst, *rest: "broadcast" if dst == BROADCAST else "unicast")
        count(Engine, "distance", lambda *a: "distance")
        count(AodvNode, "on_frame", lambda node, prev_hop, payload: type(payload).__name__)
        for kind in ("tx", "rx", "drop"):
            count(FlowMonitor, f"observe_{kind}", lambda *a, kind=kind: kind)
        result = run_scenario(sample_scenario(ScenarioConfig(), index))
    for node in result.nodes.values():
        counts.update(node.counters)
    return dict(counts)


def simulator_pins(workdir: Path) -> dict:
    """The simulator section, computed afresh under `workdir`."""
    return {
        "default flows.csv": default_flows(workdir),
        "traces": {str(index): trace(index) for index in TRACED},
        "corpus": {name: corpus(name, workdir) for name in CONFIGS},
    }


# -- learning section: every function below imports numpy -------------------


def default_training_split(run_dir: Path):
    """(X, y) of the training split train_and_report takes from run_dir."""
    from vanetlab.classifiers import as_arrays
    from vanetlab.cli import SPLIT_SEED

    cfg = ScenarioConfig()
    train, _ = split(read_csv(run_dir / "dataset.csv"), cfg.split_fraction,
                     derived_seed(cfg.seed, SPLIT_SEED))
    return as_arrays(train)


def state_sha256(model) -> str:
    """SHA-256 of json.dumps(state, sort_keys=True) of a fitted model."""
    from model_state import state

    return json_sha256(state(model))


def split_state(kind: str, X, y) -> str:
    """State SHA-256 of model `kind` fitted on the default pipeline's
    training split (X, y), as train_and_report fits it. The 1200 rows
    hold many repeated values and dst_port is constant, so these pin the
    RF bootstrap draw and the trees' constant-feature skip on the paper's
    own data, and the SVM's support vectors and alphas, which report.json's
    metrics would not show."""
    from vanetlab.cli import _model_for

    return state_sha256(_model_for(kind, ScenarioConfig().seed).fit(X, y))


def simulate_workload(name: str, workdir: Path) -> dict:
    """flows.csv and manifest.json SHA-256 of `vanetlab simulate` on the
    benchmark workload `name`, written under `workdir`."""
    from vanetlab.cli import cmd_simulate

    run = workdir / name
    run.mkdir()
    config = write_config(workdir / f"{name}.json", {**WORKLOADS[name], "seed": 1729})
    cmd_simulate(config, str(run / "flows.csv"))
    return artifact_digests(run, ("flows.csv", "manifest.json"))


def gauss_clusters(seed, n_per_class, sigma, mean0=10.0, mean1=40.0, dims=4):
    """Two Gaussian clusters around mean0 (class 0) and mean1 (class 1)."""
    import numpy as np

    rng = substream(seed, 3)

    def cluster(mean, cnt):
        return [[rng.gauss(mean, sigma) for _ in range(dims)] for _ in range(cnt)]

    X = np.array(cluster(mean0, n_per_class) + cluster(mean1, n_per_class))
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


def separable_clusters():
    """Two well-separated clusters of 200 rows each."""
    return gauss_clusters(seed=7, n_per_class=200, sigma=2.0)


def saved_state(kind: str, X, y) -> str:
    """State SHA-256 of model `kind`, as made, fitted on (X, y)."""
    from vanetlab.classifiers import make

    return state_sha256(make(kind).fit(X, y))


def overlap120():
    """Two overlapping clusters and 80 probes between them."""
    import numpy as np

    X, y = gauss_clusters(seed=21, n_per_class=60, sigma=9.0)
    rng = substream(22, 2)
    return X, y, np.array([[rng.gauss(25.0, 12.0) for _ in range(4)] for _ in range(80)])


def classify_case(case: str):
    """The classify case's model fitted on overlap120, with its constant
    patched in while it fits and scores: the SHA-256 of
    json.dumps([labels, scores]) of classify on the probes, and the scores
    of classify and of score. Pinned before classify existed."""
    from vanetlab.classifiers import make

    X, y, probes = overlap120()
    kind, args, target, value = CLASSIFY_EXTRAS.get(case, (case, {}, None, None))
    with mock.patch(target, value) if target else nullcontext():
        model = make(kind, **args).fit(X, y)
        labels, scores = model.classify(probes)
        return json_sha256([labels.tolist(), scores.tolist()]), scores, model.score(probes)


def constant_first_rows():
    """90 rows whose column 0 is constant, with noisy parity labels."""
    import numpy as np

    rng = substream(31, 4)
    X = np.array([[5.0, rng.randrange(6), rng.gauss(0, 1)] for _ in range(90)])
    y = np.array([int(row[1] % 2 == 0) ^ (rng.random() < 0.2) for row in X])
    return X, y


def constant_column_trees():
    """On constant_first_rows: the forest tree grown with one feature per
    node from substream(0, 1), whose first shuffle walks the constant
    column first, and the regression tree grown without an rng, which
    walks the columns in order. Their SHA-256 and the forest rng's next
    draw, pinned before the constant-column skip existed, and the forest
    tree's JSON text."""
    import numpy as np

    from vanetlab.classifiers.tree import SortTrie, grow_forest, grow_tree

    X, y = constant_first_rows()
    rng = substream(0, 1)
    (forest,) = grow_forest(X, y, [np.arange(len(y))], [rng], max_features=1)
    text = json.dumps(forest, sort_keys=True)
    pins = {"forest tree": json_sha256(forest), "next draw": rng.random()}
    t = y - 0.5
    regression = grow_tree(SortTrie(X), t, max_depth=4, leaf_value=lambda idx: float(t[idx].mean()))
    return {**pins, "regression tree": json_sha256(regression)}, text


def learning_pins(workdir: Path) -> dict:
    """The learning section, computed afresh under `workdir`."""
    from vanetlab.classifiers import KINDS
    from vanetlab.cli import cmd_pipeline

    run = workdir / "pipeline"
    cmd_pipeline(write_config(workdir / "pipeline.json", ScenarioConfig().to_dict()), str(run))
    X, y = default_training_split(run)
    separable = separable_clusters()
    return {
        "pipeline": artifact_digests(run, LEARNED_ARTIFACTS),
        "default split states": {kind: split_state(kind, X, y) for kind in KINDS},
        "workloads": {name: simulate_workload(name, workdir) for name in WORKLOADS},
        "classify": {case: classify_case(case)[0] for case in (*KINDS, *CLASSIFY_EXTRAS)},
        "states": {kind: saved_state(kind, *separable) for kind in KINDS},
        "constant-column trees": constant_column_trees()[0],
    }


# -- the script --------------------------------------------------------------


def moved(old, new, path: str = "") -> list[str]:
    """The /-joined paths of the entries that differ between two registries."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [path]
    return [name for key in {**old, **new}
            for name in moved(old.get(key), new.get(key), f"{path}/{key}" if path else key)]


def main() -> None:
    """Rewrite pins.json from every family's computation and print the
    entries that moved."""
    old = load()
    with tempfile.TemporaryDirectory() as workdir:
        fresh = {"simulator": simulator_pins(Path(workdir)), "learning": old["learning"]}
        if find_spec("numpy") is None:
            print("numpy is not installed: the learning section is left as it is")
        else:
            fresh["learning"] = learning_pins(Path(workdir))
    REGISTRY.write_text(json.dumps(fresh, indent=2) + "\n", encoding="utf-8")
    names = moved(old, fresh)
    print(f"moved: {', '.join(names) if names else 'none'}")


if __name__ == "__main__":
    main()
