"""The program attributes that the benchmark's traced run looks up by name.

`bench/run.py --trace 1` wraps functions of the program from the outside
and reads some of its attributes. Only a separate CI step runs it, so a
rename or deletion under src/ would otherwise first show there. These
tests list what it needs and fail in the Tier-1 verify instead. Every
function that `bench/run.py` names as a string literal in a `wrap` or
`count` call must appear in WRAPPED. The bench's own copy of four pinned
digests must equal their entries in `pins.json`.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest
from pins import load

from vanetlab import aodv, engine, flows
from vanetlab.classifiers import KINDS, make
from vanetlab.classifiers.base import Classifier
from vanetlab.config import ScenarioConfig
from vanetlab.scenario import ScenarioParams, ScenarioResult

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"

# owner (a module, or a module's class) -> the functions the traced run wraps
WRAPPED = {
    "vanetlab.cli": (
        "cmd_pipeline", "cmd_simulate", "load_config", "run_sweep", "train_and_report",
        "sample_scenario", "run_scenario", "evaluate_scores",
        "label_flows", "balance", "split", "write_flows_csv", "write_csv",
    ),
    "vanetlab.engine.Engine": ("run_until", "transmit", "neighbors", "distance"),
    "vanetlab.aodv.AodvNode": ("on_frame", "send_data"),
    "vanetlab.flows.FlowMonitor": ("observe", "finalize"),
    "vanetlab.classifiers.base.Classifier": ("fit", "score"),
}


def resolve(owner: str):
    """The module, or the module's class, that a dotted name denotes."""
    module, _, name = owner.rpartition(".")
    if name[0].isupper():
        return getattr(importlib.import_module(module), name)
    return importlib.import_module(owner)


@pytest.mark.parametrize("owner", sorted(WRAPPED))
def test_every_wrapped_function_exists(owner):
    target = resolve(owner)
    for attr in WRAPPED[owner]:
        assert callable(getattr(target, attr, None)), f"{owner}.{attr}"


def bench_assignments() -> dict:
    """bench/run.py's module-level literal constants, by name."""
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            try:
                found[node.targets[0].id] = ast.literal_eval(node.value)
            except (AttributeError, ValueError):
                pass
    return found


def test_the_bench_pinned_digests_match_the_registry():
    """bench/run.py keeps its own copy of four digests, the one copy of a
    pin outside pins.json: it must not drift from the registry."""
    pins = load()
    workloads = pins["learning"]["workloads"]
    assert bench_assignments()["PINNED"] == {
        "pipeline-default": {"flows.csv": pins["simulator"]["default flows.csv"],
                             "dataset.csv": pins["learning"]["pipeline"]["dataset.csv"]},
        "sim-connected": {"flows.csv": workloads["sim-connected"]["flows.csv"]},
        "sim-partitioned": {"flows.csv": workloads["sim-partitioned"]["flows.csv"]},
    }


def test_every_literal_wrap_in_the_bench_is_listed():
    """Each `wrap(owner, "name", ...)` or `count(owner, "name", ...)` in
    bench/run.py names a function listed in WRAPPED for that owner."""
    listed = {owner.rpartition(".")[2]: set(attrs) for owner, attrs in WRAPPED.items()}
    seen = 0
    for node in ast.walk(ast.parse(BENCH_RUN.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and len(node.args) >= 2):
            continue
        func, (owner, attr) = node.func, node.args[:2]
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("wrap", "count") and isinstance(attr, ast.Constant):
            seen += 1
            owner_name = ast.unparse(owner).rpartition(".")[2]
            assert attr.value in listed.get(owner_name, ()), f"{owner_name}.{attr.value}"
    assert seen > 0


def test_the_bench_name_tables_match_the_program():
    """The cli stages, drop causes and frame payload types that bench/run.py
    names in its tables exist under those names."""
    consts = bench_assignments()
    assert set(consts["DATASET_STAGES"]) <= set(WRAPPED["vanetlab.cli"])
    assert set(consts["DROP_CAUSES"]) == {cause.value for cause in flows.DropCause}
    payloads = {aodv.Rreq, aodv.Rrep, flows.DataPacket}
    assert set(consts["ON_FRAME"]) == {cls.__name__ for cls in payloads}


def test_the_attributes_the_bench_reads_exist():
    # the flow monitor's observation names and its always-empty log
    assert [kind.value for kind in flows.ObsKind] == ["tx", "rx", "drop"]
    assert {"kind", "cause"} <= set(flows.FlowObservation._fields)
    assert flows.FlowMonitor().log == []
    # the engine's broadcast address, told apart from unicast by transmit
    assert isinstance(engine.BROADCAST, int)
    # a scenario's index, and its result's nodes with their AODV counters
    assert "index" in {f.name for f in dataclasses.fields(ScenarioParams)}
    assert {"nodes", "monitor"} <= {f.name for f in dataclasses.fields(ScenarioResult)}
    node = aodv.AodvNode(0, engine.Engine(), flows.FlowMonitor())
    assert {"rreq_tx", "rrep_tx", "data_tx", "data_forwarded"} <= set(node.counters)
    # the config fields a run sizes itself by
    cfg = ScenarioConfig()
    for field in ("scenario_count", "flows_per_scenario", "balance"):
        assert hasattr(cfg, field)


@pytest.mark.parametrize("kind", KINDS)
def test_every_model_has_the_fields_the_bench_reads(kind):
    model = make(kind)
    assert isinstance(model, Classifier)
    assert model.kind == kind
    if kind == "SVM":  # its solver counts, read after each fit
        for attr in ("sweeps_run", "converged", "sv_alpha"):
            assert hasattr(model, attr), attr
