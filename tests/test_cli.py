"""Command-line workflow tests driven through main(argv) return codes."""

import concurrent.futures
import hashlib
import json
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from vanetlab import cli, errors
from vanetlab.classifiers import KINDS, make
from vanetlab.cli import _parse_balance, main
from vanetlab.config import ScenarioConfig
from vanetlab.dataset import DATASET_HEADER, FLOWS_HEADER
from vanetlab.errors import ConfigError, DataError, VanetlabError
from vanetlab.metrics import auc_trapezoid

BRIDGED = {
    "seed": 1729,
    "scenario_count": 2,
    "flows_per_scenario": 40,
    "sim_duration_s": 12.0,
    "vehicles": [60, 65],
    "malicious": [8, 10],
    "balance": None,
}

COUNTING = {
    "seed": 1729,
    "scenario_count": 1,
    "flows_per_scenario": 5,
    "sim_duration_s": 12.0,
    "vehicles": [10, 10],
    "malicious": [1, 1],
    "balance": None,
}


SWEEP = {**COUNTING, "scenario_count": 4, "vehicles": [10, 12]}

# one model's report.json entry
ENTRY_KEYS = {
    "accuracy", "sensitivity", "ppv", "npv", "f1", "degenerate",
    "auc", "single_point_auc", "confusion", "confusion_normal_positive",
}


def write_config(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def bridged_flows(tmp_path_factory):
    """One simulate run shared by the evaluate-side tests."""
    base = tmp_path_factory.mktemp("bridged")
    cfg = write_config(base / "config.json", BRIDGED)
    flows = base / "flows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(flows)]) == 0
    return base, cfg, flows


def test_simulate_row_count_matches_config(tmp_path):
    cfg = write_config(tmp_path / "config.json", COUNTING)
    flows = tmp_path / "flows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(flows)]) == 0
    lines = flows.read_text().splitlines()
    assert lines[0] == FLOWS_HEADER
    assert len(lines) == 1 + 5


def test_simulate_manifest_digest_and_counts(bridged_flows):
    base, _, flows = bridged_flows
    manifest = json.loads((base / "manifest.json").read_text())
    canonical = json.dumps(manifest["config"], sort_keys=True)
    assert manifest["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert manifest["outputs"]["flows"] == "flows.csv"
    assert len(manifest["scenarios"]) == 2
    labels = [int(line.rsplit(",", 1)[1]) for line in flows.read_text().splitlines()[1:]]
    assert manifest["class_counts"]["positive"] == sum(labels)
    assert manifest["class_counts"]["negative"] == len(labels) - sum(labels)
    per_scenario = sum(s["positive"] for s in manifest["scenarios"])
    assert per_scenario == sum(labels)


def test_simulate_is_byte_deterministic(bridged_flows, tmp_path):
    _, cfg, flows = bridged_flows
    again = tmp_path / "flows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(again)]) == 0
    assert again.read_bytes() == flows.read_bytes()


def test_evaluate_reports_all_six_models(bridged_flows, tmp_path):
    _, _, flows = bridged_flows
    report = tmp_path / "report.json"
    roc = tmp_path / "roc.csv"
    rc = main(["evaluate", "--dataset", str(flows),
               "--report", str(report), "--roc", str(roc)])
    assert rc == 0
    rep = json.loads(report.read_text())
    assert sorted(rep["classifiers"]) == ["GB", "GNB", "KNN", "LR", "RF", "SVM"]
    assert rep["rows"] == {"train": 48, "test": 32}
    roc_lines = roc.read_text().splitlines()
    assert roc_lines[0] == "classifier,fpr,tpr"
    curves = {}
    for line in roc_lines[1:]:
        kind, fpr, tpr = line.split(",")
        curves.setdefault(kind, []).append((float(fpr), float(tpr)))
    assert sorted(curves) == sorted(rep["classifiers"])
    for kind, entry in rep["classifiers"].items():
        assert set(entry) == ENTRY_KEYS
        c = entry["confusion"]
        assert c["tp"] + c["fp"] + c["tn"] + c["fn"] == 32
        assert 0.0 <= entry["accuracy"] <= 1.0
        assert 0.0 <= entry["auc"] <= 1.0
        sw = entry["confusion_normal_positive"]
        assert (sw["tp"], sw["fp"], sw["tn"], sw["fn"]) == (
            c["tn"], c["fn"], c["tp"], c["fp"])
        # roc.csv holds repr floats, so its curve reads back exactly
        assert len(curves[kind]) >= 2
        assert entry["auc"] == auc_trapezoid(curves[kind])
        tpr = c["tp"] / (c["tp"] + c["fn"])
        fpr = c["fp"] / (c["fp"] + c["tn"])
        assert entry["single_point_auc"] == (1 + tpr - fpr) / 2


def test_evaluate_accepts_labeled_dataset_table(bridged_flows, tmp_path):
    _, _, flows = bridged_flows
    # shrink the flows table to the labeled 4-tuple form
    rows = []
    for line in flows.read_text().splitlines()[1:]:
        fields = line.split(",")
        rows.append(",".join(fields[:4] + [fields[-1]]))
    ds_path = tmp_path / "dataset.csv"
    ds_path.write_text(DATASET_HEADER + "\n" + "\n".join(rows) + "\n")
    rc = main(["evaluate", "--dataset", str(ds_path),
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "roc.csv")])
    assert rc == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["rows"] == {"train": 48, "test": 32}


def test_evaluate_is_deterministic(bridged_flows, tmp_path):
    _, _, flows = bridged_flows
    outs = []
    for tag in ("a", "b"):
        report = tmp_path / f"report-{tag}.json"
        roc = tmp_path / f"roc-{tag}.csv"
        assert main(["evaluate", "--dataset", str(flows),
                     "--report", str(report), "--roc", str(roc)]) == 0
        outs.append((report.read_bytes(), roc.read_bytes()))
    assert outs[0] == outs[1]


def test_evaluate_seed_changes_output(bridged_flows, tmp_path):
    _, _, flows = bridged_flows
    blobs = []
    for seed in ("1729", "123"):
        report = tmp_path / f"report-{seed}.json"
        assert main(["evaluate", "--dataset", str(flows), "--seed", seed,
                     "--report", str(report),
                     "--roc", str(tmp_path / f"roc-{seed}.csv")]) == 0
        blobs.append(report.read_bytes())
    assert blobs[0] != blobs[1]


def test_evaluate_balance_subsamples(bridged_flows, tmp_path):
    _, _, flows = bridged_flows
    report = tmp_path / "report.json"
    rc = main(["evaluate", "--dataset", str(flows), "--balance", "30:6",
               "--report", str(report), "--roc", str(tmp_path / "roc.csv")])
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["class_counts"]["dataset"] == {"positive": 30, "negative": 6}


def test_pipeline_writes_all_artifacts(tmp_path):
    cfg = write_config(tmp_path / "config.json", BRIDGED)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(out)]) == 0
    flows_lines = (out / "flows.csv").read_text().splitlines()
    assert flows_lines[0] == FLOWS_HEADER
    assert len(flows_lines) == 1 + 80
    ds_lines = (out / "dataset.csv").read_text().splitlines()
    assert ds_lines[0] == DATASET_HEADER
    assert len(ds_lines) == 1 + 80  # balance: null keeps every flow
    rep = json.loads((out / "report.json").read_text())
    assert len(rep["classifiers"]) == 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {
        "flows": "flows.csv", "dataset": "dataset.csv",
        "report": "report.json", "roc": "roc.csv",
    }
    raw = manifest["class_counts"]["raw"]
    assert raw["positive"] + raw["negative"] == 80
    assert manifest["class_counts"]["dataset"] == raw
    assert (out / "roc.csv").read_text().startswith("classifier,fpr,tpr\n")


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran the work that should have been refused first")


@pytest.mark.parametrize("payload", [
    "{not json",
    '{"seeed": 3}',
    '{"vehicles": [65, 10]}',
    '{"radio": {"range_m": 0}}',
    '{"radio": {"range_m": NaN}}',
    '{"radio": {"range_m": Infinity}}',
    '{"radio": {"bandwidth_bps": -5}}',
    '{"radio": {"bandwidth_bps": Infinity}}',
    '{"radio": {"prop_delay_s_per_m": -1e-9}}',
    '{"radio": {"prop_delay_s_per_m": NaN}}',
    '{"sim_duration_s": NaN}',
    '{"sim_duration_s": Infinity}',
    '{"arena": {"length_m": NaN}}',
    '{"arena": {"width_m": Infinity}}',
    '{"mobility": {"speed_min_mps": NaN}}',
    '{"mobility": {"speed_max_mps": Infinity}}',
    # sample_scenario would build the whole conversation pool
    '{"flow_pairs_per_scenario": 10001}',
    '{"flow_pairs_per_scenario": 1000000000000}',
    pytest.param('{"flow_pairs_per_scenario": %d}' % 10**30, id="flow-pairs-1e30"),
    # finite, but not in integer nanoseconds
    '{"sim_duration_s": 1e300}',
    '{"radio": {"prop_delay_s_per_m": 1e300}}',
    # types are exact: nothing is coerced, truncated or cut short
    '{"seed": true}',
    '{"seed": 1.7}',
    '{"seed": "12"}',
    '{"balance": "12"}',
    '{"vehicles": [10, 65, 99]}',
    '{"balance": [1, 2, 3]}',
    '{"scenario_count": 2.9}',
    '{"arena": [["length_m", 500]]}',
    '{"radio": {"bandwidth_bps": 1.9}}',
    '{"split_fraction": "0.5"}',
    pytest.param('{"split_fraction": %s}' % ("9" * 400), id="split_fraction-400-digits"),
    # json.load cannot decode these
    pytest.param('{"seed": %s}' % ("1" * 5000), id="int-past-digit-limit"),
    pytest.param(b'{"seed": "\xff"}', id="not-utf8"),
])
def test_bad_config_exits_two(tmp_path, monkeypatch, payload):
    # a config that got through would simulate, without bound for a huge pool
    monkeypatch.setattr(cli, "run_sweep", _must_not_run)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "f.csv")])
    assert rc == 2


def test_a_config_that_sets_stratified_split_exits_two(tmp_path, monkeypatch, capsys):
    """The split has one rule, so the key that chose another is unknown."""
    monkeypatch.setattr(cli, "run_sweep", _must_not_run)
    cfg = write_config(tmp_path / "config.json", {"stratified_split": False})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err == 'config error: unknown config keys: ["stratified_split"]\n'


@pytest.mark.parametrize("payload, message", [
    ('{"seed": true}', "config.seed must be an integer, got true"),
    ('{"radio": {"bandwidth_bps": Infinity}}',
     "config.radio.bandwidth_bps must be an integer, got Infinity"),
], ids=["seed-true", "bandwidth-Infinity"])
def test_a_config_error_quotes_the_value_as_json(tmp_path, monkeypatch, capsys, payload, message):
    """The refused value is named as the config spelled it, not as Python does."""
    monkeypatch.setattr(cli, "run_sweep", _must_not_run)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(payload)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_missing_config_exits_two(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "f.csv")])
    assert rc == 2


def test_bad_evaluate_flags_exit_two(bridged_flows, tmp_path, capsys):
    _, _, flows = bridged_flows
    base = ["evaluate", "--dataset", str(flows),
            "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")]
    # the flags are config keys, checked by the config's own rules
    assert main(base + ["--split", "1.5"]) == 2
    assert "split_fraction" in capsys.readouterr().err
    assert main(base + ["--split", "0"]) == 2
    assert main(base + ["--seed", "-1"]) == 2
    assert main(base + ["--seed", str(2**64)]) == 2
    assert main(base + ["--balance", "500:x"]) == 2
    assert main(base + ["--balance", "2000"]) == 2
    assert main(base + ["--balance=-1:5"]) == 2
    assert main(base + ["--balance=3:-2"]) == 2
    assert main(base + ["--balance=0:5"]) == 2
    assert main(base + ["--balance=5:0"]) == 2
    assert main(base + ["--balance="]) == 2


def test_simulate_checks_the_output_directory_first(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", _must_not_run)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{}")
    rc = main(["simulate", "--config", str(cfg_path),
               "--out", str(tmp_path / "missing" / "flows.csv")])
    assert rc == 3


@pytest.mark.parametrize("missing", ["report", "roc"])
def test_evaluate_checks_the_output_directories_first(bridged_flows, tmp_path, monkeypatch,
                                                      missing):
    _, _, flows = bridged_flows
    monkeypatch.setattr(cli, "train_and_report", _must_not_run)
    paths = {"report": tmp_path / "r.json", "roc": tmp_path / "c.csv"}
    paths[missing] = tmp_path / "missing" / paths[missing].name
    rc = main(["evaluate", "--dataset", str(flows),
               "--report", str(paths["report"]), "--roc", str(paths["roc"])])
    assert rc == 3


def test_missing_dataset_exits_three(tmp_path):
    rc = main(["evaluate", "--dataset", str(tmp_path / "absent.csv"),
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")])
    assert rc == 3


def test_wrong_header_exits_three(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    rc = main(["evaluate", "--dataset", str(bad),
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")])
    assert rc == 3


def test_invalid_label_exits_three(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(DATASET_HEADER + "\n1,2,3,4,2\n")
    rc = main(["evaluate", "--dataset", str(bad),
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")])
    assert rc == 3


def test_broken_flow_accounting_exits_three(tmp_path, capsys):
    bad = tmp_path / "flows.csv"
    # 5 sent, 1 received, none lost, and no rx time
    bad.write_text(FLOWS_HEADER + "\n167837953,167837954,49153,9,1000000000,-1,"
                   "1032000000,-1,0,0,0,5,1,0,5120,1024,0.0,0,0\n")
    rc = main(["evaluate", "--dataset", str(bad),
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")])
    assert rc == 3
    assert f"{bad}:2:" in capsys.readouterr().err


NOT_UTF8 = {
    "header": b"src_addr,dst_addr,src_port,dst_port,lab\xffel\n1,2,3,4,0\n",
    "row": DATASET_HEADER.encode() + b"\n1,2,3,4,0\n1,2,\xff3,4,1\n",
}


@pytest.mark.parametrize("where", NOT_UTF8)
def test_dataset_that_is_not_utf8_exits_three(tmp_path, capsys, where):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(NOT_UTF8[where])
    rc = main(["evaluate", "--dataset", str(bad),
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")])
    assert rc == 3
    assert f"data error: {bad}:" in capsys.readouterr().err


def child_env(**extra) -> dict:
    """The environment for a child interpreter that imports this vanetlab."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point_reports_a_data_error(tmp_path):
    """`python -m vanetlab` runs main and exits with its code, with no
    traceback."""
    bad = tmp_path / "bad.csv"
    bad.write_bytes(NOT_UTF8["row"])
    done = subprocess.run(
        [sys.executable, "-m", "vanetlab", "evaluate", "--dataset", str(bad),
         "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert done.returncode == 3
    assert done.stderr.startswith(f"data error: {bad}: not UTF-8 text")
    assert "Traceback" not in done.stderr


# names in logging that are not levels: a format string and a dict
@pytest.mark.parametrize("level", ["basic_format", "_styles"])
def test_a_log_setting_that_is_no_level_falls_back_to_warning(tmp_path, level):
    """A fresh interpreter, since basicConfig sets no level where the
    root logger already has a handler, as it does under pytest."""
    cfg = write_config(tmp_path / "config.json", COUNTING)
    done = subprocess.run(
        [sys.executable, "-m", "vanetlab", "simulate", "--config", cfg,
         "--out", str(tmp_path / "flows.csv")],
        capture_output=True, text=True, env=child_env(VANETLAB_LOG=level), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.parametrize("rows", [
    # an address past float range: as_arrays would raise OverflowError
    pytest.param([f"{'9' * 400},200,49153,9,1"]
                 + [f"{100 + i},200,{49153 + i},9,{i % 2}" for i in range(9)],
                 id="addr-past-float"),
    # features near the float maximum: Standardizer.fit would raise ValueError
    pytest.param([",".join(["9" * 308] * 4) + f",{i % 2}" for i in range(5)],
                 id="features-near-float-max"),
])
def test_out_of_range_flow_key_exits_three(tmp_path, capsys, rows):
    ds = tmp_path / "huge.csv"
    ds.write_text(DATASET_HEADER + "\n" + "\n".join(rows) + "\n")
    rc = main(["evaluate", "--dataset", str(ds),
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")])
    assert rc == 3
    assert f"{ds}:2: src_addr outside [0, 4294967295]" in capsys.readouterr().err


def test_unmeetable_balance_exits_three(bridged_flows, tmp_path, capsys):
    _, _, flows = bridged_flows
    rc = main(["evaluate", "--dataset", str(flows), "--balance", "500:1500",
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "500" in err and "1500" in err and "have" in err


def test_single_class_dataset_exits_three(tmp_path):
    rows = "\n".join(f"{100 + i},200,{49153 + i},9,0" for i in range(10))
    ds = tmp_path / "flat.csv"
    ds.write_text(DATASET_HEADER + "\n" + rows + "\n")
    rc = main(["evaluate", "--dataset", str(ds),
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")])
    assert rc == 3


@pytest.mark.parametrize("fraction", ["0.99", "0.01"])
def test_split_that_empties_a_side_exits_three(tmp_path, capsys, fraction):
    rows = "\n".join(f"{100 + i},200,{49153 + i},9,{i % 2}" for i in range(10))
    ds = tmp_path / "ten.csv"
    ds.write_text(DATASET_HEADER + "\n" + rows + "\n")
    rc = main(["evaluate", "--dataset", str(ds), "--split", fraction,
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")])
    assert rc == 3
    assert "both need at least one" in capsys.readouterr().err


@pytest.mark.parametrize("seed, message", [
    (1, "ROC needs both classes in truth"),
    (10, "training labels contain a single class"),
])
def test_split_that_leaves_one_class_on_a_side_exits_three(tmp_path, capsys, seed, message):
    """The one positive row lands in train (seed 1) or test (seed 10),
    leaving the other side with a single class."""
    rows = "\n".join(f"{100 + i},200,{49153 + i},9,{int(i == 0)}" for i in range(10))
    ds = tmp_path / "one-positive.csv"
    ds.write_text(DATASET_HEADER + "\n" + rows + "\n")
    rc = main(["evaluate", "--dataset", str(ds), "--seed", str(seed),
               "--report", str(tmp_path / "r.json"), "--roc", str(tmp_path / "c.csv")])
    assert rc == 3
    assert capsys.readouterr().err == f"data error: {message}\n"


def test_runtime_error_exits_four(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise VanetlabError("boom")

    monkeypatch.setattr(cli, "run_sweep", boom)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{}")
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "f.csv")])
    assert rc == 4
    assert capsys.readouterr().err == "runtime error: boom\n"


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_worker_left():
    """No sweep worker may outlive the sweep; one found is joined, with
    a bound, so that the failing test leaves no process behind."""
    left = multiprocessing.active_children()
    for proc in left:
        proc.join(timeout=10)
    assert left == []


# each stage _forked_map runs, and the unit that break_stage breaks in it
UNITS = {"scenario sweep": "scenario 2", "model fits": "SVM"}


def break_stage(stage, monkeypatch, fail, every=False):
    """Make one unit of `stage` call fail() before its work: scenario 2
    of the sweep, or the SVM's fit; with `every`, each unit does."""
    if stage == "scenario sweep":
        run = cli.run_scenario

        def run_scenario(params):
            if every or params.index == 2:
                fail()
            return run(params)

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        return
    for kind in KINDS if every else ("SVM",):
        model_class = type(make(kind))
        fit = model_class._fit

        def _fit(model, X, y, fit=fit):
            fail()
            return fit(model, X, y)

        monkeypatch.setattr(model_class, "_fit", _fit)


def stage_command(stage, tmp_path, flows):
    """The main() argv that runs `stage` on the small sweep or on the
    bridged flows, and the output it writes on success."""
    if stage == "scenario sweep":
        out = tmp_path / "flows.csv"
        cfg = write_config(tmp_path / "config.json", SWEEP)
        return ["simulate", "--config", cfg, "--out", str(out)], out
    out = tmp_path / "report.json"
    return ["evaluate", "--dataset", str(flows), "--report", str(out),
            "--roc", str(tmp_path / "roc.csv")], out


def spy_on_pools(monkeypatch) -> list:
    """The (workers, start method) of every pool opened from now on."""
    pools = []
    pool_class = concurrent.futures.ProcessPoolExecutor

    def spy(workers, mp_context):
        pools.append((workers, mp_context.get_start_method()))
        return pool_class(workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return pools


def test_sweep_workers_follow_the_usable_cpus(monkeypatch):
    cfg = ScenarioConfig.from_dict({**SWEEP, "scenario_count": 3})
    pools = spy_on_pools(monkeypatch)
    usable_cpus(monkeypatch, 1)
    in_process = cli.run_sweep(cfg)
    assert pools == []
    usable_cpus(monkeypatch, 5)
    pooled = cli.run_sweep(cfg)
    assert pools == [(3, "fork")]
    assert_no_worker_left()
    assert pooled == in_process


def test_fit_workers_follow_the_usable_cpus(bridged_flows, tmp_path, monkeypatch):
    """The six fits run in the sweep's pool, one worker per usable CPU up
    to the model count, and give the same report and bytes as in process."""
    rows = cli._load_any_dataset(str(bridged_flows[2]))
    pools = spy_on_pools(monkeypatch)
    outcomes = []
    for cpus, opened in ((1, []), (5, [(5, "fork")])):
        usable_cpus(monkeypatch, cpus)
        report, roc = tmp_path / f"report-{cpus}.json", tmp_path / f"roc-{cpus}.csv"
        result = cli.train_and_report(rows, ScenarioConfig(), str(report), str(roc))
        assert_no_worker_left()
        assert pools == opened
        outcomes.append((result, report.read_bytes(), roc.read_bytes()))
    assert outcomes[0] == outcomes[1]
    assert list(outcomes[0][0]["classifiers"]) == list(KINDS)


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_logs_each_scenario_once_in_index_order(monkeypatch, caplog, cpus):
    usable_cpus(monkeypatch, cpus)
    with caplog.at_level(logging.INFO, logger="vanetlab.cli"):
        records, _ = cli.run_sweep(ScenarioConfig.from_dict(SWEEP))
    assert_no_worker_left()
    assert len(records) == 4 * SWEEP["flows_per_scenario"]
    lines = [r.getMessage() for r in caplog.records if r.name == "vanetlab.cli"]
    assert [line.split(":")[0] for line in lines] == [f"scenario {i}" for i in range(4)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_training_logs_each_model_once_in_kinds_order(bridged_flows, tmp_path, monkeypatch,
                                                      caplog, cpus):
    """The parent logs the six training lines; a fit worker logs none."""
    rows = cli._load_any_dataset(str(bridged_flows[2]))
    usable_cpus(monkeypatch, cpus)
    with caplog.at_level(logging.INFO, logger="vanetlab.cli"):
        cli.train_and_report(rows, ScenarioConfig(), str(tmp_path / "r.json"),
                             str(tmp_path / "c.csv"))
    assert_no_worker_left()
    lines = [r for r in caplog.records if r.name == "vanetlab.cli"]
    assert [r.getMessage().split(" on ")[0] for r in lines] == [f"training {k}" for k in KINDS]
    assert {r.process for r in lines} == {os.getpid()}


def check_error_exits_alike_in_and_out_of_process(stage, flows, tmp_path, monkeypatch,
                                                  capsys):
    unit = UNITS[stage]

    def fail():
        raise DataError(f"{unit} cannot run")

    break_stage(stage, monkeypatch, fail)
    argv, out = stage_command(stage, tmp_path, flows)
    outcomes = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        rc = main(argv)
        assert_no_worker_left()
        outcomes.append((rc, capsys.readouterr().err))
    assert outcomes == [(3, f"data error: {unit} cannot run\n")] * 2
    assert not out.exists()


def check_dying_worker_exits_four_naming_the_stage(stage, flows, tmp_path, monkeypatch,
                                                   capsys):
    test_process = os.getpid()

    def die():
        # os._exit in the test process would end the test run
        assert os.getpid() != test_process, f"{UNITS[stage]} ran in process"
        os._exit(1)

    break_stage(stage, monkeypatch, die)
    usable_cpus(monkeypatch, 2)
    argv, out = stage_command(stage, tmp_path, flows)
    rc = main(argv)
    assert_no_worker_left()
    assert rc == 4
    assert capsys.readouterr().err.startswith(f"runtime error: {stage}: a worker process died: ")
    assert not out.exists()


def check_interrupt_stops_the_workers_at_once(stage, flows, tmp_path, monkeypatch):
    """An exception raised in the parent mid-stage, as Ctrl-C or a time
    limit's alarm raises it, stops the workers: the stage does not wait
    for the scenarios or fits they are running."""

    class Interrupt(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupt

    break_stage(stage, monkeypatch, lambda: time.sleep(3), every=True)
    usable_cpus(monkeypatch, 2)
    argv, _ = stage_command(stage, tmp_path, flows)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(Interrupt):
            main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.monotonic() - start
    assert_no_worker_left()
    assert elapsed < 2


def test_scenario_error_exits_alike_in_and_out_of_process(bridged_flows, tmp_path,
                                                         monkeypatch, capsys):
    check_error_exits_alike_in_and_out_of_process(
        "scenario sweep", bridged_flows[2], tmp_path, monkeypatch, capsys)


def test_fit_error_exits_alike_in_and_out_of_process(bridged_flows, tmp_path, monkeypatch,
                                                    capsys):
    check_error_exits_alike_in_and_out_of_process(
        "model fits", bridged_flows[2], tmp_path, monkeypatch, capsys)


def test_dying_worker_exits_four_naming_the_sweep(bridged_flows, tmp_path, monkeypatch,
                                                  capsys):
    check_dying_worker_exits_four_naming_the_stage(
        "scenario sweep", bridged_flows[2], tmp_path, monkeypatch, capsys)


def test_dying_fit_worker_exits_four_naming_the_fits(bridged_flows, tmp_path, monkeypatch,
                                                     capsys):
    check_dying_worker_exits_four_naming_the_stage(
        "model fits", bridged_flows[2], tmp_path, monkeypatch, capsys)


def test_interrupt_stops_the_workers_at_once(bridged_flows, tmp_path, monkeypatch):
    check_interrupt_stops_the_workers_at_once(
        "scenario sweep", bridged_flows[2], tmp_path, monkeypatch)


def test_interrupt_stops_the_fit_workers_at_once(bridged_flows, tmp_path, monkeypatch):
    check_interrupt_stops_the_workers_at_once(
        "model fits", bridged_flows[2], tmp_path, monkeypatch)


def test_pooled_svm_still_warns_at_its_iteration_cap(bridged_flows, tmp_path):
    """A solver that stops short says so from its fit worker too: a child
    interpreter caps the SVM at 3 pair updates, fits on 2 usable CPUs,
    and its stderr carries the warning, logged by another process."""
    child = f"""
import logging, os, sys
from vanetlab import cli
from vanetlab.classifiers import svm
svm.MAX_ITER = 3
os.sched_getaffinity = lambda pid: {{0, 1}}
logging.basicConfig(format="%(process)d %(name)s %(message)s")
print(os.getpid())
sys.exit(cli.main(["evaluate", "--dataset", {str(bridged_flows[2])!r},
                   "--report", {str(tmp_path / "r.json")!r}, "--roc", {str(tmp_path / "c.csv")!r}]))
"""
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    warnings = [line.split(" ", 2) for line in done.stderr.splitlines()
                if "iteration cap" in line]
    assert len(warnings) == 1
    pid, logger, _ = warnings[0]
    assert logger == "vanetlab.svm"
    assert pid != done.stdout.strip()


def test_one_error_class_per_exit_code():
    """The exit code is the errors' whole contract: one class owns each
    code, and nothing subclasses them."""
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert defined == {"VanetlabError", "DataError", "ConfigError"}
    assert set(VanetlabError.__subclasses__()) == {DataError, ConfigError}
    assert DataError.__subclasses__() == ConfigError.__subclasses__() == []
    codes = {cls.exit_code: cls for cls in (VanetlabError, DataError, ConfigError)}
    assert codes == {4: VanetlabError, 3: DataError, 2: ConfigError}
    assert set(cli._PREFIXES) == set(codes)


def test_evaluate_flag_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args(
        ["evaluate", "--dataset", "d.csv", "--report", "r.json", "--roc", "c.csv"])
    default = ScenarioConfig()
    assert (args.seed, args.split) == (default.seed, default.split_fraction)


def test_parse_balance():
    assert _parse_balance("500:1500") == [500, 1500]
    with pytest.raises(ConfigError):
        _parse_balance("500")
    with pytest.raises(ConfigError):
        _parse_balance("a:b")
    # the counts' sign is the config's rule
    for text in ("-1:5", "3:-2", "0:5", "5:0"):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"balance": _parse_balance(text)})
