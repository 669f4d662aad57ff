"""Tests of the benchmark itself: its output checks, its tracer's clean-up,
its time limit and a one-scenario smoke run of every workload.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

FLOWS_PER_SCENARIO = 3


def _flow_row(scenario: int, i: int, tx: int, rx: int, absorbed: int) -> str:
    lost = tx - rx
    port = checks.SRC_PORT_BASE + scenario * FLOWS_PER_SCENARIO + i
    label = 1 if absorbed else 0
    return (f"167837953,167837954,{port},9,1000000000,{-1 if rx == 0 else 1000500000},"
            f"2000000000,{-1 if rx == 0 else 2000500000},{500000 * rx},123,500000,"
            f"{tx},{rx},{lost},{1024 * tx},{1024 * rx},8192.0,{absorbed},{label}")


def _write_flows(path: Path) -> None:
    from vanetlab.dataset import FLOWS_HEADER

    rows = [_flow_row(s, i, tx=10, rx=10 - 3 * (i == 1), absorbed=3 * (i == 1) * s)
            for s in range(2) for i in range(FLOWS_PER_SCENARIO)]
    path.write_text("\n".join([FLOWS_HEADER, *rows]) + "\n", encoding="utf-8")


def _sim_run(tmp_path: Path) -> run.Run:
    r = run.Run("sim-partitioned", seed=5, work=tmp_path, scenario_count=2)
    r.bind(cli=None, cfg_path=None,
           cfg=SimpleNamespace(scenario_count=2, flows_per_scenario=FLOWS_PER_SCENARIO, balance=None))
    return r


def test_checker_accepts_well_formed_flows(tmp_path):
    _write_flows(tmp_path / "flows.csv")
    problems, labels = checks.check_flows(tmp_path / "flows.csv", 2, FLOWS_PER_SCENARIO)
    assert problems == []
    assert sorted(labels.values()) == [0, 0, 0, 0, 0, 1]


def test_checker_rejects_a_row_where_rx_plus_lost_is_not_tx(tmp_path):
    path = tmp_path / "flows.csv"
    _write_flows(path)
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")  # scenario 1, flow 1
    fields[11] = str(int(fields[11]) + 1)  # tx_packets
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    problems, _ = checks.check_flows(path, 2, FLOWS_PER_SCENARIO)
    assert [(s, "rx + lost != tx" in m) for s, m in problems] == [(1, True)]


def test_checker_rejects_one_flipped_byte(tmp_path, monkeypatch):
    """A flipped digit the row checks cannot see still fails the digest."""
    r = _sim_run(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    _write_flows(out / "flows.csv")
    r.full_size, r.config_seed = True, run.PAPER_SEED
    monkeypatch.setitem(run.PINNED, "sim-partitioned",
                        {"flows.csv": checks.sha256(out / "flows.csv")})
    r._check(out)
    assert (r.failed, r.problems) == (0, [])

    data = bytearray((out / "flows.csv").read_bytes())
    at = data.index(b",123,")  # jitter_sum of the first flow
    data[at + 1] = ord("4")
    (out / "flows.csv").write_bytes(bytes(data))
    r._check(out)
    assert r.failed == 2  # both scenarios of flows.csv
    assert any("pinned" in p for p in r.problems)
    assert any("differs between iterations" in p for p in r.problems)


def test_report_check_recomputes_scalar_metrics(tmp_path):
    entry = {"confusion": {"tp": 8, "fp": 1, "tn": 10, "fn": 1},
             "confusion_normal_positive": {"tp": 10, "fp": 1, "tn": 8, "fn": 1},
             "accuracy": 0.9, "sensitivity": 8 / 9, "ppv": 8 / 9, "npv": 10 / 11,
             "f1": 16 / 18, "auc": 0.95}
    report = {"rows": {"train": 30, "test": 20},
              "classifiers": {k: dict(entry) for k in checks.KINDS}}
    report["classifiers"]["KNN"]["f1"] = 0.5
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    problems = checks.check_report(path, dataset_rows=50, quality_bar=False)
    assert [kind for kind, _ in problems] == ["KNN"]


class _Owner:
    def method(self, x):
        return x + 1


class _Child(_Owner):
    pass


def test_tracer_restores_every_wrapped_attribute():
    before_owner, before_child = dict(vars(_Owner)), dict(vars(_Child))
    with Tracer() as tr:
        tr.wrap(_Owner, "method", "owner.method", span=True)
        tr.wrap(_Child, "method", "child.method")  # inherited: not in _Child's own dict
        tr.count(_Owner, "method", "owner.count")
        assert _Child().method(1) == 2
        assert _Owner().method(2) == 3
    assert dict(vars(_Owner)) == before_owner
    assert dict(vars(_Child)) == before_child
    # the child's wrapper calls the owner's timing wrapper it found, not the counter
    assert (tr.calls("child.method"), tr.calls("owner.method"), tr.counts["owner.count"]) == (1, 2, 1)
    assert [name for _, _, name, _, _ in tr.spans] == ["owner.method", "owner.method"]
    assert tr.self_seconds("child.method") <= tr.seconds("child.method")


def test_tracer_restores_the_program_after_instrumenting(tmp_path):
    import vanetlab.cli as cli

    engine, aodv, flows = (sys.modules[f"vanetlab.{m}"] for m in ("engine", "aodv", "flows"))
    base = sys.modules["vanetlab.classifiers.base"].Classifier
    owners = [cli, engine.Engine, aodv.AodvNode, flows.FlowMonitor, base, *base.__subclasses__()]
    before = [dict(vars(o)) for o in owners]
    tr = Tracer()
    run.instrument(tr, cli, [])
    assert cli.run_sweep is not before[0]["run_sweep"]
    tr.restore()
    for owner, snapshot in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == snapshot.keys(), owner
        assert all(after[k] is snapshot[k] for k in snapshot), owner


def _bench(cwd: Path, *args: str, timeout: float = 170):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(p: subprocess.CompletedProcess) -> dict:
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_one_scenario_smoke_run(workload, trace):
    p = _bench(ROOT, "--workload", workload, "--seed", "11", "--seconds", "1",
               "--trace", str(trace), "--scenarios", "1")
    assert p.returncode == 0, p.stderr
    result = _result(p)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = [(m["name"], m["unit"]) for m in _spec()["per_layer" if trace else "end_to_end"]]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == declared
    if trace:
        assert result["metrics"]["scenario.0.run.s"]["value"] > 0
        assert result["metrics"]["engine.distance.calls"]["value"] > 0


def test_paper_run_matches_its_pinned_digests_and_counts():
    """The default pipeline at seed 1729, traced: the flows.csv and
    dataset.csv digests are pinned by the run's own checks, and the
    simulator's event counts and the SVM's sweeps are the seed commit's."""
    p = _bench(ROOT, "--workload", "pipeline-default", "--seed", "1729", "--seconds", "1",
               "--trace", "1")
    assert p.returncode == 0, p.stderr
    m = {name: v["value"] for name, v in _result(p)["metrics"].items()}
    assert (m["engine.transmit.broadcast.calls"], m["engine.transmit.unicast.calls"]) == (12954, 114823)
    assert sum(m[f"aodv.on_frame.{k}.calls"] for k in ("rreq", "rrep", "data")) == 273595
    assert sum(m[f"flows.observe.{k}.calls"] for k in ("tx", "rx", "drop")) == 232808
    assert m["flows.log_objects"] == 232808
    assert (m["clf.SVM.sweeps"], m["clf.SVM.converged"]) == (1000, 0)
    assert m["engine.distance.calls"] == 6232793


@pytest.mark.xfail(raises=run.RunTimeout, strict=True,
                   reason="route replies ping-pong between two attackers with no hop limit")
def test_two_attacker_scenario_finishes_in_seconds():
    """Why the measured workloads keep one attacker in reach: seed 9,
    scenario 0 of the dense sweep with 8-10 attackers simulates for about
    three minutes (2.9 M route replies) where its neighbours take two
    seconds."""
    from vanetlab.config import ScenarioConfig, sample_scenario
    from vanetlab.scenario import run_scenario

    cfg = ScenarioConfig.from_dict(
        {"vehicles": [55, 65], "malicious": [8, 10], "scenario_count": 6, "seed": 9})
    try:
        with run.time_limit(15.0):
            run_scenario(sample_scenario(cfg, 0))
    except run.RunTimeout as e:
        # raised afresh: a traceback through the signal handler can lack
        # line numbers, which pytest cannot report
        raise run.RunTimeout(str(e)) from None


def test_an_iteration_over_its_time_limit_is_stopped_and_failed(tmp_path):
    r = run.Run("sim-connected", seed=3, work=tmp_path)
    r.bind(*run.setup(tmp_path, r.overrides, r.config_seed))
    assert r.iteration(limit=0.5) is None
    assert r.failed == r.attempted == 6
    assert any("RunTimeout" in p for p in r.problems)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = _bench(tmp_path, "--workload", "sim-connected", "--seed", "1", "--seconds", "1",
               "--trace", "0", timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_timer_scales_host_seconds_by_its_probes(monkeypatch):
    import speed

    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.PROBE_REF_S)  # a host at half speed
    handler = signal.getsignal(signal.SIGVTALRM)
    with speed.Timer() as timer:
        end = time.process_time() + 0.5
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGVTALRM) is handler
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert len(timer.inside) >= 1 and len(timer.probes) == len(timer.inside) + 2
    expected = (timer.host_s - sum(timer.inside)) / 2
    assert timer.reference_s == pytest.approx(expected)
