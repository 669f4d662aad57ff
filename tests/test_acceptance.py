"""Acceptance gate: one test per shipping criterion.

Each test prints a `[criterion N] PASS/FAIL` line with the measured
numbers before asserting, so a full run always shows the scoreboard.
Criteria 3, 6 and 7 share a module fixture that runs the default
pipeline twice, recording the second run's flow observations, and the
artifact digest lock reads the same runs; everything else builds its
own small inputs.
"""

import collections
import json
import math
import os
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest
from flow_audit import flow_key, recompute_from_log, record_observations
from pins import (
    LEARNED_ARTIFACTS,
    WORKLOADS,
    artifact_digests,
    default_training_split,
    load,
    simulate_workload,
    split_state,
)

from vanetlab import cli
from vanetlab.cli import cmd_pipeline
from vanetlab.classifiers import (
    KINDS,
    GaussianNaiveBayes,
    GradientBoosting,
    KNearestNeighbors,
    RandomForest,
    SupportVectorMachine,
)
from vanetlab.classifiers import boosting, forest, linear, svm, tree
from vanetlab.classifiers.tree import tree_apply
from vanetlab.config import ScenarioConfig
from vanetlab.dataset import record_label
from vanetlab.engine import RadioConfig, seconds, substream
from vanetlab.flows import FlowSpec
from vanetlab.metrics import (
    auc_trapezoid,
    compute_metrics,
    single_point_auc,
)
from vanetlab.scenario import ScenarioParams, run_scenario

LEGEND_POINTS = {
    "GB": (0.86713287, 0.02116402, 0.923),
    "RF": (0.82517483, 0.01851852, 0.903),
    "SVM": (0.84615385, 0.01587302, 0.915),
    "KNN": (0.79020979, 0.01587302, 0.887),
    "GNB": (0.15384615, 0.0026455, 0.576),
    "LR": (0.30769231, 0.0978836, 0.605),
}
PINS = load()


def log_loss(y, raw):
    """Mean binomial deviance of raw scores against {0,1} labels."""
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


def _verdict(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """The default pipeline executed twice into separate directories:
    run1 and run2, run 1's seconds, run 2's flow records, and every flow
    observation run 2 made, one list per flow monitor. Run 1 sweeps in
    worker processes where more than one CPU is usable; run 2 sees one
    CPU and sweeps in process, where its observations can be recorded,
    so comparing the two runs compares both sweeps."""
    base = tmp_path_factory.mktemp("acceptance")
    config_path = base / "config.json"
    config_path.write_text(json.dumps(ScenarioConfig().to_dict()) + "\n")
    started = time.perf_counter()
    cmd_pipeline(str(config_path), str(base / "run1"))
    elapsed = time.perf_counter() - started
    sweeps = []
    run_sweep = cli.run_sweep

    def recorded_sweep(cfg):
        sweeps.append(run_sweep(cfg))
        return sweeps[-1]

    with pytest.MonkeyPatch.context() as mp:
        logs = record_observations(mp)
        mp.setattr(cli, "run_sweep", recorded_sweep)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        cmd_pipeline(str(config_path), str(base / "run2"))
    (records, _), = sweeps
    return SimpleNamespace(run1=base / "run1", run2=base / "run2", elapsed=elapsed,
                           records=records, logs=logs)


def test_criterion_1_legend_reproduction():
    started = time.perf_counter()
    worst = 0.0
    for kind, (tpr, fpr, printed) in LEGEND_POINTS.items():
        value = single_point_auc(tpr, fpr)
        worst = max(worst, abs(value - printed))
    elapsed = time.perf_counter() - started
    ok = worst <= 5e-4 and elapsed < 1.0
    assert _verdict(
        1, ok,
        f"six operating points, worst |value - printed| = {worst:.2e} "
        f"(bound 5e-4), {elapsed:.3f}s (bound 1s)",
    )
    for kind, (tpr, fpr, printed) in LEGEND_POINTS.items():
        assert single_point_auc(tpr, fpr) == pytest.approx(printed, abs=5e-4), kind


def test_criterion_2_metric_identities():
    rng = random.Random(8675309)
    started = time.perf_counter()
    checked = 0
    for _ in range(1000):
        tp, fp, tn, fn = (rng.randint(1, 400) for _ in range(4))
        rep = compute_metrics({"tp": tp, "fp": fp, "tn": tn, "fn": fn})
        total = tp + fp + tn + fn
        # accuracy * total recovers tp+tn (same float expression, and the
        # product lands within rounding of the integer)
        assert rep["accuracy"] == (tp + tn) / total
        assert abs(rep["accuracy"] * total - (tp + tn)) < 1e-6
        ppv, sensitivity = rep["ppv"], rep["sensitivity"]
        if ppv + sensitivity > 0:
            harmonic = 2 * ppv * sensitivity / (ppv + sensitivity)
            assert abs(rep["f1"] - harmonic) <= 1e-12
        for name in ("accuracy", "sensitivity", "ppv", "npv", "f1"):
            assert 0.0 <= rep[name] <= 1.0
        tpr = tp / (tp + fn)
        fpr = fp / (fp + tn)
        trap = auc_trapezoid([(0.0, 0.0), (fpr, tpr), (1.0, 1.0)])
        assert abs(trap - single_point_auc(tpr, fpr)) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 1000 and elapsed < 5.0
    assert _verdict(
        2, ok,
        f"{checked} random matrices: accuracy/F1/range identities and "
        f"3-point trapezoid == single-point to 1e-12, {elapsed:.2f}s (bound 5s)",
    )


def test_criterion_3_default_pipeline_quality(pipeline_runs):
    run1, elapsed = pipeline_runs.run1, pipeline_runs.elapsed
    manifest = json.loads((run1 / "manifest.json").read_text())
    report = json.loads((run1 / "report.json").read_text())

    raw = manifest["class_counts"]["raw"]
    raw_total = raw["positive"] + raw["negative"]
    dataset_counts = manifest["class_counts"]["dataset"]
    rows = report["rows"]

    failures = []
    if raw_total < 2000:
        failures.append(f"raw flows {raw_total} < 2000")
    if dataset_counts != {"positive": 500, "negative": 1500}:
        failures.append(f"balance {dataset_counts}")
    if rows != {"train": 1200, "test": 800}:
        failures.append(f"split {rows}")
    quality = {}
    for kind in ("GB", "RF", "SVM", "KNN"):
        entry = report["classifiers"][kind]
        quality[kind] = (entry["accuracy"], entry["f1"])
        if entry["accuracy"] < 0.90:
            failures.append(f"{kind} accuracy {entry['accuracy']:.4f} < 0.90")
        if entry["f1"] < 0.80:
            failures.append(f"{kind} F1 {entry['f1']:.4f} < 0.80")
    gb_auc = report["classifiers"]["GB"]["auc"]
    for weaker in ("GNB", "LR"):
        if gb_auc < report["classifiers"][weaker]["auc"]:
            failures.append(f"GB auc {gb_auc:.4f} < {weaker}")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")

    summary = ", ".join(f"{k} acc={a:.4f} f1={f:.4f}" for k, (a, f) in quality.items())
    detail = (
        f"{raw_total} raw flows, balanced 500/1500, split 1200/800; {summary}; "
        f"GB auc={gb_auc:.4f} >= GNB/LR; {elapsed:.1f}s (bound 300s)"
    )
    assert _verdict(3, not failures, detail if not failures else "; ".join(failures))


def chain_params(blackhole: bool) -> ScenarioParams:
    """Three standing vehicles A-B-C on one line; B is the attacker when
    asked. A and C are out of direct radio range of each other, while
    both hops through B are inside it."""
    if blackhole:
        xs, blackholes = (0.0, 200.0, 400.0), (1,)
    else:
        xs, blackholes = (0.0, 25.0, 265.0), ()
    flow = FlowSpec(0, 2, 49153, 9, packet_size_bytes=1024,
                    data_rate_bps=1_024_000, packet_count=10, start=seconds(1))
    return ScenarioParams(
        index=0,
        nodes=[(x, 0.0, 0.0, 0.0) for x in xs],
        blackholes=blackholes,
        flows=[flow],
        sim_duration_ns=seconds(10),
        radio=RadioConfig(),
    )


def bfs_hops(engine, src, dst, radio_range):
    nodes = (0, 1, 2)
    dist = {src: 0}
    frontier = collections.deque([src])
    while frontier:
        cur = frontier.popleft()
        for other in nodes:
            if other in dist:
                continue
            if engine.distance(cur, other, 0) <= radio_range:
                dist[other] = dist[cur] + 1
                frontier.append(other)
    return dist.get(dst)


def test_criterion_4_blackhole_hand_trace():
    started = time.perf_counter()

    attacked = run_scenario(chain_params(blackhole=True))
    rec_a = attacked.records[0]
    route_a = attacked.nodes[0].routes[2]
    delivery_a = rec_a.rx_packets / rec_a.tx_packets

    honest_params = chain_params(blackhole=False)
    honest = run_scenario(honest_params)
    rec_h = honest.records[0]
    route_h = honest.nodes[0].routes[2]
    delivery_h = rec_h.rx_packets / rec_h.tx_packets
    bfs = bfs_hops(honest.nodes[0].engine, 0, 2, honest_params.radio.range_m)

    elapsed = time.perf_counter() - started
    ok = (
        route_a.next_hop == 1
        and route_a.dest_seq == 1_000_000
        and delivery_a == 0.0
        and rec_a.blackhole_absorbed == 10
        and record_label(rec_a) == 1
        and delivery_h == 1.0
        and route_h.hop_count == 2 == bfs
        and record_label(rec_h) == 0
        and elapsed < 1.0
    )
    assert _verdict(
        4, ok,
        f"attacked: forged seq {route_a.dest_seq} via node {route_a.next_hop}, "
        f"delivery {delivery_a:.1f}, absorbed {rec_a.blackhole_absorbed}, "
        f"label {record_label(rec_a)}; honest: delivery {delivery_h:.1f}, "
        f"{route_h.hop_count} hops == BFS {bfs}, label {record_label(rec_h)}; "
        f"{elapsed:.3f}s (bound 1s)",
    )


def gauss_clusters(seed, n_per_class, sigma, dims=4):
    rng = substream(seed, 3)

    def cluster(mean, cnt):
        return [[rng.gauss(mean, sigma) for _ in range(dims)] for _ in range(cnt)]

    X = np.array(cluster(10.0, n_per_class) + cluster(40.0, n_per_class))
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


def test_criterion_5_classifier_oracles(monkeypatch):
    started = time.perf_counter()
    checks = []

    # KNN: exhaustive all-pairs search over 200 rows
    X, y = gauss_clusters(seed=7, n_per_class=100, sigma=2.0)
    knn = KNearestNeighbors().fit(X, y)
    rng = substream(13, 2)
    probes = np.array([[rng.gauss(25.0, 15.0) for _ in range(4)] for _ in range(40)])
    got = knn.classify(probes)[0]
    train_std = knn.standardizer.transform(X)
    agree = 0
    for q in range(probes.shape[0]):
        qs = knn.standardizer.transform(probes[q:q + 1])[0]
        order = sorted(range(200), key=lambda i: (float(((train_std[i] - qs) ** 2).sum()), i))
        labels = [int(y[i]) for i in order[:5]]
        want = 1 if sum(labels) > 2 else 0
        agree += int(got[q] == want)
    checks.append(("KNN exhaustive", agree == probes.shape[0]))

    # GNB: closed form on a 3-row set to 1e-12
    Xg = np.array([[1.0, 10.0], [3.0, 14.0], [20.0, 2.0]])
    yg = np.array([0, 0, 1])
    gnb = GaussianNaiveBayes().fit(Xg, yg)
    eps = 1e-9 * float(Xg.var(axis=0).max())

    def log_gauss(x, mean, var):
        return -0.5 * (math.log(2 * math.pi * var) + (x - mean) ** 2 / var)

    joint = gnb._joint(np.array([[2.0, 11.0]]))[0]
    want0 = math.log(2 / 3) + log_gauss(2, 2, 1 + eps) + log_gauss(11, 12, 4 + eps)
    want1 = math.log(1 / 3) + log_gauss(2, 20, eps) + log_gauss(11, 2, eps)
    checks.append(("GNB closed form", abs(joint[0] - want0) <= 1e-12
                   and abs(joint[1] - want1) <= 1e-12))

    # LR: analytic gradient vs central differences
    rng = substream(21, 4)
    Xl = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(40)])
    yl = np.array([rng.randint(0, 1) for _ in range(40)], dtype=np.float64)
    w = np.array([0.3, -0.7, 0.2])
    grad_w, grad_b = linear.gradient(w, 0.1, Xl.T.copy(), yl, 1e-3)

    def loss(w, b):
        return log_loss(yl, Xl @ w + b) + 0.5e-3 * float(w @ w)

    h = 1e-6
    rel_errs = []
    for j in range(3):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        fd = (loss(wp, 0.1) - loss(wm, 0.1)) / (2 * h)
        rel_errs.append(abs(grad_w[j] - fd) / max(abs(fd), 1e-12))
    fd_b = (loss(w, 0.1 + h) - loss(w, 0.1 - h)) / (2 * h)
    rel_errs.append(abs(grad_b - fd_b) / max(abs(fd_b), 1e-12))
    checks.append(("LR gradient", max(rel_errs) < 1e-4))

    # SVM: KKT residuals within tol on a separable 40-point set
    Xs, ys = gauss_clusters(seed=101, n_per_class=20, sigma=6.0)
    smo = SupportVectorMachine().fit(Xs, ys)
    Xstd = smo.standardizer.transform(Xs)
    alpha = np.zeros(40)
    for svx, a in zip(smo.sv_X, smo.sv_alpha):
        hits = np.where((np.abs(Xstd - svx) < 1e-12).all(axis=1))[0]
        alpha[hits[0]] = a
    margins = (2.0 * ys - 1.0) * smo.score(Xs)
    kkt_ok = smo.converged
    for a, m in zip(alpha, margins):
        if a < 1e-12:
            kkt_ok = kkt_ok and m >= 1.0 - svm.TOL - 1e-6
        elif a > svm.C - 1e-12:
            kkt_ok = kkt_ok and m <= 1.0 + svm.TOL + 1e-6
        else:
            kkt_ok = kkt_ok and abs(m - 1.0) <= svm.TOL + 1e-6
    checks.append(("SVM KKT", kkt_ok))

    Xx = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    yx = np.array([0, 0, 1, 1])
    xor_fit = SupportVectorMachine().fit(Xx, yx)
    checks.append(("SVM XOR-4", xor_fit.classify(Xx)[0].tolist() == [0, 0, 1, 1]))

    # RF: prediction equals the mode of the tree votes on every test row
    monkeypatch.setattr(forest, "N_TREES", 25)
    rf = RandomForest(seed=5).fit(X, y)
    votes = np.stack([tree_apply(t, probes) for t in rf.trees])
    mode = (votes.sum(axis=0) * 2 > 25).astype(int)
    checks.append(("RF vote mode", np.array_equal(rf.classify(probes)[0], mode)))

    # GB: training loss strictly improves over the prior
    gb = GradientBoosting().fit(X, y)
    prior = log_loss(y.astype(float), np.full(len(y), gb.f0))
    final = log_loss(y.astype(float), gb._raw(X))
    checks.append(("GB loss drop", final < prior))

    elapsed = time.perf_counter() - started
    failed = [name for name, ok in checks if not ok]
    ok = not failed and elapsed < 30.0
    assert _verdict(
        5, ok,
        f"{len(checks)} oracle checks ({', '.join(name for name, _ in checks)}), "
        f"{elapsed:.2f}s (bound 30s)" if not failed
        else f"failed: {', '.join(failed)}",
    )


def test_criterion_6_pipeline_determinism(pipeline_runs):
    run1, run2 = pipeline_runs.run1, pipeline_runs.run2
    mismatched = [
        name for name in ("flows.csv", "dataset.csv", "report.json")
        if (run1 / name).read_bytes() != (run2 / name).read_bytes()
    ]
    sizes = {name: (run1 / name).stat().st_size
             for name in ("flows.csv", "dataset.csv", "report.json")}
    assert _verdict(
        6, not mismatched,
        f"two pipeline runs byte-identical ({sizes})" if not mismatched
        else f"differs: {', '.join(mismatched)}",
    )


# a small unbalanced run off the default seed and split
OFF_DEFAULT_SPLIT = {"scenario_count": 4, "flows_per_scenario": 20, "seed": 7,
                     "split_fraction": 0.5, "balance": None}


@pytest.mark.parametrize("dataset, flags", [
    ("flows.csv", ["--balance", "500:1500"]),
    ("dataset.csv", []),
    pytest.param("dataset.csv", ["--seed", "7", "--split", "0.5"], id="seed-7-split-0.5"),
])
def test_evaluate_reproduces_the_pipeline_report(pipeline_runs, tmp_path, dataset, flags):
    """`evaluate` on a pipeline's data, with flags that restate its
    config, takes the pipeline's own learning path: the same report and
    ROC points. The default run's flows are balanced as the config
    balances them; off the default seed and split, a small run of
    OFF_DEFAULT_SPLIT is re-scored from its dataset."""
    run = pipeline_runs.run1
    if "--seed" in flags:
        run = tmp_path / "run"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(OFF_DEFAULT_SPLIT) + "\n")
        cmd_pipeline(str(config_path), str(run))
    report, roc = tmp_path / "report.json", tmp_path / "roc.csv"
    assert cli.main(["evaluate", "--dataset", str(run / dataset), *flags,
                     "--report", str(report), "--roc", str(roc)]) == 0
    assert report.read_bytes() == (run / "report.json").read_bytes()
    assert roc.read_bytes() == (run / "roc.csv").read_bytes()


# the default pipeline's artifacts, whose flows.csv the numpy-free sweep
# pins too. A change that moves any of these alters behaviour and must
# re-pin with its reason recorded.
PINNED_SHA256 = {"flows.csv": PINS["simulator"]["default flows.csv"],
                 **PINS["learning"]["pipeline"]}


def test_default_pipeline_artifacts_match_pinned_digests(pipeline_runs):
    run1 = pipeline_runs.run1
    digests = artifact_digests(run1, ("flows.csv", *LEARNED_ARTIFACTS))
    assert digests == PINNED_SHA256


DEFAULT_SPLIT_STATE_SHA256 = PINS["learning"]["default split states"]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_default_training_split_states_match_pinned_digests(kind, pipeline_runs):
    run1 = pipeline_runs.run1
    X, y = default_training_split(run1)
    assert X.shape == (1200, 4) and np.unique(X[:, 3]).size == 1
    assert split_state(kind, X, y) == DEFAULT_SPLIT_STATE_SHA256[kind]


def test_gb_node_sort_budget_bounds_memory_not_the_model(pipeline_runs, monkeypatch):
    """Whatever the byte budget of GB's shared node sorts, down to 0 (each
    search sorts its node anew), the default split's model is the same and
    the kept bytes stay within it. The default budget keeps every node."""
    run1 = pipeline_runs.run1
    X, y = default_training_split(run1)
    tries, built = [], []

    class RecordedTrie(tree.SortTrie):
        def __init__(self, X):
            super().__init__(X)
            tries.append(self)

    build = tree._NodeSorts.__init__

    def recorded_build(self, *args):
        build(self, *args)
        built.append(self.nbytes)

    monkeypatch.setattr(boosting, "SortTrie", RecordedTrie)
    monkeypatch.setattr(tree._NodeSorts, "__init__", recorded_build)
    default = tree.SORT_BYTES
    for budget in (0, 50_000, default):
        monkeypatch.setattr(tree, "SORT_BYTES", budget)
        built.clear()
        assert split_state("GB", X, y) == DEFAULT_SPLIT_STATE_SHA256["GB"], budget
        kept = tries[-1].kept_bytes
        assert kept <= budget
        assert (kept == sum(built)) == (budget == default), (budget, kept, sum(built))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_simulator_workload_flows_match_pinned_digests(workload, tmp_path):
    want = PINS["learning"]["workloads"][workload]
    assert simulate_workload(workload, tmp_path) == want


def test_criterion_7_flow_accounting(pipeline_runs):
    """Audits the flow records of the fixture's second default run against
    every observation that run made. Each scenario owns a disjoint block of
    ports, so a flow key names one flow of the whole sweep and the
    scenarios' logs can be re-derived as one."""
    records, logs = pipeline_runs.records, pipeline_runs.logs
    cfg = ScenarioConfig()
    assert len(logs) == cfg.scenario_count
    audit = recompute_from_log(o for log in logs.values() for o in log)
    assert len(set(map(flow_key, records))) == len(records) == len(audit)
    conservation_bad = 0
    audit_bad = 0
    for rec in records:
        if rec.rx_packets + rec.lost_packets != rec.tx_packets:
            conservation_bad += 1
        ref = audit[flow_key(rec)]
        exact = (
            rec.tx_packets == ref["tx_packets"]
            and rec.rx_packets == ref["rx_packets"]
            and rec.lost_packets == ref["lost_packets"]
            and rec.delay_sum == ref["delay_sum"]
            and rec.jitter_sum == ref["jitter_sum"]
            and rec.last_delay == ref["last_delay"]
            and rec.blackhole_absorbed == ref["blackhole_absorbed"]
        )
        if not exact:
            audit_bad += 1
    ok = conservation_bad == 0 and audit_bad == 0
    assert _verdict(
        7, ok,
        f"{len(records)} flows over {cfg.scenario_count} scenarios: "
        f"rx+lost==tx everywhere, accumulators equal brute-force recomputation"
        if ok else
        f"{conservation_bad} conservation / {audit_bad} accumulator mismatches",
    )
