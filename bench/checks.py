"""Output checks for the vanetlab benchmark.

Each check reads an artifact the program wrote and returns the problems
it found, tagged with the operations they implicate, so the benchmark
can count failed operations: a scenario is implicated by its flow rows,
a model by its report entry. The checks parse the files themselves and
import nothing from the program.
"""

from __future__ import annotations

import hashlib
import json
import math

# Scenario i owns the source ports SRC_PORT_BASE + i*flows .. + flows - 1.
SRC_PORT_BASE = 49153

KINDS = ("GB", "RF", "SVM", "KNN", "GNB", "LR")
# Criterion 3 of the acceptance gate: the models that must clear the bar.
QUALITY_KINDS = ("GB", "RF", "SVM", "KNN")
MIN_ACCURACY = 0.90
MIN_F1 = 0.80

ALL = None  # a problem that implicates every operation of its kind


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return None, []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_flows(path, scenario_count: int, flows_per_scenario: int):
    """Problems in a flows.csv as (scenario index or ALL, message), and the
    flow labels by key for the dataset check."""
    header, rows = _rows(path)
    if header is None:
        return [(ALL, "flows.csv is empty")], {}
    col = {name: i for i, name in enumerate(header)}
    needed = ("src_addr", "dst_addr", "src_port", "dst_port", "tx_packets",
              "rx_packets", "lost_packets", "blackhole_absorbed", "label")
    missing = [n for n in needed if n not in col]
    if missing:
        return [(ALL, f"flows.csv lacks columns {missing}")], {}

    problems = []
    labels = {}
    per_scenario = [0] * scenario_count
    for ln, f in enumerate(rows, start=2):
        try:
            v = {n: int(f[col[n]]) for n in needed}
        except (ValueError, IndexError):
            problems.append((ALL, f"flows.csv:{ln}: malformed row"))
            continue
        scenario = (v["src_port"] - SRC_PORT_BASE) // flows_per_scenario
        if not 0 <= scenario < scenario_count:
            problems.append((ALL, f"flows.csv:{ln}: src_port {v['src_port']} outside every scenario"))
            continue
        per_scenario[scenario] += 1
        if v["rx_packets"] + v["lost_packets"] != v["tx_packets"]:
            problems.append((scenario, f"flows.csv:{ln}: rx + lost != tx"))
        if v["label"] != (1 if v["blackhole_absorbed"] >= 1 else 0):
            problems.append((scenario, f"flows.csv:{ln}: label disagrees with blackhole_absorbed"))
        key = (v["src_addr"], v["dst_addr"], v["src_port"], v["dst_port"])
        if key in labels:
            problems.append((scenario, f"flows.csv:{ln}: duplicate flow key {key}"))
        labels[key] = v["label"]
    for i, n in enumerate(per_scenario):
        if n != flows_per_scenario:
            problems.append((i, f"scenario {i} has {n} flow rows, expected {flows_per_scenario}"))
    return problems, labels


def check_dataset(path, flow_labels: dict, balance):
    """Problems in a dataset.csv, and its row count: every row is a
    distinct flow of flows.csv with that flow's label, and the class
    counts match `balance`."""
    header, rows = _rows(path)
    if header != ["src_addr", "dst_addr", "src_port", "dst_port", "label"]:
        return [f"dataset.csv header is {header}"], len(rows)
    problems = []
    seen = set()
    positive = 0
    for ln, f in enumerate(rows, start=2):
        try:
            *key, label = (int(x) for x in f)
        except ValueError:
            problems.append(f"dataset.csv:{ln}: malformed row")
            continue
        key = tuple(key)
        if flow_labels.get(key) != label:
            problems.append(f"dataset.csv:{ln}: {key} label {label} is not the flow's label")
        if key in seen:
            problems.append(f"dataset.csv:{ln}: duplicate row {key}")
        seen.add(key)
        positive += label
    if balance is not None and (positive, len(rows) - positive) != tuple(balance):
        problems.append(
            f"dataset.csv has {positive}/{len(rows) - positive} rows, expected {balance}"
        )
    return problems, len(rows)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0  # the program reports 0 for a 0/0 metric


def check_report(path, dataset_rows: int, quality_bar: bool):
    """Problems in a report.json as (model kind or ALL, message).

    Every classifier is present, its confusion counts cover the test split,
    its scalar metrics recompute from those counts, and with `quality_bar`
    criterion 3 holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        classifiers = report["classifiers"]
        test_rows = report["rows"]["test"]
        train_rows = report["rows"]["train"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [(ALL, f"report.json unreadable: {e}")]
    problems = []
    if train_rows + test_rows != dataset_rows:
        problems.append((ALL, f"split {train_rows}+{test_rows} != {dataset_rows} rows"))
    for kind in KINDS:
        entry = classifiers.get(kind)
        if entry is None:
            problems.append((kind, f"report.json has no {kind} entry"))
            continue
        try:
            c = entry["confusion"]
            tp, fp, tn, fn = c["tp"], c["fp"], c["tn"], c["fn"]
            expected = {
                "accuracy": (tp + tn) / (tp + fp + tn + fn),
                "sensitivity": _ratio(tp, tp + fn),
                "ppv": _ratio(tp, tp + fp),
                "npv": _ratio(tn, tn + fn),
                "f1": _ratio(2 * tp, 2 * tp + fp + fn),
            }
            swapped = entry["confusion_normal_positive"]
            if tp + fp + tn + fn != test_rows:
                problems.append((kind, f"{kind} confusion covers {tp + fp + tn + fn} of {test_rows} test rows"))
            if swapped != {"tp": tn, "fp": fn, "tn": tp, "fn": fp}:
                problems.append((kind, f"{kind} normal-positive confusion is not the swap"))
            for name, value in expected.items():
                if not math.isclose(entry[name], value, rel_tol=1e-12, abs_tol=1e-15):
                    problems.append((kind, f"{kind} {name} {entry[name]} != {value} from counts"))
            if quality_bar and kind in QUALITY_KINDS:
                if entry["accuracy"] < MIN_ACCURACY or entry["f1"] < MIN_F1:
                    problems.append((kind, f"{kind} accuracy {entry['accuracy']:.4f} / "
                                           f"F1 {entry['f1']:.4f} below {MIN_ACCURACY}/{MIN_F1}"))
        except (KeyError, TypeError, ZeroDivisionError) as e:
            problems.append((kind, f"{kind} entry malformed: {e!r}"))
    if quality_bar and not problems:
        for weaker in ("GNB", "LR"):
            if classifiers["GB"]["auc"] < classifiers[weaker]["auc"]:
                problems.append(("GB", f"GB auc below {weaker}"))
    return problems


def model_scores(path) -> dict[str, tuple[float, float]]:
    """Test (accuracy, F1) of each model in a report.json."""
    with open(path, "r", encoding="utf-8") as fh:
        classifiers = json.load(fh)["classifiers"]
    return {kind: (entry["accuracy"], entry["f1"]) for kind, entry in classifiers.items()}
