"""Command line entry points: simulate, evaluate, pipeline.

Exit codes: 0 success, else the error's exit_code: 2 ConfigError,
3 DataError or OSError, 4 any other VanetlabError.
Set VANETLAB_LOG=DEBUG|INFO|WARNING|ERROR for verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import logging
import os
import sys

from .classifiers import KINDS, as_arrays, make
from .config import ScenarioConfig, derived_seed, sample_scenario
from .dataset import (
    DATASET_HEADER,
    FLOWS_HEADER,
    DatasetRow,
    balance,
    class_counts,
    label_flows,
    read_csv,
    read_flows_csv,
    record_label,
    split,
    write_csv,
    write_flows_csv,
)
from .errors import ConfigError, DataError, VanetlabError
from .flows import FlowRecord
from .metrics import evaluate_scores
from .scenario import ScenarioParams, run_scenario

log = logging.getLogger("vanetlab.cli")

# stderr prefix per exit code
_PREFIXES = {2: "config error", 3: "data error", 4: "runtime error"}

# derived_seed purposes
SPLIT_SEED = 301
BALANCE_SEED = 302
MODEL_SEED = 303


def _setup_logging() -> None:
    level = os.environ.get("VANETLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except ValueError as e:
        # bad JSON, bad UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return ScenarioConfig.from_dict(raw)


def _scenario_records(params: ScenarioParams) -> list[FlowRecord]:
    """One scenario's flow records, the unit of work a sweep worker runs.
    Only the records cross back: the result's nodes hold the engine,
    whose queued events are closures that cannot be pickled."""
    return run_scenario(params).records


def _usable_cpus() -> int:
    """The CPUs this process may run on (so `taskset -c 0` gives 1); 1
    where the platform has no affinity mask. Every platform that has one
    can fork."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def run_sweep(cfg: ScenarioConfig):
    """All scenarios in index order; (records, per-scenario manifest rows).

    Scenarios are sampled here and run in forked worker processes, one
    per usable CPU up to the scenario count; with one, they run in
    process. Each scenario draws only from its own (seed, index)
    substreams and the results are gathered in index order, so the
    records are the same either way. No worker outlives the call."""
    scenarios = [sample_scenario(cfg, i) for i in range(cfg.scenario_count)]
    workers = min(_usable_cpus(), len(scenarios))
    if workers < 2:
        return _gather(scenarios, map(_scenario_records, scenarios))

    # imported here so that a start that never sweeps does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn or forkserver: a fresh interpreter and its imports
    # in each worker would cost about what the second CPU saves
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return _gather(scenarios, pool.map(_scenario_records, scenarios))
    except BrokenProcessPool as e:
        raise VanetlabError(f"scenario sweep: a worker process died: {e}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _gather(scenarios: list[ScenarioParams], results):
    """Concatenate each scenario's records, given in index order, and
    build its manifest row; logs one line per scenario."""
    records = []
    meta = []
    for params, scenario_records in zip(scenarios, results):
        positive = sum(map(record_label, scenario_records))
        log.info(
            "scenario %d: %d vehicles, %d blackholes, %d of %d flows positive",
            params.index, params.vehicles, len(params.blackholes),
            positive, len(scenario_records),
        )
        meta.append(
            {
                "index": params.index,
                "vehicles": params.vehicles,
                "blackholes": list(params.blackholes),
                "flows": len(scenario_records),
                "positive": positive,
                "negative": len(scenario_records) - positive,
            }
        )
        records.extend(scenario_records)
    return records, meta


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(cfg: ScenarioConfig, meta, out_dir: str, outputs: dict,
                    class_counts: dict) -> dict:
    """Write out_dir/manifest.json: the config, its digest, the
    per-scenario rows, the output names and the class counts."""
    config = cfg.to_dict()
    canonical = json.dumps(config, sort_keys=True)
    manifest = {
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "scenarios": meta,
        "outputs": outputs,
        "class_counts": class_counts,
    }
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


def _load_any_dataset(path: str) -> list[DatasetRow]:
    """Accept either a flows table or an already-labeled dataset."""
    # a byte that is not UTF-8 fails the header match here, or the reader
    # rejects it in a row
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().rstrip("\n")
    if header == FLOWS_HEADER:
        return label_flows(read_flows_csv(path))
    if header == DATASET_HEADER:
        return read_csv(path)
    raise DataError(f"{path}: header is neither a flows nor a dataset table")


def _model_for(kind: str, seed: int):
    if kind == "RF":
        return make("RF", seed=derived_seed(seed, MODEL_SEED))
    return make(kind)


def _class_counts(rows: list[DatasetRow]) -> dict:
    """The rows' class counts as report.json and manifest.json write them."""
    return dict(zip(("positive", "negative"), class_counts(rows)))


def train_and_report(
    rows: list[DatasetRow],
    seed: int,
    split_fraction: float,
    stratified: bool,
    report_path: str,
    roc_path: str,
) -> dict:
    positive, negative = class_counts(rows)
    if positive == 0 or negative == 0:
        raise DataError(
            f"evaluation needs both classes, got {positive} positive / {negative} negative"
        )
    train, test = split(rows, split_fraction, derived_seed(seed, SPLIT_SEED), stratified)
    X_train, y_train = as_arrays(train)
    X_test, y_test = as_arrays(test)

    report = {
        "seed": seed,
        "split_fraction": split_fraction,
        "rows": {"train": len(train), "test": len(test)},
        "class_counts": {
            "dataset": _class_counts(rows),
            "train": _class_counts(train),
            "test": _class_counts(test),
        },
        "classifiers": {},
    }
    roc_lines = ["classifier,fpr,tpr"]
    for kind in KINDS:
        log.info("training %s on %d rows", kind, len(train))
        model = _model_for(kind, seed).fit(X_train, y_train)
        pred, scores = model.classify(X_test)
        rep = evaluate_scores(pred.tolist(), scores.tolist(), y_test.tolist())
        # the ROC points go to roc.csv; asdict would deep-copy them first
        entry = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)
                 if f.name not in ("counts", "roc_points")}
        entry["confusion"] = dataclasses.asdict(rep.counts)
        entry["confusion_normal_positive"] = dataclasses.asdict(rep.counts.swapped())
        report["classifiers"][kind] = entry
        for fpr, tpr in rep.roc_points:
            roc_lines.append(f"{kind},{fpr!r},{tpr!r}")

    _write_json(report, report_path)
    with open(roc_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(roc_lines) + "\n")
    return report


def _check_out_dirs(*paths: str) -> None:
    """Fail before any work when an output's directory is missing."""
    for path in paths:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise FileNotFoundError(errno.ENOENT, "output directory does not exist", parent)


def cmd_simulate(config_path: str, out_path: str) -> dict:
    cfg = load_config(config_path)
    _check_out_dirs(out_path)
    records, meta = run_sweep(cfg)
    write_flows_csv(records, out_path)
    return _write_manifest(
        cfg, meta, os.path.dirname(os.path.abspath(out_path)),
        {"flows": os.path.basename(out_path)},
        _class_counts(label_flows(records)),
    )


def cmd_evaluate(
    dataset_path: str,
    split_fraction: float,
    seed: int,
    report_path: str,
    roc_path: str,
    balance_counts=None,
) -> dict:
    _check_out_dirs(report_path, roc_path)
    rows = _load_any_dataset(dataset_path)
    if balance_counts is not None:
        rows = balance(rows, *balance_counts, derived_seed(seed, BALANCE_SEED))
    return train_and_report(rows, seed, split_fraction, False, report_path, roc_path)


def cmd_pipeline(config_path: str, out_dir: str) -> dict:
    cfg = load_config(config_path)
    os.makedirs(out_dir, exist_ok=True)
    records, meta = run_sweep(cfg)
    write_flows_csv(records, os.path.join(out_dir, "flows.csv"))

    rows = label_flows(records)
    raw_counts = _class_counts(rows)
    if cfg.balance is not None:
        rows = balance(rows, *cfg.balance, derived_seed(cfg.seed, BALANCE_SEED))
    write_csv(rows, os.path.join(out_dir, "dataset.csv"))

    report = train_and_report(
        rows,
        cfg.seed,
        cfg.split_fraction,
        cfg.stratified_split,
        os.path.join(out_dir, "report.json"),
        os.path.join(out_dir, "roc.csv"),
    )
    _write_manifest(
        cfg, meta, out_dir,
        {"flows": "flows.csv", "dataset": "dataset.csv",
         "report": "report.json", "roc": "roc.csv"},
        {"raw": raw_counts, "dataset": _class_counts(rows)},
    )
    return report


def _parse_balance(text: str):
    try:
        pos, neg = text.split(":")
        counts = (int(pos), int(neg))
    except ValueError:
        raise ConfigError(f"--balance expects POS:NEG, got {text!r}") from None
    if min(counts) < 1:
        raise ConfigError(f"--balance counts must be positive, got {text!r}")
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanetlab",
        description="Blackhole-attack traffic laboratory: simulate, label, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the scenario sweep, write flows.csv")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)

    p_eval = sub.add_parser("evaluate", help="train and score the six classifiers")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--split", type=float, default=0.6)
    p_eval.add_argument("--seed", type=int, default=1729)
    p_eval.add_argument("--report", required=True)
    p_eval.add_argument("--roc", required=True)
    p_eval.add_argument("--balance", default=None)

    p_pipe = sub.add_parser("pipeline", help="simulate, label, balance, evaluate")
    p_pipe.add_argument("--config", required=True)
    p_pipe.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cmd_simulate(args.config, args.out)
        elif args.command == "evaluate":
            if not 0.0 < args.split < 1.0:
                raise ConfigError(f"--split must lie in (0, 1), got {args.split}")
            if args.seed < 0 or args.seed > 0xFFFFFFFFFFFFFFFF:
                raise ConfigError("--seed must fit in 64 bits")
            balance_counts = _parse_balance(args.balance) if args.balance else None
            cmd_evaluate(
                args.dataset, args.split, args.seed, args.report, args.roc, balance_counts
            )
        else:
            cmd_pipeline(args.config, args.out_dir)
    except VanetlabError as e:
        print(f"{_PREFIXES[e.exit_code]}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"{_PREFIXES[DataError.exit_code]}: {e}", file=sys.stderr)
        return DataError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
