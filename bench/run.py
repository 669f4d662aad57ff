"""vanetlab benchmark: the paper's pipeline and two simulator workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload pipeline-default --seed 1729 --seconds 45 --trace 0

The run imports the program from ./src in this one process, with the
BLAS thread count set to 1, times its set-ups in child interpreters that
import it afresh, and writes its artifacts under ./.bench_out, which it
removes again. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it records the run environment, every iteration's time, the
artifact digests, any problem found and, when traced, the spans.
bench/README.md lists the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import checks
from speed import Timer
from tracer import Tracer

# name -> (cli command, config overrides, config seed or None). With
# None the run's --seed becomes the config seed.
#
# A route reply can circle between an attacker and its neighbours (the
# attacker relays replies honestly along routes it forged) until the
# route expires ten simulated seconds later, since nothing bounds the
# hop count. At 6 Mb/s that is hundreds of thousands of events: with
# 8-10 attackers about one seed in four of a dense sweep runs for
# minutes (seed 9: 2.9 M route replies, 177 s for one scenario), and
# one attacker still loops at seeds 8, 10 and 27 of 1-40. The dense
# workload that varies its seed therefore has one attacker and a
# 60 kb/s radio, which cuts such a loop to a hundredth of the hops and
# leaves the rest of the traffic as it was.
PAPER_SEED = 1729
WORKLOADS = {
    # The paper's run, the ROADMAP's end-to-end yardstick: about half
    # simulator, half SVM fit. Its inputs stay at the paper's seed, whose
    # artifact digests are pinned: across seeds the SVM fit alone ranges
    # from 7 to 20 s, and the default sweep loops at about one seed in nine.
    "pipeline-default": ("pipeline", {}, PAPER_SEED),
    # Platoons in reach of each other and of the attacker: multi-hop
    # unicast forwarding, each hop scanning every node; no classifier runs.
    "sim-connected": (
        "simulate",
        {"vehicles": [55, 65], "malicious": [1, 1], "scenario_count": 6,
         "radio": {"bandwidth_bps": 60_000}},
        None,
    ),
    # A split corridor with the attackers out of everyone's reach:
    # route-discovery floods, retries and no_route drops on few nodes,
    # which weights the AODV handlers and the flow monitor over the
    # neighbour scan.
    "sim-partitioned": (
        "simulate", {"vehicles": [10, 50], "malicious": [1, 8], "scenario_count": 9}, None
    ),
}

# Artifact SHA-256 at config seed 1729 from the seed commit. report.json and
# roc.csv are recorded per run but not pinned, so a solver change that
# re-pins them does not need a benchmark edit.
PINNED = {
    "pipeline-default": {
        "flows.csv": "c841ceb50c1bc15f401cd1fefdd6504a7ef79a3c84284b39733dd982fd43934f",
        "dataset.csv": "c532a0ce7a1a7ec4728c6f5fe2fb5e58e3dd64ed327a0773551df39ae6e37bfa",
    },
    "sim-connected": {
        "flows.csv": "538411caa4ca0472ba4fc4067c79c02b1a3005c82a25840f57e382293ed794ba",
    },
    "sim-partitioned": {
        "flows.csv": "daa70fab9c4fd478734233cda6bab8799a5a6b531a220009ebf1412cb3732073",
    },
}
ARTIFACTS = {
    "pipeline": ("flows.csv", "dataset.csv", "report.json", "roc.csv"),
    "simulate": ("flows.csv",),
}

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 9  # set-ups per run; setup_s is their median
DEADLINE_S = 165.0  # no iteration runs past this point of a run
MAX_SCENARIOS = 12  # per-scenario metrics cover the default sweep's indices

DATASET_STAGES = ("label_flows", "balance", "split", "write_flows_csv", "write_csv")
DROP_CAUSES = ("no_route", "queue_overflow", "blackhole_absorbed", "out_of_range", "end_of_sim")
ON_FRAME = {"Rreq": "aodv.on_frame.rreq", "Rrep": "aodv.on_frame.rrep",
            "DataPacket": "aodv.on_frame.data"}


class RunTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise RunTimeout in the main thread once `seconds` have passed."""

    def fire(signum, frame):
        raise RunTimeout(f"over its {seconds:.1f} s time limit")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def setup(work: Path, overrides: dict, seed: int):
    """Import of the program, config write and load; returns
    (cli module, config path, loaded config)."""
    cli = importlib.import_module("vanetlab.cli")
    path = work / "config.json"
    path.write_text(json.dumps({**overrides, "seed": seed}), encoding="utf-8")
    cfg = cli.load_config(str(path))
    return cli, str(path), cfg


# The body of setup() in a fresh interpreter, timed with the host-speed
# probes. argv: the bench directory, the src directory, the config path
# and the config text.
SETUP_CHILD = """\
import json, sys
sys.path[:0] = sys.argv[1:3]
from pathlib import Path
from speed import Timer
with Timer() as t:
    import vanetlab.cli
    Path(sys.argv[3]).write_text(sys.argv[4], encoding="utf-8")
    vanetlab.cli.load_config(sys.argv[3])
print(json.dumps({"host_s": t.host_s, "reference_s": t.reference_s, "probes": t.probes}))
"""


def timed_setup(work: Path, overrides: dict, seed: int, root: Path) -> SimpleNamespace:
    """One set-up in a child interpreter, so that numpy, the standard
    library and the program are all imported cold; its Timer's figures."""
    config = json.dumps({**overrides, "seed": seed})
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(Path(__file__).resolve().parent),
         str(root / "src"), str(work / "setup-config.json"), config],
        capture_output=True, text=True, timeout=60, check=True)
    return SimpleNamespace(**json.loads(child.stdout))


def watch_models(tracer: Tracer, fits: list, attrs=("fit",)) -> None:
    """Span every model call in `attrs`; each fit appends the model's
    `converged` flag (None when it has none) to `fits`."""
    base = sys.modules["vanetlab.classifiers.base"].Classifier
    counts = tracer.counts

    def fitted(model, *args):
        fits.append(getattr(model, "converged", None))
        if hasattr(model, "sweeps_run"):
            counts[f"clf.{model.kind}.sweeps"] = model.sweeps_run
            counts[f"clf.{model.kind}.converged"] = int(model.converged)
            counts[f"clf.{model.kind}.n_sv"] = len(model.sv_alpha)

    for cls in (base, *base.__subclasses__()):
        for attr in attrs:
            if attr in vars(cls):
                tracer.wrap(cls, attr, lambda model, *a, attr=attr: f"clf.{model.kind}.{attr}",
                            span=True, after=fitted if attr == "fit" else None)


def instrument(tracer: Tracer, cli, fits: list) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    engine = sys.modules["vanetlab.engine"]
    aodv = sys.modules["vanetlab.aodv"]
    flows = sys.modules["vanetlab.flows"]
    counts = tracer.counts
    wrap = tracer.wrap

    def scenario_done(result, params):
        for node in result.nodes.values():
            for name, value in node.counters.items():
                counts[f"aodv.{name}"] += value
        counts["flows.log_objects"] += len(result.monitor.log)

    def events(executed, *args):
        counts["scenario.events"] += executed

    observe_names = {kind: f"flows.observe.{kind.value}" for kind in flows.ObsKind}

    def observed(result, monitor, o):
        if o.cause is not None:
            counts[f"flows.drop.{o.cause.value}"] += 1

    for cmd in ("cmd_pipeline", "cmd_simulate"):
        wrap(cli, cmd, f"cli.{cmd}", span=True)
    wrap(cli, "load_config", "config.load", span=True)
    wrap(cli, "run_sweep", "cli.run_sweep", span=True)
    wrap(cli, "train_and_report", "cli.train_and_report", span=True)
    wrap(cli, "sample_scenario", "config.sample_scenario", span=True)
    wrap(cli, "run_scenario", lambda params: f"scenario.{params.index}.run",
         span=True, after=scenario_done)
    for stage in DATASET_STAGES:
        wrap(cli, stage, f"dataset.{stage}", span=True)
    wrap(cli, "evaluate_scores", "metrics.evaluate_scores", span=True)
    wrap(engine.Engine, "run_until", "engine.run_until", after=events)
    wrap(engine.Engine, "transmit",
         lambda eng, src, dst, *rest: "engine.transmit.broadcast"
         if dst == engine.BROADCAST else "engine.transmit.unicast")
    wrap(engine.Engine, "neighbors", "engine.neighbors")
    wrap(aodv.AodvNode, "on_frame",
         lambda node, prev_hop, payload: ON_FRAME.get(type(payload).__name__, "aodv.on_frame.other"))
    wrap(aodv.AodvNode, "send_data", "aodv.send_data")
    wrap(flows.FlowMonitor, "observe", lambda monitor, o: observe_names[o.kind], after=observed)
    wrap(flows.FlowMonitor, "finalize", "flows.finalize")
    watch_models(tracer, fits, ("fit", "predict", "score"))


class Run:
    """One workload at one seed: iterations, their checks and their tallies."""

    def __init__(self, workload: str, seed: int, work: Path, scenario_count=None):
        self.workload = workload
        self.work = work
        self.command, overrides, fixed_seed = WORKLOADS[workload]
        self.config_seed = seed if fixed_seed is None else fixed_seed
        self.full_size = scenario_count is None
        # criterion 3 of the acceptance gate is defined on the paper's run
        self.quality_bar = self.full_size and workload == "pipeline-default"
        if not self.full_size:
            overrides = {**overrides, "scenario_count": scenario_count}
            if self.command == "pipeline":
                overrides["balance"] = None
        self.overrides = overrides
        self.attempted = self.failed = self.unconverged = 0
        self.walls: list[Timer] = []
        self.digests: list[dict] = []
        self.problems: list[str] = []
        self.scores: dict[str, tuple[float, float]] = {}  # of the last report
        self.peak_mb: float | None = None  # ru_maxrss after the first iteration

    def bind(self, cli, cfg_path: str, cfg) -> None:
        self.cli, self.cfg_path, self.cfg = cli, cfg_path, cfg
        self.models = len(checks.KINDS) if self.command == "pipeline" else 0

    def iteration(self, limit: float, tracer: Tracer | None = None):
        """Run the workload's command once; its Timer, or None if it raised
        or ran out of time. With `tracer`, every layer is wrapped."""
        out = Path(tempfile.mkdtemp(dir=self.work))
        scenarios = self.cfg.scenario_count
        self.attempted += scenarios + self.models
        fits: list = []
        watch = tracer or Tracer()
        if tracer is not None:
            instrument(tracer, self.cli, fits)
        else:
            watch_models(watch, fits)
        try:
            with time_limit(limit), Timer() as wall:
                if self.command == "pipeline":
                    self.cli.cmd_pipeline(self.cfg_path, str(out))
                else:
                    self.cli.cmd_simulate(self.cfg_path, str(out / "flows.csv"))
        except Exception as e:  # a failed operation is counted, not fatal
            traceback.print_exc()
            self.failed += scenarios + self.models
            self.problems.append(f"iteration raised {type(e).__name__}: {e}")
            return None
        finally:
            watch.restore()
        if self.peak_mb is None:  # later iterations raise it by leftover heap, not by work
            self.peak_mb = peak_rss_mb()
        self.unconverged += sum(1 for f in fits if f is False)
        self._check(out)
        shutil.rmtree(out)
        self.walls.append(wall)
        return wall

    def _fail(self, message: str, scenarios=(), models=()) -> None:
        self.problems.append(message)
        self.bad_scenarios.update(scenarios)
        self.bad_models.update(models)

    def _check(self, out: Path) -> None:
        n = self.cfg.scenario_count
        every_scenario, every_model = range(n), checks.KINDS if self.models else ()
        self.bad_scenarios, self.bad_models = set(), set()
        try:
            found, labels = checks.check_flows(out / "flows.csv", n, self.cfg.flows_per_scenario)
            for scenario, message in found:
                self._fail(message, every_scenario if scenario is checks.ALL else (scenario,))
            if self.command == "pipeline":
                found, rows = checks.check_dataset(
                    out / "dataset.csv", labels, self.cfg.balance)
                for message in found:
                    self._fail(message, models=every_model)
                for kind, message in checks.check_report(
                        out / "report.json", rows, quality_bar=self.quality_bar):
                    self._fail(message, models=every_model if kind is checks.ALL else (kind,))
                self.scores = checks.model_scores(out / "report.json")
            digests = {name: checks.sha256(out / name) for name in ARTIFACTS[self.command]}
        except (OSError, ValueError, KeyError) as e:
            self._fail(f"artifacts unreadable: {e!r}", every_scenario, every_model)
            digests = {}
        if self.full_size and self.config_seed == PAPER_SEED:
            for name, want in PINNED[self.workload].items():
                if digests.get(name) != want:
                    self._fail(f"{name} digest {digests.get(name)} != pinned {want}",
                               *self._implicated(name, every_scenario, every_model))
        if self.digests:
            for name, first in self.digests[0].items():
                if digests.get(name) != first:
                    self._fail(f"{name} digest differs between iterations",
                               *self._implicated(name, every_scenario, every_model))
        self.digests.append(digests)
        self.failed += len(self.bad_scenarios) + len(self.bad_models)

    @staticmethod
    def _implicated(artifact: str, every_scenario, every_model):
        return (every_scenario, ()) if artifact == "flows.csv" else ((), every_model)

    def count_distance(self, limit: float) -> int:
        """Simulate the sweep again with only Engine.distance counted: it
        runs millions of times, and timing it would swamp the trace."""
        engine = sys.modules["vanetlab.engine"]
        n = self.cfg.scenario_count
        self.attempted += n
        try:
            with Tracer() as counter:
                counter.count(engine.Engine, "distance", "engine.distance.calls")
                with time_limit(limit):
                    records, _ = self.cli.run_sweep(self.cfg)
        except Exception as e:  # counted as failed scenarios
            self.failed += n
            self.problems.append(f"distance count pass raised {type(e).__name__}: {e}")
            return 0
        if len(records) != n * self.cfg.flows_per_scenario:
            self.failed += n
            self.problems.append(f"distance count pass made {len(records)} flows")
        return counter.counts["engine.distance.calls"]

    def end_to_end(self, setups: list[SimpleNamespace]) -> dict:
        if self.command == "simulate":  # no model to score
            accuracy = f1 = 1.0
        else:  # the criterion 3 models; 0 when the pipeline failed
            floor = [self.scores.get(kind, (0.0, 0.0)) for kind in checks.QUALITY_KINDS]
            accuracy, f1 = min(a for a, _ in floor), min(f for _, f in floor)
        ok = self.attempted - self.failed - self.unconverged
        return {
            "wall_s": (statistics.median(w.reference_s for w in self.walls)
                       if self.walls else 0.0, "s"),
            "setup_s": (statistics.median(t.reference_s for t in setups), "s"),
            "peak_rss_mb": (self.peak_mb or peak_rss_mb(), "MB"),
            "accuracy_min": (accuracy, "ratio"),
            "f1_min": (f1, "ratio"),
            "ops_ok_frac": (ok / self.attempted, "ratio"),
        }


def per_layer(tr: Tracer, distance_calls: int, accuracy: dict, overhead_s: float,
              traced_s: float) -> dict:
    counts = tr.counts
    m = {
        "cli.run_sweep.s": (tr.seconds("cli.run_sweep"), "s"),
        "cli.train_and_report.s": (tr.seconds("cli.train_and_report"), "s"),
        "config.load.s": (tr.seconds("config.load"), "s"),
        "config.sample_scenario.s": (tr.seconds("config.sample_scenario"), "s"),
    }
    scenario_s = sum(s for name, (_, s, _) in tr.totals.items()
                     if name.startswith("scenario.") and name.endswith(".run"))
    m["scenario.run.s"] = (scenario_s, "s")
    for i in range(MAX_SCENARIOS):
        m[f"scenario.{i}.run.s"] = (tr.seconds(f"scenario.{i}.run"), "s")
    m["scenario.events"] = (counts["scenario.events"], "count")
    m["scenario.events_per_s"] = (
        counts["scenario.events"] / scenario_s if scenario_s else 0.0, "1/s")

    bcast, uni = "engine.transmit.broadcast", "engine.transmit.unicast"
    frames = [ON_FRAME[k] for k in ("Rreq", "Rrep", "DataPacket")] + ["aodv.on_frame.other"]
    receptions = sum(tr.calls(name) for name in frames)
    m.update({
        "engine.run_until.self_s": (tr.self_seconds("engine.run_until"), "s"),
        "engine.transmit.broadcast.calls": (tr.calls(bcast), "count"),
        "engine.transmit.unicast.calls": (tr.calls(uni), "count"),
        "engine.transmit.self_s": (tr.self_seconds(bcast) + tr.self_seconds(uni), "s"),
        "engine.neighbors.calls": (tr.calls("engine.neighbors"), "count"),
        "engine.neighbors.s": (tr.seconds("engine.neighbors"), "s"),
        "engine.distance.calls": (distance_calls, "count"),
        "engine.scan_yield": (receptions / distance_calls if distance_calls else 0.0, "ratio"),
    })
    for name in frames[:3]:
        m[f"{name}.calls"] = (tr.calls(name), "count")
    m["aodv.self_s"] = (
        sum(tr.self_seconds(name) for name in frames) + tr.self_seconds("aodv.send_data"), "s")
    for name in ("rreq_tx", "rrep_tx", "data_tx", "data_forwarded"):
        m[f"aodv.{name}"] = (counts[f"aodv.{name}"], "count")

    observes = [f"flows.observe.{k}" for k in ("tx", "rx", "drop")]
    for name in observes:
        m[f"{name}.calls"] = (tr.calls(name), "count")
    for cause in DROP_CAUSES:
        m[f"flows.drop.{cause}"] = (counts[f"flows.drop.{cause}"], "count")
    m["flows.observe.self_s"] = (sum(tr.self_seconds(name) for name in observes), "s")
    m["flows.finalize.s"] = (tr.seconds("flows.finalize"), "s")
    m["flows.log_objects"] = (counts["flows.log_objects"], "count")

    for stage in DATASET_STAGES:
        m[f"dataset.{stage}.s"] = (tr.seconds(f"dataset.{stage}"), "s")
    for kind in checks.KINDS:
        for call in ("fit", "predict", "score"):
            m[f"clf.{kind}.{call}.s"] = (tr.seconds(f"clf.{kind}.{call}"), "s")
    for name in ("sweeps", "converged", "n_sv"):
        m[f"clf.SVM.{name}"] = (counts[f"clf.SVM.{name}"], "count")
    for kind in checks.KINDS:
        m[f"clf.{kind}.accuracy"] = (accuracy.get(kind, 0.0), "ratio")
    m["metrics.evaluate_scores.s"] = (tr.seconds("metrics.evaluate_scores"), "s")
    m["trace.wall_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": git_commit(root),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            scenario_count=None):
    """One benchmark run; returns (result line, detail record)."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        run = Run(workload, seed, work, scenario_count)
        setups = [timed_setup(work, run.overrides, run.config_seed, root)
                  for _ in range(SETUPS)]
        run.bind(*setup(work, run.overrides, run.config_seed))

        def remaining():
            return deadline - time.perf_counter()

        def limit():
            return max(remaining(), 0.01)

        detail = {}
        if not trace:
            # repeat while one more iteration as long as the last fits both
            # in --seconds and before the deadline
            begin = time.perf_counter()
            while True:
                wall = run.iteration(limit())
                if (wall is None or time.perf_counter() - begin + wall.host_s > seconds
                        or wall.host_s > remaining()):
                    break
            metrics = run.end_to_end(setups)
        else:
            # one untraced and one traced iteration, then the count-only pass
            untraced = run.iteration(limit())
            tracer = Tracer()
            traced = run.iteration(limit(), tracer) if untraced is not None else None
            distance_calls = run.count_distance(limit()) if traced is not None else 0
            traced_s = traced.reference_s if traced else 0.0
            overhead_s = traced_s - untraced.reference_s if traced else 0.0
            accuracy = {kind: a for kind, (a, _) in run.scores.items()}
            metrics = per_layer(tracer, distance_calls, accuracy, overhead_s, traced_s)
            origin = min((span[3] for span in tracer.spans), default=0.0)
            detail["spans"] = [(i, p, name, round(t0 - origin, 6), round(t1 - origin, 6))
                               for i, p, name, t0, t1 in sorted(tracer.spans)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": run.failed == 0 and bool(run.walls),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail.update({
        "workload": workload,
        "seed": seed,
        "config_seed": run.config_seed,
        "trace": trace,
        "environment": environment(root),
        "setup_host_s": [t.host_s for t in setups],
        "setup_reference_s": [t.reference_s for t in setups],
        "iteration_host_s": [w.host_s for w in run.walls],
        "iteration_reference_s": [w.reference_s for w in run.walls],
        "probe_ms_median": 1000 * statistics.median(
            p for t in setups + run.walls for p in t.probes),
        "svm_unconverged": run.unconverged,
        "digests": run.digests[0] if run.digests else {},
        "problems": run.problems[:20],
    })
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scenarios", type=int, default=None,
                        help="smoke run: override scenario_count (and drop balancing); "
                             "skips the checks that need the full sweep")
    args = parser.parse_args(argv)

    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = "1"
    root = Path.cwd()
    if not (root / "src" / "vanetlab" / "__init__.py").is_file():
        print(f"bench: no vanetlab sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), root,
                             args.scenarios)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
