"""Alternating parent/change runs of one workload.

    python3 bench/pairs.py --parent ../parent --change . --workload sim-connected --pairs 10

Both sides run this checkout's bench/run.py, each from the root of its
own tree so it imports that tree's src/; the benchmark code is therefore
identical on both sides. Pair i uses seed --seed + i, and the side that
goes first alternates. The script prints, per end-to-end metric, each
side's median and quartiles and how many pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    p = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=200,
    )
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("correct"):
        sys.exit(f"{tree} seed {seed}: run not correct (exit {p.returncode})\n{p.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {q2:.6g} [q1 {q1:.6g}, q3 {q3:.6g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(once(trees[side], args.workload, args.seed + i, spec["run_seconds"]))
            print(f"pair {i} {side}: {runs[side][-1]}", flush=True)

    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        print(f"{name} ({metric['unit']}, bound {metric['bound']}): "
              f"parent {summary(parent)}; change {summary(change)}; "
              f"change better in {wins}/{len(parent)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
