"""Repeat ``run.py`` over several seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --workload sweep --seeds 1-10 [--seconds 30] \
        [--trace 0|1] [--out perfbench/results/<name>.json]

For every metric it reports the median and the quartiles of the runs, as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the distance
between the quartiles as a share of the median.  With ``--out`` the summary,
every run's metrics and the machine note are appended to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    note = next(json.loads(line[len("# machine "):]) for line in lines if line.startswith("# machine "))
    return json.loads(lines[-1]), note


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs, note = [], None
    for seed in args.seeds:
        result, note = run_once(args.workload, seed, args.seconds, args.trace)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"], "metrics": values})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    summary = {name: summarise([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}
    for name, s in summary.items():
        print(f"{name:45s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}")
    if args.out:
        existing = json.loads(args.out.read_text()) if args.out.exists() else []
        existing.append({
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "machine": note, "summary": summary, "runs": runs,
        })
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(existing, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
