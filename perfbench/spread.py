"""Repeat run.py over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload straighten --seeds 1-10 \\
        [--seconds 20] [--trace 0] [--out FILE]

For every metric it reports the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median.  This is the steadiness test
a benchmark change must pass, and the format of the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result, details = json.loads(lines[-1]), json.loads(lines[-2])["details"]
        runs.append({"seed": seed, "result": result, "details": details})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    names = list(runs[0]["result"]["metrics"])
    summary = {
        name: summarise([r["result"]["metrics"][name]["value"] for r in runs]) for name in names
    }
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:<42} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "provenance": runs[0]["details"]["provenance"],
            "summary": {name: {k: v for k, v in s.items() if k != "values"} for name, s in summary.items()},
            "runs": runs,
        }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
