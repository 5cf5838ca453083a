"""Record one point of the benchmark trajectory: `benchmarks/results/BENCH_<label>.json`.

    python3 benchmarks/trajectory.py --label 1 [--runs 10] [--workload NAME ...] [--trace]

Runs `run.py` once per seed 1..runs on each workload, one run at a time,
with `run_seconds` from BENCHMARK.json, and stores for every metric the
ten values, their median, quartiles and quartile spread as a share of the
median (`statistics.quantiles(values, n=4)`), plus the environment of the
first run.  Compare two labels' medians against the bounds in
BENCHMARK.json; a later change appends its own file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Record medians and spreads of repeated runs.")
    parser.add_argument("--label", required=True, help="file label, e.g. the change number")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", action="store_true", help="record the per-layer metrics")
    args = parser.parse_args(argv)

    record = {"run_seconds": spec["run_seconds"], "trace": int(args.trace), "workloads": {}}
    failed = False
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in range(1, args.runs + 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(int(args.trace))],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
            record.setdefault("env", env)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            failed |= not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        record["workloads"][workload] = {
            "runs": runs, "metrics": {name: summarize(v) for name, v in values.items()}}
        for name, summary in record["workloads"][workload]["metrics"].items():
            spread = summary["spread"]
            print(f"  {name:<40} median {summary['median']:<14.6g} spread "
                  f"{'n/a' if spread is None else f'{spread:.4f}'}", flush=True)

    out = BENCH_DIR / "results" / f"BENCH_{args.label}{'_trace' if args.trace else ''}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
