"""fogdist benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload train-fd --seed 7 --seconds 35 --trace 0

Run it from the repository root; `src/` must hold the fogdist package.
The steps run one process at a time, each single-threaded (BLAS pinned to
one thread before numpy loads):

1. the workload's profile trains a checkpoint (`prep`), untimed;
2. the worker calls the fogdist CLI in a closed loop for `--seconds`,
   checks every output and measures (see `worker.py`).

Every metric is printed by name with the unit `BENCHMARK.json` gives it,
then the environment, and last one JSON line with `correct`, `attempted`,
`failed` and `metrics`.  Work files go to `benchmarks/.work/`.  The exit
code is 0 when every operation succeeded, 1 when one failed and 2 when
the program or the benchmark definition is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import DEFAULT_SEED, FULL, TINY, WORKLOADS  # noqa: E402

TIME_BUDGET_S = 170.0      # every run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNBOUNDED_UNITS = {"decision_us_p50": "us", "decision_us_p99": "us"}


class StepFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run a Python child to completion; return its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise StepFailed("out of time before " + " ".join(args[:2]))
    try:
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise StepFailed("timed out: " + " ".join(args[:2])) from None
    if done.returncode != 0:
        raise StepFailed(f"{' '.join(args[:2])} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_rev": None, "git_dirty": None}
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return {"git_rev": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def bench(workload: str, seed: int, seconds: float, trace: bool, *,
          tiny: bool = False, work: Path | None = None, record_digests: bool = False) -> dict:
    """Prepare and measure one workload; returns the result."""
    deadline = time.monotonic() + TIME_BUDGET_S
    wl = WORKLOADS[workload]
    sizes = TINY if tiny else FULL
    work = work or BENCH_DIR / ".work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(wl.config(sizes)), encoding="utf-8")
    prep_config = work / "prep_config.json"
    prep_config.write_text(json.dumps(wl.prep_config(sizes)), encoding="utf-8")
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "problems": [],
              "env": {"nproc": os.cpu_count(), "python": platform.python_version(), **git_state()}}
    try:
        result["attempted"] += 1
        run_child(["-m", "fogdist", "train", "--config", str(prep_config), "--seed", str(seed),
                   "--out-dir", str(work / "prep")], deadline)
        args = [str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)), "--work", str(work)]
        measured = json.loads(run_child(args + ["--tiny"] * tiny
                                        + ["--record-digests"] * record_digests, deadline))
    except (StepFailed, ValueError) as exc:
        result["failed"] += 1
        result["problems"].append(str(exc))
        return result
    result["attempted"] += measured["attempted"]
    result["failed"] += measured["failed"]
    result["problems"] += measured["problems"]
    result["env"]["numpy"] = measured["numpy"]
    result["calls"] = measured["calls"]
    result["latency_rounds"] = measured["latency_rounds"]
    result["samples"] = measured["samples"]
    result["metrics"] = measured["metrics"]
    result["notes"] = measured.get("notes", [])
    result["unbounded"] = measured.get("unbounded", {})
    result["correct"] = result["failed"] == 0
    return result


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one fogdist benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the static-plan digests instead of checking them "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fogdist" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} does not hold src/fogdist and BENCHMARK.json", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"digests are recorded at the default seed {DEFAULT_SEED}")
    declared = declared_metrics(bool(args.trace))
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                   record_digests=args.record_digests)
    metrics = result["metrics"]
    if result["correct"] and set(metrics) != set(declared):
        result["correct"] = False
        result["failed"] += 1
        result["problems"].append(f"metrics {sorted(set(metrics) ^ set(declared))} "
                                  "do not match BENCHMARK.json")
    out_file = BENCH_DIR / ".work" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"calls {result.get('calls', 0)}")
    for name, unit in declared.items():
        if name in metrics:
            print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<40} {result['failed'] / max(1, result['attempted']):>14.6g} "
          f"({result['failed']} failed of {result['attempted']} operations)")
    for name, value in result.get("unbounded", {}).items():
        print(f"  {name:<40} {value:>14.6g} {UNBOUNDED_UNITS[name]}  (printed only, no bound)")
    if not args.trace:
        print(f"  wall_s, cpu_s: median of {result.get('calls', 0)} calls; decision latency: mean of "
              f"{result.get('latency_rounds', 0)} rounds of {FULL.decision_states} states; "
              f"setup_s: median of {len(result.get('samples', {}).get('setup_s', []))} fresh processes")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for note in result.get("notes", []):
        print("note: " + note)
    for problem in result["problems"]:
        print("problem: " + problem.replace("\n", " | "))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
