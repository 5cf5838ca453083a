"""The timed process of one benchmark run.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --work DIR [--tiny] [--record-digests]

`benchmarks/run.py` starts it with `src/` and `benchmarks/` on the path,
BLAS threads pinned to 1, the workload's `config.json` in DIR and the
prep checkpoint and learning curve in `DIR/prep`.
It calls `fogdist.cli.main` in a closed loop until S seconds have passed
and checks every call's outputs.  The last line it prints is a JSON object
with the operation counts, any problems and the metrics:

* `--trace 0`: median per-call wall and CPU seconds, median set-up
  seconds of fresh processes (`probe.py`), peak RSS, the greedy decision
  latency of the prep policy network and the tail utility of its learning
  curve;
* `--trace 1`: untraced and traced calls alternate.  Traced calls run with
  the `tracer` wrappers installed and give per-layer counts and seconds;
  their outputs must match the untraced ones byte for byte, their counts
  must repeat exactly, and every wrapper must be gone afterwards.  The
  spans of the first traced call stay in memory and are written to
  `DIR/spans.npz` when the loop ends.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from fogdist import cli
from fogdist.agent import load_checkpoint
from fogdist.harness import measure_decision_latency
from fogdist.profiles import resolve_profile

import checks
from tracer import Tracer
from workloads import DEFAULT_SEED, FULL, RATIOS, TINY, WORKLOADS, Sizes, Workload

BENCH_DIR = Path(__file__).resolve().parent
MIN_TRACED_CALLS = 2      # so that repeatable counts can be compared
PROBE_TIMEOUT_S = 60.0
ROUNDS_PER_PROBE = 2      # decision-latency rounds per set-up probe


class Operations:
    """Attempted and failed operations: command calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems

    def guarded(self, what: str, fn, *args):
        """Run one checking function; an exception counts as a failed check."""
        try:
            problems = fn(*args)
        except Exception:
            problems = [traceback.format_exc(limit=2)]
        return self.check(what, problems)


def call_cli(argv: list[str]) -> tuple[int, float, float]:
    """One CLI call with its stdout discarded: exit code, wall s, CPU s."""
    with contextlib.redirect_stdout(io.StringIO()):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    return code, wall, cpu


def output_problems(wl: Workload, sizes: Sizes, out_dir: Path, n_modules: int):
    """(name, check) pairs for the invariants of one call's outputs."""
    approaches = wl.approaches(n_modules)
    experiments = wl.config(sizes)["eval_experiments"]
    found = []
    if wl.command == "train":
        found.append(("learning_curve.csv", lambda: checks.utilities_ok(
            out_dir / "learning_curve.csv", ["utility"], sizes.train_episodes)))
        found.append(("checkpoint.json", lambda: checkpoint_problems(
            out_dir / "checkpoint.json", n_modules)))
    if wl.command == "evaluate":
        for name in approaches:
            found.append((f"utilities_{name}.csv", lambda name=name: checks.utilities_ok(
                out_dir / f"utilities_{name}.csv", ["utility"], experiments)))
        found.append(("boxplots.csv", lambda: checks.utilities_ok(
            out_dir / "boxplots.csv", checks.STATS_COLUMNS, len(approaches))))
    if wl.command == "sweep":
        found.append(("sweep_cells.csv", lambda: checks.utilities_ok(
            out_dir / "sweep_cells.csv", checks.STATS_COLUMNS, wl.cells * len(approaches))))
        found.append(("costs_vs_lambda.csv", lambda: checks.costs_ok(
            out_dir / "costs_vs_lambda.csv", ["mean_deployment_cost"], len(RATIOS) * len(approaches))))
    found.append(("run.json", lambda: checks.run_json_ok(out_dir)))
    return found


def checkpoint_problems(path: Path, n_modules: int) -> list[str]:
    agent, _ = load_checkpoint(path)
    if agent.n_actions != n_modules + 1:
        return [f"{agent.n_actions} actions, expected {n_modules + 1}"]
    return []


def digest_problems(wl: Workload, out_dir: Path, n_modules: int) -> list[str]:
    recorded = checks.load_digests().get(wl.name, {})
    problems = []
    for name in checks.digested_files(wl.name, n_modules):
        got = checks.static_rows_digest(out_dir / name)
        if recorded.get(name) != got:
            problems.append(f"{name}: static-plan rows digest {got[:12]} differs from the recorded "
                            f"{str(recorded.get(name))[:12]}")
    return problems


def record_digests(wl: Workload, out_dir: Path, n_modules: int) -> None:
    data = checks.load_digests() if checks.DIGESTS_PATH.exists() else {}
    data["seed"] = DEFAULT_SEED
    data[wl.name] = {name: checks.static_rows_digest(out_dir / name)
                     for name in checks.digested_files(wl.name, n_modules)}
    checks.DIGESTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def decision_round(checkpoint: Path, sizes: Sizes, seed: int) -> tuple[float, float]:
    """p50 and p99 greedy decision latency, in microseconds, of one round of states."""
    network = load_checkpoint(checkpoint)[0].network
    _, samples_ms = measure_decision_latency(network, n=sizes.decision_states, seed=seed)
    p50, p99 = np.percentile(samples_ms, [50.0, 99.0]) * 1000.0
    return float(p50), float(p99)


def setup_probe(argv: list[str]) -> float:
    """Seconds from starting a fresh process to its first simulated deployment."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), repr(t0), "--", *argv],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(totals: dict, wl: Workload) -> dict:
    """Per-layer metrics of one traced call from per-span-name totals."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    executes = get("env.execute", "calls")
    breakdowns = get("env.request_latency_breakdown", "calls")
    simulations = get("harness.evaluate_strategies", "calls")
    return {
        "env.execute.calls": executes,
        "env.execute.self_s": get("env.execute", "self_s"),
        "env.request_latency_breakdown.calls": breakdowns,
        "env.request_latency_breakdown.s": get("env.request_latency_breakdown", "s"),
        "env.stress_advance.calls": get("env.stress_advance", "calls"),
        "env.observe.calls": get("env.observe", "calls"),
        "env.observe.s": get("env.observe", "s"),
        "env.breakdowns_per_deployment": breakdowns / executes if executes else 0.0,
        "harness.evaluate_strategies.calls": simulations,
        "harness.simulations_per_cell": simulations / wl.cells if wl.cells else 0.0,
        "harness.emit.self_s": sum(get(f"harness.cmd_{c}", "self_s")
                                   for c in ("train", "evaluate", "sweep")),
        "model.score.calls": get("model.deployment_cost", "calls") + get("model.deployment_utility", "calls"),
        "model.score.s": get("model.deployment_cost", "s") + get("model.deployment_utility", "s"),
        "nn.forward.calls": get("nn.forward", "calls"),
        "nn.forward.s": get("nn.forward", "s"),
        "nn.sgd_step.calls": get("nn.sgd_step", "calls"),
        "nn.sgd_step.s": get("nn.sgd_step", "s"),
        "agent.replay.calls": get("agent.replay", "calls"),
        "agent.replay.self_s": get("agent.replay", "self_s"),
        "agent.memory_sample.s": get("agent.memory_sample", "s"),
        "agent.run_episode.self_s": get("agent.run_episode", "self_s"),
        "agent.checkpoint_io.s": get("agent.save_checkpoint", "s") + get("agent.load_checkpoint", "s"),
        "profiles.resolve.s": get("profiles.resolve", "s"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            sizes: Sizes = FULL, record: bool = False) -> dict:
    """Run one workload for `seconds` and return operations, problems and metrics.

    Untraced, set-up probes, each with decision-latency rounds, are spread
    evenly over the run between calls, so that they sample the same stretch
    of time as the calls.

    Call and set-up times are medians over the run.  On a shared machine the
    speed of a core can drift and switch by up to 2x; short calls give a run
    dozens of samples, and their median follows the speed the run spent
    most of its time at instead of the share of time spent at each, as a
    mean would.  Decision latencies are means over rounds.
    """
    wl = WORKLOADS[workload]
    n_modules = resolve_profile(wl.profile).n_modules
    ops = Operations()
    out_dir = work / "out"
    # The policy the decision rounds query and the curve its tail comes from.
    learner = work / "prep"
    checkpoint = learner / "checkpoint.json"
    argv = wl.argv(work / "config.json", seed, out_dir, checkpoint)
    probe_argv = wl.argv(work / "config.json", seed, work / "setup", checkpoint)
    pin_digests = seed == DEFAULT_SEED and sizes == FULL
    if record and not pin_digests:
        raise ValueError(f"digests are recorded at seed {DEFAULT_SEED} and full sizes only")

    calibration = call_cli(["calibrate"])[0]
    ops.check("calibrate fd", [] if calibration == 0 else [f"exit code {calibration}"])

    def one_call() -> tuple[float, float, dict] | None:
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        try:
            code, wall, cpu = call_cli(argv)
        except Exception:
            ops.check("command", [traceback.format_exc(limit=3)])
            return None
        if not ops.check("command", [] if code == 0 else [f"{argv[0]} exited {code}"]):
            return None
        return wall, cpu, checks.tree_digest(out_dir)

    def sample_latency_and_setup() -> bool:
        try:
            for _ in range(ROUNDS_PER_PROBE):
                decisions.append(decision_round(learner / "checkpoint.json", sizes, seed))
            setups.append(setup_probe(probe_argv))
        except (OSError, ValueError, subprocess.SubprocessError):
            ops.check("latency round and set-up probe", [traceback.format_exc(limit=3)])
            return False
        return True

    walls, cpus, traced_walls, layer_runs, decisions, setups = [], [], [], [], [], []
    reference: dict | None = None
    first_tracer: Tracer | None = None
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        result = one_call()
        if result is None:
            break
        walls.append(result[0])
        cpus.append(result[1])
        if reference is None:
            reference = result[2]
            for what, fn in output_problems(wl, sizes, out_dir, n_modules):
                ops.guarded(what, fn)
            if record:
                record_digests(wl, out_dir, n_modules)
            elif pin_digests:
                ops.guarded("static-plan digests", digest_problems, wl, out_dir, n_modules)
        else:
            ops.check("outputs repeat across calls", [] if result[2] == reference else
                      [f"differs in {sorted(k for k in reference if reference[k] != result[2].get(k))}"])
        if trace:
            tracer = Tracer(run_id=len(layer_runs))
            tracer.install()
            try:
                traced = one_call()
            finally:
                tracer.uninstall()
            ops.check("wrappers restored", [] if tracer.restored() else ["a wrapper is still installed"])
            if traced is None:
                break
            traced_walls.append(traced[0])
            ops.check("traced outputs match untraced", [] if traced[2] == reference else
                      ["traced call wrote different bytes"])
            layer_runs.append(layer_metrics(tracer.layer_totals(), wl))
            first_tracer = first_tracer or tracer
        elif (time.perf_counter() - start >= len(setups) * seconds / sizes.setup_probes
              and not sample_latency_and_setup()):
            break
        if time.perf_counter() >= deadline and (not trace or len(layer_runs) >= MIN_TRACED_CALLS):
            break
    if not trace and not ops.failed:
        while len(setups) < sizes.setup_probes and sample_latency_and_setup():
            pass

    out = {"attempted": ops.attempted, "failed": ops.failed, "problems": ops.problems,
           "numpy": np.__version__, "calls": len(walls),
           "latency_rounds": len(decisions), "samples": {"wall_s": walls, "setup_s": setups,
                                                          "decision_rounds": decisions},
           "metrics": {}}
    if ops.failed:
        return out
    if trace:
        counts = [{k: v for k, v in run.items() if k.endswith(".calls")} for run in layer_runs]
        ops.check("traced call counts repeat", [] if all(c == counts[0] for c in counts) else
                  ["call counts differ between traced calls"])
        out["notes"] = [f"not in the program, reported as 0: {name}" for name in first_tracer.missing]
        metrics = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
        metrics["bench.trace_overhead"] = statistics.median(traced_walls) / statistics.median(walls)
        first_tracer.write(work / "spans.npz")
    else:
        wall = statistics.median(walls)
        tail = checks.column(learner / "learning_curve.csv", "utility")[-sizes.tail_episodes:]
        metrics = {
            "wall_s": wall,
            "deployments_per_s": wl.scored_deployments(sizes, n_modules) / wall,
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_tail_neg_utility": -statistics.fmean(tail),
        }
        # Printed, not bounded: from run to run they move by about as much as
        # the largest bound allows, or more.
        out["unbounded"] = {"decision_us_p50": statistics.fmean(p50 for p50, _ in decisions),
                            "decision_us_p99": statistics.fmean(p99 for _, p99 in decisions)}
    out.update(attempted=ops.attempted, failed=ops.failed, problems=ops.problems, metrics=metrics)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.work,
                     TINY if args.tiny else FULL, args.record_digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
