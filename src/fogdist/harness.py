"""Experiment harness: configuration, evaluation runs, and file emission.

A run is driven by a JSON config (all keys optional, unknown keys rejected)
and a master seed.  The config file, the config hash and `run.json` all use
one shape, `asdict` of `ExperimentConfig`; the agent's exploration settings
are the ``epsilon_*`` keys of its "agent" section, like every other agent
setting.  Evaluation builds one environment per experiment index, seeded
from the master seed and the index alone, so every approach faces
bit-identical stress trajectories.  It simulates each strategy x experiment
once and then scores those outcomes under every (pricing, weights) cell
asked for: `evaluate` asks for one cell, `sweep` for its whole grid.  That
is sound because a strategy that does not learn never sees prices or
weights, so only non-learning strategies are accepted.  All simulated
outputs are reproducible byte-for-byte for a given config hash and seed;
only the decision-latency command measures real wall-clock time and is
exempt from that guarantee.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .agent import (
    DEPLOYMENTS_PER_EPISODE,
    AgentConfig,
    DQNAgent,
    EpisodeResult,
    GreedyNetworkStrategy,
    Provenance,
    StaticStrategy,
    load_checkpoint,
    save_checkpoint,
    score_episode,
    simulate_episode,
    train,
)
from .env import STATE_FACTORS, FogEnvironment, request_latency_breakdown
from .model import FOG_PRICE_RATIO_GRID, PricingModel, UtilityWeights
from .profiles import (
    ApplicationProfile,
    read_json_file,
    record_from_dict,
    resolve_profile,
    write_text_atomically,
)
from .seeding import derive_seed

RUN_FORMAT_VERSION = 1

# Measured per-frame uplink times the video pipeline is calibrated against,
# indexed by the number of fog-hosted stages.
FD_TRANSMISSION_CHAIN_S = (2.28, 0.77, 0.52, 0.11)
CALIBRATION_REL_TOL = 0.02


@dataclass(frozen=True)
class ExperimentConfig:
    profile: str = "fd"
    pricing: PricingModel = field(default_factory=PricingModel)
    weights: UtilityWeights = field(default_factory=UtilityWeights)
    deployments_per_episode: int = DEPLOYMENTS_PER_EPISODE
    episodes: int | None = None       # profile-dependent default, see resolved_episodes
    eval_experiments: int = 100
    master_seed: int = 2026
    agent: AgentConfig = field(default_factory=AgentConfig)

    def __post_init__(self):
        if self.deployments_per_episode < 1:
            raise ValueError("deployments_per_episode: must be >= 1")
        if self.episodes is not None and self.episodes < 1:
            raise ValueError("episodes: must be >= 1")
        if self.eval_experiments < 1:
            raise ValueError("eval_experiments: must be >= 1")

    def resolved_profile(self) -> ApplicationProfile:
        return resolve_profile(self.profile)

    def resolved_episodes(self) -> int:
        if self.episodes is not None:
            return self.episodes
        return 400 if self.profile == "ipokemon" else 600


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON object, filling defaults, rejecting unknowns.

    Values are type-checked and errors name their path (see
    `record_from_dict`).
    """
    return record_from_dict(ExperimentConfig, data, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json_file(Path(path), "config"))


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary plus the mean, quartiles by linear interpolation."""

    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float
    count: int

    def __post_init__(self):
        ordered = (self.minimum, self.q1, self.median, self.q3, self.maximum)
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"quartiles out of order: {ordered}")
        if not self.minimum <= self.mean <= self.maximum:
            raise ValueError("mean must lie between min and max")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    @classmethod
    def from_samples(cls, samples) -> "BoxplotStats":
        arr = np.asarray(list(samples), dtype=np.float64)
        if arr.size == 0:
            raise ValueError("need at least one sample")
        q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
        return cls(
            minimum=float(arr.min()),
            q1=float(q1),
            median=float(median),
            mean=float(arr.mean()),
            q3=float(q3),
            maximum=float(arr.max()),
            count=int(arr.size),
        )

    def as_row(self) -> list:
        return [self.minimum, self.q1, self.median, self.mean, self.q3, self.maximum]

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


@dataclass
class RunArtifacts:
    """What a harness command produced, plus where it wrote it."""

    config_hash: str
    files: dict[str, Path] = field(default_factory=dict)
    learning_curve: list[float] | None = None
    boxplots: dict[str, BoxplotStats] | None = None
    mean_costs: dict | None = None
    latency: BoxplotStats | None = None


# -- file emission -----------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows, cfg_hash: str, master_seed: int) -> None:
    text = io.StringIO()
    text.write(f"# config_hash={cfg_hash} master_seed={master_seed}\n")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomically(path, text.getvalue())


def _write_run_json(out_dir: Path, command: str, cfg: ExperimentConfig, cfg_hash: str,
                    outputs: dict[str, Path], summary: dict) -> Path:
    path = out_dir / "run.json"
    payload = {
        "format_version": RUN_FORMAT_VERSION,
        "command": command,
        "config_hash": cfg_hash,
        "master_seed": cfg.master_seed,
        "config": asdict(cfg),
        "outputs": {k: p.name for k, p in sorted(outputs.items())},
        "summary": summary,
    }
    write_text_atomically(path, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return path


# -- evaluation core ---------------------------------------------------------

def build_agent(cfg: ExperimentConfig, profile: ApplicationProfile) -> DQNAgent:
    return DQNAgent(
        n_actions=profile.n_modules + 1,
        config=cfg.agent,
        seed=derive_seed(cfg.master_seed, "agent-init"),
    )


def evaluate_strategies(
    profile: ApplicationProfile,
    strategies: dict[str, object],
    cells,
    experiments: int,
    master_seed: int,
    deployments: int = DEPLOYMENTS_PER_EPISODE,
) -> list[dict[str, list[EpisodeResult]]]:
    """Run every strategy through the same seeded experiments; score each cell.

    ``cells`` is a sequence of (pricing, weights) pairs; the result holds
    one {strategy name: per-experiment results} dict per cell, in order.
    Environment seeds depend only on the experiment index and action seeds
    only on the strategy and index, never on the cell, so each strategy x
    experiment is simulated once and its outcomes are scored under every
    cell.  A learning strategy picks actions from its rewards, so its
    outcomes would depend on the cell: it is rejected.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("evaluate_strategies needs at least one (pricing, weights) cell")
    learners = sorted(name for name, s in strategies.items() if isinstance(s, DQNAgent))
    if learners:
        raise ValueError(
            f"evaluate_strategies scores outcomes shared across cells, so it cannot run "
            f"learning strategies {learners}; evaluate their greedy policy instead"
        )
    results: list[dict[str, list[EpisodeResult]]] = [{} for _ in cells]
    for name, strategy in strategies.items():
        trajectories = []
        for index in range(experiments):
            env = FogEnvironment(profile, seed=derive_seed(master_seed, "eval-experiment", index))
            rng = random.Random(derive_seed(master_seed, "eval-actions", name, index))
            trajectories.append(simulate_episode(env, strategy, rng, deployments=deployments))
        for per_cell, (pricing, weights) in zip(results, cells):
            per_cell[name] = [
                score_episode(outcomes, profile.n_modules, pricing, weights)
                for outcomes in trajectories
            ]
    return results


def static_strategies(profile: ApplicationProfile) -> dict[str, StaticStrategy]:
    return {f"s{k}": StaticStrategy(k) for k in range(profile.n_modules + 1)}


def mean_deployment_cost(results: list[EpisodeResult]) -> float:
    costs = [rec.cost for episode in results for rec in episode.records]
    return float(np.mean(costs))


def _load_policy(checkpoint: str | Path, profile: ApplicationProfile) -> GreedyNetworkStrategy:
    """The greedy policy of a checkpoint, which must have been trained on `profile`."""
    agent, meta = load_checkpoint(checkpoint)
    trained_on = meta["profile_name"]
    if trained_on != profile.name or agent.n_actions != profile.n_modules + 1:
        raise ValueError(
            f"checkpoint {checkpoint} was trained on profile {trained_on!r} with "
            f"{agent.n_actions} plans, but the config's profile {profile.name!r} has "
            f"{profile.n_modules + 1} plans"
        )
    return agent.greedy_strategy()


def _reject_repeats(values: list, what: str) -> None:
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{what} {repeated} given more than once")


# -- commands ----------------------------------------------------------------

def cmd_train(cfg: ExperimentConfig, out_dir: str | Path) -> RunArtifacts:
    """Train the learner and emit learning_curve.csv plus a checkpoint.

    The output directory is created only once training has succeeded.
    """
    profile = cfg.resolved_profile()
    cfg_hash = config_hash(cfg)
    agent = build_agent(cfg, profile)
    curve = train(
        profile, agent, cfg.resolved_episodes(), cfg.pricing, cfg.weights,
        master_seed=cfg.master_seed, deployments=cfg.deployments_per_episode,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "learning_curve.csv"
    _write_csv(
        curve_path, ["episode", "utility"],
        [(i + 1, u) for i, u in enumerate(curve)], cfg_hash, cfg.master_seed,
    )
    ckpt_path = out_dir / "checkpoint.json"
    save_checkpoint(
        agent, ckpt_path, profile_name=profile.name,
        provenance=Provenance(
            config_hash=cfg_hash, master_seed=cfg.master_seed, weights=cfg.weights,
        ),
    )
    files = {"learning_curve": curve_path, "checkpoint": ckpt_path}
    files["run"] = _write_run_json(
        out_dir, "train", cfg, cfg_hash, files,
        summary={
            "episodes": len(curve),
            "first_episode_utility": curve[0],
            "last_episode_utility": curve[-1],
            "epsilon_final": agent.epsilon,
        },
    )
    return RunArtifacts(config_hash=cfg_hash, files=files, learning_curve=curve)


def cmd_evaluate(cfg: ExperimentConfig, checkpoint: str | Path, out_dir: str | Path) -> RunArtifacts:
    """Compare the trained policy with every static plan on shared experiments."""
    profile = cfg.resolved_profile()
    cfg_hash = config_hash(cfg)
    strategies: dict[str, object] = dict(static_strategies(profile))
    strategies["context-aware"] = _load_policy(checkpoint, profile)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    [results] = evaluate_strategies(
        profile, strategies, [(cfg.pricing, cfg.weights)],
        experiments=cfg.eval_experiments, master_seed=cfg.master_seed,
        deployments=cfg.deployments_per_episode,
    )
    files: dict[str, Path] = {}
    boxplots: dict[str, BoxplotStats] = {}
    for name, episodes in results.items():
        utilities = [ep.utility for ep in episodes]
        path = out_dir / f"utilities_{name}.csv"
        _write_csv(
            path, ["experiment", "utility"],
            [(i, u) for i, u in enumerate(utilities)], cfg_hash, cfg.master_seed,
        )
        files[f"utilities_{name}"] = path
        boxplots[name] = BoxplotStats.from_samples(utilities)
    box_path = out_dir / "boxplots.csv"
    _write_csv(
        box_path,
        ["approach", "count", "min", "q1", "median", "mean", "q3", "max"],
        [[name, stats.count, *stats.as_row()] for name, stats in sorted(boxplots.items())],
        cfg_hash, cfg.master_seed,
    )
    files["boxplots"] = box_path
    files["run"] = _write_run_json(
        out_dir, "evaluate", cfg, cfg_hash, files,
        summary={name: stats.median for name, stats in sorted(boxplots.items())},
    )
    return RunArtifacts(config_hash=cfg_hash, files=files, boxplots=boxplots)


def cmd_sweep(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    ratio_grid=FOG_PRICE_RATIO_GRID,
    weight_grid=None,
    checkpoint: str | Path | None = None,
) -> RunArtifacts:
    """Cross a fog-price grid with a weight grid; summarise utilities and costs.

    Static plans are always included; the trained policy joins the grid when
    a checkpoint is given.
    """
    ratios = list(ratio_grid)
    weight_grid = [cfg.weights] if weight_grid is None else list(weight_grid)
    if not ratios:
        raise ValueError("ratio_grid must not be empty")
    if not weight_grid:
        raise ValueError("weight_grid must not be empty")
    _reject_repeats(ratios, "fog price ratio(s)")
    _reject_repeats([(w.qos_weight, w.cost_weight) for w in weight_grid], "weight pair(s)")
    cells = [
        (replace(cfg.pricing, fog_price_ratio=ratio), weights)
        for ratio in ratios for weights in weight_grid
    ]
    profile = cfg.resolved_profile()
    cfg_hash = config_hash(cfg)
    strategies: dict[str, object] = dict(static_strategies(profile))
    if checkpoint is not None:
        strategies["context-aware"] = _load_policy(checkpoint, profile)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    per_cell = evaluate_strategies(
        profile, strategies, cells,
        experiments=cfg.eval_experiments, master_seed=cfg.master_seed,
        deployments=cfg.deployments_per_episode,
    )
    cell_rows = []
    for (pricing, weights), results in zip(cells, per_cell):
        for name, episodes in results.items():
            stats = BoxplotStats.from_samples([ep.utility for ep in episodes])
            cell_rows.append([
                pricing.fog_price_ratio, weights.qos_weight, weights.cost_weight, name,
                stats.count, *stats.as_row(),
            ])
    # Deployment cost does not depend on the weights, so the first cell at
    # each ratio gives that ratio's costs.
    mean_costs = {
        (ratio, name): mean_deployment_cost(episodes)
        for ratio, results in zip(ratios, per_cell[::len(weight_grid)])
        for name, episodes in results.items()
    }
    cost_rows = [[ratio, name, cost] for (ratio, name), cost in mean_costs.items()]

    files: dict[str, Path] = {}
    cells_path = out_dir / "sweep_cells.csv"
    _write_csv(
        cells_path,
        ["fog_price_ratio", "qos_weight", "cost_weight", "approach", "count",
         "min", "q1", "median", "mean", "q3", "max"],
        cell_rows, cfg_hash, cfg.master_seed,
    )
    files["sweep_cells"] = cells_path
    costs_path = out_dir / "costs_vs_lambda.csv"
    _write_csv(
        costs_path, ["fog_price_ratio", "approach", "mean_deployment_cost"],
        cost_rows, cfg_hash, cfg.master_seed,
    )
    files["costs_vs_lambda"] = costs_path
    files["run"] = _write_run_json(
        out_dir, "sweep", cfg, cfg_hash, files,
        summary={"cells": len(cells), "ratios": ratios},
    )
    return RunArtifacts(config_hash=cfg_hash, files=files, mean_costs=mean_costs)


# -- calibration -------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationCheck:
    label: str
    observed: float
    expected: float
    rel_error: float
    ok: bool


@dataclass(frozen=True)
class CalibrationReport:
    profile_name: str
    breakdowns: tuple           # plan k's breakdown at index k
    checks: tuple[CalibrationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"profile: {self.profile_name}"]
        for k, b in enumerate(self.breakdowns):
            modules = {**b.fog_module_s, **b.cloud_module_s}
            module_text = ", ".join(f"{name}={seconds:.6f}s" for name, seconds in modules.items())
            out.append(
                f"plan fog={k}: transmission={b.transmission_s:.5f}s "
                f"propagation={b.propagation_s:.5f}s total={b.total_s:.5f}s [{module_text}]"
            )
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            out.append(
                f"check {c.label}: observed={c.observed:.5f} expected={c.expected:.5f} "
                f"rel_error={c.rel_error:.4f} {status}"
            )
        out.append("calibration " + ("PASSED" if self.passed else "FAILED"))
        return out


def cmd_calibrate(profile: ApplicationProfile | None = None) -> CalibrationReport:
    """Report unstressed per-plan latency components; assert the video chain.

    For the builtin video pipeline the size-proportional transmission part
    must match the measured 2.28 / 0.77 / 0.52 / 0.11 s chain within 2%.
    Other profiles are reported without assertions.
    """
    profile = profile or resolve_profile("fd")
    breakdowns = tuple(
        request_latency_breakdown(profile, k) for k in range(profile.n_modules + 1)
    )
    checks: list[CalibrationCheck] = []
    if profile.name == "fd":
        for k, expected in enumerate(FD_TRANSMISSION_CHAIN_S):
            observed = breakdowns[k].transmission_s
            rel = abs(observed - expected) / expected
            checks.append(CalibrationCheck(
                label=f"transmission[fog={k}]", observed=observed, expected=expected,
                rel_error=rel, ok=rel <= CALIBRATION_REL_TOL,
            ))
        for name in ("greyscale", "motion"):
            seconds = next(m.compute_s for m in profile.modules if m.name == name)
            ok = 0.003 <= seconds <= 0.004
            checks.append(CalibrationCheck(
                label=f"compute[{name}]", observed=seconds, expected=0.0035,
                rel_error=abs(seconds - 0.0035) / 0.0035, ok=ok,
            ))
    return CalibrationReport(
        profile_name=profile.name, breakdowns=breakdowns, checks=tuple(checks),
    )


# -- decision latency --------------------------------------------------------

def measure_decision_latency(network, n: int, seed: int = 0):
    """Wall-clock of n greedy decisions on random states; returns (stats, samples_ms)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, "latency-states"))
    states = rng.uniform(0.0, 1.0, size=(n, len(STATE_FACTORS)))
    samples = []
    for row in states:
        t0 = time.perf_counter()
        int(network.forward(row).argmax())
        samples.append((time.perf_counter() - t0) * 1000.0)
    return BoxplotStats.from_samples(samples), samples


def cmd_latency(cfg: ExperimentConfig, checkpoint: str | Path, out_dir: str | Path,
                n: int) -> RunArtifacts:
    """Measure greedy decision overhead and emit the six-column summary."""
    cfg_hash = config_hash(cfg)
    policy = _load_policy(checkpoint, cfg.resolved_profile())
    stats, _samples = measure_decision_latency(
        policy.network, n=n, seed=cfg.master_seed,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "latency.csv"
    _write_csv(
        path, ["min_ms", "q1_ms", "median_ms", "mean_ms", "q3_ms", "max_ms"],
        [stats.as_row()], cfg_hash, cfg.master_seed,
    )
    files = {"latency": path}
    files["run"] = _write_run_json(
        out_dir, "latency", cfg, cfg_hash, files,
        summary={"samples": stats.count, "max_ms": stats.maximum},
    )
    return RunArtifacts(config_hash=cfg_hash, files=files, latency=stats)
