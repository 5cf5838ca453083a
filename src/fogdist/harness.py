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
weights, so only non-learning strategies are accepted.  Costs are computed
once per distinct pricing, and each command's utility summaries come from
one `BoxplotStats.from_rows` call.  Each command
computes all of its results, makes one `_emit` call, which alone creates
the output directory, and returns the one result it computed: `cmd_train`
the learning curve, `cmd_evaluate` the utility summary by approach,
`cmd_sweep` the mean deployment cost by (ratio, approach) and
`cmd_latency` the decision-latency summary.  All simulated outputs are
reproducible byte-for-byte for a given config hash and seed; only the
decision-latency command measures real wall-clock time and is exempt from
that guarantee.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
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
    price_deployment,
    save_checkpoint,
    score_episode,
    simulate_episode,
    train,
)
from .env import STATE_FACTORS, FogEnvironment, request_latency_breakdown
from .model import FOG_PRICE_RATIO_GRID, PricingModel, UtilityWeights
from .profiles import (
    FD_TRANSMISSION_CHAIN_S,
    ApplicationProfile,
    fd_profile,
    read_json_file,
    record_from_dict,
    resolve_profile,
    write_text_atomically,
)
from .seeding import derive_seed

RUN_FORMAT_VERSION = 1
CALIBRATION_REL_TOL = 0.02
FD_STAGES = tuple(m.name for m in fd_profile().modules)   # the stages fd's calibration checks
_FLOAT_MAX = float(np.finfo(np.float64).max)


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

    COLUMNS = ("min", "q1", "median", "mean", "q3", "max")   # the order of `as_row`

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
    def from_rows(cls, rows) -> list["BoxplotStats"]:
        """One summary per row of equal-length sample rows, all from one
        percentile call: each equals the summary of its row alone, bit for bit."""
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise ValueError("need equal-length rows of at least one sample")
        n = arr.shape[1]
        lows, highs = arr.min(axis=1), arr.max(axis=1)
        # numpy's quartiles subtract neighbouring samples and its mean sums
        # them all, and either can overflow on finite samples.  The quartiles
        # of a row whose span would overflow are taken on the halved row and
        # doubled back; the mean of a row whose sum could (a sample beyond
        # max / n) is taken on the row times 2**-s <= 1/n and scaled back.
        # Power-of-two scaling is exact on normal floats, and every other row
        # is worked at scale 1, so it keeps numpy's bits.
        halve = highs * 0.5 - lows * 0.5 > _FLOAT_MAX * 0.5
        q_scale = np.where(halve, 0.5, 1.0)[:, None]
        quartiles = (np.percentile(arr * q_scale, [25.0, 50.0, 75.0], axis=1).T / q_scale).tolist()
        shrink = np.maximum(highs, -lows) > _FLOAT_MAX / n
        m_scale = np.where(shrink, 2.0 ** -(n - 1).bit_length(), 1.0)
        means = ((arr * m_scale[:, None]).mean(axis=1) / m_scale).tolist()
        per_row = zip(lows.tolist(), quartiles, means, highs.tolist())
        # The exact mean lies in [min, max]; the rounded one can miss by an ulp.
        return [
            cls(minimum=minimum, q1=q1, median=median, mean=min(max(mean, minimum), maximum),
                q3=q3, maximum=maximum, count=n)
            for minimum, (q1, median, q3), mean, maximum in per_row
        ]

    @classmethod
    def from_samples(cls, samples) -> "BoxplotStats":
        return cls.from_rows([samples])[0]

    def as_row(self) -> list:
        return [self.minimum, self.q1, self.median, self.mean, self.q3, self.maximum]

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


# -- file emission -----------------------------------------------------------

def _emit(out_dir: str | Path, command: str, cfg: ExperimentConfig, tables: dict,
          summary: dict, checkpoint: tuple[DQNAgent, ApplicationProfile] | None = None) -> None:
    """Create ``out_dir`` and write a command's results there.

    Each table ``name -> (header, rows)`` becomes ``<name>.csv`` under a
    ``# config_hash=... master_seed=...`` line, ``checkpoint`` (an agent and
    its training profile) becomes ``checkpoint.json``, and ``run.json`` lists them.
    """
    cfg_hash = config_hash(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    for name, (header, rows) in tables.items():
        text = io.StringIO()
        text.write(f"# config_hash={cfg_hash} master_seed={cfg.master_seed}\n")
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        files[name] = out_dir / f"{name}.csv"
        write_text_atomically(files[name], text.getvalue())
    if checkpoint is not None:
        agent, profile = checkpoint
        files["checkpoint"] = out_dir / "checkpoint.json"
        save_checkpoint(agent, files["checkpoint"], profile,
                        provenance=Provenance(config_hash=cfg_hash, master_seed=cfg.master_seed,
                                              weights=cfg.weights))
    payload = {
        "format_version": RUN_FORMAT_VERSION,
        "command": command,
        "config_hash": cfg_hash,
        "master_seed": cfg.master_seed,
        "config": asdict(cfg),
        "outputs": {k: p.name for k, p in sorted(files.items())},
        "summary": summary,
    }
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    write_text_atomically(out_dir / "run.json", text)


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
    cell.  Costs do not depend on the weights, so each trajectory is priced
    once per distinct pricing and weighed per cell from those costs.  A
    learning strategy picks actions from its rewards, so its outcomes would
    depend on the cell: it is rejected.
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
        costs_at: dict[PricingModel, list[list[float]]] = {}
        for per_cell, (pricing, weights) in zip(results, cells):
            if pricing not in costs_at:
                costs_at[pricing] = [
                    [price_deployment(o, profile.n_modules, pricing) for o in outcomes]
                    for outcomes in trajectories
                ]
            per_cell[name] = [
                score_episode(outcomes, costs, weights)
                for outcomes, costs in zip(trajectories, costs_at[pricing])
            ]
    return results


def static_strategies(profile: ApplicationProfile) -> dict[str, StaticStrategy]:
    return {f"s{k}": StaticStrategy(k) for k in range(profile.n_modules + 1)}


def mean_deployment_cost(results: list[EpisodeResult]) -> float:
    costs = [rec.cost for episode in results for rec in episode.records]
    return float(np.mean(costs))


def _first_difference(a, b, where: str) -> str | None:
    """``path: a != b`` for the first field, in declaration order, where
    records `a` and `b` differ below ``where``; None if they are equal."""
    if is_dataclass(a) and type(a) is type(b):
        pairs = [(f"{where}.{f.name}", getattr(a, f.name), getattr(b, f.name)) for f in fields(a)]
    elif isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        pairs = [(f"{where}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    elif isinstance(a, tuple) and isinstance(b, tuple):
        return f"{where}: {len(a)} items != {len(b)} items"
    else:
        return None if a == b else f"{where}: {a!r} != {b!r}"
    for path, x, y in pairs:
        found = _first_difference(x, y, path)
        if found is not None:
            return found
    return None


def _load_policy(checkpoint: str | Path, profile: ApplicationProfile) -> GreedyNetworkStrategy:
    """The greedy policy of a checkpoint whose stored profile equals `profile`
    field for field: JSON round-trips every float, so the test is exact."""
    agent, saved = load_checkpoint(checkpoint)
    if saved.profile != profile:
        raise ValueError(
            f"checkpoint {checkpoint} was trained on another profile than the config's, "
            f"first differing at {_first_difference(saved.profile, profile, 'profile')} "
            f"(checkpoint != config); retrain on the config's profile"
        )
    return agent.greedy_strategy()


def _evaluate_against_static(cfg: ExperimentConfig, checkpoint: str | Path | None,
                             cells: list) -> list[dict[str, list[EpisodeResult]]]:
    """`evaluate_strategies` over ``cells`` for every static plan, plus the
    checkpoint's greedy policy as "context-aware" when a checkpoint is given."""
    profile = cfg.resolved_profile()
    strategies: dict[str, object] = dict(static_strategies(profile))
    if checkpoint is not None:
        strategies["context-aware"] = _load_policy(checkpoint, profile)
    return evaluate_strategies(
        profile, strategies, cells,
        experiments=cfg.eval_experiments, master_seed=cfg.master_seed,
        deployments=cfg.deployments_per_episode,
    )


def _reject_repeats(values: list, what: str) -> None:
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{what} {repeated} given more than once")


# -- commands ----------------------------------------------------------------

def cmd_train(cfg: ExperimentConfig, out_dir: str | Path) -> list[float]:
    """Train the learner, emit learning_curve.csv plus a checkpoint; returns the curve."""
    profile = cfg.resolved_profile()
    agent = build_agent(cfg, profile)
    curve = train(
        profile, agent, cfg.resolved_episodes(), cfg.pricing, cfg.weights,
        master_seed=cfg.master_seed, deployments=cfg.deployments_per_episode,
    )
    _emit(
        out_dir, "train", cfg,
        {"learning_curve": (["episode", "utility"], [(i + 1, u) for i, u in enumerate(curve)])},
        summary={
            "episodes": len(curve),
            "first_episode_utility": curve[0],
            "last_episode_utility": curve[-1],
            "epsilon_final": agent.epsilon,
        },
        checkpoint=(agent, profile),
    )
    return curve


def cmd_evaluate(cfg: ExperimentConfig, checkpoint: str | Path,
                 out_dir: str | Path) -> dict[str, BoxplotStats]:
    """Compare the trained policy with every static plan on shared experiments;
    returns the utility summary by approach."""
    [results] = _evaluate_against_static(cfg, checkpoint, [(cfg.pricing, cfg.weights)])
    utilities = {name: [ep.utility for ep in episodes] for name, episodes in results.items()}
    boxplots = dict(zip(utilities, BoxplotStats.from_rows(list(utilities.values()))))
    tables = {
        f"utilities_{name}": (["experiment", "utility"], list(enumerate(u)))
        for name, u in utilities.items()
    }
    tables["boxplots"] = (
        ["approach", "count", *BoxplotStats.COLUMNS],
        [[name, stats.count, *stats.as_row()] for name, stats in sorted(boxplots.items())],
    )
    _emit(
        out_dir, "evaluate", cfg, tables,
        summary={name: stats.median for name, stats in sorted(boxplots.items())},
    )
    return boxplots


def cmd_sweep(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    ratio_grid=FOG_PRICE_RATIO_GRID,
    weight_grid=None,
    checkpoint: str | Path | None = None,
) -> dict[tuple[float, str], float]:
    """Cross a fog-price grid with a weight grid; summarise utilities and costs.

    Static plans are always included; the trained policy joins the grid when
    a checkpoint is given.  Returns the mean deployment cost by (ratio, approach).
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
    per_cell = _evaluate_against_static(cfg, checkpoint, cells)
    labels = [
        (pricing.fog_price_ratio, weights.qos_weight, weights.cost_weight, name)
        for (pricing, weights), results in zip(cells, per_cell) for name in results
    ]
    summaries = BoxplotStats.from_rows([
        [ep.utility for ep in episodes] for results in per_cell for episodes in results.values()
    ])
    cell_rows = [[*label, stats.count, *stats.as_row()] for label, stats in zip(labels, summaries)]
    # Deployment cost does not depend on the weights, so the first cell at
    # each ratio gives that ratio's costs.
    mean_costs = {
        (ratio, name): mean_deployment_cost(episodes)
        for ratio, results in zip(ratios, per_cell[::len(weight_grid)])
        for name, episodes in results.items()
    }
    cells_header = ["fog_price_ratio", "qos_weight", "cost_weight", "approach", "count",
                    *BoxplotStats.COLUMNS]
    cost_rows = [[ratio, name, cost] for (ratio, name), cost in mean_costs.items()]
    _emit(out_dir, "sweep", cfg, {
        "sweep_cells": (cells_header, cell_rows),
        "costs_vs_lambda": (["fog_price_ratio", "approach", "mean_deployment_cost"], cost_rows),
    }, summary={"cells": len(cells), "ratios": ratios})
    return mean_costs


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
    profile: ApplicationProfile
    breakdowns: tuple           # plan k's breakdown at index k
    checks: tuple[CalibrationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"profile: {self.profile.name}"]
        for k, b in enumerate(self.breakdowns):
            seconds = zip(self.profile.modules, b.fog_s + b.cloud_s)
            module_text = ", ".join(f"{m.name}={s:.6f}s" for m, s in seconds)
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
    A profile named "fd" with other stages fails one check that names them.
    Other profiles are reported without assertions.
    """
    profile = profile or resolve_profile("fd")
    breakdowns = tuple(
        request_latency_breakdown(profile, k) for k in range(profile.n_modules + 1)
    )
    checks: list[CalibrationCheck] = []
    stages = tuple(m.name for m in profile.modules)
    if profile.name == "fd" and stages != FD_STAGES:
        matching = sum(a == b for a, b in zip(stages, FD_STAGES))
        checks.append(CalibrationCheck(
            label=f"stages[{', '.join(stages)}] are {', '.join(FD_STAGES)}",
            observed=float(matching), expected=float(len(FD_STAGES)),
            rel_error=1.0 - matching / len(FD_STAGES), ok=False,
        ))
    elif profile.name == "fd":
        for k, expected in enumerate(FD_TRANSMISSION_CHAIN_S):
            observed = breakdowns[k].transmission_s
            rel = abs(observed - expected) / expected
            checks.append(CalibrationCheck(
                label=f"transmission[fog={k}]", observed=observed, expected=expected,
                rel_error=rel, ok=rel <= CALIBRATION_REL_TOL,
            ))
        for module in profile.modules[:2]:          # greyscale and motion
            seconds = module.compute_s
            ok = 0.003 <= seconds <= 0.004
            checks.append(CalibrationCheck(
                label=f"compute[{module.name}]", observed=seconds, expected=0.0035,
                rel_error=abs(seconds - 0.0035) / 0.0035, ok=ok,
            ))
    return CalibrationReport(
        profile=profile, breakdowns=breakdowns, checks=tuple(checks),
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
                n: int) -> BoxplotStats:
    """Measure greedy decision overhead, emit the six-column summary and return it."""
    policy = _load_policy(checkpoint, cfg.resolved_profile())
    stats, _samples = measure_decision_latency(
        policy.network, n=n, seed=cfg.master_seed,
    )
    _emit(
        out_dir, "latency", cfg,
        {"latency": ([f"{column}_ms" for column in BoxplotStats.COLUMNS], [stats.as_row()])},
        summary={"samples": stats.count, "max_ms": stats.maximum},
    )
    return stats
