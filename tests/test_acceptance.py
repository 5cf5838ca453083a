"""Acceptance gate: one test per shipping criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The learning criteria train real agents, so this file takes a few
tens of seconds; everything is seeded and deterministic except the
wall-clock criterion (09), which measures this machine.
"""
import dataclasses
import time

import numpy as np
import pytest

from fogdist.agent import DQNAgent, price_deployment, score_episode, train
from fogdist.env import request_latency_breakdown
from fogdist.harness import (
    FD_TRANSMISSION_CHAIN_S,
    build_agent,
    cmd_calibrate,
    cmd_evaluate,
    cmd_train,
    config_from_dict,
    evaluate_strategies,
    measure_decision_latency,
    static_strategies,
)
from fogdist.model import (
    FOG_PRICE_RATIO_GRID,
    PricingModel,
    ResourceUsage,
    cloud_cost,
    deployment_cost,
    fog_cost,
)
from fogdist.nn import QNetwork
from fogdist.profiles import fd_profile, heavy_profile
from gradcheck import numeric_gradients, step_gradients

MASTER_SEED = 2026


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- trained fixtures (shared across criteria) --------------------------------

@pytest.fixture(scope="module")
def fd_hybrid_training():
    """300 hybrid episodes on the video pipeline, with wall-clock."""
    cfg = config_from_dict({"episodes": 300, "master_seed": MASTER_SEED})
    agent = build_agent(cfg, fd_profile())
    t0 = time.perf_counter()
    curve = train(fd_profile(), agent, cfg.resolved_episodes(), cfg.pricing,
                  cfg.weights, master_seed=cfg.master_seed)
    return curve, time.perf_counter() - t0, agent


@pytest.fixture(scope="module")
def fd_default_agent():
    """The full default training run used for evaluation criteria."""
    cfg = config_from_dict({"master_seed": MASTER_SEED})
    agent = build_agent(cfg, fd_profile())
    train(fd_profile(), agent, cfg.resolved_episodes(), cfg.pricing, cfg.weights,
          master_seed=cfg.master_seed)
    return agent


@pytest.fixture(scope="module")
def heavy_cost_only_agent():
    """Cost-only training at price parity on the cloud-favouring profile."""
    profile = heavy_profile()
    cfg = config_from_dict({
        "profile": "heavy",
        "episodes": 300,
        "master_seed": MASTER_SEED,
        "pricing": {"fog_price_ratio": 1.0},
        "weights": {"qos_weight": 0.0, "cost_weight": -1.0},
    })
    agent = build_agent(cfg, profile)
    train(profile, agent, cfg.resolved_episodes(), cfg.pricing, cfg.weights,
          master_seed=cfg.master_seed)
    return agent, cfg


# -- criteria -----------------------------------------------------------------

def test_01_cost_model_exactness():
    pricing = PricingModel(fog_price_ratio=0.1)
    usage = ResourceUsage(cpu_units=1.0, mem_gb=0.5, storage_gb=0.2)
    hours = 2.0
    expected_cloud = 0.0264          # 0.0132 * 2
    expected_fog = 0.00869308        # 0.1 * (0.04073 + 0.002729 + 0.0000064) * 2
    expected_split = 0.03509308      # both tiers billed on a partial plan
    checks = [
        abs(cloud_cost(pricing, hours) - expected_cloud) <= 1e-12 * expected_cloud,
        abs(fog_cost(pricing, usage, hours) - expected_fog) <= 1e-12 * expected_fog,
        abs(deployment_cost(0, 3, pricing, usage, hours) - expected_cloud)
        <= 1e-12 * expected_cloud,
        abs(deployment_cost(3, 3, pricing, usage, hours) - expected_fog)
        <= 1e-12 * expected_fog,
        abs(deployment_cost(1, 3, pricing, usage, hours) - expected_split)
        <= 1e-12 * expected_split,
    ]
    report(1, "cost model matches hand-computed values at 1e-12", all(checks),
           f"cloud={cloud_cost(pricing, hours):.10f} fog={fog_cost(pricing, usage, hours):.10f}")


def test_02_gradient_check():
    arch = (5, 8, 8, 4)
    rng = np.random.default_rng(12345)
    worst = 0.0
    for case in range(100):
        net = QNetwork.initialize(arch, seed=case)
        x = rng.uniform(0.0, 1.0, size=5)
        action = int(rng.integers(0, 4))
        target = float(rng.normal())
        num_w, num_b = numeric_gradients(net, x, action, target)
        grad_w, grad_b = step_gradients(net, x, action, target)
        for analytic, numeric in zip(grad_w + grad_b, num_w + num_b):
            scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    report(2, "the SGD step's gradients match finite differences on 100 cases",
           worst < 1e-4, f"max rel err {worst:.3e}")


def test_03_video_pipeline_calibration():
    calibration = cmd_calibrate(fd_profile())
    profile = fd_profile()
    rel_errors = []
    within = []
    for k, expected in enumerate(FD_TRANSMISSION_CHAIN_S):
        observed = request_latency_breakdown(profile, k).transmission_s
        rel = abs(observed - expected) / expected
        rel_errors.append(rel)
        within.append(rel <= 0.02)
    stage_times = {m.name: m.compute_s for m in profile.modules}
    stages_ok = (0.003 <= stage_times["greyscale"] <= 0.004
                 and 0.003 <= stage_times["motion"] <= 0.004)
    ok = all(within) and stages_ok and calibration.passed
    report(3, "transmission chain within 2% and stage times in range", ok,
           "rel errs " + ", ".join(f"{r:.4f}" for r in rel_errors))


def test_04_exploration_schedule_closed_form():
    agent = DQNAgent(n_actions=4)
    exact = all(
        (agent.decay_exploration() or True) and agent.epsilon == max(0.01, 0.99 ** min(t, 459))
        for t in range(1, 601)
    )
    floor_at = agent.decays_done
    report(4, "exploration rate equals max(0.01, 0.99^t); floor after 459 decays",
           exact and floor_at == 459 and agent.epsilon == 0.01,
           f"decays_done={floor_at}")


def test_05_learning_improvement(fd_hybrid_training):
    curve, elapsed, _ = fd_hybrid_training
    first = float(np.mean(curve[:30]))
    last = float(np.mean(curve[-30:]))
    spread = max(curve) - min(curve)
    improvement = last - first
    ok = improvement > 0 and improvement >= 0.10 * spread and elapsed < 600
    report(5, "300 training episodes improve utility by >= 10% of range", ok,
           f"first30={first:.3f} last30={last:.3f} range={spread:.3f} "
           f"improvement={improvement:.3f} elapsed={elapsed:.1f}s")


def test_06_trained_policy_matches_best_static(fd_default_agent):
    cfg = config_from_dict({"master_seed": MASTER_SEED})
    profile = fd_profile()
    strategies = dict(static_strategies(profile))
    strategies["context-aware"] = fd_default_agent.greedy_strategy()
    outcomes = evaluate_strategies(
        profile, strategies, experiments=100, master_seed=MASTER_SEED,
        deployments=cfg.deployments_per_episode,
    )
    utilities = {
        name: [score_episode(episode,
                             [price_deployment(o, profile.n_modules, cfg.pricing) for o in episode],
                             cfg.weights)
               for episode in episodes]
        for name, episodes in outcomes.items()
    }
    medians = {name: float(np.median(u)) for name, u in utilities.items()}
    best_static = max((n for n in medians if n != "context-aware"), key=medians.get)
    best_samples = utilities[best_static]
    iqr = float(np.percentile(best_samples, 75) - np.percentile(best_samples, 25))
    threshold = medians[best_static] - 0.05 * iqr
    ok = medians["context-aware"] >= threshold
    report(6, "greedy policy median is at least the best static approach's", ok,
           f"context-aware={medians['context-aware']:.4f} "
           f"best static {best_static}={medians[best_static]:.4f} iqr={iqr:.4f}")


def test_07_price_parity_sends_everything_to_the_cloud(heavy_cost_only_agent):
    agent, cfg = heavy_cost_only_agent
    profile = heavy_profile()
    outcomes = evaluate_strategies(
        profile, {"context-aware": agent.greedy_strategy()},
        experiments=100, master_seed=MASTER_SEED, deployments=cfg.deployments_per_episode,
    )
    picks = [o.fog_modules for episode in outcomes["context-aware"] for o in episode]
    share = picks.count(0) / len(picks)
    ok = len(picks) == 2000 and share >= 0.95
    report(7, "cost-only policy picks the cloud plan when fog is never cheaper",
           ok, f"{picks.count(0)}/{len(picks)} decisions chose k=0")


def test_08_fog_cost_rises_with_the_price_ratio():
    profile = fd_profile()
    cfg = config_from_dict({"master_seed": MASTER_SEED})
    fog_only = f"s{profile.n_modules}"
    outcomes = evaluate_strategies(
        profile, static_strategies(profile), experiments=20, master_seed=MASTER_SEED,
        deployments=cfg.deployments_per_episode,
    )
    means = {}
    for ratio in FOG_PRICE_RATIO_GRID:
        pricing = dataclasses.replace(cfg.pricing, fog_price_ratio=ratio)
        means[ratio] = {
            name: float(np.mean([price_deployment(o, profile.n_modules, pricing)
                                 for episode in episodes for o in episode]))
            for name, episodes in outcomes.items()
        }
    fog_costs = [means[r][fog_only] for r in FOG_PRICE_RATIO_GRID]
    increasing = all(a < b for a, b in zip(fog_costs, fog_costs[1:]))
    cheapest_ratio = FOG_PRICE_RATIO_GRID[0]
    fog_beats_cloud = all(
        means[cheapest_ratio][f"s{k}"] < means[cheapest_ratio]["s0"]
        for k in range(1, profile.n_modules + 1)
    )
    report(8, "fog-only cost strictly increases with the price ratio",
           increasing and fog_beats_cloud,
           "fog-only means " + ", ".join(f"{c:.3e}" for c in fog_costs))


def test_09_decision_overhead(fd_default_agent):
    stats, _ = measure_decision_latency(fd_default_agent.network, n=10_000,
                                        seed=MASTER_SEED)
    ok = stats.maximum < 248.0 and stats.count == 10_000
    row = stats.as_row()
    report(9, "10,000 greedy decisions all complete below 248 ms", ok,
           "min/q1/median/mean/q3/max ms = " + "/".join(f"{v:.4f}" for v in row))


def test_10_byte_identical_reruns(tmp_path):
    cfg = config_from_dict({"episodes": 15, "eval_experiments": 15,
                            "master_seed": MASTER_SEED})
    cmd_train(cfg, tmp_path / "t1")
    cmd_train(cfg, tmp_path / "t2")
    trained = tmp_path / "t1" / "checkpoint.json"
    cmd_evaluate(cfg, trained, tmp_path / "e1")
    cmd_evaluate(cfg, trained, tmp_path / "e2")
    same = [
        (tmp_path / "t1" / "learning_curve.csv").read_bytes()
        == (tmp_path / "t2" / "learning_curve.csv").read_bytes(),
        (tmp_path / "t1" / "checkpoint.json").read_bytes()
        == (tmp_path / "t2" / "checkpoint.json").read_bytes(),
    ]
    for path in sorted((tmp_path / "e1").glob("*.csv")):
        same.append(path.read_bytes() == (tmp_path / "e2" / path.name).read_bytes())
    report(10, "same master seed reproduces every CSV byte for byte", all(same),
           f"{len(same)} files compared")
