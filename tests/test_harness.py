"""Harness tests: config parsing, summaries, command outputs, CLI exit codes."""
import dataclasses
import hashlib
import json
import math
import random
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fogdist import harness
from fogdist.agent import (
    AgentConfig,
    DQNAgent,
    GreedyNetworkStrategy,
    Provenance,
    StaticStrategy,
    layer_sizes,
    load_checkpoint,
    save_checkpoint,
    score_deployment,
    simulate_episode,
    train,
)
from fogdist.cli import EXIT_CALIBRATION, EXIT_OK, EXIT_VALIDATION, main
from fogdist.env import STATE_FACTORS, FogEnvironment
from fogdist.harness import (
    BoxplotStats,
    ExperimentConfig,
    cmd_calibrate,
    cmd_evaluate,
    cmd_latency,
    cmd_sweep,
    cmd_train,
    config_from_dict,
    config_hash,
    build_agent,
    evaluate_strategies,
    load_config,
    measure_decision_latency,
    static_strategies,
)
from fogdist.model import PricingModel, ResourceUsage, UtilityWeights
from fogdist.nn import QNetwork
from fogdist.profiles import fd_profile, heavy_profile, ipokemon_profile
from fogdist.seeding import derive_seed
from strategies import profile_to_dict


def small_config(**overrides) -> ExperimentConfig:
    base = dict(episodes=3, eval_experiments=4, master_seed=99)
    base.update(overrides)
    return dataclasses.replace(config_from_dict({}), **base)


# -- configuration ------------------------------------------------------------

def test_empty_config_gives_defaults():
    cfg = config_from_dict({})
    assert cfg.profile == "fd"
    assert cfg.master_seed == 2026
    assert cfg.pricing == PricingModel()
    assert cfg.weights == UtilityWeights(-1.0, -1.0)
    assert cfg.agent.discount == 0.95
    assert cfg.agent.batch_size == 5
    assert cfg.agent.epsilon_decay == 0.99
    assert cfg.resolved_episodes() == 600
    assert cfg.eval_experiments == 100


def test_episode_default_depends_on_profile():
    assert config_from_dict({"profile": "ipokemon"}).resolved_episodes() == 400
    assert config_from_dict({"episodes": 42}).resolved_episodes() == 42


def test_config_sections_parse():
    cfg = config_from_dict({
        "profile": "ipokemon",
        "pricing": {"fog_price_ratio": 0.1},
        "weights": {"qos_weight": 0.0, "cost_weight": -2.0},
        "agent": {"learning_rate": 0.005, "epsilon_decay": 0.95},
        "master_seed": 7,
    })
    assert cfg.pricing.fog_price_ratio == 0.1
    assert cfg.pricing.vm_hourly == PricingModel().vm_hourly
    assert cfg.weights.cost_weight == -2.0
    assert cfg.agent.learning_rate == 0.005
    assert cfg.agent.epsilon_decay == 0.95


def test_config_rejects_zero_weights():
    with pytest.raises(ValueError, match="weights"):
        config_from_dict({"weights": {"qos_weight": 0.0, "cost_weight": 0.0}})


def test_config_rejects_unknown_keys_with_paths():
    with pytest.raises(ValueError, match="config: unknown key"):
        config_from_dict({"profiles": "fd"})
    with pytest.raises(ValueError, match="config.pricing"):
        config_from_dict({"pricing": {"vm": 1.0}})
    with pytest.raises(ValueError, match="config.agent"):
        config_from_dict({"agent": {"gamma": 0.9}})
    with pytest.raises(ValueError, match="config.weights"):
        config_from_dict({"weights": {"alpha": -1.0}})


def test_load_config_errors(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_config(bad)


def test_config_hash_tracks_content():
    assert config_hash(config_from_dict({})) == config_hash(config_from_dict({}))
    assert config_hash(config_from_dict({})) != config_hash(config_from_dict({"master_seed": 1}))
    assert len(config_hash(config_from_dict({}))) == 12
    # Output files carry this hash: the default config's must not drift.
    assert config_hash(config_from_dict({})) == "cb76a3f8cc1e"


@st.composite
def experiment_configs(draw):
    """Valid configs with every field drawn."""
    price = st.floats(0.0, 1.0)
    weight = st.floats(-5.0, 0.0)
    qos, cost = draw(weight), draw(weight)
    assume(qos != 0 or cost != 0)
    floor = draw(st.floats(0.0, 1.0))
    return ExperimentConfig(
        profile=draw(st.sampled_from(["fd", "ipokemon", "heavy"])),
        pricing=PricingModel(draw(price), draw(price), draw(price), draw(price),
                             draw(st.floats(1e-6, 10.0))),
        weights=UtilityWeights(qos, cost),
        deployments_per_episode=draw(st.integers(1, 100)),
        episodes=draw(st.none() | st.integers(1, 1000)),
        eval_experiments=draw(st.integers(1, 1000)),
        master_seed=draw(st.integers(0, 2**32)),
        agent=AgentConfig(
            discount=draw(st.floats(0.0, 0.999)),
            batch_size=draw(st.integers(1, 64)),
            learning_rate=draw(st.floats(1e-6, 1.0)),
            replay_capacity=draw(st.integers(1, 10_000)),
            hidden_layers=draw(st.integers(1, 4)),
            hidden_width=draw(st.integers(1, 64)),
            epsilon_start=draw(st.floats(floor, 1.0)), epsilon_floor=floor,
            epsilon_decay=draw(st.floats(0.01, 0.999)),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=experiment_configs())
def test_config_round_trips_through_its_json_form(cfg):
    data = dataclasses.asdict(cfg)
    assert config_from_dict(data) == cfg
    assert config_from_dict(json.loads(json.dumps(data))) == cfg


def test_config_values_are_kept_exactly_as_given():
    cfg = config_from_dict({"pricing": {"vm_hourly": 0}})
    assert cfg.pricing.vm_hourly == 0 and type(cfg.pricing.vm_hourly) is int
    # so an integer-valued price hashes as it always did
    assert config_hash(cfg) == "1b3669c311d2"


def test_config_errors_name_the_path_of_the_bad_value():
    with pytest.raises(ValueError, match=r"^config: unknown key\(s\) \['schedule'\]"):
        config_from_dict({"schedule": {"start": 1.0}})
    with pytest.raises(ValueError, match=r"^config.agent: unknown key\(s\) \['epsilon_decays_done'\]"):
        config_from_dict({"agent": {"epsilon_decays_done": 3}})
    with pytest.raises(ValueError, match="^config.agent: expected an object, got 5"):
        config_from_dict({"agent": 5})
    with pytest.raises(ValueError, match="^config.agent: need 0 <= epsilon_floor <= epsilon_start"):
        config_from_dict({"agent": {"epsilon_start": 0.5, "epsilon_floor": 0.6}})
    with pytest.raises(ValueError, match="^config.agent: hidden_width must be >= 1$"):
        config_from_dict({"agent": {"hidden_width": 0}})
    with pytest.raises(ValueError, match="^config: episodes: must be >= 1"):
        config_from_dict({"episodes": 0})


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        small_config(deployments_per_episode=0)
    with pytest.raises(ValueError):
        small_config(eval_experiments=0)


# -- summary statistics -------------------------------------------------------

def test_boxplot_quartiles_linear_interpolation():
    stats = BoxplotStats.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum) == (1, 2, 3, 4, 5)
    assert stats.mean == 3.0
    assert stats.iqr == 2.0
    assert stats.count == 5
    # even count interpolates between the middle pair
    assert BoxplotStats.from_samples([1.0, 2.0, 3.0, 4.0]).median == 2.5


def test_boxplot_single_sample():
    stats = BoxplotStats.from_samples([7.5])
    assert stats.as_row() == [7.5] * 6
    assert stats.count == 1


_FLOAT_MAX = float(np.finfo(np.float64).max)
_FINITE = st.floats(-_FLOAT_MAX, _FLOAT_MAX)


@pytest.mark.parametrize("samples, row", [
    ([-1e308, 1e308], [-1e308, -5e307, 0.0, 0.0, 5e307, 1e308]),
    ([-_FLOAT_MAX, _FLOAT_MAX], [-_FLOAT_MAX, -_FLOAT_MAX / 2, 0.0, 0.0, _FLOAT_MAX / 2, _FLOAT_MAX]),
    ([_FLOAT_MAX] * 3, [_FLOAT_MAX] * 6),
    ([_FLOAT_MAX, _FLOAT_MAX, -_FLOAT_MAX, -_FLOAT_MAX],
     [-_FLOAT_MAX, -_FLOAT_MAX, 0.0, 0.0, _FLOAT_MAX, _FLOAT_MAX]),
    ([1e308, 1e308, -1e308], [-1e308, 0.0, 1e308, 1e308 / 3, 1e308, 1e308]),
])
def test_boxplot_summarises_samples_whose_span_or_sum_passes_the_float_range(samples, row):
    """numpy's quartile spans and mean sum would overflow on these."""
    assert BoxplotStats.from_samples(samples).as_row() == row


@settings(max_examples=300, deadline=None)
@example(samples=[-0.0006081010000000004] * 6)
@given(samples=st.lists(_FINITE, min_size=1, max_size=50)
       | st.builds(lambda x, n: [x] * n, _FINITE, st.integers(1, 50)))
def test_boxplot_stats_summarise_any_finite_samples(samples):
    """Equal values included: their rounded mean can land an ulp outside [min, max]."""
    stats = BoxplotStats.from_samples(samples)
    assert stats.minimum <= stats.mean <= stats.maximum
    assert stats.count == len(samples)


def _summary_of_one_row(row) -> list[float]:
    """The oracle for `from_rows`: one row summarised alone, as `as_row` orders
    it, by numpy on the row itself unless that would pass the float range:
    then the quartiles are the halved row's doubled, and the mean is that of
    the row times 2**-s (2**s >= the row's length) scaled back."""
    arr = np.asarray(row, dtype=np.float64)
    minimum, maximum = float(arr.min()), float(arr.max())
    q_scale = 0.5 if maximum / 2 - minimum / 2 > _FLOAT_MAX / 2 else 1.0
    q1, median, q3 = np.percentile(arr * q_scale, [25.0, 50.0, 75.0]) / q_scale
    m_scale = 1.0
    if max(maximum, -minimum) > _FLOAT_MAX / len(arr):     # the sum could overflow
        while m_scale * len(arr) > 1:
            m_scale /= 2
    mean = min(max(float((arr * m_scale).mean()) / m_scale, minimum), maximum)
    return [minimum, float(q1), float(median), mean, float(q3), maximum]


def _matrices(width):
    row = st.lists(_FINITE, min_size=width, max_size=width) \
        | st.builds(lambda x: [x] * width, _FINITE) \
        | st.lists(st.sampled_from([-1.5, 0.0, 2.0]), min_size=width, max_size=width)
    return st.lists(row, min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@example(matrix=[[-0.0006081010000000004] * 6])
@given(matrix=st.integers(1, 300).flatmap(_matrices))
def test_boxplot_rows_equal_each_row_summarised_alone(matrix):
    """Bit for bit, repeated values and rows longer than numpy's pairwise-sum
    block of 128 included."""
    summaries = BoxplotStats.from_rows(matrix)
    assert len(summaries) == len(matrix)
    for row, stats in zip(matrix, summaries):
        assert stats.count == len(row)
        assert np.array(stats.as_row()).tobytes() == np.array(_summary_of_one_row(row)).tobytes()


def test_boxplot_validation():
    with pytest.raises(ValueError):
        BoxplotStats.from_samples([])
    with pytest.raises(ValueError):
        BoxplotStats.from_rows([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError, match="equal-length rows"):
        BoxplotStats.from_rows([])
    with pytest.raises(ValueError):
        BoxplotStats(minimum=0, q1=2, median=1, mean=1, q3=3, maximum=4, count=4)
    with pytest.raises(ValueError):
        BoxplotStats(minimum=0, q1=1, median=2, mean=9, q3=3, maximum=4, count=4)


# -- shared experiment seeds --------------------------------------------------

def test_same_plan_sees_identical_experiments_regardless_of_mix():
    profile = fd_profile()
    cfg = small_config()
    [alone] = evaluate_strategies(
        profile, {"s0": StaticStrategy(0)}, [(cfg.pricing, cfg.weights)],
        experiments=3, master_seed=5,
    )
    [mixed] = evaluate_strategies(
        profile, {"s2": StaticStrategy(2), "s0": StaticStrategy(0)},
        [(cfg.pricing, cfg.weights)], experiments=3, master_seed=5,
    )
    assert [e.utility for e in alone["s0"]] == [e.utility for e in mixed["s0"]]


def _non_learning_strategies(profile):
    net = QNetwork.initialize(layer_sizes(profile.n_modules + 1, AgentConfig()), seed=0)
    return {**static_strategies(profile), "context-aware": GreedyNetworkStrategy(net)}


@settings(max_examples=15, deadline=None)
@given(
    ratio=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
    qos_weight=st.floats(min_value=-5.0, max_value=0.0),
    cost_weight=st.floats(min_value=-5.0, max_value=0.0),
    master_seed=st.integers(min_value=0, max_value=2**32),
)
def test_outcomes_do_not_depend_on_the_cell_and_shared_scoring_is_exact(
    ratio, qos_weight, cost_weight, master_seed,
):
    """The last two cells share one pricing, so their costs are computed once
    and weighed twice; every record still equals its own `score_deployment`."""
    assume(qos_weight != 0 or cost_weight != 0)
    profile = fd_profile()
    pricing = PricingModel(fog_price_ratio=ratio)
    cells = [(PricingModel(), UtilityWeights()),
             (pricing, UtilityWeights(qos_weight, cost_weight)),
             (pricing, UtilityWeights(qos_weight - 1.0, cost_weight))]
    strategies = _non_learning_strategies(profile)
    experiments, deployments = 2, 6
    shared = evaluate_strategies(
        profile, strategies, cells, experiments=experiments,
        master_seed=master_seed, deployments=deployments,
    )

    def separate_run(name, index, pricing, weights):
        env = FogEnvironment(profile, seed=derive_seed(master_seed, "eval-experiment", index))
        rng = random.Random(derive_seed(master_seed, "eval-actions", name, index))
        outcomes = simulate_episode(env, strategies[name], rng, deployments=deployments)
        return [score_deployment(o, profile.n_modules, pricing, weights) for o in outcomes]

    for name in strategies:
        for index in range(experiments):
            separate = [separate_run(name, index, *cell) for cell in cells]
            for alone, per_cell in zip(separate, shared):
                assert [r.outcome for r in alone] == [r.outcome for r in separate[0]]
                scored = per_cell[name][index]
                assert list(scored.records) == alone
                assert scored.utility == math.fsum(r.utility for r in alone)


def test_evaluate_strategies_rejects_learners_and_an_empty_grid():
    profile = fd_profile()
    cells = [(PricingModel(), UtilityWeights())]
    learner = DQNAgent(n_actions=profile.n_modules + 1)
    with pytest.raises(ValueError, match=r"learning strategies \['context-aware'\]"):
        evaluate_strategies(profile, {"s0": StaticStrategy(0), "context-aware": learner},
                            cells, experiments=1, master_seed=0)
    with pytest.raises(ValueError, match="at least one"):
        evaluate_strategies(profile, static_strategies(profile), [], experiments=1,
                            master_seed=0)


def test_static_strategies_cover_every_plan():
    names = list(static_strategies(fd_profile()))
    assert names == ["s0", "s1", "s2", "s3"]


# -- commands -----------------------------------------------------------------

def test_cmd_train_outputs(tmp_path):
    cfg = small_config()
    assert len(cmd_train(cfg, tmp_path)) == 3
    curve = (tmp_path / "learning_curve.csv").read_text().splitlines()
    assert curve[0] == f"# config_hash={config_hash(cfg)} master_seed=99"
    assert curve[1] == "episode,utility"
    assert len(curve) == 5
    assert curve[2].startswith("1,")
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["command"] == "train"
    assert run["config_hash"] == config_hash(cfg)
    assert "timestamp" not in json.dumps(run)
    assert (tmp_path / "checkpoint.json").exists()


def test_train_checkpoint_is_format_6_with_the_weights_in_provenance(tmp_path):
    cfg = small_config(weights=UtilityWeights(qos_weight=0.0, cost_weight=-2.0))
    cmd_train(cfg, tmp_path)
    data = json.loads((tmp_path / "checkpoint.json").read_text())
    assert data["format_version"] == 6
    assert "target_network" not in data and "schedule" not in data
    assert "profile_name" not in data and "n_actions" not in data
    assert data["profile"] == json.loads(json.dumps(dataclasses.asdict(fd_profile())))
    assert data["config"] == dataclasses.asdict(cfg.agent)     # epsilon_* included
    assert type(data["decays_done"]) is int and data["decays_done"] > 0
    assert set(data["network"]) == {"weights", "biases"}
    assert data["provenance"] == {
        "config_hash": config_hash(cfg), "master_seed": 99,
        "weights": {"qos_weight": 0.0, "cost_weight": -2.0},
    }


def test_cmd_train_is_byte_deterministic(tmp_path):
    cfg = small_config()
    cmd_train(cfg, tmp_path / "a")
    cmd_train(cfg, tmp_path / "b")
    for name in ("learning_curve.csv", "checkpoint.json", "run.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of [curve, weights, biases, decays_done] after training at seed 2026.
TRAINING_DIGESTS = {
    ("fd", 40): "1ca09b0d1cd1a252b8529b8901a17429c30624080d6c3f2a2ce8ece6bada5c23",
    ("ipokemon", 20): "e878fa6165065042e94a373f9ed194973b6f70242886a2de7077fc8e222fdb9d",
    ("heavy", 20): "4dd0d7440ffe330e438f9abab7b54b82e7c35dacb4a2f1dd56653224a91bfcff",
}


@pytest.mark.parametrize("profile, episodes", TRAINING_DIGESTS, ids=[p for p, _ in TRAINING_DIGESTS])
def test_training_is_pinned_to_the_bit(profile, episodes):
    """Training through `build_agent` gives the same curve, network and decay count."""
    cfg = config_from_dict({"profile": profile, "master_seed": 2026})
    agent = build_agent(cfg, cfg.resolved_profile())
    curve = train(cfg.resolved_profile(), agent, episodes, cfg.pricing, cfg.weights,
                  master_seed=cfg.master_seed, deployments=cfg.deployments_per_episode)
    blob = json.dumps([
        curve, [w.tolist() for w in agent.network.weights],
        [b.tolist() for b in agent.network.biases], agent.decays_done,
    ])
    assert hashlib.sha256(blob.encode()).hexdigest() == TRAINING_DIGESTS[profile, episodes]


# sha256 of checkpoint.json then run.json, byte for byte, after a 20-episode
# default train on fd at seed 2026: the files' layout as well as their values.
TRAIN_FILES_DIGEST = "5578bd0c8bbc9df4ea6ea14a95c17d40c66a7415a86ce5a4cd0834127805ce4c"


def test_train_files_are_pinned_to_the_byte(tmp_path):
    cfg = config_from_dict({"profile": "fd", "master_seed": 2026, "episodes": 20})
    cmd_train(cfg, tmp_path)
    digest = hashlib.sha256()
    for name in ("checkpoint.json", "run.json"):
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == TRAIN_FILES_DIGEST


# sha256 of utilities_context-aware.csv, config-hash line left out, after a
# short train + evaluate on fd at seed 2026: the greedy policy's bytes.
GREEDY_EVALUATION_DIGEST = "a439eb5559383ad7248ed7ce2bf238b6fe1b0ee1733764619df3a91ffeaeae66"


def test_greedy_evaluation_is_pinned_to_the_bit(tmp_path):
    cfg = config_from_dict({"profile": "fd", "master_seed": 2026, "episodes": 30,
                            "eval_experiments": 20})
    cmd_train(cfg, tmp_path / "train")
    cmd_evaluate(cfg, tmp_path / "train" / "checkpoint.json", tmp_path / "eval")
    text = (tmp_path / "eval" / "utilities_context-aware.csv").read_text()
    _hash_line, rows = text.split("\n", 1)
    assert hashlib.sha256(rows.encode()).hexdigest() == GREEDY_EVALUATION_DIGEST


def test_cmd_evaluate_outputs(tmp_path):
    cfg = small_config()
    cmd_train(cfg, tmp_path / "train")
    boxplots = cmd_evaluate(cfg, tmp_path / "train" / "checkpoint.json", tmp_path / "eval")
    assert set(boxplots) == {"s0", "s1", "s2", "s3", "context-aware"}
    for name in boxplots:
        lines = (tmp_path / "eval" / f"utilities_{name}.csv").read_text().splitlines()
        assert lines[1] == "experiment,utility"
        assert len(lines) == 2 + cfg.eval_experiments
    box_lines = (tmp_path / "eval" / "boxplots.csv").read_text().splitlines()
    assert box_lines[1] == "approach,count,min,q1,median,mean,q3,max"
    assert len(box_lines) == 2 + 5


def test_cmd_evaluate_rejects_mismatched_checkpoint(tmp_path):
    cfg = small_config()
    cmd_train(cfg, tmp_path / "train")
    other = dataclasses.replace(cfg, profile="ipokemon")
    with pytest.raises(ValueError, match="checkpoint"):
        cmd_evaluate(other, tmp_path / "train" / "checkpoint.json", tmp_path / "eval")


def test_cmd_sweep_grid_and_cost_scaling(tmp_path):
    cfg = small_config(eval_experiments=3)
    weight_grid = [UtilityWeights(-1.0, 0.0), UtilityWeights(0.0, -1.0)]
    mean_costs = cmd_sweep(
        cfg, tmp_path, ratio_grid=(0.01, 0.1, 1.0), weight_grid=weight_grid,
    )
    # 3 ratios x 4 static plans in the cost table
    assert len(mean_costs) == 12
    # cloud-only cost ignores the fog price ratio
    s0 = [mean_costs[(r, "s0")] for r in (0.01, 0.1, 1.0)]
    assert s0[0] == s0[1] == s0[2]
    # fog-only cost scales exactly linearly with the ratio
    s3 = [mean_costs[(r, "s3")] for r in (0.01, 0.1, 1.0)]
    assert s3[0] < s3[1] < s3[2]
    assert s3[1] == pytest.approx(10 * s3[0], rel=1e-9)
    assert s3[2] == pytest.approx(100 * s3[0], rel=1e-9)
    cells = (tmp_path / "sweep_cells.csv").read_text().splitlines()
    # comment + header + 3 ratios x 2 weight pairs x 4 approaches
    assert len(cells) == 2 + 24
    costs = (tmp_path / "costs_vs_lambda.csv").read_text().splitlines()
    assert costs[1] == "fog_price_ratio,approach,mean_deployment_cost"
    assert len(costs) == 2 + 12


def test_sweep_cells_match_one_cell_evaluations(tmp_path):
    cfg = small_config(eval_experiments=3)
    ratios = (0.001, 0.1, 1.0)
    weight_grid = [UtilityWeights(-1.0, -1.0), UtilityWeights(0.0, -1.0)]
    cmd_sweep(cfg, tmp_path, ratio_grid=ratios, weight_grid=weight_grid)
    profile = cfg.resolved_profile()
    lines = [
        f"# config_hash={config_hash(cfg)} master_seed={cfg.master_seed}",
        "fog_price_ratio,qos_weight,cost_weight,approach,count,min,q1,median,mean,q3,max",
    ]
    for ratio in ratios:
        for weights in weight_grid:
            pricing = dataclasses.replace(cfg.pricing, fog_price_ratio=ratio)
            [results] = evaluate_strategies(
                profile, static_strategies(profile), [(pricing, weights)],
                experiments=cfg.eval_experiments, master_seed=cfg.master_seed,
            )
            for name, episodes in results.items():
                stats = BoxplotStats.from_samples([ep.utility for ep in episodes])
                row = [ratio, weights.qos_weight, weights.cost_weight, name, stats.count,
                       *stats.as_row()]
                lines.append(",".join(str(v) for v in row))
    expected = "\n".join(lines) + "\n"
    assert (tmp_path / "sweep_cells.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("lookalike, difference", [
    (None, "profile.name: 'fd' != 'ipokemon'"),
    ("fd-lookalike", "profile.name: 'fd' != 'fd-lookalike'"),
    ("fd", "profile.modules[0].name: 'greyscale' != 'a'"),
], ids=["other-count", "same-count", "same-name"])
def test_checkpoint_from_another_profile_is_rejected_alike(tmp_path, lookalike, difference):
    """ipokemon; fd under another name; and a profile named fd with stages
    a, b, c: each is refused, and the error names the first field that differs."""
    cfg = small_config(eval_experiments=1)
    cmd_train(cfg, tmp_path / "train")
    ckpt = tmp_path / "train" / "checkpoint.json"
    if lookalike is None:
        other = dataclasses.replace(cfg, profile="ipokemon")
    else:
        path = tmp_path / "lookalike.json"
        if lookalike == "fd":
            profile = {"name": "fd", "uplink_seconds_per_raw_unit": 1.0,
                       "modules": [{"name": s, "compute_s": 0.5} for s in "abc"]}
        else:
            profile = {**profile_to_dict(fd_profile()), "name": lookalike}
        path.write_text(json.dumps(profile))
        other = dataclasses.replace(cfg, profile=str(path))
        assert other.resolved_profile().n_modules == fd_profile().n_modules
    with pytest.raises(ValueError, match=re.escape(
            f"checkpoint {ckpt} was trained on another profile than the config's, "
            f"first differing at {difference} (checkpoint != config)")) as from_evaluate:
        cmd_evaluate(other, ckpt, tmp_path / "eval")
    with pytest.raises(ValueError) as from_sweep:
        cmd_sweep(other, tmp_path / "sweep", ratio_grid=(0.01,), checkpoint=ckpt)
    with pytest.raises(ValueError) as from_latency:
        cmd_latency(other, ckpt, tmp_path / "latency", n=10)
    assert str(from_sweep.value) == str(from_latency.value) == str(from_evaluate.value)
    # Rejected before anything is written.
    assert not any((tmp_path / d).exists() for d in ("eval", "sweep", "latency"))


@st.composite
def one_field_changed(draw, profile):
    """`profile` with one module or workload field set to another valid
    value, its name kept; returns it with the path of the changed field."""
    index = draw(st.integers(0, profile.n_modules - 1))
    module = profile.modules[index]
    key, value = draw(st.one_of(
        st.tuples(st.just("compute_s"), st.floats(0, 1000)),
        st.tuples(st.just("pass_fraction"), st.floats(0, 1, exclude_min=True)),
        st.tuples(st.just("demand"), st.builds(
            ResourceUsage, cpu_units=st.just(module.demand.cpu_units),
            mem_gb=st.floats(0, 100), storage_gb=st.floats(0, 100))),
        st.tuples(st.just("requests_per_deployment"), st.integers(1, 1000)),
        st.tuples(st.sampled_from(["base_delay_fog_cloud_ms", "base_delay_dev_cloud_ms"]),
                  st.floats(0, 1000)),
    ))
    if hasattr(module, key):
        modules = list(profile.modules)
        modules[index] = dataclasses.replace(module, **{key: value})
        changed, path = dataclasses.replace(profile, modules=tuple(modules)), \
            f"profile.modules[{index}].{key}"
    else:
        changed, path = dataclasses.replace(profile, **{key: value}), f"profile.{key}"
    assume(changed != profile)
    return changed, path


@settings(max_examples=40, deadline=None)
@given(builtin=st.sampled_from([fd_profile, ipokemon_profile, heavy_profile]),
       decays_done=st.integers(0, 10**6),
       state=st.lists(st.floats(0, 1), min_size=len(STATE_FACTORS), max_size=len(STATE_FACTORS)),
       data=st.data())
def test_a_checkpoint_holds_its_profile_and_refuses_any_other(builtin, decays_done, state, data):
    """A save->load round trip gives back the profile, the forward bits and
    the decay count; a profile that differs in one field, name kept, is
    refused by an error that names that field."""
    profile = builtin()
    agent = DQNAgent(profile.n_modules + 1, seed=decays_done)
    agent.decays_done = decays_done
    state = np.array(state)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        save_checkpoint(agent, path, profile,
                        Provenance(config_hash="0123456789ab", master_seed=5,
                                   weights=UtilityWeights()))
        restored, saved = load_checkpoint(path)
        assert saved.profile == profile and restored.decays_done == decays_done
        assert restored.network.forward(state).tobytes() == \
            agent.network.forward(state).tobytes()
        harness._load_policy(path, profile)
        changed, changed_path = data.draw(one_field_changed(profile))
        with pytest.raises(ValueError, match=re.escape(f"first differing at {changed_path}")):
            harness._load_policy(path, changed)


def test_cmd_sweep_includes_policy_with_checkpoint(tmp_path):
    cfg = small_config(eval_experiments=2)
    cmd_train(cfg, tmp_path / "train")
    mean_costs = cmd_sweep(
        cfg, tmp_path / "sweep", ratio_grid=(0.01,),
        checkpoint=tmp_path / "train" / "checkpoint.json",
    )
    assert (0.01, "context-aware") in mean_costs


def test_a_write_that_fails_midway_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    """CSV rows that fail part-way, and a disk write that fails after half its
    bytes, leave each output absent or with its old bytes, and no temporary
    file beside it."""
    cfg = small_config()

    def rows_that_break():
        yield [1, 2]
        raise RuntimeError("row 2 is broken")

    with pytest.raises(RuntimeError, match="row 2"):
        harness._emit(tmp_path, "train", cfg, {"rows": (["a", "b"], rows_that_break())}, {})
    assert list(tmp_path.iterdir()) == []

    writes = {
        "rows.csv": lambda: harness._emit(tmp_path, "train", cfg, {"rows": (["a"], [[1]])}, {}),
        "run.json": lambda: harness._emit(tmp_path, "train", cfg, {}, {}),
        "checkpoint.json": lambda: harness._emit(
            tmp_path, "train", cfg, {}, {}, checkpoint=(build_agent(cfg, fd_profile()), fd_profile())),
    }
    for name in writes:
        (tmp_path / name).write_text("old", encoding="utf-8")
    write_bytes = Path.write_bytes

    def half_then_fail(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    for name, write in writes.items():
        with pytest.raises(OSError, match="disk full"):
            write()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writes)
    assert all((tmp_path / name).read_text(encoding="utf-8") == "old" for name in writes)


# -- calibration --------------------------------------------------------------

def test_calibrate_passes_for_builtin_video_profile():
    report = cmd_calibrate()
    assert report.passed
    assert report.profile.name == "fd"
    assert len(report.breakdowns) == 4
    labels = [c.label for c in report.checks]
    assert "transmission[fog=0]" in labels
    assert any(line.startswith("calibration PASSED") for line in report.lines())


def test_calibrate_fails_when_uplink_drifts():
    drifted = dataclasses.replace(
        fd_profile(), uplink_seconds_per_raw_unit=fd_profile().uplink_seconds_per_raw_unit * 1.1
    )
    report = cmd_calibrate(drifted)
    assert not report.passed
    assert any(not c.ok for c in report.checks)
    assert any("FAIL" in line for line in report.lines())


# -- decision latency ---------------------------------------------------------

def test_measure_decision_latency_stats():
    net = QNetwork.initialize(layer_sizes(4, AgentConfig()), seed=0)
    stats, samples = measure_decision_latency(net, n=300, seed=1)
    assert stats.count == 300 and len(samples) == 300
    assert 0 < stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
    with pytest.raises(ValueError):
        measure_decision_latency(net, n=0)


# -- CLI ----------------------------------------------------------------------

@pytest.fixture()
def cli_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"episodes": 2, "eval_experiments": 2, "master_seed": 3}))
    return path


def test_cli_train_evaluate_latency(tmp_path, cli_config, capsys):
    train_dir = tmp_path / "train"
    assert main(["train", "--config", str(cli_config), "--out-dir", str(train_dir)]) == EXIT_OK
    assert "trained 2 episodes" in capsys.readouterr().out
    ckpt = train_dir / "checkpoint.json"

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cli_config), "--checkpoint", str(ckpt),
                 "--out-dir", str(eval_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "context-aware" in out and "s0" in out

    lat_dir = tmp_path / "lat"
    assert main(["latency", "--config", str(cli_config), "--checkpoint", str(ckpt),
                 "--out-dir", str(lat_dir), "--samples", "50"]) == EXIT_OK
    header = (lat_dir / "latency.csv").read_text().splitlines()[1]
    assert header == "min_ms,q1_ms,median_ms,mean_ms,q3_ms,max_ms"


def test_cli_sweep(tmp_path, cli_config, capsys):
    out_dir = tmp_path / "sweep"
    # weight pairs with a leading minus need the --weights=QOS:COST form
    code = main(["sweep", "--config", str(cli_config), "--out-dir", str(out_dir),
                 "--ratios", "0.01,1", "--weights=0:-1", "--weights=-1:0"])
    assert code == EXIT_OK
    assert "mean deployment cost" in capsys.readouterr().out
    assert (out_dir / "sweep_cells.csv").exists()


@pytest.mark.parametrize("grid, repeated", [
    (["--ratios", "0.01,0.01", "--weights=-1:-1", "--weights=-1:0", "--weights=-1:-1"],
     "fog price ratio(s) [0.01] given more than once"),
    (["--ratios", "0.01,0.1", "--weights=-1:-1", "--weights=-1:0", "--weights=-1:-1"],
     "weight pair(s) [(-1.0, -1.0)] given more than once"),
], ids=["ratios", "weights"])
def test_cli_sweep_rejects_repeated_grid_entries(tmp_path, cli_config, capsys, grid, repeated):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cli_config), "--out-dir", str(out_dir), *grid])
    assert code == EXIT_VALIDATION
    assert repeated in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_sweep_refuses_an_out_of_range_ratio_before_writing(tmp_path, cli_config, capsys):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cli_config), "--out-dir", str(out_dir),
                 "--ratios", "20"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == \
        "error: --ratios '20': pricing.fog_price_ratio: must lie in (0, 10], got 20.0\n"
    assert not out_dir.exists()


def test_cli_latency_refuses_zero_samples_before_writing(tmp_path, cli_config, capsys):
    """Zero or a negative count: one error line that names the flag."""
    train_dir = tmp_path / "train"
    assert main(["train", "--config", str(cli_config), "--out-dir", str(train_dir)]) == EXIT_OK
    capsys.readouterr()
    out_dir = tmp_path / "lat"
    for samples in ("0", "-3"):
        code = main(["latency", "--config", str(cli_config), "--out-dir", str(out_dir),
                     "--checkpoint", str(train_dir / "checkpoint.json"), "--samples", samples])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: --samples {samples}: must be >= 1\n"
        assert not out_dir.exists()


def test_cli_sweep_names_the_flag_of_a_bad_ratio(tmp_path, cli_config, capsys):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cli_config), "--out-dir", str(out_dir),
                 "--ratios", "0.1,x"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: --ratios 'x': ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_cli_sweep_names_the_flag_of_an_empty_ratio_list(tmp_path, cli_config, capsys):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cli_config), "--out-dir", str(out_dir),
                 "--ratios", ","])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: --ratios: must list at least one value\n"
    assert not out_dir.exists()


def test_cli_sweep_that_fails_in_simulation_creates_no_out_dir(tmp_path, capsys):
    """A profile whose stages take no time fails on its first deployment."""
    profile_path = tmp_path / "instant.json"
    profile_path.write_text(json.dumps({"name": "instant", "modules": [{"name": "noop"}]}))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"profile": str(profile_path), "eval_experiments": 2}))
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: outcome.duration_s: must be > 0, got 0.0\n"
    assert not out_dir.exists()


def test_cli_evaluate_that_fails_in_simulation_creates_no_out_dir(tmp_path, cli_config, capsys,
                                                                  monkeypatch):
    train_dir = tmp_path / "train"
    assert main(["train", "--config", str(cli_config), "--out-dir", str(train_dir)]) == EXIT_OK
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise ValueError("simulation failed")

    monkeypatch.setattr(harness, "evaluate_strategies", fail)
    out_dir = tmp_path / "eval"
    code = main(["evaluate", "--config", str(cli_config), "--out-dir", str(out_dir),
                 "--checkpoint", str(train_dir / "checkpoint.json")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: simulation failed\n"
    assert not out_dir.exists()


def test_cli_sweep_summarises_cost_only_utilities_that_are_all_equal(tmp_path, capsys):
    """Under cost-only weights at ratio 1, ipokemon's s2 earns six equal
    utilities whose rounded mean lies outside them."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"profile": "ipokemon", "eval_experiments": 6}))
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg_path), "--seed", "2026", "--out-dir", str(out_dir),
                 "--ratios", "1.0", "--weights=0:-1"])
    assert code == EXIT_OK, capsys.readouterr().err
    assert (out_dir / "sweep_cells.csv").exists()


def test_cli_overrides_reach_the_config(tmp_path, cli_config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["train", "--config", str(cli_config), "--out-dir", str(out_a)])
    main(["train", "--config", str(cli_config), "--out-dir", str(out_b),
          "--lambda", "0.1", "--alpha", "0", "--beta", "-1"])
    run_b = json.loads((out_b / "run.json").read_text())
    assert run_b["config"]["pricing"]["fog_price_ratio"] == 0.1
    assert run_b["config"]["weights"] == {"qos_weight": 0.0, "cost_weight": -1.0}
    assert run_b["config_hash"] != json.loads((out_a / "run.json").read_text())["config_hash"]


def test_cli_validation_failures_exit_1(tmp_path, capsys):
    assert main(["evaluate", "--checkpoint", str(tmp_path / "missing.json")]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"unknown_option": 1}))
    assert main(["train", "--config", str(bad_cfg)]) == EXIT_VALIDATION
    assert main(["train", "--config", str(bad_cfg), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION


def test_cli_train_reports_divergence_before_writing(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"profile": "ipokemon", "episodes": 50,
                                    "agent": {"learning_rate": 5.0}}))
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # a numpy overflow warning fails the test
        code = main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: episode \d+: deployment \d+: training diverged at learning_rate=5\.0: .*\n", err)
    assert not out_dir.exists()



@pytest.mark.parametrize("seed", [2026, 1, 2, 3, 7])
def test_a_diverging_step_leaves_the_weights_it_found(seed):
    """The step whose loss is not finite raises before it writes a parameter,
    and before it computes anything that numpy would warn about."""
    cfg = config_from_dict({"profile": "ipokemon", "master_seed": seed,
                            "agent": {"learning_rate": 5.0}})
    profile = cfg.resolved_profile()
    agent = build_agent(cfg, profile)
    network = agent.network
    step = network.sgd_step
    before = []

    def snapshot_then_step(*args):
        before[:] = [p.copy() for p in network.weights + network.biases]
        return step(*args)

    network.sgd_step = snapshot_then_step
    with warnings.catch_warnings(), \
            pytest.raises(ValueError, match=r"training diverged at learning_rate=5\.0: "
                                            r"a step's loss is (inf|nan)"):
        warnings.simplefilter("error")
        train(profile, agent, 50, cfg.pricing, cfg.weights, master_seed=seed)
    after = network.weights + network.biases
    assert all(np.array_equal(mine, theirs) for mine, theirs in zip(after, before))
    assert all(np.isfinite(p).all() for p in after)


def test_cli_train_refuses_the_removed_successor_knob(tmp_path, capsys):
    """The successor is always the freshly observed state: a config that asks
    to switch that off is refused, not ignored."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"episodes": 2, "agent": {"carry_next_state": True}}))
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: config.agent: unknown key(s) ['carry_next_state']\n"
    assert not out_dir.exists()


MISTYPED_CONFIGS = [
    ({"episodes": 2.5}, "config.episodes"),
    ({"agent": {"batch_size": 2.5}}, "config.agent.batch_size"),
    ({"master_seed": "x"}, "config.master_seed"),
    ({"eval_experiments": True}, "config.eval_experiments"),
    ({"agent": {"discount": "0.9"}}, "config.agent.discount"),
    ({"profile": 5}, "config.profile"),
    ({"pricing": {"fog_price_ratio": "0.1"}}, "config.pricing.fog_price_ratio"),
    ({"agent": {"epsilon_decay": None}}, "config.agent.epsilon_decay"),
    # An integer float64 cannot hold is refused by the reader, not left to overflow later.
    ({"pricing": {"vm_hourly": 10**400}}, "config.pricing.vm_hourly"),
    ({"agent": {"learning_rate": -10**400}}, "config.agent.learning_rate"),
]


@pytest.mark.parametrize("config, path", MISTYPED_CONFIGS, ids=[p for _, p in MISTYPED_CONFIGS])
def test_cli_train_rejects_a_mistyped_config_before_writing(tmp_path, capsys, config, path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"episodes": 2, **config}))
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: expected ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("path, value", [
    ("requests_per_deployment", "20"),
    ("requests_per_deployment", 20.5),
    ("name", 3),
    ("modules.0.compute_s", "fast"),
    ("modules.0.pass_fraction", None),
    ("modules.0.demand.cpu_units", "1"),
    pytest.param("modules.0.compute_s", 10**400, id="modules.0.compute_s-int-overflow"),
])
def test_cli_train_rejects_a_mistyped_profile_before_writing(tmp_path, capsys, path, value):
    data = json.loads(json.dumps(profile_to_dict(fd_profile())))
    *parents, last = path.split(".")
    node = data
    for key in parents:
        node = node[int(key)] if key.isdigit() else node[key]
    node[last] = value
    profile_path = tmp_path / "mine.json"
    profile_path.write_text(json.dumps(data))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"episodes": 2, "profile": str(profile_path)}))
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    shown = path.replace(".0.", "[0].")
    assert err.startswith(f"error: {profile_path}.{shown}: expected ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("network", None, 5, ".network: expected an object, got 5"),
    ("config", "learning_rate", "0.001", ".config.learning_rate: expected a number, got \"0.001\""),
    ("config", "learning_rate", 10**400, ".config.learning_rate: expected a number float64 can "
     "hold, got an integer of 401 digits"),
    ("config", "hidden_width", 24.0, ".config.hidden_width: expected an integer, got 24.0"),
    ("config", "epsilon_floor", 2.0, ".config: need 0 <= epsilon_floor <= epsilon_start <= 1"),
    ("config", "hidden_width", 0, ".config: hidden_width must be >= 1"),
    ("decays_done", None, "7", ".decays_done: expected an integer, got \"7\""),
    ("decays_done", None, 7.0, ".decays_done: expected an integer, got 7.0"),
    ("decays_done", None, True, ".decays_done: expected an integer, got true"),
    ("decays_done", None, -1, ": decays_done: must be >= 0, got -1"),
    ("profile", "name", 7, ".profile.name: expected a string, got 7"),
    ("profile", "modules.0.compute_s", "0.5",
     ".profile.modules[0].compute_s: expected a number, got \"0.5\""),
    ("profile", "requests_per_deployment", 0,
     ".profile: profile fd: requests_per_deployment must be >= 1"),
    ("profile", None, "fd", ".profile: expected an object, got \"fd\""),
    ("profile", "modules", [], ".profile: profile fd: needs at least one module"),
    ("n_actions", None, 4, ": unknown key(s) ['n_actions']"),
    # Weights that do not fit the architecture the profile and config ask for.
    ("config", "hidden_width", 16, ".network: malformed parameters (layer 0: expected weight "
     "and bias shapes ((16, 19), (16,)), got ((24, 19), (24,)))"),
    ("network", "weights.0", [[0.0] * 20] * 24, ".network: malformed parameters (layer 0: "
     "expected weight and bias shapes ((24, 19), (24,)), got ((24, 20), (24,)))"),
    ("profile", "modules", [{"name": "solo"}], ".network: malformed parameters (layer 2: "
     "expected weight and bias shapes ((2, 24), (2,)), got ((4, 24), (4,)))"),
    ("config", "hidden_layers", 3, ".network: malformed parameters (expected 4 weight "
     "matrices and bias vectors, got 3 and 3)"),
    ("network", "weights.0.0.0", float("nan"), ".network: weights and biases must be finite"),
    ("network", "biases.2.0", float("inf"), ".network: weights and biases must be finite"),
    ("network", "weights.1", [[0.5]], ".network: malformed parameters (layer 1: "),
    ("network", "weights.0.0.0", 10**400, ".network: malformed parameters (int too large"),
    ("network", "weights.0.0.0", True, ".network.weights[0][0][0]: expected a number, got true"),
    ("network", "biases.1.3", "0.5", ".network.biases[1][3]: expected a number, got \"0.5\""),
    ("network", "weights.2.1", 0.5, ".network.weights[2][1]: expected a list, got 0.5"),
    ("network", "format_version", 1, ".network: unknown key(s) ['format_version']"),
    ("network", "architecture", {}, ".network: unknown key(s) ['architecture']"),
    ("provenance", None, 5, ".provenance: expected an object, got 5"),
    ("provenance", "master_seed", "3", ".provenance.master_seed: expected an integer, got \"3\""),
], ids=["network", "learning_rate", "learning_rate-int-overflow", "hidden_width", "epsilon_floor", "hidden_width-zero",
        "decays_done",
        "decays_done-float", "decays_done-bool", "decays_done-negative", "profile.name",
        "profile.modules.compute_s", "profile.requests_per_deployment", "profile",
        "profile.modules-empty",
        "n_actions-stray", "network-hidden_width", "input_dim", "output_dim",
        "hidden_layers-misfit",
        "nan-weight", "inf-bias", "weight-shape", "int-overflow-weight", "bool-weight", "string-bias", "flat-weight-row",
        "network-format_version", "network-architecture", "provenance", "provenance-master_seed"])
def test_cli_evaluate_rejects_a_mistyped_checkpoint(tmp_path, cli_config, capsys,
                                                    section, key, value, message):
    train_dir = tmp_path / "train"
    assert main(["train", "--config", str(cli_config), "--out-dir", str(train_dir)]) == EXIT_OK
    ckpt = train_dir / "checkpoint.json"
    data = json.loads(ckpt.read_text())
    if key is None:
        data[section] = value         # a section, or a top-level key
    else:
        *parents, last = key.split(".")
        node = data[section]
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[int(last) if last.isdigit() else last] = value
    ckpt.write_text(json.dumps(data))   # NaN and Infinity are written as JSON reads them
    capsys.readouterr()
    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cli_config), "--checkpoint", str(ckpt),
                 "--out-dir", str(eval_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}") and message in err and err.count("\n") == 1
    assert not eval_dir.exists()


@pytest.mark.parametrize("command", [["sweep", "--ratios", "0.1"], ["latency", "--samples", "10"]],
                         ids=["sweep", "latency"])
def test_cli_commands_refuse_weights_that_do_not_fit(tmp_path, cli_config, capsys, command):
    train_dir = tmp_path / "train"
    assert main(["train", "--config", str(cli_config), "--out-dir", str(train_dir)]) == EXIT_OK
    ckpt = train_dir / "checkpoint.json"
    data = json.loads(ckpt.read_text())
    data["config"]["hidden_width"] = 16
    ckpt.write_text(json.dumps(data))
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main([*command, "--config", str(cli_config), "--checkpoint", str(ckpt),
                 "--out-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == (f"error: {ckpt}.network: malformed parameters (layer 0: expected weight "
                   "and bias shapes ((16, 19), (16,)), got ((24, 19), (24,)))\n")
    assert not out_dir.exists()


def test_cli_names_a_checkpoint_that_is_not_json(tmp_path, cli_config, capsys):
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text("")
    assert main(["evaluate", "--config", str(cli_config), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "eval")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: checkpoint file {ckpt}: invalid JSON")


def test_cli_evaluate_rejects_a_format_1_checkpoint(tmp_path, cli_config, capsys):
    train_dir = tmp_path / "train"
    assert main(["train", "--config", str(cli_config), "--out-dir", str(train_dir)]) == EXIT_OK
    ckpt = train_dir / "checkpoint.json"
    data = json.loads(ckpt.read_text())
    data["format_version"] = 1
    data["target_network"] = data["network"]
    ckpt.write_text(json.dumps(data))
    capsys.readouterr()
    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cli_config), "--checkpoint", str(ckpt),
                 "--out-dir", str(eval_dir)]) == EXIT_VALIDATION
    assert "format version 1" in capsys.readouterr().err
    assert not eval_dir.exists()


@pytest.mark.parametrize("argv, code, needle", [
    (["calibrate", "--profile", "{tmp}/fd-a.json"], EXIT_CALIBRATION,
     "check stages[a] are greyscale, motion, face"),
    (["calibrate", "--profile", "{tmp}/fd-abc.json"], EXIT_CALIBRATION,
     "check stages[a, b, c] are greyscale, motion, face"),
    (["train", "--config", "{tmp}/a-dir"], EXIT_VALIDATION,
     "error: config file {tmp}/a-dir: Is a directory"),
    (["evaluate", "--checkpoint", "{tmp}/a-dir"], EXIT_VALIDATION,
     "error: checkpoint file {tmp}/a-dir: Is a directory"),
    (["train", "--out-dir", "{tmp}/a-file"], EXIT_VALIDATION,
     "error: --out-dir {tmp}/a-file: {tmp}/a-file is not a directory"),
    (["train", "--out-dir", "{tmp}/a-file/out"], EXIT_VALIDATION,
     "error: --out-dir {tmp}/a-file/out: {tmp}/a-file is not a directory"),
    (["train", "--config", "{tmp}/latin1.json"], EXIT_VALIDATION,
     "config file {tmp}/latin1.json: not UTF-8"),
    (["train", "--episodes", "0"], EXIT_VALIDATION, "--episodes 0: "),
    (["train", "--lambda", "20"], EXIT_VALIDATION, "--lambda 20.0: "),
    (["train", "--alpha", "1"], EXIT_VALIDATION, "--alpha 1.0: "),
], ids=["fd-one-other-stage", "fd-three-other-stages", "config-is-a-dir", "checkpoint-is-a-dir",
        "out-dir-is-a-file", "out-dir-under-a-file", "config-not-utf8", "episodes", "lambda",
        "alpha"])
def test_cli_names_the_input_it_cannot_use_without_a_traceback(tmp_path, cli_config, capsys,
                                                               monkeypatch, argv, code, needle):
    """A bad path or flag value ends in one line that names it: an `error:`
    line with exit 1, or a failed calibration check with exit 2.  Nothing
    is written, not even an out dir under a file, and nothing is trained."""
    def refuse(*args, **kwargs):
        raise AssertionError("trained before refusing the input")

    monkeypatch.setattr(harness, "train", refuse)
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("kept\n")
    (tmp_path / "latin1.json").write_bytes(b"\xff{}")
    for stages in ("a", "abc"):
        (tmp_path / f"fd-{stages}.json").write_text(json.dumps({
            "name": "fd", "modules": [{"name": s, "compute_s": 0.5} for s in stages],
            "uplink_seconds_per_raw_unit": 1.0,
        }))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if argv[0] != "calibrate" and "--config" not in argv:
        argv += ["--config", str(cli_config)]
    if argv[0] != "calibrate" and "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path / "out")]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    needle = needle.format(tmp=tmp_path)
    if code == EXIT_VALIDATION:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert needle in captured.err
    else:
        lines = captured.out.splitlines()
        assert lines[-1] == "calibration FAILED"
        assert [line for line in lines if line.endswith(" FAIL")] == [
            line for line in lines if line.startswith(needle)]
    assert (tmp_path / "a-file").read_text() == "kept\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_calibrate_exit_codes(tmp_path, capsys):
    assert main(["calibrate"]) == EXIT_OK
    assert "calibration PASSED" in capsys.readouterr().out
    drifted = dataclasses.replace(
        fd_profile(), uplink_seconds_per_raw_unit=fd_profile().uplink_seconds_per_raw_unit * 1.2
    )
    path = tmp_path / "drifted.json"
    path.write_text(json.dumps(profile_to_dict(drifted)))
    assert main(["calibrate", "--profile", str(path)]) == EXIT_CALIBRATION
    assert "calibration FAILED" in capsys.readouterr().out
