"""Agent tests: strategies, replay memory, exploration schedule, training loop."""
import copy
import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogdist.agent import (
    AgentConfig,
    DQNAgent,
    GreedyNetworkStrategy,
    Provenance,
    ReplayMemory,
    StaticStrategy,
    Transition,
    layer_sizes,
    load_checkpoint,
    price_deployment,
    run_episode,
    save_checkpoint,
    score_episode,
    simulate_episode,
    train,
)
from fogdist.env import FogEnvironment
from fogdist.model import PricingModel, UtilityWeights, deployment_utility
from fogdist.nn import QNetwork
from fogdist.profiles import fd_profile, heavy_profile

PRICING = PricingModel()
HYBRID = UtilityWeights(qos_weight=-1.0, cost_weight=-1.0)
COST_ONLY = UtilityWeights(qos_weight=0.0, cost_weight=-1.0)
PROVENANCE = Provenance(config_hash="0123456789ab", master_seed=5, weights=HYBRID)


def bias_only_network(output_biases):
    """A 19-input net whose forward pass returns exactly output_biases."""
    sizes = (19, 4, 4, len(output_biases))
    weights = [np.zeros((later, earlier)) for earlier, later in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(size) for size in sizes[1:]]
    biases[-1] = np.asarray(output_biases, dtype=float)
    return QNetwork(sizes, weights, biases)


def make_transition(reward=0.0, terminal=False, action=0):
    return Transition(
        state=np.full(19, 0.2), action=action, reward=reward,
        next_state=np.full(19, 0.5), terminal=terminal,
    )


# -- strategies ---------------------------------------------------------------

def test_static_strategy_always_returns_its_plan():
    rng = random.Random(0)
    s2 = StaticStrategy(2)
    assert all(s2.select_k(np.zeros(19), rng) == 2 for _ in range(10))
    with pytest.raises(ValueError):
        StaticStrategy(-1)


def test_greedy_strategy_argmax_with_low_plan_tie_break():
    net = bias_only_network([-1.0, 3.0, 3.0, 0.0])
    greedy = GreedyNetworkStrategy(net)
    assert greedy.select_k(np.zeros(19), random.Random(0)) == 1


def test_fully_exploring_agent_is_uniform_over_plans():
    agent = DQNAgent(n_actions=4, config=AgentConfig(epsilon_start=1.0))
    rng = random.Random(123)
    counts = [0, 0, 0, 0]
    n = 10_000
    for _ in range(n):
        counts[agent.select_k(np.zeros(19), rng)] += 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    for c in counts:
        assert abs(c - n / 4) < 4 * sigma


def test_greedy_agent_at_floor_mostly_exploits():
    agent = DQNAgent(n_actions=4)
    agent.decays_done = 459
    assert agent.epsilon == 0.01
    agent.network = bias_only_network([0.0, 0.0, 5.0, 0.0])
    rng = random.Random(7)
    picks = [agent.select_k(np.zeros(19), rng) for _ in range(1000)]
    # all but the ~1% exploration slice should take the top-value plan
    assert picks.count(2) > 950


# -- replay memory ------------------------------------------------------------

def test_replay_memory_evicts_oldest():
    mem = ReplayMemory(capacity=3)
    for r in range(5):
        mem.remember(make_transition(reward=float(r)))
    assert len(mem) == 3
    rewards = sorted(t.reward for t in mem.sample(random.Random(0), 3))
    assert rewards == [2.0, 3.0, 4.0]


def test_replay_memory_samples_without_replacement():
    mem = ReplayMemory(capacity=10)
    for r in range(10):
        mem.remember(make_transition(reward=float(r)))
    batch = mem.sample(random.Random(1), 10)
    assert sorted(t.reward for t in batch) == [float(r) for r in range(10)]


def test_replay_memory_rejects_oversized_sample():
    mem = ReplayMemory(capacity=10)
    mem.remember(make_transition())
    with pytest.raises(ValueError):
        mem.sample(random.Random(0), 2)


# -- exploration schedule -----------------------------------------------------

@st.composite
def exploration_settings(draw):
    """Valid (epsilon_start, epsilon_floor, epsilon_decay), with a floor
    reached within a few hundred decays."""
    floor = draw(st.floats(1e-3, 1.0))
    return draw(st.floats(floor, 1.0)), floor, draw(st.floats(0.01, 0.99))


@settings(max_examples=60, deadline=None)
@given(settings_=exploration_settings(), extra=st.integers(0, 5))
def test_epsilon_follows_closed_form_with_floor(settings_, extra):
    start, floor, decay = settings_
    agent = DQNAgent(n_actions=2, config=AgentConfig(
        epsilon_start=start, epsilon_floor=floor, epsilon_decay=decay))
    t_floor = next(t for t in itertools.count() if start * decay ** t <= floor)
    assert agent.decays_done == 0 and agent.epsilon == start
    for t in range(1, t_floor + extra + 1):
        agent.decay_exploration()
        assert agent.decays_done == min(t, t_floor)
        assert agent.epsilon == max(floor, start * decay ** min(t, t_floor))
    assert agent.epsilon == floor


def test_epsilon_schedule_validation():
    with pytest.raises(ValueError, match="need 0 <= epsilon_floor <= epsilon_start <= 1"):
        AgentConfig(epsilon_start=1.5)
    with pytest.raises(ValueError, match="need 0 <= epsilon_floor <= epsilon_start <= 1"):
        AgentConfig(epsilon_start=0.5, epsilon_floor=0.6)
    with pytest.raises(ValueError, match="need 0 <= epsilon_floor <= epsilon_start <= 1"):
        AgentConfig(epsilon_floor=-0.1)
    with pytest.raises(ValueError, match=r"epsilon_decay must lie in \(0, 1\)"):
        AgentConfig(epsilon_decay=1.0)
    with pytest.raises(ValueError, match=r"epsilon_decay must lie in \(0, 1\)"):
        AgentConfig(epsilon_decay=0.0)


def test_agent_builds_its_schedule_from_its_config():
    config = AgentConfig(epsilon_start=0.8, epsilon_floor=0.1, epsilon_decay=0.9)
    agent = DQNAgent(n_actions=2, config=config)
    assert (agent.decays_done, agent.epsilon) == (0, 0.8)
    agent.decay_exploration()
    assert agent.epsilon == 0.8 * 0.9


# -- learning internals -------------------------------------------------------

def test_compute_target_terminal_and_bootstrap():
    agent = DQNAgent(n_actions=2, config=AgentConfig(discount=0.95))
    agent.network = bias_only_network([0.5, 2.0])
    terminal = Transition(np.zeros(19), 0, -1.0, np.ones(19), True)
    assert agent.compute_target(terminal) == -1.0
    ongoing = Transition(np.zeros(19), 0, -1.0, np.ones(19), False)
    assert agent.compute_target(ongoing) == pytest.approx(-1.0 + 0.95 * 2.0, rel=1e-12)


def test_compute_target_zero_discount_ignores_successor():
    agent = DQNAgent(n_actions=2, config=AgentConfig(discount=0.0))
    agent.network = bias_only_network([100.0, 100.0])
    ongoing = Transition(np.zeros(19), 0, -3.0, np.ones(19), False)
    assert agent.compute_target(ongoing) == -3.0


def test_replay_skipped_until_memory_exceeds_batch():
    agent = DQNAgent(n_actions=2, config=AgentConfig(batch_size=5))
    rng = random.Random(0)
    before = [w.copy() for w in agent.network.weights]
    for _ in range(5):
        assert agent.observe_transition(make_transition(reward=-1.0), rng) is None
    assert agent.decays_done == 0
    for w, b in zip(agent.network.weights, before):
        assert np.array_equal(w, b)
    # the sixth transition tips the memory past the minibatch size
    loss = agent.observe_transition(make_transition(reward=-1.0), rng)
    assert loss is not None and loss >= 0.0
    assert agent.decays_done == 1
    assert any(not np.array_equal(w, b) for w, b in zip(agent.network.weights, before))


@settings(max_examples=40, deadline=None)
@given(
    rewards=st.lists(st.floats(-5.0, 0.0), min_size=2, max_size=30),
    terminals=st.lists(st.booleans(), min_size=30, max_size=30),
    batch_size=st.integers(1, 8),
    discount=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**16),
)
def test_replay_pass_matches_a_snapshot_target_reference(rewards, terminals, batch_size,
                                                         discount, seed):
    """Every target of a pass comes from the network as it stood before the pass,
    and the per-sample steps then run in sampled order."""
    agent = DQNAgent(n_actions=3, config=AgentConfig(batch_size=batch_size, discount=discount),
                     seed=seed)
    states = np.random.default_rng(seed).uniform(0.0, 1.0, size=(len(rewards) + 1, 19))
    for i, reward in enumerate(rewards):
        agent.memory.remember(Transition(states[i], i % 3, reward, states[i + 1], terminals[i]))

    snapshot = copy.deepcopy(agent.network)
    reference = copy.deepcopy(agent.network)
    loss = agent.replay(random.Random(seed))
    losses = []
    if len(rewards) > batch_size:
        for t in agent.memory.sample(random.Random(seed), batch_size):
            target = t.reward
            if not t.terminal:
                target += discount * float(np.max(snapshot.forward(t.next_state)))
            losses.append(reference.sgd_step(t.state, t.action, target, agent.config.learning_rate))
    assert loss == (math.fsum(losses) / len(losses) if losses else None)
    for mine, theirs in zip(agent.network.weights + agent.network.biases,
                            reference.weights + reference.biases):
        assert np.array_equal(mine, theirs)


def test_replay_is_deterministic_for_a_seed():
    def run():
        agent = DQNAgent(n_actions=2, seed=5)
        rng = random.Random(99)
        losses = []
        for r in range(20):
            loss = agent.observe_transition(make_transition(reward=-float(r % 3)), rng)
            if loss is not None:
                losses.append(loss)
        return losses, agent.network.to_dict()

    losses_a, params_a = run()
    losses_b, params_b = run()
    assert losses_a == losses_b
    assert params_a == params_b


# -- episodes -----------------------------------------------------------------

def scored_episode(env, strategy, pricing, weights, rng, deployments=20):
    """A strategy that does not learn, simulated and then scored under one
    cell; returns (outcomes, costs, utility)."""
    outcomes = simulate_episode(env, strategy, rng, deployments)
    costs = [price_deployment(o, env.profile.n_modules, pricing) for o in outcomes]
    return outcomes, costs, score_episode(outcomes, costs, weights)


def test_scored_static_episode_shape_and_utility_sum():
    env = FogEnvironment(fd_profile(), seed=11)
    outcomes, costs, utility = scored_episode(env, StaticStrategy(3), PRICING, HYBRID,
                                              random.Random(0))
    assert len(outcomes) == len(costs) == 20
    utilities = [deployment_utility(HYBRID, o, c) for o, c in zip(outcomes, costs)]
    assert utility == math.fsum(utilities)
    assert all(u < 0 for u in utilities)
    assert all(o.fog_modules == 3 for o in outcomes)


def test_scored_static_episode_is_deterministic():
    def once():
        env = FogEnvironment(fd_profile(), seed=21)
        return scored_episode(env, StaticStrategy(1), PRICING, HYBRID, random.Random(4))

    assert once() == once()


def test_run_episode_marks_only_last_transition_terminal():
    agent = DQNAgent(n_actions=4, seed=1)
    env = FogEnvironment(fd_profile(), seed=31)
    run_episode(env, agent, PRICING, HYBRID, random.Random(2), deployments=8)
    stored = list(agent.memory._items)
    assert len(stored) == 8
    assert [t.terminal for t in stored] == [False] * 7 + [True]


def test_carried_state_advances_between_deployments():
    agent = DQNAgent(n_actions=4, seed=1)
    env = FogEnvironment(fd_profile(), seed=31)
    run_episode(env, agent, PRICING, HYBRID, random.Random(2), deployments=6)
    stored = list(agent.memory._items)
    assert any(not np.array_equal(t.state, t.next_state) for t in stored)
    # consecutive transitions chain: successor of one is the state of the next
    for prev, nxt in zip(stored, stored[1:]):
        assert np.array_equal(prev.next_state, nxt.state)


def test_run_episode_rejects_bad_deployment_count():
    env = FogEnvironment(fd_profile(), seed=0)
    with pytest.raises(ValueError):
        run_episode(env, DQNAgent(n_actions=4), PRICING, HYBRID, random.Random(0),
                    deployments=0)


# -- training -----------------------------------------------------------------

def test_train_validates_action_count():
    agent = DQNAgent(n_actions=3)
    with pytest.raises(ValueError):
        train(fd_profile(), agent, episodes=1, pricing=PRICING, weights=HYBRID,
              master_seed=0)


def test_train_returns_one_utility_per_episode():
    agent = DQNAgent(n_actions=4, seed=0)
    curve = train(fd_profile(), agent, episodes=3, pricing=PRICING, weights=HYBRID,
                  master_seed=7)
    assert len(curve) == 3
    assert all(u < 0 for u in curve)
    assert len(agent.memory) == 60


def test_cost_only_training_learns_the_cheaper_tier():
    """On a profile where the Cloud is cheaper in every stress state, a
    zero-discount cost-only learner must converge to the Cloud plan."""
    profile = heavy_profile()
    pricing = PricingModel(fog_price_ratio=1.0)
    config = AgentConfig(discount=0.0)
    agent = DQNAgent(n_actions=profile.n_modules + 1, config=config, seed=3)
    train(profile, agent, episodes=100, pricing=pricing, weights=COST_ONLY,
          master_seed=17)
    greedy = agent.greedy_strategy()
    rng = random.Random(0)
    picks = []
    for i in range(10):
        env = FogEnvironment(profile, seed=1000 + i)
        outcomes, _, _ = scored_episode(env, greedy, pricing, COST_ONLY, rng)
        picks.extend(o.fog_modules for o in outcomes)
    assert picks.count(0) / len(picks) >= 0.95


# -- checkpointing ------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    agent = DQNAgent(n_actions=4, seed=9,
                     config=AgentConfig(learning_rate=0.002, epsilon_floor=0.05, epsilon_decay=0.95))
    agent.decays_done = 17
    train(fd_profile(), agent, episodes=2, pricing=PRICING, weights=HYBRID,
          master_seed=5)
    path = tmp_path / "ck.json"
    save_checkpoint(agent, path, fd_profile(), PROVENANCE)
    restored, saved = load_checkpoint(path)
    x = np.full(19, 0.4)
    assert np.array_equal(agent.network.forward(x), restored.network.forward(x))
    assert restored.config == agent.config
    assert restored.decays_done == agent.decays_done > 17
    assert restored.epsilon == agent.epsilon
    assert restored.n_actions == agent.n_actions == 4
    assert saved.profile == fd_profile()
    assert saved.provenance == PROVENANCE


def test_load_checkpoint_builds_no_throwaway_network(tmp_path, monkeypatch):
    path = tmp_path / "ck.json"
    save_checkpoint(DQNAgent(n_actions=4, seed=3), path, fd_profile(), PROVENANCE)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a fresh network")

    monkeypatch.setattr(QNetwork, "initialize", refuse)
    restored, _saved = load_checkpoint(path)
    assert restored.network.to_dict() == json.loads(path.read_text())["network"]


def test_load_checkpoint_errors(tmp_path):
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 99, "kind": "fogdist-agent"}')
    with pytest.raises(ValueError):
        load_checkpoint(bad)
    bad.write_text('{"format_version": 6, "kind": "fogdist-agent"}')
    with pytest.raises(ValueError, match=re.escape(
            "bad.json: missing key(s) ['config', 'decays_done', 'network', 'profile', "
            "'provenance']")):
        load_checkpoint(bad)


def test_checkpoint_format_1_is_rejected_with_a_retrain_hint(tmp_path):
    agent = DQNAgent(n_actions=4, seed=2)
    path = tmp_path / "v1.json"
    save_checkpoint(agent, path, fd_profile(), PROVENANCE)
    data = json.loads(path.read_text())
    assert "target_network" not in data and "weights" not in data["config"]
    data["format_version"] = 1
    data["target_network"] = data["network"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="format version 1 .*retrain"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [2, 3, 4, 5])
def test_checkpoint_formats_2_to_4_are_rejected_with_a_retrain_hint(tmp_path, version):
    agent = DQNAgent(n_actions=4, seed=2)
    path = tmp_path / f"v{version}.json"
    save_checkpoint(agent, path, fd_profile(), PROVENANCE)
    data = json.loads(path.read_text())
    assert "schedule" not in data and set(data["network"]) == {"weights", "biases"}
    data["format_version"] = version
    if version == 5:      # the profile stored as its name and plan count
        data["profile_name"] = data.pop("profile")["name"]
        data["n_actions"] = 4
    if version < 4:
        data["network"]["architecture"] = {
            "input_dim": 19, "hidden_layers": 2, "hidden_width": 24, "output_dim": 4,
        }
    if version == 2:
        config = data["config"]
        data["schedule"] = {
            "start": config.pop("epsilon_start"), "floor": config.pop("epsilon_floor"),
            "decay": config.pop("epsilon_decay"), "decays_done": data.pop("decays_done"),
        }
        data["network"]["format_version"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"format version {version} .*retrain"):
        load_checkpoint(path)


def test_save_checkpoint_refuses_non_finite_parameters(tmp_path):
    agent = DQNAgent(n_actions=4, seed=2)
    agent.network.weights[1][0, 0] = float("nan")
    path = tmp_path / "ck.json"
    with pytest.raises(ValueError, match="non-finite"):
        save_checkpoint(agent, path, fd_profile(), PROVENANCE)
    assert not path.exists()


def test_save_checkpoint_refuses_an_agent_with_other_plans_than_the_profile(tmp_path):
    path = tmp_path / "ck.json"
    with pytest.raises(ValueError, match="agent has 2 actions but profile 'fd' has 4 plans"):
        save_checkpoint(DQNAgent(n_actions=2), path, fd_profile(), PROVENANCE)
    assert not path.exists()


def test_agent_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(discount=1.0)
    with pytest.raises(ValueError):
        AgentConfig(batch_size=0)
    for learning_rate in (0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^learning_rate must be finite and > 0$"):
            AgentConfig(learning_rate=learning_rate)
    for key in ("batch_size", "replay_capacity", "hidden_layers", "hidden_width"):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1$"):
            AgentConfig(**{key: 0})
    with pytest.raises(ValueError):
        DQNAgent(n_actions=0)


def test_agent_refuses_a_network_of_another_architecture():
    config = AgentConfig(hidden_width=8)
    default_net = QNetwork.initialize(layer_sizes(4, AgentConfig()), seed=0)
    with pytest.raises(ValueError, match=re.escape(
        "expected a network with layer sizes (19, 8, 8, 4), got one with (19, 24, 24, 4)")):
        DQNAgent(4, config, network=default_net)
    with pytest.raises(ValueError, match=re.escape("(19, 24, 24, 3), got one with (19, 24, 24, 4)")):
        DQNAgent(3, network=default_net)
    fitting = QNetwork.initialize(layer_sizes(4, config), seed=0)
    agent = DQNAgent(4, config, network=fitting)
    assert agent.network is fitting and agent.n_actions == 4
