"""Deployment-decision agent: replay-based Q-learning plus static baselines.

Each deployment is one decision step: observe the node, pick how many
leading modules to host on the Fog, deploy, and score the result with the
utility model.  The learner keeps a bounded replay memory and, once it
holds more than a minibatch, runs one replay pass per deployment: every
sampled transition contributes a single-action gradient step toward
reward + discount * max of the network on the successor state, with all of
the pass's targets computed before its first step, and the exploration
rate decays one notch.  `AgentConfig` holds and checks every setting, so
its errors name the keys (`epsilon_*`, `hidden_*`, ...); the agent's
decay count is its only exploration state.
A checkpoint is one `Checkpoint` record: the network's parameters next to
the profile (one output per plan) and `config` its layer sizes follow from.
"""
from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .env import STATE_FACTORS, FogEnvironment, SimClock
from .model import (
    DeploymentOutcome,
    PricingModel,
    UtilityWeights,
    deployment_cost,
    deployment_utility,
    strategy_utility,
)
from .nn import QNetwork
from .profiles import (
    ApplicationProfile,
    read_json_file,
    record_from_dict,
    write_text_atomically,
)
from .seeding import derive_seed

CHECKPOINT_FORMAT_VERSION = 6
DEPLOYMENTS_PER_EPISODE = 20


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


class ReplayMemory:
    """Bounded FIFO of transitions with uniform sampling."""

    def __init__(self, capacity: int):
        self._items: deque[Transition] = deque(maxlen=capacity)

    def remember(self, transition: Transition) -> None:
        self._items.append(transition)

    def sample(self, rng: random.Random, n: int) -> list[Transition]:
        """n distinct transitions, uniformly without replacement."""
        if n > len(self._items):
            raise ValueError(f"cannot sample {n} from {len(self._items)} transitions")
        return rng.sample(self._items, n)

    def __len__(self) -> int:
        return len(self._items)


@dataclass(frozen=True)
class AgentConfig:
    discount: float = 0.95
    batch_size: int = 5
    learning_rate: float = 0.001
    replay_capacity: int = 2000
    hidden_layers: int = 2
    hidden_width: int = 24
    # The exploration schedule: rate max(floor, start * decay**t) after t decays.
    epsilon_start: float = 1.0
    epsilon_floor: float = 0.01
    epsilon_decay: float = 0.99

    def __post_init__(self):
        if not 0 <= self.discount < 1:
            raise ValueError("discount must lie in [0, 1)")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        for name in ("batch_size", "replay_capacity", "hidden_layers", "hidden_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.replay_capacity <= self.batch_size:
            # replay waits for more than batch_size remembered transitions
            raise ValueError(
                f"need replay_capacity > batch_size, got {self.replay_capacity} <= {self.batch_size}"
            )
        if not 0 <= self.epsilon_floor <= self.epsilon_start <= 1:
            raise ValueError("need 0 <= epsilon_floor <= epsilon_start <= 1")
        if not 0 < self.epsilon_decay < 1:
            raise ValueError("epsilon_decay must lie in (0, 1)")


def layer_sizes(n_actions: int, config: AgentConfig) -> tuple[int, ...]:
    """The layer sizes of the value network a learner with `n_actions` plans
    and `config` uses: the state factors in, one value out per plan."""
    return (len(STATE_FACTORS), *(config.hidden_width,) * config.hidden_layers, n_actions)


class StaticStrategy:
    """Always deploy the same number of leading modules on the Fog."""

    def __init__(self, fog_modules: int):
        if fog_modules < 0:
            raise ValueError("fog_modules must be >= 0")
        self.fog_modules = fog_modules

    def select_k(self, state_vec: np.ndarray, rng: random.Random) -> int:
        return self.fog_modules


class GreedyNetworkStrategy:
    """Pure exploitation of a trained value network (evaluation mode)."""

    def __init__(self, network: QNetwork):
        self.network = network

    def select_k(self, state_vec: np.ndarray, rng: random.Random) -> int:
        return int(self.network.forward(state_vec).argmax())  # ties break toward the lower plan


class DQNAgent:
    """Learning strategy: epsilon-greedy over a replay-trained value network."""

    def __init__(self, n_actions: int, config: AgentConfig | None = None, seed: int = 0,
                 network: QNetwork | None = None):
        """A fresh learner; `network`, when given, is used in place of a new
        seeded one and must have `layer_sizes(n_actions, config)` (a
        ValueError gives the expected and the actual sizes)."""
        if n_actions < 1:
            raise ValueError("n_actions must be >= 1")
        self.config = config or AgentConfig()
        sizes = layer_sizes(n_actions, self.config)
        if network is None:
            network = QNetwork.initialize(sizes, seed=derive_seed(seed, "q-network"))
        elif network.sizes != sizes:
            raise ValueError(f"expected a network with layer sizes {sizes}, "
                             f"got one with {network.sizes}")
        self.network = network
        self.memory = ReplayMemory(self.config.replay_capacity)
        self.decays_done = 0

    @property
    def n_actions(self) -> int:
        return self.network.sizes[-1]

    @property
    def epsilon(self) -> float:
        """The exploration rate: exactly max(floor, start * decay**t) after t
        decays, a closed form that keeps long runs free of accumulated rounding."""
        c = self.config
        return max(c.epsilon_floor, c.epsilon_start * c.epsilon_decay ** self.decays_done)

    def decay_exploration(self) -> None:
        """One multiplicative decay; a no-op once the floor is reached."""
        if self.epsilon > self.config.epsilon_floor:
            self.decays_done += 1

    def select_k(self, state_vec: np.ndarray, rng: random.Random) -> int:
        if rng.random() <= self.epsilon:
            return rng.randrange(self.n_actions)
        return int(self.network.forward(state_vec).argmax())

    def compute_target(self, transition: Transition) -> float:
        """Bootstrap target: the reward, plus the discounted best successor value."""
        if transition.terminal:
            return transition.reward
        successor = self.network.forward(transition.next_state)
        return transition.reward + self.config.discount * float(successor.max())

    def replay(self, rng: random.Random) -> float | None:
        """One replay pass; returns the mean pre-step loss, or None if skipped.

        Runs only once the memory holds strictly more than a minibatch.  All
        targets come from the network as it stands before the pass; the
        per-sample steps then run in order.  A target or loss that is not
        finite raises a ValueError: training has diverged.  `sgd_step` checks
        the loss before it writes, so the network keeps its pre-step weights.
        """
        if len(self.memory) <= self.config.batch_size:
            return None
        batch = self.memory.sample(rng, self.config.batch_size)
        # One forward per sample: a single batched product rounds differently
        # and would change the learning curves.
        targets = [self.compute_target(transition) for transition in batch]
        for target in targets:
            if not math.isfinite(target):
                raise ValueError(f"training diverged at learning_rate="
                                 f"{self.config.learning_rate!r}: a replay target is {target!r}")
        losses = [
            self.network.sgd_step(
                transition.state, transition.action, target, self.config.learning_rate
            )
            for transition, target in zip(batch, targets)
        ]
        return math.fsum(losses) / len(losses)

    def observe_transition(self, transition: Transition, rng: random.Random) -> float | None:
        """Store, replay, and decay; mirrors one decision step of the learner."""
        self.memory.remember(transition)
        loss = self.replay(rng)
        if loss is not None:
            # Exploration decays only on steps that actually learned.
            self.decay_exploration()
        return loss

    def greedy_strategy(self) -> GreedyNetworkStrategy:
        return GreedyNetworkStrategy(self.network)


def price_deployment(outcome: DeploymentOutcome, n_modules: int, pricing: PricingModel) -> float:
    """What one deployment costs under `pricing`; the utility weights play no part."""
    return deployment_cost(
        outcome.fog_modules, n_modules, pricing, outcome.usage, outcome.duration_s / 3600.0
    )


def score_episode(outcomes, costs, weights: UtilityWeights) -> float:
    """The utility under ``weights`` of an already simulated episode whose
    deployments cost ``costs`` (`price_deployment` of each, in order)."""
    return strategy_utility(deployment_utility(weights, o, c) for o, c in zip(outcomes, costs))


def simulate_episode(
    env: FogEnvironment,
    strategy,
    rng: random.Random,
    deployments: int = DEPLOYMENTS_PER_EPISODE,
    after_deployment=None,
) -> list[DeploymentOutcome]:
    """The episode loop: a fixed number of deployments on a single environment.

    Each step observes the node, lets the strategy pick a plan, and deploys
    it; the next decision sees the freshly observed state.
    ``after_deployment(state, outcome, next_state, terminal)``, when given,
    runs after every deployment and only observes.  Nothing here reads
    prices or weights, so a strategy that does not learn yields the same
    outcomes under every (pricing, weights) cell.
    """
    if deployments < 1:
        raise ValueError("deployments must be >= 1")
    clock = SimClock()
    state = env.observe(clock)
    outcomes = []
    for j in range(1, deployments + 1):
        outcome = env.execute(strategy.select_k(state, rng), clock)
        outcomes.append(outcome)
        next_state = env.observe(clock)
        if after_deployment is not None:
            after_deployment(state, outcome, next_state, j == deployments)
        state = next_state
    return outcomes


def run_episode(
    env: FogEnvironment,
    agent: DQNAgent,
    pricing: PricingModel,
    weights: UtilityWeights,
    rng: random.Random,
    deployments: int,
) -> float:
    """One training episode: simulate, scoring each deployment as it happens;
    returns the episode's utility, the `strategy_utility` of its rewards.

    Each deployment's transition is stored, with its utility as the reward
    and the freshly observed state as the successor, and the agent replays
    before its next decision.
    """
    n = env.profile.n_modules
    rewards = []

    def score_and_learn(state, outcome, next_state, terminal):
        try:
            reward = deployment_utility(weights, outcome, price_deployment(outcome, n, pricing))
            agent.observe_transition(
                Transition(
                    state=state,
                    action=outcome.fog_modules,
                    reward=reward,
                    next_state=next_state,
                    terminal=terminal,
                ),
                rng,
            )
        except ValueError as exc:
            raise ValueError(f"deployment {len(rewards) + 1}: {exc}") from None
        rewards.append(reward)

    simulate_episode(env, agent, rng, deployments, after_deployment=score_and_learn)
    return strategy_utility(rewards)


def train(
    profile: ApplicationProfile,
    agent: DQNAgent,
    episodes: int,
    pricing: PricingModel,
    weights: UtilityWeights,
    master_seed: int,
    deployments: int = DEPLOYMENTS_PER_EPISODE,
) -> list[float]:
    """Train in place over sequential episodes; returns per-episode utility.

    The network, the memory and the decay count persist across episodes;
    each episode runs on a fresh environment whose stress seed derives from
    the master seed and the episode index.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if agent.n_actions != profile.n_modules + 1:
        raise ValueError(
            f"agent has {agent.n_actions} actions but profile {profile.name!r} "
            f"needs {profile.n_modules + 1}"
        )
    rng = random.Random(derive_seed(master_seed, "agent-actions"))
    curve = []
    for episode in range(episodes):
        env = FogEnvironment(profile, seed=derive_seed(master_seed, "train-episode", episode))
        try:
            curve.append(run_episode(env, agent, pricing, weights, rng, deployments=deployments))
        except ValueError as exc:
            raise ValueError(f"episode {episode + 1}: {exc}") from None
    return curve


# -- checkpointing ----------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    """What a checkpoint was trained under."""

    config_hash: str
    master_seed: int
    weights: UtilityWeights


@dataclass(frozen=True)
class Checkpoint:
    """A checkpoint file's content, key for key; `network` is `QNetwork.to_dict`."""

    format_version: int
    kind: str
    profile: ApplicationProfile
    config: AgentConfig
    decays_done: int
    network: dict
    provenance: Provenance

    def __post_init__(self):
        if self.decays_done < 0:
            raise ValueError(f"decays_done: must be >= 0, got {self.decays_done}")


def save_checkpoint(agent: DQNAgent, path: str | Path, profile: ApplicationProfile,
                    provenance: Provenance) -> None:
    """Write the agent, trained on `profile`, to a versioned JSON file; a
    ValueError, writing nothing, if its actions are not the profile's plans
    or a value is not finite."""
    if agent.n_actions != profile.n_modules + 1:
        raise ValueError(f"{path}: agent has {agent.n_actions} actions but profile "
                         f"{profile.name!r} has {profile.n_modules + 1} plans")
    record = Checkpoint(CHECKPOINT_FORMAT_VERSION, "fogdist-agent", profile, agent.config,
                        agent.decays_done, agent.network.to_dict(), provenance)
    try:
        # `default=asdict` expands the nested records; the network's floats are not copied.
        text = json.dumps(vars(record), default=asdict, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: cannot write a checkpoint with non-finite values ({exc})") from None
    write_text_atomically(Path(path), text)


def load_checkpoint(path: str | Path) -> tuple[DQNAgent, Checkpoint]:
    """Restore an agent from a checkpoint; returns (agent, record).  The
    agent has one action per plan of the record's profile."""
    path = Path(path)
    data = read_json_file(path, "checkpoint")
    if not isinstance(data, dict) or data.get("kind") != "fogdist-agent":
        raise ValueError(f"{path}: not a fogdist agent checkpoint")
    version = data.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"{path}: checkpoint format version {version!r} is not supported "
            f"(expected {CHECKPOINT_FORMAT_VERSION}); retrain to write a current checkpoint"
        )
    record = record_from_dict(Checkpoint, data, str(path))
    n_actions = record.profile.n_modules + 1
    network = QNetwork.from_dict(
        record.network, layer_sizes(n_actions, record.config), f"{path}.network"
    )
    agent = DQNAgent(n_actions, record.config, network=network)
    agent.decays_done = record.decays_done
    return agent, record
