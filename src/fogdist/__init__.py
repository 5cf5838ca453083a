"""Context-aware distribution of pipeline modules between a Fog node and a Cloud VM.

The package simulates a three-tier testbed (device, Fog board, Cloud VM),
prices deployments with a piecewise Cloud/Fog cost model, and trains a
replay-based Q-learning agent to pick, per deployment, how many leading
pipeline modules to host on the Fog node.
"""
from .model import (
    DeploymentOutcome,
    PricingModel,
    ResourceUsage,
    UtilityWeights,
    cloud_cost,
    deployment_cost,
    deployment_utility,
    fog_cost,
    strategy_utility,
)
from .profiles import (
    ApplicationProfile,
    ModuleProfile,
    fd_profile,
    heavy_profile,
    ipokemon_profile,
    load_profile,
    resolve_profile,
)
from .env import (
    FogEnvironment,
    SimClock,
    StressProcess,
    contended_time,
    request_latency_breakdown,
    transmission_time,
)
from .nn import NetworkArchitecture, QNetwork
from .agent import (
    AgentConfig,
    DQNAgent,
    EpsilonSchedule,
    GreedyNetworkStrategy,
    ReplayMemory,
    StaticStrategy,
    Transition,
    load_checkpoint,
    run_episode,
    save_checkpoint,
    train,
)
from .harness import (
    BoxplotStats,
    ExperimentConfig,
    cmd_calibrate,
    cmd_evaluate,
    cmd_latency,
    cmd_sweep,
    cmd_train,
    config_from_dict,
    evaluate_strategies,
    load_config,
    measure_decision_latency,
)

__version__ = "0.1.0"
