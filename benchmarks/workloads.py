"""The benchmark's workloads: what each one runs, at what size, and what it emits.

Every workload is a closed loop of `fogdist.cli.main` calls from one
single-threaded process: the next call starts when the previous one
returned.  The workload seed becomes the master seed of each call.  Before
timing, every workload trains a checkpoint on its profile (the prep).

* ``train-fd`` trains on ``fd`` with the default agent config.  Replay and
  SGD dominate it, so learner changes show here and simulation-side changes
  show only in its smaller simulation share.
* ``sweep-grid-fd`` sweeps ``fd``'s static plans over the four default price
  ratios and three weight pairs, twelve cells, with no learner.  Changes to
  the simulator and to scoring show here; learner changes predict no change.
* ``evaluate-ipokemon`` evaluates the prep checkpoint against the static plans on ``ipokemon``.  Its 100 short requests per
  deployment exercise the per-request path differently from ``fd``'s 20
  long ones, and its single price/weight cell makes it the no-change
  control for work shared across grid cells.

This module does not import fogdist, so the orchestrator can name and size
workloads in a directory that has no program.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 2026
RATIOS = (0.001, 0.01, 0.1, 1.0)           # fogdist's default price-ratio grid
WEIGHT_PAIRS = ("-1:-1", "-1:0", "0:-1")    # (qos, cost) weight pairs of the sweep
DEPLOYMENTS_PER_EPISODE = 20                # fogdist's default episode length


@dataclass(frozen=True)
class Sizes:
    """How much work the prep, one timed call and one probe do.

    Timed calls are kept short (about half a second here) so that a run
    holds dozens of them and their median is steady.
    """

    prep_episodes: int = 150        # the untimed checkpoint every workload trains first
    tail_episodes: int = 100        # learning-curve tail behind train_tail_neg_utility
    train_episodes: int = 25        # one timed train-fd call
    sweep_experiments: int = 2
    eval_experiments: int = 6
    decision_states: int = 10_000   # greedy decisions per latency round
    setup_probes: int = 9           # fresh processes behind setup_s, spread over the run


FULL = Sizes()
# For the benchmark's own smoke tests only.
TINY = Sizes(prep_episodes=4, tail_episodes=2, train_episodes=3, sweep_experiments=1,
             eval_experiments=2, decision_states=200, setup_probes=1)


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    command: str                  # fogdist CLI sub-command run in the timed loop

    @property
    def cells(self) -> int:
        """Price/weight grid cells one iteration scores (0 when it only trains)."""
        return {"train": 0, "evaluate": 1, "sweep": len(RATIOS) * len(WEIGHT_PAIRS)}[self.command]

    def config(self, sizes: Sizes) -> dict:
        """The experiment config JSON the CLI is given."""
        experiments = sizes.sweep_experiments if self.command == "sweep" else sizes.eval_experiments
        return {"profile": self.profile, "episodes": sizes.train_episodes,
                "eval_experiments": experiments}

    def prep_config(self, sizes: Sizes) -> dict:
        """Config of the prep training: its checkpoint and learning curve
        feed the decision-latency rounds, the tail utility and `evaluate`."""
        return {"profile": self.profile, "episodes": sizes.prep_episodes, "eval_experiments": 1}

    def argv(self, config: Path, seed: int, out_dir: Path, checkpoint: Path | None) -> list[str]:
        """CLI arguments of one timed call."""
        args = [self.command, "--config", str(config), "--seed", str(seed),
                "--out-dir", str(out_dir)]
        if self.command == "evaluate":
            args += ["--checkpoint", str(checkpoint)]
        if self.command == "sweep":
            args += ["--ratios", ",".join(str(r) for r in RATIOS)]
            args += [f"--weights={pair}" for pair in WEIGHT_PAIRS]
        return args

    def approaches(self, n_modules: int) -> list[str]:
        names = [f"s{k}" for k in range(n_modules + 1)]
        return names if self.command == "sweep" else names + ["context-aware"]

    def scored_deployments(self, sizes: Sizes, n_modules: int) -> int:
        """Deployments one iteration simulates and scores."""
        if self.command == "train":
            return sizes.train_episodes * DEPLOYMENTS_PER_EPISODE
        experiments = self.config(sizes)["eval_experiments"]
        return self.cells * len(self.approaches(n_modules)) * experiments * DEPLOYMENTS_PER_EPISODE


WORKLOADS = {w.name: w for w in (
    Workload("train-fd", "fd", "train"),
    Workload("sweep-grid-fd", "fd", "sweep"),
    Workload("evaluate-ipokemon", "ipokemon", "evaluate"),
)}
