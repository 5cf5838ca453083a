"""Command-line entry point.

Exit codes: 0 on success, 1 on configuration/validation errors and on an
input or output path that cannot be used, 2 when a calibration check fails.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    cmd_calibrate,
    cmd_evaluate,
    cmd_latency,
    cmd_sweep,
    cmd_train,
    config_from_dict,
    load_config,
)
from .model import FOG_PRICE_RATIO_GRID, PricingModel, UtilityWeights
from .profiles import resolve_profile

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CALIBRATION = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogdist",
        description="Train and evaluate context-aware Fog/Cloud module distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to an experiment config JSON")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out-dir", default="out", help="directory for emitted files")
        p.add_argument("--episodes", type=int, help="override the training episode count")
        p.add_argument("--lambda", dest="fog_price_ratio", type=float,
                       help="override the fog/cloud price ratio")
        p.add_argument("--alpha", dest="qos_weight", type=float,
                       help="override the QoS weight (<= 0)")
        p.add_argument("--beta", dest="cost_weight", type=float,
                       help="override the cost weight (<= 0)")

    p_train = sub.add_parser("train", help="train the decision agent")
    add_common(p_train)

    p_eval = sub.add_parser("evaluate", help="compare trained policy with static plans")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="trained agent checkpoint")

    p_sweep = sub.add_parser("sweep", help="price-ratio / weight grid evaluation")
    add_common(p_sweep)
    p_sweep.add_argument("--checkpoint", help="include the trained policy in the grid")
    p_sweep.add_argument(
        "--ratios", default=",".join(str(r) for r in FOG_PRICE_RATIO_GRID),
        help="comma-separated fog price ratios",
    )
    p_sweep.add_argument(
        "--weights", action="append", default=None, metavar="QOS:COST",
        help="weight pair, repeatable (e.g. -1:0)",
    )

    p_cal = sub.add_parser("calibrate", help="report and check the latency calibration")
    p_cal.add_argument("--profile", default="fd", help="builtin name or profile JSON path")

    p_lat = sub.add_parser("latency", help="measure greedy decision overhead")
    add_common(p_lat)
    p_lat.add_argument("--checkpoint", required=True, help="trained agent checkpoint")
    p_lat.add_argument("--samples", type=int, default=10_000, help="number of decisions")

    return parser


def _flagged(flags: str, build):
    """``build()``; a ValueError it raises is prefixed with ``flags``, the
    command-line flags and values it was built from."""
    try:
        return build()
    except ValueError as exc:
        raise ValueError(f"{flags}: {exc}") from None


def _config_from_args(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else config_from_dict({})
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    if args.episodes is not None:
        cfg = _flagged(f"--episodes {args.episodes}",
                       lambda: dataclasses.replace(cfg, episodes=args.episodes))
    if args.fog_price_ratio is not None:
        cfg = _flagged(f"--lambda {args.fog_price_ratio}", lambda: dataclasses.replace(
            cfg, pricing=dataclasses.replace(cfg.pricing, fog_price_ratio=args.fog_price_ratio)))
    if args.qos_weight is not None or args.cost_weight is not None:
        flags = " ".join(f"{flag} {value}" for flag, value in
                         (("--alpha", args.qos_weight), ("--beta", args.cost_weight))
                         if value is not None)
        cfg = _flagged(flags, lambda: dataclasses.replace(cfg, weights=UtilityWeights(
            qos_weight=args.qos_weight if args.qos_weight is not None else cfg.weights.qos_weight,
            cost_weight=args.cost_weight if args.cost_weight is not None else cfg.weights.cost_weight,
        )))
    return cfg


def _parse_grid(flag: str, items, parse) -> list:
    """Each item parsed; a ValueError names the flag and the bad item, or
    the flag alone when there is no item."""
    values = [_flagged(f"{flag} {item!r}", lambda: parse(item)) for item in items]
    if not values:
        raise ValueError(f"{flag}: must list at least one value")
    return values


def _weights(item: str) -> UtilityWeights:
    qos_text, cost_text = item.split(":")
    return UtilityWeights(qos_weight=float(qos_text), cost_weight=float(cost_text))


def _check_out_dir(out_dir: str) -> None:
    """Refuse, before any work, an --out-dir that is a file or lies under one."""
    existing = Path(out_dir)
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ValueError(f"--out-dir {out_dir}: {existing} is not a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "out_dir"):
            _check_out_dir(args.out_dir)
        if args.command == "train":
            curve = cmd_train(_config_from_args(args), args.out_dir)
            print(f"trained {len(curve)} episodes "
                  f"(first {curve[0]:.4f}, last {curve[-1]:.4f}); "
                  f"files in {args.out_dir}")
            return EXIT_OK

        if args.command == "evaluate":
            boxplots = cmd_evaluate(_config_from_args(args), args.checkpoint, args.out_dir)
            for name, stats in sorted(boxplots.items()):
                print(f"{name}: median={stats.median:.5f} mean={stats.mean:.5f} "
                      f"iqr={stats.iqr:.5f} (n={stats.count})")
            return EXIT_OK

        if args.command == "sweep":
            cfg = _config_from_args(args)
            ratios = _parse_grid("--ratios", [r for r in args.ratios.split(",") if r],
                                 lambda item: PricingModel(fog_price_ratio=float(item)).fog_price_ratio)
            weight_grid = None if args.weights is None else \
                _parse_grid("--weights", args.weights, _weights)
            mean_costs = cmd_sweep(
                cfg, args.out_dir, ratio_grid=ratios, weight_grid=weight_grid,
                checkpoint=args.checkpoint,
            )
            for (ratio, name), cost in sorted(mean_costs.items()):
                print(f"ratio={ratio}: {name} mean deployment cost {cost:.8f}")
            return EXIT_OK

        if args.command == "calibrate":
            report = cmd_calibrate(resolve_profile(args.profile))
            for line in report.lines():
                print(line)
            return EXIT_OK if report.passed else EXIT_CALIBRATION

        if args.command == "latency":
            if args.samples < 1:
                raise ValueError(f"--samples {args.samples}: must be >= 1")
            stats = cmd_latency(_config_from_args(args), args.checkpoint, args.out_dir,
                                n=args.samples)
            print("decision latency (ms): "
                  f"min={stats.minimum:.3f} q1={stats.q1:.3f} median={stats.median:.3f} "
                  f"mean={stats.mean:.3f} q3={stats.q3:.3f} max={stats.maximum:.3f}")
            return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
