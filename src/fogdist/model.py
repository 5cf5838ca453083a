"""Pricing, cost, and utility model for Cloud/Fog module distribution.

A deployment plan is described by the number of leading pipeline modules
hosted on the Fog node (``fog_modules``, 0..N).  Plan 0 runs everything on
the Cloud VM, plan N runs everything on the Fog node, and anything in
between pays for both tiers.

Unit conventions, which the rest of the package relies on:

* durations entering the QoS term are in seconds,
* resource prices are per hour, so the cost helpers take hours,
* memory and storage are in gigabytes, CPU in allocation units (cores).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Hourly unit prices; VM price matches an on-demand t2.micro, the resource
# prices match per-unit EC2 rates used to price the Fog node's hardware.
DEFAULT_VM_HOURLY = 0.0132
DEFAULT_CPU_HOURLY = 0.04073
DEFAULT_MEM_HOURLY = 0.005458
DEFAULT_STORAGE_HOURLY = 0.000032

# Fog/Cloud price ratio: how the Fog owner prices a used resource unit
# relative to the Cloud provider's rate for the same unit.
DEFAULT_FOG_PRICE_RATIO = 0.01
FOG_PRICE_RATIO_GRID = (0.001, 0.01, 0.1, 1.0)

# A Fog node exposes 8 allocation units (1 core each); per-plan demand may
# not exceed the node.
MAX_CPU_UNITS = 8.0


@dataclass(frozen=True)
class PricingModel:
    """Hourly unit prices plus the fog/cloud price ratio."""

    vm_hourly: float = DEFAULT_VM_HOURLY
    cpu_hourly: float = DEFAULT_CPU_HOURLY
    mem_hourly: float = DEFAULT_MEM_HOURLY
    storage_hourly: float = DEFAULT_STORAGE_HOURLY
    fog_price_ratio: float = DEFAULT_FOG_PRICE_RATIO

    def __post_init__(self):
        for name in ("vm_hourly", "cpu_hourly", "mem_hourly", "storage_hourly"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"pricing.{name}: must be a finite price >= 0, got {value!r}")
        if not math.isfinite(self.fog_price_ratio) or not 0 < self.fog_price_ratio <= 10:
            raise ValueError(
                f"pricing.fog_price_ratio: must lie in (0, 10], got {self.fog_price_ratio!r}"
            )


@dataclass(frozen=True)
class UtilityWeights:
    """Weights of the QoS and cost terms; both <= 0, not both zero.

    Utility is negative and maximised toward zero.  qos_weight = 0 gives a
    cost-only strategy, cost_weight = 0 a QoS-only strategy.
    """

    qos_weight: float = -1.0
    cost_weight: float = -1.0

    def __post_init__(self):
        if not (math.isfinite(self.qos_weight) and math.isfinite(self.cost_weight)):
            raise ValueError("utility weights must be finite")
        if self.qos_weight > 0 or self.cost_weight > 0:
            raise ValueError(
                f"utility weights must be <= 0, got ({self.qos_weight!r}, {self.cost_weight!r})"
            )
        if self.qos_weight == 0 and self.cost_weight == 0:
            raise ValueError("utility weights must not both be zero")


@dataclass(frozen=True)
class ResourceUsage:
    """Average Fog-node resources consumed over one deployment."""

    cpu_units: float = 0.0
    mem_gb: float = 0.0
    storage_gb: float = 0.0

    def __post_init__(self):
        for name in ("cpu_units", "mem_gb", "storage_gb"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"usage.{name}: must be finite and >= 0, got {value!r}")
        if self.cpu_units > MAX_CPU_UNITS:
            raise ValueError(
                f"usage.cpu_units: exceeds node capacity {MAX_CPU_UNITS}, got {self.cpu_units!r}"
            )


@dataclass(frozen=True)
class DeploymentOutcome:
    """What one deployment produced: duration, traffic, and Fog usage."""

    fog_modules: int
    duration_s: float
    requests: int
    usage: ResourceUsage

    def __post_init__(self):
        if self.fog_modules < 0:
            raise ValueError(f"outcome.fog_modules: must be >= 0, got {self.fog_modules!r}")
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise ValueError(f"outcome.duration_s: must be > 0, got {self.duration_s!r}")
        if self.requests < 1:
            raise ValueError(f"outcome.requests: must be >= 1, got {self.requests!r}")


def cloud_cost(pricing: PricingModel, duration_hours: float) -> float:
    """Pay-as-you-go VM cost: hourly price times occupied hours."""
    if not math.isfinite(duration_hours) or duration_hours < 0:
        raise ValueError(f"duration_hours must be finite and >= 0, got {duration_hours!r}")
    return pricing.vm_hourly * duration_hours


def fog_cost(pricing: PricingModel, usage: ResourceUsage, duration_hours: float) -> float:
    """Fog cost: price ratio times the per-unit rates of used resources times hours.

    With defaults and usage (1 cpu, 0.25 GB, 0) for one hour:
    0.01 * (0.04073*1 + 0.005458*0.25 + 0.000032*0) = 0.00042094500...
    """
    if not math.isfinite(duration_hours) or duration_hours < 0:
        raise ValueError(f"duration_hours must be finite and >= 0, got {duration_hours!r}")
    hourly = (
        pricing.cpu_hourly * usage.cpu_units
        + pricing.mem_hourly * usage.mem_gb
        + pricing.storage_hourly * usage.storage_gb
    )
    return pricing.fog_price_ratio * hourly * duration_hours


def deployment_cost(
    fog_modules: int,
    n_modules: int,
    pricing: PricingModel,
    usage: ResourceUsage,
    duration_hours: float,
) -> float:
    """Piecewise plan cost: Cloud only, Fog only, or both tiers.

    Plan 0 pays only the VM, plan N only the Fog node, and a split plan pays
    both since the pipeline occupies the two tiers at once.
    """
    if n_modules < 1:
        raise ValueError(f"n_modules must be >= 1, got {n_modules!r}")
    if not 0 <= fog_modules <= n_modules:
        raise ValueError(
            f"fog_modules must lie in [0, {n_modules}], got {fog_modules!r}"
        )
    if fog_modules == 0:
        return cloud_cost(pricing, duration_hours)
    if fog_modules == n_modules:
        return fog_cost(pricing, usage, duration_hours)
    return cloud_cost(pricing, duration_hours) + fog_cost(pricing, usage, duration_hours)


def deployment_utility(weights: UtilityWeights, outcome: DeploymentOutcome, cost: float) -> float:
    """Utility of one deployment: qos_weight*(duration/requests) + cost_weight*cost.

    A ValueError if it is not finite: a cost that is not, or weights too
    large for float64 to hold the products.
    """
    per_request_s = outcome.duration_s / outcome.requests
    utility = weights.qos_weight * per_request_s + weights.cost_weight * cost
    if not math.isfinite(utility):
        raise ValueError(
            f"deployment utility is {utility!r} at weights ({weights.qos_weight!r}, "
            f"{weights.cost_weight!r}), {per_request_s!r} s per request and cost {cost!r}"
        )
    return utility


def strategy_utility(deployment_utilities) -> float:
    """Total utility of a strategy: exactly rounded sum over its deployments;
    a ValueError if that sum lies beyond float64's range."""
    values = list(deployment_utilities)
    if not values:
        raise ValueError("strategy_utility needs at least one deployment utility")
    try:
        return math.fsum(values)
    except OverflowError:
        raise ValueError(f"the utility of {len(values)} deployments, "
                         f"from {min(values)!r} to {max(values)!r}, overflows float64") from None
