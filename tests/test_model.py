"""Cost and utility model tests with hand-computed expected values."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogdist.model import (
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

REL = 1e-12


def test_cloud_cost_defaults():
    """One hour on the default VM costs exactly the hourly price."""
    p = PricingModel()
    assert cloud_cost(p, 1.0) == pytest.approx(0.0132, rel=REL)
    # 2 h -> 0.0132 * 2 = 0.0264
    assert cloud_cost(p, 2.0) == pytest.approx(0.0264, rel=REL)
    assert cloud_cost(p, 0.0) == 0.0


def test_cloud_cost_rejects_negative_duration():
    with pytest.raises(ValueError):
        cloud_cost(PricingModel(), -0.1)


def test_fog_cost_worked_example():
    """1 cpu + 0.25 GB for 1 h at ratio 0.01.

    0.01 * (0.04073*1 + 0.005458*0.25 + 0.000032*0) * 1 = 0.000420945
    """
    p = PricingModel()
    usage = ResourceUsage(cpu_units=1.0, mem_gb=0.25, storage_gb=0.0)
    assert fog_cost(p, usage, 1.0) == pytest.approx(0.000420945, rel=REL)


def test_fog_cost_zero_usage_is_free():
    assert fog_cost(PricingModel(), ResourceUsage(), 5.0) == 0.0


def test_fog_cost_scales_linearly_with_ratio():
    usage = ResourceUsage(cpu_units=2.0, mem_gb=1.0, storage_gb=4.0)
    low = fog_cost(PricingModel(fog_price_ratio=0.001), usage, 2.0)
    high = fog_cost(PricingModel(fog_price_ratio=1.0), usage, 2.0)
    assert high == pytest.approx(1000.0 * low, rel=REL)


def test_fog_cost_scales_linearly_with_duration():
    p = PricingModel()
    usage = ResourceUsage(cpu_units=3.0, mem_gb=0.5, storage_gb=1.0)
    assert fog_cost(p, usage, 4.0) == pytest.approx(2.0 * fog_cost(p, usage, 2.0), rel=REL)


def test_deployment_cost_piecewise():
    """Plan 0 -> VM only, plan N -> fog only, split plan -> both."""
    p = PricingModel()
    usage = ResourceUsage(cpu_units=1.0, mem_gb=0.25, storage_gb=0.0)
    t = 1.0
    only_cloud = deployment_cost(0, 3, p, ResourceUsage(), t)
    only_fog = deployment_cost(3, 3, p, usage, t)
    split = deployment_cost(1, 3, p, usage, t)
    assert only_cloud == pytest.approx(0.0132, rel=REL)
    assert only_fog == pytest.approx(0.000420945, rel=REL)
    # split pays both tiers: 0.0132 + 0.000420945 = 0.013620945
    assert split == pytest.approx(0.013620945, rel=REL)
    assert split == pytest.approx(only_cloud + only_fog, rel=REL)


@settings(max_examples=100, deadline=None)
@given(
    ratios=st.lists(st.floats(0.0, 10.0, exclude_min=True), min_size=2, max_size=2),
    cpu=st.floats(0.0, 8.0), mem=st.floats(0.0, 1e3), storage=st.floats(0.0, 1e3),
    hours=st.floats(0.0, 1e3), data=st.data(),
)
def test_deployment_cost_never_falls_as_the_price_ratio_rises(ratios, cpu, mem, storage,
                                                               hours, data):
    n_modules = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, n_modules))
    usage = ResourceUsage(cpu_units=cpu, mem_gb=mem, storage_gb=storage)
    low, high = sorted(ratios)
    assert deployment_cost(k, n_modules, PricingModel(fog_price_ratio=low), usage, hours) \
        <= deployment_cost(k, n_modules, PricingModel(fog_price_ratio=high), usage, hours)


def test_deployment_cost_rejects_out_of_range_plans():
    p = PricingModel()
    with pytest.raises(ValueError):
        deployment_cost(4, 3, p, ResourceUsage(), 1.0)
    with pytest.raises(ValueError):
        deployment_cost(-1, 3, p, ResourceUsage(), 1.0)
    with pytest.raises(ValueError):
        deployment_cost(0, 0, p, ResourceUsage(), 1.0)


def test_deployment_utility_hand_values():
    outcome = DeploymentOutcome(fog_modules=1, duration_s=10.0, requests=20,
                                usage=ResourceUsage())
    # qos only: -1 * 10/20 = -0.5
    assert deployment_utility(UtilityWeights(-1.0, 0.0), outcome, 123.0) == pytest.approx(-0.5, rel=REL)
    # cost only: -1 * 0.001
    assert deployment_utility(UtilityWeights(0.0, -1.0), outcome, 0.001) == pytest.approx(-0.001, rel=REL)
    # hybrid: -0.5 - 0.001 = -0.501
    assert deployment_utility(UtilityWeights(), outcome, 0.001) == pytest.approx(-0.501, rel=REL)


def test_utility_monotone_in_duration_and_cost():
    """More time or more money never increases utility (weights <= 0)."""
    rng = random.Random(4)
    w = UtilityWeights(-0.7, -0.3)
    for _ in range(200):
        t = rng.uniform(1.0, 100.0)
        cost = rng.uniform(0.0, 1.0)
        base = deployment_utility(
            w, DeploymentOutcome(0, t, 20, ResourceUsage()), cost)
        worse_t = deployment_utility(
            w, DeploymentOutcome(0, t + rng.uniform(0.1, 10), 20, ResourceUsage()), cost)
        worse_c = deployment_utility(
            w, DeploymentOutcome(0, t, 20, ResourceUsage()), cost + rng.uniform(0.01, 1))
        assert worse_t < base
        assert worse_c < base


def test_cost_only_weights_make_argmax_match_argmin_cost():
    """With the QoS weight at zero, utility ordering is cost ordering, reversed."""
    w = UtilityWeights(qos_weight=0.0, cost_weight=-1.0)
    outcome = DeploymentOutcome(0, 5.0, 20, ResourceUsage())
    costs = [0.4, 0.02, 0.9, 0.11]
    utilities = [deployment_utility(w, outcome, c) for c in costs]
    assert utilities.index(max(utilities)) == costs.index(min(costs))


def test_strategy_utility_sums_exactly():
    # 20 deployments at -0.1 each -> -2.0
    assert strategy_utility([-0.1] * 20) == pytest.approx(-2.0, rel=REL)
    assert strategy_utility([-1.5]) == -1.5


def test_strategy_utility_is_permutation_invariant():
    rng = random.Random(9)
    values = [rng.uniform(-3, 0) for _ in range(50)]
    shuffled = values[:]
    rng.shuffle(shuffled)
    # fsum is exactly rounded, so the sums are equal bit for bit
    assert strategy_utility(values) == strategy_utility(shuffled)


def test_strategy_utility_rejects_empty():
    with pytest.raises(ValueError):
        strategy_utility([])


@pytest.mark.parametrize("weights, cost", [
    (UtilityWeights(-1.0, -1.0), float("inf")),
    (UtilityWeights(-1.0, 0.0), float("inf")),
    (UtilityWeights(-1.0, -1.0), float("nan")),
    (UtilityWeights(-1e308, -1.0), 0.0),
    (UtilityWeights(-1.0, -1e308), 1e10),
], ids=["inf-cost", "inf-cost-unweighted", "nan-cost", "qos-overflow", "cost-overflow"])
def test_deployment_utility_refuses_a_result_that_is_not_finite(weights, cost):
    outcome = DeploymentOutcome(fog_modules=1, duration_s=100.0, requests=20,
                                usage=ResourceUsage())
    with pytest.raises(ValueError, match=r"^deployment utility is (-inf|nan) at weights "):
        deployment_utility(weights, outcome, cost)


def test_strategy_utility_refuses_a_sum_beyond_the_float_range():
    with pytest.raises(ValueError, match=r"^the utility of 3 deployments, from -1e\+308 to "
                                         r"-1e\+308, overflows float64$"):
        strategy_utility([-1e308] * 3)


def test_pricing_validation():
    with pytest.raises(ValueError):
        PricingModel(vm_hourly=-0.01)
    with pytest.raises(ValueError):
        PricingModel(fog_price_ratio=0.0)
    with pytest.raises(ValueError):
        PricingModel(fog_price_ratio=10.5)
    PricingModel(fog_price_ratio=10.0)  # boundary is allowed


def test_weights_validation():
    with pytest.raises(ValueError):
        UtilityWeights(0.5, -1.0)
    with pytest.raises(ValueError):
        UtilityWeights(0.0, 0.0)
    UtilityWeights(0.0, -1.0)
    UtilityWeights(-1.0, 0.0)


def test_usage_validation():
    with pytest.raises(ValueError):
        ResourceUsage(cpu_units=-1.0)
    with pytest.raises(ValueError):
        ResourceUsage(cpu_units=8.5)  # node has 8 units
    with pytest.raises(ValueError):
        ResourceUsage(mem_gb=float("nan"))


def test_outcome_validation():
    with pytest.raises(ValueError):
        DeploymentOutcome(0, 0.0, 20, ResourceUsage())   # needs positive duration
    with pytest.raises(ValueError):
        DeploymentOutcome(0, 5.0, 0, ResourceUsage())    # needs at least one request
    with pytest.raises(ValueError):
        DeploymentOutcome(-1, 5.0, 20, ResourceUsage())
