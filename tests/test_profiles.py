"""Profile definitions, calibration constants, and typed JSON reading."""
import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings

from fogdist.env import request_latency_breakdown
from fogdist.harness import ExperimentConfig, config_from_dict
from fogdist.model import PricingModel, ResourceUsage, deployment_cost
from fogdist.profiles import (
    ApplicationProfile,
    ModuleProfile,
    fd_profile,
    heavy_profile,
    ipokemon_profile,
    load_profile,
    profile_from_dict,
    resolve_profile,
)
from strategies import application_profiles, profile_to_dict


def test_builtin_profiles_shapes():
    fd, ipm, heavy = fd_profile(), ipokemon_profile(), heavy_profile()
    assert fd.name == "fd" and fd.n_modules == 3
    assert ipm.name == "ipokemon" and ipm.n_modules == 2
    assert heavy.name == "heavy" and heavy.n_modules == 1


def test_video_profile_calibration_constants():
    """Ratios derived from the measured uplink chain 2.28/0.77/0.52/0.11 s."""
    prof = fd_profile()
    grey, motion, face = prof.modules
    assert grey.data_out_ratio == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert motion.pass_fraction == pytest.approx(0.675, abs=1e-3)
    # whatever survives the whole pipeline is ~4.8% of the raw frame
    surviving = 1.0
    for m in prof.modules:
        surviving *= m.data_out_ratio * m.pass_fraction
    assert surviving == pytest.approx(0.11 / 2.28, rel=1e-9)
    # stage service times as reported: 3-4 ms for the light stages
    assert 0.003 <= grey.compute_s <= 0.004
    assert 0.003 <= motion.compute_s <= 0.004
    assert face.fog_extra_s == 0.2


def test_game_profile_is_latency_shaped():
    """The game's cloud path is delay-dominated, its fog path compute-dominated."""
    prof = ipokemon_profile()
    b0 = request_latency_breakdown(prof, 0)
    b2 = request_latency_breakdown(prof, 2)
    assert b0.propagation_s > 0.5 * b0.total_s   # device-to-cloud delay dominates
    assert b2.total_s < 0.25 * b0.total_s        # serving at the edge is much faster


def test_heavy_profile_cloud_plan_is_cheapest_everywhere():
    """Exhaustive over stress loads: at ratio 1 the cloud plan wins every state."""
    prof = heavy_profile()
    pricing = PricingModel(fog_price_ratio=1.0)
    requests = prof.requests_per_deployment
    for load in range(8):
        available = 8.0 - load
        costs = []
        for k in (0, 1):
            b = request_latency_breakdown(prof, k, available_units=available)
            duration_s = b.total_s * requests
            if k == 0:
                usage = ResourceUsage()
            else:
                busy_frac = sum(b.fog_s) * requests / duration_s
                demand = prof.modules[0].demand
                usage = ResourceUsage(
                    cpu_units=demand.cpu_units * busy_frac,
                    mem_gb=demand.mem_gb * busy_frac,
                    storage_gb=demand.storage_gb * busy_frac,
                )
            costs.append(deployment_cost(k, 1, pricing, usage, duration_s / 3600.0))
        assert costs[0] < costs[1]


def test_get_profile_and_resolve():
    for factory in (fd_profile, ipokemon_profile, heavy_profile):
        assert resolve_profile(factory().name) == factory()
    with pytest.raises(ValueError, match="not a builtin"):
        resolve_profile("not-a-builtin")


def test_profile_json_round_trip(tmp_path):
    original = fd_profile()
    path = tmp_path / "fd.json"
    path.write_text(json.dumps(profile_to_dict(original)))
    loaded = load_profile(path)
    assert loaded == original


def test_load_profile_missing_file_names_the_path(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(ValueError, match="absent.json"):
        load_profile(missing)


def test_profile_from_dict_rejects_unknown_keys():
    data = profile_to_dict(fd_profile())
    data["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        profile_from_dict(data)


def test_profile_from_dict_rejects_unknown_module_keys():
    data = profile_to_dict(fd_profile())
    data["modules"][0]["gpu"] = True
    with pytest.raises(ValueError, match=r"profile.modules\[0\]: unknown key\(s\) \['gpu'\]"):
        profile_from_dict(data)


def test_missing_keys_take_the_dataclass_defaults():
    profile = profile_from_dict({"name": "p", "modules": [{"name": "m"}]})
    assert profile == ApplicationProfile(name="p", modules=(ModuleProfile(name="m"),))
    assert (profile.raw_request_data, profile.requests_per_deployment) == (1.0, 20)
    assert profile.modules[0].compute_s == 0.0
    assert profile.modules[0].demand == ResourceUsage()
    with pytest.raises(ValueError, match=r"profile.modules\[0\]: missing key\(s\) \['name'\]"):
        profile_from_dict({"name": "p", "modules": [{}]})
    with pytest.raises(ValueError, match=r"profile: missing key\(s\) \['modules'\]"):
        profile_from_dict({"name": "p"})


def test_a_record_check_is_prefixed_with_the_record_path():
    data = profile_to_dict(fd_profile())
    data["modules"][2]["demand"]["cpu_units"] = 9.0
    with pytest.raises(ValueError, match=r"^my.json.modules\[2\].demand: .*cpu_units"):
        profile_from_dict(json.loads(json.dumps(data)), where="my.json")


@settings(max_examples=60, deadline=None)
@given(profile=application_profiles())
def test_profile_round_trips_through_json_text(profile):
    assert profile_from_dict(json.loads(json.dumps(profile_to_dict(profile)))) == profile
    assert profile_from_dict(profile_to_dict(profile)) == profile


# -- every field is type-checked, generated from the dataclass fields ----------

# Values of a JSON type each annotation must refuse.
WRONG_JSON = {
    int: ["7", 2.5, True, None],
    float: ["0.5", True, None, [1.0]],
    str: [5, True, None],
    int | None: ["7", 2.5, False],
}


def scalar_fields(cls, chain=()):
    """(JSON key chain, annotation) of every scalar field of `cls`, recursively."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if dataclasses.is_dataclass(kind):
            yield from scalar_fields(kind, chain + (f.name,))
        elif typing.get_origin(kind) is tuple:
            yield from scalar_fields(typing.get_args(kind)[0], chain + (f.name, 0))
        else:
            yield chain + (f.name,), kind


CASES = (
    [("config", chain, kind) for chain, kind in scalar_fields(ExperimentConfig)]
    + [("my.json", chain, kind) for chain, kind in scalar_fields(ApplicationProfile)]
)


def json_path(root: str, chain) -> str:
    return root + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in chain)


@pytest.mark.parametrize("root, chain, kind", CASES, ids=[json_path(r, c) for r, c, _ in CASES])
def test_every_mistyped_field_is_rejected_with_its_path(root, chain, kind):
    read = config_from_dict if root == "config" else (lambda d: profile_from_dict(d, root))
    base = {} if root == "config" else profile_to_dict(fd_profile())
    for wrong in WRONG_JSON[kind]:
        data = json.loads(json.dumps(base))
        node = data
        for key in chain[:-1]:
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        node[chain[-1]] = wrong
        with pytest.raises(ValueError) as raised:
            read(data)
        assert str(raised.value).startswith(f"{json_path(root, chain)}: expected "), wrong


def test_the_generated_cases_cover_every_section():
    covered = {json_path(root, chain) for root, chain, _ in CASES}
    assert {"config.profile", "config.episodes", "config.pricing.vm_hourly",
            "config.weights.qos_weight", "config.agent.discount",
            "config.agent.epsilon_decay", "my.json.requests_per_deployment",
            "my.json.modules[0].compute_s", "my.json.modules[0].demand.cpu_units"} <= covered
    assert "config.agent.epsilon_decays_done" not in covered


def test_repeated_module_names_are_rejected():
    """Names label the stages in calibrate's report and in validation errors."""
    data = json.loads(json.dumps(profile_to_dict(fd_profile())))
    data["modules"][1]["name"] = "greyscale"
    with pytest.raises(ValueError, match=r"^my\.json: profile fd: module name\(s\) \['greyscale'\] "
                                         r"used more than once"):
        profile_from_dict(data, "my.json")


def test_module_validation():
    with pytest.raises(ValueError):
        ModuleProfile(name="m", compute_s=-1.0)
    with pytest.raises(ValueError):
        ModuleProfile(name="m", compute_s=1.0, data_out_ratio=0.0)
    with pytest.raises(ValueError):
        ModuleProfile(name="m", compute_s=1.0, pass_fraction=1.5)


def test_profile_validation():
    module = ModuleProfile(name="m", compute_s=1.0)
    with pytest.raises(ValueError):
        ApplicationProfile(
            name="p", modules=(), raw_request_data=1.0, requests_per_deployment=20,
            uplink_seconds_per_raw_unit=1.0, base_delay_fog_cloud_ms=1.0,
            base_delay_dev_cloud_ms=1.0,
        )
    with pytest.raises(ValueError):
        ApplicationProfile(
            name="p", modules=(module,), raw_request_data=0.0, requests_per_deployment=20,
            uplink_seconds_per_raw_unit=1.0, base_delay_fog_cloud_ms=1.0,
            base_delay_dev_cloud_ms=1.0,
        )
    heavy = ModuleProfile(name="big", compute_s=1.0,
                          demand=ResourceUsage(cpu_units=5.0))
    with pytest.raises(ValueError, match="cpu demand"):
        ApplicationProfile(
            name="p", modules=(heavy, heavy), raw_request_data=1.0,
            requests_per_deployment=20, uplink_seconds_per_raw_unit=1.0,
            base_delay_fog_cloud_ms=1.0, base_delay_dev_cloud_ms=1.0,
        )
