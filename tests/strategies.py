"""Hypothesis strategies and helpers shared by the test modules."""
import dataclasses

from hypothesis import strategies as st

from fogdist.model import ResourceUsage
from fogdist.profiles import PROFILE_FORMAT_VERSION, ApplicationProfile, ModuleProfile


def profile_to_dict(profile: ApplicationProfile) -> dict:
    """The profile's JSON form, as `profile_from_dict` reads it."""
    return {"format_version": PROFILE_FORMAT_VERSION, **dataclasses.asdict(profile)}



@st.composite
def application_profiles(draw, max_seconds: float = 1e3, max_data: float = 1e6,
                         max_requests: int = 10_000):
    """Valid profiles with every field drawn: distinct module names, and module
    cpu demand summing to at most 8.  The bounds cap every time, the raw
    payload and the request count, so that simulating a profile stays cheap."""
    seconds = st.floats(0.0, max_seconds)
    share = st.floats(0.0, 1.0, exclude_min=True)
    modules = tuple(
        ModuleProfile(
            name=name, compute_s=draw(seconds), fog_extra_s=draw(seconds),
            data_out_ratio=draw(share), pass_fraction=draw(share),
            demand=ResourceUsage(draw(st.floats(0.0, 2.0)), draw(seconds), draw(seconds)),
        )
        for name in draw(st.lists(st.text(min_size=1), min_size=1, max_size=4, unique=True))
    )
    return ApplicationProfile(
        name=draw(st.text(min_size=1)), modules=modules,
        raw_request_data=draw(st.floats(1e-6, max_data)),
        requests_per_deployment=draw(st.integers(1, max_requests)),
        uplink_seconds_per_raw_unit=draw(seconds),
        base_delay_fog_cloud_ms=draw(seconds), base_delay_dev_cloud_ms=draw(seconds),
    )
