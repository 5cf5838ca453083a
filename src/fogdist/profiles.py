"""Application profiles: module pipelines and their traffic shape.

An application is a linear pipeline of modules.  Each request enters at the
first module; every module shrinks the payload by ``data_out_ratio`` and
forwards only ``pass_fraction`` of the requests downstream (a filter stage
such as motion detection drops the rest).  The profile also fixes how long a
raw request takes on the fog-to-cloud uplink, which anchors the whole
transmission model.

Profiles can be loaded from JSON so new use-cases need no code changes; see
``load_profile`` and the README for the schema.  ``record_from_dict``, the
one reader of typed JSON records, also reads experiment configs and agent
checkpoints.
"""
from __future__ import annotations

import functools
import json
import math
import os
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from .model import MAX_CPU_UNITS, ResourceUsage

PROFILE_FORMAT_VERSION = 1

# Video-pipeline calibration, derived from the measured per-frame uplink
# times, indexed by the number of fog-hosted stages: raw, after greyscale,
# after motion filtering, and the final result.
FD_TRANSMISSION_CHAIN_S = (2.28, 0.77, 0.52, 0.11)
FD_RAW_UPLINK_S, _GREY_UPLINK_S, _MOTION_UPLINK_S, _RESULT_UPLINK_S = FD_TRANSMISSION_CHAIN_S
FD_GREY_DATA_OUT = 1.0 / 3.0            # greyscale emits a third of the frame
FD_MOTION_PASS = _MOTION_UPLINK_S / _GREY_UPLINK_S      # ~0.675 of frames contain motion
FD_FACE_DATA_OUT = (_RESULT_UPLINK_S * _GREY_UPLINK_S) / (
    FD_RAW_UPLINK_S * _MOTION_UPLINK_S * FD_GREY_DATA_OUT)
FD_GREY_COMPUTE_S = 0.003
FD_MOTION_COMPUTE_S = 0.004
FD_FACE_FOG_EXTRA_S = 0.2               # observed slowdown of detection on the board
FD_CLOUD_ONLY_FRAME_S = 2.3             # per-frame total with everything on the VM
# Face detection time on the VM backed out of the cloud-only per-frame total
# (the detector only sees frames that pass the motion filter):
FD_FACE_COMPUTE_S = (
    FD_CLOUD_ONLY_FRAME_S - FD_RAW_UPLINK_S - FD_GREY_COMPUTE_S - FD_MOTION_COMPUTE_S
) / FD_MOTION_PASS


@dataclass(frozen=True)
class ModuleProfile:
    """One pipeline stage: timing, traffic shaping, and resource demand."""

    name: str
    compute_s: float = 0.0               # service time per request, unstressed
    fog_extra_s: float = 0.0             # added latency when hosted on the Fog node
    data_out_ratio: float = 1.0          # output payload / input payload
    pass_fraction: float = 1.0           # share of requests forwarded downstream
    demand: ResourceUsage = field(default_factory=ResourceUsage)

    def __post_init__(self):
        if not self.name:
            raise ValueError("module name must be non-empty")
        if not math.isfinite(self.compute_s) or self.compute_s < 0:
            raise ValueError(f"module {self.name}: compute_s must be >= 0")
        if not math.isfinite(self.fog_extra_s) or self.fog_extra_s < 0:
            raise ValueError(f"module {self.name}: fog_extra_s must be >= 0")
        if not 0 < self.data_out_ratio <= 1:
            raise ValueError(f"module {self.name}: data_out_ratio must lie in (0, 1]")
        if not 0 < self.pass_fraction <= 1:
            raise ValueError(f"module {self.name}: pass_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class ApplicationProfile:
    """A pipeline of modules plus the link and workload parameters."""

    name: str
    modules: tuple[ModuleProfile, ...]
    raw_request_data: float = 1.0        # payload size of one raw request, in data units
    requests_per_deployment: int = 20
    uplink_seconds_per_raw_unit: float = 0.0   # fog-to-cloud uplink time per data unit
    base_delay_fog_cloud_ms: float = 0.0
    base_delay_dev_cloud_ms: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("profile name must be non-empty")
        if len(self.modules) < 1:
            raise ValueError(f"profile {self.name}: needs at least one module")
        if not math.isfinite(self.raw_request_data) or self.raw_request_data <= 0:
            raise ValueError(f"profile {self.name}: raw_request_data must be > 0")
        if self.requests_per_deployment < 1:
            raise ValueError(f"profile {self.name}: requests_per_deployment must be >= 1")
        if not math.isfinite(self.uplink_seconds_per_raw_unit) or self.uplink_seconds_per_raw_unit < 0:
            raise ValueError(f"profile {self.name}: uplink_seconds_per_raw_unit must be >= 0")
        for fname in ("base_delay_fog_cloud_ms", "base_delay_dev_cloud_ms"):
            value = getattr(self, fname)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"profile {self.name}: {fname} must be >= 0")
        total_cpu = sum(m.demand.cpu_units for m in self.modules)
        if total_cpu > MAX_CPU_UNITS:
            raise ValueError(
                f"profile {self.name}: total module cpu demand {total_cpu} exceeds the node"
            )
        names = [m.name for m in self.modules]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            # Names label the stages in calibrate's report and in validation
            # errors, so a repeat would leave two stages that read the same.
            raise ValueError(f"profile {self.name}: module name(s) {repeated} used more than once")

    @property
    def n_modules(self) -> int:
        return len(self.modules)


def fd_profile() -> ApplicationProfile:
    """Video face-detection pipeline: greyscale, motion filter, face detector."""
    return ApplicationProfile(
        name="fd",
        modules=(
            ModuleProfile(
                name="greyscale",
                compute_s=FD_GREY_COMPUTE_S,
                data_out_ratio=FD_GREY_DATA_OUT,
                demand=ResourceUsage(cpu_units=1.0, mem_gb=0.1, storage_gb=0.05),
            ),
            ModuleProfile(
                name="motion",
                compute_s=FD_MOTION_COMPUTE_S,
                pass_fraction=FD_MOTION_PASS,
                demand=ResourceUsage(cpu_units=1.0, mem_gb=0.1, storage_gb=0.05),
            ),
            ModuleProfile(
                name="face",
                compute_s=FD_FACE_COMPUTE_S,
                fog_extra_s=FD_FACE_FOG_EXTRA_S,
                data_out_ratio=FD_FACE_DATA_OUT,
                demand=ResourceUsage(cpu_units=2.0, mem_gb=0.5, storage_gb=0.2),
            ),
        ),
        raw_request_data=1.0,
        requests_per_deployment=20,
        uplink_seconds_per_raw_unit=FD_RAW_UPLINK_S,
        base_delay_fog_cloud_ms=15.0,
        base_delay_dev_cloud_ms=25.0,
    )


def ipokemon_profile() -> ApplicationProfile:
    """Location-based game server: session cache in front of the account origin.

    Most requests hit existing sessions and can be answered at the edge; only
    the remaining fifth must travel on to the origin service.
    """
    return ApplicationProfile(
        name="ipokemon",
        modules=(
            ModuleProfile(
                name="session-cache",
                compute_s=0.008,
                fog_extra_s=0.002,
                data_out_ratio=0.5,
                pass_fraction=0.2,
                demand=ResourceUsage(cpu_units=2.0, mem_gb=0.5, storage_gb=0.3),
            ),
            ModuleProfile(
                name="account-origin",
                compute_s=0.012,
                fog_extra_s=0.003,
                data_out_ratio=0.6,
                demand=ResourceUsage(cpu_units=2.0, mem_gb=0.5, storage_gb=0.3),
            ),
        ),
        raw_request_data=1.0,
        requests_per_deployment=100,
        uplink_seconds_per_raw_unit=0.02,
        base_delay_fog_cloud_ms=12.0,
        base_delay_dev_cloud_ms=95.0,
    )


def heavy_profile() -> ApplicationProfile:
    """Single compute-bound batch stage that saturates the board.

    Offloading it to the Fog node saves almost no traffic (the stage barely
    shrinks its payload) while occupying the whole node for a long time, so
    under Cloud-equal resource pricing the Cloud plan is always the cheaper
    one.  Useful for exercising cost-only decision making.
    """
    return ApplicationProfile(
        name="heavy",
        modules=(
            ModuleProfile(
                name="batch-stage",
                compute_s=300.0,
                fog_extra_s=60.0,
                data_out_ratio=0.99,
                demand=ResourceUsage(cpu_units=8.0, mem_gb=2.0, storage_gb=10.0),
            ),
        ),
        raw_request_data=1.0,
        requests_per_deployment=20,
        uplink_seconds_per_raw_unit=60.0,
        base_delay_fog_cloud_ms=15.0,
        base_delay_dev_cloud_ms=25.0,
    )


_BUILTIN_FACTORIES = {
    "fd": fd_profile,
    "ipokemon": ipokemon_profile,
    "heavy": heavy_profile,
}


def profile_from_dict(data: dict, where: str = "profile") -> ApplicationProfile:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object")
    version = data.get("format_version", PROFILE_FORMAT_VERSION)
    if version != PROFILE_FORMAT_VERSION:
        raise ValueError(f"{where}.format_version: unsupported version {version!r}")
    fields_only = {k: v for k, v in data.items() if k != "format_version"}
    return record_from_dict(ApplicationProfile, fields_only, where)


# -- typed JSON records ------------------------------------------------------

# How an error names the JSON values each scalar annotation accepts.
_JSON_NAMES = {
    int: "an integer", float: "a number", str: "a string", type(None): "null", dict: "an object",
}


def _shown(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, (list, tuple)):
        return "a list"
    return json.dumps(value, default=repr)


def typed_value(kind, value, where: str):
    """`value` read as annotation `kind`: a record, a tuple, or a checked scalar."""
    if is_dataclass(kind):
        return record_from_dict(kind, value, where)
    if typing.get_origin(kind) is tuple:          # tuple[X, ...], as `asdict` leaves it too
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected a list, got {_shown(value)}")
        item_kind = typing.get_args(kind)[0]
        return tuple(typed_value(item_kind, item, f"{where}[{i}]") for i, item in enumerate(value))
    accepted = typing.get_args(kind) or (kind,)   # int | None -> (int, NoneType)
    if any(_json_matches(value, scalar) for scalar in accepted):
        return value
    expected = " or ".join(_JSON_NAMES[scalar] for scalar in accepted)
    raise ValueError(f"{where}: expected {expected}, got {_shown(value)}")


def _json_matches(value, scalar) -> bool:
    """Whether a JSON value has the type a scalar annotation asks for."""
    if isinstance(value, bool):                   # a subclass of int, yet no JSON number
        return False
    return isinstance(value, (int, float) if scalar is float else scalar)


@functools.cache
def _field_kinds(cls) -> dict:
    """The evaluated annotations of a dataclass's fields, computed once per class."""
    return typing.get_type_hints(cls)


def record_from_dict(cls, data, where: str):
    """Build dataclass `cls` from a JSON object, checking every value's type.

    Every field is accepted under its own name.  A missing key takes the
    field's default, an unknown one is rejected.  Nested dataclass fields and
    ``tuple[X, ...]`` fields are read recursively, scalars are checked
    against the field's annotation and kept exactly as given (an integer in
    a float field stays an integer).  Every error is a ValueError naming
    the path of the bad value below ``where``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {_shown(data)}")
    kinds = _field_kinds(cls)
    unknown = set(data) - set(kinds)
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = sorted(
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING and f.name not in data
    )
    if missing:
        raise ValueError(f"{where}: missing key(s) {missing}")
    values = {key: typed_value(kinds[key], value, f"{where}.{key}") for key, value in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_json_file(path: Path, what: str):
    """The parsed content of a JSON file; a ValueError names a missing,
    unreadable (a directory, say), non-UTF-8 or invalid file."""
    if not path.exists():
        raise ValueError(f"{what} file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{what} file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path}: invalid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} file {path}: not UTF-8 text ({exc})") from None


def write_text_atomically(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temporary file in the
    same directory and `os.replace`: the target holds either what it held
    before or all of ``text``, never part of it."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_bytes(text.encode("utf-8"))
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def load_profile(path: str | Path) -> ApplicationProfile:
    """Load an application profile from a JSON file."""
    return profile_from_dict(read_json_file(Path(path), "profile"), where=str(path))


def resolve_profile(name_or_path: str) -> ApplicationProfile:
    """Builtin profile name, or a path to a profile JSON file."""
    if name_or_path in _BUILTIN_FACTORIES:
        return _BUILTIN_FACTORIES[name_or_path]()
    if name_or_path.endswith(".json") or "/" in name_or_path or "\\" in name_or_path:
        return load_profile(name_or_path)
    raise ValueError(
        f"unknown profile {name_or_path!r}: not a builtin "
        f"({', '.join(sorted(_BUILTIN_FACTORIES))}) and not a .json path"
    )
