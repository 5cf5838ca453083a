"""Simulated three-tier testbed: device, Fog node, Cloud VM.

The Fog node is an 8-core, 2 GB single-board computer exposed as 8
allocation units of 1 core + 256 MB.  A background stress generator
occupies a uniformly random number of units (0..7) and re-rolls every 10
simulated seconds, independent of anything the agent does: the load at
simulated time ``now`` is draw ``int(now / 10)`` of the seed's stream, so
two environments with the same seed always see the same load at the same
simulated time.

Requests of a deployment are processed sequentially.  Filtering stages are
applied in expectation: a stage that forwards 60% of requests contributes
60% of its downstream times and traffic per request, which keeps outcomes
deterministic for a given stress trajectory.  Fog-hosted stages slow down
when their CPU demand exceeds the units left free by the stress load; Cloud
stages never contend.  All time is simulated: nothing here reads the wall
clock, so a deployment's outcome depends only on the profile, the seed and
the plans.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import MAX_CPU_UNITS, DeploymentOutcome, ResourceUsage
from .profiles import ApplicationProfile
from .seeding import derive_seed

# Fog node hardware model.
CAPACITY_UNITS = int(MAX_CPU_UNITS)   # stress/allocation units; loads are ints below it
_LOAD_BITS = CAPACITY_UNITS.bit_length()  # random bits per stress draw, as randrange takes
UNIT_MEM_GB = 0.25              # memory occupied per stressed unit
STRESS_RESAMPLE_S = 10.0        # stress level re-rolls on this period
MEM_TOTAL_GB = 2.0
SWAP_TOTAL_GB = 1.0
DISK_TOTAL_GB = 32.0
DISK_BASE_GB = 8.0              # OS image and runtime
CPU_FREQ_MHZ = 2000.0

# Payload accounting for the synthetic I/O and network counters.
BYTES_PER_DATA_UNIT = 500_000
PACKET_BYTES = 1500
IO_BLOCK_BYTES = 4096

# A fog stage never sees less than a quarter unit, so contention stays finite.
AVAILABILITY_FLOOR = 0.25

# The node's 19 monitored factors in observation-vector order, each with
# the fixed min-max cap that squashes it into [0, 1] before it reaches the
# value network (counters saturate at the cap) and its value on a board
# that is not freshly booted.  `observe` samples the factors booted at 0 and
# the link delays, which start at the profile's base delays.
_FACTORS: dict[str, tuple[float, float]] = {
    "cpu_util": (1.0, 0.0),                     # fraction of units occupied
    "cpu_count": (8.0, float(CAPACITY_UNITS)),
    "cpu_freq": (2000.0, CPU_FREQ_MHZ),         # MHz
    "mem_total": (4.0, MEM_TOTAL_GB),           # GB
    "mem_used": (4.0, 0.0),
    "swap_total": (2.0, SWAP_TOTAL_GB),
    "swap_used": (2.0, 0.0),
    "disk_total": (64.0, DISK_TOTAL_GB),
    "disk_used": (64.0, 0.0),
    "io_reads": (5e6, 25_000.0),                # cumulative ops
    "io_writes": (5e6, 18_000.0),
    "io_read_bytes": (5e10, 90e6),              # cumulative bytes
    "io_write_bytes": (5e10, 60e6),
    "net_bytes_sent": (5e10, 40e6),
    "net_bytes_recv": (5e10, 55e6),
    "net_pkts_sent": (5e7, 30_000.0),
    "net_pkts_recv": (5e7, 42_000.0),
    "delay_fog_cloud": (500.0, 0.0),            # ms
    "delay_dev_cloud": (500.0, 0.0),            # ms
}
STATE_CAPS: dict[str, float] = {name: cap for name, (cap, _boot) in _FACTORS.items()}
STATE_FACTORS = tuple(STATE_CAPS)
_CAP_VECTOR = np.array(tuple(STATE_CAPS.values()), dtype=np.float64)
_BOOT_STATE = np.array([boot for _cap, boot in _FACTORS.values()], dtype=np.float64)
_SLOT = {name: i for i, name in enumerate(STATE_FACTORS)}


@dataclass
class SimClock:
    """Simulated wall clock, in seconds."""

    now: float = 0.0

    def advance(self, dt: float) -> None:
        if not math.isfinite(dt) or dt < 0:
            raise ValueError(f"clock can only move forward, got dt={dt!r}")
        self.now += dt


class StressProcess:
    """Piecewise-constant background load on the Fog node.

    The load at simulated time ``now`` is draw number ``int(now / 10)`` of a
    seeded uniform{0..7} stream, draw 0 being interval 0's, so it is a pure
    function of the seed and the time.  No sum of steps is kept: however a
    span is cut into calls, the load at its end is the same.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.interval = 0
        self.load = self._draw()  # interval 0

    def _draw(self) -> int:
        """One uniform{0..7} draw, the one CPython's
        ``randrange(CAPACITY_UNITS)`` makes: its rejection loop, without the
        argument checks and calls around it."""
        getrandbits = self._rng.getrandbits
        load = getrandbits(_LOAD_BITS)
        while load >= CAPACITY_UNITS:
            load = getrandbits(_LOAD_BITS)
        return load

    def advance(self, now: float) -> None:
        """Move to simulated time ``now``, rolling one draw per boundary crossed."""
        if not math.isfinite(now) or now < 0:
            raise ValueError(f"stress process needs a finite time >= 0, got now={now!r}")
        interval = int(now / STRESS_RESAMPLE_S)
        if interval < self.interval:
            raise ValueError(
                f"stress process can only move forward, got now={now!r} "
                f"in interval {interval} after interval {self.interval}"
            )
        for _ in range(interval - self.interval):
            self.load = self._draw()
        self.interval = interval


class LatencyBreakdown(NamedTuple):
    """Expected per-request latency of one plan, split by component.

    Module times are weighted by the fraction of requests that actually
    reach the module; ``fog_s`` holds the fog-hosted modules' and
    ``cloud_s`` the rest's, each in pipeline order.  ``transmission_s``
    covers only the size-proportional uplink part, propagation delay is
    separate.  `request_latency_breakdown` hands the same object to every
    request that asks with the same inputs, so it is immutable all the way
    down: a named tuple of floats and tuples.
    """

    transmission_s: float
    propagation_s: float
    fog_s: tuple[float, ...]
    cloud_s: tuple[float, ...]

    @property
    def total_s(self) -> float:
        return (
            self.transmission_s
            + self.propagation_s
            + math.fsum(self.fog_s)
            + math.fsum(self.cloud_s)
        )


# The breakdowns of the last (profile, plan, delays) asked for, by
# `available_units`.  Within one deployment only the free units change, and
# they take at most CAPACITY_UNITS values, so that is the most it keeps.
_memo: tuple[tuple, dict[float, LatencyBreakdown]] = ((), {})


def request_latency_breakdown(
    profile: ApplicationProfile,
    fog_modules: int,
    available_units: float = float(CAPACITY_UNITS),
    fog_cloud_delay_s: float | None = None,
    dev_cloud_delay_s: float | None = None,
) -> LatencyBreakdown:
    """Expected latency components of one request under a given plan.

    Plan 0 uploads the raw payload straight to the Cloud; any other plan
    runs the leading stages on the Fog node and forwards whatever survives
    them, down to the final result for the all-on-Fog plan.  With
    ``survival`` the share of requests that reach a point and ``data`` the
    payload there, a fog stage takes ``survival * (compute_s * stretch +
    fog_extra_s)`` with ``stretch = max(1, cpu_units / max(available_units,
    0.25))``, a cloud stage ``survival * compute_s``, the uplink ``data *
    uplink_seconds_per_raw_unit`` (times ``survival`` for plans above 0),
    and propagation the device-cloud delay for plan 0, else ``survival``
    times the fog-cloud delay.

    A call with the same inputs as an earlier one since the profile, plan or
    delays last changed returns that call's breakdown itself; inputs that
    fail a check are never kept, so they raise every time.
    """
    global _memo
    key = (profile, fog_modules, fog_cloud_delay_s, dev_cloud_delay_s)
    last_key, built = _memo
    if key == last_key:
        parts = built.get(available_units)
        if parts is not None:
            return parts
    else:
        built = {}
        _memo = (key, built)
    parts = _build_breakdown(profile, fog_modules, available_units,
                             fog_cloud_delay_s, dev_cloud_delay_s)
    if len(built) < CAPACITY_UNITS:
        built[available_units] = parts
    return parts


def _build_breakdown(
    profile: ApplicationProfile,
    k: int,
    available_units: float,
    fog_cloud_delay_s: float | None,
    dev_cloud_delay_s: float | None,
) -> LatencyBreakdown:
    """`request_latency_breakdown` worked out afresh.  The profile's records
    already refuse negative or non-finite times, demands and payloads, so
    only the plan and ``available_units`` are checked here."""
    modules = profile.modules
    n = len(modules)
    if not 0 <= k <= n:
        raise ValueError(f"fog_modules must lie in [0, {n}], got {k!r}")
    if not math.isfinite(available_units):
        raise ValueError(f"available_units must be finite, got {available_units!r}")
    if fog_cloud_delay_s is None:
        fog_cloud_delay_s = profile.base_delay_fog_cloud_ms / 1000.0
    if dev_cloud_delay_s is None:
        dev_cloud_delay_s = profile.base_delay_dev_cloud_ms / 1000.0

    # Each max() spelled as the comparison max() makes, to save a builtin
    # call per fog stage: the results are the same floats.
    effective = AVAILABILITY_FLOOR if AVAILABILITY_FLOOR > available_units else available_units
    survival = 1.0
    data = profile.raw_request_data
    fog_s: list[float] = []
    cloud_s: list[float] = []

    for module in modules[:k]:
        stretch = module.demand.cpu_units / effective
        stage = module.compute_s * (stretch if stretch > 1.0 else 1.0)
        fog_s.append(survival * (stage + module.fog_extra_s))
        data *= module.data_out_ratio
        survival *= module.pass_fraction

    if k == 0:
        transmission = data * profile.uplink_seconds_per_raw_unit
        propagation = dev_cloud_delay_s
    else:
        # Only surviving requests cross the fog-to-cloud link (the last plan
        # still uploads its result there).
        transmission = survival * (data * profile.uplink_seconds_per_raw_unit)
        propagation = survival * fog_cloud_delay_s

    for module in modules[k:]:
        cloud_s.append(survival * module.compute_s)
        data *= module.data_out_ratio
        survival *= module.pass_fraction

    return LatencyBreakdown(transmission, propagation, tuple(fog_s), tuple(cloud_s))


class FogEnvironment:
    """One Fog node plus its Cloud VM, driven by a simulated clock.

    With the same seed, the stress trajectory, sensor jitter, and deployment
    outcomes are fully reproducible; the stress level evolves with simulated
    time only, never with the agent's choices.

    ``raw_state`` holds the node's 19 factors, unscaled and in
    ``STATE_FACTORS`` order: ``observe`` refreshes the sampled ones,
    ``execute`` grows the counters and reads its propagation delays from
    the last delay samples.
    """

    def __init__(self, profile: ApplicationProfile, seed: int = 0):
        self.profile = profile
        self.stress = StressProcess(derive_seed(seed, "stress"))
        self._sensor_rng = random.Random(derive_seed(seed, "sensor"))
        # Memory and storage demand of the modules currently on the node.
        self._deployed_mem_gb = 0.0
        self._deployed_storage_gb = 0.0
        self.raw_state = _BOOT_STATE.copy()
        self.raw_state[_SLOT["delay_fog_cloud"]] = profile.base_delay_fog_cloud_ms
        self.raw_state[_SLOT["delay_dev_cloud"]] = profile.base_delay_dev_cloud_ms

    # -- public API --------------------------------------------------------

    def observe(self, clock: SimClock) -> np.ndarray:
        """Sample the node at the clock's current time; returns the normalized
        state: each factor divided by its cap and clipped to [0, 1]."""
        self.stress.advance(clock.now)
        load = self.stress.load
        raw = self.raw_state
        mem_claim = UNIT_MEM_GB * load + self._deployed_mem_gb
        raw[_SLOT["cpu_util"]] = load / CAPACITY_UNITS
        raw[_SLOT["mem_used"]] = min(MEM_TOTAL_GB, mem_claim)
        raw[_SLOT["swap_used"]] = min(SWAP_TOTAL_GB, max(0.0, mem_claim - MEM_TOTAL_GB))
        raw[_SLOT["disk_used"]] = min(
            DISK_TOTAL_GB, DISK_BASE_GB + self._deployed_storage_gb + 0.1 * load
        )
        # Link delays wobble around their base value between observations.
        raw[_SLOT["delay_fog_cloud"]] = self.profile.base_delay_fog_cloud_ms * self._sensor_rng.uniform(0.9, 1.1)
        raw[_SLOT["delay_dev_cloud"]] = self.profile.base_delay_dev_cloud_ms * self._sensor_rng.uniform(0.9, 1.1)
        return np.clip(raw / _CAP_VECTOR, 0.0, 1.0)

    def execute(self, fog_modules: int, clock: SimClock) -> DeploymentOutcome:
        """Deploy a plan, stream all requests through it, advance the clock.

        Returns the deployment's duration, request count, and the busy-time
        weighted average of the fog-hosted stages' resource demands.  Each
        request makes one `request_latency_breakdown` call and its own adds
        to the uplink count and the clock; the fog busy times are summed
        after the loop, run by run of requests that got the same breakdown,
        one request's seconds at a time in request order, so every float is
        the one a per-request add gives.
        """
        profile = self.profile
        k = fog_modules
        if not 0 <= k <= profile.n_modules:
            raise ValueError(f"fog_modules must lie in [0, {profile.n_modules}], got {k!r}")
        requests = profile.requests_per_deployment
        fog_cloud_s = float(self.raw_state[_SLOT["delay_fog_cloud"]]) / 1000.0
        dev_cloud_s = float(self.raw_state[_SLOT["delay_dev_cloud"]]) / 1000.0

        stress = self.stress
        started = now = clock.now
        free = CAPACITY_UNITS - stress.load
        # (fog seconds, first request) each time the breakdown changes.
        runs: list[tuple[tuple[float, ...], int]] = []
        uplink_units = 0.0
        per_unit = profile.uplink_seconds_per_raw_unit
        last = None
        for request in range(requests):
            # The load changes only at interval boundaries; the same division
            # as `StressProcess.advance`, since a precomputed boundary time can
            # round to the other side of it.
            if int(now / STRESS_RESAMPLE_S) != stress.interval:
                stress.advance(now)
                free = CAPACITY_UNITS - stress.load
            parts = request_latency_breakdown(
                profile, k, available_units=free,
                fog_cloud_delay_s=fog_cloud_s, dev_cloud_delay_s=dev_cloud_s,
            )
            # The routine hands back the previous request's breakdown while
            # the load holds, and an immutable breakdown gives the same
            # figures again: they are worked out only for a new one.
            if parts is not last:
                last = parts
                runs.append((parts.fog_s, request))
                units = parts.transmission_s / per_unit if per_unit > 0 else 0.0
                total = parts.total_s
                if not 0.0 <= total < math.inf:     # negative, infinite or NaN
                    clock.now = now
                    clock.advance(total)    # raises the clock's forward-time error
            uplink_units += units
            now += total
        clock.now = now
        duration_s = now - started
        stress.advance(now)

        # Fog busy time by module position, as the breakdown's fog seconds are.
        busy = [0.0] * k
        ends = [first for _fog, first in runs[1:]] + [requests]
        for (fog, first), end in zip(runs, ends):
            for i, seconds in enumerate(fog):
                summed = busy[i]
                for _ in range(end - first):
                    summed += seconds
                busy[i] = summed

        usage = ResourceUsage()
        if k > 0 and duration_s > 0:
            cpu = mem = storage = 0.0
            for module, seconds in zip(profile.modules, busy):
                frac = seconds / duration_s
                cpu += module.demand.cpu_units * frac
                mem += module.demand.mem_gb * frac
                storage += module.demand.storage_gb * frac
            usage = ResourceUsage(
                cpu_units=min(MAX_CPU_UNITS, cpu), mem_gb=mem, storage_gb=storage,
            )

        self._account_traffic(k, requests, uplink_units)
        self._deployed_mem_gb = sum(m.demand.mem_gb for m in profile.modules[:k])
        self._deployed_storage_gb = sum(m.demand.storage_gb for m in profile.modules[:k])
        return DeploymentOutcome(
            fog_modules=k,
            duration_s=duration_s,
            requests=requests,
            usage=usage,
        )

    def _account_traffic(self, k: int, requests: int, uplink_units: float) -> None:
        """Grow the node's I/O and network counters with the deployment's traffic.

        Plan 0 bypasses the node, so only the uplink it relays for other
        tenants' monitoring stays flat; noise factors keep the counters
        irregular without ever decreasing them.
        """
        noise = self._sensor_rng.uniform(1.0, 1.05)
        inbound = requests * self.profile.raw_request_data * BYTES_PER_DATA_UNIT if k > 0 else 0.0
        outbound = uplink_units * BYTES_PER_DATA_UNIT if k > 0 else 0.0
        raw = self.raw_state
        raw[_SLOT["net_bytes_recv"]] += inbound * noise
        raw[_SLOT["net_bytes_sent"]] += outbound * noise
        raw[_SLOT["net_pkts_recv"]] += (inbound / PACKET_BYTES + requests) * noise
        raw[_SLOT["net_pkts_sent"]] += (outbound / PACKET_BYTES + requests) * noise
        raw[_SLOT["io_read_bytes"]] += inbound * noise
        raw[_SLOT["io_write_bytes"]] += outbound * noise
        raw[_SLOT["io_reads"]] += (inbound / IO_BLOCK_BYTES) * noise
        raw[_SLOT["io_writes"]] += (outbound / IO_BLOCK_BYTES) * noise
