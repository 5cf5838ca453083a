"""Environment tests: stress process, latency laws, observation, deployments."""
import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogdist import env as env_module
from fogdist.agent import StaticStrategy, simulate_episode
from fogdist.env import (
    AVAILABILITY_FLOOR,
    CAPACITY_UNITS,
    STATE_CAPS,
    STATE_FACTORS,
    STRESS_RESAMPLE_S,
    FogEnvironment,
    SimClock,
    StressProcess,
    request_latency_breakdown,
)
from fogdist.model import MAX_CPU_UNITS, DeploymentOutcome, ResourceUsage
from fogdist.profiles import (
    ApplicationProfile,
    ModuleProfile,
    fd_profile,
    heavy_profile,
    ipokemon_profile,
)
from fogdist.seeding import derive_seed
from strategies import application_profiles


def factor(vector: np.ndarray, name: str) -> float:
    """One factor of a raw or normalized state vector, by name."""
    return vector[STATE_FACTORS.index(name)]


def assert_valid_state(raw: np.ndarray) -> None:
    """The invariants every raw node state must hold."""
    assert raw.shape == (len(STATE_FACTORS),) and np.all(np.isfinite(raw))
    assert 0.0 <= factor(raw, "cpu_util") <= 1.0
    assert factor(raw, "mem_used") <= factor(raw, "mem_total")
    assert factor(raw, "swap_used") <= factor(raw, "swap_total")
    assert factor(raw, "disk_used") <= factor(raw, "disk_total")
    assert np.all(raw >= 0)


class IdleStress:
    """A stand-in stress process that never occupies a unit: time passes and
    the load stays 0."""

    def __init__(self):
        self.interval = 0
        self.load = 0

    def advance(self, now: float) -> None:
        self.interval = int(now / STRESS_RESAMPLE_S)


def idle_node(profile, seed: int) -> FogEnvironment:
    """A node with no background load; its sensor stream is the seed's own,
    since the sensor RNG is separate from the stress RNG."""
    env = FogEnvironment(profile, seed=seed)
    env.stress = IdleStress()
    return env


# -- stress process ----------------------------------------------------------

def test_stress_load_range_and_initial_draw():
    for seed in range(50):
        p = StressProcess(seed)
        assert 0 <= p.load <= 7


def test_stress_holds_between_boundaries():
    p = StressProcess(3)
    before = p.load
    p.advance(9.9)
    assert p.load == before
    p.advance(9.9)
    assert p.load == before


def test_stress_resamples_on_each_boundary():
    """Interval i's load is the i-th draw, reached at 10 s steps or at random times."""
    a = StressProcess(17)
    b = StressProcess(17)
    loads_a = [a.load]
    for i in range(1, 61):
        a.advance(10.0 * i)
        loads_a.append(a.load)
    rng = random.Random(5)
    t = 0.0
    while t < 600.0:
        t = min(t + rng.uniform(0.1, 23.0), 600.0)
        b.advance(t)
    # align: at 600 s both sit in interval 60
    assert b.load == loads_a[60]
    # replay a third copy at exactly the recorded boundaries
    c = StressProcess(17)
    for i in range(1, 61):
        c.advance(10.0 * i)
        assert c.load == loads_a[i]


def test_stress_same_seed_same_trajectory():
    a, b = StressProcess(11), StressProcess(11)
    for i in range(1, 201):
        a.advance(10.0 * i)
        b.advance(10.0 * i)
        assert a.load == b.load


def test_stress_mean_is_uniform_over_units():
    """Mean of uniform{0..7} is 3.5; 10k intervals keep it within [3.3, 3.7]."""
    p = StressProcess(2024)
    loads = [p.load]
    for i in range(1, 10_000):
        p.advance(10.0 * i)
        loads.append(p.load)
    assert 3.3 <= np.mean(loads) <= 3.7


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    steps=st.lists(st.floats(min_value=0.0, max_value=35.0), max_size=40),
)
def test_stress_load_is_the_draw_of_the_elapsed_interval(seed, steps):
    process = StressProcess(seed)
    draws = random.Random(seed)
    loads = [draws.randrange(CAPACITY_UNITS)]
    now = 0.0
    for dt in steps:
        now += dt
        process.advance(now)
        interval = int(now / STRESS_RESAMPLE_S)
        while len(loads) <= interval:
            loads.append(draws.randrange(CAPACITY_UNITS))
        assert (process.interval, process.load) == (interval, loads[interval])


@pytest.mark.parametrize("seed", [0, 1, 7, 2026, 2**32 - 1, derive_seed(2026, "stress")])
def test_stress_draws_are_the_interpreters_randrange(seed):
    """`StressProcess` inlines `randrange(CAPACITY_UNITS)`'s rejection loop; if
    the interpreter ever draws it otherwise, this fails by name rather than as
    a digest mismatch."""
    draws = 2500
    process = StressProcess(seed)
    loads = [process.load]
    for i in range(1, draws):
        process.advance(i * STRESS_RESAMPLE_S)
        loads.append(process.load)
    reference = random.Random(seed)
    assert loads == [reference.randrange(CAPACITY_UNITS) for _ in range(draws)]


def test_stress_load_depends_only_on_the_time():
    """However the first 10 s are cut into calls, 10.0 s lands on interval 1."""
    chunked, whole = StressProcess(1), StressProcess(1)
    for i in range(100):
        chunked.advance(0.1 * i)
    chunked.advance(10.0)
    whole.advance(10.0)
    assert (chunked.interval, chunked.load) == (whole.interval, whole.load) == (1, 1)


def test_stress_rejects_backward_time():
    with pytest.raises(ValueError):
        StressProcess(0).advance(-1.0)
    for now in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            StressProcess(0).advance(now)
    p = StressProcess(0)
    p.advance(25.0)
    load = p.load
    p.advance(21.0)     # earlier, but in the same interval: the load holds
    with pytest.raises(ValueError, match="interval 1 after interval 2"):
        p.advance(19.0)
    assert (p.interval, p.load) == (2, load)


@settings(max_examples=500, deadline=None)
@given(a=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
       b=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
def test_adding_back_a_clock_step_gives_the_clock(a, b):
    """fl(a + fl(fl(a + b) - a)) == fl(a + b) for non-negative floats: a sum
    of steps synced to a clock, one step at a time, always equals the clock."""
    now = a + b
    assert a + (now - a) == now


class ElapsedSumStress:
    """The stress process as it was before the load was indexed by time: a
    float sum of the steps between syncs, synced to the clock by the
    environment on every observation and request."""

    def __init__(self, seed: int):
        self.elapsed_s = 0.0
        self._rng = random.Random(seed)
        self.load = self._rng.randrange(CAPACITY_UNITS)

    def sync(self, now: float) -> None:
        dt = now - self.elapsed_s
        if dt < -1e-9:
            raise ValueError("clock moved behind the stress process")
        if dt > 0:
            before = int(self.elapsed_s / STRESS_RESAMPLE_S)
            self.elapsed_s += dt
            for _ in range(int(self.elapsed_s / STRESS_RESAMPLE_S) - before):
                self.load = self._rng.randrange(CAPACITY_UNITS)


class TwinStress:
    """A `StressProcess` and an `ElapsedSumStress` of one seed, moved to every
    time the environment asks for; each move must give both the same load."""

    def __init__(self, seed: int):
        self.indexed = StressProcess(seed)
        self.summed = ElapsedSumStress(seed)

    @property
    def interval(self) -> int:
        return self.indexed.interval

    @property
    def load(self) -> int:
        return self.indexed.load

    def advance(self, now: float) -> None:
        self.indexed.advance(now)
        self.summed.sync(now)
        assert self.summed.elapsed_s == now
        assert self.indexed.load == self.summed.load


@settings(max_examples=40, deadline=None)
@given(profile=st.sampled_from([fd_profile(), ipokemon_profile(), heavy_profile()])
       | application_profiles(max_seconds=20.0, max_data=10.0, max_requests=60),
       seed=st.integers(0, 2**32), data=st.data())
def test_time_indexed_load_equals_the_elapsed_sum_load(profile, seed, data):
    """Along the clocks an episode produces (every observation, and every
    request of the by-name reference), the time-indexed load is the old one."""
    plans = data.draw(st.lists(st.integers(0, profile.n_modules), min_size=1, max_size=4))
    env = FogEnvironment(profile, seed=seed)
    env.stress = TwinStress(derive_seed(seed, "stress"))
    clock = SimClock()
    for k in plans:
        env.observe(clock)
        try:
            reference_execute(env, k, clock)
        except ValueError as exc:          # a deployment that takes no time
            assert "duration_s" in str(exc)
            break
    env.observe(clock)


# -- latency laws ------------------------------------------------------------

def test_transmission_is_proportional_to_size():
    prof = fd_profile()
    for size, seconds in ((1.0, 2.28), (0.5, 1.14)):
        sized = dataclasses.replace(prof, raw_request_data=size)
        assert request_latency_breakdown(sized, 0).transmission_s == pytest.approx(seconds, rel=1e-12)


def stage_seconds(compute_s: float, cpu_units: float, available_units: float) -> float:
    """The fog time of a lone stage with no fog penalty: its stretched compute time."""
    module = ModuleProfile(name="stage", compute_s=compute_s, fog_extra_s=0.0,
                           demand=ResourceUsage(cpu_units=cpu_units))
    profile = ApplicationProfile(name="one-stage", modules=(module,))
    parts = request_latency_breakdown(profile, 1, available_units=available_units)
    return parts.fog_s[0]


def test_fog_stage_never_speeds_up():
    # demand below availability: unchanged
    assert stage_seconds(1.0, 4.0, 8.0) == 1.0
    # demand 8 against 4 free units: twice as slow
    assert stage_seconds(1.0, 8.0, 4.0) == 2.0
    # nothing free: floor of 0.25 units -> 8/0.25 = 32x
    assert stage_seconds(1.0, 8.0, 0.0) == 32.0
    assert stage_seconds(0.0, 8.0, 0.5) == 0.0


@settings(max_examples=200, deadline=None)
@given(base_s=st.floats(0.0, 1e6), demand=st.floats(0.0, 8.0),
       available=st.floats(-1.0, 9.0) | st.integers(0, CAPACITY_UNITS))
def test_fog_stage_is_the_max_formula(base_s, demand, available):
    """The stretch is base * max(1, demand / max(available, floor)), to the bit."""
    expected = base_s * max(1.0, demand / max(available, AVAILABILITY_FLOOR))
    assert stage_seconds(base_s, demand, available) == expected


@pytest.mark.parametrize("profile", [fd_profile(), ipokemon_profile(), heavy_profile()],
                         ids=["fd", "ipokemon", "heavy"])
@pytest.mark.parametrize("available", [float("nan"), float("inf"), float("-inf")])
def test_breakdown_refuses_non_finite_availability_on_every_plan(profile, available):
    """Cold, and again once the plan's breakdowns are memoised: a refused
    availability is never kept, so it raises every time."""
    for k in range(profile.n_modules + 1):
        for warm in (False, True):
            if warm:
                request_latency_breakdown(profile, k, available_units=4.0)
            with pytest.raises(ValueError, match=r"^available_units must be finite, got"):
                request_latency_breakdown(profile, k, available_units=available)


def test_breakdown_video_transmission_chain():
    """The calibrated chain: 2.28, ~0.77, ~0.52, ~0.11 seconds per frame."""
    prof = fd_profile()
    observed = [request_latency_breakdown(prof, k).transmission_s for k in range(4)]
    for got, want in zip(observed, (2.28, 0.77, 0.52, 0.11)):
        assert abs(got - want) / want <= 0.02


def test_breakdown_cloud_only_anchor():
    """All-cloud per-frame total (minus propagation): exactly the 2.3 s anchor."""
    prof = fd_profile()
    b = request_latency_breakdown(prof, 0)
    assert b.total_s - b.propagation_s == pytest.approx(2.3, abs=1e-12)


def test_breakdown_filtering_weights_downstream_stages():
    """Only the motion-passing share of frames reaches the face stage."""
    prof = fd_profile()
    b = request_latency_breakdown(prof, 0)
    face = next(m for m in prof.modules if m.name == "face")
    motion = next(m for m in prof.modules if m.name == "motion")
    assert b.cloud_s[2] == pytest.approx(
        motion.pass_fraction * face.compute_s, rel=1e-12)


def test_breakdown_fog_stage_pays_its_extra_latency():
    prof = fd_profile()
    full_fog = request_latency_breakdown(prof, 3)
    face = next(m for m in prof.modules if m.name == "face")
    motion = next(m for m in prof.modules if m.name == "motion")
    # unstressed: compute + the 0.2 s fog penalty, weighted by survival
    assert full_fog.fog_s[2] == pytest.approx(
        motion.pass_fraction * (face.compute_s + 0.2), rel=1e-12)


def test_breakdown_slower_when_less_is_available():
    prof = fd_profile()
    free = request_latency_breakdown(prof, 3, available_units=8.0)
    busy = request_latency_breakdown(prof, 3, available_units=1.0)
    assert busy.total_s > free.total_s
    # transmission does not contend
    assert busy.transmission_s == free.transmission_s


def test_breakdown_rejects_bad_plan():
    profile = fd_profile()
    request_latency_breakdown(profile, 1)       # a warm memo for the profile
    for bad in (4, -1, -1):     # the repeat asks again right after a refusal
        with pytest.raises(ValueError, match=rf"^fog_modules must lie in \[0, 3\], got {bad}$"):
            request_latency_breakdown(profile, bad)


@settings(max_examples=60, deadline=None)
@given(profile=application_profiles(), available=st.floats(0.0, float(CAPACITY_UNITS)),
       data=st.data())
def test_breakdown_total_lies_between_the_idle_and_the_floor_node(profile, available, data):
    """Fog stages only slow down as units are taken, never below the floor's rate."""
    k = data.draw(st.integers(0, profile.n_modules))
    total = request_latency_breakdown(profile, k, available_units=available).total_s
    idle = request_latency_breakdown(profile, k, available_units=float(CAPACITY_UNITS))
    floor = request_latency_breakdown(profile, k, available_units=AVAILABILITY_FLOOR)
    assert idle.total_s <= total <= floor.total_s


def test_breakdown_fields_cannot_be_assigned():
    """Neither the fields nor the module seconds: requests share a breakdown."""
    b = request_latency_breakdown(fd_profile(), 1)
    for name in b._fields:
        with pytest.raises(AttributeError):
            setattr(b, name, 0.0)
    for seconds in (b.fog_s, b.cloud_s):
        with pytest.raises(TypeError):
            seconds[0] = 0.0


_MEMO_PROFILES = (fd_profile(), ipokemon_profile(), heavy_profile())


@st.composite
def breakdown_calls(draw):
    """The arguments of one `request_latency_breakdown` call, drawn from
    small pools so that a sequence of calls repeats inputs often."""
    profile = draw(st.sampled_from(_MEMO_PROFILES))
    delay = st.sampled_from([None, 0.0, 0.05, 0.1])
    return (profile, draw(st.integers(0, profile.n_modules)),
            draw(st.sampled_from(range(CAPACITY_UNITS + 1)) | st.floats(-1.0, 9.0)),
            draw(delay), draw(delay))


@settings(max_examples=100, deadline=None)
@given(calls=st.lists(breakdown_calls(), min_size=1, max_size=40))
def test_memoised_breakdowns_equal_a_fresh_build(calls):
    """Whatever the order of profiles, plans, availabilities and delays, the
    memo returns what building the breakdown afresh returns, an immediate
    repeat returns the very same object, and the memo never holds more than
    one breakdown per free-units value a deployment can meet."""
    for profile, k, available, fog_cloud_s, dev_cloud_s in calls:
        parts = request_latency_breakdown(profile, k, available, fog_cloud_s, dev_cloud_s)
        fresh = env_module._build_breakdown(profile, k, available, fog_cloud_s, dev_cloud_s)
        assert parts == fresh and parts.total_s == fresh.total_s
        assert request_latency_breakdown(profile, k, available, fog_cloud_s, dev_cloud_s) is parts
        assert len(env_module._memo[1]) <= CAPACITY_UNITS


# -- observation -------------------------------------------------------------

def test_observe_unstressed_node_is_idle():
    env = idle_node(fd_profile(), seed=1)
    env.observe(SimClock())
    assert_valid_state(env.raw_state)
    assert factor(env.raw_state, "cpu_util") == 0.0
    assert factor(env.raw_state, "cpu_count") == 8.0
    assert factor(env.raw_state, "mem_used") == 0.0  # nothing deployed yet


def test_observe_cpu_util_is_load_over_capacity():
    env = FogEnvironment(fd_profile(), seed=6)
    clock = SimClock()
    for _ in range(30):
        state = env.observe(clock)
        assert factor(state, "cpu_util") == env.stress.load / CAPACITY_UNITS
        clock.advance(10.0)


def test_observe_memory_tracks_stress_and_deployment():
    """mem_used = 0.25 GB per stressed unit plus the deployed modules' demand."""
    prof = fd_profile()
    env = idle_node(prof, seed=2)
    clock = SimClock()
    env.execute(3, clock)
    env.observe(clock)
    deployed_mem = sum(m.demand.mem_gb for m in prof.modules)  # 0.1+0.1+0.5
    assert factor(env.raw_state, "mem_used") == pytest.approx(deployed_mem, rel=1e-12)


def test_observe_memory_never_exceeds_totals():
    env = FogEnvironment(fd_profile(), seed=3)
    clock = SimClock()
    env.execute(3, clock)
    for _ in range(100):
        env.observe(clock)
        assert_valid_state(env.raw_state)
        clock.advance(10.0)


_COUNTERS = [STATE_FACTORS.index(f) for f in STATE_FACTORS if f.startswith(("io_", "net_"))]
_CONSTANTS = [STATE_FACTORS.index(f) for f in ("cpu_count", "cpu_freq", "mem_total",
                                                "swap_total", "disk_total")]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    plans=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
)
def test_counters_are_monotone_within_an_experiment(seed, plans):
    """Counters never decrease, constants never change, every factor lies in [0, 1]."""
    env = FogEnvironment(fd_profile(), seed=seed)
    clock = SimClock()
    env.observe(clock)
    previous = env.raw_state.copy()
    for k in plans:
        env.execute(k, clock)
        state = env.observe(clock)
        raw = env.raw_state
        assert np.all(raw[_COUNTERS] >= previous[_COUNTERS])
        assert raw[_CONSTANTS].tolist() == previous[_CONSTANTS].tolist()
        assert np.all((state >= 0.0) & (state <= 1.0))
        assert_valid_state(raw)
        previous = raw.copy()


def test_observe_delays_jitter_around_base():
    prof = fd_profile()
    env = FogEnvironment(prof, seed=4)
    clock = SimClock()
    for _ in range(50):
        env.observe(clock)
        fog_cloud = factor(env.raw_state, "delay_fog_cloud")
        dev_cloud = factor(env.raw_state, "delay_dev_cloud")
        assert 0.9 * prof.base_delay_fog_cloud_ms <= fog_cloud <= 1.1 * prof.base_delay_fog_cloud_ms
        assert 0.9 * prof.base_delay_dev_cloud_ms <= dev_cloud <= 1.1 * prof.base_delay_dev_cloud_ms
        clock.advance(1.0)


def test_normalize_state_is_unit_interval():
    env = FogEnvironment(fd_profile(), seed=5)
    clock = SimClock()
    env.execute(3, clock)
    vec = env.observe(clock)
    assert vec.shape == (19,)
    assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
    assert STATE_FACTORS == tuple(STATE_CAPS)
    # each factor is divided by its own cap
    expected = [min(1.0, factor(env.raw_state, f) / STATE_CAPS[f]) for f in STATE_FACTORS]
    assert vec.tolist() == expected


class _RecordingStatic(StaticStrategy):
    """A static plan that keeps every state it decides on."""

    def __init__(self, fog_modules: int):
        super().__init__(fog_modules)
        self.seen = []

    def select_k(self, state_vec, rng):
        self.seen.append(state_vec.tolist())
        return super().select_k(state_vec, rng)


@pytest.mark.parametrize("profile, digest", [
    (fd_profile(), "04b02dcf51fa3c55028758c4abd57a942d9ce92d7195c24597e7c7c0be33fc38"),
    (ipokemon_profile(), "2274edd4ac9be6cbb0241f3b7a17477d6641417818d57b8192e7529d9f19532e"),
    (heavy_profile(), "846872e186cf5a45a95326a28f215b3c7b0fefc96ba9aa8f50fc61b447ec7413"),
], ids=["fd", "ipokemon", "heavy"])
def test_static_episodes_observe_and_deploy_the_pinned_stream(profile, digest):
    """Every static plan, one seeded episode each: the observed vectors and the
    outcomes hash to the values the simulator has produced since they were pinned."""
    record = []
    for k in range(profile.n_modules + 1):
        strategy = _RecordingStatic(k)
        outcomes = simulate_episode(FogEnvironment(profile, seed=2026), strategy, random.Random(0))
        record.append([strategy.seen, [
            [o.fog_modules, o.duration_s, o.requests,
             o.usage.cpu_units, o.usage.mem_gb, o.usage.storage_gb]
            for o in outcomes
        ]])
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest


# -- deployments -------------------------------------------------------------

def test_execute_rejects_bad_plan():
    env = FogEnvironment(fd_profile(), seed=0)
    with pytest.raises(ValueError):
        env.execute(4, SimClock())


def test_execute_is_deterministic_for_a_seed():
    results = []
    for _ in range(2):
        env = FogEnvironment(fd_profile(), seed=31)
        clock = SimClock()
        outcome = env.execute(2, clock)
        results.append(outcome)
    a, b = results
    assert a.duration_s == b.duration_s
    assert a.usage == b.usage
    assert a.requests == b.requests


def test_execute_usage_piecewise():
    """Plan 0 touches no fog resources; the full plan engages every module."""
    env = idle_node(fd_profile(), seed=1)
    clock = SimClock()
    cloud_only = env.execute(0, clock)
    assert cloud_only.usage.cpu_units == 0.0
    assert cloud_only.usage.mem_gb == 0.0
    assert cloud_only.usage.storage_gb == 0.0
    full = env.execute(3, clock)
    assert full.usage.cpu_units > 0.0
    assert full.usage.mem_gb > 0.0
    assert full.usage.storage_gb > 0.0


def test_execute_duration_matches_breakdown_when_unstressed():
    """20 frames, no stress, constant delays -> duration = 20 x per-frame total."""
    prof = fd_profile()
    env = idle_node(prof, seed=9)
    clock = SimClock()
    env.observe(clock)  # fixes the delay samples used by the deployment
    b = request_latency_breakdown(
        prof, 2,
        fog_cloud_delay_s=factor(env.raw_state, "delay_fog_cloud") / 1000.0,
        dev_cloud_delay_s=factor(env.raw_state, "delay_dev_cloud") / 1000.0,
    )
    outcome = env.execute(2, clock)
    assert outcome.duration_s == pytest.approx(20 * b.total_s, rel=1e-9)


def test_execute_advances_the_clock_by_the_duration():
    env = FogEnvironment(fd_profile(), seed=10)
    clock = SimClock()
    outcome = env.execute(1, clock)
    assert clock.now == pytest.approx(outcome.duration_s, rel=1e-12)


def test_stress_trajectory_ignores_actions():
    """Same seed, different plans: identical load at identical simulated times."""
    env_a = FogEnvironment(fd_profile(), seed=55)
    env_b = FogEnvironment(fd_profile(), seed=55)
    clock_a, clock_b = SimClock(), SimClock()
    env_a.execute(0, clock_a)   # long deployment
    for _ in range(3):
        env_b.execute(3, clock_b)  # several short ones
    # bring B to A's simulated time and compare the observed load
    clock_b.advance(clock_a.now - clock_b.now)
    assert factor(env_a.observe(clock_a), "cpu_util") == factor(env_b.observe(clock_b), "cpu_util")


def test_stressed_deployments_take_longer_on_busy_nodes():
    """The heavy profile demands the whole node, so any load stretches it."""
    prof = heavy_profile()
    idle = idle_node(prof, seed=3)
    outcome_idle = idle.execute(1, SimClock())
    seed = next(s for s in range(100) if FogEnvironment(prof, seed=s).stress.load > 0)
    busy = FogEnvironment(prof, seed=seed)
    outcome_busy = busy.execute(1, SimClock())
    assert outcome_busy.duration_s > outcome_idle.duration_s


def test_all_profiles_run_every_plan():
    for prof in (fd_profile(), ipokemon_profile(), heavy_profile()):
        env = FogEnvironment(prof, seed=13)
        clock = SimClock()
        for k in range(prof.n_modules + 1):
            outcome = env.execute(k, clock)
            assert outcome.duration_s > 0
            assert outcome.requests == prof.requests_per_deployment


@pytest.mark.parametrize("profile", [fd_profile(), ipokemon_profile()], ids=["fd", "ipokemon"])
def test_execute_moves_the_stress_only_into_new_intervals(profile, monkeypatch):
    """One deployment calls `StressProcess.advance` at most once for each
    interval its requests enter, plus once at its end, not once per request."""
    calls = []
    advance = StressProcess.advance

    def counted(self, now):
        calls.append(now)
        advance(self, now)

    monkeypatch.setattr(StressProcess, "advance", counted)
    env = FogEnvironment(profile, seed=2026)
    clock = SimClock()
    env.observe(clock)
    for k in range(profile.n_modules + 1):
        started = clock.now
        calls.clear()
        env.execute(k, clock)
        entered = int(clock.now / STRESS_RESAMPLE_S) - int(started / STRESS_RESAMPLE_S)
        assert len(calls) <= entered + 1 < profile.requests_per_deployment
        assert calls[-1] == clock.now


@pytest.mark.parametrize("profile", [fd_profile(), ipokemon_profile()], ids=["fd", "ipokemon"])
def test_execute_builds_each_breakdown_once_per_free_units_value(profile, monkeypatch):
    """One deployment builds at most one breakdown for each free-units value
    its requests meet, however many requests it streams."""
    builds, available = [], []
    build, breakdown = env_module._build_breakdown, env_module.request_latency_breakdown

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    def recorded(*args, **kwargs):
        available.append(kwargs["available_units"])
        return breakdown(*args, **kwargs)

    monkeypatch.setattr(env_module, "_build_breakdown", counted_build)
    monkeypatch.setattr(env_module, "request_latency_breakdown", recorded)
    env = FogEnvironment(profile, seed=2026)
    clock = SimClock()
    for k in range(profile.n_modules + 1):
        env.observe(clock)
        builds.clear()
        available.clear()
        env.execute(k, clock)
        assert len(available) == profile.requests_per_deployment
        assert 1 <= len(builds) <= len(set(available))


@pytest.mark.parametrize("bad", [-1e9, float("nan"), float("inf")])
def test_execute_stops_at_a_request_that_would_move_time_backward(bad, monkeypatch):
    """A request total the clock would refuse raises the clock's own error,
    with the clock left after the requests before it."""
    breakdown = env_module.request_latency_breakdown
    totals = []

    def third_goes_bad(*args, **kwargs):
        parts = breakdown(*args, **kwargs)
        if len(totals) == 2:
            parts = parts._replace(transmission_s=bad)
        totals.append(parts.total_s)
        return parts

    monkeypatch.setattr(env_module, "request_latency_breakdown", third_goes_bad)
    clock = SimClock()
    with pytest.raises(ValueError) as raised:
        FogEnvironment(fd_profile(), seed=4).execute(2, clock)
    with pytest.raises(ValueError) as refused:
        SimClock().advance(totals[2])
    assert str(raised.value) == str(refused.value)
    assert clock.now == totals[0] + totals[1]


# -- execute against a by-name reference ---------------------------------------

def reference_execute(env: FogEnvironment, k: int, clock: SimClock) -> DeploymentOutcome:
    """`FogEnvironment.execute` as a plain loop: one breakdown per request, and
    fog busy time summed by module name."""
    profile = env.profile
    requests = profile.requests_per_deployment
    fog_cloud_s = float(factor(env.raw_state, "delay_fog_cloud")) / 1000.0
    dev_cloud_s = float(factor(env.raw_state, "delay_dev_cloud")) / 1000.0
    started = clock.now
    busy = {m.name: 0.0 for m in profile.modules[:k]}
    uplink_units = 0.0
    for _ in range(requests):
        env.stress.advance(clock.now)
        parts = request_latency_breakdown(
            profile, k, available_units=CAPACITY_UNITS - env.stress.load,
            fog_cloud_delay_s=fog_cloud_s, dev_cloud_delay_s=dev_cloud_s,
        )
        for module, seconds in zip(profile.modules, parts.fog_s):
            busy[module.name] += seconds
        uplink_units += parts.transmission_s / profile.uplink_seconds_per_raw_unit \
            if profile.uplink_seconds_per_raw_unit > 0 else 0.0
        clock.advance(parts.total_s)
    duration_s = clock.now - started
    env.stress.advance(clock.now)
    usage = ResourceUsage()
    if k > 0 and duration_s > 0:
        cpu = mem = storage = 0.0
        for module in profile.modules[:k]:
            frac = busy[module.name] / duration_s
            cpu += module.demand.cpu_units * frac
            mem += module.demand.mem_gb * frac
            storage += module.demand.storage_gb * frac
        usage = ResourceUsage(cpu_units=min(MAX_CPU_UNITS, cpu), mem_gb=mem, storage_gb=storage)
    env._account_traffic(k, requests, uplink_units)
    env._deployed_mem_gb = sum(m.demand.mem_gb for m in profile.modules[:k])
    env._deployed_storage_gb = sum(m.demand.storage_gb for m in profile.modules[:k])
    return DeploymentOutcome(fog_modules=k, duration_s=duration_s, requests=requests, usage=usage)


def deploy_both(profile, seed: int, stressed: bool, plans) -> None:
    """Run the same plans through `execute` and the reference on twin nodes;
    every outcome, clock and raw state (the eight traffic counters among them)
    must agree exactly, errors included."""
    node = FogEnvironment if stressed else idle_node
    mine, theirs = node(profile, seed=seed), node(profile, seed=seed)
    clock_mine, clock_theirs = SimClock(), SimClock()
    for k in plans:
        assert np.array_equal(mine.observe(clock_mine), theirs.observe(clock_theirs))
        try:
            expected = reference_execute(theirs, k, clock_theirs)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                mine.execute(k, clock_mine)
            assert str(raised.value) == str(exc)
        else:
            assert mine.execute(k, clock_mine) == expected
        assert clock_mine.now == clock_theirs.now
        assert np.array_equal(mine.raw_state, theirs.raw_state)


@pytest.mark.parametrize("profile, requests", [(fd_profile(), 120), (ipokemon_profile(), 2000)],
                         ids=["fd", "ipokemon"])
def test_execute_matches_the_reference_over_several_free_units_values(profile, requests,
                                                                       monkeypatch):
    """An all-on-Fog deployment of seed 6 that lasts about 33 s meets the free
    units 3, 1, 6 and 1 again, and the one unit left free stretches its
    2-unit stages, so `execute` sums its busy time over runs of requests with
    different fog seconds; outcome, clock and raw state must still be the
    reference's."""
    long = dataclasses.replace(profile, requests_per_deployment=requests)
    available, fog_seconds = [], set()
    breakdown = env_module.request_latency_breakdown

    def recorded(*args, **kwargs):
        available.append(kwargs["available_units"])
        parts = breakdown(*args, **kwargs)
        fog_seconds.add(parts.fog_s)
        return parts

    monkeypatch.setattr(env_module, "request_latency_breakdown", recorded)
    deploy_both(long, 6, True, [long.n_modules])
    assert len(available) == requests
    assert len(set(available)) >= 3 and len(fog_seconds) >= 2


@settings(max_examples=60, deadline=None)
@given(profile=application_profiles(max_seconds=2.0, max_data=10.0, max_requests=60),
       seed=st.integers(0, 2**32), stressed=st.booleans(), data=st.data())
def test_execute_matches_the_by_name_reference(profile, seed, stressed, data):
    plans = data.draw(st.lists(st.integers(0, profile.n_modules), min_size=1, max_size=4))
    deploy_both(profile, seed, stressed, plans)


@settings(max_examples=20, deadline=None)
@given(profile=application_profiles(max_requests=60), seed=st.integers(0, 2**32), data=st.data())
def test_execute_and_the_reference_reject_requests_that_take_no_time(profile, seed, data):
    instant = dataclasses.replace(
        profile,
        modules=tuple(dataclasses.replace(m, compute_s=0.0, fog_extra_s=0.0)
                      for m in profile.modules),
        uplink_seconds_per_raw_unit=0.0, base_delay_fog_cloud_ms=0.0, base_delay_dev_cloud_ms=0.0,
    )
    k = data.draw(st.integers(0, instant.n_modules))
    with pytest.raises(ValueError, match="duration_s: must be > 0"):
        reference_execute(FogEnvironment(instant, seed=seed), k, SimClock())
    deploy_both(instant, seed, True, [k])
