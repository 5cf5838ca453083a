"""Tracer: self-time arithmetic on synthetic spans, wrapping and restoring."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import NO_PARENT, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs past
    # the parent's end; grandchild [3, 4] sits inside the second child.
    starts = [0.0, 1.0, 2.0, 8.0, 3.0]
    ends = [10.0, 3.0, 5.0, 12.0, 4.0]
    parents = [NO_PARENT, 0, 0, 0, 2]
    got = self_times(starts, ends, parents)
    assert got[0] == pytest.approx(10.0 - (4.0 + 2.0))   # covered: [1, 5] and [8, 10]
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0 - 1.0)            # minus its grandchild only
    assert got[3] == pytest.approx(4.0)
    assert got[4] == pytest.approx(1.0)


def test_self_time_without_children_is_the_duration():
    assert self_times([1.0, 5.0], [2.5, 5.25], [NO_PARENT, NO_PARENT]) == [1.5, 0.25]


def test_wrappers_record_nested_spans_and_are_restored():
    from fogdist import env, harness
    from fogdist.profiles import fd_profile

    original = env.request_latency_breakdown
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.request_latency_breakdown is not original   # imported-by-name copy too
        environment = env.FogEnvironment(fd_profile(), seed=5)
        environment.execute(1, env.SimClock())
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert env.request_latency_breakdown is original
    assert harness.request_latency_breakdown is original
    totals = tracer.layer_totals()
    assert totals["env.execute"]["calls"] == 1
    assert totals["env.request_latency_breakdown"]["calls"] == fd_profile().requests_per_deployment
    execute = totals["env.execute"]
    assert 0.0 <= execute["self_s"] <= execute["s"]
    breakdown_spans = [i for i in range(len(tracer.start))
                       if tracer.names[tracer.name_id[i]] == "env.request_latency_breakdown"]
    assert all(tracer.names[tracer.name_id[tracer.parent[i]]] == "env.execute" for i in breakdown_spans)


def test_restored_notices_a_wrapper_left_behind():
    from fogdist import env

    tracer = Tracer()
    tracer.install()
    wrapper = env.FogEnvironment.execute
    tracer.uninstall()
    assert tracer.restored()
    original = env.FogEnvironment.execute
    env.FogEnvironment.execute = wrapper
    try:
        assert not tracer.restored()
    finally:
        env.FogEnvironment.execute = original
