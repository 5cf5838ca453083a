"""Each workload end to end at tiny sizes, untraced and traced."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(workload, trace, tmp_path):
    result = run.bench(workload, seed=11, seconds=0, trace=trace, tiny=True, work=tmp_path)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.declared_metrics(trace))
    if trace:
        assert (tmp_path / "spans.npz").is_file()
        assert result["metrics"]["env.execute.calls"] > 0
    else:
        assert all(v > 0 for v in result["metrics"].values())
