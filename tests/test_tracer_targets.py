"""The benchmark tracer's targets all exist, so no traced layer reads a silent 0."""
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from tracer import Tracer  # noqa: E402


def test_every_tracer_target_resolves():
    importlib.import_module("fogdist.cli")   # loads every module a target lives in
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert tracer.restored()
