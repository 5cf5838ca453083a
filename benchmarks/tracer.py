"""Span tracer that wraps fogdist's layer boundaries from outside the package.

`Tracer.install` replaces each function in `TARGETS` with a wrapper that
records one span per call: name, start, end and the enclosing span, under
the tracer's run id.  A function imported by name into other fogdist
modules (say `run_episode` in `fogdist.harness`) is replaced there too, so
every call site is seen.  `Tracer.uninstall` puts back the original objects.  Spans
stay in memory as flat arrays until `write` saves them after the run.

A span's self time is its duration minus the part of its interval that its
child spans cover, so it excludes exactly the named layers called under it.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (span name, module, attribute path).  The layer boundaries the per-layer
# metrics are derived from; helpers such as CSV writing are left unwrapped
# so that they count as the self time of the command that calls them.
TARGETS = (
    ("profiles.resolve", "fogdist.profiles", "resolve_profile"),
    ("env.execute", "fogdist.env", "FogEnvironment.execute"),
    ("env.observe", "fogdist.env", "FogEnvironment.observe"),
    ("env.request_latency_breakdown", "fogdist.env", "request_latency_breakdown"),
    ("env.stress_advance", "fogdist.env", "StressProcess.advance"),
    ("model.deployment_cost", "fogdist.model", "deployment_cost"),
    ("model.deployment_utility", "fogdist.model", "deployment_utility"),
    ("nn.forward", "fogdist.nn", "QNetwork.forward"),
    ("nn.sgd_step", "fogdist.nn", "QNetwork.sgd_step"),
    ("agent.memory_sample", "fogdist.agent", "ReplayMemory.sample"),
    ("agent.replay", "fogdist.agent", "DQNAgent.replay"),
    ("agent.run_episode", "fogdist.agent", "run_episode"),
    ("agent.train", "fogdist.agent", "train"),
    ("agent.save_checkpoint", "fogdist.agent", "save_checkpoint"),
    ("agent.load_checkpoint", "fogdist.agent", "load_checkpoint"),
    ("harness.evaluate_strategies", "fogdist.harness", "evaluate_strategies"),
    ("harness.cmd_train", "fogdist.harness", "cmd_train"),
    ("harness.cmd_evaluate", "fogdist.harness", "cmd_evaluate"),
    ("harness.cmd_sweep", "fogdist.harness", "cmd_sweep"),
)

NO_PARENT = -1


class Tracer:
    """Records the spans of one traced run of the program."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.missing: list[str] = []      # targets the program no longer has
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []   # (owner, attribute, original)
        self._wrappers: dict[int, object] = {}   # kept alive so ids stay unique

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else NO_PARENT)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        functools.update_wrapper(traced, fn)
        self._wrappers[id(traced)] = traced
        return traced

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target still present in the program; once per tracer."""
        if self._patches or self.missing:
            raise RuntimeError("a Tracer records one run; make a new one")
        modules = _fogdist_modules()
        for name, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_path:                      # a method: one place to patch
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:              # a function and every name it is imported as
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._stack.clear()

    def restored(self) -> bool:
        """True when every patched attribute holds its original object again
        and no fogdist module or class still refers to a wrapper."""
        if any(vars(owner).get(attr) is not original for owner, attr, original in self._patches):
            return False
        for module in _fogdist_modules():
            for value in list(vars(module).values()):
                if id(value) in self._wrappers:
                    return False
                if isinstance(value, type) and any(id(v) in self._wrappers for v in vars(value).values()):
                    return False
        return True

    # -- derived figures ---------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        selfs = self_times(self.start, self.end, self.parent)
        for name_id, start, end, self_s in zip(self.name_id, self.start, self.end, selfs):
            entry = totals[self.names[name_id]]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
        return dict(totals)

    def write(self, path: Path) -> None:
        """All recorded spans as one .npz: the run id, and parallel arrays
        parent (an index into the arrays, -1 for none), name_id (an index
        into names), start and end (perf_counter seconds)."""
        np.savez(path, run=np.int32(self.run_id),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=np.array(self.names))


def _fogdist_modules() -> list:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "fogdist" or key.startswith("fogdist."))]


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the length of the union of its children's
    intervals, each clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p != NO_PARENT:
            children[p].append((starts[i], ends[i]))
    result = [e - s for s, e in zip(starts, ends)]
    for p, intervals in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        reach = lo
        for a, b in sorted(intervals):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        result[p] -= covered
    return result
