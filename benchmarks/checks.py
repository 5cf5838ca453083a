"""Output checks behind the benchmark's `correct`, `attempted` and `failed`.

Invariant checks hold at every seed: each CSV has the expected row count,
utilities are finite and <= 0, costs are finite and >= 0.  At the default
seed and full sizes the static-plan data rows must also match the digests
in `digests.json`, which keeps them byte-identical across changes that are
meant to be pure speed-ups or simplifications.  Digests cover data rows
only; the `# config_hash` comment line and the header are left out.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
STATIC_PLAN = re.compile(r"s\d+")
STATS_COLUMNS = ("min", "q1", "median", "mean", "q3", "max")
# Outputs that hold wall-clock measurements and so may differ between calls.
WALL_CLOCK_FILES = {"latency.csv", "timing.json"}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows, skipping `#` comment lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if not rows:
        raise ValueError(f"{path.name}: no header")
    return rows[0], rows[1:]


def column(path: Path, name: str) -> list[float]:
    header, rows = read_csv(path)
    j = header.index(name)
    return [float(row[j]) for row in rows]


def static_rows_digest(path: Path) -> str:
    """sha256 of the data rows whose approach is a static plan `s<k>`
    (every data row when the file has no approach column)."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = next(csv.reader(lines[:1]))
    j = header.index("approach") if "approach" in header else None
    digest = hashlib.sha256()
    for line, row in zip(lines[1:], csv.reader(lines[1:])):
        if j is None or STATIC_PLAN.fullmatch(row[j]):
            digest.update(line.encode())
    return digest.hexdigest()


def digested_files(workload: str, n_modules: int) -> list[str]:
    """Files whose static-plan rows are pinned by digest."""
    if workload == "sweep-grid-fd":
        return ["sweep_cells.csv", "costs_vs_lambda.csv"]
    if workload == "evaluate-ipokemon":
        return [f"utilities_s{k}.csv" for k in range(n_modules + 1)]
    return []


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def tree_digest(directory: Path) -> dict[str, str]:
    """sha256 of every simulated output under a directory, by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file() and p.name not in WALL_CLOCK_FILES
    }


def _finite_rows(path: Path, columns, rows_expected: int, ok) -> list[str]:
    header, rows = read_csv(path)
    problems = []
    if len(rows) != rows_expected:
        problems.append(f"{path.name}: {len(rows)} data rows, expected {rows_expected}")
    for name in columns:
        j = header.index(name)
        bad = [row[j] for row in rows if not (math.isfinite(float(row[j])) and ok(float(row[j])))]
        if bad:
            problems.append(f"{path.name}: column {name} has {len(bad)} bad values, e.g. {bad[0]}")
    return problems


def utilities_ok(path: Path, columns, rows_expected: int) -> list[str]:
    """Row count, and finite utilities <= 0 in the given columns."""
    return _finite_rows(path, columns, rows_expected, lambda v: v <= 0)


def costs_ok(path: Path, columns, rows_expected: int) -> list[str]:
    """Row count, and finite costs >= 0 in the given columns."""
    return _finite_rows(path, columns, rows_expected, lambda v: v >= 0)


def run_json_ok(out_dir: Path) -> list[str]:
    """run.json parses and every output it lists exists."""
    run = json.loads((out_dir / "run.json").read_text(encoding="utf-8"))
    missing = [name for name in run["outputs"].values() if not (out_dir / name).is_file()]
    return [f"run.json lists missing outputs {missing}"] if missing else []
