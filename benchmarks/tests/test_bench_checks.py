"""Output checks: static-plan digests and CSV invariants."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def tiny_sweep(tmp_path: Path) -> Path:
    from fogdist.cli import main

    out = tmp_path / "sweep"
    config = tmp_path / "config.json"
    config.write_text('{"eval_experiments": 2}', encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--seed", "3", "--out-dir", str(out),
                 "--ratios", "0.01,1", "--weights=-1:-1", "--weights=0:-1"]) == 0
    return out


def replace_line(path: Path, index: int, text: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[index] = text
    path.write_text("".join(lines), encoding="utf-8")


def test_digest_check_flags_a_tampered_data_row(tmp_path, monkeypatch):
    out = tiny_sweep(tmp_path)
    wl = WORKLOADS["sweep-grid-fd"]
    recorded = {name: checks.static_rows_digest(out / name) for name in ("sweep_cells.csv",
                                                                         "costs_vs_lambda.csv")}
    monkeypatch.setattr(checks, "load_digests", lambda: {wl.name: recorded})
    assert worker.digest_problems(wl, out, 3) == []

    cells = out / "sweep_cells.csv"
    lines = cells.read_text(encoding="utf-8").splitlines(keepends=True)
    replace_line(cells, 3, lines[3].replace(",", ";", 1))
    problems = worker.digest_problems(wl, out, 3)
    assert len(problems) == 1 and problems[0].startswith("sweep_cells.csv")


def test_digest_ignores_the_config_hash_line_and_non_static_rows(tmp_path):
    out = tiny_sweep(tmp_path)
    cells = out / "sweep_cells.csv"
    before = checks.static_rows_digest(cells)
    replace_line(cells, 0, "# config_hash=000000000000 master_seed=3\n")
    with open(cells, "a", encoding="utf-8") as fh:
        fh.write("0.01,-1.0,-1.0,context-aware,1,-1,-1,-1,-1,-1,-1\n")
    assert checks.static_rows_digest(cells) == before


def test_csv_invariants_flag_row_count_positive_and_non_finite_utilities(tmp_path):
    path = tmp_path / "utilities_s0.csv"
    path.write_text("# config_hash=x master_seed=1\nexperiment,utility\n0,-1.5\n1,-0.25\n",
                    encoding="utf-8")
    assert checks.utilities_ok(path, ["utility"], 2) == []
    assert len(checks.utilities_ok(path, ["utility"], 3)) == 1
    path.write_text("experiment,utility\n0,0.5\n1,nan\n", encoding="utf-8")
    assert "2 bad values" in checks.utilities_ok(path, ["utility"], 2)[0]


def test_every_output_of_a_tiny_sweep_passes_its_invariants(tmp_path):
    wl = WORKLOADS["sweep-grid-fd"]
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text('{"eval_experiments": %d}' % TINY.sweep_experiments, encoding="utf-8")
    code, _, _ = worker.call_cli(wl.argv(config, 4, out, None))
    assert code == 0
    for what, fn in worker.output_problems(wl, TINY, out, 3):
        assert fn() == [], what
