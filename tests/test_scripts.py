"""Smoke tests of the scripts under scripts/, at tiny sizes: both read the
run record's event log."""

import json
import os
import subprocess
import sys
from pathlib import Path

from wavetrig.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_demo_decay_runs(tmp_path):
    proc = run_script("demo_decay.py", "--n", "19", "--t-end", "1", "--out", "demo", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "3 events" in proc.stdout
    assert "check envelope: PASS" in proc.stdout
    assert (tmp_path / "demo" / "events.csv").read_text().count("\n") == 4  # header + 3 events


def test_demo_decay_writes_the_clis_run_directory(tmp_path, monkeypatch):
    # the demo drives `wavetrig simulate`: the same flags give the same files,
    # the summary's wall-clock time aside
    flags = ["--n", "19", "--alpha", "2", "--t-end", "1", "--out", "run"]
    for name in ("demo", "cli"):
        (tmp_path / name).mkdir()
    proc = run_script("demo_decay.py", *flags, cwd=tmp_path / "demo")
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(tmp_path / "cli")
    assert main(["simulate", *flags]) == 0
    demo, cli = tmp_path / "demo" / "run", tmp_path / "cli" / "run"
    for name in ("series.csv", "events.csv"):
        assert (demo / name).read_bytes() == (cli / name).read_bytes(), name
    summaries = [json.loads((d / "summary.json").read_text()) for d in (demo, cli)]
    for s in summaries:
        del s["wall_clock_s"]
    assert summaries[0] == summaries[1]
    assert sorted(summaries[0]["checks"]) == ["envelope", "equivalence", "trigger-invariant", "vdot", "zeno"]


def test_feasibility_sweep_runs(tmp_path):
    proc = run_script(
        "feasibility_sweep.py", "--alphas", "1", "--lengths", "1,5", "--n", "19", "--t-end", "1",
        "--out", "sweep", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "2 cells, 1 feasible, 0 failed" in proc.stdout
    assert (tmp_path / "sweep" / "cell_a1_L1" / "events.csv").is_file()
