"""``scripts/trajectory.py``: ledger runs become one line per (sha, workload,
seed), appended once."""

import importlib.util
import json
import os
import subprocess

import pytest

SCRIPT = os.path.join(
    os.path.dirname(__file__), "..", "..", "scripts", "trajectory.py"
)


def load_script():
    spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(directory, workload, seed, p50):
    os.makedirs(directory, exist_ok=True)
    document = {
        "workload": workload, "seed": seed, "quick": False, "seconds": 20,
        "n_ops": 10, "end_to_end": {"query_wall_s_p50": p50},
        "per_layer": {"cluster.tasks": 37.0}, "host": {"cpu_count": 2},
        "failures": [],
    }
    with open(os.path.join(directory, f"{workload}.json"), "w") as handle:
        json.dump(document, handle)
    with open(os.path.join(directory, f"{workload}.trace.json"), "w") as handle:
        json.dump({"spans": []}, handle)


def test_runs_append_once_per_sha_workload_and_seed(tmp_path, capsys):
    trajectory = load_script()
    out, path = tmp_path / "out", str(tmp_path / "TRAJECTORY.jsonl")
    write_run(str(out / "seed-1"), "served_mix", 1, 0.049)
    write_run(str(out / "seed-2"), "served_mix", 2, 0.047)

    assert len(trajectory.append(str(out), "abc1234", path)) == 2
    assert trajectory.append(str(out), "abc1234", path) == []
    assert capsys.readouterr().err.count("skipped: abc1234 served_mix") == 2
    assert len(trajectory.append(str(out / "seed-1"), "def5678", path)) == 1

    with open(path) as handle:
        rows = [json.loads(line) for line in handle]
    assert [(r["sha"], r["seed"]) for r in rows] == [
        ("abc1234", 1), ("abc1234", 2), ("def5678", 1)
    ]
    assert rows[0]["end_to_end"] == {"query_wall_s_p50": 0.049}
    assert rows[0]["failures"] == 0


def test_uncommitted_tree_needs_a_label(monkeypatch):
    trajectory = load_script()
    monkeypatch.setattr(trajectory.subprocess, "run", lambda *a, **k: (
        subprocess.CompletedProcess(a, 0, stdout="abc1234-dirty\n")
    ))
    with pytest.raises(SystemExit, match="--sha"):
        trajectory.checkout_sha()
