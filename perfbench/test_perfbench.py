"""Tests of the benchmark itself: seeded inputs, exact counts, self times and
the refusal to run without sources.

    python3 -m pytest perfbench -q

The count tests run every workload three times (about a minute on 2 cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXPECTED_COUNTS = {
    "explicit-256": {"elliptic.transforms_per_step": 4, "bounds.test_family_builds": 0},
    "imex-cli-128": {"elliptic.transforms_per_step": 6, "bounds.test_family_builds": 2},
    "diag-io-64": {"elliptic.transforms_per_step": 4, "bounds.test_family_builds": 2},
    "sweep-64": {"elliptic.transforms_per_step": 4, "bounds.test_family_builds": 0},
}


@pytest.mark.parametrize("workload", sorted(workloads.SPEC_MAKERS))
def test_inputs_come_from_the_seed(workload):
    first = workloads.make_spec(workload, 7)
    assert json.loads(json.dumps(first)) == first
    assert workloads.make_spec(workload, 7) == first
    assert workloads.make_spec(workload, 8) != first


def _child(tmp_path: Path, workload: str, seed: int, trace: bool, tag: str) -> dict:
    spec_path = tmp_path / f"spec-{seed}.json"
    spec_path.write_text(json.dumps(workloads.make_spec(workload, seed)))
    result = run.run_child(spec_path, tmp_path / tag, trace)
    assert result["failures"] == []
    return result


@pytest.mark.parametrize("workload", sorted(workloads.SPEC_MAKERS))
def test_counts_repeat_and_held_out_seed_agrees(tmp_path, workload):
    seed = workloads.DEFAULT_SEED
    a = _child(tmp_path, workload, seed, True, "a")
    b = _child(tmp_path, workload, seed, True, "b")
    counts = {name: a["layers"][name] for name in layers.COUNTS}
    assert counts == {name: b["layers"][name] for name in layers.COUNTS}
    assert a["digests"] == b["digests"]
    for name, value in EXPECTED_COUNTS[workload].items():
        assert counts[name] == value, name
    assert counts["stepper.steps"] == a["steps"] > 0

    held_out = _child(tmp_path, workload, workloads.HELD_OUT_SEED, False, "held-out")
    assert held_out["outcome"] == a["outcome"]


def test_self_time_subtracts_children_of_the_same_process_only():
    spans = [
        {"id": "1:0", "name": "cli.cmd_sweep", "start": 0, "end": 100, "parent": None},
        {"id": "1:1", "name": "config.from_dict", "start": 10, "end": 30, "parent": "1:0"},
        {"id": "2:0", "name": "cli._sweep_point", "start": 20, "end": 90, "parent": "1:0"},
        {"id": "2:1", "name": "stepper.run", "start": 25, "end": 85, "parent": "2:0"},
    ]
    own = tracer.self_times(spans)
    assert own == {"1:0": 80, "1:1": 20, "2:0": 10, "2:1": 60}
    assert layers._union_ns([(0, 10), (5, 20), (30, 40)]) == 30


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explicit-256", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
