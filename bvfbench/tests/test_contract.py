"""BENCHMARK.json agrees with what the command reports, and the command
refuses to report without the program's sources."""

import json
import os
import re
import shutil
import subprocess
import sys

import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_keys_and_limits():
    doc = _benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bvfbench/run.py"]
    assert doc["paths"] == ["bvfbench"]
    assert 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_match_the_command():
    doc = _benchmark()
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == [(n, u, b) for n, (u, b, _, _) in run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [(n, u, b) for n, (u, b) in run.PER_LAYER.items()]


def test_bounds_and_setup_metric():
    doc = _benchmark()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert set(bounds) == {m["name"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bvfbench"), tmp_path / "bvfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bvfbench/run.py", "--workload", "table2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
