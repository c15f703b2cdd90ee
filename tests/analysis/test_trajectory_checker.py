"""CI bench-trajectory gate: regression detection and skip paths."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_CHECKER = (Path(__file__).resolve().parents[2] / "benchmarks"
            / "check_throughput_trajectory.py")


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("trajectory", _CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_bench(path: Path, programs_per_sec: float,
                flight_overhead: float | None = None,
                profile_overhead: float | None = None,
                repair_overhead: float | None = None,
                repair_rate: float | None = None) -> str:
    payload = {
        "parallel": {"programs_per_sec": programs_per_sec},
        "serial": {"programs_per_sec": programs_per_sec / 2},
    }
    if flight_overhead is not None:
        payload["flight_recorder"] = {
            "disabled_overhead": flight_overhead,
            "disabled_overhead_budget": 0.05,
        }
    if profile_overhead is not None:
        payload["profiler"] = {
            "disabled_overhead": profile_overhead,
            "disabled_overhead_budget": 0.05,
        }
    if repair_overhead is not None or repair_rate is not None:
        payload["repair_feedback"] = {
            "disabled_overhead_budget": 0.05,
        }
        if repair_overhead is not None:
            payload["repair_feedback"]["disabled_overhead"] = repair_overhead
        if repair_rate is not None:
            payload["repair_feedback"]["verified_rate"] = repair_rate
    path.write_text(json.dumps(payload))
    return str(path)


def test_within_tolerance_passes(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 80.0)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_large_regression_fails(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 60.0)
    assert checker.main(["--previous", prev, "--current", cur]) == 1


def test_missing_previous_skips(checker, tmp_path):
    cur = write_bench(tmp_path / "cur.json", 60.0)
    missing = str(tmp_path / "nope.json")
    assert checker.main(["--previous", missing, "--current", cur]) == 0


def test_missing_current_fails(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    missing = str(tmp_path / "nope.json")
    assert checker.main(["--previous", prev, "--current", missing]) == 1


def test_flat_payload_accepted(checker, tmp_path):
    # Older artifacts without the parallel/serial split still load.
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"programs_per_sec": 42.0}))
    value, _ = checker.load_programs_per_sec(str(flat))
    assert value == 42.0


def test_flight_overhead_within_budget_passes(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, flight_overhead=0.03)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_flight_overhead_over_budget_fails(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, flight_overhead=0.08)
    assert checker.main(["--previous", prev, "--current", cur]) == 1


def test_flight_overhead_gate_needs_no_previous(checker, tmp_path):
    # The gate is absolute (in-process baseline), so it must fire even
    # on the first run of a branch, where the regression gate skips.
    missing = str(tmp_path / "nope.json")
    cur = write_bench(tmp_path / "cur.json", 100.0, flight_overhead=0.20)
    assert checker.main(["--previous", missing, "--current", cur]) == 1


def test_flight_overhead_missing_skips(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_flight_overhead_custom_budget(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, flight_overhead=0.08)
    assert checker.main(["--previous", prev, "--current", cur,
                         "--max-flight-overhead", "0.10"]) == 0


def test_profile_overhead_within_budget_passes(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, profile_overhead=0.03)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_profile_overhead_over_budget_fails(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, profile_overhead=0.08)
    assert checker.main(["--previous", prev, "--current", cur]) == 1


def test_profile_overhead_gate_needs_no_previous(checker, tmp_path):
    # Same absolute gate as the flight recorder: fires even on a
    # branch's first run.
    missing = str(tmp_path / "nope.json")
    cur = write_bench(tmp_path / "cur.json", 100.0, profile_overhead=0.20)
    assert checker.main(["--previous", missing, "--current", cur]) == 1


def test_profile_overhead_custom_budget(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, profile_overhead=0.08)
    assert checker.main(["--previous", prev, "--current", cur,
                         "--max-profile-overhead", "0.10"]) == 0


def test_repair_overhead_over_budget_fails(checker, tmp_path):
    # Absolute gate, needs no previous artifact.
    missing = str(tmp_path / "nope.json")
    cur = write_bench(tmp_path / "cur.json", 100.0, repair_overhead=0.08)
    assert checker.main(["--previous", missing, "--current", cur]) == 1


def test_repair_overhead_within_budget_passes(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, repair_overhead=0.03)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_repair_rate_small_drop_passes(checker, tmp_path):
    # 0.90 -> 0.80 is an 11% relative drop, inside the 20% default.
    prev = write_bench(tmp_path / "prev.json", 100.0,
                       repair_overhead=0.0, repair_rate=0.90)
    cur = write_bench(tmp_path / "cur.json", 100.0,
                      repair_overhead=0.0, repair_rate=0.80)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_repair_rate_large_drop_fails(checker, tmp_path):
    # 0.90 -> 0.50 is a 44% relative drop.
    prev = write_bench(tmp_path / "prev.json", 100.0,
                       repair_overhead=0.0, repair_rate=0.90)
    cur = write_bench(tmp_path / "cur.json", 100.0,
                      repair_overhead=0.0, repair_rate=0.50)
    assert checker.main(["--previous", prev, "--current", cur]) == 1


def test_repair_rate_missing_skips(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_repair_rate_custom_threshold(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0,
                       repair_overhead=0.0, repair_rate=0.90)
    cur = write_bench(tmp_path / "cur.json", 100.0,
                      repair_overhead=0.0, repair_rate=0.50)
    assert checker.main(["--previous", prev, "--current", cur,
                         "--max-repair-rate-drop", "0.50"]) == 0


def test_repair_rate_zero_previous_skips(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0,
                       repair_overhead=0.0, repair_rate=0.0)
    cur = write_bench(tmp_path / "cur.json", 100.0,
                      repair_overhead=0.0, repair_rate=0.0)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_cache_rate_drop_within_tolerance_passes(checker):
    prev = {"caches": {"tnum_memo_hit_rate": 0.90}}
    cur = {"caches": {"tnum_memo_hit_rate": 0.70}}
    assert checker.check_cache_rates(prev, cur, max_drop=0.25)


def test_cache_rate_large_drop_fails(checker):
    prev = {"caches": {"tnum_memo_hit_rate": 0.90}}
    cur = {"caches": {"tnum_memo_hit_rate": 0.60}}
    assert not checker.check_cache_rates(prev, cur, max_drop=0.25)


def test_disappeared_cache_rate_fails(checker):
    prev = {"caches": {"tnum_memo_hit_rate": 0.90,
                       "verdict_hit_rate": 0.01}}
    cur = {"caches": {"tnum_memo_hit_rate": 0.90}}
    assert "verdict_hit_rate" not in checker.RETIRED_RATES
    assert not checker.check_cache_rates(prev, cur, max_drop=0.25)


def test_retired_cache_rate_skipped(checker, capsys):
    prev = {"caches": {"tnum_memo_hit_rate": 0.90,
                       "prune_exact_fraction": 0.75}}
    cur = {"caches": {"tnum_memo_hit_rate": 0.90}}
    assert "prune_exact_fraction" in checker.RETIRED_RATES
    assert checker.check_cache_rates(prev, cur, max_drop=0.25)
    assert "prune_exact_fraction retired" in capsys.readouterr().out

