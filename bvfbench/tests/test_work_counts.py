"""Exact work counts repeat bit-for-bit, and the output checks bite.

Units run at a reduced campaign budget so the suite stays short; the
counts' determinism does not depend on the budget.
"""

import json
import os
import subprocess
import sys

import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGET = 300


def unit(**spec) -> dict:
    spec.setdefault("mode", "run")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "unit.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_campaign_counts_repeat_and_tracing_leaves_them_alone():
    first = unit(workload="table2", budget=BUDGET)
    second = unit(workload="table2", budget=BUDGET)
    traced = unit(workload="table2", budget=BUDGET, trace=True)
    assert first["counts"] == second["counts"] == traced["counts"]
    assert first["counts"]["verifier.calls"] > BUDGET // 2
    assert first["counts"]["bug_iterations"]


def test_sharded_counts_do_not_depend_on_workers():
    pooled = unit(workload="sharded_tail", budget=BUDGET, workers=2)
    in_process = unit(workload="sharded_tail", budget=BUDGET, workers=1,
                      trace=True)
    assert pooled["counts"] == in_process["counts"]
    assert pooled["parallel"]["workers"] == 2


def test_selftest_counts_do_not_depend_on_order():
    first = unit(workload="selftests", order_seed=1, runs=2)
    second = unit(workload="selftests", order_seed=2, runs=2)
    assert first["counts"] == second["counts"]
    assert first["failed"] == 0 and first["failures"] == []


def test_output_check_flags_extra_and_missing_bugs():
    expected = workloads.expected_bug_ids("bpf-next")
    assert len(expected) == 11
    assert workloads.check_findings(expected, "bpf-next") == []
    some = sorted(expected)[:10]
    problems = workloads.check_findings(set(some) | {"bogus"}, "bpf-next")
    assert problems == ["unexpected finding bogus",
                        f"missing Table 2 bug {sorted(expected)[10]}"]
    assert workloads.expected_bug_ids("patched") == set()
