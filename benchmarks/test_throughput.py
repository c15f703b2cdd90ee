"""Campaign throughput: serial vs sharded-parallel programs/sec.

The paper's 48-hour campaigns get their throughput from a 40-core
server (Section 6.1); this benchmark measures how well the sharded
:class:`~repro.fuzz.parallel.ParallelCampaign` turns extra cores into
programs/sec, and — because worker count must never change *what* a
campaign computes — re-checks the serial/parallel equivalence contract
at benchmark scale.

Results land in ``BENCH_throughput.json`` next to the repo root so CI
can archive the trajectory across PRs.  Knobs:

- ``BVF_BENCH_BUDGET``   — programs per campaign (default 300);
- ``BVF_BENCH_WORKERS``  — parallel worker count (default 4);
- ``BVF_BENCH_MIN_SPEEDUP`` — required parallel speedup; defaults to
  2.0 on machines with >= 4 CPUs and is skipped (0) on smaller boxes,
  where fork-per-shard overhead cannot be amortised.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.analysis.stats import ThroughputStats
from repro.fuzz.campaign import CampaignConfig
from repro.fuzz.parallel import ParallelCampaign
from repro.obs.metrics import cache_hit_rates

BUDGET = int(os.environ.get("BVF_BENCH_BUDGET", "300"))
WORKERS = int(os.environ.get("BVF_BENCH_WORKERS", "4"))
_CPUS = os.cpu_count() or 1
MIN_SPEEDUP = float(
    os.environ.get("BVF_BENCH_MIN_SPEEDUP", "2.0" if _CPUS >= 4 else "0")
)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

CONFIG = CampaignConfig(
    tool="bvf", kernel_version="bpf-next", budget=BUDGET, seed=0
)

#: Disabled-mode budget for the VStateChecker: leaving the flag off may
#: cost at most this fraction of throughput versus an identical run.
INVARIANT_OVERHEAD_BUDGET = float(
    os.environ.get("BVF_BENCH_INVARIANT_BUDGET", "0.05")
)

#: Disabled-mode budget for the flight recorder (ISSUE 8: the decision
#: log must stay within 5% of baseline when the flag is off).
FLIGHT_OVERHEAD_BUDGET = float(
    os.environ.get("BVF_BENCH_FLIGHT_BUDGET", "0.05")
)

#: Disabled-mode budget for the hierarchical profiler (ISSUE 9: the
#: analytics layer must stay within 5% of baseline when the flag is
#: off).
PROFILE_OVERHEAD_BUDGET = float(
    os.environ.get("BVF_BENCH_PROFILE_BUDGET", "0.05")
)

#: Disabled-mode budget for the repair synthesizer (ISSUE 10: the
#: rejection-repair layer must stay within 5% of baseline when
#: ``--repair-feedback`` is off).
REPAIR_OVERHEAD_BUDGET = float(
    os.environ.get("BVF_BENCH_REPAIR_BUDGET", "0.05")
)

#: Where the flight-events sample trace lands (CI archives it next to
#: the throughput trajectory).
EVENTS_OUTPUT = OUTPUT.with_name("BENCH_events.jsonl")

#: Where the profile summary of the enabled-mode campaign lands (CI
#: archives it next to the throughput trajectory, so each PR carries a
#: per-check-family view of where verification time went).
PROFILE_OUTPUT = OUTPUT.with_name("BENCH_profile.json")


def _load_payload() -> dict:
    if OUTPUT.exists():
        try:
            return json.loads(OUTPUT.read_text())
        except ValueError:
            pass
    return {}


def test_parallel_throughput():
    serial = ParallelCampaign(CONFIG, workers=1).run()
    parallel = ParallelCampaign(CONFIG, workers=WORKERS).run()

    # The equivalence contract, at benchmark scale: worker count is a
    # throughput knob and must not change the merged science.
    assert sorted(serial.findings) == sorted(parallel.findings)
    assert serial.final_coverage == parallel.final_coverage
    assert serial.accepted == parallel.accepted

    serial_stats = ThroughputStats.from_result(serial)
    parallel_stats = ThroughputStats.from_result(parallel)
    speedup = (
        parallel_stats.programs_per_sec / serial_stats.programs_per_sec
        if serial_stats.programs_per_sec
        else 0.0
    )

    payload = _load_payload()
    payload.update({
        "budget": BUDGET,
        "workers": WORKERS,
        "cpus": _CPUS,
        "serial": serial_stats.as_dict(),
        "parallel": parallel_stats.as_dict(),
        "speedup": round(speedup, 2),
        "bugs_found": len(parallel.findings),
        "merged_coverage": parallel.final_coverage,
        # Fast-path cache effectiveness (serial run: one process, so
        # the process-global tnum memo numbers are self-contained), by
        # the same definition `repro report` and heartbeats use.
        # check_throughput_trajectory.py gates these and the serial
        # verify_fraction across CI runs.
        "caches": cache_hit_rates(serial.metrics.get("counters", {})),
        # Rejection-reason distribution for the drift gate
        # (benchmarks/check_taxonomy_drift.py).  Deterministic for a
        # fixed (seed, budget, shards), so any change between CI runs
        # is a real behaviour change, not noise.
        "taxonomy": {
            "generated": serial.generated,
            "by_reason": dict(sorted(serial.reject_reasons.items())),
        },
    })
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print("\n=== Throughput (serial vs parallel) ===")
    print(f"budget {BUDGET}, {WORKERS} workers on {_CPUS} CPU(s)")
    print(f"serial:   {serial_stats.programs_per_sec:8.1f} programs/sec "
          f"({serial_stats.wall_seconds:.2f}s wall)")
    print(f"parallel: {parallel_stats.programs_per_sec:8.1f} programs/sec "
          f"({parallel_stats.wall_seconds:.2f}s wall, "
          f"{parallel_stats.parallelism:.1f}x effective parallelism)")
    print(f"speedup:  {speedup:.2f}x (required: {MIN_SPEEDUP or 'n/a'})")
    print(f"wrote {OUTPUT.name}")

    assert parallel_stats.programs_per_sec > 0
    if MIN_SPEEDUP:
        assert speedup >= MIN_SPEEDUP, (
            f"parallel speedup {speedup:.2f}x below the {MIN_SPEEDUP:.1f}x "
            f"floor on a {_CPUS}-CPU machine"
        )


def _measure_overhead(flag: str, on_enabled=None) -> dict[str, float]:
    """Median programs/sec of three modes: ``baseline`` (flags
    defaulted), ``disabled`` (``flag=False``) and ``enabled``
    (``flag=True``).

    Methodology, shared by every disabled-mode gate: one **warm-up**
    campaign per mode first — the first campaigns of a process pay
    one-off costs (coverage-tracer build and attach, cold tnum memo,
    lazy imports) that would otherwise be attributed to whichever mode
    ran first — then three interleaved rounds (so a slow stretch of the
    host penalises all modes equally), scored by the **median** round,
    which a single descheduled outlier cannot drag the way best-of or
    mean-of can.  The earlier best-of-2 scheme produced a nonsensical
    -11% "overhead" for a disabled flag through exactly that noise.

    ``on_enabled`` receives the result of every measured (not warm-up)
    enabled-mode campaign.
    """
    from statistics import median

    from repro.fuzz.campaign import Campaign

    modes = {
        "baseline": {},
        "disabled": {flag: False},
        "enabled": {flag: True},
    }

    def run_pps(mode: str, measured: bool) -> float:
        config = CampaignConfig(
            tool="bvf", kernel_version="bpf-next", budget=BUDGET,
            seed=0, **modes[mode]
        )
        result = Campaign(config).run()
        if measured and mode == "enabled" and on_enabled is not None:
            on_enabled(result)
        return ThroughputStats.from_result(result).programs_per_sec

    for mode in modes:  # warm-up, discarded
        run_pps(mode, measured=False)
    rounds: dict[str, list[float]] = {mode: [] for mode in modes}
    for _ in range(3):
        for mode in modes:
            rounds[mode].append(run_pps(mode, measured=True))
    return {mode: median(values) for mode, values in rounds.items()}


def _record_overhead(section: str, title: str, samples: dict[str, float],
                     budget: float, **extra) -> float:
    """Write one overhead section into ``BENCH_throughput.json`` and
    print it; returns the disabled-mode overhead for the gate."""
    disabled_overhead = 1.0 - samples["disabled"] / samples["baseline"]
    enabled_overhead = 1.0 - samples["enabled"] / samples["baseline"]

    payload = _load_payload()
    payload[section] = {
        "budget": BUDGET,
        "baseline_programs_per_sec": round(samples["baseline"], 2),
        "disabled_programs_per_sec": round(samples["disabled"], 2),
        "enabled_programs_per_sec": round(samples["enabled"], 2),
        "disabled_overhead": round(disabled_overhead, 4),
        "enabled_overhead": round(enabled_overhead, 4),
        "disabled_overhead_budget": budget,
        **extra,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"\n=== {title} (serial) ===")
    for mode in ("baseline", "disabled", "enabled"):
        print(f"{mode:>9}: {samples[mode]:8.1f} programs/sec")
    print(f"disabled overhead: {disabled_overhead:+.1%} "
          f"(budget {budget:.0%}); "
          f"enabled overhead: {enabled_overhead:+.1%}")
    return disabled_overhead


def test_invariant_checker_overhead():
    """VStateChecker cost: disabled mode must be free, enabled is
    reported.

    Disabled is the default; the verifier hot path pays one
    ``is not None`` test per checkpoint.  The baseline run (flags
    defaulted) and the explicit ``check_invariants=False`` run must
    agree within ``INVARIANT_OVERHEAD_BUDGET``; the
    ``check_invariants=True`` overhead is recorded in
    ``BENCH_throughput.json`` for trend tracking but not gated (opt-in
    diagnostics may cost what they cost — including the verdict cache
    disabling itself, since a cached hit would skip the very
    checkpoints the flag asks for).
    """
    samples = _measure_overhead("check_invariants")
    disabled_overhead = _record_overhead(
        "invariant_checker", "VStateChecker overhead", samples,
        INVARIANT_OVERHEAD_BUDGET,
    )
    assert disabled_overhead <= INVARIANT_OVERHEAD_BUDGET, (
        f"disabled-mode VStateChecker overhead {disabled_overhead:.1%} "
        f"exceeds the {INVARIANT_OVERHEAD_BUDGET:.0%} budget"
    )


def test_flight_recorder_overhead():
    """Flight-recorder cost: disabled mode must stay within 5%.

    When the flag is off the shard observer has no flight recorder:
    the verifier's decision events are skipped behind the observer's
    hoisted flags; that is what the ``disabled_overhead`` gate (checked
    here *and* by ``check_throughput_trajectory.py``) protects.
    Enabled-mode cost is recorded for trend tracking but not gated —
    recording disables the verdict cache by design (a cached hit would
    skip the very decisions the recorder exists to capture).
    """
    samples = _measure_overhead("flight")
    disabled_overhead = _record_overhead(
        "flight_recorder", "Flight recorder overhead", samples,
        FLIGHT_OVERHEAD_BUDGET,
    )
    assert disabled_overhead <= FLIGHT_OVERHEAD_BUDGET, (
        f"disabled-mode flight-recorder overhead {disabled_overhead:.1%} "
        f"exceeds the {FLIGHT_OVERHEAD_BUDGET:.0%} budget"
    )


def test_profiler_overhead():
    """Hierarchical profiler cost: disabled mode must stay within 5%.

    When ``profile=False`` (the default) the shard observer has no
    profiler: frames and op counts are skipped behind the observer's
    hoisted flags — that is what the ``disabled_overhead`` gate
    (checked here *and* by ``check_throughput_trajectory.py``)
    protects.  Enabled-mode cost is recorded for trend tracking but
    not gated — exact per-family counts require disabling the verdict
    cache (a cached hit would skip the very checks being counted).

    The enabled run's profile snapshot is written to
    ``BENCH_profile.json`` so CI archives where verification time goes
    next to the throughput trajectory.
    """
    from repro.obs.profile import render_profile

    profiles: list[dict] = []
    samples = _measure_overhead(
        "profile", lambda result: profiles.append(result.profile)
    )
    disabled_overhead = _record_overhead(
        "profiler", "Verifier profiler overhead", samples,
        PROFILE_OVERHEAD_BUDGET,
    )

    # Campaigns are seed-deterministic, so every measured round's
    # snapshot carries the same exact counts; the wall half is this
    # host's timings for the last round.  The metrics schema tag makes
    # the file renderable offline via `repro profile`.
    from repro.obs.artifact import SCHEMA

    PROFILE_OUTPUT.write_text(json.dumps({
        "schema": SCHEMA,
        "budget": BUDGET,
        "seed": 0,
        "profile": profiles[-1],
    }, indent=2) + "\n")
    print(f"wrote {PROFILE_OUTPUT.name}")
    print(render_profile(profiles[-1], top=5))

    assert disabled_overhead <= PROFILE_OVERHEAD_BUDGET, (
        f"disabled-mode profiler overhead {disabled_overhead:.1%} "
        f"exceeds the {PROFILE_OVERHEAD_BUDGET:.0%} budget"
    )


def test_repair_overhead():
    """Repair synthesizer cost: disabled mode must stay within 5%.

    When ``repair_feedback=False`` (the default) the campaign's
    rejection path pays one boolean test per reject — that is what the
    ``disabled_overhead`` gate (checked here *and* by
    ``check_throughput_trajectory.py``) protects.  Enabled-mode cost is
    recorded for trend tracking but not gated — synthesis re-verifies
    up to :data:`~repro.analysis.repair.MAX_VERIFY_ATTEMPTS` candidate
    patches per rejection and disables the verdict cache by design.

    The enabled run's per-reason verified-repair rates land in
    ``BENCH_throughput.json`` under ``repair_feedback.by_reason``;
    ``check_throughput_trajectory.py --max-repair-rate-drop`` fails CI
    when the overall verified rate collapses relative to the previous
    run — the earliest symptom of a patch template or provenance-pass
    regression, since campaigns are seed-deterministic.
    """
    repair_results: list = []
    samples = _measure_overhead("repair_feedback", repair_results.append)

    # Campaigns are seed-deterministic, so every measured round found
    # the same repairs; score the last.
    result = repair_results[-1]
    attempted = sum(result.repairs_attempted.values())
    verified = sum(result.repairs_verified.values())
    by_reason = {
        reason: {
            "attempted": result.repairs_attempted[reason],
            "verified": result.repairs_verified.get(reason, 0),
            "verified_rate": (
                result.repairs_verified.get(reason, 0)
                / result.repairs_attempted[reason]
            ),
        }
        for reason in sorted(result.repairs_attempted)
    }
    disabled_overhead = _record_overhead(
        "repair_feedback", "Repair synthesizer overhead", samples,
        REPAIR_OVERHEAD_BUDGET,
        attempted=attempted,
        verified=verified,
        verified_rate=verified / attempted if attempted else 0.0,
        by_reason=by_reason,
    )
    print(f"verified repairs: {verified}/{attempted} "
          f"({verified / attempted if attempted else 0.0:.1%})")

    assert attempted > 0, "benchmark campaign produced no rejections"
    assert disabled_overhead <= REPAIR_OVERHEAD_BUDGET, (
        f"disabled-mode repair overhead {disabled_overhead:.1%} "
        f"exceeds the {REPAIR_OVERHEAD_BUDGET:.0%} budget"
    )


def test_flight_events_artifact():
    """A small flight+trace campaign spills decision rings CI archives.

    The JSONL trace of a ``flight=True`` campaign must contain
    ``verifier.flight`` events — one spilled ring per interesting
    outcome — so the events artifact uploaded by the bench job is
    never silently empty.
    """
    from repro.fuzz.campaign import Campaign

    config = CampaignConfig(
        tool="bvf", kernel_version="bpf-next",
        budget=min(BUDGET, 60), seed=0,
        flight=True, trace_path=str(EVENTS_OUTPUT),
    )
    result = Campaign(config).run()

    spills = []
    with EVENTS_OUTPUT.open(encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            if (event.get("kind") == "event"
                    and event.get("name") == "verifier.flight"):
                spills.append(event)

    rejected = result.generated - result.accepted
    print(f"\n{EVENTS_OUTPUT.name}: {len(spills)} spilled decision rings "
          f"for {rejected} rejections")
    assert rejected > 0, "benchmark campaign produced no rejections"
    assert len(spills) == rejected
    for spill in spills:
        assert spill["events"], "spilled ring must not be empty"
        kinds = {ev["kind"] for ev in spill["events"]}
        assert "verdict" in kinds
    assert result.reject_explanations, "flight campaign must explain rejects"
