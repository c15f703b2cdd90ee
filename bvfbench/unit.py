"""One measured unit of a workload, in a fresh process.

Usage (the orchestrator ``run.py`` and the benchmark's tests call it)::

    python3 bvfbench/unit.py '{"workload": "table2", "mode": "run"}'

Spec keys: ``workload``; ``mode`` (``prepare`` | ``setup`` | ``run``);
``trace`` (record per-layer spans); ``workload_seed``; ``order_seed``;
``workers`` (sharded_tail: pool size, 1 = run the shard plan
in-process); ``slow`` (span name -> share of each call to add);
``budget`` (override, for the benchmark's own tests); ``spans`` (path
to write spans to).  The last line of standard output is one JSON
object with what the unit measured.

Every unit is its own process so no process-global state — the tnum
memo LRUs, a loaded ctrace module, imported modules — carries over from
one measurement to the next.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from repro import obs  # noqa: E402
from repro.errors import BpfError, VerifierReject  # noqa: E402
from repro.fuzz.campaign import Campaign, CampaignConfig  # noqa: E402
from repro.fuzz.coverage import VerifierCoverage  # noqa: E402
from repro.fuzz.parallel import ParallelCampaign  # noqa: E402
from repro.fuzz.rng import derive_seed  # noqa: E402
from repro.kernel.config import PROFILES  # noqa: E402
from repro.kernel.syscall import Kernel  # noqa: E402
from repro.runtime.executor import Executor  # noqa: E402
from repro.testsuite import all_selftests_extended  # noqa: E402
from repro.verifier.tnum import tnum_memo_stats  # noqa: E402

import hostclock  # noqa: E402
import seam as seam_mod  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402


def _campaign_config(spec: dict) -> CampaignConfig:
    workload = workloads.WORKLOADS[spec["workload"]]
    return CampaignConfig(
        tool="bvf",
        kernel_version=workload.profile,
        budget=spec.get("budget") or workloads.TABLE2_BUDGET,
        seed=spec.get("workload_seed", workload.default_seed),
    )


def _workers(spec: dict) -> int:
    return spec.get("workers") or os.cpu_count() or 1


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _noop(_):
    return None


# ----------------------------------------------------------------- setup --


def setup(spec: dict) -> dict:
    """What a user pays before the first program: imports (timed from
    process start), ctrace load, profile and corpus build, pool start."""
    VerifierCoverage()
    name = spec["workload"]
    PROFILES[workloads.WORKLOADS[name].profile]()
    if name == "selftests":
        all_selftests_extended()
    else:
        config = _campaign_config(spec)
        if name == "sharded_tail":
            config.seed = derive_seed(config.seed, 0)
        Campaign(config)
        if name == "sharded_tail":
            import multiprocessing

            ctx = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            workers = _workers(spec)
            with ctx.Pool(processes=workers) as pool:
                pool.map(_noop, range(workers), chunksize=1)
    setup_s = time.perf_counter() - _T0
    return {"setup_s": setup_s,
            "burst_s": hostclock.median_burst([], fresh=5)}


# ------------------------------------------------------------- campaigns --


def _load_stats(segments: list[tuple]) -> dict:
    """Verify-time percentiles over ``(load_seconds, load_bursts, bursts)``
    segments (one per process that loaded programs), as timed and at the
    reference host speed.

    At the reference speed, each call's time is scaled by the bursts
    sampled during it or, for a call too short to hold three, by the two
    on either side of it: a program that merely ran while the host was
    slow does not count as slow.
    """
    loads, at_reference = [], []
    for load_seconds, load_bursts, bursts in segments:
        for seconds, (first, last) in zip(load_seconds, load_bursts):
            local = (bursts[first:last] if last - first >= 3
                     else bursts[max(first - 2, 0):last + 2])
            loads.append(seconds)
            if local:
                at_reference.append(hostclock.at_reference_speed(
                    seconds, statistics.median(local), "time"))
    q = summary.tail_quantile(len(loads))
    stats = {"loads": len(loads), "verify_tail_q": q, "at_reference": {}}
    for values, into in ((loads, stats), (at_reference, stats["at_reference"])):
        if values:
            into["verify_p50_ms"] = summary.quantile(values, 0.5) * 1e3
            into["verify_p99_ms"] = summary.quantile(
                values, summary.tail_quantile(len(values))) * 1e3
            into["verify_max_s"] = max(values)
    return stats


def _median_burst(segments: list[tuple]) -> float:
    return hostclock.median_burst([b for seg in segments for b in seg[2]])


def _exact_counts(counters: dict, hists: dict, loads: int, accepted: int,
                  edges: int, bugs: dict) -> dict:
    """The work counts that must repeat bit-for-bit for one seed."""
    insns = hists.get("verifier.insns_processed", {})
    return {
        "verifier.calls": loads,
        "verifier.insns_processed": int(insns.get("sum", 0)),
        "verifier.prune.exact_hits": counters.get("verifier.prune.exact_hits", 0),
        "verifier.prune.scan_hits": counters.get("verifier.prune.scan_hits", 0),
        "verifier.prune.misses": counters.get("verifier.prune.misses", 0),
        "interp.insns_executed": counters.get("interp.insns_executed", 0),
        "generator.calls": counters.get("generator.programs", 0),
        "accepted": accepted,
        "coverage_edges": edges,
        "bug_iterations": dict(sorted(bugs.items())),
    }


def run_campaign(spec: dict, seam: seam_mod.Seam) -> dict:
    name = spec["workload"]
    config = _campaign_config(spec)
    out: dict = {}
    if name == "table2":
        campaign = Campaign(config)
        spent = seam.clock.spent_s
        started = time.perf_counter()
        result = campaign.run()
        wall = time.perf_counter() - started - (seam.clock.spent_s - spent)
        segments = [(seam.load_seconds, seam.load_bursts, seam.clock.bursts)]
        campaign_wall = result.wall_seconds
    else:
        workers = _workers(spec)
        parallel = ParallelCampaign(config, workers=workers,
                                    shards=workloads.SHARDS)
        spent = seam.clock.spent_s
        started = time.perf_counter()
        result = parallel.run()
        wall = time.perf_counter() - started - (seam.clock.spent_s - spent)
        segments = [(s.bench_load_seconds, s.bench_load_bursts, s.bench_bursts)
                    for s in result.shard_results]
        shard_walls = [s.wall_seconds for s in result.shard_results]
        campaign_wall = sum(shard_walls)
        out["parallel"] = {
            "workers": result.workers,
            "parallel.shard_max_s": max(shard_walls),
            "parallel.shard_median_s": statistics.median(shard_walls),
            "parallel.imbalance": summary.ratio(
                max(shard_walls), statistics.median(shard_walls)),
            "parallel.utilization": summary.ratio(
                sum(shard_walls), result.workers * wall),
            "parallel.bootstrap_s": sum(
                s.bootstrap_seconds for s in result.shard_results),
        }
        out["merge_s"] = summary.SpanTable(seam.spans).busy["parallel.merge"]

    counters = result.metrics.get("counters", {})
    hists = result.metrics.get("histograms", {})
    bugs = {bug: f.iteration for bug, f in result.findings.items()}
    failures = workloads.check_findings(set(bugs),
                                        workloads.WORKLOADS[name].profile)
    expected = workloads.expected_bug_ids(workloads.WORKLOADS[name].profile)
    seen = [seam.first_seen[b] - started for b in expected
            if b in seam.first_seen]
    limit_programs = summary.complexity_limit_count(
        hists.get("verifier.insns_processed"))

    loads = sum(len(segment[0]) for segment in segments)
    out.update(_load_stats(segments))
    out.update({
        "burst_s": _median_burst(segments),
        "programs": result.generated,
        "wall_s": wall,
        "campaign_wall_s": campaign_wall,
        "programs_per_s": result.generated / wall,
        "acceptance_rate": result.acceptance_rate,
        "coverage_edges": result.final_coverage,
        "bugs_found": len(set(bugs) & expected),
        "time_to_table2_s": max(seen) if len(seen) == len(expected) else None,
        "complexity_limit_programs": limit_programs,
        "failed": len(failures),
        "failures": failures,
        "counts": _exact_counts(counters, hists, loads, result.accepted,
                                result.final_coverage, bugs),
    })
    if name == "table2":
        out["shape_ok"] = not (expected - set(bugs))
        out["shape"] = (f"{len(set(bugs) & expected)}/{len(expected)} Table 2 "
                        f"bugs, last at iteration "
                        f"{max(bugs.values(), default=-1)}")
    else:
        out["shape_ok"] = limit_programs >= 1
        out["shape"] = f"{limit_programs} complexity-limit program(s)"
    if seam.trace:
        out["layers"] = layer_metrics(
            seam, counters, hists,
            edges=result.final_coverage,
            corpus_size=result.corpus_size,
            campaign_wall=campaign_wall,
        )
    return out


# ------------------------------------------------------------- selftests --


def run_selftests(spec: dict, seam: seam_mod.Seam) -> dict:
    profile = PROFILES[workloads.WORKLOADS["selftests"].profile]
    corpus = list(enumerate(all_selftests_extended()))
    random.Random(spec.get("order_seed", 0)).shuffle(corpus)
    runs = spec.get("runs", workloads.SELFTEST_RUNS)
    out: dict = {}
    registry = obs.MetricsRegistry()
    token = obs.install(registry)
    tnum_before = tnum_memo_stats()
    failures: list[str] = []
    # raw / sanitized: load seconds, exec seconds, xlated insns (pairs
    # where both variants were accepted)
    pair = {"load": [0.0, 0.0], "exec": [0.0, 0.0], "insns": [0, 0]}
    spent = seam.clock.spent_s
    started = time.perf_counter()
    try:
        for index, selftest in corpus:
            seam.iteration = index
            try:
                failures += _one_selftest(selftest, profile, runs, pair)
            except Exception as error:  # an internal failure of BVF
                failures.append(f"{selftest.name}: {type(error).__name__}: "
                                f"{error}")
    finally:
        obs.restore(token)
    wall = time.perf_counter() - started - (seam.clock.spent_s - spent)
    tnum_after = tnum_memo_stats()
    snapshot = registry.snapshot()
    counters, hists = snapshot["counters"], snapshot["histograms"]
    failed_programs = len({f.split(":")[0] for f in failures})

    segments = [(seam.load_seconds, seam.load_bursts, seam.clock.bursts)]
    out.update(_load_stats(segments))
    out.update({
        "burst_s": _median_burst(segments),
        "programs": len(corpus),
        "wall_s": wall,
        "programs_per_s": len(corpus) / wall,
        "acceptance_rate": summary.ratio(seam.load_accepted,
                                         len(seam.load_seconds)),
        "failed": failed_programs,
        "failures": failures,
        "shape_ok": len(corpus) > 0,
        "shape": f"{len(corpus)} programs",
        "counts": _exact_counts(counters, hists, len(seam.load_seconds),
                                seam.load_accepted, 0, {}),
    })
    out["counts"]["sanitizer.sites"] = counters.get("sanitizer.sites", 0)
    if seam.trace:
        layers = layer_metrics(seam, counters, hists, edges=0,
                               corpus_size=0, campaign_wall=0.0)
        hits = tnum_after["hits"] - tnum_before["hits"]
        misses = tnum_after["misses"] - tnum_before["misses"]
        layers["tnum.hit_ratio"] = summary.ratio(hits, hits + misses)
        layers["sanitizer.load_ratio"] = summary.ratio(*pair["load"][::-1])
        layers["sanitizer.exec_ratio"] = summary.ratio(*pair["exec"][::-1])
        layers["sanitizer.footprint_ratio"] = summary.ratio(
            *pair["insns"][::-1])
        out["layers"] = layers
    return out


def _one_selftest(selftest, profile, runs: int, pair: dict) -> list[str]:
    """Load raw and sanitized into fresh kernels; run the accepted ones.

    Checks: both verdicts equal ``SelfTest.expect``; the first run in
    the fresh kernel returns ``expected_r0`` (later runs may differ:
    ``map_value_loop_counter`` keeps state in its map); no run raises a
    kernel report on the patched profile.
    """
    problems = []
    measured = []
    for sanitize in (False, True):
        kernel = Kernel(profile())
        prog = selftest.build(kernel)
        started = time.perf_counter()
        try:
            verified = kernel.prog_load(prog, sanitize=sanitize)
            verdict = "accept"
        except (VerifierReject, BpfError):
            verified, verdict = None, "reject"
        load_s = time.perf_counter() - started
        variant = "sanitized" if sanitize else "raw"
        if verdict != selftest.expect:
            problems.append(f"{selftest.name}: {variant} verdict {verdict}, "
                            f"expected {selftest.expect}")
        if verified is None:
            continue
        executor = Executor(kernel)
        started = time.perf_counter()
        for attempt in range(runs):
            result = executor.run(verified)
            if result.report is not None:
                problems.append(f"{selftest.name}: {variant} run raised "
                                f"{result.report.kind}")
            if (attempt == 0 and selftest.expected_r0 is not None
                    and result.r0 != selftest.expected_r0):
                problems.append(f"{selftest.name}: {variant} first run "
                                f"R0={result.r0:#x}, expected "
                                f"{selftest.expected_r0:#x}")
        measured.append((load_s, time.perf_counter() - started,
                         len(verified.xlated)))
    if len(measured) == 2:
        for i, (load_s, exec_s, insns) in enumerate(measured):
            pair["load"][i] += load_s
            pair["exec"][i] += exec_s
            pair["insns"][i] += insns
    return problems


# ---------------------------------------------------------------- layers --


def layer_metrics(seam: seam_mod.Seam, counters: dict, hists: dict, *,
                  edges: int, corpus_size: int, campaign_wall: float) -> dict:
    """Per-layer numbers from the spans plus the program's own counters."""
    table = summary.SpanTable(seam.spans)
    busy = table.busy.get
    self_time = table.self_time.get
    calls = table.calls.get
    ratio = summary.ratio

    insns = hists.get("verifier.insns_processed", {}).get("sum", 0)
    exact = counters.get("verifier.prune.exact_hits", 0)
    scan = counters.get("verifier.prune.scan_hits", 0)
    miss = counters.get("verifier.prune.misses", 0)
    v_hits = counters.get("cache.verdict.hits", 0)
    v_miss = counters.get("cache.verdict.misses", 0)
    t_hits = counters.get("cache.tnum.hits", 0)
    t_miss = counters.get("cache.tnum.misses", 0)
    executed = counters.get("interp.insns_executed", 0)
    verifier_busy = busy("verifier", 0.0)
    executor_durations = table.durations.get("executor", [])
    floor = summary.COMPLEXITY_BUCKET_FLOOR
    layer_self = sum(
        seconds for name, seconds in table.self_time.items()
        if name not in ("campaign.iteration", "parallel", "parallel.merge")
    )
    return {
        "verifier.calls": calls("verifier", 0),
        "verifier.busy_s": verifier_busy,
        "verifier.accept_ratio": ratio(seam.load_accepted,
                                       len(seam.load_seconds)),
        "verifier.insns_processed": int(insns),
        "verifier.us_per_insn": ratio(verifier_busy, insns) * 1e6,
        "verifier.prune.hit_ratio": ratio(exact + scan, exact + scan + miss),
        "verifier.prune.evictions": counters.get("verifier.prune.evictions", 0),
        "verifier.complexity_limit_programs": summary.complexity_limit_count(
            hists.get("verifier.insns_processed")),
        "verifier.complexity_limit_busy_share": ratio(
            table.busy_where("verifier", lambda s: (s[5] or 0) > floor),
            verifier_busy),
        "tnum.hit_ratio": ratio(t_hits, t_hits + t_miss),
        "kernel.boots": calls("kernel.boot", 0),
        "kernel.boot_busy_s": busy("kernel.boot", 0.0),
        "verdict.hit_ratio": ratio(v_hits, v_hits + v_miss),
        "verdict.self_s": self_time("verdict", 0.0),
        "coverage.collect_self_s": self_time("coverage", 0.0),
        "coverage.edges": edges,
        "generator.calls": calls("generator", 0),
        "generator.busy_s": busy("generator", 0.0),
        "generator.ms_per_program": ratio(busy("generator", 0.0),
                                          calls("generator", 0)) * 1e3,
        "mutator.calls": calls("mutator", 0),
        "mutator.busy_s": busy("mutator", 0.0),
        "corpus.size": corpus_size,
        "executor.calls": calls("executor", 0),
        "executor.busy_s": busy("executor", 0.0),
        "executor.p99_ms": (
            summary.quantile(
                executor_durations,
                summary.tail_quantile(len(executor_durations))) * 1e3
            if executor_durations else 0.0
        ),
        "interp.insns_executed": executed,
        "executor.ns_per_insn": ratio(busy("executor", 0.0), executed) * 1e9,
        "sanitizer.load_ratio": 0.0,
        "sanitizer.exec_ratio": 0.0,
        "sanitizer.footprint_ratio": 0.0,
        "sanitizer.sites": counters.get("sanitizer.sites", 0),
        "oracle.calls": calls("oracle", 0),
        "oracle.busy_s": busy("oracle", 0.0),
        "oracle.triage_replays": counters.get("oracle.triage_replays", 0),
        "campaign.other_s": (campaign_wall - layer_self - seam.clock.spent_s
                             if campaign_wall else 0.0),
        "trace.spans": len(seam.spans),
    }


# ------------------------------------------------------------------ main --


def main(spec: dict) -> dict:
    mode = spec.get("mode", "run")
    if mode == "prepare":
        # Compiles ctrace (first use in a checkout) and writes bytecode
        # caches, so neither lands in a measured set-up.
        programs = (len(all_selftests_extended())
                    if spec["workload"] == "selftests"
                    else _campaign_config(spec).budget)
        return {"backend": VerifierCoverage().backend_name,
                "programs": programs}
    if mode == "setup":
        return setup(spec)
    seam = seam_mod.Seam(trace=spec.get("trace", False),
                         slow=spec.get("slow"))
    with seam:
        if spec["workload"] == "selftests":
            out = run_selftests(spec, seam)
        else:
            out = run_campaign(spec, seam)
    if seam.trace:
        table = summary.SpanTable(seam.spans)
        out["span_table"] = {
            name: [table.calls[name], table.busy[name],
                   table.self_time[name]]
            for name in sorted(table.calls)
        }
    if spec.get("spans"):
        seam.write_spans(spec["spans"])
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
