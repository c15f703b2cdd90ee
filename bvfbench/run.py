"""The BVF benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 bvfbench/run.py --workload table2 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up probes and
measured units, each in a fresh process, repeated until ``--seconds``
is used up, medians reported.  ``--trace 1`` measures the per-layer
metrics: one untraced and one traced unit, so the tracing overhead
shows.  Both print a table to standard output and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end times are reported at a reference host speed.  On a shared
2-vCPU VM the same unit runs up to 1.6x slower for tens of seconds at a
time, and medians of identical 40-second runs spread by up to 54%
(interquartile range over median).  So every unit samples the host's
speed while it runs (``hostclock.Sampler``), and each time is scaled by
the reference calibration burst over the median sampled one; each
program's verify time is scaled by the samples taken during or right
around it.  The table prints scaled and raw medians side by side.

``--workload-seed`` replaces the campaign seed a workload was chosen at
(42); the shape line then says whether that seed still has the
workload's defining shape.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402

#: Where spans and work-count records go (listed in .gitignore).
OUT_DIR = os.path.join(ROOT, ".bvfbench_out")
#: Set-up probes per run (fresh processes; the median is reported).
SETUP_PROBES = 5
#: A run must end within this many seconds after it starts.
RUN_LIMIT_S = 170.0
#: The first run in a checkout may compile the ctrace extension.
PREPARE_LIMIT_S = 600.0

#: name -> (unit, better, what one sample is, how host speed scales it:
#: "time", "rate" or None).  Every end-to-end metric in BENCHMARK.json,
#: measured on every workload.
END_TO_END = {
    "programs_per_s": ("programs/s", "higher", "unit", "rate"),
    "verify_p50_ms": ("ms", "lower", "prog_load call", "time"),
    "verify_p99_ms": ("ms", "lower", "prog_load call", "time"),
    "verify_max_s": ("s", "lower", "prog_load call", "time"),
    "acceptance_rate": ("ratio", "higher", "unit", None),
    "setup_s": ("s", "lower", "set-up probe", "time"),
    "peak_rss_mb": ("MB", "lower", "unit", None),
}

#: Printed for the workloads they apply to, but not in BENCHMARK.json:
#: every metric there must be reported, non-zero, on every workload.
CAMPAIGN_ONLY = {
    "time_to_table2_s": ("s", "lower", ("table2",)),
    "bugs_found": ("count", "higher", ("table2", "sharded_tail")),
    "coverage_edges": ("edges", "higher", ("table2", "sharded_tail")),
}

#: name -> (unit, better).  Every per-layer metric in BENCHMARK.json.
#: Times are as timed in the traced unit; host.burst_ms rescales them.
PER_LAYER = {
    "verifier.calls": ("count", "lower"),
    "verifier.busy_s": ("s", "lower"),
    "verifier.accept_ratio": ("ratio", "higher"),
    "verifier.insns_processed": ("count", "lower"),
    "verifier.us_per_insn": ("us/insn", "lower"),
    "verifier.prune.hit_ratio": ("ratio", "higher"),
    "verifier.prune.evictions": ("count", "lower"),
    "verifier.complexity_limit_programs": ("count", "lower"),
    "verifier.complexity_limit_busy_share": ("ratio", "lower"),
    "tnum.hit_ratio": ("ratio", "higher"),
    "kernel.boots": ("count", "lower"),
    "kernel.boot_busy_s": ("s", "lower"),
    "verdict.hit_ratio": ("ratio", "higher"),
    "verdict.self_s": ("s", "lower"),
    "coverage.collect_self_s": ("s", "lower"),
    "coverage.edges": ("edges", "higher"),
    "generator.calls": ("count", "lower"),
    "generator.busy_s": ("s", "lower"),
    "generator.ms_per_program": ("ms/program", "lower"),
    "mutator.calls": ("count", "lower"),
    "mutator.busy_s": ("s", "lower"),
    "corpus.size": ("count", "higher"),
    "executor.calls": ("count", "lower"),
    "executor.busy_s": ("s", "lower"),
    "executor.p99_ms": ("ms", "lower"),
    "interp.insns_executed": ("count", "lower"),
    "executor.ns_per_insn": ("ns/insn", "lower"),
    "sanitizer.load_ratio": ("ratio", "lower"),
    "sanitizer.exec_ratio": ("ratio", "lower"),
    "sanitizer.footprint_ratio": ("ratio", "lower"),
    "sanitizer.sites": ("count", "lower"),
    "oracle.calls": ("count", "lower"),
    "oracle.busy_s": ("s", "lower"),
    "oracle.triage_replays": ("count", "lower"),
    "parallel.shard_max_s": ("s", "lower"),
    "parallel.shard_median_s": ("s", "lower"),
    "parallel.imbalance": ("ratio", "lower"),
    "parallel.utilization": ("ratio", "higher"),
    "parallel.bootstrap_s": ("s", "lower"),
    "parallel.merge_s": ("s", "lower"),
    "campaign.other_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.programs_per_s": ("programs/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "host.burst_ms": ("ms", "lower"),
}

_PARALLEL_KEYS = [k for k in PER_LAYER if k.startswith("parallel.")]


class UnitFailed(Exception):
    pass


def _unit(spec: dict, timeout: float) -> dict:
    """Run ``unit.py`` in a fresh process; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "unit.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise UnitFailed(f"{spec['workload']} {spec['mode']} unit timed out "
                         f"after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise UnitFailed(f"{spec['workload']} {spec['mode']} unit exited "
                         f"{proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    """Identity of the program under test, for the work-count record."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".c")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


class Run:
    """One invocation: its units, set-up probes and checks."""

    def __init__(self, args) -> None:
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.workload_seed = (args.workload_seed
                              if args.workload_seed is not None
                              else self.workload.default_seed)
        self.rng = random.Random(args.seed)
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: programs one unit runs (set by the prepare step)
        self.planned = 1

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spec(self, **extra) -> dict:
        spec = {
            "workload": self.workload.name,
            "mode": "run",
            "workload_seed": self.workload_seed,
            "order_seed": self.rng.getrandbits(32),
        }
        spec.update(extra)
        return spec

    def unit(self, **extra) -> dict | None:
        """One measured unit; a unit that crashes or times out counts
        every program it was to run as failed."""
        try:
            out = _unit(self.spec(**extra), self.remaining())
        except UnitFailed as error:
            print(str(error), file=sys.stderr)
            self.problems.append(str(error).splitlines()[0])
            self.attempted += self.planned
            self.failed += self.planned
            return None
        self.attempted += out["programs"]
        self.failed += out["failed"]
        for problem in out["failures"]:
            self.problems.append(problem)
        if not out["shape_ok"]:
            self.problems.append(
                f"workload seed {self.workload_seed} lacks the "
                f"{self.workload.name} shape ({self.workload.shape}): "
                f"{out['shape']}")
        return out

    def check_counts(self, units: list[dict]) -> None:
        """Exact work counts must repeat bit-for-bit for one seed: across
        the units of this run and against any earlier run of the same
        program and seed in this checkout."""
        counts = [u["counts"] for u in units]
        for other in counts[1:]:
            if other != counts[0]:
                self.problems.append(f"work counts differ between units: "
                                     f"{_diff(counts[0], other)}")
        if not counts:
            return
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR,
            f"counts-{self.workload.name}-{self.workload_seed}-"
            f"{_source_digest()}.json",
        )
        if os.path.exists(path):
            with open(path) as handle:
                recorded = json.load(handle)
            if recorded != counts[0]:
                self.problems.append(f"work counts differ from an earlier "
                                     f"run: {_diff(recorded, counts[0])}")
        else:
            with open(path, "w") as handle:
                json.dump(counts[0], handle, sort_keys=True)

    def setup_probes(self, count: int) -> list[dict]:
        values = []
        for _ in range(count):
            try:
                values.append(_unit(self.spec(mode="setup"),
                                    self.remaining()))
            except UnitFailed as error:
                print(str(error), file=sys.stderr)
                self.problems.append(str(error).splitlines()[0])
        return values

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": metrics,
        }


def _diff(a: dict, b: dict) -> str:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return ", ".join(f"{k}: {a.get(k)} vs {b.get(k)}" for k in keys)


# ------------------------------------------------------------ end to end --


def measure(run: Run, seconds: int) -> dict | None:
    """Set-up probes around units repeated for ``seconds``; medians."""
    before = run.rng.randint(0, SETUP_PROBES)
    setups = run.setup_probes(before)
    units: list[dict] = []
    began = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        out = run.unit()
        longest = max(longest, time.perf_counter() - t0)
        if out is not None:
            units.append(out)
        elapsed = time.perf_counter() - began
        if elapsed + longest > seconds or out is None:
            break
    setups += run.setup_probes(SETUP_PROBES - before)
    run.check_counts(units)
    if not units or not setups:
        return None

    samples = {"unit": len(units), "set-up probe": len(setups),
               "prog_load call": sum(u["loads"] for u in units)}
    raw, values = {}, {}
    for metric, (_, _, _, scale) in END_TO_END.items():
        sources = setups if metric == "setup_s" else units
        raw[metric] = statistics.median([u[metric] for u in sources])
        values[metric] = statistics.median([
            u["at_reference"][metric] if metric in u.get("at_reference", {})
            else hostclock.at_reference_speed(u[metric], u["burst_s"], scale)
            for u in sources])

    name = run.workload.name
    q = statistics.median([u["verify_tail_q"] for u in units])
    burst_ms = statistics.median([u["burst_s"] for u in units]) * 1e3
    print(f"workload {name}: campaign seed {run.workload_seed}, run seed "
          f"{run.args.seed}, {len(units)} unit(s) of "
          f"{units[0]['programs']} programs, medians over units")
    print(f"shape ({run.workload.shape}): "
          f"{'ok' if units[0]['shape_ok'] else 'FAILED'} — "
          f"{units[0]['shape']}")
    print(f"host: calibration burst {burst_ms:.4f} ms against "
          f"{hostclock.REFERENCE_BURST_S * 1e3:.4f} ms; 'value' is at the "
          f"reference speed, 'raw' as timed")
    print(f"{'metric':<20} {'value':>12} {'raw':>12}  {'unit':<11} "
          f"{'better':<7} n")
    for metric, (unit, better, per, _scale) in END_TO_END.items():
        note = f" (p{q * 100:.2f})" if metric == "verify_p99_ms" else ""
        print(f"{metric:<20} {values[metric]:>12.5g} {raw[metric]:>12.5g}  "
              f"{unit:<11} {better:<7} {samples[per]} {per}(s){note}")
    for metric, (unit, better, applies) in CAMPAIGN_ONLY.items():
        if name not in applies:
            continue
        got = [u[metric] for u in units if u[metric] is not None]
        value = f"{statistics.median(got):>12.5g}" if got else f"{'none':>12}"
        print(f"{metric:<20} {'':>12} {value}  {unit:<11} {better:<7} "
              f"{len(got)} unit(s)")
    failed_fraction = run.failed / max(run.attempted, 1)
    print(f"{'failed_fraction':<20} {failed_fraction:>12.5g} {'':>12}  "
          f"{'ratio':<11} {'lower':<7} {run.attempted} programs")
    return {metric: {"value": values[metric], "unit": spec[0]}
            for metric, spec in END_TO_END.items()}


# ------------------------------------------------------------- per layer --


def measure_layers(run: Run) -> dict | None:
    """One untraced and one traced unit of the same work.

    For ``sharded_tail`` the untraced unit is the real ``workers = nproc``
    run, the source of ``parallel.*``, and the traced unit runs the same
    shard plan in-process, which the parallel contract makes
    bit-identical in everything but time; the tracing overhead then
    compares summed shard walls at the reference host speed.
    """
    name = run.workload.name
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(
        OUT_DIR, f"spans-{name}-{run.workload_seed}-{run.args.seed}.jsonl")
    plain = run.unit()
    traced = run.unit(trace=True, workers=1, spans=spans_path)
    if plain is None or traced is None:
        return None
    run.check_counts([plain, traced])
    wall = "campaign_wall_s" if name == "sharded_tail" else "wall_s"

    layers = dict(traced["layers"])
    parallel = plain.get("parallel", {})
    for key in _PARALLEL_KEYS:
        layers[key] = parallel.get(key, 0.0)
    if parallel:
        layers["parallel.merge_s"] = plain["merge_s"]
    layers["host.burst_ms"] = traced["burst_s"] * 1e3
    # Like the end-to-end metrics, the two trace.* figures are at the
    # reference host speed, so the overhead is not host drift.
    layers["trace.programs_per_s"] = hostclock.at_reference_speed(
        traced["programs_per_s"], traced["burst_s"], "rate")
    layers["trace.overhead"] = summary.ratio(
        hostclock.at_reference_speed(traced[wall], traced["burst_s"], "time"),
        hostclock.at_reference_speed(plain[wall], plain["burst_s"], "time"),
    ) - 1.0

    print(f"workload {name}: campaign seed {run.workload_seed}, traced "
          f"{'in-process shard plan' if parallel else 'unit'}; spans in "
          f"{os.path.relpath(spans_path, ROOT)}")
    print(f"as timed: untraced {plain['programs_per_s']:.5g} programs/s, traced "
          f"{traced['programs_per_s']:.5g} programs/s")
    print(f"{'span layer':<20} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
    for layer, (calls, busy, self_s) in traced["span_table"].items():
        print(f"{layer:<20} {calls:>8} {busy:>10.4f} {self_s:>10.4f}")
    print(f"{'metric':<38} {'value':>12}  unit")
    for metric, (unit, _better) in PER_LAYER.items():
        print(f"{metric:<38} {layers[metric]:>12.5g}  {unit}")
    return {metric: {"value": layers[metric], "unit": unit}
            for metric, (unit, _better) in PER_LAYER.items()}


# ------------------------------------------------------------------ main --


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: orders the measured work")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="campaign seed (default: the workload's, 42)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no BVF sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    run = Run(args)
    try:
        run.planned = _unit(run.spec(mode="prepare"),
                            PREPARE_LIMIT_S)["programs"]
    except UnitFailed as error:
        print(str(error), file=sys.stderr)
        return 1
    run.started = time.perf_counter()
    metrics = measure_layers(run) if args.trace else measure(run, args.seconds)
    if metrics is None:
        print("no unit completed; no result", file=sys.stderr)
        return 1
    for problem in dict.fromkeys(run.problems):
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
