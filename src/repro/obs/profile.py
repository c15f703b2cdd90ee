"""Hierarchical verifier profiler: where does verification time go?

BENCH_throughput.json says verification dominates campaign wall time
(ROADMAP item 1), but the phase clock only reports the total.  This
module decomposes it: a path-keyed tree of **frames** (``verify`` →
``do_check`` → per-instruction-family nodes, the prune machinery, the
sanitizer pass) with self/cumulative accounting, plus flat exact
counters for ALU op kinds, JMP op kinds, helper calls, and prune
outcomes.

Determinism contract (mirrors :mod:`repro.obs.metrics`):

- everything under ``"counts"`` is exact and **worker-count
  invariant** — frame hit counts and op counters depend only on the
  programs verified, never on the host or worker packing;
- everything under ``"wall"`` is host-dependent timing and is dropped
  by :func:`strip_profile_wall` (and by the artifact's ``strip_wall``)
  before any invariance comparison.

Accounting algebra: each frame records ``cum`` (time between push and
pop) and ``self`` (``cum`` minus the time spent in child frames).  At
every node ``self = cum - Σ children.cum``, so the sum of *all* self
times telescopes to exactly the cumulative time of the root frames —
which is why the campaign wraps the whole load path in one ``verify``
root: per-family self times then account for (nearly) the entire
measured verify phase.

A campaign run with ``profile`` on attaches a profiler to its shard
observer (:class:`repro.obs.Observer`), which routes frames and op
counts here; without one, those events are the observer's no-ops.
"""

from __future__ import annotations

import time
from collections import Counter

__all__ = [
    "VerifierProfiler",
    "merge_profiles",
    "strip_profile_wall",
    "render_profile",
]


class _Frame:
    """Context-manager form of push/pop (exception-safe by construction)."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "VerifierProfiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self):
        self._profiler.push(self._name)
        return self

    def __exit__(self, *exc):
        self._profiler.pop()
        return False


class VerifierProfiler:
    """Path-keyed frame tree plus flat exact counters.

    ``push``/``pop`` are the hot-loop form (no allocation beyond the
    stack entry); ``frame`` wraps them for ``with`` blocks.  The
    counting methods build their counter keys themselves, so callers
    pass raw values and pay nothing when no profiler listens.
    """

    def __init__(self) -> None:
        #: frame path -> [hit count, cumulative seconds, self seconds]
        self.nodes: dict[str, list] = {}
        #: ALU op name (with width suffix) -> instruction count
        self.alu_ops: Counter = Counter()
        #: conditional-jump op name -> instruction count
        self.jmp_ops: Counter = Counter()
        #: helper/kfunc name -> call-check count
        self.helpers: Counter = Counter()
        #: miscellaneous exact counters (prune outcomes, sanitizer sites)
        self.ops: Counter = Counter()
        #: open frames: [path, started, child seconds]
        self._stack: list[list] = []

    def push(self, name: str) -> None:
        stack = self._stack
        path = f"{stack[-1][0]}/{name}" if stack else name
        stack.append([path, time.perf_counter(), 0.0])

    def pop(self) -> None:
        path, started, child_seconds = self._stack.pop()
        elapsed = time.perf_counter() - started
        node = self.nodes.get(path)
        if node is None:
            node = self.nodes[path] = [0, 0.0, 0.0]
        node[0] += 1
        node[1] += elapsed
        node[2] += elapsed - child_seconds
        if self._stack:
            self._stack[-1][2] += elapsed

    def frame(self, name: str) -> _Frame:
        return _Frame(self, name)

    def alu_op(self, op, is64: bool) -> None:
        self.alu_ops[f"{op.name}{'64' if is64 else '32'}"] += 1

    def jmp_op(self, op, is64: bool) -> None:
        self.jmp_ops[f"{op.name}{'' if is64 else '32'}"] += 1

    def helper_call(self, name: str) -> None:
        self.helpers[name] += 1

    def prune(self, idx: int, point: str, outcome: str) -> None:
        self.ops[f"{point}.{outcome}"] += 1

    def count(self, name: str, n: int = 1) -> None:
        self.ops[name] += n

    def snapshot(self) -> dict:
        """Plain-dict form: exact counts and wall times segregated."""
        ordered = sorted(self.nodes)
        return {
            "counts": {
                "nodes": {path: self.nodes[path][0] for path in ordered},
                "alu_ops": dict(sorted(self.alu_ops.items())),
                "jmp_ops": dict(sorted(self.jmp_ops.items())),
                "helpers": dict(sorted(self.helpers.items())),
                "ops": dict(sorted(self.ops.items())),
            },
            "wall": {
                "nodes": {
                    path: {
                        "cum": self.nodes[path][1],
                        "self": self.nodes[path][2],
                    }
                    for path in ordered
                },
            },
        }


_COUNT_FAMILIES = ("nodes", "alu_ops", "jmp_ops", "helpers", "ops")


def merge_profiles(snapshots: list[dict]) -> dict:
    """Sum profile snapshots (shard merge); worker-count invariant.

    Counts sum exactly; wall node times sum per path and stay under
    ``"wall"``.  Empty/missing snapshots contribute nothing, and an
    all-empty input merges to ``{}`` (profiling was off).
    """
    snapshots = [snap for snap in snapshots if snap]
    if not snapshots:
        return {}
    counts = {family: Counter() for family in _COUNT_FAMILIES}
    wall_nodes: dict[str, dict] = {}
    for snap in snapshots:
        snap_counts = snap.get("counts", {})
        for family in _COUNT_FAMILIES:
            counts[family].update(snap_counts.get(family, {}))
        for path, times in snap.get("wall", {}).get("nodes", {}).items():
            entry = wall_nodes.setdefault(path, {"cum": 0.0, "self": 0.0})
            entry["cum"] += times.get("cum", 0.0)
            entry["self"] += times.get("self", 0.0)
    return {
        "counts": {
            family: dict(sorted(counts[family].items()))
            for family in _COUNT_FAMILIES
        },
        "wall": {
            "nodes": {path: wall_nodes[path] for path in sorted(wall_nodes)},
        },
    }


def strip_profile_wall(profile: dict) -> dict:
    """The invariant half of a snapshot (wall timings removed)."""
    if not profile:
        return {}
    return {"counts": profile.get("counts", {})}


# ----------------------------------------------------------------- render --


def _total_root_cum(wall_nodes: dict) -> float:
    return sum(
        times.get("cum", 0.0)
        for path, times in wall_nodes.items()
        if "/" not in path
    )


def _render_counter(
    lines: list[str], title: str, counter: dict, top: int
) -> None:
    if not counter:
        return
    total = sum(counter.values())
    lines += ["", f"{title} ({total} events):"]
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, count in ranked[:top]:
        lines.append(f"  {name:<28} {count:>10} ({count / total:.1%})")
    if len(ranked) > top:
        rest = sum(count for _, count in ranked[top:])
        lines.append(f"  {'(other)':<28} {rest:>10} ({rest / total:.1%})")


def render_profile(profile: dict, top: int = 10) -> str:
    """Human-readable form: frame tree, hotspots, op/helper tables.

    Works on both full and wall-stripped snapshots — timing columns
    degrade to counts-only when ``"wall"`` is absent.
    """
    if not profile or not profile.get("counts"):
        return "(no profile data — run with --profile)"
    counts = profile.get("counts", {})
    node_counts = counts.get("nodes", {})
    wall_nodes = profile.get("wall", {}).get("nodes", {})
    total = _total_root_cum(wall_nodes)

    lines = ["verifier profile:"]
    if node_counts:
        header = f"  {'frame':<34} {'count':>10}"
        if wall_nodes:
            header += f" {'cum s':>9} {'self s':>9} {'self %':>7}"
        lines.append(header)
        for path in sorted(node_counts):
            depth = path.count("/")
            label = "  " * depth + path.rsplit("/", 1)[-1]
            row = f"  {label:<34} {node_counts[path]:>10}"
            times = wall_nodes.get(path)
            if times is not None:
                share = times["self"] / total if total else 0.0
                row += (f" {times['cum']:>9.3f} {times['self']:>9.3f}"
                        f" {share:>7.1%}")
            lines.append(row)
    else:
        lines.append("  (no frames recorded)")

    if wall_nodes:
        lines += ["", f"hotspots (self time, total {total:.3f}s):"]
        ranked = sorted(
            wall_nodes.items(), key=lambda kv: (-kv[1]["self"], kv[0])
        )
        for path, times in ranked[:top]:
            share = times["self"] / total if total else 0.0
            lines.append(
                f"  {path:<34} {times['self']:>9.3f}s {share:>7.1%}"
                f"  (n={node_counts.get(path, 0)})"
            )

    _render_counter(lines, "ALU ops", counts.get("alu_ops", {}), top)
    _render_counter(lines, "JMP ops", counts.get("jmp_ops", {}), top)
    _render_counter(lines, "helper calls", counts.get("helpers", {}), top)
    _render_counter(
        lines, "prune / sanitizer events", counts.get("ops", {}), top
    )
    return "\n".join(lines)
