"""``repro.obs`` — campaign observability behind one observer seam.

The parts an :class:`Observer` can carry (see DESIGN.md
"Observability"):

- :mod:`repro.obs.metrics` — a deterministic metrics registry
  (counters / gauges / fixed-bucket histograms, wall-clock values
  segregated) whose snapshots merge worker-count-invariantly;
- :mod:`repro.obs.trace` — JSONL trace events and spans, plus
  :class:`PhaseClock`, the single phase timer the campaign loop runs
  on;
- :mod:`repro.obs.events` — the verifier flight recorder: a bounded
  ring of typed decision events per verification, spilled on
  interesting outcomes and consumed by :mod:`repro.obs.explain`;
- :mod:`repro.obs.profile` — the hierarchical verifier profiler:
  deterministic frame/op counts with wall-segregated self/cumulative
  times, rendered by ``repro profile``;
- :mod:`repro.obs.frontier` and :mod:`repro.obs.heartbeat` — coverage
  frontier attribution and progress heartbeats, read by the campaign
  loop only.

:mod:`repro.obs.taxonomy` gives every verifier rejection a stable
reason code.

Instrumented components (verifier, generator, sanitizer, interpreter,
oracle) do not take observer arguments — they call the per-event
methods of the **current observer** (:func:`current`).  A
:class:`~repro.fuzz.campaign.Campaign` builds one observer per shard,
installs it at the top of ``run()`` and restores the previous one on
exit.  Shards either run sequentially in-process or one-per-fork, so
a process-global holder is race-free and keeps the per-shard
attribution exact.  Outside a campaign the current observer is a bare
``Observer()``, whose every method is a no-op.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.obs.events import FlightRecorder
from repro.obs.metrics import (
    MetricsRegistry,
    merge_snapshots,
    strip_wall_fields,
)
from repro.obs.profile import VerifierProfiler
from repro.obs.taxonomy import UNCLASSIFIED, classify
from repro.obs.trace import JsonlTraceRecorder, PhaseClock

__all__ = [
    "Observer",
    "MetricsRegistry",
    "JsonlTraceRecorder",
    "FlightRecorder",
    "VerifierProfiler",
    "PhaseClock",
    "UNCLASSIFIED",
    "classify",
    "merge_snapshots",
    "strip_wall_fields",
    "current",
    "install",
    "restore",
]

#: What ``span``/``frame`` hand back when nothing records them.
_IDLE = nullcontext()


class Observer:
    """One shard's observability: per-event methods over optional parts.

    Every method defined on the class is a no-op, so ``Observer()`` is
    the disabled default.  Each part given to the constructor replaces
    the no-ops of the events it consumes with its own bound methods, so
    an event costs one call whether or not anything listens, and no
    method tests for a missing part.

    Hot paths must not build arguments for an event nobody consumes;
    they test one of the flags first: ``tracing`` (trace events and
    spans), ``profiling`` (frames and op counts), ``flight_level``
    (0 = no flight recorder) and ``verifier_hooks`` (flight recorder or
    profiler — the verifier's per-instruction gate).
    """

    tracing = False
    profiling = False
    flight_level = 0
    verifier_hooks = False

    def __init__(
        self,
        metrics=None,
        trace=None,
        flight=None,
        profiler=None,
        frontier=None,
        heartbeat=None,
    ) -> None:
        self.metrics = metrics
        self.trace = trace
        self.flight = flight
        self.profiler = profiler
        #: campaign-loop parts: no component emits events to these
        self.frontier = frontier
        self.heartbeat = heartbeat
        if metrics is not None:
            self.counter = metrics.counter
            self.gauge_max = metrics.gauge_max
            self.observe = metrics.observe
            self.wall = metrics.wall
            self.observe_time = metrics.observe_time
        if trace is not None:
            self.tracing = True
            self.event = trace.event
            self.span = trace.span
            self.close = trace.close
        if flight is not None:
            self.flight_level = flight.level
            self.verify_begin = flight.begin
            self.verify_step = flight.step
            self.verify_prune = flight.prune
            self.verify_refine = flight.refine
            self.verify_patch = flight.patch
            self.verify_verdict = flight.verdict
        if profiler is not None:
            self.profiling = True
            self.push = profiler.push
            self.pop = profiler.pop
            self.frame = profiler.frame
            self.alu_op = profiler.alu_op
            self.jmp_op = profiler.jmp_op
            self.helper_call = profiler.helper_call
            self.profile_count = profiler.count
            # A prune decision is the one event both parts consume.
            self.verify_prune = (
                profiler.prune if flight is None else self._prune_both
            )
        self.verifier_hooks = flight is not None or profiler is not None

    def replace(self, **parts) -> "Observer":
        """A new observer with ``parts`` swapped and the rest shared."""
        kept = {
            "metrics": self.metrics,
            "trace": self.trace,
            "flight": self.flight,
            "profiler": self.profiler,
            "frontier": self.frontier,
            "heartbeat": self.heartbeat,
        }
        kept.update(parts)
        return Observer(**kept)

    def _prune_both(self, idx: int, point: str, outcome: str) -> None:
        self.flight.prune(idx, point, outcome)
        self.profiler.prune(idx, point, outcome)

    # -- metrics ------------------------------------------------------------

    def counter(self, name: str, n: int = 1) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, buckets=None) -> None:
        pass

    def wall(self, name: str, seconds: float) -> None:
        pass

    def observe_time(self, name: str, seconds: float) -> None:
        pass

    # -- trace --------------------------------------------------------------

    def event(self, name: str, **attrs) -> None:
        pass

    def span(self, name: str, **attrs):
        return _IDLE

    def close(self) -> None:
        pass

    # -- verifier decisions (flight recorder) --------------------------------

    def verify_begin(self, program, n_insns: int = 0) -> None:
        pass

    def verify_step(self, idx: int, state) -> None:
        pass

    def verify_prune(self, idx: int, point: str, outcome: str) -> None:
        pass

    def verify_refine(self, idx: int, reg: str, detail: str) -> None:
        pass

    def verify_patch(self, idx: int, kind: str, detail: str) -> None:
        pass

    def verify_verdict(self, verdict: str, *, errno=None, insn: int = -1,
                       message: str = "") -> None:
        pass

    # -- profiler -----------------------------------------------------------

    def push(self, name: str) -> None:
        pass

    def pop(self) -> None:
        pass

    def frame(self, name: str):
        return _IDLE

    def alu_op(self, op, is64: bool) -> None:
        pass

    def jmp_op(self, op, is64: bool) -> None:
        pass

    def helper_call(self, name: str) -> None:
        pass

    def profile_count(self, name: str, n: int = 1) -> None:
        pass


_current = Observer()


def current() -> Observer:
    """The process-current observer (a no-op ``Observer()`` by default)."""
    return _current


def install(observer) -> Observer:
    """Make ``observer`` current; returns the previous one.

    Pass the returned token to :func:`restore` (in a ``finally``) so
    nested installs — an explain inside a campaign, a verdict-cache
    miss teeing the metrics — compose instead of clobbering each other.
    A bare :class:`MetricsRegistry` is accepted as
    ``Observer(metrics=registry)``.
    """
    global _current
    token = _current
    _current = (
        observer if isinstance(observer, Observer)
        else Observer(metrics=observer)
    )
    return token


def restore(token: Observer) -> None:
    """Reinstate the observer that was current before :func:`install`."""
    global _current
    _current = token
