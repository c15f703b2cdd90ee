"""Timers and spans around BVF's public layer functions.

The benchmark observes the program from outside: it replaces a handful
of public callables (``Kernel.prog_load``, ``Executor.run``, ...) with
wrappers that time each call, and puts the originals back afterwards.
Nothing under ``src/`` knows it is being measured.

Two modes:

- **light** (end-to-end runs): spans only for the layers in
  :data:`ALWAYS`, which give the duration of every ``Kernel.prog_load``
  call, the moment each bug id is first returned by
  ``Oracle.classify_*``, and the once-per-run ``ParallelCampaign.run``
  and ``merge_shards`` times.  These calls take milliseconds or happen
  once, so the wrappers cost well under 0.1%.
- **trace** (per-layer runs): additionally one span per call into every
  layer in :data:`LAYERS`, with name, start, end, parent span and
  iteration id, kept in memory and written out when the run ends.

While a seam is installed, a :class:`hostclock.Sampler` times a
calibration burst every 50 ms of CPU time, so every measured
stretch can be put on a common host-speed footing.  The time the
samples take is subtracted from every duration the wrappers record.

Either mode can also *slow* a layer by a fixed share of each call's
duration (a busy wait inside the span), which is how the benchmark's own
tests show that a 10% slowdown of one layer moves the metrics predicted
for it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import repro.fuzz.campaign as _campaign_mod
import repro.fuzz.parallel as _parallel_mod
from repro.fuzz.campaign import Campaign
from repro.fuzz.coverage import VerifierCoverage
from repro.fuzz.generator import StructuredGenerator
from repro.fuzz.oracle import Oracle
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.verdict import VerdictCache
from repro.kernel.syscall import Kernel
from repro.runtime.executor import Executor
from repro.verifier.core import Verifier

import hostclock

#: Span name -> the (owner, attribute) pairs whose calls it times.  The
#: campaign's ``_iteration`` is the one non-public entry: it is the only
#: place that knows the iteration id every other span is tagged with.
LAYERS = {
    "campaign.iteration": [(Campaign, "_iteration")],
    "kernel.boot": [(Kernel, "__init__")],
    "verifier": [(Kernel, "prog_load")],
    "verdict": [(VerdictCache, "load")],
    "coverage": [(VerifierCoverage, "collect")],
    "generator": [(StructuredGenerator, "generate")],
    "mutator": [(_campaign_mod, "mutate")],
    "executor": [
        (Executor, "run"),
        (Executor, "trigger_tracepoint"),
        (Executor, "run_xdp_via_dispatcher"),
    ],
    "oracle": [
        (Oracle, "classify_report"),
        (Oracle, "classify_syscall_error"),
        (Oracle, "classify_divergence"),
        (Oracle, "classify_invariant"),
    ],
    "parallel": [(ParallelCampaign, "run")],
    "parallel.merge": [(_parallel_mod, "merge_shards")],
}

#: Layers timed in every run, not only traced ones: the end-to-end
#: metrics need them, and each call takes milliseconds or happens once.
ALWAYS = frozenset({"verifier", "oracle", "parallel", "parallel.merge"})

#: Callables whose wrapper is a context manager, not a plain call.
_CONTEXT_MANAGERS = {(VerifierCoverage, "collect")}

#: The seam currently installed (read by :func:`shard_entry` in workers).
_ACTIVE: "Seam | None" = None
_ORIGINAL_RUN_SHARD = _parallel_mod._run_shard

_NAME, _START, _END, _PARENT, _ITER, _INSNS = range(6)

def _spin_until(deadline: float) -> None:
    while time.perf_counter() < deadline:
        pass


class Seam:
    """Installs the wrappers; holds what they measured."""

    def __init__(self, trace: bool = False, slow: dict | None = None) -> None:
        self.trace = trace
        #: span name -> extra share of each call's duration to busy-wait
        self.slow = dict(slow or {})
        unknown = set(self.slow) - set(LAYERS)
        if unknown:
            raise ValueError(f"cannot slow unknown layers {sorted(unknown)}")
        #: [name, start, end, parent index, iteration id, insns processed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.iteration = None
        #: duration of every Kernel.prog_load call, in call order
        self.load_seconds: list[float] = []
        #: per call, the range of calibration bursts sampled during it
        self.load_bursts: list[tuple[int, int]] = []
        self.load_accepted = 0
        #: bug id -> perf_counter() when a classify_* call first returned it
        self.first_seen: dict[str, float] = {}
        self.clock = hostclock.Sampler()
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ install --

    def install(self) -> "Seam":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a seam is already installed")
        for name, targets in LAYERS.items():
            for owner, attr in targets:
                if not (self.trace or name in ALWAYS or name in self.slow):
                    continue
                original = getattr(owner, attr)
                if (owner, attr) in _CONTEXT_MANAGERS:
                    wrapper = self._wrap_context(original, name)
                else:
                    wrapper = self._wrap_call(original, name)
                self._replace(owner, attr, wrapper)
        if self.trace:
            self._replace(Verifier, "verify",
                          self._wrap_verify(Verifier.verify))
        self._replace(_parallel_mod, "_run_shard", shard_entry)
        _ACTIVE = self
        self.clock.start()
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        self.clock.stop()
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    def __enter__(self) -> "Seam":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # ----------------------------------------------------------- wrappers --

    def _open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                           self.iteration, None])
        stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[_START] = start
        span[_END] = end

    def _wrap_call(self, fn, name: str):
        seam = self
        trace = self.trace or name in ALWAYS
        slow = self.slow.get(name, 0.0)
        is_load = name == "verifier"
        is_oracle = name == "oracle"
        is_iteration = name == "campaign.iteration"
        clock = self.clock

        def wrapper(*args, **kwargs):
            if is_iteration:
                campaign, _result, iteration = args[:3]
                seam.iteration = (campaign.config.shard_index, iteration)
            index = seam._open(name) if trace else -1
            first_burst = len(clock.bursts)
            spent = clock.spent_s
            start = time.perf_counter()
            ok = False
            try:
                value = fn(*args, **kwargs)
                ok = True
                return value
            finally:
                end = seam._net_end(start, spent, slow)
                if trace:
                    seam._close(index, start, end)
                if is_load:
                    seam.load_seconds.append(end - start)
                    seam.load_bursts.append((first_burst, len(clock.bursts)))
                    seam.load_accepted += ok
                elif is_oracle and ok and value is not None:
                    seam.first_seen.setdefault(value.bug_id, end)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_context(self, fn, name: str):
        seam = self
        slow = self.slow.get(name, 0.0)

        @contextmanager
        def wrapper(*args, **kwargs):
            index = seam._open(name) if seam.trace else -1
            spent = seam.clock.spent_s
            start = time.perf_counter()
            try:
                with fn(*args, **kwargs) as value:
                    yield value
            finally:
                end = seam._net_end(start, spent, slow)
                if seam.trace:
                    seam._close(index, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    def _net_end(self, start: float, spent: float, slow: float) -> float:
        """End of a call begun at ``start``, less the sampling done
        during it, plus the injected slowdown (which is waited out)."""
        now = time.perf_counter()
        net = now - start - (self.clock.spent_s - spent)
        if slow:
            _spin_until(now + slow * net)
            net *= 1 + slow
        return start + net

    def _wrap_verify(self, fn):
        """Tag the enclosing ``verifier`` span with the program's
        processed-instruction count (the complexity-limit attribution)."""
        seam = self

        def verify(verifier, *args, **kwargs):
            try:
                return fn(verifier, *args, **kwargs)
            finally:
                if seam._stack:
                    span = seam.spans[seam._stack[-1]]
                    if span[_NAME] == "verifier":
                        span[_INSNS] = verifier.env.insns_processed

        verify.__wrapped__ = fn
        return verify

    # -------------------------------------------------------------- output --

    def write_spans(self, path: str) -> None:
        """Write the in-memory spans as JSON lines (one span per line)."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": span[_NAME],
                    "start": span[_START],
                    "end": span[_END],
                    "parent": span[_PARENT],
                    "iteration": span[_ITER],
                    "insns": span[_INSNS],
                }) + "\n")


def shard_entry(payload):
    """Stand-in for ``repro.fuzz.parallel._run_shard``.

    Runs the real shard and ships the shard's ``prog_load`` durations
    and calibration bursts back on the result, so they survive the
    worker process boundary.  Module-level so the pool pickles it by
    name; forked workers inherit the installed seam but not its timer,
    so the shard samples the host itself.
    """
    seam = _ACTIVE
    clock = seam.clock
    owns_clock = not clock.running
    if owns_clock:
        clock.start()
    mark = len(seam.load_seconds)
    first_burst = len(clock.bursts)
    try:
        result = _ORIGINAL_RUN_SHARD(payload)
    finally:
        if owns_clock:
            clock.stop()
    result.bench_load_seconds = seam.load_seconds[mark:]
    result.bench_load_bursts = [(a - first_burst, b - first_burst)
                                for a, b in seam.load_bursts[mark:]]
    result.bench_bursts = clock.bursts[first_burst:]
    return result
