"""Structured trace events: JSONL spans with monotonic timestamps.

Tracing answers the *where did the time go* questions the metrics
registry's aggregates cannot: one line per event or span, written as it
happens, with timestamps from :func:`time.monotonic` relative to the
recorder's creation (so traces from different shards are each
internally ordered, and never pretend to share a clock).

:class:`JsonlTraceRecorder` appends one JSON object per line:
``{"v": 1, "ts": ..., "kind": "event"|"span", "name": ..., ...attrs}``
with ``"dur"`` added on spans.  Keys are sorted so the output is
stable, and every record carries the ``"v"`` schema version so
consumers can evolve the format without sniffing.  Path-backed
recorders rotate: once a file exceeds the byte cap
(``REPRO_TRACE_MAX_BYTES``, default 64 MiB) it is renamed to
``<path>.1`` (replacing any previous rotation) and a fresh file is
started, so an unattended campaign cannot fill the disk unboundedly.
Without a recorder, trace events and spans are the current observer's
no-ops (:class:`repro.obs.Observer`); hot paths skip building event
attributes unless the observer's ``tracing`` flag is set.

:class:`PhaseClock` is the single phase timer the campaign loop runs
on.  Each ``with clock.phase("verify"):`` block accumulates its
duration exactly once — in the ``finally`` of the context manager — no
matter how the block exits (return, ``VerifierReject``, any other
exception), which fixes the triple-increment paths the old inline
timers had.  The same exit point feeds the wall-clock histogram in the
metrics registry and, when tracing is on, emits the phase as an
event — both through the observer the clock was built with.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager

__all__ = [
    "JsonlTraceRecorder",
    "PhaseClock",
    "RECORD_VERSION",
    "DEFAULT_MAX_BYTES",
]

#: Schema version stamped on every trace record as ``"v"``.
RECORD_VERSION = 1

#: Default per-file byte cap before a path-backed recorder rotates.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


class _Span:
    """Times a block and writes it as one line on exit."""

    __slots__ = ("recorder", "name", "attrs", "started")

    def __init__(self, recorder: "JsonlTraceRecorder", name: str, attrs: dict):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        now = time.monotonic()
        record = dict(self.attrs)
        record.update(
            ts=self.started - self.recorder._t0,
            kind="span",
            name=self.name,
            dur=now - self.started,
            error=exc_type.__name__ if exc_type is not None else None,
        )
        self.recorder._write(record)
        return False


class JsonlTraceRecorder:
    """Writes trace events to a JSONL file (or any text stream)."""

    def __init__(self, path_or_stream, max_bytes: int | None = None) -> None:
        if max_bytes is None:
            max_bytes = int(
                os.environ.get("REPRO_TRACE_MAX_BYTES", DEFAULT_MAX_BYTES)
            )
        self._max_bytes = max_bytes
        if hasattr(path_or_stream, "write"):
            self._stream = path_or_stream
            self._owns = False
            self._path = None
        else:
            self._stream = open(path_or_stream, "w", encoding="utf-8")
            self._owns = True
            self._path = os.fspath(path_or_stream)
        self._written = 0
        self._t0 = time.monotonic()

    def _write(self, fields: dict) -> None:
        # Reserved keys (ts/kind/name/dur) are merged over attrs, so a
        # colliding attribute never shadows the record structure.
        record = {k: v for k, v in fields.items() if v is not None}
        record["v"] = RECORD_VERSION
        record["ts"] = round(record["ts"], 6)
        if "dur" in record:
            record["dur"] = round(record["dur"], 6)
        line = json.dumps(record, sort_keys=True) + "\n"
        self._stream.write(line)
        if self._path is not None and self._max_bytes > 0:
            self._written += len(line)
            if self._written >= self._max_bytes:
                self._rotate()

    def _rotate(self) -> None:
        """Size-capped rotation: ``<path>`` becomes ``<path>.1``
        (replacing the previous rotation) and a fresh file starts, so a
        long campaign keeps at most ``2 * max_bytes`` of trace."""
        self._stream.close()
        os.replace(self._path, f"{self._path}.1")
        self._stream = open(self._path, "w", encoding="utf-8")
        self._written = 0

    def event(self, name: str, **attrs) -> None:
        record = dict(attrs)
        record.update(ts=time.monotonic() - self._t0, kind="event", name=name)
        self._write(record)

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def close(self) -> None:
        self._stream.flush()
        if self._owns:
            self._stream.close()


class PhaseClock:
    """Accumulates named phase durations, once per phase exit.

    ``seconds`` maps phase name to total accumulated time.  Each exit
    also records the duration into ``observer``'s wall-clock histogram
    and, when it traces, as a ``phase.<name>`` event.
    """

    def __init__(self, observer):
        self.seconds: Counter = Counter()
        self.observer = observer

    @contextmanager
    def phase(self, name: str, **attrs):
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.seconds[name] += elapsed
            observer = self.observer
            observer.observe_time(f"phase.{name}.seconds", elapsed)
            if observer.tracing:
                observer.event(f"phase.{name}", dur=round(elapsed, 6),
                               **attrs)
