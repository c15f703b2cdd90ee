"""Frame-level verdict cache: reuse per-program verifier outcomes.

Campaigns generate from a bounded frame vocabulary (Figure 4), so a
shard revisits instruction sequences — most often via corpus mutation,
which frequently yields a program byte-identical to one the verifier
already judged.  Re-running ``do_check`` on such a duplicate cannot
change the verdict: verification is a pure function of the instruction
bytes, the entry state, the map shapes, and the kernel config.  This
module captures that function's outputs once and replays them.

The cache key is the tuple of the program's frame bodies (its full
slot stream, field by field), the map specs, the program type, the
offload device, and the sanitize flag.  The verifier's entry state is
the same for every program, so it needs no place in the key.  A
**hit** must be observably indistinguishable from a full
re-verification; three mechanisms guarantee that:

- **verdicts** — for an accepted program the fresh kernel still runs
  structure checking, pseudo resolution, and fixup (those bind kernel
  objects: map addresses, BTF ids), but ``do_check`` is replaced by
  restoring the recorded :class:`~repro.verifier.core.CheckSummary`;
  for a rejected program the recorded errno/message/log is re-raised;
- **coverage** — the edge window traced during the miss run is
  replayed via :meth:`~repro.fuzz.coverage.VerifierCoverage.replay`,
  so the cumulative edge set and ``last_new`` (the corpus feedback
  signal) evolve exactly as if the verifier had run — possible only
  because tracing scope excludes the cache machinery itself;
- **metrics** — reject replays re-emit the deterministic metric calls
  recorded through :class:`_RecordingMetrics`; accept replays emit
  them naturally, since the verifier's emissions read only restored
  summary fields.

Only the ``cache.verdict.*`` counters (per-frame-kind hits and
misses) distinguish a cached campaign from an uncached one, and
:func:`~repro.obs.metrics.strip_wall_fields` excludes the ``cache.``
family from artifact comparisons.  A campaign runs without the cache
whenever one of its diagnostic modes observes ``do_check`` from the
inside, where a replay has nothing to show
(:func:`repro.fuzz.campaign.observes_do_check`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import BpfError, VerifierReject

__all__ = ["VerdictCache", "VerdictEntry"]


class _RecordingMetrics:
    """Metrics tee: forwards to the observer it wraps, logs
    deterministic calls.

    Wall-clock methods are forwarded but not logged — they are
    run-to-run noise, segregated into the snapshot's ``wall`` section
    and excluded from every artifact comparison, so replaying them
    would add nothing.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls: list[tuple] = []

    def counter(self, name: str, n: int = 1) -> None:
        self.calls.append(("counter", name, n))
        self._inner.counter(name, n)

    def gauge_max(self, name: str, value: float) -> None:
        self.calls.append(("gauge_max", name, value))
        self._inner.gauge_max(name, value)

    def observe(self, name: str, value: float, buckets=None) -> None:
        if buckets is None:
            self.calls.append(("observe", name, value))
            self._inner.observe(name, value)
        else:
            self.calls.append(("observe", name, value, buckets))
            self._inner.observe(name, value, buckets)

    def wall(self, name: str, seconds: float) -> None:
        self._inner.wall(name, seconds)

    def observe_time(self, name: str, seconds: float) -> None:
        self._inner.observe_time(name, seconds)


@dataclass
class VerdictEntry:
    """One cached load outcome."""

    #: "accepted" | "reject" | "error"
    kind: str
    errno: int = 0
    message: str = ""
    log: str = ""
    #: recorded ``do_check`` outputs (accepted entries only)
    check: object | None = None
    #: coverage edge window of the miss run (None = coverage was off)
    window: frozenset[int] | None = None
    #: deterministic metric calls of the miss run (reject/error only;
    #: accepted replays re-emit theirs naturally from ``check``)
    metric_log: tuple = ()
    #: frame kinds of the program that populated the entry
    kinds: frozenset[str] = field(default_factory=frozenset)


class VerdictCache:
    """Bounded LRU of per-program verifier outcomes for one shard.

    Instances are shard-local, so hit patterns are a pure function of
    that shard's program sequence and identical whether shards run
    serially or in parallel workers.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        #: insertion-ordered, least recently used first
        self._entries: dict[tuple, VerdictEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, prog, map_specs, sanitize: bool) -> tuple:
        frames = tuple(
            (i.opcode, i.dst, i.src, i.off, i.imm, i.imm64)
            for i in prog.insns
        )
        return (
            frames,
            map_specs,
            prog.prog_type,
            prog.offload_dev,
            sanitize,
        )

    def _count(self, m, outcome: str, kinds: frozenset[str]) -> None:
        m.counter(f"cache.verdict.{outcome}")
        for kind in sorted(kinds):
            m.counter(f"cache.verdict.{outcome}.{kind}")

    def _store(self, key: tuple, entry: VerdictEntry) -> None:
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            del self._entries[next(iter(self._entries))]
            obs.current().counter("cache.verdict.evictions")

    def load(self, kernel, prog, *, sanitize: bool, coverage,
             map_specs: tuple, kinds: frozenset[str]):
        """Load ``prog`` through the cache.

        Same contract as ``kernel.prog_load``: returns the
        :class:`~repro.ebpf.program.VerifiedProgram` or raises the
        verdict exception — from the recorded outcome on a hit, from a
        real verifier run (recorded for next time) on a miss.
        """
        key = self._key(prog, map_specs, sanitize)
        entry = self._entries.get(key)
        ob = obs.current()
        if entry is not None:
            self._entries[key] = self._entries.pop(key)
            self._count(ob, "hits", kinds)
            if entry.kind == "accepted":
                verified = kernel.prog_load(
                    prog, sanitize=sanitize, cached_check=entry.check
                )
                if coverage is not None and entry.window is not None:
                    coverage.replay(entry.window)
                return verified
            for call in entry.metric_log:
                getattr(ob, call[0])(*call[1:])
            if coverage is not None and entry.window is not None:
                coverage.replay(entry.window)
            if entry.kind == "reject":
                raise VerifierReject(entry.errno, entry.message,
                                     log=entry.log)
            raise BpfError(entry.errno, entry.message)

        self._count(ob, "misses", kinds)
        tee = _RecordingMetrics(ob)
        # Only the metrics part is swapped: flight recorder, profiler and
        # trace keep observing the miss run.
        token = obs.install(ob.replace(metrics=tee))
        window: set[int] | None = None
        try:
            if coverage is not None:
                with coverage.collect() as window:
                    verified = kernel.prog_load(prog, sanitize=sanitize)
            else:
                verified = kernel.prog_load(prog, sanitize=sanitize)
        except VerifierReject as reject:
            self._store(key, VerdictEntry(
                kind="reject", errno=reject.errno, message=reject.message,
                log=reject.log,
                window=frozenset(window) if window is not None else None,
                metric_log=tuple(tee.calls), kinds=kinds,
            ))
            raise
        except BpfError as error:
            self._store(key, VerdictEntry(
                kind="error", errno=error.errno, message=error.message,
                window=frozenset(window) if window is not None else None,
                metric_log=tuple(tee.calls), kinds=kinds,
            ))
            raise
        finally:
            obs.restore(token)
        if verified.check_summary is not None:
            self._store(key, VerdictEntry(
                kind="accepted", check=verified.check_summary,
                window=frozenset(window) if window is not None else None,
                kinds=kinds,
            ))
        return verified
