"""Flight recorder: a bounded ring of typed verifier decision events.

The verifier makes thousands of micro-decisions per program — which
instruction it is simulating, whether a state pruned (and how: exact
fingerprint hit vs. ``states_equal`` scan), what a conditional branch
refined a register's bounds to, which sanitation patch it scheduled —
and the final verdict is a lossy summary of all of them.  The flight
recorder keeps the **last N** of those decisions in a
:class:`collections.deque` ring buffer, one ring per verification
(``begin`` resets it), so that when a verification ends "interestingly"
(reject, invariant violation, divergence) the campaign layer can spill
the tail of the decision history into the JSONL trace stream and the
rejection explainer (:mod:`repro.obs.explain`) can reconstruct *why*.

Design constraints, in order:

- **Disabled must be free.**  Without a recorder the verifier's
  decision events are the current observer's no-ops
  (:class:`repro.obs.Observer`), and hot paths that would format an
  event's text first test the observer's ``flight_level``.  The
  benchmark suite holds this to the repo-wide <=5% disabled-overhead
  budget (``benchmarks/test_throughput.py``).
- **Events are deterministic.**  No wall-clock timestamps, no object
  ids — a per-verification ``seq`` counter orders events, and register
  values are rendered via their stable ``str`` form.  Identical
  (program, kernel config, flags) therefore produce identical event
  lists, which is what makes recorded explanations worker-count
  invariant.
- **Bounded.**  ``capacity`` caps memory per verification; the deque
  silently drops the oldest events, which is the right bias — the
  decisions *closest* to the verdict carry the explanation.

Event kinds (each event is a plain dict with ``kind`` and ``seq``):

- ``begin``   — ring reset; ``program``, ``insns``
- ``step``    — ``do_check`` reached an instruction; ``insn``, and at
  ``level >= 2`` the non-NOT_INIT registers (``regs``) and frame depth
- ``prune``   — prune-point / loop-header decision; ``insn``, ``point``
  (``prune`` | ``loop``), ``outcome`` (``hit`` | ``miss``)
- ``refine``  — branch knowledge narrowed a register; ``insn``,
  ``reg``, ``detail``
- ``patch``   — sanitation rewrite scheduled; ``insn``, ``patch``
  (``alu_limit`` | ``probe_mem``), ``detail``
- ``verdict`` — terminal outcome; ``verdict`` (``accept`` |
  ``reject``), ``errno``, ``insn``, ``message``, ``program``

This module must stay dependency-free (stdlib only): it is imported by
``repro.obs.__init__``, which the verifier itself imports.
"""

from __future__ import annotations

from collections import deque

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "reg_summary",
]

#: Ring capacity: enough to hold the full decision history of typical
#: generated programs (tens of instructions) and the meaningful tail
#: of pathological ones.
DEFAULT_CAPACITY = 256


def reg_summary(state) -> dict[str, str]:
    """Stable text rendering of the initialised registers of a state.

    Uses ``RegState.__str__`` (the same form the level-2 verifier log
    prints), so snapshots are deterministic and diffable.
    """
    regs = state.regs
    return {
        f"R{i}": str(regs[i])
        for i in range(11)
        if regs[i].type.value != "not_init"
    }


class FlightRecorder:
    """Bounded per-verification decision log.

    ``level`` is the verbosity knob: 1 records decisions (steps,
    prunes, refinements, patches, verdicts) without register dumps;
    2 additionally snapshots the abstract register file at every step
    — what the explainer needs to show the offending state.
    """

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, level: int = 2
    ) -> None:
        self.level = level
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self.program: str | None = None
        self.n_insns = 0
        #: verifications recorded since construction (diagnostics only)
        self.programs_recorded = 0

    # -- lifecycle ----------------------------------------------------------

    def begin(self, program, n_insns: int = 0) -> None:
        """Start a fresh verification: reset the ring and the sequence."""
        self._ring.clear()
        self._seq = 0
        self.program = program
        self.n_insns = n_insns
        self.programs_recorded += 1
        self._push({"kind": "begin", "program": program, "insns": n_insns})

    def _push(self, event: dict) -> None:
        event["seq"] = self._seq
        self._seq += 1
        self._ring.append(event)

    # -- event kinds --------------------------------------------------------

    def step(self, idx: int, state) -> None:
        event: dict = {"kind": "step", "insn": idx}
        if self.level >= 2:
            event["regs"] = reg_summary(state)
            event["frames"] = len(state.frames)
        self._push(event)

    def prune(self, idx: int, point: str, outcome: str) -> None:
        self._push(
            {"kind": "prune", "insn": idx, "point": point, "outcome": outcome}
        )

    def refine(self, idx: int, reg: str, detail: str) -> None:
        self._push(
            {"kind": "refine", "insn": idx, "reg": reg, "detail": detail}
        )

    def patch(self, idx: int, kind: str, detail: str) -> None:
        self._push(
            {"kind": "patch", "insn": idx, "patch": kind, "detail": detail}
        )

    def verdict(
        self,
        verdict: str,
        *,
        errno: int | None = None,
        insn: int = -1,
        message: str = "",
    ) -> None:
        self._push(
            {
                "kind": "verdict",
                "verdict": verdict,
                "errno": errno,
                "insn": insn,
                "message": message,
                "program": self.program,
            }
        )

    # -- output -------------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """The recorded events, oldest first (copies, safe to keep)."""
        return [dict(event) for event in self._ring]
