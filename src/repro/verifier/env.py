"""Verifier environment: call frames, whole-program states, exploration.

The verifier explores program paths depth-first.  Each pending path is
a :class:`VerifierState` (a stack of call frames plus the instruction
index to resume at); branches push one side onto the exploration stack
and continue down the other, exactly like the kernel's
``push_stack``/``pop_stack``.

Pruning: at every jump target the environment keeps the set of states
previously verified there; a new state that is *subsumed* by one of
them (every register/stack slot at least as constrained) is not
explored again (``is_state_visited``/``states_equal``).

Two structural optimisations live here (see DESIGN.md "Verifier fast
path"):

- **Canonical state-hash index.**  Each stored state is keyed by
  :func:`state_fingerprint`, a stable tuple over exactly the fields
  :func:`states_equal` inspects.  Equal fingerprints imply subsumption
  (subsumption is reflexive over those fields), so a re-reached state
  whose fingerprint is already present prunes with one dict probe
  instead of a pairwise ``states_equal`` scan.  A fingerprint miss
  falls back to the full ordered subsumption scan — fingerprints can
  only prove equality, never the *wider-subsumes-narrower* relation —
  which keeps the pruning verdict bit-identical to the scan-only
  implementation.
- **Copy-on-write state cloning.**  :meth:`VerifierState.clone` marks
  registers shared and copies only the per-frame register *list* (12
  pointers) plus a storage-sharing stack handle; the deep copy of each
  written record happens lazily at its first write, via
  :meth:`FuncFrame.wreg` and the stack's ``_wslot``.  Branch forks and
  explored-set snapshots clone far more state than any path ever
  mutates, so nearly all of the former deep-copy work disappears.

Per-index explored lists are bounded by an LRU (``PRUNE_CAP`` /
``LOOP_CAP``) with eviction counters, so loop-heavy programs cannot
grow the explored set without bound.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.ebpf.opcodes import Reg
from repro.verifier.log import VerifierLog
from repro.verifier.stack import SlotType, StackState
from repro.verifier.state import (
    MAYBE_NULL_TYPES,
    RegState,
    RegType,
    regs_equal_scalar_range,
)

__all__ = [
    "FuncFrame",
    "VerifierState",
    "VerifierEnv",
    "MAX_CALL_DEPTH",
    "PRUNE_CAP",
    "LOOP_CAP",
    "state_fingerprint",
    "states_equal",
]

#: Maximum bpf-to-bpf call nesting (kernel: 8).
MAX_CALL_DEPTH = 8

#: LRU capacity of the explored set at a prune point / a loop header.
#: The former keep-first-N heuristic pinned whichever states arrived
#: first; LRU keeps the states that keep proving useful.
PRUNE_CAP = 16
LOOP_CAP = 64

_N_REGS = 12  # R0-R10 plus the internal AX


@dataclass
class FuncFrame:
    """One call frame: registers plus stack."""

    regs: list[RegState]
    stack: StackState
    frameno: int = 0
    #: instruction to return to (index after the call insn)
    callsite: int = -1

    @classmethod
    def entry(cls, ctx_reg: RegState, frameno: int = 0, callsite: int = -1) -> "FuncFrame":
        regs = [RegState.not_init() for _ in range(_N_REGS)]
        regs[Reg.R1] = ctx_reg
        regs[Reg.R10] = RegState.pointer(RegType.PTR_TO_STACK)
        return cls(regs=regs, stack=StackState(), frameno=frameno, callsite=callsite)

    def clone(self) -> "FuncFrame":
        """A logically independent copy sharing storage until written.

        The register *list* is copied (so direct ``regs[i] = ...``
        assignments stay frame-local) but the register records are
        shared and marked; the first in-place mutation of one — always
        routed through :meth:`wreg` — clones it.  Ditto the stack.
        The source frame's records become shared too: after a clone,
        *neither* side may mutate them in place.
        """
        regs = self.regs
        for reg in regs:
            reg.shared = True
        new = FuncFrame.__new__(FuncFrame)
        new.regs = regs[:]
        new.stack = self.stack.cow_clone()
        new.frameno = self.frameno
        new.callsite = self.callsite
        return new

    def wreg(self, index: int) -> RegState:
        """A writable register: clones a shared record on first write."""
        reg = self.regs[index]
        if reg.shared:
            reg = reg.clone()
            self.regs[index] = reg
        return reg


@dataclass
class VerifierState:
    """A full program state: the frame stack plus resume point."""

    frames: list[FuncFrame]
    insn_idx: int = 0
    #: index of the branch instruction that created this state
    parent_idx: int = -1
    #: outstanding acquired references: ref_obj_id -> acquiring insn idx
    refs: dict[int, int] = field(default_factory=dict)
    #: held bpf_spin_lock: (map identity, value-pointer id), or None
    active_lock: tuple[int, int] | None = None

    @property
    def cur(self) -> FuncFrame:
        return self.frames[-1]

    @property
    def regs(self) -> list[RegState]:
        return self.cur.regs

    @property
    def stack(self) -> StackState:
        return self.cur.stack

    @property
    def call_depth(self) -> int:
        return len(self.frames)

    def clone(self) -> "VerifierState":
        """Copy-on-write clone (see :meth:`FuncFrame.clone`)."""
        new = VerifierState.__new__(VerifierState)
        new.frames = [f.clone() for f in self.frames]
        new.insn_idx = self.insn_idx
        new.parent_idx = self.parent_idx
        new.refs = dict(self.refs)
        new.active_lock = self.active_lock
        return new

    def reg(self, index: int) -> RegState:
        return self.cur.regs[index]

    def wreg(self, index: int) -> RegState:
        """A writable register in the current frame (COW entry point)."""
        return self.frames[-1].wreg(index)


def _reg_subsumed(old: RegState, new: RegState) -> bool:
    """``regsafe``: is exploring ``new`` redundant given ``old`` passed?"""
    if old.type == RegType.NOT_INIT:
        # The old path never relied on this register.
        return True
    if old.is_scalar():
        if not new.is_scalar():
            # Conservatively re-verify when a scalar became a pointer.
            return False
        return regs_equal_scalar_range(old, new)
    if old.type != new.type:
        return False
    if old.off != new.off:
        return False
    if old.map is not new.map or old.btf is not new.btf:
        return False
    if old.mem_size != new.mem_size:
        return False
    if old.is_pkt_pointer() or old.type == RegType.PTR_TO_PACKET_END:
        # The new pointer must have at least as much verified range.
        if new.pkt_range < old.pkt_range:
            return False
    # Variable offset parts must also be subsumed — the same range
    # check regs_equal_scalar_range performs, applied directly to the
    # pointers' scalar components (both are scalar by construction, so
    # the type guards are vacuous).
    if not (
        old.umin <= new.umin
        and new.umax <= old.umax
        and old.smin <= new.smin
        and new.smax <= old.smax
    ):
        return False
    # tnum subset: every bit known in old must be known-and-equal in new.
    if new.var_off.mask & ~old.var_off.mask:
        return False
    return (new.var_off.value & ~old.var_off.mask) == old.var_off.value


def _stack_subsumed(old: StackState, new: StackState) -> bool:
    """``stacksafe``: every constraint the old state had must hold."""
    for slot_idx, old_slot in old.iter_slots():
        new_slot = new.get_slot(slot_idx)
        for byte_idx, old_type in enumerate(old_slot.bytes):
            if old_type == SlotType.INVALID:
                continue
            new_type = (
                new_slot.bytes[byte_idx] if new_slot is not None else SlotType.INVALID
            )
            if new_type == SlotType.INVALID:
                return False
            if old_type == SlotType.MISC:
                continue  # anything initialised satisfies MISC
            if old_type == SlotType.ZERO and new_type != SlotType.ZERO:
                # A spilled constant zero also satisfies ZERO.
                if not (
                    new_slot.spilled is not None
                    and new_slot.spilled.is_const()
                    and new_slot.spilled.const_value() == 0
                ):
                    return False
            if old_type == SlotType.SPILL:
                if old_slot.spilled is None:
                    return False
                if new_slot is None or new_slot.spilled is None:
                    return False
                if not _reg_subsumed(old_slot.spilled, new_slot.spilled):
                    return False
    return True


def states_equal(old: VerifierState, new: VerifierState) -> bool:
    """Is ``new`` subsumed by the previously-verified ``old``?"""
    if len(old.frames) != len(new.frames):
        return False
    # Reference obligations must match (``refsafe``): pruning a state
    # with different outstanding acquisitions could hide a leak.
    if len(old.refs) != len(new.refs):
        return False
    # Likewise the spin-lock discipline: held vs. not-held must agree.
    if (old.active_lock is None) != (new.active_lock is None):
        return False
    for old_frame, new_frame in zip(old.frames, new.frames):
        if old_frame.callsite != new_frame.callsite:
            return False
        for old_reg, new_reg in zip(old_frame.regs, new_frame.regs):
            if not _reg_subsumed(old_reg, new_reg):
                return False
        if not _stack_subsumed(old_frame.stack, new_frame.stack):
            return False
    return True


def _reg_fingerprint(reg: RegState) -> tuple:
    """Stable key over exactly the fields ``_reg_subsumed`` inspects.

    Referents are interned by object identity (``id``), which is
    stable for the lifetime of one verification (the kernel model owns
    maps and BTF objects for at least as long as the env).  Fields the
    subsumption check never reads — ``id``, ``ref_obj_id``,
    ``subprog`` — are deliberately excluded so irrelevant identity
    churn cannot defeat exact-hit pruning.
    """
    var_off = reg.var_off
    return (
        # Enum members are process-lifetime singletons, so their id()
        # is equality-preserving — and hashes at C speed, unlike
        # Enum.__hash__, which dominated the fingerprint cost.
        id(reg.type),
        var_off.value,
        var_off.mask,
        reg.smin,
        reg.smax,
        reg.umin,
        reg.umax,
        reg.off,
        id(reg.map),
        id(reg.btf),
        reg.mem_size,
        reg.pkt_range,
    )


def _stack_fingerprint(stack: StackState) -> tuple:
    """Stable key over the constraints ``_stack_subsumed`` inspects.

    Semantically empty slots (all bytes INVALID, nothing spilled) are
    normalised away: they impose no constraint, so two states that
    differ only by one materialising such a slot still key equal.
    Slot order is normalised by sorting on the slot index.
    """
    items = []
    for slot_idx, slot in stack.iter_slots():
        spilled = slot.spilled
        slot_bytes = slot.bytes
        if spilled is None and all(b is SlotType.INVALID for b in slot_bytes):
            continue
        items.append((
            slot_idx,
            tuple(map(id, slot_bytes)),  # SlotType singletons, as above
            _reg_fingerprint(spilled) if spilled is not None else None,
        ))
    items.sort()
    return tuple(items)


def state_fingerprint(state: VerifierState) -> tuple:
    """A canonical hashable key for the explored-set index.

    The contract that makes the index semantically transparent:
    ``state_fingerprint(a) == state_fingerprint(b)`` implies
    ``states_equal(a, b)`` (and vice versa with the roles swapped),
    because the key covers every field the subsumption check reads and
    subsumption is reflexive over them.  The converse does *not* hold —
    a wider old state subsumes a narrower new one without keying equal
    — which is why a fingerprint miss must still fall back to the full
    scan.
    """
    return (
        tuple(
            (
                frame.callsite,
                tuple(_reg_fingerprint(r) for r in frame.regs),
                _stack_fingerprint(frame.stack),
            )
            for frame in state.frames
        ),
        len(state.refs),
        state.active_lock is None,
    )


class VerifierEnv:
    """Mutable bookkeeping for one verification run."""

    def __init__(self, log: VerifierLog, complexity_limit: int) -> None:
        self.log = log
        self.complexity_limit = complexity_limit
        #: pending branch states (DFS)
        self.stack: list[VerifierState] = []
        #: fingerprint-keyed explored states per instruction index
        #: (pruning candidates); insertion/recency-ordered for LRU
        self.explored: dict[int, OrderedDict[tuple, VerifierState]] = {}
        #: ditto for loop headers (separate capacity, reject-on-match)
        self.loop_explored: dict[int, OrderedDict[tuple, VerifierState]] = {}
        #: id allocator for pointer identity / null resolution
        self._next_id = 1
        #: statistics exported into VerifiedProgram.stats
        self.insns_processed = 0
        self.states_pushed = 0
        self.states_pruned = 0
        self.peak_stack = 0
        #: prune-index telemetry (per-program deterministic, exported
        #: as verifier.prune.* metrics by the campaign layer)
        self.prune_exact_hits = 0
        self.prune_scan_hits = 0
        self.prune_misses = 0
        self.prune_evictions = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def push_state(self, state: VerifierState) -> None:
        self.stack.append(state)
        self.states_pushed += 1
        self.peak_stack = max(self.peak_stack, len(self.stack))

    def pop_state(self) -> VerifierState | None:
        return self.stack.pop() if self.stack else None

    def _seen(
        self,
        index: dict[int, OrderedDict[tuple, VerifierState]],
        state: VerifierState,
        cap: int,
    ) -> str | None:
        """Shared subsumption machinery for prune points and loop headers.

        Exact fingerprint hit: one dict probe proves subsumption.
        Miss: ordered ``states_equal`` scan over the stored states —
        the verdict is an OR over the set, so it is identical to the
        scan-only implementation.  Either way the matched entry is
        freshened; a genuinely new state is stored (copy-on-write
        snapshot) and the least-recently-useful entry evicted beyond
        ``cap``.  Returns how the state was found subsumed
        (``"exact-hit"`` or ``"scan-hit"``), or ``None`` for a new one.
        """
        seen = index.get(state.insn_idx)
        if seen is None:
            seen = index[state.insn_idx] = OrderedDict()
        key = state_fingerprint(state)
        if key in seen:
            seen.move_to_end(key)
            self.prune_exact_hits += 1
            return "exact-hit"
        for old_key, old in seen.items():
            if states_equal(old, state):
                seen.move_to_end(old_key)
                self.prune_scan_hits += 1
                return "scan-hit"
        self.prune_misses += 1
        seen[key] = state.clone()
        if len(seen) > cap:
            seen.popitem(last=False)
            self.prune_evictions += 1
        return None

    def is_visited(self, state: VerifierState) -> str | None:
        """Prune if subsumed (returns the hit kind, see :meth:`_seen`);
        otherwise remember this state and return ``None``."""
        hit = self._seen(self.explored, state, PRUNE_CAP)
        if hit:
            self.states_pruned += 1
        return hit

    def loop_header_seen(self, state: VerifierState) -> str | None:
        """Has an equivalent state reached this back-edge target before?

        A hit (the kind, as :meth:`_seen` returns it) means the program
        re-reached a loop header without making progress — the caller
        rejects it as an infinite loop.
        """
        return self._seen(self.loop_explored, state, LOOP_CAP)
