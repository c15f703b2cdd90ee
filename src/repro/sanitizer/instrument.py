"""The instrumentation pass: dispatch loads/stores to ``bpf_asan_*``.

Runs inside the verifier's fixup phase (like BVF's kernel patches hook
``bpf_misc_fixup``), entirely at the eBPF instruction level.  For each
eligible load/store the pass emits the Figure-5 sequence::

    ax = r1            ; back up R1 into the internal AX register
    r1 = <base reg>    ; materialise the target address in R1
    r1 += <off>
    call bpf_asan_<load|store><size>
    r1 = ax            ; restore R1
    <original insn>

Instrumentation-reduction rules from the paper are implemented:

1. accesses based on R10 are skipped — the stack pointer is read-only
   and the constant offset was fully checked at verification time;
2. instructions emitted by other rewrite passes are never instrumented
   (each original access is instrumented exactly once).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.ebpf import asm
from repro.ebpf.insn import (
    OP_IS_ATOMIC,
    OP_IS_MEMORY_LOAD,
    OP_IS_MEMORY_STORE,
    OP_SIZE,
    Insn,
)
from repro.ebpf.opcodes import Reg, SIZE_BYTES
from repro.sanitizer.asan_funcs import ASAN_LOAD, ASAN_STORE

__all__ = ["SanitizeSite", "build_insertions"]


@dataclass(frozen=True)
class SanitizeSite:
    """Metadata for one instrumented access, consumed by the runtime."""

    orig_idx: int
    size: int
    is_write: bool
    probe_mem: bool


def _dispatch_sequence(base: int, off: int, func_id: int) -> list[Insn]:
    """The five-instruction Figure-5 dispatch block."""
    return [
        asm.mov64_reg(Reg.AX, Reg.R1),
        asm.mov64_reg(Reg.R1, base),
        asm.alu64_imm(asm.AluOp.ADD, Reg.R1, off),
        asm.call_helper(func_id),
        asm.mov64_reg(Reg.R1, Reg.AX),
    ]


def build_insertions(
    insns: list[Insn], probe_mem: set[int]
) -> tuple[dict[int, list[Insn]], dict[int, SanitizeSite]]:
    """Plan the sanitizer insertions for a verified program.

    Returns ``(insertions, site_by_seq)``: ``insertions`` maps original
    slot index to the dispatch block placed before it; ``site_by_seq``
    records, per instrumented original index, the access metadata (the
    runtime re-keys it by the final index of the ``call`` instruction
    after patching).
    """
    ob = obs.current()
    with ob.frame("sanitize.instrument"):
        return _build_insertions(insns, probe_mem, ob)


def _build_insertions(
    insns: list[Insn], probe_mem: set[int], ob
) -> tuple[dict[int, list[Insn]], dict[int, SanitizeSite]]:
    insertions: dict[int, list[Insn]] = {}
    sites: dict[int, SanitizeSite] = {}
    skipped_r10 = 0

    for idx, insn in enumerate(insns):
        op = insn.opcode & 0xFF
        if OP_IS_MEMORY_LOAD[op]:
            base, size = insn.src, SIZE_BYTES[OP_SIZE[op]]
            is_write = False
            table = ASAN_LOAD
        elif OP_IS_MEMORY_STORE[op]:
            base, size = insn.dst, SIZE_BYTES[OP_SIZE[op]]
            is_write = True
            table = ASAN_STORE
        elif OP_IS_ATOMIC[op]:
            # Atomics both read and write; check as a write (strictest).
            base, size = insn.dst, SIZE_BYTES[OP_SIZE[op]]
            is_write = True
            table = ASAN_STORE
        else:
            continue

        # Reduction rule 1: R10-based accesses have constant, fully
        # verified target addresses.
        if base == Reg.R10:
            skipped_r10 += 1
            continue

        insertions[idx] = _dispatch_sequence(base, insn.off, table[size])
        sites[idx] = SanitizeSite(
            orig_idx=idx,
            size=size,
            is_write=is_write,
            probe_mem=idx in probe_mem,
        )

    ob.counter("sanitizer.sites", len(sites))
    ob.counter("sanitizer.skipped_r10", skipped_r10)
    ob.profile_count("sanitizer.sites", len(sites))
    ob.profile_count("sanitizer.skipped_r10", skipped_r10)
    if ob.tracing:
        ob.event("sanitizer.instrument", sites=len(sites),
                 skipped_r10=skipped_r10, insns=len(insns))
    return insertions, sites
