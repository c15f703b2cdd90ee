"""Instruction-stream patching with jump-offset adjustment.

The kernel's rewrite passes (``bpf_patch_insn_data``) insert
instructions into a verified program — map address fixups, inline
expansions, and, in BVF's case, the sanitizer dispatch sequences — and
must then re-target every jump and bpf-to-bpf call that crosses the
insertion point.  :func:`insert_before` implements that transformation
generically: callers supply, per original slot index, the instructions
to place *before* that slot, and receive the patched stream plus an
index map for relocating any per-instruction metadata.

Jumps whose target carries an insertion land at the *start* of the
inserted block, so a branch to an instrumented load still executes the
load's sanitation.
"""

from __future__ import annotations

from repro.ebpf.insn import OP_IS_CALL, OP_IS_OFF_JMP, Insn
from repro.ebpf.opcodes import PseudoCall

__all__ = ["insert_before"]


def insert_before(
    insns: list[Insn], insertions: dict[int, list[Insn]]
) -> tuple[list[Insn], dict[int, int]]:
    """Insert instruction blocks and fix every relative offset.

    Returns ``(new_insns, index_map)`` where ``index_map[old] = new``
    gives the new slot index of each original instruction.
    """
    if not insertions:
        return list(insns), {i: i for i in range(len(insns))}

    # New index of each original instruction (after its own insertions).
    index_map: dict[int, int] = {}
    # New index of the *start* of the insertion block at each original
    # index (== index_map[i] when there is no insertion at i).
    entry_map: dict[int, int] = {}
    shift = 0
    for i in range(len(insns) + 1):
        block = insertions.get(i, ())
        entry_map[i] = i + shift
        shift += len(block)
        if i < len(insns):
            index_map[i] = i + shift

    new_insns: list[Insn] = []
    for i, insn in enumerate(insns):
        new_insns.extend(insertions.get(i, ()))
        new_insns.append(insn)
    new_insns.extend(insertions.get(len(insns), ()))

    # Re-target jumps and bpf-to-bpf calls.
    for i, insn in enumerate(insns):
        op = insn.opcode & 0xFF
        new_idx = index_map[i]
        if OP_IS_CALL[op] and insn.src == PseudoCall.CALL:
            target = i + insn.imm + 1
            new_target = entry_map.get(target, target)
            new_imm = new_target - new_idx - 1
            if new_imm != insn.imm:
                new_insns[new_idx] = insn.with_(imm=new_imm)
        elif OP_IS_OFF_JMP[op]:
            target = i + insn.off + 1
            new_target = entry_map.get(target, target)
            new_off = new_target - new_idx - 1
            if new_off != insn.off:
                new_insns[new_idx] = insn.with_(off=new_off)

    return new_insns, index_map
