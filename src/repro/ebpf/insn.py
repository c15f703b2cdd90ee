"""eBPF instruction representation and wire-format codec.

Each eBPF instruction occupies eight bytes on the wire::

    +--------+---------+---------+--------------+
    | opcode | src:dst |  off    |     imm      |
    | 1 byte | 4b : 4b | s16 LE  |    s32 LE    |
    +--------+---------+---------+--------------+

with a single exception: the 64-bit immediate load (``LD | IMM | DW``)
spans two consecutive slots; the second slot carries the upper 32 bits
of the immediate in its ``imm`` field and must otherwise be zero.

Programs in this library are kept in **slot form**, exactly like the
kernel's ``struct bpf_insn`` array: an LD_IMM64 contributes *two*
entries to the instruction list, and therefore list indices coincide
with the slot indices that jump offsets are expressed in.  The first
slot of an LD_IMM64 additionally caches the combined 64-bit immediate
in :attr:`Insn.imm64` for convenience.

The :class:`Insn` type is the lingua franca of the whole reproduction:
the structured generator emits lists of :class:`Insn`, the verifier
analyses them, the sanitizer rewrites them, and the interpreter
executes them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.errors import EncodingError
from repro.ebpf.opcodes import (
    AluOp,
    InsnClass,
    JmpOp,
    Mode,
    PseudoCall,
    PseudoSrc,
    Size,
    Src,
    insn_class,
    is_alu_class,
    is_jmp_class,
    is_ldst_class,
)

__all__ = [
    "Insn",
    "ld_imm64_pair",
    "encode_program",
    "decode_program",
    "program_len",
    "OP_CLASS",
    "OP_ALU",
    "OP_JMP",
    "OP_SIZE",
    "OP_MODE",
    "OP_SRC",
    "OP_IS_ALU",
    "OP_IS_JMP",
    "OP_IS_LDST",
    "OP_IS_LD_IMM64",
    "OP_IS_CALL",
    "OP_IS_EXIT",
    "OP_IS_COND_JMP",
    "OP_IS_OFF_JMP",
    "OP_IS_ATOMIC",
    "OP_IS_MEMORY_LOAD",
    "OP_IS_MEMORY_STORE",
]

_STRUCT = struct.Struct("<BBhi")

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

# Per-opcode-byte classification tables.  Every field enum is total
# over its bit range (reserved encodings are explicit UNDEF members),
# so each property is a plain tuple index — an order of magnitude
# cheaper than constructing the enum member through ``EnumType.__call__``
# on every access, and these are among the hottest calls in a campaign.
# The tables are public so the verifier's per-instruction paths can
# index them directly (``OP_CLASS[insn.opcode & 0xFF]``): under a
# coverage tracer every Python-level call, even a one-line property,
# costs a traced frame.
OP_CLASS = tuple(insn_class(op) for op in range(256))
OP_ALU = tuple(AluOp(op & 0xF0) for op in range(256))
OP_JMP = tuple(JmpOp(op & 0xF0) for op in range(256))
OP_SIZE = tuple(Size(op & 0x18) for op in range(256))
OP_MODE = tuple(Mode(op & 0xE0) for op in range(256))
OP_SRC = tuple(Src(op & 0x08) for op in range(256))

OP_IS_ALU = tuple(is_alu_class(c) for c in OP_CLASS)
OP_IS_JMP = tuple(is_jmp_class(c) for c in OP_CLASS)
OP_IS_LDST = tuple(is_ldst_class(c) for c in OP_CLASS)
OP_IS_LD_IMM64 = tuple(
    op != 0
    and OP_CLASS[op] is InsnClass.LD
    and OP_MODE[op] is Mode.IMM
    and OP_SIZE[op] is Size.DW
    for op in range(256)
)
OP_IS_CALL = tuple(
    OP_CLASS[op] is InsnClass.JMP and OP_JMP[op] is JmpOp.CALL
    for op in range(256)
)
OP_IS_EXIT = tuple(
    OP_CLASS[op] is InsnClass.JMP and OP_JMP[op] is JmpOp.EXIT
    for op in range(256)
)
OP_IS_COND_JMP = tuple(
    OP_IS_JMP[op] and OP_JMP[op] not in (JmpOp.JA, JmpOp.CALL, JmpOp.EXIT)
    for op in range(256)
)
#: JMP/JMP32 with an ``off`` target: every jump except CALL and EXIT.
OP_IS_OFF_JMP = tuple(
    OP_IS_JMP[op] and not OP_IS_CALL[op] and not OP_IS_EXIT[op]
    for op in range(256)
)
OP_IS_ATOMIC = tuple(
    OP_CLASS[op] is InsnClass.STX and OP_MODE[op] is Mode.ATOMIC
    for op in range(256)
)
OP_IS_MEMORY_LOAD = tuple(
    OP_CLASS[op] is InsnClass.LDX and OP_MODE[op] in (Mode.MEM, Mode.MEMSX)
    for op in range(256)
)
OP_IS_MEMORY_STORE = tuple(
    OP_CLASS[op] in (InsnClass.ST, InsnClass.STX) and OP_MODE[op] is Mode.MEM
    for op in range(256)
)


def _s32(value: int) -> int:
    """Reduce an integer to a signed 32-bit value (two's complement)."""
    value &= _U32
    return value - (1 << 32) if value >= (1 << 31) else value


def _s16(value: int) -> int:
    value &= 0xFFFF
    return value - (1 << 16) if value >= (1 << 15) else value


@dataclass(frozen=True)
class Insn:
    """A single 8-byte eBPF instruction slot.

    ``imm64`` is populated only on the first slot of an LD_IMM64 pair
    (the second slot is a zero-opcode filler carrying the high half in
    ``imm``).  Instances are frozen so they can be shared between the
    generator, verifier state snapshots, and rewrite passes without
    defensive copying.
    """

    opcode: int
    dst: int = 0
    src: int = 0
    off: int = 0
    imm: int = 0
    imm64: int = 0

    # --- classification -------------------------------------------------

    @property
    def insn_class(self) -> InsnClass:
        """Instruction class extracted from the opcode byte."""
        return OP_CLASS[self.opcode & 0xFF]

    @property
    def alu_op(self) -> AluOp:
        """ALU operation (only meaningful for ALU/ALU64 classes)."""
        return OP_ALU[self.opcode & 0xFF]

    @property
    def jmp_op(self) -> JmpOp:
        """Jump operation (only meaningful for JMP/JMP32 classes)."""
        return OP_JMP[self.opcode & 0xFF]

    @property
    def size(self) -> Size:
        """Memory access size (only meaningful for load/store classes)."""
        return OP_SIZE[self.opcode & 0xFF]

    @property
    def mode(self) -> Mode:
        """Addressing mode (only meaningful for load/store classes)."""
        return OP_MODE[self.opcode & 0xFF]

    @property
    def src_bit(self) -> Src:
        """Operand source selector (register vs. immediate)."""
        return OP_SRC[self.opcode & 0xFF]

    def is_alu(self) -> bool:
        return OP_IS_ALU[self.opcode & 0xFF]

    def is_jmp(self) -> bool:
        return OP_IS_JMP[self.opcode & 0xFF]

    def is_ldst(self) -> bool:
        return OP_IS_LDST[self.opcode & 0xFF]

    def is_ld_imm64(self) -> bool:
        """True for the *first* slot of the 64-bit immediate load."""
        return OP_IS_LD_IMM64[self.opcode & 0xFF]

    def is_filler(self) -> bool:
        """True for the zero-opcode second slot of an LD_IMM64."""
        return self.opcode == 0

    def is_call(self) -> bool:
        return OP_IS_CALL[self.opcode & 0xFF]

    def is_helper_call(self) -> bool:
        return self.is_call() and self.src == PseudoCall.HELPER

    def is_kfunc_call(self) -> bool:
        return self.is_call() and self.src == PseudoCall.KFUNC

    def is_pseudo_call(self) -> bool:
        """True for bpf-to-bpf subprogram calls."""
        return OP_IS_CALL[self.opcode & 0xFF] and self.src == PseudoCall.CALL

    def is_exit(self) -> bool:
        return OP_IS_EXIT[self.opcode & 0xFF]

    def is_cond_jmp(self) -> bool:
        """True for conditional jumps (excludes JA, CALL, EXIT)."""
        return OP_IS_COND_JMP[self.opcode & 0xFF]

    def is_uncond_jmp(self) -> bool:
        op = self.opcode & 0xFF
        return OP_CLASS[op] is InsnClass.JMP and OP_JMP[op] is JmpOp.JA

    def is_atomic(self) -> bool:
        return OP_IS_ATOMIC[self.opcode & 0xFF]

    def is_memory_load(self) -> bool:
        """True for LDX MEM/MEMSX loads (the sanitizer's load targets)."""
        return OP_IS_MEMORY_LOAD[self.opcode & 0xFF]

    def is_memory_store(self) -> bool:
        """True for ST/STX MEM stores (the sanitizer's store targets)."""
        return OP_IS_MEMORY_STORE[self.opcode & 0xFF]

    def pseudo_src(self) -> PseudoSrc:
        """Interpretation of ``src`` for LD_IMM64 instructions."""
        return PseudoSrc(self.src)

    # --- construction helpers -------------------------------------------

    def with_(self, **changes) -> "Insn":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # --- codec -----------------------------------------------------------

    def encode(self) -> bytes:
        """Encode this single slot to its 8-byte wire format."""
        if not 0 <= self.dst <= 15 or not 0 <= self.src <= 15:
            raise EncodingError(
                f"register field out of range: dst={self.dst} src={self.src}"
            )
        imm = self.imm
        if self.is_ld_imm64() and self.imm64:
            imm = self.imm64 & _U32
        return _STRUCT.pack(
            self.opcode, (self.src << 4) | self.dst, _s16(self.off), _s32(imm)
        )

    # --- display ----------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - exercised via disasm tests
        from repro.ebpf.disasm import format_insn

        return format_insn(self)


def ld_imm64_pair(insn: Insn, value: int) -> tuple[Insn, Insn]:
    """Build the two slots of an LD_IMM64 for ``value``.

    The first slot caches the full 64-bit immediate; the second slot is
    the zero-opcode filler carrying the high half, exactly as on the
    wire.
    """
    value &= _U64
    first = insn.with_(imm=_s32(value & _U32), imm64=value)
    second = Insn(opcode=0, imm=_s32(value >> 32))
    return first, second


def encode_program(insns: Iterable[Insn]) -> bytes:
    """Encode a slot-form program to its byte representation."""
    return b"".join(insn.encode() for insn in insns)


def decode_program(data: bytes) -> list[Insn]:
    """Decode a byte buffer into a slot-form program.

    Raises :class:`EncodingError` on truncation or malformed LD_IMM64
    pairs — the same situations in which the kernel rejects the load
    with EINVAL before the verifier even runs.
    """
    if len(data) % 8:
        raise EncodingError("program length is not a multiple of 8")
    insns: list[Insn] = []
    offset = 0
    while offset < len(data):
        op, regs, off, imm = _STRUCT.unpack_from(data, offset)
        insn = Insn(opcode=op, dst=regs & 0x0F, src=regs >> 4, off=off, imm=imm)
        offset += 8
        if insn.is_ld_imm64():
            if offset >= len(data):
                raise EncodingError("LD_IMM64 missing its second slot")
            op2, regs2, off2, imm2 = _STRUCT.unpack_from(data, offset)
            if op2 or regs2 or off2:
                raise EncodingError("LD_IMM64 second slot must be zero-padded")
            offset += 8
            value = (imm & _U32) | ((imm2 & _U32) << 32)
            insns.append(insn.with_(imm64=value))
            insns.append(Insn(opcode=0, imm=imm2))
        else:
            insns.append(insn)
    return insns


def program_len(insns: Sequence[Insn]) -> int:
    """Length of the program in 8-byte slots (== list length)."""
    return len(insns)
