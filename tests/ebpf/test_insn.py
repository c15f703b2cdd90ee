"""Instruction representation and wire-format codec tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.ebpf import asm
from repro.ebpf.insn import (
    OP_CLASS,
    OP_IS_OFF_JMP,
    Insn,
    decode_program,
    encode_program,
    ld_imm64_pair,
)
from repro.ebpf.opcodes import (
    AluOp,
    InsnClass,
    JmpOp,
    Mode,
    PseudoCall,
    PseudoSrc,
    Reg,
    Size,
    Src,
)


class TestClassification:
    def test_alu64_class(self):
        insn = asm.alu64_imm(AluOp.ADD, Reg.R1, 5)
        assert insn.insn_class == InsnClass.ALU64
        assert insn.is_alu()
        assert insn.alu_op == AluOp.ADD
        assert insn.src_bit == Src.K

    def test_alu32_reg_source(self):
        insn = asm.alu32_reg(AluOp.XOR, Reg.R2, Reg.R3)
        assert insn.insn_class == InsnClass.ALU
        assert insn.src_bit == Src.X
        assert insn.src == Reg.R3

    def test_exit(self):
        insn = asm.exit_insn()
        assert insn.is_exit()
        assert not insn.is_call()
        assert not insn.is_cond_jmp()

    def test_helper_call(self):
        insn = asm.call_helper(7)
        assert insn.is_call()
        assert insn.is_helper_call()
        assert not insn.is_kfunc_call()
        assert not insn.is_pseudo_call()
        assert insn.imm == 7

    def test_kfunc_call(self):
        insn = asm.call_kfunc(9001)
        assert insn.is_kfunc_call()
        assert insn.src == PseudoCall.KFUNC

    def test_subprog_call(self):
        insn = asm.call_subprog(4)
        assert insn.is_pseudo_call()
        assert insn.imm == 4

    def test_cond_jmp(self):
        insn = asm.jmp_imm(JmpOp.JGT, Reg.R1, 10, 3)
        assert insn.is_cond_jmp()
        assert not insn.is_uncond_jmp()

    def test_ja(self):
        insn = asm.ja(-2)
        assert insn.is_uncond_jmp()
        assert not insn.is_cond_jmp()
        assert insn.off == -2

    def test_memory_load(self):
        insn = asm.ldx_mem(Size.W, Reg.R0, Reg.R1, 8)
        assert insn.is_memory_load()
        assert not insn.is_memory_store()
        assert insn.size == Size.W
        assert insn.mode == Mode.MEM

    def test_memory_store_imm_and_reg(self):
        st_insn = asm.st_mem(Size.B, Reg.R10, -1, 7)
        stx_insn = asm.stx_mem(Size.DW, Reg.R10, Reg.R1, -8)
        assert st_insn.is_memory_store()
        assert stx_insn.is_memory_store()
        assert not st_insn.is_memory_load()

    def test_atomic(self):
        from repro.ebpf.opcodes import AtomicOp

        insn = asm.atomic_op(Size.DW, AtomicOp.ADD, Reg.R1, Reg.R2, 0)
        assert insn.is_atomic()
        assert not insn.is_memory_store()  # ATOMIC mode, not MEM

    def test_ld_imm64_slots(self):
        first, second = asm.ld_imm64(Reg.R1, 0xDEADBEEF12345678)
        assert first.is_ld_imm64()
        assert second.is_filler()
        assert first.imm64 == 0xDEADBEEF12345678

    def test_filler_is_not_ld_imm64(self):
        assert not Insn(opcode=0).is_ld_imm64()

    def test_opcode_tables_match_field_definitions(self):
        """The per-opcode tables the verifier indexes directly agree
        with the enum definitions of every predicate."""
        for opcode in range(256):
            insn = Insn(opcode=opcode)
            cls = InsnClass(opcode & 0x07)
            mode = Mode(opcode & 0xE0)
            op = JmpOp(opcode & 0xF0)
            jmp = cls in (InsnClass.JMP, InsnClass.JMP32)
            call = cls == InsnClass.JMP and op == JmpOp.CALL
            exit_ = cls == InsnClass.JMP and op == JmpOp.EXIT
            expected = (
                cls,
                jmp and not call and not exit_,
                cls == InsnClass.LDX and mode in (Mode.MEM, Mode.MEMSX),
                cls in (InsnClass.ST, InsnClass.STX) and mode == Mode.MEM,
                cls == InsnClass.STX and mode == Mode.ATOMIC,
                cls == InsnClass.JMP and op == JmpOp.JA,
            )
            assert (
                OP_CLASS[opcode],
                OP_IS_OFF_JMP[opcode],
                insn.is_memory_load(),
                insn.is_memory_store(),
                insn.is_atomic(),
                insn.is_uncond_jmp(),
            ) == expected, hex(opcode)


class TestCodec:
    def test_simple_roundtrip(self):
        prog = [
            asm.mov64_imm(Reg.R0, -1),
            asm.alu64_imm(AluOp.ADD, Reg.R0, 0x7FFFFFFF),
            asm.exit_insn(),
        ]
        assert decode_program(encode_program(prog)) == prog

    def test_ld_imm64_roundtrip(self):
        prog = [
            *asm.ld_imm64(Reg.R3, 0xFFFFFFFFFFFFFFFF),
            *asm.ld_map_fd(Reg.R1, 42),
            asm.exit_insn(),
        ]
        decoded = decode_program(encode_program(prog))
        assert decoded[0].imm64 == 0xFFFFFFFFFFFFFFFF
        assert decoded[2].imm64 == 42
        assert decoded[2].pseudo_src() == PseudoSrc.MAP_FD

    def test_negative_offsets_and_imms(self):
        prog = [
            asm.ldx_mem(Size.DW, Reg.R0, Reg.R10, -512),
            asm.jmp_imm(JmpOp.JSLT, Reg.R0, -1, -3),
            asm.exit_insn(),
        ]
        assert decode_program(encode_program(prog)) == prog

    def test_truncated_stream_rejected(self):
        data = encode_program([asm.exit_insn()])
        with pytest.raises(EncodingError):
            decode_program(data[:4])

    def test_ld_imm64_missing_second_slot(self):
        first, _ = asm.ld_imm64(Reg.R1, 1)
        with pytest.raises(EncodingError):
            decode_program(first.encode())

    def test_ld_imm64_bad_second_slot(self):
        first, _ = asm.ld_imm64(Reg.R1, 1)
        bad_second = Insn(opcode=0, dst=1, imm=0)
        with pytest.raises(EncodingError):
            decode_program(first.encode() + bad_second.encode())

    def test_register_field_range_checked(self):
        with pytest.raises(EncodingError):
            Insn(opcode=0x07, dst=16).encode()

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1),
        st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    )
    def test_single_insn_roundtrip(self, opcode, dst, src, off, imm):
        insn = Insn(opcode=opcode, dst=dst, src=src, off=off, imm=imm)
        if insn.is_ld_imm64() or insn.is_filler():
            return  # multi-slot handled separately
        (decoded,) = decode_program(insn.encode())
        assert decoded == insn

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_ld_imm64_value_roundtrip(self, value):
        prog = [*asm.ld_imm64(Reg.R5, value), asm.exit_insn()]
        decoded = decode_program(encode_program(prog))
        assert decoded[0].imm64 == value


class TestLdImm64Pair:
    def test_pair_halves(self):
        head = Insn(opcode=InsnClass.LD | Size.DW | Mode.IMM, dst=1)
        first, second = ld_imm64_pair(head, 0x1122334455667788)
        assert first.imm == 0x55667788
        assert second.imm == 0x11223344

    def test_pair_negative_half(self):
        head = Insn(opcode=InsnClass.LD | Size.DW | Mode.IMM, dst=1)
        first, second = ld_imm64_pair(head, 0xFFFFFFFF_FFFFFFFF)
        assert first.imm == -1
        assert second.imm == -1
        assert first.imm64 == 0xFFFFFFFF_FFFFFFFF
