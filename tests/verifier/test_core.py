"""Verifier main-loop behaviours: structure checks, pruning, limits,
subprograms, infinite loops, statistics, and errno fidelity."""

from __future__ import annotations

import errno

import pytest

from repro.errors import VerifierReject
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.ebpf import asm
from repro.ebpf.insn import Insn
from repro.ebpf.opcodes import AluOp, JmpOp, Reg, Size
from repro.ebpf.program import BpfProgram, ProgType
from repro.verifier.core import MAX_USER_INSNS, Verifier
from repro.verifier.env import LOOP_CAP


def load(kernel, insns, prog_type=ProgType.SOCKET_FILTER):
    return kernel.prog_load(BpfProgram(insns=list(insns), prog_type=prog_type))


def reject(kernel, insns, prog_type=ProgType.SOCKET_FILTER):
    with pytest.raises(VerifierReject) as exc:
        load(kernel, insns, prog_type)
    return exc.value


class TestStructuralChecks:
    def test_empty_program(self, patched_kernel):
        exc = reject(patched_kernel, [])
        assert exc.errno == errno.EINVAL

    def test_oversized_program(self, patched_kernel):
        insns = [asm.mov64_imm(Reg.R0, 0)] * (MAX_USER_INSNS + 1)
        exc = reject(patched_kernel, insns + [asm.exit_insn()])
        assert exc.errno == errno.E2BIG

    def test_unknown_opcode(self, patched_kernel):
        exc = reject(patched_kernel, [Insn(opcode=0x8F), asm.exit_insn()])
        assert exc.errno == errno.EINVAL

    def test_reserved_field_abuse(self, patched_kernel):
        bad_exit = Insn(opcode=asm.exit_insn().opcode, imm=5)
        exc = reject(patched_kernel, [asm.mov64_imm(Reg.R0, 0), bad_exit])
        assert "reserved" in exc.message

    def test_last_insn_must_exit(self, patched_kernel):
        exc = reject(patched_kernel, [asm.mov64_imm(Reg.R0, 0)])
        assert "exit" in exc.message

    def test_bad_map_fd(self, patched_kernel):
        exc = reject(
            patched_kernel,
            [*asm.ld_map_fd(Reg.R1, 77), asm.mov64_imm(Reg.R0, 0),
             asm.exit_insn()],
        )
        assert exc.errno == errno.EBADF

    def test_bad_btf_id(self, patched_kernel):
        exc = reject(
            patched_kernel,
            [*asm.ld_btf_id(Reg.R1, 9999), asm.mov64_imm(Reg.R0, 0),
             asm.exit_insn()],
        )
        assert exc.errno == errno.EINVAL

    def test_btf_gated_by_config(self):
        kernel = Kernel(PROFILES["patched"]().__class__(
            version="nobtf", has_btf_access=False))
        exc = reject(
            kernel,
            [*asm.ld_btf_id(Reg.R1, 1), asm.mov64_imm(Reg.R0, 0),
             asm.exit_insn()],
        )
        assert "not supported" in exc.message


class TestLoops:
    def test_infinite_ja_rejected(self, patched_kernel):
        exc = reject(patched_kernel, [asm.ja(-1), asm.mov64_imm(Reg.R0, 0),
                                      asm.exit_insn()])
        assert "infinite loop" in exc.message

    def test_no_progress_loop_rejected(self, patched_kernel):
        exc = reject(
            patched_kernel,
            [
                asm.mov64_imm(Reg.R1, 0),
                asm.alu64_imm(AluOp.ADD, Reg.R1, 0),
                asm.jmp_imm(JmpOp.JLT, Reg.R1, 5, -2),
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
            ],
        )
        assert "infinite loop" in exc.message

    def test_progressing_loop_accepted(self, patched_kernel):
        load(
            patched_kernel,
            [
                asm.mov64_imm(Reg.R1, 0),
                asm.alu64_imm(AluOp.ADD, Reg.R1, 1),
                asm.jmp_imm(JmpOp.JLT, Reg.R1, 100, -2),
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
            ],
        )

    def test_complexity_budget(self, patched_kernel):
        # A big bounded loop exhausts the scaled-down processing budget.
        exc = reject(
            patched_kernel,
            [
                asm.mov64_imm(Reg.R1, 0),
                asm.alu64_imm(AluOp.ADD, Reg.R1, 1),
                asm.jmp_imm(JmpOp.JLT, Reg.R1, 1 << 20, -2),
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
            ],
        )
        assert exc.errno == errno.E2BIG

    def test_constant_ramp_skips_every_compare(self, patched_kernel):
        # A loop that never exits while it ramps R3: every loop-header
        # state differs from the stored ones in one constant, so the
        # pin-signature filter rules out each entry without running
        # states_equal, and the run still ends at the complexity limit
        # with the counts of a full scan.
        prog = BpfProgram(
            insns=[
                asm.mov64_imm(Reg.R3, 0),
                asm.mov64_imm(Reg.R2, 0),
                asm.alu64_imm(AluOp.ADD, Reg.R3, 1),
                asm.alu64_imm(AluOp.AND, Reg.R2, 1),
                asm.jmp_imm(JmpOp.JLT, Reg.R2, 1, -3),
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
            ],
            prog_type=ProgType.SOCKET_FILTER,
        )
        verifier = Verifier(patched_kernel, prog)
        with pytest.raises(VerifierReject) as exc:
            verifier.verify()
        assert exc.value.errno == errno.E2BIG
        assert exc.value.message == (
            "BPF program is too large. Processed 30001 insn")
        env = verifier.env
        assert env.insns_processed == 30001
        assert env.prune_scan_hits == 0
        assert env.prune_misses == 10000
        assert env.prune_evictions == 10000 - LOOP_CAP
        assert env.prune_compares == 0


class TestSubprograms:
    def test_call_depth_limit(self, patched_kernel):
        # Self-recursive subprogram exceeds the frame limit.
        exc = reject(
            patched_kernel,
            [
                asm.mov64_imm(Reg.R1, 0),
                asm.call_subprog(1),
                asm.exit_insn(),
                asm.call_subprog(-1),  # calls itself -> depth blowup
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
            ],
        )
        assert "too deep" in exc.message or exc.errno == errno.E2BIG

    def test_r6_r9_preserved_across_call(self, patched_kernel):
        load(
            patched_kernel,
            [
                asm.mov64_imm(Reg.R6, 1),
                asm.mov64_imm(Reg.R1, 0),
                asm.call_subprog(3),
                asm.alu64_reg(AluOp.ADD, Reg.R6, Reg.R0),
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
                asm.mov64_imm(Reg.R0, 2),
                asm.exit_insn(),
            ],
        )

    def test_r1_r5_dead_after_call(self, patched_kernel):
        exc = reject(
            patched_kernel,
            [
                asm.mov64_imm(Reg.R1, 1),
                asm.call_subprog(3),
                asm.mov64_reg(Reg.R0, Reg.R1),  # clobbered!
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
                asm.mov64_imm(Reg.R0, 2),
                asm.exit_insn(),
            ],
        )
        assert "!read_ok" in exc.message


class TestPruning:
    def test_diamond_converges(self, patched_kernel):
        """Both sides of a branch produce the same state: the join is
        verified once (states_pruned > 0)."""
        verified = load(
            patched_kernel,
            [
                asm.ldx_mem(Size.W, Reg.R2, Reg.R1, 0),
                asm.jmp_imm(JmpOp.JEQ, Reg.R2, 0, 3),
                asm.mov64_imm(Reg.R3, 1),
                asm.mov64_imm(Reg.R2, 1),  # erase the branch refinement
                asm.ja(2),
                asm.mov64_imm(Reg.R3, 1),
                asm.mov64_imm(Reg.R2, 1),
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
            ],
        )
        assert verified.stats["states_pruned"] >= 1

    def test_stats_exported(self, patched_kernel):
        verified = load(
            patched_kernel, [asm.mov64_imm(Reg.R0, 0), asm.exit_insn()]
        )
        stats = verified.stats
        assert stats["insns_processed"] >= 2
        assert stats["orig_len"] == 2
        assert stats["xlated_len"] == 2


class TestDeadCode:
    def test_always_taken_branch_skips_dead_side(self, patched_kernel):
        # The dead side contains an illegal access; the kernel verifier
        # doesn't analyse statically-dead paths of decided branches.
        load(
            patched_kernel,
            [
                asm.mov64_imm(Reg.R1, 5),
                asm.jmp_imm(JmpOp.JEQ, Reg.R1, 5, 1),
                asm.ldx_mem(Size.DW, Reg.R0, Reg.R9, 0),  # dead, illegal
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
            ],
        )

    def test_impossible_refined_branch_dropped(self, patched_kernel):
        load(
            patched_kernel,
            [
                asm.ldx_mem(Size.W, Reg.R2, Reg.R1, 0),
                asm.jmp_imm(JmpOp.JGT, Reg.R2, 10, 2),
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
                # here r2 > 10; a second test r2 < 5 is impossible and
                # its taken side (with the illegal access) is dropped.
                asm.jmp_imm(JmpOp.JLT, Reg.R2, 5, 1),
                asm.ja(1),
                asm.ldx_mem(Size.DW, Reg.R0, Reg.R9, 0),  # unreachable
                asm.mov64_imm(Reg.R0, 0),
                asm.exit_insn(),
            ],
        )
