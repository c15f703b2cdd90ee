"""The eBPF interpreter — our stand-in for the kernel JIT.

Executes the verifier's xlated instruction stream with precise eBPF
semantics (64-bit wrapping arithmetic, zero-extending 32-bit ops,
division-by-zero conventions, atomic read-modify-writes).

Memory model (the crux of the paper's oracle):

- ordinary program loads/stores use the **raw** path —
  uninstrumented, like JIT'd native code; only wild addresses fault;
- loads the verifier rewrote to **PROBE_MEM** are fault-handled and
  yield zero on bad addresses, like BTF-object loads in the kernel;
- ``bpf_asan_*`` calls inserted by the sanitizer consult shadow memory
  *before* the access and raise :class:`SanitizerReport` — that is
  indicator #1 being captured;
- helper and kfunc implementations run as KASAN-instrumented kernel
  code (checked path), backing indicator #2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import KernelPanic
from repro.ebpf.helpers import HelperContext
from repro.ebpf.insn import Insn
from repro.ebpf.kfuncs import KFUNCS
from repro.ebpf.opcodes import (
    AluOp,
    AtomicOp,
    InsnClass,
    JmpOp,
    Mode,
    Reg,
    Size,
    Src,
    SIZE_BYTES,
)
from repro.ebpf.program import VerifiedProgram
from repro.runtime.context import RuntimeContext
from repro.sanitizer.alu_limit import check_alu_limit
from repro.sanitizer.asan_funcs import (
    ASAN_ALU_LIMIT,
    asan_call_size,
    asan_check,
    is_asan_call,
)

__all__ = ["Interpreter", "ExecStats", "exec_metadata"]

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

# --- precomputed dispatch metadata ------------------------------------------
#
# The fetch-decode loop used to re-derive every classification from the
# opcode byte on every *executed* instruction (enum constructions via
# Insn properties, is_asan_call table probes, pseudo-call checks).
# Campaigns execute the same xlated stream thousands of times, so all
# of it is precomputed once per program into a flat list of
# (kind, a, b) int triples, cached on the VerifiedProgram.
#
# Dispatch kinds (module constants, compared as plain ints):
_K_ALU64 = 0
_K_ALU32 = 1
_K_LDX = 2
_K_STORE = 3  # ST/STX, a=1 when the value comes from imm (ST)
_K_ATOMIC = 4
_K_LD_IMM64 = 5
_K_FILLER = 6
_K_JA = 7  # a = off + 1 (precomputed jump delta)
_K_EXIT = 8
_K_COND_JMP = 9  # a = jmp op, b = (is64 << 1) | src_is_reg
_K_CALL_ASAN = 10
_K_CALL_PSEUDO = 11
_K_CALL_TAILCALL = 12
_K_CALL_KFUNC = 13
_K_CALL_HELPER = 14


def _build_exec_meta(insns) -> list[tuple[int, int, int]]:
    from repro.ebpf.helpers import HelperId
    from repro.ebpf.opcodes import PseudoCall

    meta: list[tuple[int, int, int]] = []
    for insn in insns:
        opcode = insn.opcode
        cls = opcode & 0x07
        if cls == InsnClass.ALU64 or cls == InsnClass.ALU:
            kind = _K_ALU64 if cls == InsnClass.ALU64 else _K_ALU32
            meta.append((kind, opcode & 0xF0, int(opcode & 0x08 == Src.X)))
        elif cls == InsnClass.LDX:
            meta.append(
                (_K_LDX, SIZE_BYTES[Size(opcode & 0x18)],
                 int(opcode & 0xE0 == Mode.MEMSX))
            )
        elif cls == InsnClass.ST or cls == InsnClass.STX:
            size = SIZE_BYTES[Size(opcode & 0x18)]
            if opcode & 0xE0 == Mode.ATOMIC:
                meta.append((_K_ATOMIC, size, 0))
            else:
                meta.append((_K_STORE, size, int(cls == InsnClass.ST)))
        elif cls == InsnClass.LD:
            if insn.is_filler():
                meta.append((_K_FILLER, 0, 0))
            else:
                meta.append((_K_LD_IMM64, 0, 0))
        else:  # JMP / JMP32
            op = opcode & 0xF0
            if op == JmpOp.JA:
                meta.append((_K_JA, insn.off + 1, 0))
            elif op == JmpOp.EXIT:
                meta.append((_K_EXIT, 0, 0))
            elif op == JmpOp.CALL:
                func_id = insn.imm & _U64
                is_jmp64 = cls == InsnClass.JMP
                if is_asan_call(func_id):
                    meta.append((_K_CALL_ASAN, 0, 0))
                elif is_jmp64 and insn.src == PseudoCall.CALL:
                    meta.append((_K_CALL_PSEUDO, insn.imm, 0))
                elif (
                    is_jmp64
                    and insn.src == PseudoCall.HELPER
                    and func_id == HelperId.TAIL_CALL
                ):
                    meta.append((_K_CALL_TAILCALL, 0, 0))
                elif is_jmp64 and insn.src == PseudoCall.KFUNC:
                    meta.append((_K_CALL_KFUNC, 0, 0))
                else:
                    meta.append((_K_CALL_HELPER, 0, 0))
            else:
                meta.append(
                    (_K_COND_JMP, op,
                     (int(cls == InsnClass.JMP) << 1)
                     | int(opcode & 0x08 == Src.X))
                )
    return meta


def exec_metadata(verified: VerifiedProgram) -> list[tuple[int, int, int]]:
    """The cached dispatch metadata for a verified program's xlated stream."""
    meta = getattr(verified, "_exec_meta", None)
    if meta is None or len(meta) != len(verified.xlated):
        meta = _build_exec_meta(verified.xlated)
        verified._exec_meta = meta
    return meta

#: Hard per-run instruction budget; verified programs terminate (any
#: executed path is bounded by the verifier's processing budget), but a
#: verifier bug could admit a runaway loop — the watchdog converts that
#: into a (reportable) soft lockup.
MAX_RUNTIME_INSNS = 262_144

#: Value written into caller-saved registers after helper calls, so
#: programs that (incorrectly) consume clobbered registers misbehave
#: detectably rather than silently.
_CLOBBER = 0xDEAD_BEEF_0000_0000


def _s64(value: int) -> int:
    value &= _U64
    return value - (1 << 64) if value >= (1 << 63) else value


def _s32(value: int) -> int:
    value &= _U32
    return value - (1 << 32) if value >= (1 << 31) else value


def _bswap(value: int, bits: int) -> int:
    nbytes = bits // 8
    return int.from_bytes(
        (value & ((1 << bits) - 1)).to_bytes(nbytes, "little"), "big"
    )


@dataclass
class ExecStats:
    """Counters for the overhead experiment (Section 6.4)."""

    insns_executed: int = 0
    loads: int = 0
    stores: int = 0
    helper_calls: int = 0
    sanitizer_checks: int = 0


@dataclass
class _Frame:
    return_idx: int
    saved_regs: list[int]
    saved_fp: int
    stack_alloc: object


class Interpreter:
    """Executes one verified program against a runtime context."""

    def __init__(
        self,
        kernel,
        verified: VerifiedProgram,
        rt: RuntimeContext,
        helper_ctx: HelperContext,
    ) -> None:
        self.kernel = kernel
        self.mem = kernel.mem
        self.verified = verified
        self.insns = verified.xlated
        self.rt = rt
        self.helper_ctx = helper_ctx
        self.stats = ExecStats()
        self._tail_calls = 0
        self._swapped = False

    # --- entry point ---------------------------------------------------------

    def run(self) -> int:
        """Execute to completion; returns R0.

        Observability is per-run only — one span and a handful of
        counter updates around :meth:`_run_loop` — never per
        instruction, which keeps the disabled overhead within the
        trace layer's budget (DESIGN.md "Observability").
        """
        ob = obs.current()
        try:
            if ob.tracing:
                with ob.span("interp.run", prog=self.verified.name):
                    return self._run_loop()
            return self._run_loop()
        finally:
            ob.counter("interp.runs")
            ob.counter("interp.insns_executed", self.stats.insns_executed)
            ob.counter("interp.helper_calls", self.stats.helper_calls)
            ob.counter("interp.sanitizer_checks", self.stats.sanitizer_checks)

    def _run_loop(self) -> int:
        regs = [0] * 12
        regs[Reg.R1] = self.rt.ctx_addr
        regs[Reg.R10] = self.rt.fp
        frames: list[_Frame] = []
        idx = 0
        insns = self.insns
        meta = exec_metadata(self.verified)
        stats = self.stats

        while True:
            stats.insns_executed += 1
            if stats.insns_executed > MAX_RUNTIME_INSNS:
                raise KernelPanic(
                    "watchdog: BPF soft lockup - program exceeded runtime "
                    "instruction budget",
                    context={"prog": self.verified.name},
                )
            insn = insns[idx]
            kind, a, b = meta[idx]

            if kind == _K_ALU64 or kind == _K_ALU32:
                self._alu(regs, insn, kind == _K_ALU64, a, b)
                idx += 1
            elif kind == _K_LDX:
                self._load(regs, insn, idx, a, b)
                idx += 1
            elif kind == _K_STORE:
                self._store(regs, insn, a, b)
                idx += 1
            elif kind == _K_COND_JMP:
                idx += self._cond_jmp(regs, insn, a, b)
            elif kind == _K_ATOMIC:
                self._atomic(regs, insn, a)
                idx += 1
            elif kind == _K_FILLER:
                idx += 1
            elif kind == _K_LD_IMM64:
                regs[insn.dst] = insn.imm64 & _U64
                idx += 2
            elif kind == _K_JA:
                idx += a
            elif kind == _K_EXIT:
                if frames:
                    frame = frames.pop()
                    for i, regno in enumerate((Reg.R6, Reg.R7, Reg.R8, Reg.R9)):
                        regs[regno] = frame.saved_regs[i]
                    regs[Reg.R10] = frame.saved_fp
                    self.mem.kfree(frame.stack_alloc)
                    idx = frame.return_idx
                else:
                    return regs[Reg.R0]
            elif kind == _K_CALL_PSEUDO:
                stack = self.mem.kzalloc(512, tag="bpf_stack")
                frames.append(
                    _Frame(
                        return_idx=idx + 1,
                        saved_regs=[
                            regs[Reg.R6],
                            regs[Reg.R7],
                            regs[Reg.R8],
                            regs[Reg.R9],
                        ],
                        saved_fp=regs[Reg.R10],
                        stack_alloc=stack,
                    )
                )
                regs[Reg.R10] = stack.start + 512
                idx = idx + a + 1
            else:  # asan / tail-call / kfunc / helper calls
                self._call(regs, insn, idx, kind)
                if self._swapped:
                    # Successful bpf_tail_call: restart in the target
                    # program with the same ctx/stack.
                    self._swapped = False
                    insns = self.insns
                    meta = exec_metadata(self.verified)
                    idx = 0
                else:
                    idx += 1

    # --- ALU -------------------------------------------------------------------

    def _alu(
        self, regs: list[int], insn: Insn, is64: bool, op: int, src_is_reg: int
    ) -> None:
        dst = regs[insn.dst]
        if op == AluOp.NEG:
            result = -dst
        elif op == AluOp.END:
            if src_is_reg:  # to big-endian: byteswap
                result = _bswap(dst, insn.imm)
            else:  # to little-endian on an LE host: truncate
                result = dst & ((1 << insn.imm) - 1)
            regs[insn.dst] = result & _U64
            return
        else:
            if src_is_reg:
                src = regs[insn.src]
            else:
                src = insn.imm & _U64 if is64 else insn.imm & _U32
            if not is64:
                dst &= _U32
                src &= _U32
            if op == AluOp.ADD:
                result = dst + src
            elif op == AluOp.SUB:
                result = dst - src
            elif op == AluOp.MUL:
                result = dst * src
            elif op == AluOp.DIV:
                result = dst // src if src else 0
            elif op == AluOp.MOD:
                result = dst % src if src else dst
            elif op == AluOp.OR:
                result = dst | src
            elif op == AluOp.AND:
                result = dst & src
            elif op == AluOp.XOR:
                result = dst ^ src
            elif op == AluOp.LSH:
                result = dst << (src & (63 if is64 else 31))
            elif op == AluOp.RSH:
                result = dst >> (src & (63 if is64 else 31))
            elif op == AluOp.ARSH:
                shift = src & (63 if is64 else 31)
                signed = _s64(dst) if is64 else _s32(dst)
                result = signed >> shift
            elif op == AluOp.MOV:
                result = src
            else:
                raise KernelPanic(f"interpreter: bad ALU op {op}")
        regs[insn.dst] = result & (_U64 if is64 else _U32)

    # --- memory -------------------------------------------------------------------

    def _load(
        self, regs: list[int], insn: Insn, idx: int, size: int, memsx: int
    ) -> None:
        self.stats.loads += 1
        addr = (regs[insn.src] + insn.off) & _U64

        # Rewritten ctx fields (packet pointers).
        special = self.rt.special_fields.get(addr)
        if special is not None and size == 4:
            regs[insn.dst] = special
            return

        if idx in self.verified.probe_mem:
            # Fault-handled PROBE_MEM: bad addresses read as zero.
            if addr < 4096 or not self.mem.in_arena(addr, size):
                regs[insn.dst] = 0
                return
            value = self.mem.raw_read(addr, size)
        else:
            value = self.mem.raw_read(addr, size)

        if memsx:
            bits = size * 8
            if value >= 1 << (bits - 1):
                value -= 1 << bits
        regs[insn.dst] = value & _U64

    def _store(
        self, regs: list[int], insn: Insn, size: int, from_imm: int
    ) -> None:
        self.stats.stores += 1
        addr = (regs[insn.dst] + insn.off) & _U64
        if from_imm:
            value = insn.imm & _U64
        else:
            value = regs[insn.src]
        self.mem.raw_write(addr, size, value)

    def _atomic(self, regs: list[int], insn: Insn, size: int) -> None:
        self.stats.loads += 1
        self.stats.stores += 1
        addr = (regs[insn.dst] + insn.off) & _U64
        mask = (1 << (size * 8)) - 1
        old = self.mem.raw_read(addr, size)
        operand = regs[insn.src] & mask
        op = insn.imm

        if op == int(AtomicOp.CMPXCHG):
            if old == (regs[Reg.R0] & mask):
                self.mem.raw_write(addr, size, operand)
            regs[Reg.R0] = old
            return
        if op == int(AtomicOp.XCHG):
            self.mem.raw_write(addr, size, operand)
            regs[insn.src] = old
            return

        base_op = op & ~int(AtomicOp.FETCH)
        if base_op == int(AtomicOp.ADD):
            new = (old + operand) & mask
        elif base_op == int(AtomicOp.OR):
            new = old | operand
        elif base_op == int(AtomicOp.AND):
            new = old & operand
        elif base_op == int(AtomicOp.XOR):
            new = old ^ operand
        else:
            raise KernelPanic(f"interpreter: bad atomic op {op:#x}")
        self.mem.raw_write(addr, size, new)
        if op & int(AtomicOp.FETCH):
            regs[insn.src] = old

    # --- calls ----------------------------------------------------------------------

    #: bpf_tail_call nesting limit (kernel: MAX_TAIL_CALL_CNT).
    MAX_TAIL_CALLS = 33

    def _call(self, regs: list[int], insn: Insn, idx: int, kind: int) -> None:
        if kind == _K_CALL_ASAN:
            self._asan_call(regs, insn, idx, insn.imm & _U64)
            return

        if kind == _K_CALL_TAILCALL:
            if self._tail_call(regs):
                self._swapped = True
                return
            # Failed tail call: falls through like a normal call.
            regs[Reg.R0] = (-2) & _U64  # -ENOENT
            for i, regno in enumerate((Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5)):
                regs[regno] = (_CLOBBER + i) & _U64
            return

        if kind == _K_CALL_KFUNC:
            proto = KFUNCS.get(insn.imm)
            if proto is None:
                raise KernelPanic(f"interpreter: unknown kfunc {insn.imm}")
            args = [regs[r] for r in (Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5)]
            args = args[: len(proto.args)]
            result = proto.impl(self.helper_ctx, *args)
        else:
            proto = self.kernel.helpers.get(insn.imm)
            if proto is None:
                raise KernelPanic(f"interpreter: unknown helper {insn.imm}")
            self.stats.helper_calls += 1
            args = [regs[r] for r in (Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5)]
            args = args[: len(proto.args)]
            result = proto.impl(self.helper_ctx, *args)

        regs[Reg.R0] = (result if result is not None else 0) & _U64
        for i, regno in enumerate((Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5)):
            regs[regno] = (_CLOBBER + i) & _U64

    def _tail_call(self, regs: list[int]) -> bool:
        """Resolve and perform a ``bpf_tail_call``; False on failure.

        The kernel semantics: look up the program at R3's index in R2's
        prog array; on success, jump into it reusing the current stack
        frame and context, counting against MAX_TAIL_CALL_CNT.
        """
        if self._tail_calls >= self.MAX_TAIL_CALLS:
            return False
        try:
            bpf_map = self.kernel.map_by_addr(regs[Reg.R2])
        except Exception:
            return False
        index = regs[Reg.R3] & _U32
        prog_fd = getattr(bpf_map, "prog_fd_at", lambda i: None)(index)
        if prog_fd is None:
            return False
        target = self.kernel.prog_by_fd(prog_fd)
        if target is None or target.prog_type != self.verified.prog_type:
            return False
        self._tail_calls += 1
        self.verified = target
        self.insns = target.xlated
        ctx_addr = self.rt.ctx_addr
        fp = regs[Reg.R10]
        for regno in range(12):
            regs[regno] = 0
        regs[Reg.R1] = ctx_addr
        regs[Reg.R10] = fp
        return True

    def _asan_call(self, regs: list[int], insn: Insn, idx: int, func_id: int) -> None:
        """Dispatched sanitation: registers are fully preserved."""
        self.stats.sanitizer_checks += 1
        if func_id == ASAN_ALU_LIMIT:
            check_alu_limit(regs[insn.dst], insn.off & 0xFFFF, site=idx)
            return
        size, is_write = asan_call_size(func_id)
        site = self.verified.sanitizer_meta.get(idx)
        probe = site.probe_mem if site is not None else False
        asan_check(
            self.mem,
            regs[Reg.R1],
            size,
            is_write,
            probe_mem=probe,
            site=site.orig_idx if site is not None else idx,
        )

    # --- conditional jumps ------------------------------------------------------------

    def _cond_jmp(self, regs: list[int], insn: Insn, op: int, ab: int) -> int:
        is64 = ab & 2
        dst = regs[insn.dst]
        if ab & 1:
            src = regs[insn.src]
        else:
            src = insn.imm & _U64 if is64 else insn.imm & _U32
        if not is64:
            dst &= _U32
            src &= _U32
            sdst, ssrc = _s32(dst), _s32(src)
        else:
            sdst, ssrc = _s64(dst), _s64(src)

        if op == JmpOp.JEQ:
            taken = dst == src
        elif op == JmpOp.JNE:
            taken = dst != src
        elif op == JmpOp.JGT:
            taken = dst > src
        elif op == JmpOp.JGE:
            taken = dst >= src
        elif op == JmpOp.JLT:
            taken = dst < src
        elif op == JmpOp.JLE:
            taken = dst <= src
        elif op == JmpOp.JSGT:
            taken = sdst > ssrc
        elif op == JmpOp.JSGE:
            taken = sdst >= ssrc
        elif op == JmpOp.JSLT:
            taken = sdst < ssrc
        elif op == JmpOp.JSLE:
            taken = sdst <= ssrc
        elif op == JmpOp.JSET:
            taken = bool(dst & src)
        else:
            raise KernelPanic(f"interpreter: bad JMP op {op}")
        return insn.off + 1 if taken else 1
