"""BVF's structured program generator (Section 4.1, Figure 4).

Programs are assembled from three top-level sections:

- the **init header** loads interesting initial states into registers
  (map fds, direct map values, BTF object addresses, random 64-bit
  immediates, the frame pointer) and preserves the context pointer;
- the **framed body** repeatedly picks one of three frame kinds with
  equal probability: *basic* frames (ALU, stack traffic, map/ctx/BTF/
  packet accesses), *jump* frames (forward branches over nested frames
  and bounded back-edge loops with an immediate-bounded loop
  variable), and *call* frames (helper, kfunc, and bpf-to-bpf calls
  with prototype-driven argument setup);
- the **end section** provides the valid exit.

Lightweight register tagging (:class:`~repro.fuzz.structure.GenState`)
keeps emitted operations mostly valid; a configurable "unsafe" knob
occasionally drops a required null check or bound so rejection paths
and flawed acceptance paths both get probed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.ebpf import asm
from repro.ebpf.helpers import ArgType, HelperId, HelperProto, RetType
from repro.ebpf.kfuncs import KFUNC_GET_TASK, KFUNC_RAND, KFUNC_TASK_PID
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.opcodes import AluOp, AtomicOp, JmpOp, Reg, Size, BYTES_TO_SIZE
from repro.ebpf.program import CONTEXTS, PACKET_ACCESS_TYPES, ProgType
from repro.fuzz.rng import FuzzRng
from repro.fuzz.structure import (
    ExecutionPlan,
    GeneratedProgram,
    GenState,
    RegTag,
)

__all__ = ["GeneratorConfig", "StructuredGenerator"]

_SIZES = (1, 2, 4, 8)
_ALU_OPS = (
    AluOp.ADD,
    AluOp.SUB,
    AluOp.MUL,
    AluOp.DIV,
    AluOp.MOD,
    AluOp.OR,
    AluOp.AND,
    AluOp.XOR,
    AluOp.LSH,
    AluOp.RSH,
    AluOp.ARSH,
)
_CMP_OPS = (
    JmpOp.JEQ,
    JmpOp.JNE,
    JmpOp.JGT,
    JmpOp.JGE,
    JmpOp.JLT,
    JmpOp.JLE,
    JmpOp.JSGT,
    JmpOp.JSGE,
    JmpOp.JSLT,
    JmpOp.JSLE,
    JmpOp.JSET,
)

_PROG_TYPE_WEIGHTS = (
    (ProgType.KPROBE, 30),
    (ProgType.SOCKET_FILTER, 18),
    (ProgType.XDP, 14),
    (ProgType.SCHED_CLS, 10),
    (ProgType.TRACEPOINT, 12),
    (ProgType.PERF_EVENT, 10),
    (ProgType.RAW_TRACEPOINT, 6),
)

#: Map classes each map-taking helper accepts.
_KEYED_MAPS = frozenset({MapType.HASH, MapType.ARRAY, MapType.LRU_HASH,
                         MapType.PERCPU_HASH, MapType.PERCPU_ARRAY})
_QUEUE_MAPS = frozenset({MapType.QUEUE, MapType.STACK})
_HELPER_MAP_CLASS = {
    int(HelperId.MAP_LOOKUP_ELEM): _KEYED_MAPS,
    int(HelperId.MAP_UPDATE_ELEM): _KEYED_MAPS,
    int(HelperId.MAP_DELETE_ELEM): frozenset({MapType.HASH, MapType.LRU_HASH,
                                              MapType.PERCPU_HASH}),
    int(HelperId.MAP_PUSH_ELEM): _QUEUE_MAPS,
    int(HelperId.MAP_POP_ELEM): _QUEUE_MAPS,
    int(HelperId.MAP_PEEK_ELEM): _QUEUE_MAPS,
    int(HelperId.RINGBUF_OUTPUT): frozenset({MapType.RINGBUF}),
}


@dataclass
class GeneratorConfig:
    """Knobs for structured generation (ablation-friendly)."""

    #: use the Figure-4 structure; False degrades to flat random
    #: emission from the same instruction pool (the ablation baseline)
    use_structure: bool = True
    min_body_frames: int = 2
    max_body_frames: int = 6
    basic_ops_min: int = 1
    basic_ops_max: int = 5
    #: probability of null-checking an OR_NULL helper return
    p_null_check: float = 0.82
    #: probability a jump frame is a bounded back-edge loop
    p_back_edge: float = 0.18
    #: probability a call frame targets a bpf-to-bpf subprogram
    p_subprog: float = 0.08
    #: probability a call frame targets a kfunc (when supported)
    p_kfunc: float = 0.15
    #: probability of deliberately emitting a risky operation
    p_unsafe: float = 0.12
    #: probability of the pointer-compare "null check" (Bug #1 fodder)
    p_ptr_compare_check: float = 0.15
    #: probability of the stale-R0-index pattern around kfunc calls
    p_kfunc_index: float = 0.4
    #: probability of generating an oversized program (Bug #8 fodder)
    p_large: float = 0.05
    #: probability an XDP program requests device offload (Bug #11)
    p_offload: float = 0.25
    max_loop_iters: int = 8
    max_jump_depth: int = 2
    #: maps created per program
    min_maps: int = 1
    max_maps: int = 3


class StructuredGenerator:
    """Generates one program per :meth:`generate` call.

    The generator itself is campaign-lived: constructing one is cheap
    but not free, and campaigns generate hundreds of thousands of
    programs, so the driver builds a single instance and rebinds it to
    each iteration's fresh :class:`~repro.kernel.syscall.Kernel` via
    the ``kernel`` argument of :meth:`generate`.  All per-program state
    (stack cursor, risk knobs) is reset at the top of every call, so a
    reused generator emits exactly the stream a fresh one would.
    """

    name = "bvf"

    def __init__(self, kernel, rng: FuzzRng, config: GeneratorConfig | None = None):
        self.kernel = kernel
        self.rng = rng
        self.config = config or GeneratorConfig()
        self._stack_cursor = -8
        self._p_unsafe = self.config.p_unsafe
        self._p_null_check = self.config.p_null_check

    # ------------------------------------------------------------------ api --

    def generate(self, kernel=None) -> GeneratedProgram:
        if kernel is not None:
            self.kernel = kernel
        if self.kernel is None:
            raise ValueError("generate() needs a kernel (none bound yet)")
        rng = self.rng
        self._stack_cursor = -8
        self._p_unsafe = self.config.p_unsafe
        self._p_null_check = self.config.p_null_check
        prog_type = rng.pick_weighted(
            [p for p, _ in _PROG_TYPE_WEIGHTS], [w for _, w in _PROG_TYPE_WEIGHTS]
        )
        st = GenState(prog_type=prog_type)
        self._stack_cursor = -8
        self._create_resources(st)

        if self.config.use_structure:
            self._init_header(st)
            if rng.chance(self.config.p_large):
                # Oversized programs stress the syscall duplication
                # paths (Bug #8) and simulate unrolled hot loops.  The
                # per-operation risk budget is scaled down so some of
                # them actually load (a long program with the default
                # risk rate almost always contains a rejected probe).
                n_frames = rng.randint(15, 35)
                self._p_unsafe = 0.0
                self._p_null_check = 0.99
            else:
                n_frames = rng.randint(
                    self.config.min_body_frames, self.config.max_body_frames
                )
                self._p_unsafe = self.config.p_unsafe
                self._p_null_check = self.config.p_null_check
            frame_kinds: list[str] = []
            for _ in range(n_frames):
                kind = rng.pick(("basic", "jump", "call"))
                frame_kinds.append(kind)
                if kind == "basic":
                    self._basic_frame(st)
                elif kind == "call":
                    self._call_frame(st)
                else:
                    self._jump_frame(st, depth=0)
            self._end_section(st)
            self._emit_subprogs(st)
        else:
            frame_kinds = ["flat"]
            self._flat_body(st)

        plan = self._make_plan(st)
        if len(st.insns) > 200:
            plan.query_info = True
        offload = None
        if prog_type == ProgType.XDP and rng.chance(self.config.p_offload):
            offload = "netdev0"
        ob = obs.current()
        if ob.tracing:
            ob.event(
                "generator.program",
                origin=self.name,
                prog_type=prog_type.value,
                insns=len(st.insns),
                frames=len(frame_kinds),
            )
        ob.counter("generator.programs")
        ob.observe("generator.program_insns", len(st.insns))
        return GeneratedProgram(
            insns=st.insns,
            prog_type=prog_type,
            maps=st.maps,
            plan=plan,
            origin=self.name,
            offload_dev=offload,
            frame_kinds=tuple(frame_kinds),
        )

    # -------------------------------------------------------------- resources --

    def _create_resources(self, st: GenState) -> None:
        rng = self.rng
        n_maps = rng.randint(self.config.min_maps, self.config.max_maps)
        choices = [
            (MapType.HASH, 38),
            (MapType.ARRAY, 28),
            (MapType.LRU_HASH, 8),
            (MapType.QUEUE, 8),
            (MapType.STACK, 6),
            (MapType.RINGBUF, 8),
            (MapType.PROG_ARRAY, 6),
        ]
        for _ in range(n_maps):
            map_type = rng.pick_weighted(
                [m for m, _ in choices], [w for _, w in choices]
            )
            try:
                if map_type == MapType.RINGBUF:
                    fd = self.kernel.map_create(map_type, 0, 0, 4096)
                elif map_type in _QUEUE_MAPS:
                    fd = self.kernel.map_create(
                        map_type, 0, rng.pick((8, 16, 32)), rng.pick((4, 8, 16))
                    )
                elif map_type == MapType.PROG_ARRAY:
                    fd = self.kernel.map_create(map_type, 4, 4, rng.pick((2, 4)))
                elif map_type in (MapType.ARRAY, MapType.PERCPU_ARRAY):
                    fd = self.kernel.map_create(
                        map_type, 4, rng.pick((8, 16, 32, 64)), rng.pick((1, 4, 16))
                    )
                else:
                    fd = self.kernel.map_create(
                        map_type,
                        8,
                        rng.pick((8, 16, 32, 64)),
                        rng.pick((4, 16, 64)),
                        has_spin_lock=(
                            map_type == MapType.HASH and rng.chance(0.25)
                        ),
                    )
            except Exception:
                continue
            st.maps.append(self.kernel.map_by_fd(fd))
        if self.kernel.config.has_btf_access:
            st.btf_ids = list(self.kernel.btf.loadable_ids())

    # ------------------------------------------------------------ init header --

    def _init_header(self, st: GenState) -> None:
        rng = self.rng
        # Preserve the context pointer across calls.
        if rng.chance(0.8):
            st.emit(asm.mov64_reg(Reg.R6, Reg.R1))
            st.set_tag(Reg.R6, RegTag(kind="ctx"))
        st.set_tag(Reg.R1, RegTag(kind="ctx"))

        candidates = [Reg.R7, Reg.R8, Reg.R9]
        rng.shuffle(candidates)
        for regno in candidates[: rng.randint(1, 3)]:
            self._emit_loader(st, regno)

    def _emit_loader(self, st: GenState, regno: int) -> None:
        """One init-header loading instruction (Figure 4, part 1)."""
        rng = self.rng
        options = ["imm64", "imm32", "fp"]
        keyed = [m for m in st.maps if m.map_type in _KEYED_MAPS]
        arrays = [m for m in st.maps if m.map_type in (MapType.ARRAY,
                                                       MapType.PERCPU_ARRAY)]
        if st.maps:
            options += ["map_fd", "map_fd"]
        if arrays:
            options += ["map_value"]
        if st.btf_ids:
            options += ["btf_id"]
        choice = rng.pick(options)
        if choice == "imm64":
            st.emit(*asm.ld_imm64(regno, rng.fuzz_u64()))
            st.set_tag(regno, RegTag(kind="scalar"))
        elif choice == "imm32":
            value = rng.fuzz_imm32()
            st.emit(asm.mov64_imm(regno, value))
            st.set_tag(regno, RegTag(kind="const", const=value & ((1 << 64) - 1)))
        elif choice == "fp":
            off = self._alloc_stack(8)
            st.emit(
                asm.mov64_reg(regno, Reg.R10),
                asm.alu64_imm(AluOp.ADD, regno, off),
            )
            st.set_tag(regno, RegTag(kind="stack", stack_off=off))
        elif choice == "map_fd":
            bpf_map = rng.pick(st.maps)
            st.emit(*asm.ld_map_fd(regno, bpf_map.fd))
            st.set_tag(regno, RegTag(kind="map_ptr", map=bpf_map))
        elif choice == "map_value":
            bpf_map = rng.pick(arrays)
            off = rng.randrange(0, bpf_map.value_size, 8)
            st.emit(*asm.ld_map_value(regno, bpf_map.fd, off))
            st.set_tag(regno, RegTag(kind="map_value", map=bpf_map))
        else:  # btf_id
            btf_id = rng.pick(st.btf_ids)
            obj = self.kernel.btf.object(btf_id)
            st.emit(*asm.ld_btf_id(regno, btf_id))
            st.set_tag(regno, RegTag(kind="btf", btf_size=obj.type.size))

    # ------------------------------------------------------------ basic frame --

    def _basic_frame(self, st: GenState) -> None:
        n_ops = self.rng.randint(self.config.basic_ops_min, self.config.basic_ops_max)
        for _ in range(n_ops):
            self._basic_op(st)

    def _basic_op(self, st: GenState) -> None:
        rng = self.rng
        ops = [
            (self._op_alu, 30),
            (self._op_stack_store, 14),
            (self._op_stack_load, 10),
            (self._op_mov, 10),
        ]
        if st.regs_with("map_value"):
            ops.append((self._op_map_value_access, 22))
            ops.append((self._op_atomic, 6))
        if st.regs_with("ctx"):
            ops.append((self._op_ctx_read, 12))
            ops.append((self._op_ctx_write, 4))
            if st.prog_type in PACKET_ACCESS_TYPES:
                ops.append((self._op_packet_probe, 10))
        if st.regs_with("btf"):
            ops.append((self._op_btf_read, 10))
        if st.regs_with("stack"):
            ops.append((self._op_stackptr_access, 8))
        fns = [f for f, _ in ops]
        weights = [w for _, w in ops]
        rng.pick_weighted(fns, weights)(st)

    def _pick_scalar_reg(self, st: GenState) -> int:
        """A register holding a scalar, materialising one if needed."""
        regs = st.regs_with("scalar", "const")
        if regs and not self.rng.chance(0.2):
            return self.rng.pick(regs)
        scratch = st.scratch_regs() or [Reg.R0]
        regno = self.rng.pick(scratch)
        value = self.rng.fuzz_imm32()
        st.emit(asm.mov64_imm(regno, value))
        st.set_tag(regno, RegTag(kind="const", const=value & ((1 << 64) - 1)))
        return regno

    def _op_alu(self, st: GenState) -> None:
        rng = self.rng
        dst = self._pick_scalar_reg(st)
        op = rng.pick(_ALU_OPS)
        is64 = rng.chance(0.7)
        bits = 64 if is64 else 32
        alu_imm = asm.alu64_imm if is64 else asm.alu32_imm
        alu_reg = asm.alu64_reg if is64 else asm.alu32_reg
        if rng.chance(0.6):
            if op in (AluOp.LSH, AluOp.RSH, AluOp.ARSH):
                imm = rng.randint(0, bits - 1)
            elif op in (AluOp.DIV, AluOp.MOD):
                imm = rng.randint(1, 1 << 16)
            else:
                imm = rng.fuzz_imm32()
            st.emit(alu_imm(op, dst, imm))
        else:
            src = self._pick_scalar_reg(st)
            st.emit(alu_reg(op, dst, src))
        st.set_tag(dst, RegTag(kind="scalar"))

    def _op_mov(self, st: GenState) -> None:
        rng = self.rng
        usable = [r for r in range(10) if st.tag(r).usable()]
        scratch = st.scratch_regs()
        if not usable or not scratch:
            return self._op_alu(st)
        src = rng.pick(usable)
        dst = rng.pick(scratch)
        if dst == src:
            return self._op_alu(st)
        st.emit(asm.mov64_reg(dst, src))
        st.set_tag(dst, st.tag(src).clone())

    def _op_stack_store(self, st: GenState) -> None:
        rng = self.rng
        off = self._alloc_stack(8)
        if rng.chance(0.6):
            size = rng.pick(_SIZES)
            st.emit(asm.st_mem(BYTES_TO_SIZE[size], Reg.R10, off, rng.fuzz_imm32()))
            if size == 8:
                st.stack_inited.add(off)
        else:
            src = self._pick_scalar_reg(st)
            st.emit(asm.stx_mem(Size.DW, Reg.R10, src, off))
            st.stack_inited.add(off)

    def _op_stack_load(self, st: GenState) -> None:
        if not st.stack_inited:
            return self._op_stack_store(st)
        rng = self.rng
        off = rng.pick(sorted(st.stack_inited))
        scratch = st.scratch_regs() or [Reg.R0]
        dst = rng.pick(scratch)
        st.emit(asm.ldx_mem(Size.DW, dst, Reg.R10, off))
        st.set_tag(dst, RegTag(kind="scalar"))

    def _op_stackptr_access(self, st: GenState) -> None:
        rng = self.rng
        regs = st.regs_with("stack")
        if not regs:
            return self._op_stack_store(st)
        regno = rng.pick(regs)
        tag = st.tag(regno)
        st.emit(asm.st_mem(Size.DW, regno, 0, rng.fuzz_imm32()))
        st.stack_inited.add(tag.stack_off)

    def _op_map_value_access(self, st: GenState) -> None:
        rng = self.rng
        regs = st.regs_with("map_value")
        regno = rng.pick(regs)
        bpf_map = st.tag(regno).map
        size = rng.pick(_SIZES)
        # The embedded bpf_spin_lock region is untouchable.
        min_off = 8 if getattr(bpf_map, "has_spin_lock", False) else 0
        max_off = bpf_map.value_size - size
        if max_off < min_off:
            return
        off = rng.fuzz_int(min_off, max_off)
        if self.rng.chance(self._p_unsafe):
            off = bpf_map.value_size + rng.randint(0, 8)  # deliberately OOB
        if rng.chance(0.5):
            scratch = st.scratch_regs() or [Reg.R0]
            dst = rng.pick(scratch)
            st.emit(asm.ldx_mem(BYTES_TO_SIZE[size], dst, regno, off))
            st.set_tag(dst, RegTag(kind="scalar"))
        elif rng.chance(0.6):
            st.emit(asm.st_mem(BYTES_TO_SIZE[size], regno, off, rng.fuzz_imm32()))
        else:
            src = self._pick_scalar_reg(st)
            st.emit(asm.stx_mem(BYTES_TO_SIZE[size], regno, src, off))

    def _op_atomic(self, st: GenState) -> None:
        rng = self.rng
        regs = st.regs_with("map_value")
        if not regs:
            return self._op_alu(st)
        regno = rng.pick(regs)
        bpf_map = st.tag(regno).map
        size = rng.pick((4, 8))
        min_off = 8 if getattr(bpf_map, "has_spin_lock", False) else 0
        if bpf_map.value_size - size < min_off:
            return
        off = rng.randrange(min_off, bpf_map.value_size - size + 1, size)
        src = self._pick_scalar_reg(st)
        op = rng.pick(
            (
                AtomicOp.ADD,
                AtomicOp.OR,
                AtomicOp.AND,
                AtomicOp.XOR,
                AtomicOp.ADD | AtomicOp.FETCH,
                AtomicOp.XCHG,
            )
        )
        st.emit(asm.atomic_op(BYTES_TO_SIZE[size], op, regno, src, off))
        if op & AtomicOp.FETCH:
            st.set_tag(src, RegTag(kind="scalar"))

    def _ctx_reg(self, st: GenState) -> int | None:
        regs = st.regs_with("ctx")
        return self.rng.pick(regs) if regs else None

    def _op_ctx_read(self, st: GenState) -> None:
        rng = self.rng
        ctx_reg = self._ctx_reg(st)
        if ctx_reg is None:
            return self._op_alu(st)
        descriptor = CONTEXTS[st.prog_type]
        fields = [f for f in descriptor.fields if f.readable and f.special is None]
        scratch = st.scratch_regs() or [Reg.R0]
        dst = rng.pick(scratch)
        if fields:
            f = rng.pick(fields)
            st.emit(asm.ldx_mem(BYTES_TO_SIZE[f.size], dst, ctx_reg, f.offset))
        elif descriptor.raw_readable:
            size = rng.pick(_SIZES)
            off = rng.randrange(0, descriptor.size - size + 1, size)
            st.emit(asm.ldx_mem(BYTES_TO_SIZE[size], dst, ctx_reg, off))
        else:
            return self._op_alu(st)
        st.set_tag(dst, RegTag(kind="scalar"))

    def _op_ctx_write(self, st: GenState) -> None:
        rng = self.rng
        ctx_reg = self._ctx_reg(st)
        if ctx_reg is None:
            return self._op_alu(st)
        descriptor = CONTEXTS[st.prog_type]
        fields = [f for f in descriptor.fields if f.writable]
        if not fields:
            return self._op_ctx_read(st)
        f = rng.pick(fields)
        st.emit(asm.st_mem(BYTES_TO_SIZE[f.size], ctx_reg, f.offset, rng.fuzz_imm32()))

    def _op_btf_read(self, st: GenState) -> None:
        rng = self.rng
        regs = st.regs_with("btf")
        regno = rng.pick(regs)
        size = st.tag(regno).btf_size or 8
        access = rng.pick(_SIZES)
        max_off = size - access
        if max_off < 0:
            return
        off = rng.randrange(0, max_off + 1, access)
        if rng.chance(self._p_unsafe):
            off = size  # deliberately at/past the end (Bug #2 probe)
        scratch = st.scratch_regs() or [Reg.R0]
        dst = rng.pick(scratch)
        st.emit(asm.ldx_mem(BYTES_TO_SIZE[access], dst, regno, off))
        st.set_tag(dst, RegTag(kind="scalar"))

    def _op_packet_probe(self, st: GenState) -> None:
        """The classic bounded direct-packet-access pattern."""
        rng = self.rng
        ctx_reg = self._ctx_reg(st)
        if ctx_reg is None:
            return self._op_alu(st)
        descriptor = CONTEXTS[st.prog_type]
        data_f = next((f for f in descriptor.fields if f.special == "pkt_data"), None)
        end_f = next((f for f in descriptor.fields if f.special == "pkt_end"), None)
        if data_f is None or end_f is None:
            return self._op_alu(st)
        scratch = st.scratch_regs()
        if len(scratch) < 3:
            return self._op_alu(st)
        rng.shuffle(scratch)
        r_data, r_end, r_tmp = scratch[:3]
        n = rng.pick((2, 4, 8, 14, 20, 34))
        st.emit(
            asm.ldx_mem(Size.W, r_data, ctx_reg, data_f.offset),
            asm.ldx_mem(Size.W, r_end, ctx_reg, end_f.offset),
            asm.mov64_reg(r_tmp, r_data),
            asm.alu64_imm(AluOp.ADD, r_tmp, n),
        )
        # Guarded accesses; the guard skips them when the packet is short.
        accesses = []
        for _ in range(rng.randint(1, 3)):
            size = rng.pick([s for s in _SIZES if s <= n])
            off = rng.randrange(0, n - size + 1)
            accesses.append(asm.ldx_mem(BYTES_TO_SIZE[size], r_tmp, r_data, off))
        guarded = rng.chance(1.0 - self._p_unsafe)
        if guarded:
            st.emit(asm.jmp_reg(JmpOp.JGT, r_tmp, r_end, len(accesses)))
        st.emit(*accesses)
        for r in (r_data, r_end, r_tmp):
            st.set_tag(r, RegTag(kind="poison"))

    # ------------------------------------------------------------- call frame --

    def _call_frame(self, st: GenState) -> None:
        rng = self.rng
        if (
            self.kernel.config.has_kfuncs
            and rng.chance(self.config.p_kfunc)
        ):
            return self._kfunc_call(st)
        if rng.chance(self.config.p_subprog):
            return self._subprog_call(st)
        ringbufs = [m for m in st.maps if m.map_type == MapType.RINGBUF]
        if ringbufs and rng.chance(0.15):
            return self._ringbuf_reserve_frame(st, rng.pick(ringbufs))
        locky = [m for m in st.maps if getattr(m, "has_spin_lock", False)]
        if locky and rng.chance(0.15):
            return self._spin_lock_frame(st, rng.pick(locky))
        prog_arrays = [m for m in st.maps if m.map_type == MapType.PROG_ARRAY]
        if prog_arrays and st.regs_with("ctx") and rng.chance(0.15):
            return self._tail_call_frame(st, rng.pick(prog_arrays))
        self._helper_call(st)

    def _tail_call_frame(self, st: GenState, prog_array: BpfMap) -> None:
        """``bpf_tail_call(ctx, prog_array, index)``.

        The slots are empty during fuzzing, so the call falls through at
        runtime — but the verifier still checks the full call site, and
        user space may populate slots between runs.
        """
        rng = self.rng
        ctx_reg = self._ctx_reg(st)
        st.emit(
            asm.mov64_reg(Reg.R1, ctx_reg),
            *asm.ld_map_fd(Reg.R2, prog_array.fd),
            asm.mov64_imm(Reg.R3, rng.randint(0, prog_array.max_entries)),
            asm.call_helper(int(HelperId.TAIL_CALL)),
        )
        st.clobber_caller_saved()
        st.set_tag(Reg.R0, RegTag(kind="scalar"))

    def _spin_lock_frame(self, st: GenState, bpf_map: BpfMap) -> None:
        """lookup -> null check -> lock -> update value -> unlock."""
        rng = self.rng
        self._emit_stack_region(st, Reg.R2, bpf_map.key_size, init=True)
        st.emit(*asm.ld_map_fd(Reg.R1, bpf_map.fd))
        st.emit(asm.call_helper(int(HelperId.MAP_LOOKUP_ELEM)))
        st.clobber_caller_saved()
        st.emit(
            asm.jmp_imm(JmpOp.JNE, Reg.R0, 0, 2),
            asm.mov64_imm(Reg.R0, 0),
            asm.exit_insn(),
        )
        forget_unlock = rng.chance(self._p_unsafe)
        st.emit(
            asm.mov64_reg(Reg.R6, Reg.R0),
            asm.mov64_reg(Reg.R1, Reg.R0),
            asm.call_helper(int(HelperId.SPIN_LOCK)),
        )
        # Critical section: plain stores past the lock region.
        for _ in range(rng.randint(1, 2)):
            size = rng.pick((4, 8))
            max_off = bpf_map.value_size - size
            if max_off < 8:
                break
            off = rng.randrange(8, max_off + 1, size)
            st.emit(asm.st_mem(BYTES_TO_SIZE[size], Reg.R6, off, rng.fuzz_imm32()))
        if not forget_unlock:
            st.emit(
                asm.mov64_reg(Reg.R1, Reg.R6),
                asm.call_helper(int(HelperId.SPIN_UNLOCK)),
            )
        st.clobber_caller_saved()
        st.set_tag(Reg.R6, RegTag(kind="map_value", map=bpf_map))

    def _ringbuf_reserve_frame(self, st: GenState, ringbuf: BpfMap) -> None:
        """reserve -> null check -> write record -> submit/discard.

        With probability ``p_unsafe`` the release is "forgotten" —
        probing the verifier's reference tracking (such programs are
        rejected by a correct verifier).
        """
        rng = self.rng
        size = rng.pick((8, 16, 32))
        st.emit(
            *asm.ld_map_fd(Reg.R1, ringbuf.fd),
            asm.mov64_imm(Reg.R2, size),
            asm.mov64_imm(Reg.R3, 0),
            asm.call_helper(int(HelperId.RINGBUF_RESERVE)),
        )
        st.clobber_caller_saved()
        leak = rng.chance(self._p_unsafe)
        record_ops = []
        for _ in range(rng.randint(1, 2)):
            access = rng.pick([s for s in _SIZES if s <= size])
            off = rng.randrange(0, size - access + 1, access)
            record_ops.append(
                asm.st_mem(BYTES_TO_SIZE[access], Reg.R0, off, rng.fuzz_imm32())
            )
        release = rng.pick(
            (int(HelperId.RINGBUF_SUBMIT), int(HelperId.RINGBUF_DISCARD))
        )
        tail = [] if leak else [
            asm.mov64_reg(Reg.R1, Reg.R0),
            asm.mov64_imm(Reg.R2, 0),
            asm.call_helper(release),
        ]
        body = record_ops + tail
        # Null path: nothing reserved, nothing to release.
        st.emit(asm.jmp_imm(JmpOp.JEQ, Reg.R0, 0, len(body)))
        st.emit(*body)
        st.clobber_caller_saved()

    def _candidate_helpers(self, st: GenState) -> list[HelperProto]:
        result = []
        for hid in self.kernel.helpers.ids_for_prog_type(st.prog_type.value):
            proto = self.kernel.helpers.get(hid)
            # Acquire/release and spin-lock helpers need their paired
            # protocol; they are emitted by the dedicated frames.
            if proto.acquires_ref or proto.releases_ref:
                continue
            if ArgType.PTR_TO_SPIN_LOCK in proto.args:
                continue
            map_class = _HELPER_MAP_CLASS.get(hid)
            if map_class is None and proto.map_types is not None:
                map_class = proto.map_types
            if map_class is not None and not any(
                m.map_type in map_class for m in st.maps
            ):
                continue
            if ArgType.PTR_TO_CTX in proto.args and not st.regs_with("ctx"):
                continue
            if ArgType.PTR_TO_BTF_ID in proto.args and not st.regs_with("btf"):
                continue
            result.append(proto)
        return result

    def _helper_call(self, st: GenState) -> None:
        rng = self.rng
        candidates = self._candidate_helpers(st)
        if not candidates:
            return self._basic_frame(st)
        # Weighting: map lookups/updates dominate real programs (and
        # exercise the verifier's nullable-pointer logic); in restricted
        # execution contexts (NMI-like program types), helpers with
        # context constraints get probed preferentially.
        def weight(p: HelperProto) -> float:
            if p.nmi_unsafe and st.prog_type == ProgType.PERF_EVENT:
                return 4.0
            if p.helper_id == HelperId.MAP_LOOKUP_ELEM:
                return 5.0
            if p.helper_id == HelperId.MAP_UPDATE_ELEM:
                return 2.0
            return 1.0

        proto = rng.pick_weighted(candidates, [weight(p) for p in candidates])
        meta_map = self._emit_args(st, proto)
        st.emit(asm.call_helper(int(proto.helper_id)))
        st.clobber_caller_saved()
        self._handle_return(st, proto, meta_map)

    def _emit_args(self, st: GenState, proto: HelperProto) -> BpfMap | None:
        rng = self.rng
        meta_map: BpfMap | None = None
        pending_region = 0
        map_class = _HELPER_MAP_CLASS.get(int(proto.helper_id))
        if map_class is None and proto.map_types is not None:
            map_class = proto.map_types
        for arg_idx, arg in enumerate(proto.args):
            regno = Reg.R1 + arg_idx
            if arg == ArgType.CONST_MAP_PTR:
                pool = [
                    m
                    for m in st.maps
                    if map_class is None or m.map_type in map_class
                ]
                meta_map = rng.pick(pool) if pool else rng.pick(st.maps)
                st.emit(*asm.ld_map_fd(regno, meta_map.fd))
            elif arg == ArgType.PTR_TO_MAP_KEY:
                size = meta_map.key_size if meta_map else 8
                self._emit_stack_region(st, regno, size, init=True,
                                        array_index=meta_map)
            elif arg == ArgType.PTR_TO_MAP_VALUE:
                size = meta_map.value_size if meta_map else 8
                self._emit_stack_region(st, regno, size, init=True)
            elif arg == ArgType.PTR_TO_UNINIT_MAP_VALUE:
                size = meta_map.value_size if meta_map else 8
                self._emit_stack_region(st, regno, size, init=False)
            elif arg == ArgType.PTR_TO_MEM:
                pending_region = rng.pick((8, 16, 32))
                self._emit_stack_region(st, regno, pending_region, init=True)
            elif arg == ArgType.PTR_TO_UNINIT_MEM:
                pending_region = rng.pick((8, 16, 32))
                self._emit_stack_region(st, regno, pending_region, init=False)
            elif arg in (ArgType.CONST_SIZE, ArgType.CONST_SIZE_OR_ZERO):
                size = pending_region or 8
                st.emit(asm.mov64_imm(regno, size))
            elif arg == ArgType.PTR_TO_CTX:
                ctx_reg = self._ctx_reg(st)
                st.emit(asm.mov64_reg(regno, ctx_reg))
            elif arg == ArgType.PTR_TO_BTF_ID:
                btf_regs = st.regs_with("btf")
                st.emit(asm.mov64_reg(regno, rng.pick(btf_regs)))
            elif arg == ArgType.SCALAR:
                st.emit(asm.mov64_imm(regno, rng.fuzz_imm32()))
            else:  # ANYTHING
                scalars = st.regs_with("scalar", "const")
                if scalars and rng.chance(0.35):
                    st.emit(asm.mov64_reg(regno, rng.pick(scalars)))
                elif rng.chance(0.4):
                    # Small positive values: valid signals, flags, sizes.
                    st.emit(asm.mov64_imm(regno, rng.randint(1, 32)))
                else:
                    st.emit(asm.mov64_imm(regno, rng.fuzz_imm32()))
        return meta_map

    def _emit_stack_region(
        self,
        st: GenState,
        regno: int,
        size: int,
        init: bool,
        array_index: BpfMap | None = None,
    ) -> None:
        """Point ``regno`` at a stack region, initialising it if asked."""
        rng = self.rng
        aligned = -(-size // 8) * 8
        off = self._alloc_stack(aligned)
        if init and rng.chance(self._p_unsafe):
            init = False  # "forget" the initialisation, probing the checks
        if init:
            if array_index is not None and array_index.key_size == 4:
                index = rng.randint(0, max(array_index.max_entries - 1, 0))
                if rng.chance(self._p_unsafe):
                    index = array_index.max_entries + rng.randint(0, 4)
                st.emit(asm.st_mem(Size.W, Reg.R10, off, index))
            else:
                for slot in range(0, aligned, 8):
                    st.emit(
                        asm.st_mem(Size.DW, Reg.R10, off + slot, rng.fuzz_imm32())
                    )
                    st.stack_inited.add(off + slot)
        st.emit(
            asm.mov64_reg(regno, Reg.R10),
            asm.alu64_imm(AluOp.ADD, regno, off),
        )

    def _handle_return(
        self, st: GenState, proto: HelperProto, meta_map: BpfMap | None
    ) -> None:
        rng = self.rng
        if proto.ret == RetType.PTR_TO_MAP_VALUE_OR_NULL:
            ptr_regs = [
                r
                for r in range(6, 10)
                if st.tag(r).kind in ("btf", "map_value", "stack")
            ]
            # Prefer BTF pointers: comparing a nullable pointer against
            # one is exactly the Listing-2 shape (Bug #1 fodder).
            ptr_regs.sort(key=lambda r: st.tag(r).kind != "btf")
            if rng.chance(0.1):
                # Pointer arithmetic *before* the null check — legal-
                # looking, but on pre-fix kernels (CVE-2022-23222) the
                # offset survives into the "non-null" branch.
                delta = rng.pick((1, 4, 8, 16))
                scratch = [r for r in st.scratch_regs() if r != 0] or [Reg.R5]
                dst = rng.pick(scratch)
                st.emit(
                    asm.alu64_imm(AluOp.ADD, Reg.R0, delta),
                    asm.jmp_imm(JmpOp.JNE, Reg.R0, 0, 2),
                    asm.mov64_imm(Reg.R0, 0),
                    asm.exit_insn(),
                    asm.ldx_mem(Size.DW, dst, Reg.R0, 0),
                )
                st.set_tag(dst, RegTag(kind="poison"))
                st.set_tag(Reg.R0, RegTag(kind="poison"))
            elif ptr_regs and rng.chance(self.config.p_ptr_compare_check):
                other = ptr_regs[0]
                scratch = [r for r in st.scratch_regs() if r != 0] or [Reg.R5]
                dst = rng.pick(scratch)
                st.emit(
                    asm.jmp_reg(JmpOp.JEQ, Reg.R0, other, 1),
                    asm.ja(1),
                    # equal path: "proven" non-null, dereference it
                    asm.ldx_mem(Size.DW, dst, Reg.R0, 0),
                )
                st.set_tag(dst, RegTag(kind="poison"))
                st.set_tag(Reg.R0, RegTag(kind="poison"))
            elif rng.chance(self._p_null_check):
                st.emit(
                    asm.jmp_imm(JmpOp.JNE, Reg.R0, 0, 2),
                    asm.mov64_imm(Reg.R0, 0),
                    asm.exit_insn(),
                )
                st.set_tag(Reg.R0, RegTag(kind="map_value", map=meta_map))
            else:
                st.set_tag(Reg.R0, RegTag(kind="map_value_or_null", map=meta_map))
                if rng.chance(0.5):
                    # Deliberately dereference without the null check —
                    # probing the verifier's nullness machinery.
                    scratch = [r for r in st.scratch_regs() if r != 0] or [Reg.R5]
                    dst = rng.pick(scratch)
                    st.emit(asm.ldx_mem(Size.DW, dst, Reg.R0, 0))
                    st.set_tag(dst, RegTag(kind="poison"))
        elif proto.ret == RetType.PTR_TO_BTF_ID:
            st.set_tag(Reg.R0, RegTag(kind="btf", btf_size=128))
        else:
            st.set_tag(Reg.R0, RegTag(kind="scalar"))

    def _kfunc_call(self, st: GenState) -> None:
        rng = self.rng
        options = [KFUNC_RAND, KFUNC_GET_TASK]
        if st.regs_with("btf"):
            options.append(KFUNC_TASK_PID)
        kfunc = rng.pick(options)

        # Bounded-scalar-in-R0-across-the-call pattern: a verifier that
        # keeps stale R0 knowledge (Bug #3) accepts the indexed access.
        map_values = st.regs_with("map_value")
        if (
            kfunc == KFUNC_RAND
            and map_values
            and rng.chance(self.config.p_kfunc_index)
        ):
            victim = rng.pick(map_values)
            vmap = st.tag(victim).map
            bound = min(max(vmap.value_size - 1, 0), 7)
            scratch = [
                r for r in st.scratch_regs() if r not in (victim, Reg.R0)
            ]
            if scratch:
                tmp = rng.pick(scratch)
                st.emit(
                    asm.mov64_imm(Reg.R0, rng.randint(0, bound)),
                    asm.call_kfunc(kfunc),
                    asm.mov64_reg(tmp, victim),
                    asm.alu64_reg(AluOp.ADD, tmp, Reg.R0),
                    asm.ldx_mem(Size.B, tmp, tmp, 0),
                )
                st.clobber_caller_saved()
                st.set_tag(tmp, RegTag(kind="poison"))
                return

        if kfunc == KFUNC_TASK_PID:
            st.emit(asm.mov64_reg(Reg.R1, rng.pick(st.regs_with("btf"))))
        st.emit(asm.call_kfunc(kfunc))
        st.clobber_caller_saved()
        if kfunc == KFUNC_GET_TASK:
            st.set_tag(Reg.R0, RegTag(kind="btf", btf_size=128))
        else:
            st.set_tag(Reg.R0, RegTag(kind="scalar"))

    def _subprog_call(self, st: GenState) -> None:
        rng = self.rng
        st.emit(asm.mov64_imm(Reg.R1, rng.fuzz_imm32()))
        body = [
            asm.mov64_reg(Reg.R0, Reg.R1),
            asm.alu64_imm(rng.pick((AluOp.ADD, AluOp.XOR, AluOp.MUL)),
                          Reg.R0, rng.fuzz_imm32()),
            asm.exit_insn(),
        ]
        call_idx = len(st.insns)
        st.emit(asm.call_subprog(0))  # patched at finalisation
        st.subprog_calls[call_idx] = len(st.subprogs)
        st.subprogs.append(body)
        st.clobber_caller_saved()
        st.set_tag(Reg.R0, RegTag(kind="scalar"))

    # -------------------------------------------------------------- jump frame --

    def _jump_frame(self, st: GenState, depth: int) -> None:
        rng = self.rng
        if rng.chance(self.config.p_back_edge):
            return self._back_edge_loop(st)

        cond_reg = self._pick_scalar_reg(st)
        op = rng.pick(_CMP_OPS)
        before = st.snapshot_tags()
        saved = st.insns
        st.insns = []
        n_inner = rng.randint(1, 2)
        for _ in range(n_inner):
            if depth < self.config.max_jump_depth and rng.chance(0.3):
                self._jump_frame(st, depth + 1)
            elif rng.chance(0.35):
                self._helper_call(st)
            else:
                self._basic_frame(st)
        body = st.insns
        st.insns = saved
        # Taken branch skips the body.
        if rng.chance(0.6):
            st.emit(asm.jmp_imm(op, cond_reg, rng.fuzz_imm32(), len(body)))
        else:
            rhs = self._pick_scalar_reg(st)
            st.emit(asm.jmp_reg(op, cond_reg, rhs, len(body)))
        st.emit(*body)
        st.merge_tags(before)

    def _back_edge_loop(self, st: GenState) -> None:
        rng = self.rng
        scratch = st.scratch_regs()
        if not scratch:
            return self._basic_frame(st)
        loop_var = rng.pick(scratch)
        st.emit(asm.mov64_imm(loop_var, 0))
        st.set_tag(loop_var, RegTag(kind="scalar"))
        before = st.snapshot_tags()
        saved = st.insns
        st.insns = []
        # A small body that leaves the loop variable alone.
        for _ in range(rng.randint(1, 3)):
            dst = self._pick_scalar_reg(st)
            if dst == loop_var:
                dst = Reg.R0 if loop_var != Reg.R0 else Reg.R5
                st.emit(asm.mov64_imm(dst, rng.fuzz_imm32()))
                st.set_tag(dst, RegTag(kind="scalar"))
            op = rng.pick((AluOp.ADD, AluOp.XOR, AluOp.AND, AluOp.OR))
            st.emit(asm.alu64_imm(op, dst, rng.fuzz_imm32()))
        body = st.insns
        st.insns = saved
        bound = rng.randint(1, self.config.max_loop_iters)
        st.emit(*body)
        st.emit(asm.alu64_imm(AluOp.ADD, loop_var, 1))
        # Back edge: offset is negative, operands are register+constant
        # with an immediate bound (the paper's unbounded-loop guard).
        back = -(len(body) + 2)
        st.emit(asm.jmp_imm(JmpOp.JLT, loop_var, bound, back))
        st.merge_tags(before)
        st.set_tag(loop_var, RegTag(kind="scalar"))

    # -------------------------------------------------------------- end / flat --

    def _end_section(self, st: GenState) -> None:
        st.emit(asm.mov64_imm(Reg.R0, self.rng.randint(0, 2)), asm.exit_insn())

    def _emit_subprogs(self, st: GenState) -> None:
        for call_idx, subprog_idx in st.subprog_calls.items():
            start = len(st.insns)
            st.insns.extend(st.subprogs[subprog_idx])
            st.insns[call_idx] = st.insns[call_idx].with_(
                imm=start - call_idx - 1
            )
        st.subprog_calls.clear()

    def _flat_body(self, st: GenState) -> None:
        """Ablation mode: same operation pool, no structure or tracking."""
        rng = self.rng
        st.set_tag(Reg.R1, RegTag(kind="ctx"))
        for _ in range(rng.randint(4, 24)):
            # Random tags are assigned blindly: no init header, no
            # ordering discipline — most programs are rejected.
            regno = rng.randrange(10)
            st.set_tag(regno, RegTag(kind=rng.pick(("scalar", "uninit"))))
            self._basic_op(st)
        self._end_section(st)

    # --------------------------------------------------------------------- misc --

    def _alloc_stack(self, size: int) -> int:
        """Carve a fresh (8-aligned) stack region, wrapping when full."""
        aligned = -(-size // 8) * 8
        self._stack_cursor -= aligned
        if self._stack_cursor < -448:
            self._stack_cursor = -8 - aligned
        return self._stack_cursor

    def _make_plan(self, st: GenState) -> ExecutionPlan:
        rng = self.rng
        plan = ExecutionPlan(n_runs=rng.randint(1, 2))
        if st.prog_type in (
            ProgType.KPROBE,
            ProgType.TRACEPOINT,
            ProgType.RAW_TRACEPOINT,
            ProgType.PERF_EVENT,
        ) and rng.chance(0.6):
            plan.attach_tracepoint = rng.pick(self.kernel.tracepoints.names())
        if st.prog_type == ProgType.XDP and rng.chance(0.6):
            plan.use_dispatcher = True
        for bpf_map in st.maps:
            if bpf_map.key_size and rng.chance(0.5):
                for _ in range(rng.randint(1, 4)):
                    key = bytes(
                        rng.getrandbits(8) for _ in range(bpf_map.key_size)
                    )
                    plan.map_ops.append((rng.pick(("update", "lookup")), key))
                if rng.chance(0.5):
                    plan.map_ops.append(("iterate", b""))
        plan.query_info = rng.chance(0.3)
        return plan
