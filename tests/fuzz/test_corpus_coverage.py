"""Corpus management and coverage-tracer tests."""

from __future__ import annotations

import sys

import pytest

from repro.errors import BpfError, VerifierReject
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.ebpf import asm
from repro.ebpf.maps import MapType
from repro.ebpf.opcodes import Reg
from repro.ebpf.program import BpfProgram, ProgType
from repro.fuzz import coverage as coverage_mod
from repro.fuzz.campaign import make_generator
from repro.fuzz.corpus import Corpus, MapSpec, specs_of
from repro.fuzz.coverage import CoverageReentryError, VerifierCoverage
from repro.fuzz.rng import FuzzRng
from repro.verifier.tnum import tnum_memo_clear
from repro.fuzz.structure import ExecutionPlan, GeneratedProgram


def dummy_gp(kernel=None, n_maps=1):
    kernel = kernel or Kernel(PROFILES["patched"]())
    maps = []
    for _ in range(n_maps):
        fd = kernel.map_create(MapType.HASH, 8, 8, 4)
        maps.append(kernel.map_by_fd(fd))
    return GeneratedProgram(
        insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()],
        prog_type=ProgType.KPROBE,
        maps=maps,
        plan=ExecutionPlan(),
    )


class TestCorpus:
    def test_add_and_pick(self):
        corpus = Corpus()
        corpus.add(dummy_gp(), new_edges=5)
        assert len(corpus) == 1
        entry = corpus.pick(FuzzRng(0))
        assert entry.prog_type == ProgType.KPROBE
        assert entry.map_specs[0].map_type == MapType.HASH

    def test_capacity_eviction_prefers_contributors(self):
        corpus = Corpus(capacity=2)
        corpus.add(dummy_gp(), new_edges=1)
        corpus.add(dummy_gp(), new_edges=10)
        corpus.add(dummy_gp(), new_edges=5)
        assert len(corpus) == 2
        assert sorted(e.new_edges for e in corpus.entries) == [5, 10]

    def test_weak_entry_not_inserted(self):
        corpus = Corpus(capacity=1)
        corpus.add(dummy_gp(), new_edges=10)
        corpus.add(dummy_gp(), new_edges=1)
        assert corpus.entries[0].new_edges == 10

    def test_specs_of(self):
        gp = dummy_gp(n_maps=2)
        specs = specs_of(gp)
        assert specs == (MapSpec(MapType.HASH, 8, 8, 4),) * 2


@pytest.fixture
def make_coverage(monkeypatch):
    """Build a :class:`VerifierCoverage` on the named tracer."""

    def build(tracer: str) -> VerifierCoverage:
        if tracer == "ctrace":
            if not coverage_mod._load_ctrace():
                pytest.skip("C tracer extension unavailable")
            return VerifierCoverage()
        with monkeypatch.context() as patch:
            patch.setattr(coverage_mod, "_load_ctrace", lambda: None)
            return VerifierCoverage()

    return build


TRACERS = ("ctrace", "settrace")

#: Python-level calls into code outside the four traced verifier
#: modules while the parity batch loads.  On 3.11 a coverage tracer
#: makes each one a traced frame (~0.3-0.5 us against ~0.06 us
#: untraced), so a helper call on a per-instruction path shows up here
#: long before it shows up in a benchmark.  The count is deterministic
#: (the tnum memo is cleared first).  If a change raises it on purpose,
#: rerun ``pytest tests/fuzz/test_corpus_coverage.py -k call_budget``,
#: copy the count from the failure message here, and say why in the
#: commit; lower it when a change cuts calls.  (Before the opcode
#: tables and the inlined register/bounds helpers, this batch made
#: 29,272 calls.)
OUT_OF_SCOPE_CALL_BUDGET = 6065


@pytest.fixture(scope="module")
def parity_programs() -> list[BpfProgram]:
    """60 generated ``bvf`` programs (``FuzzRng(0)``, bpf-next)."""
    generator = make_generator("bvf", None, FuzzRng(0))
    programs = []
    for i in range(60):
        gp = generator.generate(Kernel(PROFILES["bpf-next"]()))
        programs.append(BpfProgram(
            insns=list(gp.insns), prog_type=gp.prog_type,
            name=f"parity_{i}", offload_dev=gp.offload_dev,
        ))
    return programs


def _load_quietly(kernel: Kernel, prog: BpfProgram) -> None:
    try:
        kernel.prog_load(prog, sanitize=True)
    except (VerifierReject, BpfError):
        pass


class TestCoverage:
    def _verify_once(self, cov, insns=None):
        kernel = Kernel(PROFILES["patched"]())
        prog = BpfProgram(
            insns=insns or [asm.mov64_imm(Reg.R0, 0), asm.exit_insn()]
        )
        with cov.collect():
            kernel.prog_load(prog)

    def test_collect_records_edges(self):
        cov = VerifierCoverage()
        self._verify_once(cov)
        assert cov.edge_count > 0
        assert cov.last_new == cov.edge_count

    def test_repeat_contributes_nothing(self):
        cov = VerifierCoverage()
        self._verify_once(cov)
        first = cov.edge_count
        self._verify_once(cov)
        assert cov.edge_count == first
        assert cov.last_new == 0

    def test_new_behaviour_adds_edges(self):
        cov = VerifierCoverage()
        self._verify_once(cov)
        first = cov.edge_count
        self._verify_once(
            cov,
            insns=[
                asm.st_mem(asm.Size.DW, Reg.R10, -8, 1),
                asm.ldx_mem(asm.Size.DW, Reg.R0, Reg.R10, -8),
                asm.exit_insn(),
            ],
        )
        assert cov.edge_count > first
        assert cov.last_new > 0

    def test_tracing_scoped_to_verifier(self):
        cov = VerifierCoverage()
        with cov.collect():
            sum(range(1000))  # non-verifier code
        assert cov.edge_count == 0

    def test_nested_collect_raises(self):
        """Re-entry would clobber the active window; it must fail loudly."""
        cov = VerifierCoverage()
        with cov.collect():
            with pytest.raises(CoverageReentryError):
                with cov.collect():
                    pass  # pragma: no cover

    def test_collect_usable_after_reentry_error(self):
        cov = VerifierCoverage()
        with cov.collect():
            with pytest.raises(CoverageReentryError):
                cov.collect().__enter__()
        self._verify_once(cov)
        assert cov.edge_count > 0

    def test_falls_back_to_settrace_without_ctrace(self, monkeypatch):
        monkeypatch.setattr(coverage_mod, "_load_ctrace", lambda: None)
        cov = VerifierCoverage()
        assert cov.backend_name == "settrace"
        self._verify_once(cov)
        assert cov.edge_count > 0
        assert cov.last_new == cov.edge_count

    def test_ctrace_settrace_parity(self, make_coverage, parity_programs):
        """The C tracer reports bit-identical edges to settrace in every
        window: ``last_new`` and the corpus read windows, not only the
        cumulative set."""
        fast = make_coverage("ctrace")
        slow = make_coverage("settrace")
        assert (fast.backend_name, slow.backend_name) == TRACERS
        windows = {}
        for cov in (fast, slow):
            windows[cov] = []
            for prog in parity_programs:
                kernel = Kernel(PROFILES["bpf-next"]())
                with cov.collect() as window:
                    _load_quietly(kernel, prog)
                windows[cov].append((frozenset(window), cov.last_new))
        assert fast.edge_count > 500
        assert windows[fast] == windows[slow]
        assert fast.snapshot_edges() == slow.snapshot_edges()

    def test_rescope_reclassifies_cached_code(self, make_coverage,
                                              monkeypatch):
        """ctrace caches each code object's classification in its
        ``co_extra`` slot; a window with other basenames must
        reclassify code already cached under the old scope."""
        insns = [
            asm.st_mem(asm.Size.DW, Reg.R10, -8, 1),
            asm.ldx_mem(asm.Size.DW, Reg.R0, Reg.R10, -8),
            asm.exit_insn(),
        ]
        decision = make_coverage("ctrace")
        self._verify_once(decision, insns)
        monkeypatch.setattr(coverage_mod, "_SCOPE_BASENAMES",
                            frozenset({"state.py"}))
        fast = make_coverage("ctrace")
        slow = make_coverage("settrace")
        for cov in (fast, slow):
            self._verify_once(cov, insns)
        assert fast.edge_count > 0
        assert fast.snapshot_edges() == slow.snapshot_edges()
        assert not fast.edges & decision.edges
        monkeypatch.undo()
        again = make_coverage("ctrace")
        self._verify_once(again, insns)
        assert again.snapshot_edges() == decision.snapshot_edges()

    def test_out_of_scope_call_budget(self, parity_programs):
        """Verifying the parity batch makes at most
        :data:`OUT_OF_SCOPE_CALL_BUDGET` calls outside the traced
        modules (counted with a profile hook, which sees the same call
        events as the coverage tracer)."""
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and not coverage_mod._in_scope(
                    frame.f_code.co_filename):
                calls += 1

        tnum_memo_clear()  # a memo miss calls into tnum.py
        cov = VerifierCoverage()
        for prog in parity_programs:
            kernel = Kernel(PROFILES["bpf-next"]())
            with cov.collect():
                sys.setprofile(count)
                try:
                    kernel.prog_load(prog, sanitize=True)
                except (VerifierReject, BpfError):
                    pass
                finally:
                    sys.setprofile(None)
        assert calls <= OUT_OF_SCOPE_CALL_BUDGET, (
            f"{calls} out-of-scope calls; the committed budget is "
            f"{OUT_OF_SCOPE_CALL_BUDGET}"
        )

    @pytest.mark.parametrize("tracer", TRACERS)
    def test_window_restores_outer_trace(self, make_coverage, tracer):
        """A debugger's or coverage tool's tracer survives a window."""
        cov = make_coverage(tracer)

        def outer(frame, event, arg):
            return None

        saved = sys.gettrace()
        sys.settrace(outer)
        try:
            self._verify_once(cov)
            restored = sys.gettrace()
        finally:
            sys.settrace(saved)
        assert restored is outer
        assert cov.edge_count > 0

    @pytest.mark.parametrize("tracer", TRACERS)
    def test_window_on_second_instance_raises(self, make_coverage, tracer):
        """The tracer is process-wide: a second instance's window is a
        re-entry, and it leaves that instance usable afterwards."""
        outer = make_coverage(tracer)
        inner = make_coverage(tracer)
        with outer.collect():
            with pytest.raises(CoverageReentryError):
                with inner.collect():
                    pass  # pragma: no cover
        self._verify_once(inner)
        assert inner.edge_count > 0
        assert inner.last_new == inner.edge_count

    def test_replay_marks_new_edges(self):
        cov = VerifierCoverage()
        self._verify_once(cov)
        window = cov.snapshot_edges()
        fresh = VerifierCoverage()
        fresh.replay(window)
        assert fresh.last_new == len(window)
        assert fresh.snapshot_edges() == window
        fresh.replay(window)  # replaying the same window adds nothing
        assert fresh.last_new == 0

    def test_snapshot_edges_is_picklable_copy(self):
        import pickle

        cov = VerifierCoverage()
        self._verify_once(cov)
        snap = cov.snapshot_edges()
        assert snap == frozenset(cov.edges)
        assert pickle.loads(pickle.dumps(snap)) == snap
        self._verify_once(
            cov,
            insns=[
                asm.st_mem(asm.Size.DW, Reg.R10, -8, 1),
                asm.ldx_mem(asm.Size.DW, Reg.R0, Reg.R10, -8),
                asm.exit_insn(),
            ],
        )
        assert snap < cov.snapshot_edges()  # snapshot didn't alias

    def test_edge_keys_stable_across_processes(self):
        """Same verification in a child process yields the same edges.

        This is what makes unioning shard edge sets in the parallel
        campaign meaningful: keys must not depend on per-process hash
        salting or allocation order.
        """
        import multiprocessing

        cov = VerifierCoverage()
        self._verify_once(cov)
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        with ctx.Pool(1) as pool:
            child = pool.apply(_collect_edges_in_child)
        assert child == cov.snapshot_edges()


def _collect_edges_in_child():
    kernel = Kernel(PROFILES["patched"]())
    cov = VerifierCoverage()
    with cov.collect():
        kernel.prog_load(
            BpfProgram(insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()])
        )
    return cov.snapshot_edges()
