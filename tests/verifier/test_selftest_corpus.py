"""The big verifier integration test: the whole self-test corpus.

Every program in the corpus must produce exactly its annotated verdict
on a fully-fixed kernel, and every *accepted* program must execute
without raising any kernel report — raw or sanitized — proving the
oracle produces no false positives on correct kernels.
"""

from __future__ import annotations

import pytest

from repro.errors import BpfError, VerifierReject
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.runtime.executor import Executor
from repro.testsuite import all_selftests_extended
from repro.verifier.env import VerifierEnv, states_equal
from repro.verifier.stack import SlotType

_TESTS = all_selftests_extended()


def _ids():
    return [t.name for t in _TESTS]


@pytest.mark.parametrize("selftest", _TESTS, ids=_ids())
def test_verdict_matches(selftest):
    kernel = Kernel(PROFILES["patched"]())
    prog = selftest.build(kernel)
    try:
        kernel.prog_load(prog)
        verdict = "accept"
    except (VerifierReject, BpfError):
        verdict = "reject"
    assert verdict == selftest.expect


@pytest.mark.parametrize(
    "selftest",
    [t for t in _TESTS if t.expect == "accept"],
    ids=[t.name for t in _TESTS if t.expect == "accept"],
)
def test_accepted_programs_run_clean(selftest):
    """Raw execution of accepted programs never crashes the kernel,
    and semantic self-tests compute their pinned result."""
    kernel = Kernel(PROFILES["patched"]())
    prog = selftest.build(kernel)
    verified = kernel.prog_load(prog)
    result = Executor(kernel).run(verified)
    assert result.report is None, f"unexpected report: {result.report}"
    if selftest.expected_r0 is not None:
        assert result.r0 == selftest.expected_r0, (
            f"{selftest.name}: R0={result.r0:#x}, "
            f"expected {selftest.expected_r0:#x}"
        )


@pytest.mark.parametrize(
    "selftest",
    [t for t in _TESTS if t.expect == "accept" and t.has_memory_access],
    ids=[t.name for t in _TESTS if t.expect == "accept" and t.has_memory_access],
)
def test_sanitized_programs_run_clean(selftest):
    """Sanitation must not introduce false positives (Section 6.5)."""
    kernel = Kernel(PROFILES["patched"]())
    prog = selftest.build(kernel)
    verified = kernel.prog_load(prog, sanitize=True)
    assert verified.sanitized
    result = Executor(kernel).run(verified)
    assert result.report is None, f"sanitizer false positive: {result.report}"


@pytest.mark.parametrize(
    "selftest",
    [t for t in _TESTS if t.expect == "accept" and t.has_memory_access],
    ids=[t.name for t in _TESTS if t.expect == "accept" and t.has_memory_access],
)
def test_sanitized_and_raw_agree(selftest):
    """Instrumentation must not change program semantics (R0)."""
    kernel_raw = Kernel(PROFILES["patched"]())
    raw = kernel_raw.prog_load(selftest.build(kernel_raw))
    kernel_san = Kernel(PROFILES["patched"]())
    san = kernel_san.prog_load(selftest.build(kernel_san), sanitize=True)
    r_raw = Executor(kernel_raw).run(raw)
    r_san = Executor(kernel_san).run(san)
    assert r_raw.r0 == r_san.r0


def _verify_corpus_storing(monkeypatch, check):
    """Verify the corpus, calling ``check(snapshot, state)`` each time
    the explored list stores a snapshot of ``state``; returns the
    snapshots."""
    original = VerifierEnv._seen
    stored = []

    def checked_seen(self, index, state, cap):
        hit = original(self, index, state, cap)
        if not hit:
            snapshot = index[state.insn_idx][-1].state
            check(snapshot, state)
            stored.append(snapshot)
        return hit

    monkeypatch.setattr(VerifierEnv, "_seen", checked_seen)
    for selftest in _TESTS:
        kernel = Kernel(PROFILES["patched"]())
        try:
            kernel.prog_load(selftest.build(kernel))
        except (VerifierReject, BpfError):
            pass
    return stored


def test_stored_states_subsume_themselves(monkeypatch):
    """Subsumption is reflexive over every state the verifier stores.

    The explored-set scan relies on it to prune an exact repeat: the
    stored snapshot must subsume both itself and the state it copies.
    """

    def check(snapshot, state):
        assert states_equal(snapshot, snapshot)
        assert states_equal(snapshot, state)
        # Both share their stack slots with the snapshot, which
        # ``_stack_subsumed`` skips; a deep stack copy compares them.
        unshared = snapshot.clone()
        for frame in unshared.frames:
            frame.stack = frame.stack.clone()
        assert states_equal(snapshot, unshared)

    assert _verify_corpus_storing(monkeypatch, check)


def test_stored_spill_bytes_keep_their_register(monkeypatch):
    """Every stored slot with SPILL bytes has ``spilled`` set.

    ``stacksafe`` fails a SPILL byte without a spilled register, so
    this is what makes slot subsumption reflexive, which the
    copy-on-write shortcuts in ``_stack_subsumed`` rely on.
    """
    spill_slots = 0

    def check(snapshot, state):
        nonlocal spill_slots
        for frame in snapshot.frames:
            for _, slot in frame.stack.iter_slots():
                if SlotType.SPILL in slot.bytes:
                    assert slot.spilled is not None
                    spill_slots += 1

    assert _verify_corpus_storing(monkeypatch, check)
    assert spill_slots
