"""Exploration-environment tests: state subsumption and pruning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.verifier.env import (
    LOOP_CAP,
    PRUNE_CAP,
    FuncFrame,
    VerifierEnv,
    VerifierState,
    pin_signature,
    state_shape,
    states_equal,
)
from repro.verifier.log import VerifierLog
from repro.verifier.state import RegState, RegType
from repro.verifier.tnum import tnum_range


def fresh_state() -> VerifierState:
    return VerifierState(
        frames=[FuncFrame.entry(RegState.pointer(RegType.PTR_TO_CTX))]
    )


class TestStatesEqual:
    def test_identical_states(self):
        assert states_equal(fresh_state(), fresh_state())

    def test_not_init_subsumes_anything(self):
        old, new = fresh_state(), fresh_state()
        new.regs[3] = RegState.const_scalar(5)
        assert states_equal(old, new)

    def test_wider_scalar_subsumes_narrower(self):
        old, new = fresh_state(), fresh_state()
        old.regs[2] = RegState.unknown_scalar()
        new.regs[2] = RegState.const_scalar(5)
        assert states_equal(old, new)
        assert not states_equal(new, old)

    def test_pointer_type_must_match(self):
        old, new = fresh_state(), fresh_state()
        old.regs[2] = RegState.pointer(RegType.PTR_TO_STACK)
        new.regs[2] = RegState.pointer(RegType.PTR_TO_CTX)
        assert not states_equal(old, new)

    def test_pointer_offset_must_match(self):
        old, new = fresh_state(), fresh_state()
        old.regs[2] = RegState.pointer(RegType.PTR_TO_STACK)
        old.regs[2].off = -8
        new.regs[2] = RegState.pointer(RegType.PTR_TO_STACK)
        new.regs[2].off = -16
        assert not states_equal(old, new)

    def test_packet_range_direction(self):
        old, new = fresh_state(), fresh_state()
        old.regs[2] = RegState.pointer(RegType.PTR_TO_PACKET)
        old.regs[2].pkt_range = 8
        new.regs[2] = RegState.pointer(RegType.PTR_TO_PACKET)
        new.regs[2].pkt_range = 16
        # More verified range satisfies less; not vice versa.
        assert states_equal(old, new)
        assert not states_equal(new, old)

    def test_stack_constraints_checked(self):
        old, new = fresh_state(), fresh_state()
        old.stack.write_misc(-8, 8)
        # New state never wrote that slot: old's knowledge is missing.
        assert not states_equal(old, new)
        new.stack.write_misc(-8, 8)
        assert states_equal(old, new)

    def test_spill_subsumption(self):
        old, new = fresh_state(), fresh_state()
        old.stack.write_reg(-8, RegState.unknown_scalar())
        new.stack.write_reg(-8, RegState.const_scalar(3))
        assert states_equal(old, new)

    def test_refs_count_must_match(self):
        old, new = fresh_state(), fresh_state()
        new.refs[5] = 10
        assert not states_equal(old, new)

    def test_lock_state_must_match(self):
        old, new = fresh_state(), fresh_state()
        new.active_lock = (1, 2)
        assert not states_equal(old, new)

    def test_frame_count_must_match(self):
        old, new = fresh_state(), fresh_state()
        new.frames.append(FuncFrame.entry(RegState.not_init(), frameno=1,
                                          callsite=3))
        assert not states_equal(old, new)


class TestEnv:
    def _env(self):
        return VerifierEnv(VerifierLog(), complexity_limit=1000)

    def test_push_pop(self):
        env = self._env()
        assert env.pop_state() is None
        state = fresh_state()
        env.push_state(state)
        assert env.pop_state() is state
        assert env.pop_state() is None

    def test_is_visited_prunes_duplicates(self):
        env = self._env()
        first = fresh_state()
        assert not env.is_visited(first)
        second = fresh_state()
        assert env.is_visited(second)
        assert env.states_pruned == 1

    def test_different_indices_tracked_separately(self):
        env = self._env()
        a = fresh_state()
        b = fresh_state()
        b.insn_idx = 7
        assert not env.is_visited(a)
        assert not env.is_visited(b)

    def test_id_allocator_monotonic(self):
        env = self._env()
        ids = [env.new_id() for _ in range(10)]
        assert ids == sorted(set(ids))

    def test_clone_isolates_states(self):
        state = fresh_state()
        state.refs[1] = 2
        copy = state.clone()
        copy.regs[0] = RegState.const_scalar(1)
        copy.refs[3] = 4
        assert state.regs[0].type == RegType.NOT_INIT
        assert 3 not in state.refs


def const_state(value: int) -> VerifierState:
    """Distinct constants never subsume each other."""
    state = fresh_state()
    state.regs[2] = RegState.const_scalar(value)
    return state


def stored_consts(env: VerifierEnv, index_attr: str) -> list[int]:
    return [e.state.regs[2].const_value() for e in getattr(env, index_attr)[0]]


@pytest.mark.parametrize(
    "method, index_attr, cap",
    [("is_visited", "explored", PRUNE_CAP),
     ("loop_header_seen", "loop_explored", LOOP_CAP)],
)
class TestExploredLru:
    def _env(self):
        return VerifierEnv(VerifierLog(), complexity_limit=1000)

    def test_overflow_evicts_oldest(self, method, index_attr, cap):
        env = self._env()
        seen = getattr(env, method)
        for value in range(cap):
            assert not seen(const_state(value))
        assert env.prune_evictions == 0
        assert not seen(const_state(cap))
        assert env.prune_evictions == 1
        assert stored_consts(env, index_attr) == list(range(1, cap + 1))
        assert not seen(const_state(0))  # forgotten, so new again
        assert env.prune_misses == cap + 2
        # Distinct constants never pass the pin-signature filter.
        assert env.prune_compares == 0

    def test_hit_freshens_entry(self, method, index_attr, cap):
        env = self._env()
        seen = getattr(env, method)
        for value in range(cap):
            seen(const_state(value))
        assert seen(const_state(0))
        assert stored_consts(env, index_attr)[-1] == 0
        # The next insertion evicts 1, the least recently useful.
        assert not seen(const_state(cap))
        assert 0 in stored_consts(env, index_attr)
        assert 1 not in stored_consts(env, index_attr)
        assert seen(const_state(0))
        assert env.prune_scan_hits == 2
        assert env.prune_compares == 2

    def test_wider_prunes_narrower_only(self, method, index_attr, cap):
        wide = fresh_state()
        wide.regs[2] = RegState.unknown_scalar()
        env = self._env()
        seen = getattr(env, method)
        assert not seen(wide)
        assert seen(const_state(5))

        env = self._env()
        seen = getattr(env, method)
        assert not seen(const_state(5))
        assert not seen(wide.clone())
        assert len(getattr(env, index_attr)[0]) == 2


# --- pin-signature filter -------------------------------------------------
#
# States are drawn as plain specs from a small alphabet, so that pairs
# often subsume each other: a register is NOT_INIT, a constant, a
# ranged scalar or a pointer with an offset; a stack slot is unwritten,
# a spill of such a register, or a (partial) MISC/ZERO store.

_REG = st.one_of(
    st.just(("not_init",)),
    st.tuples(st.just("const"), st.integers(0, 2)),
    st.tuples(st.just("range"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(
        st.just("ptr"),
        st.sampled_from(
            [RegType.PTR_TO_STACK, RegType.PTR_TO_MAP_VALUE, RegType.PTR_TO_CTX]
        ),
        st.sampled_from([0, 8]),
    ),
)
_SLOT = st.one_of(
    st.none(),
    st.tuples(st.just("spill"), _REG),
    st.tuples(st.sampled_from(["misc", "zero"]), st.sampled_from([4, 8])),
)
_FRAME = st.tuples(
    st.sampled_from([-1, 3]),
    st.tuples(_REG, _REG, _REG, _REG),
    st.tuples(_SLOT, _SLOT),
)
_STATE = st.tuples(
    st.lists(_FRAME, min_size=1, max_size=2).map(tuple),
    st.integers(0, 1),
    st.booleans(),
)


def _keep_or(draw, value, fresh):
    return draw(st.one_of(st.just(value), fresh))


@st.composite
def _state_pairs(draw):
    """An old spec and a new one that shares some of its parts."""
    old = draw(_STATE)
    frames, refs, locked = old
    if draw(st.booleans()):
        frames = tuple(
            (
                _keep_or(draw, callsite, _FRAME.map(lambda f: f[0])),
                tuple(_keep_or(draw, reg, _REG) for reg in regs),
                tuple(_keep_or(draw, slot, _SLOT) for slot in slots),
            )
            for callsite, regs, slots in frames
        )
    else:
        frames = draw(_STATE)[0]
    new = (frames, _keep_or(draw, refs, st.integers(0, 1)),
           _keep_or(draw, locked, st.booleans()))
    return old, new


def _build_reg(spec) -> RegState:
    kind = spec[0]
    if kind == "not_init":
        return RegState.not_init()
    if kind == "const":
        return RegState.const_scalar(spec[1])
    if kind == "range":
        lo, hi = sorted(spec[1:])
        return RegState(type=RegType.SCALAR, var_off=tnum_range(lo, hi),
                        umin=lo, umax=hi, smin=lo, smax=hi)
    reg = RegState.pointer(spec[1])
    reg.off = spec[2]
    return reg


def _build_state(spec) -> VerifierState:
    frames, refs, locked = spec
    state = VerifierState(frames=[])
    for frameno, (callsite, regs, slots) in enumerate(frames):
        frame = FuncFrame.entry(RegState.pointer(RegType.PTR_TO_CTX),
                                frameno=frameno, callsite=callsite)
        for index, reg in enumerate(regs):
            frame.regs[index] = _build_reg(reg)
        for index, slot in enumerate(slots):
            off = -8 * (index + 1)
            if slot is None:
                continue
            if slot[0] == "spill":
                frame.stack.write_reg(off, _build_reg(slot[1]))
            else:
                frame.stack.write_misc(off, slot[1], zero=slot[0] == "zero")
        state.frames.append(frame)
    state.refs = {1: 0} if refs else {}
    state.active_lock = (1, 1) if locked else None
    return state


@settings(max_examples=400, deadline=None)
@given(_state_pairs())
def test_pin_filter_never_drops_a_true_prune(pair):
    old, new = (_build_state(spec) for spec in pair)
    subsumed = states_equal(old, new)
    width, getter, values = pin_signature(old)
    shape = state_shape(new)
    passes = width == len(shape) and getter(shape) == values
    assert passes or not subsumed

    # The same outcome through the explored list, which compares a
    # stored copy exactly when the filter lets it through.
    env = VerifierEnv(VerifierLog(), complexity_limit=1000)
    assert not env.is_visited(old)
    assert env.is_visited(new) == subsumed
    assert env.prune_compares == int(passes)
    # A copy-on-write clone shares the stored state's slots.
    assert env.is_visited(old.clone())
