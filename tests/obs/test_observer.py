"""The observer seam: install/restore, part routing, and nesting.

A campaign installs one observer per shard.  Two library paths install
a derived observer inside it — the rejection explainer (a level-2
flight recorder) and a verdict-cache miss (a metrics tee) — and each
must keep every other part of the campaign's observer recording, then
reinstate that observer exactly.
"""

from __future__ import annotations

import io
import json

from repro import obs
from repro.ebpf import asm
from repro.ebpf.opcodes import Reg
from repro.ebpf.program import BpfProgram, ProgType
from repro.fuzz.campaign import CampaignConfig, shard_observer
from repro.fuzz.verdict import VerdictCache
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.obs import (
    FlightRecorder,
    JsonlTraceRecorder,
    MetricsRegistry,
    Observer,
    VerifierProfiler,
)
from repro.obs.explain import explain_program


def _rejecting() -> BpfProgram:
    # R2 is read before it is written: EACCES, uninit-reg reason.
    return BpfProgram(
        insns=[asm.mov64_reg(Reg.R0, Reg.R2), asm.exit_insn()],
        prog_type=ProgType.KPROBE,
    )


def _trivial() -> BpfProgram:
    return BpfProgram(
        insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()],
        prog_type=ProgType.KPROBE,
    )


class TestInstall:
    def test_default_is_inert(self):
        ob = obs.current()
        assert ob.metrics is ob.trace is ob.flight is ob.profiler is None
        assert not (ob.tracing or ob.profiling or ob.verifier_hooks)

    def test_bare_registry_is_wrapped(self):
        registry = MetricsRegistry()
        before = obs.current()
        token = obs.install(registry)
        try:
            assert obs.current().metrics is registry
            obs.current().counter("x", 2)
        finally:
            obs.restore(token)
        assert obs.current() is before
        assert registry.snapshot()["counters"] == {"x": 2}

    def test_replace_swaps_one_part(self):
        registry = MetricsRegistry()
        profiler = VerifierProfiler()
        ob = Observer(metrics=registry, profiler=profiler)
        flight = FlightRecorder(level=1)
        derived = ob.replace(flight=flight)
        assert derived.metrics is registry
        assert derived.profiler is profiler
        assert derived.flight is flight and ob.flight is None
        assert derived.verifier_hooks and derived.flight_level == 1

    def test_prune_reaches_flight_and_profiler(self):
        flight = FlightRecorder(level=1)
        profiler = VerifierProfiler()
        ob = Observer(flight=flight, profiler=profiler)
        ob.verify_prune(3, "loop", "miss")
        assert flight.snapshot()[-1]["outcome"] == "miss"
        assert profiler.snapshot()["counts"]["ops"] == {"loop.miss": 1}


class TestNesting:
    def test_explain_inside_campaign_observer(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        campaign = shard_observer(CampaignConfig(
            trace_path=str(trace_path), profile=True,
            collect_coverage=False,
        ))
        token = obs.install(campaign)
        try:
            explanation = explain_program(
                Kernel(PROFILES["patched"]()), _rejecting()
            )
            assert obs.current() is campaign
        finally:
            obs.restore(token)
            campaign.close()
        assert explanation is not None
        # The explain swapped in its own flight recorder only: the
        # campaign's metrics, trace and profiler saw the verification.
        assert campaign.flight is None
        counters = campaign.metrics.snapshot()["counters"]
        assert counters["verifier.programs"] == 1
        assert counters["verifier.rejected"] == 1
        names = [json.loads(line)["name"]
                 for line in trace_path.read_text().splitlines()]
        assert "verifier.reject" in names
        nodes = campaign.profiler.snapshot()["counts"]["nodes"]
        assert nodes["do_check"] == 1

    def test_verdict_cache_miss_keeps_flight_and_profiler(self):
        registry = MetricsRegistry()
        flight = FlightRecorder(level=1)
        profiler = VerifierProfiler()
        stream = io.StringIO()
        ob = Observer(metrics=registry, trace=JsonlTraceRecorder(stream),
                      flight=flight, profiler=profiler)
        token = obs.install(ob)
        try:
            VerdictCache().load(
                Kernel(PROFILES["patched"]()), _trivial(), sanitize=True,
                coverage=None, map_specs=(), kinds=frozenset(),
            )
            assert obs.current() is ob
        finally:
            obs.restore(token)
        # The miss tee swapped the metrics part only.
        counters = registry.snapshot()["counters"]
        assert counters["cache.verdict.misses"] == 1
        assert counters["verifier.accepted"] == 1
        kinds = [event["kind"] for event in flight.snapshot()]
        assert kinds[0] == "begin" and kinds[-1] == "verdict"
        assert "step" in kinds
        counts = profiler.snapshot()["counts"]
        assert counts["nodes"]["do_check"] == 1
        assert counts["alu_ops"] == {"MOV64": 1}
        assert "verifier.verify" in stream.getvalue()
