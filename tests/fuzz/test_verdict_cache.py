"""Verdict-cache transparency: cached and uncached runs are identical.

The frame-level verdict cache (:mod:`repro.fuzz.verdict`) may change
only its own ``cache.verdict.*`` telemetry.  Everything else — the
verdict sequence, rejection errnos and taxonomy codes, bug findings,
coverage accumulation, corpus growth, and the stripped metrics
snapshot — must be bit-identical to a run with the cache disabled.
Hypothesis drives the campaign-level identity over random seeds; the
unit tests pin the per-load reuse mechanics.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.errors import VerifierReject
from repro.ebpf import asm
from repro.ebpf.opcodes import Reg
from repro.ebpf.program import BpfProgram, ProgType
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.coverage import VerifierCoverage
from repro.fuzz.verdict import VerdictCache
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.obs.metrics import MetricsRegistry, strip_wall_fields


def _kernel() -> Kernel:
    return Kernel(PROFILES["patched"]())


def _trivial() -> BpfProgram:
    return BpfProgram(
        insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()],
        prog_type=ProgType.KPROBE,
    )


def _rejecting() -> BpfProgram:
    # R2 is read before it is written: EACCES, uninit-reg reason.
    return BpfProgram(
        insns=[asm.mov64_reg(Reg.R0, Reg.R2), asm.exit_insn()],
        prog_type=ProgType.KPROBE,
    )


def _load_twice(cache: VerdictCache, prog_factory, coverage=None):
    """Load the same program through the cache from two fresh kernels."""
    outcomes = []
    for _ in range(2):
        try:
            outcomes.append(cache.load(
                _kernel(), prog_factory(), sanitize=True,
                coverage=coverage, map_specs=(), kinds=frozenset(("basic",)),
            ))
        except VerifierReject as reject:
            outcomes.append(reject)
    return outcomes


class TestVerdictCacheUnit:
    def test_accept_hit_reuses_do_check(self):
        cache = VerdictCache()
        registry = MetricsRegistry()
        token = obs.install(registry)
        try:
            first, second = _load_twice(cache, _trivial)
        finally:
            obs.restore(token)
        counters = registry.snapshot()["counters"]
        assert counters["cache.verdict.misses"] == 1
        assert counters["cache.verdict.hits"] == 1
        assert counters["cache.verdict.hits.basic"] == 1
        # The replayed program is bit-identical to the analysed one.
        assert [i.encode() for i in second.xlated] == [
            i.encode() for i in first.xlated
        ]
        assert second.stats == first.stats
        assert second.probe_mem == first.probe_mem
        assert second.alu_limits == first.alu_limits
        assert second.stack_depth == first.stack_depth
        # ...but bound to its own kernel, not the recorded one.
        assert second is not first

    def test_reject_hit_replays_verdict_and_log(self):
        cache = VerdictCache()
        first, second = _load_twice(cache, _rejecting)
        assert isinstance(first, VerifierReject)
        assert isinstance(second, VerifierReject)
        assert second is not first
        assert second.errno == first.errno
        assert second.message == first.message
        assert second.log == first.log

    def test_reject_hit_replays_metrics(self):
        cache = VerdictCache()
        registry = MetricsRegistry()
        token = obs.install(registry)
        try:
            _load_twice(cache, _rejecting)
        finally:
            obs.restore(token)
        snap = registry.snapshot()
        assert snap["counters"]["verifier.programs"] == 2
        assert snap["counters"]["verifier.rejected"] == 2
        assert snap["histograms"]["verifier.insns_processed"]["count"] == 2

    def test_hit_replays_coverage_window(self):
        cached_cov = VerifierCoverage()
        cache = VerdictCache()
        _load_twice(cache, _trivial, coverage=cached_cov)
        assert cached_cov.last_new == 0  # duplicate contributed nothing

        plain_cov = VerifierCoverage()
        for _ in range(2):
            with plain_cov.collect():
                _kernel().prog_load(_trivial(), sanitize=True)
        assert cached_cov.snapshot_edges() == plain_cov.snapshot_edges()

    def test_distinct_programs_do_not_collide(self):
        cache = VerdictCache()
        cache.load(_kernel(), _trivial(), sanitize=True, coverage=None,
                   map_specs=(), kinds=frozenset())
        other = BpfProgram(
            insns=[asm.mov64_imm(Reg.R0, 1), asm.exit_insn()],
            prog_type=ProgType.KPROBE,
        )
        verified = cache.load(_kernel(), other, sanitize=True, coverage=None,
                              map_specs=(), kinds=frozenset())
        assert len(cache) == 2
        assert verified.xlated[0].imm == 1

    def test_key_separates_sanitize_modes(self):
        cache = VerdictCache()
        cache.load(_kernel(), _trivial(), sanitize=True, coverage=None,
                   map_specs=(), kinds=frozenset())
        cache.load(_kernel(), _trivial(), sanitize=False, coverage=None,
                   map_specs=(), kinds=frozenset())
        assert len(cache) == 2

    def test_capacity_evicts_oldest(self):
        cache = VerdictCache(capacity=1)
        _load_twice(cache, _trivial)
        try:
            cache.load(_kernel(), _rejecting(), sanitize=True, coverage=None,
                       map_specs=(), kinds=frozenset())
        except VerifierReject:
            pass
        assert len(cache) == 1
        # The trivial program was evicted; loading it again is a miss.
        registry = MetricsRegistry()
        token = obs.install(registry)
        try:
            cache.load(_kernel(), _trivial(), sanitize=True, coverage=None,
                       map_specs=(), kinds=frozenset())
        finally:
            obs.restore(token)
        assert registry.snapshot()["counters"]["cache.verdict.misses"] == 1


def _campaign_fingerprint(result) -> tuple:
    """Everything a campaign computes, minus cache telemetry and time."""
    return (
        result.accepted,
        result.generated,
        tuple(sorted(result.reject_errnos.items())),
        tuple(sorted(result.reject_reasons.items())),
        tuple(sorted(result.findings)),
        tuple(sorted(result.frame_accepted.items())),
        tuple(sorted(result.insn_classes.items())),
        result.final_coverage,
        result.corpus_size,
        tuple(result.coverage_curve),
    )


class TestCampaignTransparency:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_cached_equals_uncached(self, seed):
        config = CampaignConfig(budget=15, seed=seed, collect_coverage=False)
        cached = Campaign(config).run()
        uncached_campaign = Campaign(config)
        uncached_campaign.verdicts = None
        uncached = uncached_campaign.run()
        assert _campaign_fingerprint(cached) == _campaign_fingerprint(uncached)
        assert strip_wall_fields(cached.metrics) == strip_wall_fields(
            uncached.metrics
        )

    def test_cached_equals_uncached_with_coverage(self):
        config = CampaignConfig(budget=50, seed=7)
        cached = Campaign(config).run()
        uncached_campaign = Campaign(config)
        uncached_campaign.verdicts = None
        uncached = uncached_campaign.run()
        assert _campaign_fingerprint(cached) == _campaign_fingerprint(uncached)
        assert strip_wall_fields(cached.metrics) == strip_wall_fields(
            uncached.metrics
        )
        assert cached.edge_samples == uncached.edge_samples
