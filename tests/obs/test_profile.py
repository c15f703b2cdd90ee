"""Hierarchical-profiler tests: accounting algebra, campaign
integration, worker invariance, and the self-time coverage floor.

Tentpole requirements covered here:

- frame self/cum telescoping: at every node ``self = cum - Σ
  children.cum``, so total self time equals total root cumulative;
- counts are exact and worker-count invariant (workers=1 vs 4 merge to
  bit-identical ``counts`` sections);
- per-family self times sum to >=95% of the measured verify phase wall
  on a real campaign;
- the disabled default (an observer without a profiler) is a shared
  no-op, and the campaign only creates a profiler when
  ``config.profile`` is on.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.parallel import ParallelCampaign
from repro.obs import Observer
from repro.obs.artifact import build_artifact, strip_wall
from repro.obs.profile import (
    VerifierProfiler,
    merge_profiles,
    render_profile,
    strip_profile_wall,
)


@pytest.fixture(scope="module")
def profiled_result():
    config = CampaignConfig(tool="bvf", budget=100, seed=11, profile=True)
    return Campaign(config).run()


class TestNullProfiler:
    def test_disabled_and_inert(self):
        prof = Observer()
        assert prof.profiling is False
        prof.push("x")
        prof.pop()
        with prof.frame("y"):
            pass
        prof.alu_op(None, True)
        prof.helper_call("h")
        prof.profile_count("c", 2)

    def test_default_process_profiler_is_null(self):
        assert obs.current().profiler is None
        assert obs.current().profiling is False

    def test_frame_of_none_is_shared_noop(self):
        assert Observer().frame("a") is Observer().frame("b")

    def test_null_frame_swallows_nothing(self):
        with pytest.raises(RuntimeError):
            with Observer().frame("f"):
                raise RuntimeError("propagates")


class TestAccounting:
    def test_counts_and_paths(self):
        prof = VerifierProfiler()
        with prof.frame("verify"):
            with prof.frame("do_check"):
                pass
            with prof.frame("do_check"):
                pass
        snap = prof.snapshot()
        assert snap["counts"]["nodes"] == {
            "verify": 1, "verify/do_check": 2,
        }

    def test_self_cum_telescoping(self):
        prof = VerifierProfiler()
        with prof.frame("root"):
            with prof.frame("a"):
                with prof.frame("leaf"):
                    pass
            with prof.frame("b"):
                pass
        wall = prof.snapshot()["wall"]["nodes"]
        root = wall["root"]
        # self = cum - sum of direct children cum, at every node.
        children = wall["root/a"]["cum"] + wall["root/b"]["cum"]
        assert root["self"] == pytest.approx(root["cum"] - children)
        # Total self telescopes to the root cumulative exactly.
        total_self = sum(times["self"] for times in wall.values())
        assert total_self == pytest.approx(root["cum"])

    def test_pop_on_exception(self):
        prof = VerifierProfiler()
        with pytest.raises(ValueError):
            with prof.frame("outer"):
                with prof.frame("inner"):
                    raise ValueError("boom")
        assert prof._stack == []
        assert prof.snapshot()["counts"]["nodes"] == {
            "outer": 1, "outer/inner": 1,
        }

    def test_flat_counters(self):
        prof = VerifierProfiler()
        prof.alu_ops["ADD64"] += 2
        prof.helpers["bpf_map_lookup_elem"] += 1
        prof.ops["prune.miss"] += 3
        counts = prof.snapshot()["counts"]
        assert counts["alu_ops"] == {"ADD64": 2}
        assert counts["helpers"] == {"bpf_map_lookup_elem": 1}
        assert counts["ops"] == {"prune.miss": 3}


class TestMergeAndStrip:
    def _snap(self, n):
        prof = VerifierProfiler()
        with prof.frame("verify"):
            pass
        prof.alu_ops["ADD64"] += n
        return prof.snapshot()

    def test_merge_sums_counts_and_wall(self):
        merged = merge_profiles([self._snap(1), self._snap(2), {}])
        assert merged["counts"]["nodes"] == {"verify": 2}
        assert merged["counts"]["alu_ops"] == {"ADD64": 3}
        assert merged["wall"]["nodes"]["verify"]["cum"] > 0

    def test_merge_all_empty_is_empty(self):
        assert merge_profiles([{}, {}]) == {}

    def test_strip_profile_wall(self):
        snap = self._snap(1)
        stripped = strip_profile_wall(snap)
        assert "wall" not in stripped
        assert stripped["counts"] == snap["counts"]
        assert strip_profile_wall({}) == {}


class TestCampaignIntegration:
    def test_profile_snapshot_populated(self, profiled_result):
        counts = profiled_result.profile["counts"]
        # The campaign root frame and the verifier pipeline under it.
        assert counts["nodes"]["verify"] == profiled_result.generated
        assert "verify/do_check" in counts["nodes"]
        assert "verify/structure" in counts["nodes"]
        assert counts["alu_ops"]  # scalar ALU dominates generation
        assert any(key.startswith("prune.") for key in counts["ops"])
        assert "sanitizer.sites" in counts["ops"]

    def test_profile_off_by_default(self):
        result = Campaign(CampaignConfig(budget=5, seed=0)).run()
        assert result.profile == {}

    def test_self_times_cover_verify_wall(self, profiled_result):
        # The acceptance floor: per-family self times must account for
        # >=95% of the measured verify phase wall (telescoping makes
        # this exact up to the phase context-manager overhead).
        wall = profiled_result.profile["wall"]["nodes"]
        total_self = sum(times["self"] for times in wall.values())
        assert total_self >= 0.95 * profiled_result.verify_seconds

    def test_deterministic_across_runs(self):
        config = CampaignConfig(budget=30, seed=3, profile=True)
        a = Campaign(config).run().profile["counts"]
        b = Campaign(config).run().profile["counts"]
        assert a == b


class TestWorkerInvariance:
    @pytest.fixture(scope="class")
    def sharded(self):
        config = CampaignConfig(budget=80, seed=9, profile=True)
        one = ParallelCampaign(config, workers=1, shards=4).run()
        four = ParallelCampaign(config, workers=4, shards=4).run()
        return one, four

    def test_profile_counts_bit_identical(self, sharded):
        one, four = sharded
        a = json.dumps(strip_profile_wall(one.profile), sort_keys=True)
        b = json.dumps(strip_profile_wall(four.profile), sort_keys=True)
        assert a == b

    def test_artifact_sections_bit_identical(self, sharded):
        one, four = sharded
        a = strip_wall(build_artifact(one))
        b = strip_wall(build_artifact(four))
        assert json.dumps(a["profile"], sort_keys=True) == json.dumps(
            b["profile"], sort_keys=True
        )
        assert json.dumps(a["frontier"], sort_keys=True) == json.dumps(
            b["frontier"], sort_keys=True
        )

    def test_stripped_profile_has_no_wall(self, sharded):
        one, _ = sharded
        artifact = strip_wall(build_artifact(one))
        assert "wall" not in artifact["profile"]
        assert artifact["profile"]["enabled"] is True


class TestRender:
    def test_render_full_snapshot(self, profiled_result):
        text = render_profile(profiled_result.profile)
        assert "verifier profile:" in text
        assert "hotspots" in text
        assert "ALU ops" in text
        assert "self %" in text

    def test_render_degrades_without_wall(self, profiled_result):
        text = render_profile(strip_profile_wall(profiled_result.profile))
        assert "verifier profile:" in text
        assert "hotspots" not in text
        assert "self %" not in text

    def test_render_empty(self):
        assert "no profile data" in render_profile({})
