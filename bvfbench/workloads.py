"""The three benchmark workloads: what each runs, why, and how its
outputs are checked.

Every workload is a fixed instance of BVF's real work.  The campaign
workloads run one campaign seed (``workload_seed``, default 42), because
campaign-level numbers such as the slowest verification differ by two
orders of magnitude between campaign seeds (0.12 s to 12.4 s over seeds
0-5 at the Table 2 budget), and only two of those six seeds find all
11 bugs, so no regression bound could absorb a change of seed.
The run seed (``--seed``) orders the measured work — the selftest order
and where the set-up probes fall between units — and never changes what
a campaign generates.  A held-out campaign seed is given with
``--workload-seed``; its shape check then says whether it still
exercises the mechanism the workload was chosen for.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The ROADMAP's Table 2 instance budget (programs per campaign).
TABLE2_BUDGET = 2500
DEFAULT_WORKLOAD_SEED = 42
#: Logical shards of ``sharded_tail`` (ParallelCampaign's default).
SHARDS = 8
#: Executor.run calls per accepted selftest variant, raw and sanitized.
SELFTEST_RUNS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: kernel profile the workload runs on
    profile: str
    #: the campaign seed the workload was chosen at
    default_seed: int
    #: one line naming the shape a seed must have
    shape: str


WORKLOADS = {
    "table2": Workload(
        name="table2",
        why=(
            "serial tool=bvf campaign, flawed bpf-next, Table 2 budget "
            "2500, verdict cache and ctrace on; default seed 42 finds all "
            "11 bugs by iteration 604 with no multi-second program"
        ),
        profile="bpf-next",
        default_seed=DEFAULT_WORKLOAD_SEED,
        shape="reaches all 11 Table 2 bugs",
    ),
    "sharded_tail": Workload(
        name="sharded_tail",
        why=(
            "the same campaign under ParallelCampaign, workers=nproc, 8 "
            "shards; default seed 42 puts two complexity-limit programs "
            "in shards 1 and 4, so the slowest shard sets the wall time"
        ),
        profile="bpf-next",
        default_seed=DEFAULT_WORKLOAD_SEED,
        shape=(
            "at least one program in the complexity-limit bucket of "
            "verifier.insns_processed"
        ),
    ),
    "selftests": Workload(
        name="selftests",
        why=(
            "frozen all_selftests_extended corpus on patched, loaded raw "
            "and sanitized into fresh kernels, accepted ones run "
            "repeatedly: executor-heavy; no generator, cache, coverage "
            "or pool"
        ),
        profile="patched",
        default_seed=DEFAULT_WORKLOAD_SEED,
        shape="the whole frozen corpus loads",
    ),
}


def expected_bug_ids(profile: str) -> set[str]:
    """The Table 2 bug ids whose flaw the profile carries."""
    from repro.analysis.reports import TABLE2_ROWS
    from repro.kernel.config import PROFILES

    config = PROFILES[profile]()
    return {row.flaw.value for row in TABLE2_ROWS if config.has_flaw(row.flaw)}


def check_findings(found: set[str], profile: str) -> list[str]:
    """Output check for a campaign: exactly the profile's Table 2 ids."""
    expected = expected_bug_ids(profile)
    problems = [f"unexpected finding {bug}" for bug in sorted(found - expected)]
    problems += [f"missing Table 2 bug {bug}" for bug in sorted(expected - found)]
    return problems
