"""A 10% slowdown of one layer moves the metrics predicted for it.

The slowdown is injected through the benchmark's own wrapper of a public
function (``Seam(slow=...)`` busy-waits 10% of each call's duration
inside the call), so the program itself is untouched.  Each comparison
runs fresh-process units in adjacent base/slowed pairs, alternating
which goes first, and compares throughput at the reference host speed
(``hostclock.at_reference_speed``), as the benchmark reports it.
"""

import json
import os
import statistics

import hostclock
from test_work_counts import unit

SLOW = 0.10
PAIRS = 8
#: The slowed layer's busy time should read 1 + SLOW times the base's;
#: the band allows for what host-speed scaling leaves of the noise.
LAYER_LOW, LAYER_HIGH = 1.03, 1.20
BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bound(metric: str) -> float:
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        doc = json.load(f)
    return next(m["bound"] for m in doc["end_to_end"] if m["name"] == metric)


def _pairs(layer: str, **spec):
    """(base, slowed) traced units, adjacent, order alternating."""
    pairs = []
    for i in range(PAIRS):
        first_slow = i % 2 == 1
        runs = [unit(trace=True, slow={layer: SLOW} if slow else {}, **spec)
                for slow in (first_slow, not first_slow)]
        pairs.append(runs[::-1] if first_slow else runs)
    return pairs


def _pps_ratio(pairs):
    def pps(u):
        return hostclock.at_reference_speed(u["programs_per_s"], u["burst_s"],
                                          "rate")
    return statistics.median(pps(slow) / pps(base) for base, slow in pairs)


def _layer_ratio(pairs, key):
    def busy(u):
        return hostclock.at_reference_speed(u["layers"][key], u["burst_s"],
                                          "time")
    return statistics.median(busy(slow) / busy(base) for base, slow in pairs)


def test_executor_slowdown_moves_selftests():
    pairs = _pairs("executor", workload="selftests")
    share = statistics.median(base["layers"]["executor.busy_s"] / base["wall_s"]
                              for base, _ in pairs)
    predicted_drop = 1 - 1 / (1 + SLOW * share)
    assert share > 0.4  # the workload is executor-heavy, as chosen
    assert LAYER_LOW <= _layer_ratio(pairs, "executor.busy_s") <= LAYER_HIGH
    pps = _pps_ratio(pairs)
    assert 1 - 2 * predicted_drop - 0.02 <= pps <= 1 - predicted_drop / 2


def test_generator_slowdown_moves_table2_layer_and_not_selftests():
    bypass = _pairs("generator", workload="selftests")
    assert all(slow["layers"]["generator.calls"] == 0 for _, slow in bypass)
    assert abs(_pps_ratio(bypass) - 1) <= _bound("programs_per_s") / 3

    # On table2 the generator is ~11% of the wall, so the end-to-end
    # move (~1%) is below the run-to-run noise: throughput only has to
    # agree with the prediction, and the layer metric is the gate that
    # catches the slowdown.
    used = _pairs("generator", workload="table2", budget=600)
    assert LAYER_LOW <= _layer_ratio(used, "generator.busy_s") <= LAYER_HIGH
    share = statistics.median(base["layers"]["generator.busy_s"]
                              / base["wall_s"] for base, _ in used)
    assert abs(_pps_ratio(used) - 1 / (1 + SLOW * share)) <= 0.04
