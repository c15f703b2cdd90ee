"""The arithmetic the metrics rest on."""

import pytest

import summary


def test_tail_quantile_keeps_ten_samples_beyond():
    assert summary.tail_quantile(5000) == 0.99
    assert summary.tail_quantile(628) == pytest.approx(1 - 10 / 628)
    assert summary.tail_quantile(8) == 0.5


def test_quantile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert summary.quantile(values, 0.5) == 50.0
    assert summary.quantile(values, 0.99) == 99.0
    assert summary.quantile([3.0], 0.99) == 3.0


def test_complexity_limit_count_reads_the_top_buckets():
    bounds = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536]
    counts = [0] * (len(bounds) + 1)
    counts[bounds.index(16384)] = 7  # (4096, 16384]: not the limit bucket
    counts[bounds.index(65536)] = 2  # (16384, 65536]: holds 30,001
    counts[-1] = 1
    hist = {"bounds": bounds, "counts": counts}
    assert summary.complexity_limit_count(hist) == 3
    assert summary.complexity_limit_count(None) == 0


def _span(name, start, end, parent, insns=None):
    return [name, start, end, parent, 0, insns]


def test_span_table_busy_and_self_times():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("executor", 1.0, 5.0, 0),      # dispatcher call...
        _span("executor", 2.0, 4.0, 1),      # ...running Executor.run
        _span("verifier", 6.0, 9.0, 0, insns=30001),
        _span("coverage", 5.5, 9.5, 0),
    ]
    # coverage encloses the verifier span in time but is its sibling
    # here; re-parent to model VerifierCoverage.collect -> prog_load
    spans[3][3] = 4
    table = summary.SpanTable(spans)
    assert table.calls["executor"] == 1
    assert table.busy["executor"] == pytest.approx(4.0)
    assert table.self_time["executor"] == pytest.approx(4.0)
    assert table.self_time["coverage"] == pytest.approx(1.0)
    assert table.self_time["root"] == pytest.approx(10.0 - 4.0 - 4.0)
    assert table.busy_where("verifier", lambda s: s[5] > 16384) == 3.0
