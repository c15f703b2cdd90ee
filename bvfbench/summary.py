"""Pure arithmetic over what one unit measured: percentiles, histogram
buckets, and busy and self times of spans.
"""

from __future__ import annotations

import math

#: Lower edge of the ``verifier.insns_processed`` histogram bucket that
#: holds the 30,000-instruction complexity limit (a program rejected
#: with E2BIG has processed 30,001): the bucket (16384, 65536].
COMPLEXITY_BUCKET_FLOOR = 16384


def tail_quantile(count: int, target: float = 0.99) -> float:
    """The highest quantile up to ``target`` with >= 10 samples beyond it."""
    if count <= 10:
        return 0.5
    return min(target, 1.0 - 10.0 / count)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def complexity_limit_count(hist: dict | None) -> int:
    """Observations in the complexity-limit bucket of a size histogram."""
    if not hist:
        return 0
    bounds, counts = hist["bounds"], hist["counts"]
    total = 0
    for i, count in enumerate(counts):
        lower = bounds[i - 1] if i > 0 else 0
        if lower >= COMPLEXITY_BUCKET_FLOOR:
            total += count
    return total


class SpanTable:
    """Busy and self time per span name, from ``Seam.spans`` rows."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[3]
            if parent >= 0:
                child_time[parent] += span[2] - span[1]
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: durations of outermost spans per name (nested same-name
        #: spans, e.g. Executor.run under run_xdp_via_dispatcher, are
        #: part of their outer call, not calls of their own)
        self.durations: dict[str, list[float]] = {}
        for index, span in enumerate(spans):
            name = span[0]
            duration = span[2] - span[1]
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + duration - child_time[index]
            )
            if self._nested_in_same(index):
                continue
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.durations.setdefault(name, []).append(duration)

    def _nested_in_same(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def busy_where(self, name: str, predicate) -> float:
        """Busy time of ``name`` spans whose row satisfies ``predicate``."""
        return sum(
            span[2] - span[1]
            for index, span in enumerate(self.spans)
            if span[0] == name and predicate(span)
            and not self._nested_in_same(index)
        )


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
