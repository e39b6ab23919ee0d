"""Summary statistics the benchmark reports (no Spark needed)."""
from __future__ import annotations

from typing import Sequence

#: A tail percentile needs this many samples beyond it to be reported.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile)``, where the value is the sample with
    exactly TAIL_BEYOND larger-ranked samples after it and the percentile is
    the share of samples at or below it. Returns ``None`` when that
    percentile would fall below the median (fewer than 2 * TAIL_BEYOND
    samples): it would not be a tail.
    """
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return sorted(values)[rank - 1], 100.0 * rank / n


def failed_frac(attempted: int, failed: int) -> float:
    """Queries that raised or answered wrongly, as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no queries attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted
