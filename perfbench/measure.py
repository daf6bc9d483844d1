"""Pure helpers the benchmark computes its metrics and checks with.

Nothing here imports the library under test, so the helpers are unit
tested on their own (``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A k-NN answer reduced to what the checks compare bit for bit:
#: ``[(item index, distance), ...]`` in the order the index returned.
Answer = List[Tuple[int, float]]

#: Samples that must lie beyond the tail percentile (the rule every
#: latency tail in this benchmark follows).
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` (n=4) gives
    them -- the same estimator the acceptance rule uses."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail_percentile(
    samples: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Tuple[float, float, int]:
    """The highest percentile with at least *min_beyond* samples beyond it.

    Returns ``(percentile, value, sample count)``.  With the ``n``
    samples sorted, the tail is the sample at 0-based rank
    ``n - 1 - min_beyond``, so exactly *min_beyond* samples rank above
    it; its percentile is the nearest-rank percentile of that position,
    ``100 * (rank + 1) / n``.  Fewer than ``min_beyond + 1`` samples
    have no such percentile and raise :class:`ValueError`.
    """
    n = len(samples)
    if n < min_beyond + 1:
        raise ValueError(
            f"{n} samples cannot have {min_beyond} beyond a percentile"
        )
    ordered = sorted(samples)
    rank = n - 1 - min_beyond
    return 100.0 * (rank + 1) / n, float(ordered[rank]), n


def latencies_from_due(
    due: Sequence[float], done: Sequence[Optional[float]]
) -> List[Optional[float]]:
    """Per-request latency measured from when the request was *due*, not
    from when the generator got round to sending it, so a stall that
    delays later sends is charged to them.  ``None`` (never answered)
    stays ``None``."""
    return [None if end is None else end - start for start, end in zip(due, done)]


def burst_latencies(
    due: Sequence[float], latencies: Sequence[Optional[float]]
) -> List[Optional[float]]:
    """Latency of each burst -- a run of consecutive requests due at the
    same time -- until its last request was answered: the longest of its
    requests' latencies, or ``None`` when any of them went unanswered."""
    bursts: List[Optional[float]] = []
    previous: Optional[float] = None
    for position, (start, latency) in enumerate(zip(due, latencies)):
        if position and start == previous:
            last = bursts[-1]
            bursts[-1] = None if last is None or latency is None else max(last, latency)
        else:
            bursts.append(latency)
        previous = start
    return bursts


def recall_at_k(got: Sequence[Answer], reference: Sequence[Answer]) -> float:
    """Mean share of each query's reference neighbours (by item index)
    that the answer under test returned."""
    if len(got) != len(reference):
        raise ValueError(f"{len(got)} answers for {len(reference)} references")
    if not reference:
        raise ValueError("recall of an empty query set")
    shares = []
    for answer, ref in zip(got, reference):
        wanted = {idx for idx, _ in ref}
        shares.append(len(wanted & {idx for idx, _ in answer}) / len(wanted))
    return sum(shares) / len(shares)


def mismatches(got: Sequence[Answer], reference: Sequence[Answer]) -> List[int]:
    """Positions whose answer differs from the reference in any neighbour
    index or distance bit, or in length; a length mismatch between the
    two lists marks every position beyond the shorter one."""
    bad = [
        qi
        for qi, (answer, ref) in enumerate(zip(got, reference))
        if list(answer) != list(ref)
    ]
    bad.extend(range(min(len(got), len(reference)), max(len(got), len(reference))))
    return bad


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"q1": q1, "median": q2, "q3": q3, "spread": spread(values)}
