"""Small numeric helpers shared by the benchmark and its steadiness report.

Everything here is pure (no I/O, no clock), so it is unit tested on its
own in ``test_perfbench.py``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

#: A tail percentile is only reported when at least this many samples lie
#: beyond it; with fewer, one outlier decides the number.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0 < p < 100) by linear interpolation."""
    if not samples:
        raise TooFewSamples("no samples")
    if not 0.0 < p < 100.0:
        raise ValueError("p must lie strictly between 0 and 100")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the ``p``-th percentile."""
    return n - math.ceil(n * p / 100.0)


def tail(samples: Sequence[float], p: float = 90.0) -> float:
    """The ``p``-th percentile, refusing samples too small to support it.

    The rule: at least :data:`MIN_BEYOND` samples must lie beyond the
    percentile (so p90 needs 100 samples, p99 needs 1000).
    """
    n = len(samples)
    if beyond(n, p) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {n} samples has {beyond(n, p)} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return percentile(samples, p)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (needs 2+ values)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


@dataclass
class OpTally:
    """Attempted/failed operation accounting behind ``error_rate``.

    An op fails when its outcome was unexpected (a wrong HTTP status, an
    unattributed PCC violation or drop).  A failed audit or a decision
    digest that differs between repeats of one seed invalidates the whole
    run, so :meth:`fail_all` marks every attempted op failed.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    _all_failed: bool = False

    def record(self, attempted: int, failed: int = 0, reason: str = "") -> None:
        if attempted < 0 or not 0 <= failed <= attempted:
            raise ValueError("need 0 <= failed <= attempted")
        self.attempted += attempted
        self.failed += failed
        if failed and reason:
            self.reasons.append(reason)

    def fail_all(self, reason: str) -> None:
        self._all_failed = True
        self.reasons.append(reason)

    @property
    def failed_total(self) -> int:
        return self.attempted if self._all_failed else self.failed

    @property
    def error_rate(self) -> float:
        if self.attempted == 0:
            return 1.0 if self._all_failed else 0.0
        return self.failed_total / self.attempted

    @property
    def correct(self) -> bool:
        return self.failed_total == 0 and not self._all_failed


def decision_digest(connections: Iterable[object]) -> str:
    """sha256 over every connection's id and (time, DIP) decision log.

    Equal digests mean two replays made the same forwarding decision for
    every packet of every connection, in the same order.
    """
    h = hashlib.sha256()
    for conn in sorted(connections, key=lambda c: c.conn_id):
        h.update(f"{conn.conn_id}:".encode())
        for t, dip in conn.decisions:
            h.update(f"{t!r}>{dip};".encode())
        h.update(b"\n")
    return h.hexdigest()
