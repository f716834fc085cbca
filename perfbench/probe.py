"""Host-speed probe: a fixed pure-Python loop timed between steps.

The loop uses no toolkit code, so its time changes only with the host
(co-tenant load, frequency), never with the program under test.
"""

from __future__ import annotations

from collections import namedtuple
from time import perf_counter

# Probe time that defines the reference host: each timed operation is
# reported as if the probe run right after it had taken exactly this long.
REF_S = 1e-3

_Pair = namedtuple("_Pair", "key value")


def _make(i: int) -> _Pair:
    return _Pair(i & 63, i)


def probe_loop(n: int = 1500) -> int:
    totals: dict[int, int] = {}
    kept = []
    for i in range(n):
        pair = _make(i)
        totals[pair.key] = totals.get(pair.key, 0) + pair.value
        kept.append(pair)
    return len(kept)


def probe_s() -> float:
    """Seconds for one probe loop, the faster of two back-to-back runs."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        probe_loop()
        best = min(best, perf_counter() - t0)
    return best
