"""Statistics and naming rules shared by every perfbench metric.

Pure functions only (no numpy, no repro import) so the rules are
testable in isolation and identical in the parent and child processes.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

#: the benchmark contract's metric-name alphabet
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise ValueError.

    Legal: starts with a letter or digit, at most 64 characters from
    ``[A-Za-z0-9_.-]``.
    """
    if not _NAME_RE.match(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the ``q``-quantile position of ``n`` sorted
    samples (nearest-rank): ``n - ceil(q * n)``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    return n - math.ceil(q * n - 1e-9)  # 0.9 * 110 is 99.00000000000001


def _interpolate(sorted_vals: Sequence[float], q: float) -> float:
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * frac


def median(values: Iterable[float]) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no samples")
    return _interpolate(vals, 0.5)


def tail_percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-quantile, refused unless ≥ MIN_BEYOND samples lie beyond it.

    This is the reporting rule for tail latency: p90 needs at least 100
    samples, p99 at least 1000.
    """
    vals = sorted(values)
    beyond = samples_beyond(len(vals), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(vals)} samples has only {beyond} "
            f"beyond it (need {MIN_BEYOND})"
        )
    return _interpolate(vals, q)


def min_samples_for(q: float) -> int:
    """Smallest sample count for which :func:`tail_percentile` accepts ``q``."""
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values."""
    vals = list(values)
    if not vals:
        raise ValueError("geometric mean of no values")
    if any(not v > 0.0 for v in vals):
        raise ValueError(f"geometric mean needs positive values, got {vals}")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
