"""In-memory span recording and self-time attribution.

A span is ``[name, tag, start, end, parent]``: ``parent`` is the index
of the enclosing span (``-1`` for a root), so the spans of one request —
one V-cycle, one operator call — form a tree under a shared root index.
A span's *self time* is its duration minus the durations of its direct
children; summing self time by layer splits a root's wall time exactly,
with whatever no instrumented layer covers left on the root itself and
reported as ``unattributed``.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Sequence

NAME, TAG, START, END, PARENT = range(5)


class Tracer:
    """Span recorder; spans stay in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while {top} is open")

    @contextmanager
    def span(self, name: str, tag=None) -> Iterator[int]:
        idx = self.begin(name, tag)
        try:
            yield idx
        finally:
            self.end(idx)

    def write(self, path) -> None:
        """Write every span as gzip'd JSON ``[name, tag, start, end, parent]``."""
        with gzip.open(path, "wt") as f:
            json.dump(
                [[s[NAME], _jsonable(s[TAG]), s[START], s[END], s[PARENT]]
                 for s in self.spans],
                f,
            )


def _jsonable(tag):
    if tag is None or isinstance(tag, (str, int, float)):
        return tag
    return list(tag) if isinstance(tag, tuple) else str(tag)


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def roots(spans: Sequence[Sequence]) -> list[int]:
    """Index of the root span each span belongs to."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out


def nearest_tag(
    spans: Sequence[Sequence], accept: Callable[[str], bool]
) -> list:
    """For each span, the tag of the closest span at or above it whose
    name ``accept`` admits (``None`` when there is none).  Parents always
    precede children, so one forward pass suffices."""
    out: list = []
    for s in spans:
        if accept(s[NAME]):
            out.append(s[TAG])
        elif s[PARENT] >= 0:
            out.append(out[s[PARENT]])
        else:
            out.append(None)
    return out


def layer_totals(
    spans: Sequence[Sequence], layer_of: Callable[[str], str]
) -> dict[str, float]:
    """Sum of self time per layer, ``layer_of`` mapping a span name to
    its layer."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = layer_of(s[NAME])
        totals[layer] = totals.get(layer, 0.0) + t
    return totals
