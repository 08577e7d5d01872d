"""In-memory spans for the traced run, and the self times derived from them.

A span is ``[name, start_ns, end_ns, parent, session, frames]``: ``parent``
is the index of the enclosing span (-1 for none), ``session`` the id of the
session or trial it served, ``frames`` how many frames it handled. Spans
stay in a list until the run ends; nothing is written while timing.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from time import perf_counter_ns

NAME, START, END, PARENT, SESSION, FRAMES = range(6)


class Tracer:
    """Spans as tuples in one list; a tuple of atoms costs the garbage collector nothing."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def open(self, name: str, parent: int = -1, session: int = -1) -> int:
        """Start a span that encloses others; returns its index for ``close``."""
        self.spans.append((name, perf_counter_ns(), 0, parent, session, 0))
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        name, start, _, parent, session, frames = self.spans[index]
        self.spans[index] = (name, start, perf_counter_ns(), parent, session, frames)

    def call(self, name, parent, session, frames, fn, *args):
        """Time ``fn(*args)`` as one span. ``frames`` may be a function of the result."""
        start = perf_counter_ns()
        try:
            result = fn(*args)
        except BaseException:
            # a call that raises still leaves its span, with no frame count
            self.spans.append((name, start, perf_counter_ns(), parent, session, 0))
            raise
        end = perf_counter_ns()
        self.spans.append((name, start, end, parent, session, frames(result) if callable(frames) else frames))
        return result

    def hook(self, parent: int = -1, session: int = -1):
        """``call`` with parent and session bound, as the input builders take it."""
        return lambda name, frames, fn, *args: self.call(name, parent, session, frames, fn, *args)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover (children never overlap)."""
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def layer_totals(spans: list[list], skip_sessions=frozenset()) -> dict[str, dict]:
    """Per span name: summed self time, frames and span count, skipping failed sessions."""
    totals: dict[str, dict] = defaultdict(lambda: {"self_ns": 0, "frames": 0, "spans": 0})
    for span, self_ns in zip(spans, self_times(spans)):
        if span[SESSION] in skip_sessions:
            continue
        entry = totals[span[NAME]]
        entry["self_ns"] += self_ns
        entry["frames"] += span[FRAMES]
        entry["spans"] += 1
    return dict(totals)


def write_spans(spans: list[list], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "start_ns", "end_ns", "parent", "session", "frames"])
        for i, span in enumerate(spans):
            writer.writerow([i, *span])
