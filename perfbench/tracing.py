"""In-memory spans and counters for the traced benchmark run.

A span records its name, start, end and the span that was open when it
began.  Spans are opened by the benchmark around calls into the library's
public functions, so a span's self time is the time spent in that call;
the parent spans (one per trial or query) share the item's identifier.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Iterator, Optional


class Tracer:
    def __init__(self) -> None:
        # each span is [name, start, end, parent index or None, item id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: Optional[int] = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, item]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def write(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [dict(zip(fields, s)) for s in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )
