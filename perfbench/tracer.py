"""In-memory spans around the benchmark's calls into dynsketch's layers.

Spans are recorded from outside the library: the workloads wrap each call
(or each list of like calls) into a layer in ``Tracer.span``. Every layer
span hangs under one root span, ``bench.setup`` or ``bench.op``, so a
span's parent is the set-up repetition or operation that caused it. When
tracing is off every method returns at once and nothing is kept.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SETUP = "bench.setup"
OP = "bench.op"


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # [name, start, end, parent index, operation id, calls]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._root: int | None = None

    @contextmanager
    def root(self, name: str, op_id: str):
        """A set-up repetition or an operation; layer spans inside it are its children."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, None, op_id, 1])
        self._root = index
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._root = None

    @contextmanager
    def span(self, name: str, calls: int = 1):
        """Time ``calls`` consecutive calls into the layer function ``name``."""
        if not self.enabled:
            yield
            return
        start = perf_counter()
        try:
            yield
        finally:
            op_id = self.spans[self._root][4]
            self.spans.append([name, start, perf_counter(), self._root, op_id, calls])

    def count(self, name: str, value: int) -> None:
        """Add to a work counter of the current root's phase (operations outside any root)."""
        if self.enabled:
            phase = OP if self._root is None else self.spans[self._root][0]
            self.counts[(phase, name)] += int(value)

    def summary(self) -> dict:
        """Self time, calls and counters summed per (phase, name).

        A span's self time is its duration minus the time its children
        cover; a root's self time is the part of the set-up or operation
        that no layer span covers.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        total_s: dict[tuple[str, str], float] = defaultdict(float)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        for index, (name, start, end, parent, _, n) in enumerate(self.spans):
            key = (self.spans[parent][0] if parent is not None else name, name)
            self_s[key] += end - start - covered[index]
            total_s[key] += end - start
            calls[key] += n
        return {"self_s": self_s, "total_s": total_s, "calls": calls, "counts": self.counts}

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op_id, n) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op_id,
                    "calls": n,
                }
                out.write(json.dumps(record) + "\n")
