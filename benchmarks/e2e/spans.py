"""In-memory spans recorded around calls into each layer.

The benchmark's own files open a span around every stage call of a
traced op (``sensor_dataset``, ``flatten``, ``run_scheme``, a client
call, ...).  Spans stay in a list until the run ends and are then
written to ``results/trace-<workload>.json``.  Nothing here is imported
by the untraced pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

# CLOCK_MONOTONIC on Linux: one epoch for every process of the machine,
# which lets the cli-cold replay child place its spans inside the span
# its parent opened around the spawn.
now = time.perf_counter


class Tracer:
    """Nested timed spans: name, start, end, parent, op id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self.op: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        record = self.add(name, now(), None)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = now()
            self._stack.pop()

    def add(
        self, name: str, start: float, end: Optional[float]
    ) -> Dict[str, object]:
        """Record a span timed elsewhere (a child process, the parent's
        clock around a spawn) under the currently open span."""
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(record)
        return record


def self_times(spans: List[Dict[str, object]]) -> Dict[int, float]:
    """A span's self time: its duration minus the part of that interval
    its direct child spans cover (children are sequential, never
    overlapping, because one thread records them)."""
    result = {
        span["id"]: float(span["end"]) - float(span["start"]) for span in spans
    }
    for span in spans:
        parent = span["parent"]
        if parent in result:
            result[parent] -= float(span["end"]) - float(span["start"])
    return result


def self_time_by_name(
    spans: List[Dict[str, object]], op: Optional[str]
) -> Dict[str, Tuple[float, int]]:
    """``(self seconds, span count)`` per span name over one op's spans."""
    chosen = [span for span in spans if span["op"] == op]
    own = self_times(chosen)
    totals: Dict[str, Tuple[float, int]] = {}
    for span in chosen:
        seconds, count = totals.get(span["name"], (0.0, 0))
        totals[span["name"]] = (seconds + own[span["id"]], count + 1)
    return totals
