"""Bench-owned span recorder for the traced run.

A span is opened around each call the benchmark makes into a layer of
``src/repro`` (nothing inside ``src/`` is instrumented).  Spans stay in
memory and are written out once, when the run ends.  A span's *layer* is
its name up to the last dot (``harness.store.load_record`` belongs to
``harness.store``); its *self time* is its duration minus the part its
direct children cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Dict, Iterator, List, Optional


class SpanRecorder:
    """Collects spans from any number of threads.

    Each thread keeps its own stack of open spans, so a span's parent is
    the span the *same thread* had open when it started; spans opened by
    the service's worker threads are roots.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, unit: Optional[Any] = None,
             count: int = 1) -> Iterator[Dict[str, Any]]:
        """Record one span.  ``unit`` identifies the workload unit the
        span belongs to (inherited from the parent when omitted);
        ``count`` is the number of operations the span covers, for
        per-operation means."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            record = {"id": len(self.spans), "name": name,
                      "parent": parent["id"] if parent else None,
                      "unit": unit if unit is not None
                      else (parent["unit"] if parent else None),
                      "count": count, "start": 0.0, "end": 0.0}
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def add_child(self, parent: Dict[str, Any], name: str,
                  seconds: float, offset: float) -> float:
        """Attach an *aggregated* child to ``parent``: time that is known
        only as a total (a ``profile_phase_budget`` bucket), laid out at
        ``offset`` seconds from the parent's start.  Returns the offset
        for the next bucket."""
        with self._lock:
            start = parent["start"] + offset
            self.spans.append({"id": len(self.spans), "name": name,
                               "parent": parent["id"],
                               "unit": parent["unit"], "count": 1,
                               "start": start, "end": start + seconds,
                               "aggregated": True})
        return offset + seconds

    def dump(self, path, **header: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.spans}, handle)
            handle.write("\n")


class NullRecorder:
    """Stands in for a recorder when tracing is off: ``span`` costs a
    shared no-op context manager, nothing is kept."""

    _nothing = nullcontext()

    def span(self, name: str, unit: Optional[Any] = None,
             count: int = 1) -> ContextManager:
        return self._nothing


def layer_of(name: str) -> str:
    return name.rpartition(".")[0]


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Self time (seconds) of every span: duration minus the durations of
    its direct children."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_self_seconds(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        totals[layer] = totals.get(layer, 0.0) + own[span["id"]]
    return totals


def per_op(spans: List[Dict[str, Any]], name: str) -> float:
    """Mean duration (seconds) per operation of the spans called
    ``name`` — their summed duration over their summed ``count``."""
    matching = [span for span in spans if span["name"] == name]
    operations = sum(span["count"] for span in matching)
    if not operations:
        raise KeyError(f"no span named {name!r} was recorded")
    return sum(span["end"] - span["start"] for span in matching) / operations
