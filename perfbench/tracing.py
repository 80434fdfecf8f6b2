"""Spans recorded from outside the program, by patching its public calls.

A span is ``[name, start, end, parent, op_id, count, busy]``: ``parent`` is
the index of the enclosing span (-1 for none), ``count`` a work count the
span's hook read from the call's result, and ``busy`` the time the span
stands for. ``busy`` is ``end - start`` for an ordinary span; a folded span
(one per burst for the per-ACK profiler calls) carries the summed time of
the calls it folds, so that wrapping each call costs no span of its own.

Spans stay in memory and are written out as JSON lines at the end of a run.
A layer's self time is the busy time of its spans minus the busy time of
their child spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

NAME, START, END, PARENT, OP, COUNT, BUSY = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op_id = -1
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1,
                           self.op_id, 0, 0.0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[BUSY] = span[END] - span[START]
        span[COUNT] = count
        self.stack.pop()

    def add(self, name: str, start: float, end: float, count: int = 0,
            busy: Optional[float] = None) -> None:
        """Record a finished span under the current one."""
        self.spans.append([name, start, end,
                           self.stack[-1] if self.stack else -1, self.op_id,
                           count, end - start if busy is None else busy])

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``count(result)`` gives the
        span's work count."""
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, count(result) if count and result is not None
                         else 0)
        return traced

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, name: str,
              count: Optional[Callable] = None) -> None:
        """Trace ``owner.attr``."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr),
                                            count))

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` until ``unpatch()``; a name the program no
        longer has fails the run rather than reading 0."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} has no {attr!r} to trace")
        old = vars(owner)[attr]
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    @contextmanager
    def patched(self, install: Callable[["Tracer"], None]) -> Iterator[None]:
        install(self)
        try:
            yield
        finally:
            self.unpatch()

    # -- analysis -------------------------------------------------------

    def self_times(self, scale: Optional[Dict[int, float]] = None
                   ) -> Dict[str, float]:
        """Summed self time per span name, in seconds, each span's time
        multiplied by ``scale`` of its op (unscaled without one)."""
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_busy[span[PARENT]] += span[BUSY]
        out: Dict[str, float] = {}
        for span, kids in zip(self.spans, child_busy):
            out[span[NAME]] = out.get(span[NAME], 0.0) + \
                (span[BUSY] - kids) * (1.0 if scale is None else scale[span[OP]])
        return out

    def counts(self) -> Dict[str, int]:
        """Summed work count per span name."""
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span[NAME]] = out.get(span[NAME], 0) + span[COUNT]
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span[NAME]] = out.get(span[NAME], 0) + 1
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "count", "busy")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
