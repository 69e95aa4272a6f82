"""In-memory spans for the traced benchmark run.

The tracer lives entirely in the benchmark: it never edits the program,
it only wraps the program's public functions at layer boundaries (see
``instrument.py``).  Two record kinds are kept in memory and written out
once, at the end of the run:

* a :class:`Span` per call at a coarse boundary (``simulate``,
  ``run_seeds``, a cache read, ...): name, start, end, parent span and
  the id of the benchmark round it belongs to;
* a *leaf aggregate* per ``(parent span, name)`` for boundaries crossed
  millions of times per round (a protocol's ``act``/``observe``, a
  jammer's ``attempt``, the arrival stream).  One span object per call
  would dominate memory and time, so these keep a call count, a busy
  time and one extra tally (e.g. sends) under the enclosing span.

A layer's self time is its spans' duration minus the part of that
interval its child spans and leaf aggregates cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

ROOT = -1


@dataclass(frozen=True)
class Span:
    """One closed span; ``parent`` is another span's ``sid`` or ``ROOT``."""

    sid: int
    name: str
    start: float
    end: float
    parent: int = ROOT
    run: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and leaf aggregates for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (parent sid, name) -> [calls, seconds, tally]
        self.leaves: Dict[Tuple[int, str], List[float]] = {}
        self.run = ""
        self._stack: List[Tuple[int, str]] = [(ROOT, "")]
        self._next = 0

    @property
    def current(self) -> str:
        """Name of the innermost open span ('' outside every span)."""
        return self._stack[-1][1]

    def open(self, name: str) -> Tuple[int, int, float]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0]
        self._stack.append((sid, name))
        return sid, parent, time.perf_counter()

    def close(self, token: Tuple[int, int, float], name: str) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self.run))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token, name)

        return traced

    def leaf(self, name: str) -> List[float]:
        """The ``[calls, seconds, tally]`` accumulator of ``name`` under
        the innermost open span (callers add to it in place)."""
        key = (self._stack[-1][0], name)
        acc = self.leaves.get(key)
        if acc is None:
            acc = self.leaves[key] = [0, 0.0, 0]
        return acc

    def dump(self, path) -> None:
        """Write every span and leaf aggregate as JSON lines."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"span": s.name, "sid": s.sid,
                                    "parent": s.parent, "start": s.start,
                                    "end": s.end, "run": s.run}) + "\n")
            for (parent, name), (calls, secs, tally) in self.leaves.items():
                f.write(json.dumps({"leaf": name, "parent": parent,
                                    "calls": calls, "seconds": secs,
                                    "tally": tally}) + "\n")


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(
    spans: Iterable[Span],
    leaves: Optional[Dict[Tuple[int, str], List[float]]] = None,
) -> Dict[str, float]:
    """Self time per span name, plus busy time per leaf name.

    A span's self time is its duration minus the union of its child
    spans' intervals, minus the busy time of leaf aggregates recorded
    under it.  Leaf aggregates have no children: their busy time is
    their self time.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    leaf_busy: Dict[int, float] = {}
    out: Dict[str, float] = {}
    for (parent, name), acc in (leaves or {}).items():
        leaf_busy[parent] = leaf_busy.get(parent, 0.0) + acc[1]
        out[name] = out.get(name, 0.0) + acc[1]
    for s in spans:
        own = (
            s.duration
            - _covered(children.get(s.sid, ()))
            - leaf_busy.get(s.sid, 0.0)
        )
        out[s.name] = out.get(s.name, 0.0) + own
    return out
