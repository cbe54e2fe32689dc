"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program to trace it: :meth:`Tracer.wrap`
replaces a bound method on one *instance* (a runtime, a router, a
program) with a wrapper that records a span and calls the original.
Each span has a name, a start, an end, its parent span and the id of
the request it belongs to.  Spans stay in memory until
:meth:`Tracer.write` saves them when the benchmark ends.

Self time (a span's duration minus the time its child spans cover) is
accumulated while spans close, so reading per-layer totals costs
nothing extra.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

#: Marks an attribute that came from the class, not the instance.
_CLASS_ATTR = object()


class Tracer:
    """Records nested spans of one thread of execution."""

    def __init__(self) -> None:
        #: ``[span_id, parent_id, request_id, name, start_s, end_s]``
        self.spans: List[list] = []
        #: Request id stamped on spans opened from now on.
        self.request: Optional[int] = None
        self._stack: List[list] = []   # [span_id, start_s, child_s]
        self._totals: Dict[str, List[float]] = {}
        self._shadowed: List[tuple] = []

    def open(self) -> list:
        """Start a span; pass the returned frame to :meth:`close`."""
        frame = [len(self.spans), time.perf_counter(), 0.0]
        self.spans.append(None)   # type: ignore[arg-type]
        self._stack.append(frame)
        return frame

    def close(self, name: str, frame: list) -> None:
        """End the innermost open span, naming it ``name`` (a name
        chosen after the call can depend on its outcome)."""
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[span_id] = [span_id,
                               None if parent is None else parent[0],
                               self.request, name, start, end]
        totals = self._totals.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        frame = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(name, frame)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Trace every later call of ``owner.attr`` as span ``name``.

        Only the one object is touched (an instance attribute shadows
        the class method), so other instances run untraced.
        """
        original = getattr(owner, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self.open()
            try:
                return original(*args, **kwargs)
            finally:
                self.close(name, frame)

        self.shadow(owner, attr, traced)

    def shadow(self, owner: Any, attr: str, fn: Callable[..., Any]
               ) -> None:
        """Set ``fn`` as ``owner``'s own ``attr`` until :meth:`unwrap`."""
        self._shadowed.append((owner, attr,
                               vars(owner).get(attr, _CLASS_ATTR)))
        setattr(owner, attr, fn)

    def unwrap(self) -> None:
        """Remove every wrapper, so the objects run as before."""
        for owner, attr, previous in reversed(self._shadowed):
            if previous is _CLASS_ATTR:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._shadowed = []

    def count(self, name: str) -> int:
        """Closed spans called ``name``."""
        return int(self._totals.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return self._totals.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        return self._totals.get(name, (0, 0.0, 0.0))[2]

    def reset_totals(self) -> None:
        """Start a new accounting phase (spans already kept stay)."""
        self._totals = {}

    def write(self, path: str) -> None:
        """Save every span as JSON (one list per span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "parent", "request", "name",
                                  "start_s", "end_s"],
                       "spans": self.spans}, handle)
