"""In-memory span recorder for the benchmark's traced runs.

A span is recorded around each call the benchmark makes into a layer of
``ttno``.  Spans are kept in memory and written out once, when the run ends.
The layer of a span is the part of its name before the first dot; root
spans (``bench.setup``, ``bench.pass``) belong to the benchmark itself.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "parent", "root", "t0")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack
        self.parent = stack[-1] if stack else None
        sid = len(self.tracer.spans)
        self.root = stack[0] if stack else sid
        self.tracer.spans.append(None)
        stack.append(sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        sid = self.tracer._stack.pop()
        self.tracer.spans[sid] = (sid, self.parent, self.root, self.name,
                                  self.t0, t1)
        return False


class Tracer:
    """Records spans while ``enabled``; otherwise ``span`` costs nothing.

    Each span is ``(id, parent id, root id, name, start, end)``; times are
    ``time.perf_counter`` seconds.  ``run_id`` ties the spans of one run
    together in the written file.
    """

    def __init__(self, run_id: str, enabled: bool = False):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list = []
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    # -- queries over finished spans ------------------------------------

    def roots(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[1] is None and s[3] == name]

    def durations(self, names, roots) -> list[float]:
        """Durations of spans called ``names`` under the given root spans."""
        root_ids = {r[0] for r in roots}
        names = {names} if isinstance(names, str) else set(names)
        return [s[5] - s[4] for s in self.spans
                if s[3] in names and s[2] in root_ids]

    def self_times(self, roots) -> dict[str, float]:
        """Self time per layer: span time minus the time its children cover."""
        root_ids = {r[0] for r in roots}
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[1] is not None and s[2] in root_ids:
                child_time[s[1]] = child_time.get(s[1], 0.0) + s[5] - s[4]
        out: dict[str, float] = {}
        for s in self.spans:
            if s[2] in root_ids:
                layer = s[3].split(".", 1)[0]
                own = s[5] - s[4] - child_time.get(s[0], 0.0)
                out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, **header,
                       "fields": ["id", "parent", "root", "name",
                                  "start_s", "end_s"],
                       "spans": self.spans}, fh)
