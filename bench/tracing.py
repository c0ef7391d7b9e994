"""In-memory span tracer installed from outside the program.

``Tracer.wrap`` replaces a public function or method with a wrapper that
records one span per call: (id, name, start, end, parent id, request id).
Spans stay in memory; ``dump`` writes them as JSON lines at exit and
``self_times`` derives each span's self time: its duration minus the part
of its interval that its children's spans cover. A span opened on a pool
thread with no open span of its own takes the innermost open span of the
main thread as its parent, so per-example work nests under the call that
started the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.inflight_max: dict[str, int] = defaultdict(int)
        self._inflight: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_top: tuple[int, object] | None = None
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, rid=None, gauge=False, count=None):
        """Traced version of ``fn``. ``rid(args)`` names the request a call
        starts; ``gauge`` tracks how many calls are in flight at once;
        ``count(result)`` is true for results counted under ``name + ".hits"``."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            on_main = threading.current_thread() is tracer._main
            parent = stack[-1] if stack else (None if on_main else tracer._main_top)
            request = rid(args) if rid is not None else (parent[1] if parent else None)
            span_id = next(tracer._ids)
            frame = (span_id, request)
            stack.append(frame)
            saved_top = tracer._main_top
            if on_main:
                tracer._main_top = frame
            if gauge:
                with tracer._lock:
                    tracer._inflight[name] += 1
                    if tracer._inflight[name] > tracer.inflight_max[name]:
                        tracer.inflight_max[name] = tracer._inflight[name]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if gauge:
                    with tracer._lock:
                        tracer._inflight[name] -= 1
                stack.pop()
                if on_main:
                    tracer._main_top = saved_top
                tracer.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None, request)
                )
            if count is not None and count(result):
                with tracer._lock:
                    tracer.counts[name + ".hits"] += 1
            return result

        return traced

    def install(self, owner, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr``; for a module function, also rebind every
        confcal module attribute that holds the same object, so callers that
        imported it by name reach the wrapper too."""
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, **options)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.split(".")[0] == "confcal":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def by_name(self) -> dict[str, list[tuple]]:
        groups: dict[str, list[tuple]] = defaultdict(list)
        for span in self.spans:
            groups[span[1]].append(span)
        return groups

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result = {}
        for span_id, _, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result[span_id] = (end - start) - covered
        return result

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": round(start, 7),
                            "end": round(end, 7),
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
