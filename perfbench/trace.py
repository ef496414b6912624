"""In-memory spans around the public methods of the objects a pass builds.

The program carries no tracing code: :meth:`Tracer.wrap` replaces
methods on *instances* with timing wrappers, so calls the program makes
through ``self.method(...)`` are traced too.  Each span records its name,
layer, start, end and parent; a layer's self time is its spans'
durations minus the time their direct child spans cover.  Every span
belongs to the root span of the benchmark operation (edit, commit, read,
query, sql) that caused it, so per-layer figures are divided by the
number of operations of that kind.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (name, layer, start, end, parent index; -1 for a root)
Span = Tuple[str, str, float, float, int]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, counters: Callable[[], Dict[str, int]]) -> None:
        #: returns the program's own counters (renumbers, scans, plan-cache
        #: hits, rows examined); deltas are attributed per operation kind
        self._counters = counters
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self.rows: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counter_deltas: Dict[Tuple[str, str], int] = defaultdict(int)
        self.rows_examined = 0
        self._root_kind = ""

    # -- recording -------------------------------------------------------
    def _enter(self, name: str, layer: str) -> Tuple[int, float]:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, perf_counter()

    def _exit(self, index: int, name: str, layer: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, layer, start, end, parent)

    def root(self, kind: str, fn: Callable, *args):
        """Run one benchmark operation as a root span."""
        before = self._counters()
        self._root_kind = kind
        index, start = self._enter(kind, "op")
        try:
            return fn(*args)
        finally:
            self._exit(index, kind, "op", start)
            after = self._counters()
            for key, value in after.items():
                self.counter_deltas[(kind, key)] += value - before.get(key, 0)

    def wrap_function(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            index, start = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index, name, layer, start)
            if isinstance(result, list):
                tracer.rows[(tracer._root_kind, name)] += len(result)
            return result

        return traced

    def wrap(self, obj: object, layer: str, methods: Iterable[str]) -> None:
        cls = type(obj).__name__
        for method in methods:
            setattr(obj, method, self.wrap_function(getattr(obj, method), f"{cls}.{method}", layer))

    def count_rows(self, table: object, methods: Iterable[str]) -> None:
        """Count the rows ``table``'s access paths hand out (rows examined)."""
        tracer = self
        for method in methods:
            fn = getattr(table, method)

            def counted(*args, _fn=fn, **kwargs):
                result = _fn(*args, **kwargs)
                if result is None:
                    return None
                if isinstance(result, tuple):  # lookup_pk: one (rowid, row)
                    tracer.rows_examined += 1
                    return result
                return tracer._counting(result)

            setattr(table, method, counted)

    def _counting(self, rows):
        for row in rows:
            self.rows_examined += 1
            yield row

    # -- aggregation -----------------------------------------------------
    def summary(self) -> Dict[str, dict]:
        """Totals keyed by (root kind, span name): ``self_s``, ``total_s``,
        ``calls``, ``rows`` (list results' lengths) and ``deltas`` (counter
        deltas, keyed by (root kind, counter)); ``roots`` counts root spans
        per kind."""
        child_time = [0.0] * len(self.spans)
        root_of = [0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            _name, _layer, start, end, parent = span
            root_of[index] = index if parent < 0 else root_of[parent]
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        total_s: Dict[Tuple[str, str], float] = defaultdict(float)
        calls: Dict[Tuple[str, str], int] = defaultdict(int)
        roots: Dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, _layer, start, end, parent = span
            if parent < 0:
                roots[name] += 1
            kind = self.spans[root_of[index]][0]
            key = (kind, name)
            self_s[key] += end - start - child_time[index]
            total_s[key] += end - start
            calls[key] += 1
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "roots": dict(roots),
            "rows": dict(self.rows),
            "deltas": dict(self.counter_deltas),
        }

    def dump(self, path: str, limit: int = 200_000) -> None:
        """Write the first ``limit`` spans as JSON."""
        spans = [
            {"name": name, "layer": layer, "start": start, "end": end, "parent": parent}
            for name, layer, start, end, parent in (s for s in self.spans[:limit] if s is not None)
        ]
        with open(path, "w") as handle:
            json.dump({"spans": spans, "dropped": max(0, len(self.spans) - limit)}, handle)
