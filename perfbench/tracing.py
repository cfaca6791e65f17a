"""Span recording for the traced benchmark run.

The benchmark times a layer by wrapping that layer's public functions
where they are looked up: every ``repro.*`` module attribute bound to the
function object (so ``from x import f`` aliases are covered too), or the
method on its class.  Each wrapped call records one span -- name, start,
end, thread and parent span -- in memory; :func:`aggregate` turns the span
list into count / total / self time per span path when the run ends.

Parenting follows the calling thread's stack of open spans.  A span opened
on a thread with no open span (the executor's dispatcher threads, the
service worker) is adopted by the benchmark's current *op* span, so work a
join hands to helper threads still counts towards that join.

Only code running in this process is seen: fork-pool workers inherit the
wrappers but their spans die with them, and node subprocesses start clean.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (span name, module, attribute) of every wrapped layer entry point.  An
#: attribute ``Class.method`` is wrapped on the class.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("index.bulk_load", "repro.index.bulkload", "bulk_load_points"),
    ("voronoi.leaf_cells", "repro.voronoi.batch", "compute_cells_for_leaf"),
    ("voronoi.candidate_cells", "repro.voronoi.batch", "compute_voronoi_cells"),
    ("filter", "repro.join.conditional_filter", "batch_conditional_filter"),
    ("nm.pipeline", "repro.join.nm_cij", "process_q_leaves"),
    ("mat", "repro.join.materialize", "materialize_voronoi_rtree"),
    ("fm.partitions", "repro.join.fm_cij", "join_partitions"),
    ("storage.read", "repro.storage.disk", "DiskManager.read"),
    ("storage.encode", "repro.storage.codec", "encode_page_payload"),
    ("storage.decode", "repro.storage.codec", "decode_page_payload"),
    ("engine.assign", "repro.engine.coordinator", "UnitCoordinator.next_assignment"),
    ("engine.record", "repro.engine.coordinator", "UnitCoordinator.record_result"),
    ("engine.merge", "repro.engine.coordinator", "UnitCoordinator.merge"),
    ("engine.node_ready", "repro.engine.node", "NodeProcess.wait_ready"),
    ("dynamic.open", "repro.dynamic.maintenance", "DynamicJoinSession.__init__"),
    ("dynamic.apply", "repro.dynamic.maintenance", "DynamicJoinSession.apply_updates"),
    ("dynamic.window", "repro.dynamic.maintenance", "DynamicJoinSession.window_pairs"),
    ("service.pairs_payload", "repro.service.protocol", "pairs_payload"),
)

#: A span: [id, name, parent id or None, thread ident, start, end].
Span = List


class Tracer:
    """Collects spans from any thread; ``spans`` is the in-memory record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: Optional[int] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1][0] if stack else self._op
        span = [next(self._ids), name, parent, threading.get_ident(), time.perf_counter(), None]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span[5] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name, op=False)

    def op(self, name: str = "op") -> "_SpanContext":
        """A root span that adopts spans opened on helper threads."""
        return _SpanContext(self, name, op=True)

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, op: bool):
        self.tracer = tracer
        self.name = name
        self.is_op = op
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.tracer.begin(self.name)
        if self.is_op:
            self.tracer._op = self.span[0]
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.span)
        if self.is_op:
            self.tracer._op = None

    @property
    def duration(self) -> float:
        return self.span[5] - self.span[4]


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every entry point of ``LAYER_TARGETS``; restore them on exit."""
    restore: List[Tuple[object, str, object]] = []
    try:
        for name, module_name, attr in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".", 1)
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                setattr(owner, method, tracer.wrap(original, name))
                restore.append((owner, method, original))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        restore.append((mod, key, original))
        yield
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Count, total and self seconds per span path (``a/b/c``).

    Self time is a span's duration minus the part of its interval covered
    by its child spans (overlapping children, e.g. on two dispatcher
    threads, are counted once).  Spans still open are ignored.
    """
    closed = [span for span in spans if span[5] is not None]
    by_id = {span[0]: span for span in closed}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in closed:
        if span[2] in by_id:
            children.setdefault(span[2], []).append((span[4], span[5]))
    paths: Dict[int, str] = {}

    def path_of(span: Span) -> str:
        cached = paths.get(span[0])
        if cached is None:
            parent = by_id.get(span[2])
            cached = span[1] if parent is None else f"{path_of(parent)}/{span[1]}"
            paths[span[0]] = cached
        return cached

    table: Dict[str, Dict[str, float]] = {}
    for span in closed:
        start, end = span[4], span[5]
        covered = _union_length(
            [(max(a, start), min(b, end)) for a, b in children.get(span[0], ()) if b > start and a < end]
        )
        row = table.setdefault(path_of(span), {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered
    return table


def name_totals(table: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Fold a path table by span name (a name nested in itself counts once)."""
    totals: Dict[str, Dict[str, float]] = {}
    for path, row in table.items():
        parts = path.split("/")
        name = parts[-1]
        row_total = totals.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row_total["count"] += row["count"]
        row_total["self_s"] += row["self_s"]
        if name not in parts[:-1]:
            row_total["total_s"] += row["total_s"]
    return totals


def coverage(spans: Sequence[Span], root_name: str) -> float:
    """Share of the ``root_name`` spans' time covered by their child spans."""
    table = aggregate(spans)
    total = sum(row["total_s"] for path, row in table.items() if path == root_name)
    own = sum(row["self_s"] for path, row in table.items() if path == root_name)
    return (total - own) / total if total > 0 else 0.0
