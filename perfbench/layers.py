"""Per-layer metrics of the traced run, named after the program's modules.

Span times are seconds per workload operation (one join on the batch
workloads, one request on ``service_mixed``) and cover this process only;
set-up metrics (``setup.import_s``, ``index.bulk_load_s``,
``dynamic.open_s``) are per set-up.  Counters come from what the program
already reports (``CIJResult`` statistics, the disk's ``IOCounters`` and
``storage_stats()``, the executor's run report, update replies'
``batch_stats``), averaged per operation.  A layer a workload does not
reach reads 0, and so do the service's page counters: incremental
maintenance runs with I/O accounting suspended.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

from tracing import Tracer, aggregate, coverage, name_totals
from workloads import latencies_ms, median, p90, per_dataset_median, traced_pairs

#: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "setup.import_s": "s",
    "index.bulk_load_s": "s",
    "voronoi.leaf_cells_s": "s",
    "voronoi.candidate_cells_s": "s",
    "voronoi.cells_computed": "count",
    "voronoi.cells_reused": "count",
    "voronoi.reuse_ratio": "ratio",
    "voronoi.refinements": "count",
    "voronoi.points_examined": "count",
    "filter.s": "s",
    "filter.calls": "count",
    "filter.points_examined": "count",
    "filter.points_admitted": "count",
    "filter.entries_pruned_phi": "count",
    "filter.hit_ratio": "ratio",
    "nm.pipeline_self_s": "s",
    "mat.s": "s",
    "mat.page_accesses": "pages",
    "fm.partitions_s": "s",
    "fm.partitions": "count",
    "storage.read_s": "s",
    "storage.encode_s": "s",
    "storage.decode_s": "s",
    "storage.logical_reads": "count",
    "storage.physical_reads": "count",
    "storage.buffer_hit_ratio": "ratio",
    "storage.bytes_read": "B",
    "storage.bytes_written": "B",
    "storage.rpc_calls": "count",
    "storage.batch_rpcs": "count",
    "storage.pages_prefetched": "count",
    "storage.prefetch_hits": "count",
    "storage.stall_s": "s",
    "engine.units": "count",
    "engine.assign_wait_s": "s",
    "engine.node_ready_s": "s",
    "engine.unit_roundtrip_s": "s",
    "engine.unit_roundtrip_p90_ms": "ms",
    "engine.merge_s": "s",
    "engine.retries": "count",
    "engine.quarantined": "count",
    "dynamic.open_s": "s",
    "dynamic.apply_s": "s",
    "dynamic.window_s": "s",
    "dynamic.cells_invalidated": "count",
    "dynamic.pairs_emitted": "count",
    "dynamic.pairs_retracted": "count",
    "service.queue_wait_ms": "ms",
    "service.snapshot_s": "s",
    "service.rejected": "count",
    "service.update_p50_ms": "ms",
    "service.update_p90_ms": "ms",
    "service.window_p50_ms": "ms",
    "service.window_p90_ms": "ms",
    "service.read_p50_ms": "ms",
    "service.read_p90_ms": "ms",
    "join.page_accesses": "pages",
    "join.first_pair_pages": "pages",
    "trace.untraced_op_ms": "ms",
    "trace.traced_op_ms": "ms",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

#: per-layer span-time metric -> span name it totals.
_SPAN_TIMES = {
    "voronoi.leaf_cells_s": "voronoi.leaf_cells",
    "voronoi.candidate_cells_s": "voronoi.candidate_cells",
    "filter.s": "filter",
    "mat.s": "mat",
    "fm.partitions_s": "fm.partitions",
    "storage.read_s": "storage.read",
    "storage.encode_s": "storage.encode",
    "storage.decode_s": "storage.decode",
    "engine.assign_wait_s": "engine.assign",
    "engine.node_ready_s": "engine.node_ready",
    "engine.merge_s": "engine.merge",
    "dynamic.apply_s": "dynamic.apply",
    "dynamic.window_s": "dynamic.window",
    "service.snapshot_s": "service.pairs_payload",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _common(spans, ops: int, root: str) -> Dict[str, float]:
    """Span-derived metrics shared by every workload."""
    table = aggregate(spans)
    names = name_totals(table)
    zero = {"count": 0, "total_s": 0.0, "self_s": 0.0}
    out = {metric: names.get(span, zero)["total_s"] / ops for metric, span in _SPAN_TIMES.items()}
    out["filter.calls"] = names.get("filter", zero)["count"] / ops
    out["nm.pipeline_self_s"] = names.get("nm.pipeline", zero)["self_s"] / ops
    # Set-up bulk loads are the root-level ones, two trees per set-up (MAT
    # bulk-loads its Voronoi R-trees inside a join; those count under it).
    builds = table.get("index.bulk_load", zero)
    out["index.bulk_load_s"] = builds["total_s"] / max(1, builds["count"] // 2)
    opens = names.get("dynamic.open", zero)
    out["dynamic.open_s"] = _ratio(opens["total_s"], opens["count"])
    out["trace.coverage"] = coverage(spans, root)
    return out


def unit_roundtrips(spans) -> List[float]:
    """Seconds from each unit assignment to its result, per dispatcher thread."""
    by_thread = defaultdict(list)
    for span in spans:
        if span[1] in ("engine.assign", "engine.record") and span[5] is not None:
            by_thread[span[3]].append(span)
    trips = []
    for thread_spans in by_thread.values():
        assigned_at = None
        for span in sorted(thread_spans, key=lambda s: s[4]):
            if span[1] == "engine.assign":
                assigned_at = span[5]
            elif assigned_at is not None:
                trips.append(span[4] - assigned_at)
                assigned_at = None
    return trips


def batch_layers(method: str, setups, records, spans) -> Dict[str, float]:
    """Per-layer metrics from the records of a traced run's joins."""
    untraced = [r for r in records if r.phase == "untraced"]
    traced = [r for r in records if r.phase == "traced"]
    summaries = [r.summary for r in traced if r.ok]
    ops = max(1, len(traced))
    out = {name: 0.0 for name in PER_LAYER}
    out.update(_common(spans, ops, "op"))

    def mean(key: str) -> float:
        return sum(s[key] for s in summaries) / len(summaries) if summaries else 0.0

    reused, computed_p = mean("cells_reused"), mean("cells_computed_p")
    trips = unit_roundtrips(spans)
    out.update(
        {
            "setup.import_s": median([s["import_s"] for s in setups]),
            "voronoi.cells_computed": mean("cells_computed"),
            "voronoi.cells_reused": reused,
            "voronoi.reuse_ratio": _ratio(reused, reused + computed_p),
            "voronoi.refinements": mean("refinements"),
            "voronoi.points_examined": mean("cell_points_examined"),
            "filter.points_examined": mean("filter_points_examined"),
            "filter.points_admitted": mean("filter_points_admitted"),
            "filter.entries_pruned_phi": mean("filter_entries_pruned_phi"),
            "filter.hit_ratio": _ratio(mean("filter_true_hits"), mean("filter_candidates")),
            "mat.page_accesses": mean("mat_page_accesses"),
            "storage.logical_reads": mean("logical_reads"),
            "storage.physical_reads": mean("physical_reads"),
            "storage.buffer_hit_ratio": _ratio(mean("buffer_hits"), mean("logical_reads")),
            "storage.bytes_read": mean("bytes_read"),
            "storage.bytes_written": mean("bytes_written"),
            "storage.rpc_calls": mean("rpc_calls"),
            "storage.batch_rpcs": mean("batch_rpcs"),
            "storage.pages_prefetched": mean("pages_prefetched"),
            "storage.prefetch_hits": mean("prefetch_hits"),
            "storage.stall_s": mean("stall_s"),
            "engine.units": mean("units"),
            "engine.unit_roundtrip_s": sum(trips) / ops,
            "engine.unit_roundtrip_p90_ms": p90(trips) * 1000.0,
            "engine.retries": mean("retries"),
            "engine.quarantined": mean("quarantined"),
            "join.page_accesses": mean("page_accesses"),
            "join.first_pair_pages": mean("first_pair_pages"),
            "trace.untraced_op_ms": per_dataset_median(untraced, lambda r: r.seconds) * 1000.0,
            "trace.traced_op_ms": per_dataset_median(traced, lambda r: r.seconds) * 1000.0,
        }
    )
    # An FM work unit is one top-level partition of the synchronous traversal.
    out["fm.partitions"] = out["engine.units"] if method == "fm" else 0.0
    # Each traced join against the untraced join next to it, so drift of the
    # host's speed over the run cancels out.
    out["trace.overhead"] = median([t.seconds / u.seconds for u, t in traced_pairs(records)])
    return out


@contextmanager
def submit_timing(tracer: Tracer, samples: List[tuple]) -> Iterator[None]:
    """Time ``DatasetState.submit``: submit-to-completion and worker time.

    The submitted callable runs inside a ``service.worker_op`` span on the
    dataset's worker thread; its queue wait is the rest of the submit time.
    """
    from repro.service.server import DatasetState

    original = DatasetState.__dict__["submit"]

    async def submit(self, fn):
        worker = []

        def timed():
            context = tracer.span("service.worker_op")
            with context:
                result = fn()
            worker.append(context.duration)
            return result

        start = time.perf_counter()
        try:
            return await original(self, timed)
        finally:
            if worker:
                samples.append((time.perf_counter() - start, worker[0]))

    DatasetState.submit = submit
    try:
        yield
    finally:
        DatasetState.submit = original


def service_layers(
    setups: Sequence[Dict[str, float]],
    untraced: Sequence,
    traced: Sequence,
    submit_samples: Sequence[tuple],
    spans,
) -> Dict[str, float]:
    """Per-layer metrics from the untraced and traced service loops."""
    untraced_requests = [r for outcome in untraced for r in outcome.requests]
    traced_requests = [r for outcome in traced for r in outcome.requests]
    requests = max(1, len(traced_requests))
    out = {name: 0.0 for name in PER_LAYER}
    out.update(_common(spans, requests, "service.worker_op"))
    updates = [r.batch_stats for r in traced_requests if r.ok and r.kind == "update"]
    # The base of trace.overhead is the end-to-end latency_ms.
    all_untraced = [r.seconds * 1000.0 for r in untraced_requests if r.ok]
    all_traced = [r.seconds * 1000.0 for r in traced_requests if r.ok]
    out.update(
        {
            "setup.import_s": median([s["import_s"] for s in setups]),
            "dynamic.cells_invalidated": sum(u.get("cells_invalidated", 0) for u in updates) / requests,
            "dynamic.pairs_emitted": sum(u.get("pairs_emitted", 0) for u in updates) / requests,
            "dynamic.pairs_retracted": sum(u.get("pairs_retracted", 0) for u in updates) / requests,
            "service.queue_wait_ms": (
                sum(total - worker for total, worker in submit_samples) / len(submit_samples) * 1000.0
                if submit_samples
                else 0.0
            ),
            "service.rejected": float(
                sum(1 for r in traced_requests + untraced_requests if "overloaded" in r.error)
            ),
            "trace.untraced_op_ms": sum(all_untraced) / max(1, len(all_untraced)),
            "trace.traced_op_ms": sum(all_traced) / max(1, len(all_traced)),
        }
    )
    for kind in ("update", "window", "read"):
        values = latencies_ms(untraced_requests, kind)
        out[f"service.{kind}_p50_ms"] = median(values)
        out[f"service.{kind}_p90_ms"] = p90(values)
    out["trace.overhead"] = _ratio(out["trace.traced_op_ms"], out["trace.untraced_op_ms"])
    return out
