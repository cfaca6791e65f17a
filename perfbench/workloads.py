"""The benchmark's workloads: inputs from a seed, set-up, and measured ops.

Every workload treats the program as a library.  Inputs come from the
seed through the public generators (``WorkloadConfig.seed`` for the
batch joins, ``DatasetSpec.seed`` for the service), and the work goes
through ``build_workload`` + ``JoinEngine.run`` or through a
``JoinService`` driven by ``ServiceClient`` connections.
"""

from __future__ import annotations

import asyncio
import os
import random
import resource
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import JoinEngine, Point, WorkloadConfig, build_workload
from repro.service.client import ServiceClient
from repro.service.server import DatasetSpec, JoinService

from oracle import pairs_digest
from tracing import installed


#: Independent uniform pointset pairs a batch run joins, all derived from
#: the run's seed; joins cycle over them in rounds, so a run's figures
#: average over several inputs instead of resting on one draw.
DATASETS = 3
#: Closed-loop client connections of the service workload.
CLIENTS = 2
#: Side of the service's square window queries, in domain units (domain: 10000).
WINDOW_SIDE = 1000.0


@dataclass(frozen=True)
class BatchSpec:
    """One ``JoinEngine.run`` per operation, on ``DATASETS`` inputs of ``n`` a side."""

    name: str
    why: str
    method: str
    executor: str
    storage: str
    n: int
    engine_args: Dict[str, Any] = field(default_factory=dict)
    #: Build a new workload for every join instead of one per dataset.
    #: FM needs it: a join leaves its materialised Voronoi pages on the
    #: store, so a reused store grows with every run.
    fresh_workload: bool = False
    #: Set-up probes per run; ``setup_s`` is their median.
    setup_repeats: int = 5
    kind: str = "batch"

    def config(self, seed: int, dataset: int) -> WorkloadConfig:
        return WorkloadConfig(
            n_p=self.n, n_q=self.n, seed=seed * DATASETS + dataset, storage=self.storage
        )


#: The service loop is cut into this many equal time slices; its end-to-end
#: figures are medians over slices, so a burst of load from outside the
#: benchmark moves one slice, not the run's figure.
SLICES = 4


@dataclass(frozen=True)
class ServiceSpec:
    """A closed loop of clients against one warm ``JoinService`` dataset."""

    name: str
    why: str
    n: int
    setup_repeats: int = 3
    kind: str = "service"

    def dataset(self, seed: int) -> DatasetSpec:
        return DatasetSpec(name="default", n_p=self.n, n_q=self.n, seed=seed, storage="memory")


WORKLOADS: Dict[str, Any] = {
    spec.name: spec
    for spec in (
        BatchSpec(
            name="nm_serial",
            why="NM-CIJ serial on memory storage: the conditional filter and Voronoi "
            "cell computation do nearly all the work; no MAT, byte I/O or executor",
            method="nm",
            executor="serial",
            storage="memory",
            n=500,
        ),
        BatchSpec(
            name="fm_file",
            why="FM-CIJ on a file store with a 1-worker fork pool: MAT writes both "
            "Voronoi R-trees through the codec, the pool reads them back; no filter",
            method="fm",
            executor="sharded",
            storage="file",
            n=500,
            # One worker: the fork pool and its result merge run, but only
            # one process computes at a time, so the figures do not hinge
            # on a second core being free on a shared host.
            engine_args={"workers": 1},
            fresh_workload=True,
        ),
        BatchSpec(
            name="nm_distributed_remote",
            why="NM-CIJ on 2 node subprocesses over a spawned remote+file page server: "
            "the only path through node spawn, the unit coordinator and page RPC",
            method="nm",
            executor="distributed",
            storage="remote+file",
            n=500,
            engine_args={"nodes": 2},
            # Closing a spawned page server takes its full 2 s grace.
            setup_repeats=3,
        ),
        ServiceSpec(
            name="service_mixed",
            why="2 closed-loop clients on one JoinService dataset repeat window, update "
            "batch, join: the only path through incremental maintenance and requests",
            n=700,
        ),
    )
}


def prepare_environment(scratch: str) -> None:
    """Pin the program's environment so only the seed varies between runs.

    Temporary page files (and the page server's) go under ``scratch``;
    ``$REPRO_STORAGE``/``$REPRO_COMPUTE`` are dropped so every workload
    runs the backend it names with the default compute mode.
    """
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    for key in ("REPRO_STORAGE", "REPRO_COMPUTE"):
        os.environ.pop(key, None)


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def live_children_cpu() -> float:
    """CPU seconds of this process's live direct children (e.g. a page server).

    Read from ``/proc/<pid>/stat``; 0 where there is no ``/proc``.
    """
    me, ticks = os.getpid(), 0
    try:
        entries = os.listdir("/proc")
    except OSError:
        return 0.0
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # After "pid (comm) ": state, ppid, ..., utime and stime (fields 14, 15).
        fields = stat[stat.rindex(b")") + 2 :].split()
        if int(fields[1]) == me:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLOCK_TICKS


def cpu_seconds() -> float:
    """CPU time of this process, the children it reaped and its live children.

    A child reaped between two readings moves from the live share to the
    reaped one with its full time, so differences of readings stay exact.
    """
    total = live_children_cpu()
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
@dataclass
class BatchInputs:
    points_p: List[Point]
    points_q: List[Point]
    domain: Any


def open_batch(spec: BatchSpec, seed: int, dataset: int = 0):
    """Set-up for one join: points generated, store opened, trees loaded."""
    return build_workload(spec.config(seed, dataset))


def run_join(engine: JoinEngine, spec: BatchSpec, workload):
    return engine.run(
        spec.method,
        workload.tree_p,
        workload.tree_q,
        domain=workload.domain,
        executor=spec.executor,
        storage=spec.storage,
        **spec.engine_args,
    )


def _storage_delta(before, after) -> Dict[str, float]:
    extra_before, extra_after = before.extra, after.extra
    return {
        "bytes_read": after.bytes_read - before.bytes_read,
        "bytes_written": after.bytes_written - before.bytes_written,
        "pages_prefetched": after.pages_prefetched - before.pages_prefetched,
        "prefetch_hits": after.prefetch_hits - before.prefetch_hits,
        "stall_s": after.stall_time - before.stall_time,
        "rpc_calls": extra_after.get("rpc_calls", 0) - extra_before.get("rpc_calls", 0),
        "batch_rpcs": extra_after.get("batch_rpcs", 0) - extra_before.get("batch_rpcs", 0),
    }


def summarise_join(result, executor, workload, storage_before) -> Dict[str, Any]:
    """Everything a measured join reports, without keeping its pair list."""
    stats = result.stats
    count, digest = pairs_digest(result.pairs)
    first_pair = next(
        (s.page_accesses for s in stats.progress if s.pairs_reported > 0), 0
    )
    counters = workload.disk.counters
    assignments = getattr(executor, "last_assignments", None) or {}
    report = getattr(executor, "last_run_report", None) or {}
    cells, filt = result.cell_stats, result.filter_stats
    return {
        "count": count,
        "digest": digest,
        "page_accesses": stats.total_page_accesses,
        "first_pair_pages": first_pair,
        "mat_page_accesses": stats.mat_page_accesses,
        "cells_computed": stats.cells_computed_p + stats.cells_computed_q,
        "cells_computed_p": stats.cells_computed_p,
        "cells_reused": stats.cells_reused_p,
        "filter_candidates": stats.filter_candidates,
        "filter_true_hits": stats.filter_true_hits,
        "refinements": cells.refinements if cells else 0,
        "cell_points_examined": cells.points_examined if cells else 0,
        "filter_points_examined": filt.points_examined if filt else 0,
        "filter_points_admitted": filt.points_admitted if filt else 0,
        "filter_entries_pruned_phi": filt.entries_pruned_phi if filt else 0,
        "logical_reads": counters.logical_reads,
        "physical_reads": counters.reads,
        "buffer_hits": counters.buffer_hits,
        "units": sum(len(units) for units in assignments.values()),
        "retries": sum((report.get("retries") or {}).values()),
        "quarantined": len(report.get("quarantined") or {}),
        **_storage_delta(storage_before, workload.disk.storage_stats()),
    }


@dataclass
class OpRecord:
    dataset: int
    seconds: float
    ok: bool
    cpu_seconds: float = 0.0
    summary: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    #: In a traced run: "warm-up", "untraced" or "traced".
    phase: str = ""


@dataclass
class BatchRun:
    records: List[OpRecord]
    inputs: Dict[int, BatchInputs]
    #: Wall time of the join loop, per-join set-up included.
    seconds: float


def batch_ops(spec: BatchSpec, seed: int, seconds: float, tracer=None) -> BatchRun:
    """Run rounds of joins over the datasets until ``seconds`` have passed.

    One untimed warm-up join on the first dataset keeps lazy imports and
    first-use costs out of the measured joins.  Then at least one round
    runs, and a started round is finished.  Workloads are built
    outside the timed region, and each join starts from a cleared buffer
    and zeroed counters.

    With a ``tracer`` (the traced run) a round joins each dataset twice
    in a row, untraced and traced, with the wrappers installed around the
    traced join only.  Which of the pair runs first alternates from pair
    to pair, so host drift and the position after a change of dataset
    hit both bases alike.  Workloads are built with the wrappers
    installed, so their bulk loads are recorded.
    """
    engine = JoinEngine()
    records: List[OpRecord] = []
    inputs: Dict[int, BatchInputs] = {}
    kept: Dict[int, Any] = {}
    try:
        records.append(_one_join(engine, spec, seed, 0, inputs, kept, tracer, "warm-up"))
        start = time.perf_counter()
        deadline = start + seconds
        rounds = 0
        while not rounds or time.perf_counter() < deadline:
            rounds += 1
            for dataset in range(DATASETS):
                if tracer is None:
                    phases = ("",)
                elif (rounds * DATASETS + dataset) % 2:
                    phases = ("untraced", "traced")
                else:
                    phases = ("traced", "untraced")
                for phase in phases:
                    records.append(
                        _one_join(engine, spec, seed, dataset, inputs, kept, tracer, phase)
                    )
        loop_s = time.perf_counter() - start
    finally:
        # Closed side by side: closing a spawned page server waits out its
        # shutdown grace (see README), once per workload.
        with ThreadPoolExecutor(max_workers=DATASETS) as pool:
            closings = [pool.submit(w.close) for w in kept.values()]
        errors = [c.exception() for c in closings if c.exception() is not None]
        if errors:
            raise errors[0]
    return BatchRun(records, inputs, loop_s)


def measured(records: List[OpRecord]) -> List[OpRecord]:
    """The joins that feed the timings: all but the warm-up joins."""
    return [r for r in records if r.phase != "warm-up"]


def traced_pairs(records: List[OpRecord]) -> List[Tuple[OpRecord, OpRecord]]:
    """The (untraced, traced) join pairs of a traced run, both ok."""
    body = [r for r in records if r.phase in ("untraced", "traced")]
    pairs = []
    for first, second in zip(body[::2], body[1::2]):
        untraced, traced = (first, second) if first.phase == "untraced" else (second, first)
        if untraced.ok and traced.ok:
            pairs.append((untraced, traced))
    return pairs


def _one_join(engine, spec, seed, dataset, inputs, kept, tracer, phase) -> OpRecord:
    traced = phase == "traced"
    workload = kept.get(dataset)
    try:
        if workload is None:
            with nullcontext() if tracer is None else installed(tracer):
                workload = open_batch(spec, seed, dataset)
            if not spec.fresh_workload:
                kept[dataset] = workload
        else:
            workload.reset_measurement()
    except Exception as error:  # noqa: BLE001 - counted as a failed op
        return OpRecord(dataset, 0.0, False, error=f"set-up: {error!r}", phase=phase)
    try:
        inputs.setdefault(
            dataset, BatchInputs(workload.points_p, workload.points_q, workload.domain)
        )
        storage_before = workload.disk.storage_stats()
        with installed(tracer) if traced else nullcontext():
            cpu_start, start = cpu_seconds(), time.perf_counter()
            with tracer.op() if traced else nullcontext():
                result = run_join(engine, spec, workload)
            elapsed, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start
        summary = summarise_join(result, engine.last_executor, workload, storage_before)
        return OpRecord(dataset, elapsed, True, cpu, summary, phase=phase)
    except Exception as error:  # noqa: BLE001 - counted as a failed op
        return OpRecord(dataset, 0.0, False, error=repr(error), phase=phase)
    finally:
        if spec.fresh_workload:
            workload.close()


def per_dataset_median(records: List[OpRecord], value: Callable[[OpRecord], float]) -> float:
    """Mean over datasets of the median of ``value`` on that dataset's joins."""
    by_dataset: Dict[int, List[float]] = {}
    for record in records:
        if record.ok:
            by_dataset.setdefault(record.dataset, []).append(value(record))
    medians = [median(values) for values in by_dataset.values()]
    return sum(medians) / len(medians) if medians else 0.0


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
@dataclass
class Request:
    kind: str
    seconds: float
    ok: bool
    #: ``time.perf_counter()`` when the reply arrived.
    done_at: float = 0.0
    error: str = ""
    #: ``batch_stats`` of an update reply (the maintenance counters).
    batch_stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class ServiceOutcome:
    requests: List[Request]
    #: Per time slice of the loop: (seconds, CPU seconds, latencies in
    #: seconds of the requests that completed ok in it).
    slices: List[Tuple[float, float, List[float]]]
    #: Served pairs of a final ``join`` and the point sets they must match.
    final_pairs: Optional[List[Tuple[int, int]]]
    live: Dict[str, Dict[int, Point]]
    domain: Any


class _MixedClient:
    """One closed-loop client: window query, update batch, join, repeat.

    Updates touch only oids this client owns (base oids ``oid % clients ==
    index`` plus the ones it inserted), so any interleaving of the clients
    is a valid history; every batch inserts one point and deletes one point
    on one side (P and Q alternate), keeping the dataset size constant.
    """

    def __init__(self, index: int, spec: ServiceSpec, seed: int, shared: Dict[str, Any]):
        self.index = index
        self.spec = spec
        self.rng = random.Random(f"{seed}:{index}")
        self.shared = shared
        n_clients = CLIENTS
        self.owned = {
            side: [oid for oid in sorted(points) if oid % n_clients == index]
            for side, points in shared["live"].items()
        }
        self.next_oid = {
            side: max(points) + 1 + index for side, points in shared["live"].items()
        }
        self.batches = index

    def _fresh_point(self, side: str) -> Point:
        domain, taken = self.shared["domain"], self.shared["taken"][side]
        while True:
            point = Point(
                round(self.rng.uniform(domain.xmin, domain.xmax), 4),
                round(self.rng.uniform(domain.ymin, domain.ymax), 4),
            )
            if (point.x, point.y) not in taken:
                taken.add((point.x, point.y))
                return point

    def next_update(self) -> Tuple[List[str], List[Tuple[str, str, int, Point]]]:
        side = "PQ"[self.batches % 2]
        self.batches += 1
        oid = self.next_oid[side]
        self.next_oid[side] += CLIENTS
        point = self._fresh_point(side)
        owned = self.owned[side]
        victim = owned.pop(self.rng.randrange(len(owned)))
        owned.append(oid)
        lines = [f"insert {side} {oid} {point.x!r} {point.y!r}", f"delete {side} {victim}"]
        changes = [("insert", side, oid, point), ("delete", side, victim, None)]
        return lines, changes

    def next_window(self) -> List[float]:
        domain, side = self.shared["domain"], WINDOW_SIDE
        x = self.rng.uniform(domain.xmin, domain.xmax - side)
        y = self.rng.uniform(domain.ymin, domain.ymax - side)
        return [x, y, x + side, y + side]

    def apply(self, changes) -> None:
        live, taken = self.shared["live"], self.shared["taken"]
        for op, side, oid, point in changes:
            if op == "insert":
                live[side][oid] = point
            else:
                gone = live[side].pop(oid)
                taken[side].discard((gone.x, gone.y))


def latencies_ms(requests: List[Request], kind: str) -> List[float]:
    return [r.seconds * 1000.0 for r in requests if r.ok and r.kind == kind]


async def _timed(client: ServiceClient, kind: str, payload: Dict[str, Any], out: List[Request]):
    start = time.perf_counter()
    try:
        reply = await client.request(payload)
    except Exception as error:  # noqa: BLE001 - counted as a failed request
        now = time.perf_counter()
        out.append(Request(kind, now - start, False, now, error=repr(error)))
        return None
    now = time.perf_counter()
    ok = bool(reply.get("ok"))
    out.append(
        Request(
            kind,
            now - start,
            ok,
            now,
            error="" if ok else str(reply.get("error")),
            batch_stats=reply.get("batch_stats", {}) if ok else {},
        )
    )
    return reply if ok else None


async def _client_loop(client, mixed: _MixedClient, deadline: float, out: List[Request]):
    while time.perf_counter() < deadline:
        await _timed(client, "window", {"op": "window", "window": mixed.next_window()}, out)
        lines, changes = mixed.next_update()
        if await _timed(client, "update", {"op": "update", "updates": lines}, out) is not None:
            mixed.apply(changes)
        await _timed(client, "read", {"op": "join"}, out)


def base_points(spec: ServiceSpec, seed: int):
    """The dataset the service bootstraps from, as (live points, domain)."""
    dataset = spec.dataset(seed)
    workload = build_workload(
        WorkloadConfig(n_p=dataset.n_p, n_q=dataset.n_q, seed=dataset.seed, storage="memory")
    )
    try:
        live = {
            "P": dict(enumerate(workload.points_p)),
            "Q": dict(enumerate(workload.points_q)),
        }
        return live, workload.domain
    finally:
        workload.close()


async def start_service(spec: ServiceSpec, seed: int) -> Tuple[JoinService, str, int]:
    service = JoinService([spec.dataset(seed)])
    host, port = await service.start()
    return service, host, port


async def _shutdown(service: JoinService, clients: List[ServiceClient]) -> None:
    for client in clients:
        await client.close()
    # Let the server's connection handlers see the disconnects and finish
    # before the server closes under them.
    await asyncio.sleep(0.05)
    await service.close()


async def service_run(spec: ServiceSpec, seed: int, seconds: float, base) -> ServiceOutcome:
    """Bootstrap a service, drive the closed loop for ``seconds``, read back.

    ``base`` is :func:`base_points`' result; it is copied, not modified.
    """
    live, domain = {side: dict(points) for side, points in base[0].items()}, base[1]
    shared = {
        "live": live,
        "domain": domain,
        "taken": {side: {(p.x, p.y) for p in pts.values()} for side, pts in live.items()},
    }
    service, host, port = await start_service(spec, seed)
    clients: List[ServiceClient] = []
    requests: List[Request] = []
    try:
        for _ in range(CLIENTS):
            clients.append(await ServiceClient.connect(host, port))
        await clients[0].request_ok({"op": "join"})  # warm the read path
        mixed = [_MixedClient(i, spec, seed, shared) for i in range(CLIENTS)]
        start = time.perf_counter()
        marks = [(start, cpu_seconds())]

        async def slicer() -> None:
            for index in range(1, SLICES):
                await asyncio.sleep(max(0.0, start + seconds * index / SLICES - time.perf_counter()))
                marks.append((time.perf_counter(), cpu_seconds()))

        await asyncio.gather(
            slicer(),
            *(_client_loop(c, m, start + seconds, requests) for c, m in zip(clients, mixed)),
        )
        marks.append((time.perf_counter(), cpu_seconds()))
        slices = [
            (
                b[0] - a[0],
                b[1] - a[1],
                [r.seconds for r in requests if r.ok and a[0] <= r.done_at < b[0]],
            )
            for a, b in zip(marks, marks[1:])
        ]
        final = await clients[0].request({"op": "join"})
        final_pairs = [tuple(pair) for pair in final["pairs"]] if final.get("ok") else None
        return ServiceOutcome(requests, slices, final_pairs, live, domain)
    finally:
        await _shutdown(service, clients)


def reference_pairs(live: Dict[str, Dict[int, Point]], domain) -> List[Tuple[int, int]]:
    """A from-scratch serial NM-CIJ over the final point sets, in oids."""
    oids = {side: sorted(points) for side, points in live.items()}
    workload = build_workload(
        WorkloadConfig(storage="memory", domain=domain),
        points_p=[live["P"][oid] for oid in oids["P"]],
        points_q=[live["Q"][oid] for oid in oids["Q"]],
    )
    try:
        result = JoinEngine().run("nm", workload.tree_p, workload.tree_q, domain=domain)
    finally:
        workload.close()
    return [(oids["P"][p], oids["Q"][q]) for p, q in result.pairs]


# ----------------------------------------------------------------------
# set-up as one process sees it (used by the set-up probe)
# ----------------------------------------------------------------------
def ready(name: str, seed: int, n: int, dataset: int = 0) -> Callable[[], None]:
    """Bring workload ``name`` (at size ``n``) to ready; returns its teardown."""
    spec = replace(WORKLOADS[name], n=n)
    if spec.kind == "batch":
        workload = open_batch(spec, seed, dataset)
        return workload.close

    loop = asyncio.new_event_loop()

    async def up():
        service, host, port = await start_service(spec, seed)
        client = await ServiceClient.connect(host, port)
        await client.request_ok({"op": "join"})
        return service, client

    service, client = loop.run_until_complete(up())

    def teardown() -> None:
        loop.run_until_complete(_shutdown(service, [client]))
        loop.close()

    return teardown
