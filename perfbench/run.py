"""Wall-clock benchmark of the CIJ engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` is the separate traced run
that reports the per-layer metrics (see ``layers.py``).  Either way every
operation's answer is checked, human-readable lines go to stdout, and the
last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 only when every operation succeeded and every answer
matched; 2 means the program could not be loaded at all.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Everything the benchmark writes (page files, oracle cache, span dumps).
SCRATCH = os.path.join(ROOT, ".perfbench_out")

#: name -> unit of the end-to-end metrics (``--trace 0``).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_per_op_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The service loops of a traced run, and which of them have the layer
#: wrappers installed.  The ABBA order gives both bases of
#: ``trace.overhead`` the same share of early and late requests.
TRACED_SERVICE_LOOPS = (False, True, True, False)


def load_program() -> None:
    """Put ``src/`` on the path and import the package, or exit with 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {src}: {error}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def probe_setups(spec, seed: int, repeats: int) -> List[Dict[str, float]]:
    """Time ``repeats`` fresh processes from start to ready (see probe.py)."""
    from workloads import DATASETS

    probes = []
    for index in range(repeats):
        command = [sys.executable, os.path.join(HERE, "probe.py"), spec.name]
        command += [str(seed), str(spec.n), str(index % DATASETS), SCRATCH]
        start = time.perf_counter()
        process = subprocess.Popen(
            command,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        try:
            line = process.stdout.readline()
            wall = time.perf_counter() - start
            process.stdout.read()
        finally:
            process.stdout.close()
            code = process.wait(timeout=120)
        try:
            report = json.loads(line)
        except ValueError:
            report = {}
        if code != 0 or not report.get("ready"):
            raise RuntimeError(f"set-up probe for {spec.name} failed (exit code {code})")
        probes.append({"wall_s": wall, "import_s": report["import_s"]})
    return probes


def peak_rss_mb() -> float:
    """Max RSS of this process and of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def say(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload}  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def dump_trace(name: str, seed: int, spans) -> str:
    from tracing import aggregate

    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, f"trace-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "span_fields": ["id", "name", "parent", "thread", "start", "end"],
                "spans": spans,
                "paths": aggregate(spans),
            },
            handle,
        )
    return path


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def check_batch(records, inputs) -> Tuple[int, List[str]]:
    """Compare every join with the brute-force oracle; returns (failed, why)."""
    from oracle import reference_digest

    problems = [f"join raised: {r.error}" for r in records if not r.ok]
    expected = {
        dataset: reference_digest(
            data.points_p, data.points_q, data.domain, os.path.join(SCRATCH, "oracle")
        )
        for dataset, data in inputs.items()
    }
    for record in records:
        got = (record.summary.get("count"), record.summary.get("digest"))
        want = expected.get(record.dataset)
        if record.ok and got != want:
            record.ok = False
            problems.append(
                f"dataset {record.dataset}: pairs differ from the brute-force oracle: "
                f"{got[0]} pairs (digest {str(got[1])[:12]}) vs {want[0]} ({want[1][:12]})"
            )
    return sum(1 for r in records if not r.ok), problems


def batch_end_to_end(spec, seed: int, seconds: float):
    from workloads import DATASETS, batch_ops, measured, median, per_dataset_median

    setups = probe_setups(spec, seed, spec.setup_repeats)
    run = batch_ops(spec, seed, seconds)
    rss = peak_rss_mb()
    failed, problems = check_batch(run.records, run.inputs)
    records = measured(run.records)
    good = [r for r in records if r.ok]
    join_ms = per_dataset_median(records, lambda r: r.seconds * 1000.0)
    metrics = {
        "setup_s": median([s["wall_s"] for s in setups]),
        "latency_ms": join_ms,
        "ops_per_s": len(good) / run.seconds,
        "cpu_per_op_ms": per_dataset_median(records, lambda r: r.cpu_seconds * 1000.0),
        "peak_rss_mb": rss,
    }
    name, joins = spec.name, f"{len(good)} timed joins over {DATASETS} datasets of n={spec.n}"
    say(name, "setup_s", metrics["setup_s"], "s", f"median of {len(setups)} fresh processes")
    say(name, "join_s", join_ms / 1000.0, "s", f"mean of per-dataset medians; {joins}")
    say(name, "latency_ms", join_ms, "ms", "the same, in ms")
    loop_note = f"joins per second over the {run.seconds:.1f} s loop, per-join set-up included"
    say(name, "ops_per_s", metrics["ops_per_s"], "1/s", loop_note)
    say(name, "cpu_per_op_ms", metrics["cpu_per_op_ms"], "ms", "per join, with child processes")
    for key, note in (
        ("page_accesses", "JoinStats.total_page_accesses"),
        ("first_pair_pages", "page accesses when the first pair was reported"),
    ):
        say(name, key, per_dataset_median(records, lambda r: r.summary[key]), "pages", note)
    say(name, "peak_rss_mb", rss, "MB", "this process and its largest child")
    attempted = len(run.records)
    note = f"{failed} of {attempted} joins, warm-up included"
    say(name, "error_rate", failed / attempted, "ratio", note)
    return metrics, attempted, failed, problems


def batch_traced(spec, seed: int, seconds: float):
    from layers import batch_layers
    from tracing import Tracer
    from workloads import batch_ops

    setups = probe_setups(spec, seed, 2)
    tracer = Tracer()
    run = batch_ops(spec, seed, seconds, tracer)
    failed, problems = check_batch(run.records, run.inputs)
    metrics = batch_layers(spec.method, setups, run.records, tracer.spans)
    path = dump_trace(spec.name, seed, tracer.spans)
    print(f"{spec.name}  spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return metrics, len(run.records), failed, problems


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
def check_service(outcome) -> Tuple[int, int, List[str]]:
    """Every reply ok, and the final served pairs equal a fresh join's."""
    from workloads import reference_pairs

    problems = [f"{r.kind} failed: {r.error}" for r in outcome.requests if not r.ok]
    failed = len(problems)
    expected = set(reference_pairs(outcome.live, outcome.domain))
    served = set(outcome.final_pairs) if outcome.final_pairs is not None else None
    if served != expected:
        failed += 1
        problems.append(
            "final served pairs differ from a from-scratch join: "
            f"{'no reply' if served is None else len(served)} vs {len(expected)}"
        )
    return len(outcome.requests) + 1, failed, problems


def service_end_to_end(spec, seed: int, seconds: float):
    from workloads import CLIENTS, base_points, latencies_ms, median, p90, service_run

    setups = probe_setups(spec, seed, spec.setup_repeats)
    outcome = asyncio.run(service_run(spec, seed, seconds, base_points(spec, seed)))
    rss = peak_rss_mb()
    attempted, failed, problems = check_service(outcome)
    slices = [s for s in outcome.slices if s[2]]
    metrics = {
        "setup_s": median([s["wall_s"] for s in setups]),
        "latency_ms": median([sum(done) / len(done) * 1000.0 for _, _, done in slices]),
        "ops_per_s": median([len(done) / secs for secs, _, done in slices]),
        "cpu_per_op_ms": median([cpu / len(done) * 1000.0 for _, cpu, done in slices]),
        "peak_rss_mb": rss,
    }
    name = spec.name
    say(name, "setup_s", metrics["setup_s"], "s", f"median of {len(setups)} fresh processes")
    for kind in ("update", "window", "read"):
        values = latencies_ms(outcome.requests, kind)
        say(name, f"{kind}_p50_ms", median(values), "ms", f"{len(values)} requests")
        say(name, f"{kind}_p90_ms", p90(values), "ms", f"{len(values)} requests")
    slices_note = f"median of {len(slices)} time slices; {CLIENTS} closed-loop clients"
    say(name, "latency_ms", metrics["latency_ms"], "ms", f"mean request latency, {slices_note}")
    say(name, "ops_per_s", metrics["ops_per_s"], "1/s", slices_note)
    say(name, "cpu_per_op_ms", metrics["cpu_per_op_ms"], "ms", "per request, server and clients")
    say(name, "peak_rss_mb", rss, "MB", "this process (server in-process) and its largest child")
    say(name, "error_rate", failed / attempted, "ratio", f"{failed} of {attempted} operations")
    return metrics, attempted, failed, problems


def service_traced(spec, seed: int, seconds: float):
    from layers import service_layers, submit_timing
    from tracing import Tracer, installed
    from workloads import base_points, service_run

    setups = probe_setups(spec, seed, 2)
    base = base_points(spec, seed)
    tracer = Tracer()
    samples: List[tuple] = []
    untraced, traced = [], []
    loop_s = seconds / len(TRACED_SERVICE_LOOPS)
    for with_wrappers in TRACED_SERVICE_LOOPS:
        if with_wrappers:
            with installed(tracer), submit_timing(tracer, samples):
                traced.append(asyncio.run(service_run(spec, seed, loop_s, base)))
        else:
            untraced.append(asyncio.run(service_run(spec, seed, loop_s, base)))
    attempted, failed, problems = 0, 0, []
    for outcome in untraced + traced:
        a, f, p = check_service(outcome)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    metrics = service_layers(setups, untraced, traced, samples, tracer.spans)
    path = dump_trace(spec.name, seed, tracer.spans)
    print(f"{spec.name}  spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workloads.prepare_environment(SCRATCH)
    runners = {
        ("batch", 0): batch_end_to_end,
        ("batch", 1): batch_traced,
        ("service", 0): service_end_to_end,
        ("service", 1): service_traced,
    }
    metrics, attempted, failed, problems = runners[spec.kind, args.trace](
        spec, args.seed, args.seconds
    )
    if args.trace:
        from layers import PER_LAYER as units

        for key, unit in units.items():
            say(spec.name, key, metrics[key], unit)
    else:
        units = END_TO_END
    for problem in problems[:20]:
        print(f"{spec.name}  FAILED: {problem}", file=sys.stderr)
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": float(metrics[key]), "unit": unit} for key, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
