#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root, appending to the ``command`` of
``BENCHMARK.json`` (which fixes ``--serve-rate`` and ``--slo-ms``)::

    python3 perfbench/run.py --serve-rate 1.2 --slo-ms 1000 --workload spell-serve --seed 1 --seconds 60 --trace 0

Workloads: ``digits-knn``, ``spell-serve``
(see ``workloads.py``).  The library is imported from ``src/`` next to
this directory.  The run refuses to start when any ``REPRO_*`` knob is
set, so every measurement is of the library defaults.

``--trace 0`` measures the end-to-end metrics with the library untouched.
``--trace 1`` measures the same work twice -- untraced, then with span
wrappers on every layer (``layers.py``) -- and reports the per-layer
metrics plus the tracing overhead between the two.

End-to-end metrics, on every workload:

* ``setup_s`` -- median, over several set-ups in the run, of the time
  until the system has answered its first request: index build (or warm
  start from the artifact store) including interning, pool spawn and
  the first shard publish.
* ``queries_per_s`` / ``pairs_per_s`` -- answered queries and the
  distance evaluations their searches made per second: for digits-knn,
  the median over its 100-query calls, each timed without the think
  time after it; for spell-serve, over the schedule's span.
* ``latency_p50_ms`` / ``latency_tail_ms`` -- per request, timed from
  when it was due.  The tail is the highest percentile with at least ten
  samples beyond it; the record line gives that percentile and the
  sample count.  On spell-serve the request is a sentence: it is due at
  its scheduled arrival and done when the last of its lookups is
  answered, and both figures are taken over every sentence of the
  schedule (72 at 1.2 sentences/s for 60 s, so the tail is p86.1).  The
  lookups of one sentence are coalesced into one batch and share its
  latency, so counted per lookup, the ten samples beyond the tail would
  come from one or two sentences.  On digits-knn the request is a
  100-query call, due when it was issued.  Both figures are taken per
  round over the queries of its calls, and the medians over the rounds
  are reported: a tail pooled over the run would be the single slowest
  call.
* ``slo_met_ratio`` -- share of attempted lookups answered within
  ``--slo-ms`` of their due time (spell-serve; refused, shed and failed
  lookups are misses).  Batch callers wait for their whole call and have
  no limit, so there it is the share of attempted queries answered.
* ``recall_at_k`` -- share of ``ExhaustiveIndex``'s neighbours returned.
* ``peak_rss_mb`` -- peak resident memory of this process plus its
  largest pool worker.

The error ratio is ``failed / attempted`` of the result line.  Every
check runs outside the timed phases; any mismatch prints the result
with ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: The spell-serve generator may fall this far behind a sentence's due
#: time before the run is declared invalid.
MAX_LATENESS_S = 0.25

#: Declares the metrics a run reports, with their units: ``end_to_end``
#: untraced, ``per_layer`` traced.
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--serve-rate",
        type=float,
        required=True,
        help="spell-serve sentence arrivals per second",
    )
    parser.add_argument(
        "--slo-ms", type=float, required=True, help="spell-serve latency limit"
    )
    return parser.parse_args(argv)


def timed_rounds(workload: Any, budget_s: float, count: Optional[int] = None) -> List[Any]:
    """Rounds until *count* are done, or until another would end more than
    half a round past *budget_s* (always at least one)."""
    from measure import median

    rounds: List[Any] = []
    started = time.perf_counter()
    while True:
        rounds.append(workload.round(len(rounds)))
        if count is not None:
            if len(rounds) >= count:
                return rounds
            continue
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * median([r.seconds for r in rounds]) > budget_s:
            return rounds


def busy_s(rounds: List[Any]) -> float:
    """Time spent inside the rounds' calls, leaving out the think time."""
    return sum(secs for r in rounds for _, secs, _ in r.calls)


def time_setups(reps: int, setup: Any) -> List[float]:
    from environment import reset_runtime

    times = []
    for _ in range(reps):
        reset_runtime()
        started = time.perf_counter()
        setup()
        times.append(time.perf_counter() - started)
    return times


def latency_metrics(latencies: List[float], record: Dict[str, Any]) -> Dict[str, float]:
    from measure import median, tail_percentile

    percentile, tail, n = tail_percentile(latencies)
    record["tail"] = {"percentile": percentile, "samples": n}
    return {"latency_p50_ms": median(latencies) * 1e3, "latency_tail_ms": tail * 1e3}


def round_latency_metrics(
    rounds: List[List[float]], record: Dict[str, Any]
) -> Dict[str, float]:
    """Latency p50 and tail of each round's queries, and the median of
    each over the rounds."""
    from measure import median

    per_round = [latency_metrics(latencies, record) for latencies in rounds]
    record["tail"]["rounds"] = len(per_round)
    return {name: median([m[name] for m in per_round]) for name in per_round[0]}


class TracedRun:
    """Span wrappers on every layer (``layers.py``) for the ``with`` body.

    The caller runs its set-up inside ``phase("setup")`` and its replay
    inside :meth:`replay`, which also reads the pool's ring and
    degradation counters around it; :meth:`metrics` then gives the
    per-layer metrics."""

    def __init__(self) -> None:
        import layers
        from spans import Tracer

        self.tracer = Tracer()
        self.instrumentation = layers.Instrumentation(self.tracer)
        self.deltas: Dict[str, Any] = {}

    def __enter__(self) -> "TracedRun":
        self.instrumentation.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.instrumentation.remove()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        self.tracer.phase, self.tracer.active = name, True
        try:
            yield
        finally:
            self.tracer.active = False

    @contextmanager
    def replay(self) -> Iterator[None]:
        from repro.batch.runtime import DEGRADATION, get_runtime

        ring, degradation = get_runtime().ring_stats(), DEGRADATION.snapshot()
        with self.phase("run"):
            yield
        after = get_runtime().ring_stats()
        self.deltas = {
            "ring_delta": {k: after[k] - ring.get(k, 0) for k in after},
            "degradation_delta": DEGRADATION.delta_since(degradation),
        }

    def metrics(self, **counts: Any) -> Dict[str, float]:
        import layers

        return layers.compute(self.tracer, self.instrumentation, **counts, **self.deltas)

    def dump(self, args: argparse.Namespace, record: Dict[str, Any]) -> None:
        os.makedirs(WORK_ROOT, exist_ok=True)
        path = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        self.tracer.dump(path)
        record["trace_file"] = os.path.relpath(path, ROOT)
        record["spans"] = len(self.tracer.spans)


def run_batch(args: argparse.Namespace, record: Dict[str, Any]) -> Tuple[Dict[str, float], Any]:
    from environment import peak_rss_mb, reset_runtime
    from measure import median
    from workloads import BATCH_WORKLOADS

    workload = BATCH_WORKLOADS[args.workload](args.seed)
    setups = time_setups(workload.setup_reps, workload.build)
    record["setup_samples_s"] = setups
    workload.warm_up()
    if not args.trace:
        rounds = timed_rounds(workload, args.seconds)
        record["rounds"] = len(rounds)
        calls = [call for r in rounds for call in r.calls]
        metrics = {
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": median(setups),
            "queries_per_s": median([units / secs for units, secs, _ in calls]),
            "pairs_per_s": median([pairs / secs for _, secs, pairs in calls]),
        }
        metrics.update(round_latency_metrics([r.latencies for r in rounds], record))
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        metrics["slo_met_ratio"] = (attempted - failed) / attempted
        return metrics, (workload, rounds, attempted, failed)

    untraced = timed_rounds(workload, args.seconds / 2)
    with TracedRun() as traced_run:
        with traced_run.phase("setup"):
            reset_runtime()
            workload.build()
        workload.warm_up()
        with traced_run.replay():
            traced = timed_rounds(workload, 0.0, count=len(untraced))
    record["rounds"] = len(traced)
    indexed = bool(workload.corpus_size())
    metrics = traced_run.metrics(
        queries=sum(r.queries for r in traced) if indexed else 0,
        evals=sum(r.evals for r in traced) if indexed else 0,
        corpus_size=workload.corpus_size(),
        serve_counters=None,
        store_bytes=0,
        overhead_ratio=busy_s(traced) / busy_s(untraced) - 1.0,
    )
    traced_run.dump(args, record)
    rounds = untraced + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return metrics, (workload, rounds, attempted, failed)


async def serve_flow(
    workload: Any, args: argparse.Namespace, record: Dict[str, Any]
) -> Tuple[Dict[str, float], List[Any], Any]:
    """Set-ups, then one replay of the schedule (``--trace 1``: an untraced
    replay, then a traced set-up and replay of the same schedule)."""
    from environment import peak_rss_mb, reset_runtime
    from measure import median

    setups = []
    server = None
    for _ in range(workload.setup_reps):
        if server is not None:
            await server.drain()
        reset_runtime()
        started = time.perf_counter()
        server = await workload.start_server()
        setups.append(time.perf_counter() - started)
    record["setup_samples_s"] = setups
    run = await workload.replay(server, workload.schedule)
    peak = peak_rss_mb()
    await server.drain()
    if not args.trace:
        return {"setup_s": median(setups), "peak_rss_mb": peak}, [run], server.index

    with TracedRun() as traced_run:
        with traced_run.phase("setup"):
            server = await workload.start_server()
        traced_run.instrumentation.wrap_served_index(server.index)
        with traced_run.replay():
            traced = await workload.replay(server, workload.schedule)
        await server.drain()
    answered = [a for a in traced.answers if isinstance(a, tuple)]
    overhead = median([x for x in traced.latencies if x is not None]) / median(
        [x for x in run.latencies if x is not None]
    ) - 1.0
    metrics = traced_run.metrics(
        queries=len(answered),
        evals=sum(evals for _, evals in answered),
        corpus_size=len(workload.dictionary),
        serve_counters=traced.counters,
        store_bytes=workload.store_bytes,
        overhead_ratio=overhead,
    )
    record["serve_busy_ratio_traced"] = (
        sum(s.duration for s in traced_run.tracer.spans if s.name == "serve.bulk")
        / traced.span_s
    )
    traced_run.dump(args, record)
    return metrics, [run, traced], server.index


def run_serve(args: argparse.Namespace, record: Dict[str, Any], work_dir: str) -> Tuple[Dict[str, float], Any]:
    from measure import burst_latencies, median
    from workloads import SpellServe

    seconds = args.seconds / 2 if args.trace else args.seconds
    workload = SpellServe(args.seed, args.serve_rate, seconds, work_dir)
    workload.fill_store()
    metrics, runs, index = asyncio.run(serve_flow(workload, args, record))
    run = runs[0]
    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(1 for r in runs for x in r.latencies if x is None)
    lateness = [x for r in runs for x in r.lateness]
    record["lateness_ms"] = {"p50": median(lateness) * 1e3, "max": max(lateness) * 1e3}
    record["serve"] = {"rate": args.serve_rate, "slo_ms": args.slo_ms, "health": run.health}
    if not args.trace:
        answered = [x for x in run.latencies if x is not None]
        evals = sum(a[1] for a in run.answers if isinstance(a, tuple))
        metrics["queries_per_s"] = len(answered) / run.span_s
        metrics["pairs_per_s"] = evals / run.span_s
        sentences = burst_latencies(run.offsets, run.latencies)
        metrics.update(latency_metrics([x for x in sentences if x is not None], record))
        metrics["slo_met_ratio"] = sum(
            1 for x in answered if x * 1e3 <= args.slo_ms
        ) / len(run.latencies)
    return metrics, (workload, runs, index, attempted, failed)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    from environment import set_knobs

    knobs = set_knobs(os.environ)
    if knobs:
        print(f"refusing to run with REPRO_* knobs set: {', '.join(knobs)}", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"library source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import BATCH_WORKLOADS, SpellServe

    if args.workload not in BATCH_WORKLOADS and args.workload != SpellServe.name:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import environment

    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment.record(),
    }
    work_dir = os.path.join(WORK_ROOT, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.workload == SpellServe.name:
            metrics, (workload, runs, index, attempted, failed) = run_serve(
                args, record, work_dir
            )
            checks = [workload.check(run, index) for run in runs]
            late = record["lateness_ms"]["max"] / 1e3 > MAX_LATENESS_S
        else:
            metrics, (workload, rounds, attempted, failed) = run_batch(args, record)
            checks = [workload.check(rounds)]
            late = False
    finally:
        environment.stop_children()
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = [p for check in checks for p in check.problems]
    if late:
        problems.append(
            f"open-loop generator ran {record['lateness_ms']['max']:.1f} ms late "
            f"(limit {MAX_LATENESS_S * 1e3:.0f} ms): run invalid"
        )
    record["problems"] = problems
    record["error_ratio"] = failed / attempted
    if not args.trace:
        metrics["recall_at_k"] = min(check.recall for check in checks)
    with open(SPEC, encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
