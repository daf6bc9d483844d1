"""Per-layer tracing: span wrappers around each layer's public entry points,
and the per-layer metrics computed from the spans.

The wrappers live here, in the benchmark, and are installed only for the
traced run; the untraced run that yields the end-to-end metrics runs the
library untouched.  Each layer, the metrics it yields and the end-to-end
metrics they should move:

======================  ===============================================  ==================================
layer (entry points)    metrics                                          should move
======================  ===============================================  ==================================
index: ``*.knn`` /      index.busy_s, index.self_s,                      latency_* on spell-serve;
``bulk_knn``,           index.evals_per_query, index.prune_ratio,        little on digits-knn
``CountingDistance``    index.engine_calls_per_query
batched methods
core: ``CountingDist``  core.scalar_calls, core.scalar_s                 latency_* on spell-serve
``__call__/within/``
``peek_within``
batch.engine:           engine.calls, engine.pairs_per_call,             call count on spell-serve;
``pairwise_*``          engine.busy_s, engine.us_per_pair                us_per_pair on digits-knn
batch.kernels:          kernel.calls, kernel.cells (sum of len*len),     queries_per_s on digits-knn;
``*_batch*``            kernel.busy_s, kernel.ns_per_cell                little on spell-serve
batch.runtime:          pool.maps, pool.map_s, pool.publish_calls,       queries_per_s / setup_s on
``supervised_map``,     pool.publish_s, pool.ring_reuse_ratio,           digits-knn
``publish_*``           pool.degraded_events
batch.corpus:           corpus.intern_s                                  setup_s on digits-knn
``intern_corpus``
shard: ``ShardedIndex.  shard.busy_s, shard.publish_s, shard.merge_s,    queries_per_s on digits-knn only
bulk_knn``,             shard.fallbacks
``publish_shard``,
``k_merge``
serve: ``IndexServer.   serve.batches, serve.batch_size_mean,            latency_* / slo_met_ratio on
knn``, bulk calls,      serve.wait_ms_p50, serve.execute_ms_p50,         spell-serve only
``health()``            serve.refused
store:                  store.load_s, store.bytes                        setup_s on spell-serve only
``ArtifactStore.load``
======================  ===============================================  ==================================

Three interactions to keep in mind when reading them:

* In ``spell-serve`` a whole burst waits behind one in-flight bulk call,
  so index self time moves the latency tail more than the median.
* In ``digits-knn`` the slowest shard sets the scatter time.
* Kernel work done inside pool workers cannot be seen from the master
  process, where the spans are recorded; there ``pool.map_s`` stands in
  for it (``kernel.*`` read zero on ``digits-knn``, whose shards search
  in the workers).

Every metric is computed over the spans of the traced measuring phase,
except those of set-up work -- ``corpus.intern_s``, ``store.load_s``,
``shard.publish_s``, ``pool.publish_*`` -- which also count the traced
set-up.  A layer that does not run on a workload reads 0.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from measure import median
from spans import Span, Tracer, outermost, self_times

def _cells_encoded(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    mx, my = np.asarray(args[2], dtype=np.int64), np.asarray(args[3], dtype=np.int64)
    return int((mx * my).sum())


def _cells_pairs(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    return sum(len(x) * len(y) for x, y in args[0])


def _matrix_pairs(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    xs = args[1]
    ys = args[2] if len(args) > 2 else kwargs.get("ys")
    n = len(xs)
    return n * (n + 1) // 2 if ys is None else n * len(ys)


def _second_len(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    return len(args[1])


def _third_len(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    return len(args[2])


_KERNELS = {
    "levenshtein_batch": _cells_pairs,
    "levenshtein_batch_bounded": _cells_pairs,
    "contextual_heuristic_batch": _cells_pairs,
    "contextual_heuristic_batch_bounded": _cells_pairs,
    "mv_banded_probe_batch": _cells_pairs,
    "levenshtein_batch_encoded": _cells_encoded,
    "levenshtein_batch_bounded_encoded": _cells_encoded,
    "contextual_heuristic_batch_encoded": _cells_encoded,
    "contextual_heuristic_batch_bounded_encoded": _cells_encoded,
    "mv_banded_probe_batch_encoded": _cells_encoded,
}

_ENGINE = {
    "pairwise_values": _second_len,
    "pairwise_values_bounded": _second_len,
    "pairwise_values_ids": _third_len,
    "pairwise_values_bounded_ids": _third_len,
    "pairwise_matrix": _matrix_pairs,
    "distances_from": _third_len,
}


class Instrumentation:
    """Installs span wrappers on the layers' entry points and restores the
    originals on :meth:`remove`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        # served requests awaiting their bulk call, by id() of the query
        self._waiting: Dict[int, Deque[Tuple[int, float]]] = {}
        #: rid -> (knn start, bulk start, bulk end) for served requests
        self.served: Dict[int, List[Optional[float]]] = {}

    # -- patching ----------------------------------------------------------

    def _patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        size: Optional[Callable[..., int]] = None,
        size_key: str = "",
    ) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            attrs = {size_key: size(args, kwargs)} if size is not None else {}
            with tracer.span(name, **attrs):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> "Instrumentation":
        import repro.batch as batch
        from repro.batch import corpus, engine, runtime
        from repro.index.base import CountingDistance, NearestNeighborIndex
        from repro.serve import server
        from repro.shard import scatter, sharded
        from repro.store import artifacts
        import repro.index as index_pkg

        for cls in {getattr(index_pkg, n) for n in index_pkg.__all__} | {
            NearestNeighborIndex
        }:
            if not isinstance(cls, type) or not issubclass(cls, NearestNeighborIndex):
                continue
            for method in ("knn", "bulk_knn"):
                if method in cls.__dict__:
                    self._patch(cls, method, f"index.{method}")
        for method in (
            "many",
            "many_ids",
            "precompute",
            "precompute_ids",
            "precompute_bounded",
            "precompute_bounded_ids",
        ):
            self._patch(CountingDistance, method, f"index.{method}")
        for method in ("__call__", "within", "peek_within"):
            self._patch(CountingDistance, method, f"core.{method.strip('_')}")
        for fn, size in _ENGINE.items():
            # the package attribute serves the index layer's lazy imports,
            # the module attribute the engine's calls into itself
            self._patch(batch, fn, f"engine.{fn}", size, "pairs")
            self._patch(engine, fn, f"engine.{fn}", size, "pairs")
        for fn, cells in _KERNELS.items():
            self._patch(engine, fn, f"kernel.{fn}", cells, "cells")
        self._patch(runtime.EngineRuntime, "supervised_map", "pool.map")
        for method in ("publish_block", "publish_store", "publish_arrays"):
            self._patch(runtime.EngineRuntime, method, "pool.publish")
        self._patch(batch, "intern_corpus", "corpus.intern")
        self._patch(corpus, "intern_corpus", "corpus.intern")
        self._patch(sharded.ShardedIndex, "bulk_knn", "shard.bulk_knn")
        self._patch(scatter, "publish_shard", "shard.publish")
        self._patch(sharded, "k_merge", "shard.merge")
        self._patch(artifacts.ArtifactStore, "load", "store.load")
        self._patch(server.IndexServer, "health", "serve.health")
        self._patch_server_knn(server.IndexServer)
        return self

    def _patch_server_knn(self, cls: type) -> None:
        original = cls.__dict__["knn"]
        tracer = self.tracer
        inst = self

        @functools.wraps(original)
        async def knn(server: Any, query: Any, *args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return await original(server, query, *args, **kwargs)
            rid = tracer.new_id()
            start = time.perf_counter()
            with inst._lock:
                inst._waiting.setdefault(id(query), deque()).append((rid, start))
                inst.served[rid] = [start, None, None]
            try:
                return await original(server, query, *args, **kwargs)
            finally:
                tracer.record("serve.knn", start, time.perf_counter(), rid=rid)

        cls.knn = knn
        self._undo.append((cls, "knn", original))

    def wrap_served_index(self, index: Any) -> None:
        """Time the server's bulk calls on *index* and tie each one to the
        requests it carries (the server hands the queued query objects
        to ``bulk_knn`` unchanged, so object identity matches them)."""
        original = index.bulk_knn
        tracer = self.tracer
        inst = self

        def bulk_knn(queries: Any, k: int) -> Any:
            if not tracer.active:
                return original(queries, k)
            with inst._lock:
                rids = []
                for query in queries:
                    pending = inst._waiting.get(id(query))
                    if pending:
                        rids.append(pending.popleft()[0])
            with tracer.span("serve.bulk", n=len(queries), rids=rids):
                begun = time.perf_counter()
                try:
                    return original(queries, k)
                finally:
                    ended = time.perf_counter()
                    with inst._lock:
                        for rid in rids:
                            inst.served[rid][1:] = [begun, ended]

        index.bulk_knn = bulk_knn
        self._undo.append((index, "bulk_knn", None))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def _sum_durations(spans: List[Span]) -> float:
    return sum(span.duration for span in spans)


def compute(
    tracer: Tracer,
    instrumentation: Instrumentation,
    *,
    queries: int,
    evals: int,
    corpus_size: int,
    ring_delta: Dict[str, int],
    degradation_delta: Dict[str, int],
    serve_counters: Optional[Dict[str, int]],
    store_bytes: int,
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric ``BENCHMARK.json`` declares, from the traced
    spans plus the counters the workload read around its traced phase."""
    both = tracer.spans  # set-up and measuring phase
    run = [s for s in both if s.phase == "run"]

    def named(pool: List[Span], prefix: str) -> List[Span]:
        return [s for s in pool if s.name.startswith(prefix)]

    selfs = self_times(run)
    index_spans = named(run, "index.")
    engine_top = outermost(run, "engine.")
    kernel_top = outermost(run, "kernel.")
    engine_pairs = sum(s.attrs.get("pairs", 0) for s in engine_top)
    cells = sum(s.attrs.get("cells", 0) for s in kernel_top)
    engine_busy = _sum_durations(engine_top)
    kernel_busy = _sum_durations(kernel_top)
    per_query = queries if queries else None
    creates, reuses = ring_delta.get("creates", 0), ring_delta.get("reuses", 0)

    served = [
        times
        for times in instrumentation.served.values()
        if times[1] is not None and times[2] is not None
    ]
    counters = serve_counters or {}
    batches = counters.get("batches", 0)

    out = {
        "index.busy_s": _sum_durations(outermost(run, "index.")),
        "index.self_s": sum(selfs[s.sid] for s in index_spans),
        "index.evals_per_query": evals / per_query if per_query else 0.0,
        "index.prune_ratio": (
            1.0 - evals / (per_query * corpus_size) if per_query and corpus_size else 0.0
        ),
        "index.engine_calls_per_query": len(engine_top) / per_query if per_query else 0.0,
        "core.scalar_calls": len(named(run, "core.")),
        "core.scalar_s": _sum_durations(outermost(run, "core.")),
        "engine.calls": len(engine_top),
        "engine.pairs_per_call": engine_pairs / len(engine_top) if engine_top else 0.0,
        "engine.busy_s": engine_busy,
        "engine.us_per_pair": engine_busy / engine_pairs * 1e6 if engine_pairs else 0.0,
        "kernel.calls": len(kernel_top),
        "kernel.cells": cells,
        "kernel.busy_s": kernel_busy,
        "kernel.ns_per_cell": kernel_busy / cells * 1e9 if cells else 0.0,
        "pool.maps": len(named(run, "pool.map")),
        "pool.map_s": _sum_durations(outermost(run, "pool.map")),
        "pool.publish_calls": len(named(both, "pool.publish")),
        "pool.publish_s": _sum_durations(outermost(both, "pool.publish")),
        "pool.ring_reuse_ratio": reuses / (creates + reuses) if creates + reuses else 0.0,
        "pool.degraded_events": sum(degradation_delta.values()),
        "corpus.intern_s": _sum_durations(named(both, "corpus.intern")),
        "shard.busy_s": _sum_durations(named(run, "shard.bulk_knn")),
        "shard.publish_s": _sum_durations(named(both, "shard.publish")),
        "shard.merge_s": _sum_durations(named(run, "shard.merge")),
        "shard.fallbacks": degradation_delta.get("shard_fallbacks", 0),
        "serve.batches": batches,
        "serve.batch_size_mean": (
            counters.get("batched_requests", 0) / batches if batches else 0.0
        ),
        "serve.wait_ms_p50": median([(b - s) * 1e3 for s, b, _ in served]) if served else 0.0,
        "serve.execute_ms_p50": (
            median([(e - b) * 1e3 for _, b, e in served]) if served else 0.0
        ),
        "serve.refused": sum(
            counters.get(k, 0) for k in ("shed", "deadline_exceeded", "failed")
        ),
        "store.load_s": _sum_durations(named(both, "store.load")),
        "store.bytes": store_bytes,
        "trace.overhead_ratio": overhead_ratio,
    }
    return out
