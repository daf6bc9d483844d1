"""The two benchmark workloads.

Every input is drawn from the run's ``--seed``; the corpora themselves
are the dataset generators' fixed defaults, so a seed changes which
queries a run uses (and which answers its checks sample), not the system
under test.

* ``digits-knn`` -- 1-NN classification of held-out digit contours with
  d_C,h on a two-shard ``ShardedIndex`` (LAESA, 40 pivots per shard),
  batches of 100: kernel sweeps and the shard scatter over the pool.
  d_C,h is not a metric, so recall catches pruning that drops neighbours.
* ``spell-serve`` -- an ``IndexServer`` (default ``ServeConfig``) warm
  started from a pre-filled ``ArtifactStore``, LAESA over 500 words,
  k=5, driven by an open loop of Poisson-arriving sentences, each a
  burst of 1-8 lookups, at a rate (``--serve-rate``, 1.2/s) where the
  server is busy about a quarter of the time.  At 1.8/s it is busy a
  third of the time, but then sentences queue behind one another so
  often that the latency tail rests on a few pile-ups: it moved by up
  to 1.7x between two runs of one seed.  Cheap distances on short strings: the LAESA
  lockstep driver, per-call engine overhead and scalar tails, under the
  server's coalescing window and admission.

The batch workload measures in *rounds* of calls, and reports rates as
medians over the calls, which filters machine hiccups: a digits-knn
round is one pass over every held-out contour, 500 queries in five
calls.  After each call the caller thinks for as long as the call took,
so the pool's two workers are busy about half of the time.  Back-to-back
calls keep both cores of a two-core machine busy, so whatever else the
host runs lands on the scatter's slowest shard: ten runs of back-to-back
calls spread 0.22-0.33 (IQR over median) on a busy shared two-core VM
and 0.05-0.08 on a quiet one, while the mostly idle server's latencies
spread alike on both.
Each query's latency is timed from when it was due: for a batch caller,
when its call was issued; for the server, its scheduled arrival.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from measure import (
    Answer,
    latencies_from_due,
    mismatches,
    recall_at_k,
)

DIGITS_PER_CLASS, DIGITS_GRID, DIGITS_TRAIN_PER_CLASS = 100, 24, 50
DIGITS_BATCH, DIGITS_PIVOTS, DIGITS_SHARDS = 100, 40, 2
DIGITS_CHECKED = 40
SERVE_WORDS, SERVE_PIVOTS, SERVE_K = 500, 16, 5
SERVE_BURST = (1, 8)
#: Draws spell-serve's arrival trace (see SpellServe.make_schedule).
SERVE_TRACE_SEED = 0


def answer_of(results: Sequence[Any]) -> Answer:
    return [(r.index, r.distance) for r in results]


def edit_queries(dataset: Any, n: int, rng: random.Random) -> List[str]:
    """*n* dictionary words with 1 or 2 random edits each."""
    from repro.datasets import perturbed_queries

    ops = [rng.randint(1, 2) for _ in range(n)]
    pools = {
        k: iter(perturbed_queries(dataset, ops.count(k), rng, operations=k))
        for k in (1, 2)
    }
    return [next(pools[k]) for k in ops]


@dataclass
class Round:
    """One round of a batch workload."""

    index: int  # which round's inputs ran (a replay repeats an index)
    seconds: float  # wall time, think time included
    queries: int  # queries answered
    evals: int  # distance evaluations their searches made
    latencies: List[float]  # per answered unit, from when it was due
    attempted: int
    failed: int
    answers: Any = None
    #: per answered call: (queries, seconds, distance evaluations)
    calls: List[Tuple[int, float, int]] = field(default_factory=list)


@dataclass
class Check:
    correct: bool
    recall: float
    problems: List[str] = field(default_factory=list)


class BatchWorkload:
    """A workload measured in rounds (see module docstring).  Round *r*
    always runs the same inputs, so a replay of round *r* must return the
    same answers."""

    name = ""
    setup_reps = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def round_rng(self, r: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + r)

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> Round:
        raise NotImplementedError

    def check(self, rounds: List[Round]) -> Check:
        raise NotImplementedError

    def corpus_size(self) -> int:
        return 0

    def _calls(
        self,
        r: int,
        batches: Sequence[Sequence[Any]],
        call: Callable[[Sequence[Any]], Any],
    ) -> Round:
        """Run *call* on each batch of queries, timing each call as the
        latency of every query it carries, and think for as long after
        it."""
        started = time.perf_counter()
        latencies: List[float] = []
        answers: List[Optional[Answer]] = []
        calls: List[Tuple[int, float, int]] = []
        failed = 0
        for batch in batches:
            issued = time.perf_counter()
            try:
                out = call(batch)
            except Exception:  # a failed call fails its queries; keep measuring
                failed += len(batch)
                answers.extend([None] * len(batch))
                continue
            seconds = time.perf_counter() - issued
            latencies.extend([seconds] * len(batch))
            answers.extend(answer_of(results) for results, _ in out)
            calls.append((len(batch), seconds, sum(st.distance_computations for _, st in out)))
            time.sleep(seconds)  # think time (see module docstring)
        attempted = sum(len(b) for b in batches)
        return Round(
            r,
            time.perf_counter() - started,
            attempted - failed,
            sum(pairs for _, _, pairs in calls),
            latencies,
            attempted,
            failed,
            answers,
            calls,
        )


class DigitsKnn(BatchWorkload):
    name = "digits-knn"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.core import get_distance
        from repro.datasets import handwritten_digits

        digits = handwritten_digits(per_class=DIGITS_PER_CLASS, grid=DIGITS_GRID)
        self.train, held_out = digits.stratified_split(DIGITS_TRAIN_PER_CLASS, self.rng)
        self.queries = self.rng.sample(list(held_out.items), len(held_out))
        self.distance = get_distance("contextual_heuristic")

    def corpus_size(self) -> int:
        return len(self.train)

    def batches(self) -> List[List[str]]:
        """Every round: the whole query pool in batches of 100."""
        return [
            self.queries[i : i + DIGITS_BATCH]
            for i in range(0, len(self.queries), DIGITS_BATCH)
        ]

    def build(self) -> None:
        from repro.shard import ShardedIndex

        self.index = ShardedIndex(
            self.train.items,
            self.distance,
            shards=DIGITS_SHARDS,
            structure="laesa",
            structure_params={"n_pivots": DIGITS_PIVOTS},
        )
        self.index.bulk_knn(self.queries[:1], 1)

    def warm_up(self) -> None:
        self.index.bulk_knn(self.batches()[0], 1)

    def round(self, r: int) -> Round:
        return self._calls(r, self.batches(), lambda b: self.index.bulk_knn(b, 1))

    def check(self, rounds: List[Round]) -> Check:
        """d_C,h is not a metric, so pruning may legitimately miss the true
        neighbour; recall reports that.  What no answer may do is hold
        other than one neighbour, report a distance other than the scalar
        d_C,h to the neighbour it names, or claim a neighbour closer than
        the true nearest one."""
        from repro.index import ExhaustiveIndex

        problems = [
            f"round {rnd.index} answered differently from the first"
            for rnd in rounds
            if rnd.answers != rounds[0].answers
        ]
        queries = [q for batch in self.batches() for q in batch]
        answered = [(q, a) for q, a in zip(queries, rounds[0].answers) if a is not None]
        # an exhaustive d_C,h scan of every query would outlast the
        # measurement, so the check covers a seeded sample
        answered = self.rng.sample(answered, min(DIGITS_CHECKED, len(answered)))
        got = [a for _, a in answered]
        reference = [
            answer_of(results)
            for results, _ in ExhaustiveIndex(self.train.items, self.distance).bulk_knn(
                [q for q, _ in answered], 1
            )
        ]
        for qi, ((query, answer), ref) in enumerate(zip(answered, reference)):
            if len(answer) != 1:
                problems.append(f"query {qi}: {len(answer)} neighbours for k=1")
                continue
            (idx, dist), (_, ref_dist) = answer[0], ref[0]
            if dist != self.distance(query, self.train.items[idx]) or dist < ref_dist:
                problems.append(f"query {qi}: answer {answer} vs exhaustive {ref}")
        return Check(not problems, recall_at_k(got, reference), problems)


# ---------------------------------------------------------------------------
# spell-serve
# ---------------------------------------------------------------------------


@dataclass
class Sentence:
    due: float  # seconds after the schedule starts
    queries: List[str]


@dataclass
class ServeRun:
    """Outcome of replaying one schedule against the server."""

    latencies: List[Optional[float]]  # per lookup, None when not answered
    offsets: List[float]  # per lookup: due time after the schedule start
    lateness: List[float]  # per sentence: actual send minus due
    answers: List[Any]  # per lookup: (answer, evals) or the exception
    queries: List[str]
    span_s: float  # schedule start to last answer
    counters: Dict[str, int]
    health: Dict[str, Any]


class SpellServe:
    """Open-loop traffic against an ``IndexServer`` (see module docstring)."""

    name = "spell-serve"
    setup_reps = 25

    def __init__(self, seed: int, rate: float, seconds: float, work_dir: str) -> None:
        from repro.core import get_distance
        from repro.datasets import spanish_dictionary

        self.seed = seed
        self.rng = random.Random(seed)
        self.rate = rate
        self.dictionary = spanish_dictionary(SERVE_WORDS)
        self.distance = get_distance("levenshtein")
        self.work_dir = work_dir
        self.store_root = os.path.join(work_dir, "store")
        self.schedule = self.make_schedule(seconds)

    def make_schedule(self, seconds: float) -> List[Sentence]:
        """``rate * seconds`` sentences with exponential inter-arrival
        gaps (a Poisson process at *rate*), stratified so that the load
        is the same in every run.  The gaps are the exponential quantiles
        ``(i + 0.5) / n`` and the burst sizes take each value of 1..8
        equally often.  Both are dealt round-robin, in sorted order, into
        blocks of about eight sentences, so that every block holds short
        and long gaps and small and large bursts; each block pairs its
        sizes with its gaps in shuffled order and the blocks arrive in
        shuffled order.  Bursts still fall together within and across
        neighbouring blocks, but no stretch of a block's length carries
        much more load than another.

        The arrival trace -- those shuffles -- is one fixed draw, the
        same for every seed: which bursts fall together sets the latency
        tail, and a trace drawn per seed moved the tail by up to 1.7x
        from one seed to another.  The seed draws the words looked up."""
        n = max(1, round(self.rate * seconds))
        lo, hi = SERVE_BURST
        kinds = hi - lo + 1
        trace = random.Random(SERVE_TRACE_SEED)
        gaps = [-math.log(1.0 - (i + 0.5) / n) / self.rate for i in range(n)]
        sizes = sorted(lo + i % kinds for i in range(n))
        stride = max(1, n // kinds)  # the number of blocks
        blocks = []
        for b in range(stride):
            block_sizes, block_gaps = sizes[b::stride], gaps[b::stride]
            trace.shuffle(block_sizes)
            trace.shuffle(block_gaps)
            blocks.append(list(zip(block_sizes, block_gaps)))
        trace.shuffle(blocks)
        schedule, due = [], 0.0
        for size, gap in (pair for block in blocks for pair in block):
            queries = edit_queries(self.dictionary, size, self.rng)
            schedule.append(Sentence(due, queries))
            due += gap
        return schedule

    def fill_store(self) -> None:
        from repro.index import LaesaIndex
        from repro.store import ArtifactStore

        shutil.rmtree(self.store_root, ignore_errors=True)
        store = ArtifactStore(self.store_root)
        store.save(LaesaIndex(self.dictionary.items, self.distance, n_pivots=SERVE_PIVOTS))
        self.store_bytes = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(self.store_root)
            for f in files
        )

    async def start_server(self) -> Any:
        """Warm start and first answer: the timed set-up."""
        from repro.index import LaesaIndex
        from repro.serve import IndexServer, ServeConfig
        from repro.store import ArtifactStore

        server = IndexServer.warm_start(
            LaesaIndex,
            self.dictionary.items,
            self.distance,
            ArtifactStore(self.store_root),
            config=ServeConfig(),
            n_pivots=SERVE_PIVOTS,
        )
        await server.start()
        await server.knn(self.dictionary.items[0], SERVE_K)
        return server

    async def replay(self, server: Any, schedule: List[Sentence]) -> ServeRun:
        from repro.serve import ServeError

        n = sum(len(s.queries) for s in schedule)
        done: List[Optional[float]] = [None] * n
        answers: List[Any] = [None] * n
        dues: List[float] = []
        lateness: List[float] = []
        tasks = []

        async def lookup(slot: int, query: str) -> None:
            try:
                results, stats = await server.knn(query, SERVE_K)
                answers[slot] = (answer_of(results), stats.distance_computations)
                done[slot] = time.perf_counter()
            except ServeError as exc:
                answers[slot] = exc

        base = time.perf_counter()
        slot = 0
        for sentence in schedule:
            due = base + sentence.due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due)
            for query in sentence.queries:
                dues.append(due)
                tasks.append(asyncio.create_task(lookup(slot, query)))
                slot += 1
        await asyncio.gather(*tasks)
        finished = [t for t in done if t is not None]
        return ServeRun(
            latencies=latencies_from_due(dues, done),
            offsets=[due - base for due in dues],
            lateness=lateness,
            answers=answers,
            queries=[q for s in schedule for q in s.queries],
            span_s=(max(finished) if finished else time.perf_counter()) - base,
            counters=server.metrics.snapshot(),
            health=server.health(),
        )

    def check(self, run: ServeRun, index: Any) -> Check:
        """Served answers against a direct ``bulk_knn`` on the served
        *index* (results and per-query counts) and against
        ``ExhaustiveIndex``."""
        from repro.index import ExhaustiveIndex

        served = [(q, a) for q, a in zip(run.queries, run.answers) if isinstance(a, tuple)]
        problems = []
        queries = [q for q, _ in served]
        if not queries:
            return Check(False, 0.0, ["no lookup was answered"])
        reference = [
            answer_of(results)
            for results, _ in ExhaustiveIndex(self.dictionary.items, self.distance).bulk_knn(
                queries, SERVE_K
            )
        ]
        expected = [
            (answer_of(results), stats.distance_computations)
            for results, stats in index.bulk_knn(queries, SERVE_K)
        ]
        bad_direct = [i for i, ((_, a), e) in enumerate(zip(served, expected)) if a != e]
        if bad_direct:
            problems.append(f"{len(bad_direct)} served answers differ from direct bulk_knn")
        got = [a[0] for _, a in served]
        bad = mismatches(got, reference)
        if bad:
            problems.append(f"{len(bad)} served answers differ from ExhaustiveIndex")
        return Check(not problems, recall_at_k(got, reference), problems)


BATCH_WORKLOADS = {cls.name: cls for cls in (DigitsKnn,)}

