"""Tests of the benchmark's own helpers: tail choice, latency from due
time, recall, self time from nested spans, and the correctness check."""

from __future__ import annotations

import math
import random

import pytest

from environment import set_knobs
from measure import (
    burst_latencies,
    latencies_from_due,
    mismatches,
    recall_at_k,
    tail_percentile,
)
from spans import Span, Tracer, self_times, union_length


class TestTailPercentile:
    def test_ten_samples_lie_beyond_the_tail(self):
        samples = list(range(1, 101))
        random.Random(0).shuffle(samples)
        percentile, value, n = tail_percentile(samples)
        assert (percentile, value, n) == (90.0, 90.0, 100)
        assert sum(1 for s in samples if s > value) == 10

    def test_percentile_rises_with_the_sample_count(self):
        assert tail_percentile(list(range(1000)))[0] == pytest.approx(99.0)
        assert tail_percentile(list(range(11)))[:2] == (100.0 / 11, 0.0)

    def test_too_few_samples_have_no_tail(self):
        with pytest.raises(ValueError):
            tail_percentile(list(range(10)))


def test_latency_is_measured_from_the_due_time():
    # the second request was sent 0.3 s late; its wait still counts
    due = [0.0, 1.0, 2.0]
    done = [0.25, 1.5, None]
    assert latencies_from_due(due, done) == [0.25, 0.5, None]


def test_recall_at_k_counts_reference_neighbours_found():
    reference = [[(1, 0.1), (2, 0.2)], [(5, 0.0), (6, 0.3)]]
    got = [[(1, 0.1), (3, 0.2)], [(6, 0.3), (5, 0.0)]]
    assert recall_at_k(got, reference) == pytest.approx(0.75)
    assert recall_at_k(reference, reference) == 1.0


class TestSelfTime:
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            Span(0, "index.bulk_knn", 0.0, 10.0, None),
            Span(1, "engine.pairwise_values", 1.0, 3.0, 0),
            Span(2, "engine.pairwise_values", 2.0, 5.0, 0),  # overlaps span 1
            Span(3, "kernel.levenshtein_batch", 2.5, 3.5, 2),
            Span(4, "core.within", 8.0, 12.0, 0),  # runs past its parent
        ]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
        assert selfs[2] == pytest.approx(3.0 - 1.0)
        assert selfs[3] == pytest.approx(1.0)

    def test_union_length(self):
        assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
        assert union_length([]) == 0.0

    def test_tracer_links_nested_spans(self):
        tracer = Tracer()
        tracer.active = True
        with tracer.span("index.bulk_knn"):
            with tracer.span("engine.pairwise_values", pairs=3):
                pass
        inner, outer = tracer.spans
        assert inner.parent == outer.sid and outer.parent is None
        assert inner.rid == outer.rid == outer.sid
        assert inner.attrs == {"pairs": 3}
        assert 0.0 <= self_times(tracer.spans)[outer.sid] <= outer.duration

    def test_inactive_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("index.knn"):
            pass
        assert tracer.spans == []


class TestCorrectnessCheck:
    def test_mismatches_catch_one_flipped_bit(self):
        answer = [[(4, 0.25), (7, 0.5)]]
        corrupted = [[(4, math.nextafter(0.25, 1.0)), (7, 0.5)]]
        assert mismatches(answer, answer) == []
        assert mismatches(corrupted, answer) == [0]
        assert mismatches(answer + answer, answer) == [1]

    def test_a_corrupted_answer_fails_the_workload_check(self, tmp_path):
        from repro.index import LaesaIndex
        from workloads import SERVE_K, SERVE_PIVOTS, ServeRun, SpellServe, answer_of

        workload = SpellServe(seed=3, rate=1.0, seconds=3.0, work_dir=str(tmp_path))
        index = LaesaIndex(workload.dictionary.items, workload.distance, n_pivots=SERVE_PIVOTS)
        queries = [q for sentence in workload.schedule for q in sentence.queries][:3]
        served = [
            (answer_of(results), stats.distance_computations)
            for results, stats in index.bulk_knn(queries, SERVE_K)
        ]

        def check(answers):
            run = ServeRun([1.0] * 3, [0.0] * 3, [0.0], answers, queries, 1.0, {}, {})
            return workload.check(run, index)

        assert check(served).correct
        wrong_index = [(list(a), evals) for a, evals in served]
        idx, dist = wrong_index[1][0][0]
        wrong_index[1][0][0] = (idx + 1, dist)
        assert not check(wrong_index).correct
        wrong_distance = [(list(a), evals) for a, evals in served]
        idx, dist = wrong_distance[2][0][-1]
        wrong_distance[2][0][-1] = (idx, dist + 1.0)
        assert not check(wrong_distance).correct

    def test_a_wrong_digit_neighbour_distance_fails_the_check(self):
        from repro.index import ExhaustiveIndex
        from workloads import DigitsKnn, Round, answer_of

        workload = DigitsKnn(seed=3)
        queries = [q for batch in workload.batches() for q in batch]
        nearest = [
            answer_of(results)
            for results, _ in ExhaustiveIndex(workload.train.items, workload.distance).bulk_knn(
                queries[:3], 1
            )
        ]

        def check(found):
            answers = found + [None] * (len(queries) - len(found))
            rnd = Round(0, 1.0, len(found), 0, [1.0] * len(found), len(queries), 0, answers)
            return workload.check([rnd])

        assert check(nearest).correct
        # a farther neighbour than the true one, reported with a made-up distance
        idx, dist = nearest[0][0]
        other = (idx + 1) % len(workload.train)
        assert not check([[(other, dist + 1.0)]] + nearest[1:]).correct
        assert not check([[]] + nearest[1:]).correct


def test_any_repro_knob_refuses_the_run():
    assert set_knobs({"PATH": "/bin", "REPRO_FAULTS": "worker_crash:p=1"}) == [
        "REPRO_FAULTS"
    ]
    assert set_knobs({"HOME": "/"}) == []


def test_a_burst_lasts_until_its_last_request_is_answered():
    due = [0.0, 0.0, 1.0, 2.0, 2.0]
    latencies = [0.2, 0.5, 0.1, 0.3, None]
    assert burst_latencies(due, latencies) == [0.5, 0.1, None]
