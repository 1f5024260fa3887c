"""Tests for the benchmark's own code: request generation, the
percentile sample-count rule and span arithmetic.  None of them runs
the program."""

from __future__ import annotations

import json
import pathlib

import pytest

from perfbench import requests, run, stats, tracing

BENCHMARK = json.loads((pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Request generation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", requests.WORKLOADS)
def test_same_seed_same_requests_and_digest(workload):
    first = requests.generate(workload, 3, 4)
    second = requests.generate(workload, 3, 4)
    assert first == second
    assert requests.digest(first) == requests.digest(second)
    assert requests.digest(first) != requests.digest(requests.generate(workload, 4, 4))


@pytest.mark.parametrize("workload", requests.WORKLOADS)
def test_lists_are_whole_blocks(workload):
    generated = requests.generate(workload, 1, 3)
    assert len(generated) == 3 * requests.BLOCK_SIZE[workload]
    # A longer list extends a shorter one: the first blocks do not
    # depend on how many follow.
    assert requests.generate(workload, 1, 5)[: len(generated)] == generated


@pytest.mark.parametrize("workload", requests.WORKLOADS)
def test_cost_mix_is_the_same_for_every_seed(workload):
    def mix(seed):
        generated = requests.generate(workload, seed, 6)
        fresh = [r for i, r in enumerate(generated) if not any(r is e for e in generated[:i])]
        return sorted(
            json.dumps(
                {k: v for k, v in r.items() if k in ("kind", "hops", "shape", "backend", "protocol")}
                | {"n": len(r.get("xs", r.get("times", ())))}
                | {k: r[k] for k in ("sessions", "replications") if k in r},
                sort_keys=True,
            )
            for r in fresh
        )

    assert mix(1) == mix(2)


def test_chain_repeats_are_verbatim_earlier_requests():
    generated = requests.generate("chain_sweep", 9, 20)
    repeats = [
        i for i, r in enumerate(generated) if any(r is earlier for earlier in generated[:i])
    ]
    assert len(repeats) == 3 * 20
    assert 0 not in repeats


def test_chain_hops_cover_both_ends_log_uniformly():
    hops = [r["hops"] for r in requests.generate("chain_sweep", 1, 100) if r["kind"] == "chain"]
    assert min(hops) == 1 and max(hops) == requests.MAX_HOPS
    # Log-uniform: about half the draws fall below sqrt(128) ~ 11.
    below = sum(h <= 11 for h in hops) / len(hops)
    assert 0.4 < below < 0.6


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError, match="unknown workload"):
        requests.generate("nope", 1, 1)


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_p90_needs_one_hundred_samples_for_ten_beyond():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.samples_beyond(99, 0.9) == 9
    assert stats.samples_beyond(130, 0.9) == 13
    assert stats.samples_beyond(20, 0.5) == 10
    assert stats.samples_beyond(0, 0.9) == 0


@pytest.mark.parametrize("workload", requests.WORKLOADS)
def test_runs_have_enough_requests_for_p90(workload):
    count = run.PASS_BLOCKS[workload] * requests.BLOCK_SIZE[workload]
    assert stats.samples_beyond(count, 0.9) >= 10


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1, 3), (2, 5), (7, 12)], 0, 10) == pytest.approx(7.0)
    assert tracing.covered([], 0, 10) == 0.0


def _synthetic_spans():
    # name, start, end, parent, request, points
    return [
        ["request", 0.0, 10.0, -1, 0, 0],
        ["runtime", 1.0, 9.0, 0, 0, 0],
        ["core.chain_template", 2.0, 8.0, 1, 0, 4],
        ["core.markov", 3.0, 5.0, 2, 0, 0],
        ["core.templates.compile", 5.0, 6.0, 2, 0, 0],
        ["request", 10.0, 14.0, -1, 1, 0],
        ["transient", 10.5, 13.5, 5, 1, 0],
    ]


def test_self_time_is_duration_minus_children():
    own = tracing.self_times(_synthetic_spans())
    assert own == pytest.approx([2.0, 2.0, 3.0, 2.0, 1.0, 1.0, 3.0])


def test_layer_metrics_on_synthetic_spans():
    metrics = tracing.layer_metrics(
        _synthetic_spans(),
        {"core.templates.compiles": 1, "sim.events": 0},
        {"hits": 3, "misses": 1},
        0,
        untraced_s=10.0,
        traced_s=11.0,
    )
    assert metrics["runtime.self_s"] == pytest.approx(2.0)
    assert metrics["core.chain_template.s"] == pytest.approx(6.0)
    assert metrics["core.chain_template.points"] == 4
    assert metrics["core.chain_template.us_per_point"] == pytest.approx(1.5e6)
    assert metrics["core.markov.s"] == pytest.approx(2.0)
    assert metrics["core.rates_s"] == pytest.approx(3.0)
    assert metrics["core.templates.compile_s"] == pytest.approx(1.0)
    assert metrics["transient.curves"] == 1
    assert metrics["transient.curve_s"] == pytest.approx(3.0)
    assert metrics["runtime.cache.hit_ratio"] == pytest.approx(0.75)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1)
    # Request self time 2 + 1 of 14 seconds is not inside any layer span.
    assert metrics["trace.unaccounted_frac"] == pytest.approx(3.0 / 14.0)
    assert metrics["sim.events_per_s"] == 0.0


def test_nested_spans_of_one_name_count_once():
    spans = [
        ["request", 0.0, 4.0, -1, 0, 0],
        ["core.singlehop", 0.0, 4.0, 0, 0, 3],
        ["core.singlehop", 1.0, 2.0, 1, 0, 1],
    ]
    metrics = tracing.layer_metrics(spans, {}, {}, 0, 1.0, 1.0)
    assert metrics["core.singlehop.s"] == pytest.approx(4.0)
    assert metrics["core.singlehop.points"] == 3


def test_tracer_records_parents_and_requests(tmp_path):
    tracer = tracing.Tracer()

    def work():
        index = tracer.begin("runtime")
        tracer.end(index)
        return "done"

    assert tracer.request(7, work) == "done"
    (request, child) = tracer.spans
    assert request[0] == "request" and request[3] == -1 and request[4] == 7
    assert child[0] == "runtime" and child[3] == 0 and child[4] == 7
    assert request[1] <= child[1] <= child[2] <= request[2]
    path = tmp_path / "trace.jsonl"
    tracer.write(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records] == ["request", "runtime"]


def test_benchmark_names_every_reported_metric():
    per_layer = tracing.layer_metrics([], {}, {}, 0, 1.0, 1.0)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(per_layer)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        "setup_s",
        "points_per_s",
        "request_p50_ms",
        "request_p90_ms",
        "peak_rss_mb",
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(requests.WORKLOADS)
