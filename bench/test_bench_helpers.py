"""Tests of the benchmark's own helpers: span arithmetic, percentiles,
metric names and failure accounting."""

from __future__ import annotations

import gc
import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from bench_metrics import (  # noqa: E402
    END_TO_END,
    REFERENCE_CHUNK_S,
    Calibrator,
    failed_ratio,
    layer_unit,
    percentile,
    position_medians,
    speed_scale,
    summarize,
    tail_supported,
    valid_metric_name,
)
from bench_trace import COUNTERS, RATIOS, Patches, Tracer, layers  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds inner [1, 3] and inner [4, 8]; inner [4, 8] holds leaf [5, 6].
    tr = Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))

    def leaf():
        return "leaf"

    def inner(with_leaf):
        if with_leaf:
            tr.call("leaf", leaf, (), {})

    def outer():
        tr.call("inner", inner, (False,), {})
        tr.call("inner", inner, (True,), {})

    tr.call("outer", outer, (), {})
    assert (tr.spans["outer"].calls, tr.spans["outer"].s, tr.spans["outer"].self_s) == (1, 10, 4)
    assert (tr.spans["inner"].calls, tr.spans["inner"].s, tr.spans["inner"].self_s) == (2, 6, 5)
    assert (tr.spans["leaf"].calls, tr.spans["leaf"].s, tr.spans["leaf"].self_s) == (1, 1, 1)
    # Self times partition the root span.
    assert sum(s.self_s for s in tr.spans.values()) == tr.spans["outer"].s


def test_span_closes_when_the_call_raises():
    tr = Tracer(clock=fake_clock([0, 2, 5, 9]))

    def boom():
        raise ValueError("x")

    def outer():
        with pytest.raises(ValueError):
            tr.call("boom", boom, (), {})

    tr.call("outer", outer, (), {})
    assert tr.spans["boom"].s == 3
    assert tr.spans["outer"].self_s == 6


def test_ratio_metrics_count_distinct_keys_over_calls():
    tr = Tracer(clock=fake_clock(range(100)))
    for key in ("a", "b", "a", "b"):
        tr.call("memstore.count", lambda: None, (), {})
        tr.see("memstore.count.useful_ratio", key)
    m = tr.metrics(["memstore.count", "estimator.refresh"], (), RATIOS)
    assert m["memstore.count.useful_ratio"] == 0.5
    assert m["estimator.refresh.useful_ratio"] == 0.0  # no calls: reads 0, not a division error
    assert m["estimator.refresh.calls"] == 0


def test_percentile_matches_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    assert percentile(values, 50) == statistics.median(values)
    assert percentile(values, 90) == pytest.approx(statistics.quantiles(values, n=10, method="inclusive")[8])
    assert percentile([4.0], 90) == 4.0
    assert percentile(values, 0) == 1.0 and percentile(values, 100) == 9.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_summarize_states_the_sample_count():
    assert summarize([3.0, 1.0, 2.0], 50) == (2.0, 3)


def test_position_medians_take_each_batch_across_passes():
    # A slow spell in the second pass (batch 1) and the third (batch 2) drops out.
    assert position_medians([[1.0, 2.0, 3.0], [1.2, 9.0, 3.0], [0.8, 2.0, 9.0]]) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        position_medians([[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        position_medians([])


def test_tail_supported_needs_ten_samples_beyond():
    assert not tail_supported(99, 90)
    assert tail_supported(100, 90)
    assert tail_supported(20, 50)


def test_speed_scale_is_reference_over_median_chunk_time():
    assert speed_scale([REFERENCE_CHUNK_S]) == 1.0
    # A host running the chunk twice as slowly halves the times it reports.
    assert speed_scale([2 * REFERENCE_CHUNK_S, 9.0, REFERENCE_CHUNK_S]) == 0.5


def test_calibrator_throttles_points_and_measures_overlap():
    # Each point reads: begin, then start and end of each of its two chunks, then its end.
    cal = Calibrator(every_s=5, clock=fake_clock([0, 0, 1, 1, 2, 2, 3, 10, 10, 11, 11, 13, 13]))
    cal.point()  # [0, 2], chunks of 1 s each
    cal.point()  # begins at 3, within 5 s of the last point's end: skipped
    cal.point(force=True)  # [10, 13], chunks of 1 s and 2 s
    assert cal.chunk_times == [1, 1, 1, 2]
    assert cal.spans == [(0, 2), (10, 13)]
    assert cal.within(1, 11) == 2
    assert cal.within(2, 10) == 0
    assert cal.scale() == REFERENCE_CHUNK_S
    assert gc.isenabled()


def test_calibration_is_left_out_of_open_spans():
    # outer [0, 10] holds inner [1, 6]; inner holds 2 s of calibration, outer 1 s more.
    tr = Tracer(clock=fake_clock([0, 1, 6, 10]))
    cal = Calibrator(clock=fake_clock([0, 0, 1, 1, 2, 2]), on_point=tr.exclude)

    def inner():
        cal.point(force=True)

    def outer():
        tr.call("inner", inner, (), {})
        tr.exclude(1)

    tr.call("outer", outer, (), {})
    assert cal.spans == [(0, 2)]
    assert (tr.spans["inner"].s, tr.spans["inner"].self_s) == (3, 3)
    assert (tr.spans["outer"].s, tr.spans["outer"].self_s) == (7, 4)
    tr.exclude(5)  # no span open: nothing to adjust
    assert tr.spans["outer"].s == 7


def test_failed_ratio_accounting():
    assert failed_ratio(41, 0) == 0.0
    assert failed_ratio(82, 41) == 0.5
    with pytest.raises(ValueError):
        failed_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_ratio(10, 11)


def test_metric_name_validity():
    assert valid_metric_name("memstore.count.useful_ratio")
    assert valid_metric_name("batch_ms.p50")
    assert valid_metric_name("ingest_slice.BalanceLedger.touched_in_range.self_s")
    for bad in ("", ".hidden", "a b", "p50/s", "x" * 65, "naïve"):
        assert not valid_metric_name(bad)


def test_patches_restore_originals_in_reverse_order():
    class Owner:
        def f(self):
            return "orig"

    original = Owner.__dict__["f"]
    patches = Patches()
    patches.replace(Owner, "f", lambda fn: lambda self: "first(" + fn(self) + ")")
    patches.replace(Owner, "f", lambda fn: lambda self: "second(" + fn(self) + ")")
    assert Owner().f() == "second(first(orig))"
    assert patches.restore()
    assert Owner.__dict__["f"] is original


def test_benchmark_json_lists_exactly_the_workloads_and_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    span_names = [layer.name for layer in layers()]
    emitted = [f"{s}.{stat}" for s in span_names for stat in ("s", "self_s", "calls")]
    emitted += list(COUNTERS) + list(RATIOS) + ["trace.total_s", "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == emitted
    assert all(m["unit"] == layer_unit(m["name"]) for m in spec["per_layer"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)


def test_every_layer_site_exists_under_its_name():
    for layer in layers():
        for owner, attr in layer.sites:
            assert callable(vars(owner)[attr]), (layer.name, attr)
