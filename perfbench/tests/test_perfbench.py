"""Tests of the benchmark's own logic: span arithmetic, percentiles, output checks.

    python3 -m pytest perfbench/tests
"""

import hashlib
import json
import math
import statistics
import threading
from pathlib import Path

import numpy as np
import pytest

import denoisebench.bench
import denoisebench.bilateral
import denoisebench.pipelines
from denoisebench import MethodConfig
from perfbench import run
from perfbench.layers import HOOKS, PER_LAYER, layer_metrics
from perfbench.spans import PROBE, Cell, Span, Tracer, covered_ns, percentile, self_times
from perfbench.workloads import (
    WORKLOADS,
    Mrbf1024,
    Outcome,
    check_sweep_csv,
    make_workload,
)

ROOT = Path(__file__).resolve().parents[2]


def span(sid, start, end, parent=None, thread=0, name="x", cell=None, attrs=None):
    return Span(sid, name, start, end, parent, cell, thread, attrs)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_nested_children_once():
    spans = [
        span(1, 0, 100),
        span(2, 10, 40, parent=1),
        span(3, 20, 30, parent=2),  # grandchild: charged to 2, not to 1
        span(4, 50, 70, parent=1),
    ]
    assert self_times(spans) == {1: 50, 2: 20, 3: 10, 4: 20}


def test_self_time_counts_overlapping_children_on_other_threads_once():
    spans = [
        span(1, 0, 100, thread=0),
        span(2, 10, 60, parent=1, thread=1),
        span(3, 40, 90, parent=1, thread=2),
        span(4, 95, 130, parent=1, thread=1),  # runs past its parent: clipped
    ]
    # children cover [10, 90] and [95, 100]
    assert self_times(spans)[1] == 100 - 80 - 5


def test_covered_ns_merges_and_clips():
    assert covered_ns([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert covered_ns([(0, 10), (20, 30)], 5, 25) == 10
    assert covered_ns([], 0, 10) == 0
    assert covered_ns([(30, 40)], 0, 10) == 0


# -- percentiles ---------------------------------------------------------------

def test_percentile_p50_and_p90():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5.5
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_matches_statistics_inclusive_quantiles():
    rng = np.random.default_rng(3)
    for n in (2, 5, 17, 480):
        values = rng.exponential(40.0, n).tolist()
        deciles = statistics.quantiles(values, n=10, method="inclusive")
        assert percentile(values, 50) == pytest.approx(statistics.median(values))
        assert percentile(values, 90) == pytest.approx(deciles[8])
        assert percentile(values, 90) == pytest.approx(np.percentile(values, 90))


def test_percentile_rejects_no_values_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- tracer --------------------------------------------------------------------

def test_tracer_rebinds_every_importing_module_and_restores():
    original = denoisebench.bilateral.bilateral_filter
    tracer = Tracer()
    assert tracer.install(HOOKS, record_spans=True) == []
    try:
        assert denoisebench.pipelines.bilateral_filter is not original
        assert denoisebench.bilateral.bilateral_filter is denoisebench.pipelines.bilateral_filter
        assert denoisebench.bench.denoise is denoisebench.pipelines.denoise
    finally:
        tracer.uninstall()
    assert denoisebench.pipelines.bilateral_filter is original
    assert denoisebench.bilateral.bilateral_filter is original


def test_traced_collaborative_records_nesting_and_bilateral_probe():
    tracer = Tracer()
    tracer.install(HOOKS, record_spans=True)
    try:
        image = np.random.default_rng(0).uniform(0, 255, (32, 32))
        tracer.begin_cell("c1")
        denoisebench.bench.denoise(image, MethodConfig(method="collaborative"))
        tracer.end_cell()
    finally:
        tracer.uninstall()
    spans, cells = tracer.drain()
    by_id = {s.id: s for s in spans}
    assert [c.id for c in cells] == ["c1"]
    assert all(s.cell == "c1" for s in spans)
    (bil,) = [s for s in spans if s.name == "bilateral.bilateral_filter"]
    assert bil.attrs["taps"] == 11 * 11 * 32 * 32
    assert bil.attrs["px"] == 32 * 32
    chain = []
    node = bil
    while node is not None:
        chain.append(node.name)
        node = by_id.get(node.parent)
    assert chain == ["bilateral.bilateral_filter", "pipelines.collaborative", "pipelines.denoise"]
    # the probe of a call is its sibling, so its time is nobody's self time
    assert any(s.name == PROBE and s.parent == bil.parent for s in spans)


def test_pool_threads_keep_their_own_spans_under_the_sweep():
    image = np.random.default_rng(1).uniform(0, 255, (64, 64))
    config = denoisebench.bench.BenchConfig(
        image_paths=("a.pgm",), sigmas=(10.0, 20.0), trials=3, workers=2,
        methods=(MethodConfig(method="visu"), MethodConfig(method="bayes")),
        record_runtime=False)
    tracer = Tracer()
    tracer.install(HOOKS, record_spans=True)
    try:
        rows = denoisebench.bench.run_benchmark(config, images={"a.pgm": image})
    finally:
        tracer.uninstall()
    spans, cells = tracer.drain()
    (sweep,) = [s for s in spans if s.name == "bench.run_benchmark"]
    assert len(cells) == len(rows) == 12
    assert len({c.id for c in cells}) == 12
    for cell in cells:
        mine = [s for s in spans if s.cell == cell.id]
        assert {s.thread for s in mine} == {cell.thread}
        assert {s.name for s in mine} >= {"bench.derive_seed", "noise.add_awgn",
                                          "pipelines.denoise", "metrics.evaluate"}
        assert all(cell.start <= s.start and s.end <= cell.end for s in mine)
        tops = [s for s in mine if s.name == "pipelines.denoise"]
        assert all(s.parent == sweep.id for s in tops)


def test_drain_keeps_spans_of_threads_that_exited():
    tracer = Tracer()

    def work(i):
        tracer.begin_cell(i)
        tracer.end_cell()

    for i in range(4):  # sequential threads may reuse one ident
        t = threading.Thread(target=work, args=(i,))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    _, cells = tracer.drain()
    assert sorted(c.id for c in cells) == [0, 1, 2, 3]
    assert tracer.drain() == ([], [])


# -- per-layer arithmetic ------------------------------------------------------

def test_layer_metrics_attribute_bilateral_work_to_the_outer_method():
    def bil(sid, start, end, parent, sigma_r, moved):
        return span(sid, start, end, parent, name="bilateral.bilateral_filter", cell="c",
                    attrs={"sigma_r": sigma_r, "taps": 1000, "px": 100, "moved": moved})

    spans = [
        span(1, 0, 1000, name="pipelines.denoise", cell="c", attrs={"method": "collaborative"}),
        span(2, 0, 900, parent=1, name="pipelines.collaborative", cell="c"),
        span(3, 0, 100, parent=2, name="pipelines.denoise", cell="c", attrs={"method": "bayes"}),
        bil(4, 100, 800, 2, 1e-6, 0),
        span(5, 800, 850, parent=2, name=PROBE, cell="c"),
        span(6, 1000, 2000, name="pipelines.denoise", cell="d", attrs={"method": "bilateral"}),
        bil(7, 1000, 1900, 6, 40.0, 100),
    ]
    cells = [Cell("c", 0, 0, 1050), Cell("d", 0, 1000, 2000)]
    m = layer_metrics([], spans, cells, workers=1, outcome=Outcome(attempted=2, exact=2),
                      untraced_cells_per_s=10.0, traced_cells_per_s=9.0)
    assert [name for name, _ in PER_LAYER] == list(m)
    assert m["bilateral.bilateral_filter.calls"] == 1.0
    assert m["bilateral.bilateral_filter.ns_per_tap"] == (700 + 900) / 2000
    assert m["bilateral.self_frac"] == pytest.approx(1600 / (2050 - 50))
    assert m["bilateral.px_moved_frac.collaborative"] == 0.0
    assert m["bilateral.px_moved_frac.bilateral"] == 1.0
    assert m["bilateral.sigma_r_floor.calls"] == 0.5
    assert m["bilateral.sigma_r_floor.self_frac"] == 700 / 1600
    assert m["pipelines.denoise.collaborative.ms_p50"] == 1000 / 1e6
    assert m["pipelines.denoise.bayes.ms_p50"] == 0.0  # nested inside collaborative
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
    assert m["bench.bit_exact_frac"] == 1.0


# -- output checks -------------------------------------------------------------

CSV_HEAD = denoisebench.bench.CSV_HEADER + "\n"
REF = {"img|10|visu|1": ["30.5", "0.9"], "img|10|visu|2": ["31.25", "0.875"]}


def csv_row(trial, psnr, uqi):
    return f"img,10,visu,3,{trial},7,1,1,1,{psnr},{uqi},0.000\n"


def test_check_sweep_csv_counts_each_failing_cell():
    exact = check_sweep_csv(CSV_HEAD + csv_row(1, "30.5", "0.9") + csv_row(2, "31.25", "0.875"), REF)
    assert (exact.attempted, exact.failed, exact.exact) == (2, 0, 2)
    perturbed = check_sweep_csv(CSV_HEAD + csv_row(1, "30.500000001", "0.9")
                                + csv_row(2, "31.25", "0.875"), REF)
    assert (perturbed.attempted, perturbed.failed) == (2, 1)
    nan_row = check_sweep_csv(CSV_HEAD + csv_row(1, "nan", "nan") + csv_row(2, "31.25", "0.875"), REF)
    assert nan_row.failed == 1
    missing = check_sweep_csv(CSV_HEAD + csv_row(2, "31.25", "0.875"), REF)
    assert (missing.attempted, missing.failed) == (2, 1)
    extra = check_sweep_csv(CSV_HEAD + csv_row(1, "30.5", "0.9") + csv_row(2, "31.25", "0.875")
                            + csv_row(3, "30", "0.9"), REF)
    assert (extra.attempted, extra.failed) == (3, 1)


def test_last_bit_difference_is_within_tolerance_but_not_bit_exact():
    nudged = repr(math.nextafter(30.5, 31.0))
    out = check_sweep_csv(CSV_HEAD + csv_row(1, nudged, "0.9") + csv_row(2, "31.25", "0.875"), REF)
    assert (out.failed, out.exact) == (0, 1)


@pytest.fixture(scope="module")
def reference():
    return json.loads((ROOT / "perfbench" / "reference.json").read_text())


def test_perturbed_denoise_output_counts_as_failed(tmp_path, monkeypatch, reference):
    workload = make_workload("wavelet_sweep", tmp_path, 0, reference)
    tracer = Tracer()
    clean = workload.setup(tracer)
    assert (clean.attempted, clean.failed, clean.exact) == (1, 0, 1)

    original = denoisebench.bench.denoise
    monkeypatch.setattr(denoisebench.bench, "denoise",
                        lambda *a, **k: original(*a, **k) + 1e-3)
    perturbed = workload.setup(tracer)
    assert (perturbed.attempted, perturbed.failed) == (1, 1)


def test_mrbf_output_digest_mismatch_counts_as_failed(tmp_path):
    workload = Mrbf1024(tmp_path, 0, hashlib.sha256(b"P5 expected").hexdigest())
    assert workload.check().failed == 1  # nothing written
    workload.output.write_bytes(b"P5 expected")
    assert (workload.check().failed, workload.check().exact) == (0, 1)
    workload.output.write_bytes(b"P5 perturbed")
    assert workload.check().failed == 1


def test_reference_covers_every_workload_variant_and_cell(reference):
    from perfbench.workloads import VARIANTS

    for name in WORKLOADS:
        variants = reference["workloads"][name]
        assert sorted(variants, key=int) == [str(v) for v in range(VARIANTS)]
    for variant in reference["workloads"]["wavelet_sweep"].values():
        assert len(variant) == 3 * 5 * 4 * 2
    for variant in reference["workloads"]["bilateral_sweep"].values():
        assert len(variant) == 2 * 5 * 3 * 2


# -- benchmark definition ------------------------------------------------------

def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
