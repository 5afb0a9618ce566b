"""Benchmark harness: seed derivation, CSV output, determinism, summaries."""

import csv
import math
import os
import platform
import subprocess
import sys
import threading
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import denoisebench
from denoisebench import bench, bilateral, noise
from denoisebench.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRow,
    derive_seed,
    run_benchmark,
    summarize,
    write_csv,
    write_summary,
)
from denoisebench import cli
from denoisebench.cli import main as cli_main
from denoisebench.imagecore import load_pgm, save_pgm
from denoisebench.metrics import evaluate
from denoisebench.noise import NoiseModel, add_awgn, splitmix64_stream
from denoisebench.pipelines import METHODS, MethodConfig, denoise
from denoisebench.synth import checkerboard_image, texture_image


def _tiny_config(tmp_path, methods=("visu", "bayes"), **kwargs):
    img_path = tmp_path / "tex64.pgm"
    if not img_path.exists():
        save_pgm(texture_image(64), img_path)
    defaults = dict(
        image_paths=(str(img_path),),
        sigmas=(10.0, 30.0),
        methods=tuple(MethodConfig(method=m, levels=2) for m in methods),
        trials=2,
        master_seed=99,
        record_runtime=False,
    )
    defaults.update(kwargs)
    return BenchConfig(**defaults)


def test_csv_header_exact():
    assert CSV_HEADER == (
        "image_id,sigma,method,levels,trial,seed,mse,rmse,mae,psnr_db,uqi,runtime_ms"
    )


def test_derive_seed_oracle():
    # independent re-derivation of the byte-folding chain, on random keys
    # that include the largest master seed and non-ASCII image ids
    rng = np.random.default_rng(5)
    masters = [99, 0, 2**64 - 1] + [int(m) for m in rng.integers(0, 2**63, 6)]
    for master in masters:
        for image_id in ("tex64", "", "Ünïcödé", "画像-θ", "a|b"):
            sigma = float(rng.uniform(0.5, 80.0))
            trial = int(rng.integers(1, 100))
            key = f"{image_id}|{sigma:g}|mrbf|{trial}".encode()
            h = master
            for b in key:
                h = int(splitmix64_stream(h ^ b, 1)[0])
            assert derive_seed(master, image_id, sigma, "mrbf", trial) == h
    h = derive_seed(99, "tex64", 10.0, "visu", 1)
    assert derive_seed(99, "tex64", 10.0, "visu", 2) != h
    assert derive_seed(98, "tex64", 10.0, "visu", 1) != h


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, trials=0)
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, sigmas=())
    # derive_seed folds the master seed mod 2**64: -1 would run as 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            _tiny_config(tmp_path, master_seed=seed)
    _tiny_config(tmp_path, master_seed=2**64 - 1)


def test_config_rejects_image_paths_with_one_id(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    paths = (str(tmp_path / "a" / "x.pgm"), str(tmp_path / "b" / "x.pgm"))
    with pytest.raises(ValueError, match=r"b/x\.pgm"):
        _tiny_config(tmp_path, image_paths=paths)


def test_config_rejects_sigmas_with_one_label(tmp_path):
    with pytest.raises(ValueError, match="10.0000001"):
        _tiny_config(tmp_path, sigmas=(10.0, 10.0000001))


def test_cli_rejects_method_listed_twice(tmp_path):
    img = tmp_path / "in.pgm"
    save_pgm(texture_image(64), img)
    out = tmp_path / "dup.csv"
    with pytest.raises(SystemExit, match="collaborative"):
        cli_main(["run", "--images", str(img), "--sigmas", "10", "--methods",
                  "collab,collaborative", "--levels", "2", "--trials", "1", "--out", str(out)])
    assert not out.exists()


def test_row_cardinality_and_order(tmp_path):
    rows = run_benchmark(_tiny_config(tmp_path))
    assert len(rows) == 1 * 2 * 2 * 2  # images x sigmas x methods x trials
    keys = [(r.image_id, r.sigma, r.method, r.levels, r.trial) for r in rows]
    assert keys == sorted(keys)


def test_byte_identical_csvs(tmp_path):
    config = _tiny_config(tmp_path)
    for name in ("a.csv", "b.csv"):
        write_csv(run_benchmark(config), tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_workers_do_not_change_results(tmp_path):
    serial = run_benchmark(_tiny_config(tmp_path))
    threaded = run_benchmark(_tiny_config(tmp_path, workers=4))
    assert serial == threaded


def test_failed_cell_yields_nan_row(tmp_path, capsys):
    # the bilateral method estimates its noise from a 2x2 Haar split, which a
    # one-row image does not have
    img_path = tmp_path / "row.pgm"
    save_pgm(texture_image(64)[:1, :50], img_path)
    config = BenchConfig(
        image_paths=(str(img_path),),
        sigmas=(10.0,),
        methods=(MethodConfig(method="bilateral", levels=3),),
        trials=1,
        record_runtime=False,
    )
    rows = run_benchmark(config)
    assert len(rows) == 1
    assert math.isnan(rows[0].psnr_db)
    assert "failed" in capsys.readouterr().err


# a serial cell's id is its bare index, a pool cell's names the worker count too
@pytest.mark.parametrize("failing, workers", [
    pytest.param(f, w, id=str(f) if w == 1 else f"{f}-workers{w}") for w in (1, 2) for f in (0, 3, 7)])
def test_noise_error_fails_only_its_cell(tmp_path, capsys, monkeypatch, failing, workers):
    # the serial sweep noises the next cell on a helper thread and the calling
    # thread, a pool thread its own cells; an error on any of them must land in
    # its own cell, first, middle or last
    config = _tiny_config(tmp_path, workers=workers)
    want = run_benchmark(config)
    capsys.readouterr()
    cells = [(s, m.method, t) for s in config.sigmas for m in config.methods
             for t in range(1, config.trials + 1)]
    sigma, method, trial = cells[failing]
    bad_seed = derive_seed(config.master_seed, "tex64", sigma, method, trial)
    add_awgn_chunk = noise._add_awgn_chunk

    def flaky_chunk(image, model, out, k0):
        if model.seed == bad_seed:
            raise RuntimeError("no noise today")
        add_awgn_chunk(image, model, out, k0)

    monkeypatch.setattr(noise, "_add_awgn_chunk", flaky_chunk)
    got = run_benchmark(config)
    assert capsys.readouterr().err == (
        f"bench: cell (tex64, sigma={sigma:g}, {method}, trial {trial}) "
        "failed: no noise today\n"
    )
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if (g.sigma, g.method, g.trial) == (sigma, method, trial):
            assert g.seed == bad_seed and math.isnan(g.psnr_db) and math.isnan(g.uqi)
            assert (g.image_id, g.levels) == (w.image_id, w.levels)
        else:
            assert g == w


def test_run_benchmark_leaves_no_thread_behind(tmp_path, monkeypatch):
    # a 256x256 bilateral cell on the calling thread filters on two lanes
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 2)
    big = tmp_path / "tex256.pgm"
    save_pgm(texture_image(256), big)
    before = threading.active_count()
    run_benchmark(_tiny_config(tmp_path))
    run_benchmark(_tiny_config(tmp_path, workers=2))
    run_benchmark(_tiny_config(tmp_path, image_paths=(str(big),), methods=("bilateral",),
                               sigmas=(20.0,), trials=1))
    assert threading.active_count() == before
    assert [t.name for t in threading.enumerate() if t.name.startswith("bilateral")] == []


@pytest.mark.parametrize("workers", [1, 2])
def test_cell_frees_its_noisy_image_before_scoring(tmp_path, monkeypatch, workers):
    # only `denoise` reads a cell's noisy image: neither the cell, the sweep
    # loop nor the serial sweep's prefetch may keep it while the cell is scored
    received, freed = {}, []
    real_denoise, real_evaluate = bench.denoise, bench.evaluate

    def denoise_spy(noisy, mcfg, **kwargs):
        received[threading.get_ident()] = weakref.ref(noisy)
        return real_denoise(noisy, mcfg, **kwargs)

    def evaluate_spy(clean, denoised):
        freed.append(received.pop(threading.get_ident())() is None)
        return real_evaluate(clean, denoised)

    monkeypatch.setattr(bench, "denoise", denoise_spy)
    monkeypatch.setattr(bench, "evaluate", evaluate_spy)
    rows = run_benchmark(_tiny_config(tmp_path, workers=workers))
    assert not any(math.isnan(r.psnr_db) for r in rows)
    assert len(rows) == 8 and freed == [True] * 8


def test_run_benchmark_leaves_no_thread_behind_with_small_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(noise, "_CHUNK_PAIRS", 7)
    test_run_benchmark_leaves_no_thread_behind(tmp_path, monkeypatch)


@pytest.mark.parametrize("workers", [1, 2])
def test_cell_frees_its_noisy_image_before_scoring_with_small_chunks(tmp_path, monkeypatch,
                                                                     workers):
    # a 64x64 image is 293 chunks of 7 pairs, filled by both serial threads
    monkeypatch.setattr(noise, "_CHUNK_PAIRS", 7)
    test_cell_frees_its_noisy_image_before_scoring(tmp_path, monkeypatch, workers)


def _share_noise_chunks(monkeypatch, filler):
    """Make the serial sweep's chunks small and let `filler` fill them.

    `filler` is "caller" or "helper" for one thread to fill every chunk, or
    "both" for the helper to wait until the calling thread has filled one
    chunk, and the calling thread then to wait until the helper has filled
    one, so that both fill chunks of the first image.  Returns the list of
    (thread ident, seed) of each filled chunk.
    """
    monkeypatch.setattr(noise, "_CHUNK_PAIRS", 7)
    caller = threading.get_ident()
    go, helper_went = threading.Event(), threading.Event()
    fills = []
    real_fill, real_chunk = noise._NoisyImage.fill, noise._add_awgn_chunk

    def fill(self, until=None):
        if filler != ("helper" if threading.get_ident() == caller else "caller"):
            real_fill(self, until)

    def chunk(image, model, out, k0):
        on_caller = threading.get_ident() == caller
        if filler == "both" and not on_caller:
            assert go.wait(10)
        fills.append((threading.get_ident(), model.seed))
        real_chunk(image, model, out, k0)
        if filler == "both":
            if on_caller and not go.is_set():
                go.set()
                assert helper_went.wait(10)
            elif not on_caller:
                helper_went.set()

    monkeypatch.setattr(noise._NoisyImage, "fill", fill)
    monkeypatch.setattr(noise, "_add_awgn_chunk", chunk)
    return fills


@pytest.mark.parametrize("filler", ["caller", "helper", "both"])
@pytest.mark.parametrize("shape", [(64, 64), (63, 65), (1, 1)])
def test_serial_noise_equals_add_awgn_whoever_fills_the_chunks(tmp_path, monkeypatch, filler,
                                                               shape):
    fills = _share_noise_chunks(monkeypatch, filler)
    caller = threading.get_ident()
    received = []

    def denoise_spy(noisy, mcfg, **kwargs):
        received.append(noisy.copy())
        return noisy

    monkeypatch.setattr(bench, "denoise", denoise_spy)
    clean = texture_image(128)[: shape[0], : shape[1]]
    path = str(tmp_path / "img.pgm")
    config = _tiny_config(tmp_path, image_paths=(path,))
    run_benchmark(config, images={path: clean})
    chunks = len(noise._noise_chunks(math.prod(shape)))
    # add_awgn fills its image as the sweep does: unpatched, it is the reference
    monkeypatch.undo()
    cells = [(s, m.method, t) for s in config.sigmas for m in config.methods
             for t in range(1, config.trials + 1)]
    assert len(received) == len(cells)
    for got, (sigma, method, trial) in zip(received, cells):
        seed = derive_seed(config.master_seed, "img", sigma, method, trial)
        assert np.array_equal(got, add_awgn(clean, NoiseModel(sigma=sigma, seed=seed)))
    assert len(fills) == len(cells) * chunks
    threads = {t for t, _ in fills}
    if filler == "caller":
        assert threads == {caller}
    elif filler == "helper":
        assert caller not in threads
    else:
        assert len(threads) == 2
        if chunks > 1:  # both threads filled the first image
            assert len({t for t, seed in fills if seed == fills[0][1]}) == 2


def test_shared_noise_under_fast_thread_switches(tmp_path, monkeypatch):
    # one pair per chunk and a thread switch every microsecond: a lost count
    # would hang the sweep or hand a cell an incomplete image
    config = _tiny_config(tmp_path)
    want = run_benchmark(config)
    monkeypatch.setattr(noise, "_CHUNK_PAIRS", 1)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweep = threading.Thread(target=lambda: got.extend(run_benchmark(config)), daemon=True)
        sweep.start()
        sweep.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not sweep.is_alive()
    assert got == want


def test_noise_error_in_a_chunk_the_calling_thread_fills_fails_only_its_cell(
        tmp_path, capsys, monkeypatch):
    config = _tiny_config(tmp_path)
    want = run_benchmark(config)
    capsys.readouterr()
    fills = _share_noise_chunks(monkeypatch, "caller")
    bad_seed = derive_seed(config.master_seed, "tex64", 30.0, "visu", 2)
    add_awgn_chunk = noise._add_awgn_chunk

    def flaky_chunk(image, model, out, k0):
        if model.seed == bad_seed and k0 == 7 * 100:
            raise RuntimeError("no noise today")
        add_awgn_chunk(image, model, out, k0)

    monkeypatch.setattr(noise, "_add_awgn_chunk", flaky_chunk)
    got = run_benchmark(config)
    assert {t for t, _ in fills} == {threading.get_ident()}
    assert capsys.readouterr().err == (
        "bench: cell (tex64, sigma=30, visu, trial 2) failed: no noise today\n")
    for g, w in zip(got, want, strict=True):
        if (g.sigma, g.method, g.trial) == (30.0, "visu", 2):
            assert g.seed == bad_seed and math.isnan(g.psnr_db)
        else:
            assert g == w


def test_noise_error_in_a_next_cell_chunk_the_calling_thread_fills_fails_only_that_cell(
        tmp_path, capsys, monkeypatch):
    # the helper is held on its last chunk of cell 3's image, so the calling
    # thread, done with that image, fills cell 4's chunks meanwhile; the first
    # one raises, and the error belongs to cell 4, not to the cell being run
    config = _tiny_config(tmp_path)
    want = run_benchmark(config)
    capsys.readouterr()
    monkeypatch.setattr(noise, "_CHUNK_PAIRS", 7)
    caller = threading.get_ident()
    (sigma, method, trial), (bad_sigma, bad_method, bad_trial) = [
        (s, m.method, t) for s in config.sigmas for m in config.methods
        for t in range(1, config.trials + 1)][3:5]
    held_seed = derive_seed(config.master_seed, "tex64", sigma, method, trial)
    bad_seed = derive_seed(config.master_seed, "tex64", bad_sigma, bad_method, bad_trial)
    held, release, raised = threading.Event(), threading.Event(), []
    add_awgn_chunk = noise._add_awgn_chunk

    def gated_chunk(image, model, out, k0):
        on_caller = threading.get_ident() == caller
        if model.seed == held_seed and on_caller:
            assert held.wait(10)
        elif model.seed == held_seed and not held.is_set():
            held.set()
            assert release.wait(10)
        elif model.seed == bad_seed and on_caller:
            raised.append(held.is_set() and not release.is_set())
            release.set()
            raise RuntimeError("no noise today")
        add_awgn_chunk(image, model, out, k0)

    monkeypatch.setattr(noise, "_add_awgn_chunk", gated_chunk)
    got = run_benchmark(config)
    assert raised == [True]
    assert capsys.readouterr().err == (
        f"bench: cell (tex64, sigma={bad_sigma:g}, {bad_method}, trial {bad_trial}) "
        "failed: no noise today\n")
    for g, w in zip(got, want, strict=True):
        if (g.sigma, g.method, g.trial) == (bad_sigma, bad_method, bad_trial):
            assert g.seed == bad_seed and math.isnan(g.psnr_db)
        else:
            assert g == w


def test_serial_rows_equal_two_worker_rows_on_several_images(tmp_path):
    checker = tmp_path / "check64.pgm"
    save_pgm(checkerboard_image(64, 8), checker)
    config = _tiny_config(tmp_path)
    paths = config.image_paths + (str(checker),)
    serial = run_benchmark(_tiny_config(tmp_path, image_paths=paths))
    assert {r.image_id for r in serial} == {"tex64", "check64"}
    assert serial == run_benchmark(_tiny_config(tmp_path, image_paths=paths, workers=2))


def _texture_pgms(tmp_path, count):
    paths = []
    for k in range(count):
        paths.append(str(tmp_path / f"tex{k}_32.pgm"))
        save_pgm(texture_image(32, seed=k), paths[-1])
    return tuple(paths)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_holds_a_bounded_number_of_inputs_whatever_the_image_count(tmp_path, monkeypatch,
                                                                         workers):
    # six images of 8 cells each: a serial sweep holds the current cell's input
    # and, across an image boundary, the next one's; a pooled sweep no more
    # than its window of 2 * workers cells, which 8 cells per image fill
    decoded, live = [], []
    real_load_pgm, real_denoise = bench.load_pgm, bench.denoise

    def load_spy(path):
        image = real_load_pgm(path)
        decoded.append(weakref.ref(image))
        return image

    def denoise_spy(noisy, mcfg, **kwargs):
        live.append(sum(ref() is not None for ref in decoded))
        return real_denoise(noisy, mcfg, **kwargs)

    monkeypatch.setattr(bench, "load_pgm", load_spy)
    monkeypatch.setattr(bench, "denoise", denoise_spy)
    rows = run_benchmark(_tiny_config(tmp_path, image_paths=_texture_pgms(tmp_path, 6),
                                      workers=workers))
    assert len(rows) == len(live) == 48 and not any(math.isnan(r.psnr_db) for r in rows)
    assert len(decoded) == 12  # a check, then one decode for the cells
    assert 1 <= max(live) <= (2 if workers == 1 else 2 * workers)
    assert all(ref() is None for ref in decoded)


def _no_cell(*args, **kwargs):
    pytest.fail("a cell ran")


@pytest.mark.parametrize("workers", [1, 2])
def test_truncated_last_pgm_stops_the_run_before_any_cell(tmp_path, monkeypatch, workers):
    paths = _texture_pgms(tmp_path, 3) + (str(_truncated_pgm(tmp_path / "cut.pgm")),)
    monkeypatch.setattr(bench, "denoise", _no_cell)
    out = tmp_path / "run.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--images", ",".join(paths), "--sigmas", "10", "--methods", "visu",
                  "--trials", "1", "--levels", "2", "--workers", str(workers), "--out", str(out)])
    assert exc.value.code.startswith("bench run: ") and "cut.pgm: truncated" in exc.value.code
    assert not out.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_supplied_image_is_checked_before_any_cell(tmp_path, monkeypatch, workers):
    # the bad array comes last, after inputs whose cells could run first
    paths = _texture_pgms(tmp_path, 3) + (str(tmp_path / "bad.pgm"),)
    monkeypatch.setattr(bench, "denoise", _no_cell)
    config = _tiny_config(tmp_path, image_paths=paths, workers=workers)
    supplied = {paths[0]: texture_image(32), paths[-1]: np.full((8, 8), np.nan)}
    with pytest.raises(ValueError, match="non-finite"):
        run_benchmark(config, images=supplied)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("victim", [0, 2])
def test_input_removed_after_the_check_fails_the_run_in_one_line(tmp_path, monkeypatch, workers,
                                                                victim):
    # the input is gone when its first cell decodes it again
    paths = _texture_pgms(tmp_path, 3)
    real_load_pgm = bench.load_pgm

    def load_then_remove(path):
        image = real_load_pgm(path)
        if path == paths[victim]:
            os.remove(path)
        return image

    monkeypatch.setattr(bench, "load_pgm", load_then_remove)
    out = tmp_path / "run.csv"
    before = threading.active_count()
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--images", ",".join(paths), "--sigmas", "10", "--methods", "visu",
                  "--trials", "1", "--levels", "2", "--workers", str(workers), "--out", str(out)])
    assert exc.value.code.startswith("bench run: ") and "\n" not in exc.value.code
    assert "No such file or directory" in exc.value.code and paths[victim] in exc.value.code
    assert not out.exists()
    assert threading.active_count() == before


def test_summarize_means():
    def row(method, sigma, psnr):
        return BenchRow("img", sigma, method, 3, 1, 0, 1.0, 1.0, 1.0, psnr, 0.5, 0.0)

    rows = [row("visu", 20.0, 40.0), row("visu", 10.0, 30.0), row("bayes", 20.0, 37.0),
            row("visu", 10.0, 32.0), row("bayes", 10.0, 35.0)]
    # (method, sigma) rows, methods then sigmas sorted, then one "all" row per method
    assert summarize(rows) == [
        ("bayes", 10.0, 35.0, 0.5, 1, 0),
        ("bayes", 20.0, 37.0, 0.5, 1, 0),
        ("visu", 10.0, 31.0, 0.5, 2, 0),
        ("visu", 20.0, 40.0, 0.5, 1, 0),
        ("bayes", "all", 36.0, 0.5, 2, 0),
        ("visu", "all", 34.0, 0.5, 3, 0),
    ]
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_averages_only_cells_that_succeeded():
    nan = float("nan")

    def row(method, psnr, uqi):
        return BenchRow("img", 10.0, method, 3, 1, 0, 1.0, 1.0, 1.0, psnr, uqi, 0.0)

    rows = [row("visu", 30.0, 0.25), row("visu", nan, nan), row("visu", 32.0, 0.75),
            row("bayes", nan, nan)]
    bayes, visu, bayes_all, visu_all = summarize(rows)
    assert visu == ("visu", 10.0, 31.0, 0.5, 2, 1)
    assert visu_all == ("visu", "all", 31.0, 0.5, 2, 1)
    # NaN only where every cell failed
    assert bayes[:2] == ("bayes", 10.0) and bayes_all[:2] == ("bayes", "all")
    for _, _, psnr, uqi, n_ok, n_failed in (bayes, bayes_all):
        assert math.isnan(psnr) and math.isnan(uqi) and (n_ok, n_failed) == (0, 1)


def test_csv_writers_print_infinite_and_nan_scores_with_their_sign(tmp_path):
    scores = {"bayes": -math.inf, "neigh": math.nan, "visu": math.inf}
    rows = [BenchRow("img", 10.0, m, 2, 1, 7, v, v, v, v, v, 0.0) for m, v in scores.items()]
    write_csv(rows, tmp_path / "r.csv")
    write_summary(rows, tmp_path / "s.csv", tmp_path / "p.dat")
    with open(tmp_path / "r.csv", newline="") as fh:
        assert [row[6:11] for row in list(csv.reader(fh))[1:]] == [
            ["-inf"] * 5, ["nan"] * 5, ["inf"] * 5]
    with open(tmp_path / "s.csv", newline="") as fh:
        assert [row[:4] for row in list(csv.reader(fh))[1:4]] == [
            ["bayes", "10", "-inf", "-inf"], ["neigh", "10", "nan", "nan"],
            ["visu", "10", "inf", "inf"]]


def test_write_summary_files(tmp_path):
    rows = run_benchmark(_tiny_config(tmp_path))
    write_summary(rows, tmp_path / "s.csv", tmp_path / "p.dat")
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "method,sigma,mean_psnr_db,mean_uqi,n_ok,n_failed"
    table = (tmp_path / "p.dat").read_text().splitlines()
    assert table[0] == "# sigma bayes visu"
    assert len(table) == 3  # header + one row per sigma


def test_cli_run_and_synth(tmp_path, capsys):
    out_dir = tmp_path / "synth"
    assert cli_main(["synth", "--out", str(out_dir)]) == 0
    assert (out_dir / "gradient128.pgm").exists()
    assert (out_dir / "texture512.pgm").exists()

    out_csv = tmp_path / "run.csv"
    rc = cli_main([
        "run",
        "--images", str(out_dir / "gradient128.pgm"),
        "--sigmas", "10",
        "--methods", "visu,collab",
        "--trials", "1",
        "--levels", "2",
        "--out", str(out_csv),
        "--no-runtime",
    ])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # header + visu + collaborative
    assert {line.split(",")[2] for line in lines[1:]} == {"visu", "collaborative"}
    # all three files end their lines with LF only
    for path in (out_csv, tmp_path / "run_summary.csv", tmp_path / "run_plot.dat"):
        data = path.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, path.name


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["regular-file", "under-a-file"])
def test_cli_synth_reports_unusable_out_in_one_line(tmp_path, out):
    (tmp_path / "file").write_text("")
    with pytest.raises(SystemExit) as exc:
        cli_main(["synth", "--out", str(tmp_path / out)])
    assert exc.value.code.startswith("bench synth: ") and "\n" not in exc.value.code
    assert str(tmp_path / out) in exc.value.code


@pytest.mark.parametrize("method", ["bayes", "collaborative"])
def test_sweep_cell_uses_the_estimated_sigma(tmp_path, method):
    # one cell recomputed by hand: noise from its derived seed, the method
    # with the MAD estimate (no true sigma), then the clamped scores
    config = _tiny_config(tmp_path, methods=(method,), sigmas=(30.0,), trials=1)
    (row,) = run_benchmark(config)
    clean = load_pgm(config.image_paths[0])
    seed = derive_seed(99, "tex64", 30.0, method, 1)
    noisy = add_awgn(clean, NoiseModel(sigma=30.0, seed=seed))
    report = evaluate(clean, denoise(noisy, MethodConfig(method=method, levels=2)))
    assert row.seed == seed
    assert (row.psnr_db, row.uqi) == (report.psnr_db, report.uqi)
    oracle = denoise(noisy, MethodConfig(method=method, levels=2), oracle_sigma=30.0)
    assert row.psnr_db != evaluate(clean, oracle).psnr_db


def test_cli_run_reports_failed_cells(tmp_path, capsys):
    # a one-row image has no noise estimate for bilateral; the visu cells still run
    img = tmp_path / "tiny.pgm"
    save_pgm(texture_image(64)[:1, :4], img)
    out_csv = tmp_path / "tiny.csv"
    rc = cli_main([
        "run", "--images", str(img), "--sigmas", "10,20", "--methods", "visu,bilateral",
        "--trials", "1", "--levels", "3", "--out", str(out_csv), "--no-runtime",
    ])
    assert rc == 1
    assert "bench: 2 of 4 cells failed" in capsys.readouterr().err
    assert len(out_csv.read_text().splitlines()) == 5
    assert (tmp_path / "tiny_summary.csv").exists()
    assert (tmp_path / "tiny_plot.dat").exists()


def test_cli_run_summary_keeps_trials_that_succeeded(tmp_path, capsys):
    # bilateral fails on the one-row image only (no noise estimate); its 16x16
    # trials must still give the summary a mean, next to the failed count
    paths = []
    for rows in (1, 16):
        paths.append(str(tmp_path / f"img{rows}.pgm"))
        save_pgm(texture_image(64)[:rows, :16], paths[-1])
    out_csv = tmp_path / "mixed.csv"
    rc = cli_main([
        "run", "--images", ",".join(paths), "--sigmas", "10", "--methods", "visu,bilateral",
        "--trials", "2", "--levels", "3", "--out", str(out_csv), "--no-runtime",
    ])
    assert rc == 1
    assert "bench: 2 of 8 cells failed" in capsys.readouterr().err
    trials = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    bilateral16 = [float(t[9]) for t in trials if t[0] == "img16" and t[2] == "bilateral"]
    want = float(np.mean(bilateral16))
    summary = (tmp_path / "mixed_summary.csv").read_text().splitlines()
    assert summary[0] == "method,sigma,mean_psnr_db,mean_uqi,n_ok,n_failed"
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in summary[1:]}
    for sigma in ("10", "all"):
        psnr, uqi, n_ok, n_failed = rows[("bilateral", sigma)]
        assert float(psnr) == want and uqi != "nan" and (n_ok, n_failed) == ("2", "2")
        assert rows[("visu", sigma)][2:] == ["4", "0"]
    plot = (tmp_path / "mixed_plot.dat").read_text().splitlines()
    assert plot[0] == "# sigma bilateral visu"
    assert plot[1].split()[1] == f"{want:.4f}"


def test_cli_config_file_with_overrides(tmp_path):
    img = tmp_path / "img.pgm"
    save_pgm(texture_image(64), img)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        f"# benchmark settings\nimages = {img}\nsigmas = 20\n"
        "methods = visu\ntrials = 1\nlevels = 2\nout = ignored.csv\n"
    )
    out_csv = tmp_path / "cfg_run.csv"
    rc = cli_main(["run", "--config", str(cfg), "--out", str(out_csv), "--no-runtime"])
    assert rc == 0
    assert out_csv.exists()
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[1] == "20"
    # flags override the file's sigmas and levels too
    rc = cli_main(["run", "--config", str(cfg), "--out", str(out_csv), "--sigmas", "30",
                   "--levels", "1", "--no-runtime"])
    assert rc == 0
    fields = out_csv.read_text().splitlines()[1].split(",")
    assert (fields[1], fields[2], fields[3]) == ("30", "visu", "1")


def test_cli_run_quotes_image_ids_that_would_split_a_row(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    ids = ["a,b", 'q"t', "c\rr", "l\nf"]
    for seed, image_id in enumerate(ids):
        save_pgm(texture_image(64, seed=seed), images / f"{image_id}.pgm")
    out_csv = tmp_path / "ids.csv"
    rc = cli_main(["run", "--images", str(images), "--sigmas", "10", "--methods", "visu,bilateral",
                   "--trials", "1", "--levels", "2", "--out", str(out_csv), "--no-runtime"])
    assert rc == 0
    with open(out_csv, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == CSV_HEADER.split(",")
    assert [len(row) for row in table] == [12] * 9
    assert sorted(row[0] for row in table[1:]) == sorted(ids * 2)
    assert all(float(row[9]) > 0 for row in table[1:])


@pytest.mark.parametrize("via", ["flag", "config"])
def test_cli_run_takes_an_existing_image_path_with_a_comma_whole(tmp_path, via):
    img = tmp_path / "a,b.pgm"
    save_pgm(texture_image(64), img)
    out_csv = tmp_path / "run.csv"
    argv = ["run", "--sigmas", "10", "--methods", "visu", "--trials", "1", "--levels", "2",
            "--out", str(out_csv), "--no-runtime"]
    if via == "flag":
        argv += ["--images", str(img)]
    else:
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"images = {img}\n")
        argv += ["--config", str(cfg)]
    assert cli_main(argv) == 0
    with open(out_csv, newline="") as fh:
        assert [row[0] for row in list(csv.reader(fh))[1:]] == ["a,b"]


@pytest.mark.parametrize("via", ["flag", "config"])
def test_cli_run_splits_an_image_list_too_long_to_be_one_path(tmp_path, monkeypatch, via):
    names = [f"img_{i:04d}.pgm" for i in range(30)]
    for seed, name in enumerate(names):
        save_pgm(texture_image(16, seed=seed), tmp_path / name)
    spec = ",".join(names)
    assert len(spec) > 255  # longer than one path component may be
    monkeypatch.chdir(tmp_path)
    argv = ["run", "--sigmas", "10", "--methods", "visu", "--trials", "1", "--levels", "2",
            "--out", "run.csv", "--no-runtime"]
    if via == "flag":
        argv += ["--images", spec]
    else:
        (tmp_path / "bench.cfg").write_text(f"images = {spec}\n")
        argv += ["--config", "bench.cfg"]
    assert cli_main(argv) == 0
    with open(tmp_path / "run.csv", newline="") as fh:
        assert [row[0] for row in list(csv.reader(fh))[1:]] == [n[:-4] for n in names]


@pytest.mark.parametrize("text, line, message", [
    # a misspelt key would otherwise fall back to its default without a word
    ("trails = 1\n", 3, "unknown key 'trails'; expected one of images, sigmas, methods, levels, "
                         "trials, seed, workers, out, save_images"),
    ("metrics = unclamped\n", 3, "unknown key 'metrics'; expected one of"),
    ("# one trial\ntrials = 1\ntrials = 2\n", 5, "repeated key 'trials'"),
    ("trials 1\n", 3, "expected 'key = value'"),
], ids=["unknown", "stale-metrics", "repeated", "no-equals"])
def test_cli_run_rejects_bad_config_line(tmp_path, text, line, message):
    img = tmp_path / "in.pgm"
    save_pgm(texture_image(64), img)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"images = {img}\nmethods = visu\n{text}")
    out = tmp_path / "run.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(cfg), "--sigmas", "10", "--out", str(out)])
    assert exc.value.code.startswith(f"bench run: {cfg}:{line}: {message}")
    assert "\n" not in exc.value.code
    assert not out.exists()


def test_cli_run_reports_missing_config_file_in_one_line(tmp_path):
    cfg = tmp_path / "missing.cfg"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "run.csv")])
    assert exc.value.code.startswith("bench run: ") and str(cfg) in exc.value.code


def test_cli_denoise_single_shot(tmp_path):
    img = tmp_path / "in.pgm"
    save_pgm(texture_image(64), img)
    out = tmp_path / "out.pgm"
    rc = cli_main([
        "denoise", "--in", str(img), "--method", "bayes",
        "--levels", "2", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()


def _denoise_checker_argv(tmp_path):
    img = tmp_path / "checker128.pgm"
    save_pgm(checkerboard_image(128), img)
    return ["denoise", "--in", str(img), "--method", "bayes", "--out", str(tmp_path / "out.pgm")]


def _noisy_texture_pgm(tmp_path):
    # a noisy texture: a clean checkerboard's Haar details are 0, so there the
    # estimate and the true sigma would give the same bytes
    img = tmp_path / "noisy128.pgm"
    save_pgm(add_awgn(texture_image(128), NoiseModel(sigma=20.0, seed=4)), img)
    return img


def test_cli_denoise_sigma_selects_the_true_sigma(tmp_path):
    img = _noisy_texture_pgm(tmp_path)
    for method in ("bayes", "mrbf"):
        argv = ["denoise", "--in", str(img), "--method", method, "--out", str(tmp_path / "true.pgm")]
        assert cli_main(argv + ["--sigma", "20"]) == 0
        save_pgm(denoise(load_pgm(img), MethodConfig(method=method), oracle_sigma=20.0),
                 tmp_path / "want.pgm")
        assert (tmp_path / "true.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes(), method


def test_cli_denoise_without_sigma_uses_the_estimate(tmp_path):
    img = _noisy_texture_pgm(tmp_path)
    for method in ("bayes", "mrbf"):
        argv = ["denoise", "--in", str(img), "--method", method]
        assert cli_main(argv + ["--out", str(tmp_path / "estimated.pgm")]) == 0
        assert cli_main(argv + ["--sigma", "20", "--out", str(tmp_path / "true.pgm")]) == 0
        save_pgm(denoise(load_pgm(img), MethodConfig(method=method)), tmp_path / "want.pgm")
        estimated = (tmp_path / "estimated.pgm").read_bytes()
        assert estimated == (tmp_path / "want.pgm").read_bytes(), method
        assert estimated != (tmp_path / "true.pgm").read_bytes(), method


@pytest.mark.parametrize("extra, message", [
    (["--levels", "9"], "bench denoise: levels must be in [1, 6]"),
    (["--sigma", "-5"], "bench denoise: --sigma must be finite and positive, got -5"),
    (["--sigma", "0"], "bench denoise: --sigma must be finite and positive, got 0"),
    (["--sigma", "nan"], "bench denoise: --sigma must be finite and positive, got nan"),
    (["--sigma", "inf"], "bench denoise: --sigma must be finite and positive, got inf"),
])
def test_cli_denoise_reports_bad_arguments_in_one_line(tmp_path, extra, message):
    with pytest.raises(SystemExit) as exc:
        cli_main(_denoise_checker_argv(tmp_path) + extra)
    assert exc.value.code == message
    assert not (tmp_path / "out.pgm").exists()


def test_cli_denoise_writes_odd_size_for_every_method(tmp_path):
    # 75 and 100 do not divide by 2^3; each output keeps the input's shape
    img = tmp_path / "odd.pgm"
    save_pgm(checkerboard_image(128)[:75, :100], img)
    for method in METHODS:
        out = tmp_path / f"{method}.pgm"
        assert cli_main(["denoise", "--in", str(img), "--method", method, "--out", str(out)]) == 0
        assert load_pgm(out).shape == (75, 100)


def test_cli_denoise_checks_sigma_before_reading_the_image(tmp_path):
    argv = ["denoise", "--in", str(tmp_path / "missing.pgm"), "--method", "bayes",
            "--sigma", "-5", "--out", str(tmp_path / "out.pgm")]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == "bench denoise: --sigma must be finite and positive, got -5"


def _truncated_pgm(path):
    save_pgm(texture_image(64), path)
    path.write_bytes(path.read_bytes()[:-100])
    return path


_UNREADABLE_IMAGES = [
    pytest.param(lambda d: d / "missing.pgm", "No such file or directory", id="missing"),
    pytest.param(lambda d: _truncated_pgm(d / "cut.pgm"), "cut.pgm: truncated P5 pixel payload",
                 id="truncated"),
]


@pytest.mark.parametrize("make_image, message", _UNREADABLE_IMAGES)
def test_cli_run_reports_unreadable_image_in_one_line(tmp_path, make_image, message):
    out = tmp_path / "run.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--images", str(make_image(tmp_path)), "--sigmas", "10",
                  "--methods", "visu", "--trials", "1", "--levels", "2", "--out", str(out)])
    assert exc.value.code.startswith("bench run: ") and message in exc.value.code
    assert "\n" not in exc.value.code
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("{img},{empty}", "no *.pgm images in directory {empty!r}"),
    ("{img},", "empty entry in image list '{img},'"),
    ("{img},,{img}", "empty entry in image list '{img},,{img}'"),
], ids=["empty-dir", "trailing-comma", "double-comma"])
def test_cli_run_rejects_image_list_entry_without_images(tmp_path, monkeypatch, spec, message):
    img = tmp_path / "a.pgm"
    save_pgm(texture_image(64), img)
    save_pgm(texture_image(64, seed=1), tmp_path / "b.pgm")
    empty = tmp_path / "emptydir"
    empty.mkdir()
    monkeypatch.chdir(tmp_path)  # an empty entry must not pick up b.pgm from here
    names = {"img": str(img), "empty": str(empty)}
    out = tmp_path / "run.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--images", spec.format(**names), "--sigmas", "10", "--methods", "visu",
                  "--trials", "1", "--levels", "2", "--out", str(out)])
    assert exc.value.code == "bench run: " + message.format(**names)
    assert not out.exists()


@pytest.mark.parametrize("make_image, message", _UNREADABLE_IMAGES)
def test_cli_denoise_reports_unreadable_image_in_one_line(tmp_path, make_image, message):
    out = tmp_path / "out.pgm"
    with pytest.raises(SystemExit) as exc:
        cli_main(["denoise", "--in", str(make_image(tmp_path)), "--method", "bayes",
                  "--out", str(out)])
    assert exc.value.code.startswith("bench denoise: ") and message in exc.value.code
    assert "\n" not in exc.value.code
    assert not out.exists()


def test_save_images_dir_is_made_and_holds_every_cell(tmp_path):
    out_dir = tmp_path / "a" / "b"
    rows = run_benchmark(_tiny_config(tmp_path, save_images_dir=str(out_dir), workers=2))
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        f"tex64_s{r.sigma:g}_{r.method}_t{r.trial}.pgm" for r in rows)


@pytest.mark.parametrize("out, save_images, message", [
    ("{d}/missing/run.csv", None, "parent of output '{d}/missing/run.csv' is not a directory"),
    ("{d}/file/run.csv", None, "parent of output '{d}/file/run.csv' is not a directory"),
    ("{d}", None, "output '{d}' is a directory"),
    ("{d}/run.csv", "{d}/file/sub", "Not a directory"),
], ids=["missing-parent", "file-parent", "directory", "save-images-under-file"])
def test_cli_run_rejects_unusable_output_before_any_cell(tmp_path, monkeypatch, out, save_images,
                                                         message):
    img = tmp_path / "a.pgm"
    save_pgm(texture_image(64), img)
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(bench, "denoise", _no_cell)
    argv = ["run", "--images", str(img), "--sigmas", "10", "--methods", "visu", "--trials", "1",
            "--levels", "2", "--out", out.format(d=tmp_path)]
    if save_images:
        argv += ["--save-images", save_images.format(d=tmp_path)]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code.startswith("bench run: ") and "\n" not in exc.value.code
    assert message.format(d=tmp_path) in exc.value.code


# one failing call of each command: a missing input image, or an output directory under a file
_FAILING_COMMANDS = {
    "run": ["--images", "{d}/missing.pgm", "--sigmas", "10", "--methods", "visu", "--trials", "1",
            "--levels", "2", "--out", "{d}/run.csv"],
    "synth": ["--out", "{d}/file/sub"],
    "denoise": ["--in", "{d}/missing.pgm", "--method", "bayes", "--out", "{d}/out.pgm"],
}


@pytest.mark.parametrize("command", list(_FAILING_COMMANDS))
def test_unreadable_image_exits_with_status_1(tmp_path, command):
    (tmp_path / "file").write_text("")
    src = str(Path(denoisebench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "denoisebench.cli", command,
         *(a.format(d=tmp_path) for a in _FAILING_COMMANDS[command])],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"bench {command}: ") and result.stderr.count("\n") == 1


# the library call each command makes, and arguments that reach it
_LIBRARY_CALLS = {
    "run": ("run_benchmark", ["--images", "{d}/in.pgm", "--methods", "visu", "--out", "{d}/r.csv"]),
    "synth": ("texture_image", ["--out", "{d}/synth"]),
    "denoise": ("denoise", ["--in", "{d}/in.pgm", "--method", "bayes", "--out", "{d}/out.pgm"]),
}


@pytest.mark.parametrize("error", [ValueError, OSError])
@pytest.mark.parametrize("command", list(_LIBRARY_CALLS))
def test_cli_reports_library_errors_of_every_command_in_one_line(tmp_path, monkeypatch, command,
                                                                 error):
    save_pgm(texture_image(64), tmp_path / "in.pgm")
    call, argv = _LIBRARY_CALLS[command]

    def fail(*args, **kwargs):
        raise error("library call failed")

    monkeypatch.setattr(cli, call, fail)
    with pytest.raises(SystemExit) as exc:
        cli_main([command, *(a.format(d=tmp_path) for a in argv)])
    assert exc.value.code == f"bench {command}: library call failed"


_THIRD_PARTY_CHECK = """
import sys
before = set(sys.modules)
from denoisebench.cli import main
d = sys.argv[1]
assert main(["synth", "--out", d]) == 0
assert main(["run", "--images", d + "/gradient128.pgm", "--sigmas", "10",
             "--methods", "visu,mrbf", "--trials", "1", "--levels", "2",
             "--out", d + "/run.csv", "--no-runtime"]) == 0
assert main(["denoise", "--in", d + "/checker128.pgm", "--method", "mrbf",
             "--out", d + "/out.pgm"]) == 0
tops = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(tops - sys.stdlib_module_names - {"denoisebench", "numpy"})))
"""


def test_cli_imports_no_third_party_module_but_numpy(tmp_path):
    # scipy and hypothesis are installed for the tests; the package must not need them
    src = str(Path(denoisebench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", _THIRD_PARTY_CHECK, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == ""


def test_config_rejects_bad_workers_and_sigmas(tmp_path):
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            _tiny_config(tmp_path, workers=workers)
    for sigma in (-5.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigmas must be finite and positive"):
            _tiny_config(tmp_path, sigmas=(10.0, sigma))


def _run_tiny_argv(tmp_path, *extra):
    img = tmp_path / "in.pgm"
    save_pgm(texture_image(64), img)
    return ["run", "--images", str(img), "--methods", "visu", "--trials", "1", "--levels", "2",
            "--out", str(tmp_path / "run.csv"), *extra]


@pytest.mark.parametrize("extra, message", [
    (["--workers", "0"], "bench run: workers must be >= 1, got 0"),
    (["--workers", "-3"], "bench run: workers must be >= 1, got -3"),
    (["--sigmas", "10,-5"], "bench run: sigmas must be finite and positive, got -5"),
    (["--sigmas", "0"], "bench run: sigmas must be finite and positive, got 0"),
    (["--sigmas", "10,nan"], "bench run: sigmas must be finite and positive, got nan"),
    (["--sigmas", "inf"], "bench run: sigmas must be finite and positive, got inf"),
    (["--seed", "-1"], "bench run: seed must be in [0, 2**64), got -1"),
    (["--seed", str(2**64)], f"bench run: seed must be in [0, 2**64), got {2**64}"),
])
def test_cli_run_rejects_bad_workers_and_sigmas(tmp_path, extra, message):
    with pytest.raises(SystemExit) as exc:
        cli_main(_run_tiny_argv(tmp_path, *extra))
    assert exc.value.code == message
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("key", ["trials", "levels", "seed", "workers"])
def test_cli_run_reports_non_integer_config_value(tmp_path, key):
    cfg = tmp_path / "bench.cfg"
    img = tmp_path / "in.pgm"
    save_pgm(texture_image(64), img)
    cfg.write_text(f"images = {img}\nsigmas = 10\nmethods = visu\n{key} = two\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "run.csv")])
    assert exc.value.code == f"bench run: {key} must be an integer, got 'two'"


_GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"

# Run in a fresh interpreter, whose allocator has not yet been tuned by
# glibc's dynamic thresholds or by an earlier test: one small `bench run`,
# then rounds that each fill and free four 512x512 float64 arrays (2 MiB
# each).  Prints the minor page faults of the last 20 rounds.
_FAULTS_SCRIPT = """
import contextlib, io, resource, sys
import numpy as np
from denoisebench import cli, imagecore, synth

tmp = sys.argv[1]
imagecore.save_pgm(synth.texture_image(64), tmp + "/t.pgm")
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["run", "--images", tmp + "/t.pgm", "--sigmas", "10", "--methods", "visu",
                       "--trials", "1", "--no-runtime", "--out", tmp + "/t.csv"])
assert status == 0

def round_():
    arrays = [np.full((512, 512), float(i)) for i in range(4)]
    del arrays

round_()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    round_()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _GLIBC, reason="the allocator policy applies to glibc only")
def test_cli_keeps_freed_image_arrays_mapped(tmp_path):
    src = str(Path(denoisebench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, str(tmp_path)],
                            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                            timeout=120, check=True)
    # one round faulting its arrays in anew would be 4 * 512 pages
    assert int(result.stdout) < 512


def test_cli_runs_without_mallopt(tmp_path, monkeypatch):
    img = tmp_path / "img.pgm"
    save_pgm(texture_image(64), img)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    cli._keep_freed_heap.cache_clear()
    try:
        assert cli_main(["run", "--images", str(img), "--sigmas", "10", "--methods", "visu",
                         "--trials", "1", "--out", str(tmp_path / "run.csv")]) == 0
    finally:
        cli._keep_freed_heap.cache_clear()


def test_cli_rejects_unknown_method(tmp_path):
    img = tmp_path / "in.pgm"
    save_pgm(texture_image(64), img)
    choices = "visu, sure, bayes, neigh, bilateral, collaborative, mrbf"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--images", str(img), "--methods", "visu, median"])
    assert exc.value.code == f"bench run: unknown method 'median'; choose from {choices}"
    with pytest.raises(SystemExit) as exc:
        cli_main(["denoise", "--in", str(img), "--method", "foo", "--out", str(tmp_path / "out.pgm")])
    assert exc.value.code == f"bench denoise: unknown method 'foo'; choose from {choices}"
    assert not (tmp_path / "out.pgm").exists()
