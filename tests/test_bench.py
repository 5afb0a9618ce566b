"""Benchmark harness: seed derivation, CSV output, determinism, summaries."""

import math
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import denoisebench
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
from denoisebench.imagecore import save_pgm
from denoisebench.noise import splitmix64_stream
from denoisebench.pipelines import MethodConfig
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
    with pytest.raises(ValueError):
        _tiny_config(tmp_path, metrics_mode="raw")


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
    # levels=6 on a 64x64 image: 64 divisible by 64, but the coarsest grid is
    # 1x1, so wavelet methods still run; force failure via an odd-size image
    img_path = tmp_path / "odd.pgm"
    save_pgm(texture_image(64)[:50, :50], img_path)
    config = BenchConfig(
        image_paths=(str(img_path),),
        sigmas=(10.0,),
        methods=(MethodConfig(method="visu", levels=3),),
        trials=1,
        record_runtime=False,
    )
    rows = run_benchmark(config)
    assert len(rows) == 1
    assert math.isnan(rows[0].psnr_db)
    assert "failed" in capsys.readouterr().err


def test_summarize_means():
    def row(method, sigma, psnr):
        return BenchRow("img", sigma, method, 3, 1, 0, 1.0, 1.0, 1.0, psnr, 0.5, 0.0)

    rows = [row("visu", 10.0, 30.0), row("visu", 10.0, 32.0), row("bayes", 10.0, 35.0)]
    summary = summarize(rows)
    assert summary["psnr"][("visu", 10.0)] == 31.0
    assert summary["psnr_by_method"]["bayes"] == 35.0
    assert sum(len([r for r in rows if r.method == m]) for m in summary["methods"]) == len(rows)
    with pytest.raises(ValueError):
        summarize([])


def test_write_summary_files(tmp_path):
    rows = run_benchmark(_tiny_config(tmp_path))
    write_summary(rows, tmp_path / "s.csv", tmp_path / "p.dat")
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "method,sigma,mean_psnr_db,mean_uqi"
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
    assert (tmp_path / "run_summary.csv").exists()
    assert (tmp_path / "run_plot.dat").exists()


def test_cli_run_reports_failed_cells(tmp_path, capsys):
    # a 4x4 image is too small for the default 11x11 bilateral window
    img = tmp_path / "tiny.pgm"
    save_pgm(texture_image(64)[:4, :4], img)
    out_csv = tmp_path / "tiny.csv"
    rc = cli_main([
        "run", "--images", str(img), "--sigmas", "10,20", "--methods", "visu,bilateral",
        "--trials", "1", "--levels", "2", "--out", str(out_csv), "--no-runtime",
    ])
    assert rc == 1
    assert "bench: 2 of 4 cells failed" in capsys.readouterr().err
    assert len(out_csv.read_text().splitlines()) == 5
    assert (tmp_path / "tiny_summary.csv").exists()
    assert (tmp_path / "tiny_plot.dat").exists()


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


def test_cli_denoise_rejects_sigma_without_oracle_mode(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_main(_denoise_checker_argv(tmp_path) + ["--sigma", "20"])
    assert exc.value.code == "bench denoise: --sigma needs --sigma-mode oracle"
    assert not (tmp_path / "out.pgm").exists()


def test_cli_denoise_oracle_mode_needs_sigma(tmp_path):
    argv = _denoise_checker_argv(tmp_path) + ["--sigma-mode", "oracle"]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == "bench denoise: --sigma-mode oracle needs --sigma"
    assert not (tmp_path / "out.pgm").exists()
    assert cli_main(argv + ["--sigma", "20"]) == 0
    assert (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("extra, message", [
    (["--levels", "9"], "bench denoise: levels must be in [1, 6]"),
    (["--sigma-mode", "oracle", "--sigma", "-5"], "bench denoise: --sigma must be positive, got -5"),
    (["--sigma-mode", "oracle", "--sigma", "0"], "bench denoise: --sigma must be positive, got 0"),
    (["--sigma-mode", "oracle", "--sigma", "nan"], "bench denoise: --sigma must be positive, got nan"),
])
def test_cli_denoise_reports_bad_arguments_in_one_line(tmp_path, extra, message):
    with pytest.raises(SystemExit) as exc:
        cli_main(_denoise_checker_argv(tmp_path) + extra)
    assert exc.value.code == message
    assert not (tmp_path / "out.pgm").exists()


def test_cli_denoise_reports_unsupported_size_in_one_line(tmp_path):
    img = tmp_path / "odd.pgm"
    save_pgm(checkerboard_image(128)[:75, :100], img)
    with pytest.raises(SystemExit) as exc:
        cli_main(["denoise", "--in", str(img), "--method", "bayes", "--out", str(tmp_path / "out.pgm")])
    assert exc.value.code == "bench denoise: dimensions 75x100 not divisible by 2^3"


def test_cli_denoise_checks_sigma_before_reading_the_image(tmp_path):
    argv = ["denoise", "--in", str(tmp_path / "missing.pgm"), "--method", "bayes",
            "--sigma-mode", "oracle", "--sigma", "-5", "--out", str(tmp_path / "out.pgm")]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == "bench denoise: --sigma must be positive, got -5"


def _truncated_pgm(path):
    save_pgm(texture_image(64), path)
    path.write_bytes(path.read_bytes()[:-100])
    return path


_UNREADABLE_IMAGES = [
    pytest.param(lambda d: d / "missing.pgm", "No such file or directory", id="missing"),
    pytest.param(lambda d: _truncated_pgm(d / "cut.pgm"), "truncated P5 pixel payload",
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


@pytest.mark.parametrize("make_image, message", _UNREADABLE_IMAGES)
def test_cli_denoise_reports_unreadable_image_in_one_line(tmp_path, make_image, message):
    out = tmp_path / "out.pgm"
    with pytest.raises(SystemExit) as exc:
        cli_main(["denoise", "--in", str(make_image(tmp_path)), "--method", "bayes",
                  "--out", str(out)])
    assert exc.value.code.startswith("bench denoise: ") and message in exc.value.code
    assert "\n" not in exc.value.code
    assert not out.exists()


def test_unreadable_image_exits_with_status_1(tmp_path):
    src = str(Path(denoisebench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "denoisebench.cli", "denoise", "--in", str(tmp_path / "missing.pgm"),
         "--method", "bayes", "--out", str(tmp_path / "out.pgm")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("bench denoise: ") and result.stderr.count("\n") == 1


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
    with pytest.raises(SystemExit):
        cli_main(["run", "--images", str(img), "--methods", "median"])
