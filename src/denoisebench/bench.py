"""Benchmark harness: sweep images x noise levels x methods, emit CSV.

Reproducibility: each trial's noise seed is derived from the master seed and
the cell key string ``"{image_id}|{sigma:g}|{method}|{trial}"`` by folding
the key's UTF-8 bytes through SplitMix64::

    h_0 = master_seed
    h_{i+1} = first SplitMix64 output for seed (h_i XOR byte_i)

The final ``h`` is the trial seed.  Identical configs therefore produce
byte-identical CSVs regardless of worker count.
"""

import concurrent.futures
import csv
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from denoisebench.imagecore import load_pgm, save_pgm
from denoisebench.metrics import evaluate
from denoisebench.noise import NoiseModel, add_awgn
from denoisebench.pipelines import MethodConfig, denoise

__all__ = [
    "BenchConfig",
    "BenchRow",
    "CSV_HEADER",
    "derive_seed",
    "run_benchmark",
    "summarize",
    "write_csv",
    "write_summary",
]

CSV_HEADER = "image_id,sigma,method,levels,trial,seed,mse,rmse,mae,psnr_db,uqi,runtime_ms"

DEFAULT_SIGMAS = (10.0, 20.0, 30.0, 40.0, 50.0)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class BenchConfig:
    image_paths: tuple[str, ...]
    sigmas: tuple[float, ...] = DEFAULT_SIGMAS
    methods: tuple[MethodConfig, ...] = ()
    trials: int = 5
    master_seed: int = 0
    output_path: str = "bench.csv"
    save_images_dir: str | None = None
    metrics_mode: str = "clamped"
    workers: int = 1
    # wall-clock time cannot be byte-identical across runs; disable to get
    # fully reproducible CSV bytes (runtime_ms column prints 0.000)
    record_runtime: bool = True

    def __post_init__(self):
        if not self.image_paths or not self.sigmas or not self.methods:
            raise ValueError("images, sigmas and methods must all be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        bad = [s for s in self.sigmas if not 0 < s < math.inf]
        if bad:
            raise ValueError(f"sigmas must be finite and positive, got {bad[0]:g}")
        if self.metrics_mode not in ("clamped", "unclamped"):
            raise ValueError(f"unknown metrics_mode {self.metrics_mode!r}")
        # inputs that share a cell key would share seeds and CSV labels
        _reject_shared_keys("image paths", self.image_paths, lambda p: Path(p).stem)
        _reject_shared_keys("sigmas", self.sigmas, lambda s: f"{s:g}")
        _reject_shared_keys("methods", [m.method for m in self.methods], str)


def _reject_shared_keys(what: str, items, key) -> None:
    seen = {}
    for item in items:
        k = key(item)
        if k in seen:
            raise ValueError(f"{what} {seen[k]!r} and {item!r} share the cell key part {k!r}")
        seen[k] = item


@dataclass(frozen=True)
class BenchRow:
    image_id: str
    sigma: float
    method: str
    levels: int
    trial: int
    seed: int
    mse: float
    rmse: float
    mae: float
    psnr_db: float
    uqi: float
    runtime_ms: float


def derive_seed(master_seed: int, image_id: str, sigma: float, method: str, trial: int) -> int:
    """Fold the cell key string into a 64-bit trial seed (see module docs)."""
    key = f"{image_id}|{sigma:g}|{method}|{trial}".encode("utf-8")
    h = master_seed & _MASK64
    for b in key:
        # first output of noise.splitmix64_stream(h ^ b, 1), in Python ints
        z = ((h ^ b) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = z ^ (z >> 31)
    return h


def _run_cell(image_id: str, clean: np.ndarray, sigma: float, mcfg: MethodConfig,
              trial: int, config: BenchConfig) -> BenchRow:
    seed = derive_seed(config.master_seed, image_id, sigma, mcfg.method, trial)
    nan = math.nan
    try:
        noisy = add_awgn(clean, NoiseModel(sigma=sigma, seed=seed))
        t0 = time.perf_counter()
        denoised = denoise(noisy, mcfg, oracle_sigma=sigma)
        runtime_ms = (time.perf_counter() - t0) * 1000.0 if config.record_runtime else 0.0
        report = evaluate(clean, denoised, clamp=config.metrics_mode == "clamped")
        if config.save_images_dir:
            out_dir = Path(config.save_images_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            name = f"{image_id}_s{sigma:g}_{mcfg.method}_t{trial}.pgm"
            save_pgm(denoised, out_dir / name)
        return BenchRow(image_id, sigma, mcfg.method, mcfg.levels, trial, seed,
                        report.mse, report.rmse, report.mae, report.psnr_db, report.uqi,
                        runtime_ms)
    except Exception as exc:  # cell failures must not abort the sweep
        print(f"bench: cell ({image_id}, sigma={sigma:g}, {mcfg.method}, trial {trial}) "
              f"failed: {exc}", file=sys.stderr)
        return BenchRow(image_id, sigma, mcfg.method, mcfg.levels, trial, seed,
                        nan, nan, nan, nan, nan, nan)


def run_benchmark(config: BenchConfig, images: dict[str, np.ndarray] | None = None) -> list[BenchRow]:
    """Run every (image, sigma, method, trial) cell; rows in deterministic order.

    `images` may pre-supply loaded arrays keyed by image id (used for
    synthetic sets); paths not found there are loaded as PGM.
    """
    loaded: dict[str, np.ndarray] = {}
    for path in config.image_paths:
        image_id = Path(path).stem
        if images is not None and path in images:
            loaded[image_id] = images[path]
        else:
            loaded[image_id] = load_pgm(path)

    cells = [
        (image_id, clean, sigma, mcfg, trial)
        for image_id, clean in loaded.items()
        for sigma in config.sigmas
        for mcfg in config.methods
        for trial in range(1, config.trials + 1)
    ]
    if config.workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(lambda c: _run_cell(c[0], c[1], c[2], c[3], c[4], config), cells))
    else:
        rows = [_run_cell(*cell, config) for cell in cells]
    rows.sort(key=lambda r: (r.image_id, r.sigma, r.method, r.levels, r.trial))
    return rows


def _fmt(value: float) -> str:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf"
    return f"{value:.17g}"


def write_csv(rows: list[BenchRow], path) -> None:
    """Write the per-trial CSV; metric values keep full precision.

    ``runtime_ms`` is excluded from determinism comparisons by nature; it is
    still printed for profiling.
    """
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join([
                r.image_id, f"{r.sigma:g}", r.method, str(r.levels), str(r.trial),
                str(r.seed), _fmt(r.mse), _fmt(r.rmse), _fmt(r.mae),
                _fmt(r.psnr_db), _fmt(r.uqi), f"{r.runtime_ms:.3f}",
            ]) + "\n")


def summarize(rows: list[BenchRow]) -> dict:
    """Mean PSNR/UQI per method and per (method, sigma).

    Returns {"methods": [...], "sigmas": [...], "psnr": {(method, sigma): mean},
    "uqi": {...}, "psnr_by_method": {method: mean}, "uqi_by_method": {...}}.
    """
    if not rows:
        raise ValueError("no rows to summarize")
    methods = sorted({r.method for r in rows})
    sigmas = sorted({r.sigma for r in rows})
    psnr_cells: dict[tuple[str, float], list[float]] = {}
    uqi_cells: dict[tuple[str, float], list[float]] = {}
    for r in rows:
        psnr_cells.setdefault((r.method, r.sigma), []).append(r.psnr_db)
        uqi_cells.setdefault((r.method, r.sigma), []).append(r.uqi)
    mean = lambda vals: float(np.mean(vals))
    return {
        "methods": methods,
        "sigmas": sigmas,
        "psnr": {k: mean(v) for k, v in psnr_cells.items()},
        "uqi": {k: mean(v) for k, v in uqi_cells.items()},
        "psnr_by_method": {
            m: mean([r.psnr_db for r in rows if r.method == m]) for m in methods
        },
        "uqi_by_method": {
            m: mean([r.uqi for r in rows if r.method == m]) for m in methods
        },
    }


def write_summary(rows: list[BenchRow], csv_path, table_path) -> None:
    """Write the aggregate CSV and a gnuplot-ready whitespace table.

    The table has one row per sigma and one mean-PSNR column per method.
    """
    summary = summarize(rows)
    methods, sigmas = summary["methods"], summary["sigmas"]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "sigma", "mean_psnr_db", "mean_uqi"])
        for m in methods:
            for s in sigmas:
                writer.writerow([m, f"{s:g}",
                                 _fmt(summary["psnr"][(m, s)]), _fmt(summary["uqi"][(m, s)])])
        for m in methods:
            writer.writerow([m, "all",
                             _fmt(summary["psnr_by_method"][m]), _fmt(summary["uqi_by_method"][m])])
    with open(table_path, "w") as fh:
        fh.write("# sigma " + " ".join(methods) + "\n")
        for s in sigmas:
            cells = " ".join(f"{summary['psnr'][(m, s)]:.4f}" for m in methods)
            fh.write(f"{s:g} {cells}\n")
