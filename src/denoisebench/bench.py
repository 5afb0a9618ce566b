"""Benchmark harness: sweep images x noise levels x methods, emit CSV.

Reproducibility: each trial's noise seed is derived from the master seed and
the cell key string ``"{image_id}|{sigma:g}|{method}|{trial}"`` by folding
the key's UTF-8 bytes through SplitMix64::

    h_0 = master_seed
    h_{i+1} = first SplitMix64 output for seed (h_i XOR byte_i)

The final ``h`` is the trial seed.  Identical configs therefore produce
byte-identical CSVs regardless of worker count.

Inputs stream through a sweep: each is read once as a check before any
cell runs, then again when its first cell is built, and freed after its
last cell, so a sweep's memory does not grow with its number of images.

A serial sweep (``workers=1``) noises the next cell of the same input on one
helper thread, one task per cell, while the calling thread denoises and
scores the current cell.  The calling thread then fills what is left of its
own cell's noisy image (``noise._NoisyImage``), and the next cell's until
the helper is done with this one.  The lookahead stops at the input's last
cell, so the next input is read only once nothing holds this one, and each
input's first cell is noised with no overlap.  A noise error fails only the
cell whose image it was filling.  The helper is joined when
``run_benchmark`` returns.  With ``workers > 1`` each pool thread noises its
own cells; at most ``2 * workers`` cells are submitted at a time, and one
more as any of them completes.

A cell hands its noisy image to ``denoise``, which returns the result in
that memory, and then scores in the result itself, so per cell a serial
sweep holds one clean image, two noisy images (the cell's, which becomes its
result, and the next cell's) and one method's working set.
"""

import concurrent.futures
import csv
import itertools
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from denoisebench.imagecore import as_image, load_pgm, save_pgm
from denoisebench.metrics import evaluate
from denoisebench.noise import (NoiseModel, _check_seed, _MASK64, _NoisyImage, _splitmix64_first,
                               add_awgn)
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


@dataclass(frozen=True)
class BenchConfig:
    image_paths: tuple[str, ...]
    sigmas: tuple[float, ...] = DEFAULT_SIGMAS
    methods: tuple[MethodConfig, ...] = ()
    trials: int = 5
    master_seed: int = 0
    save_images_dir: str | None = None
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
        _check_seed(self.master_seed)
        bad = [s for s in self.sigmas if not 0 < s < math.inf]
        if bad:
            raise ValueError(f"sigmas must be finite and positive, got {bad[0]:g}")
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
        h = _splitmix64_first(h ^ b)
    return h


def _run_cell(image_id: str, clean: np.ndarray, sigma: float, mcfg: MethodConfig,
              trial: int, config: BenchConfig, noise=None) -> BenchRow:
    """Run one cell; `noise`, if given, is (its noisy image, the helper's future, the next image).

    The cell takes its noisy image over (``take``) and hands it to
    ``denoise`` (``overwrite_image``), which returns its result in that
    memory (in a padded copy off the Haar grid); once it is denoised nothing
    else holds the noisy image.  Any PGM of the result is saved first, and
    then ``evaluate`` clamps and scores in the result itself
    (``overwrite_test``).
    """
    seed = derive_seed(config.master_seed, image_id, sigma, mcfg.method, trial)
    nan = math.nan
    try:
        if noise is None:
            noisy = add_awgn(clean, NoiseModel(sigma=sigma, seed=seed))
        else:
            image, filling, next_image = noise
            image.fill()
            if next_image is not None:
                # until the helper is done with `image`
                next_image.fill(until=filling.done)
            filling.result()
            noisy = image.take()
        t0 = time.perf_counter()
        denoised = denoise(noisy, mcfg, overwrite_image=True)
        runtime_ms = (time.perf_counter() - t0) * 1000.0 if config.record_runtime else 0.0
        del noisy
        if config.save_images_dir:
            name = f"{image_id}_s{sigma:g}_{mcfg.method}_t{trial}.pgm"
            save_pgm(denoised, Path(config.save_images_dir) / name)
        report = evaluate(clean, denoised, overwrite_test=True)
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

    `images` may pre-supply loaded arrays keyed by image path (used for
    synthetic sets); paths not found there are loaded as PGM.  Every input
    is checked, and not kept, before any cell runs, so an unreadable PGM or
    a supplied array that is no image (``imagecore.as_image``) stops the
    sweep there.  An input is decoded again when its first cell is built,
    which stops the sweep if it can no longer be read, and freed after its
    last cell: a serial sweep holds one input at a time, a pooled one those
    of its ``2 * workers`` cells in flight and of the next cell.
    """

    def decode(path):
        return as_image(images[path]) if images is not None and path in images else load_pgm(path)

    for path in config.image_paths:
        decode(path)
    if config.save_images_dir:
        # an unusable directory stops the sweep here, not in every cell
        Path(config.save_images_dir).mkdir(parents=True, exist_ok=True)

    def cells(path):
        clean = decode(path)
        for sigma in config.sigmas:
            for mcfg in config.methods:
                for trial in range(1, config.trials + 1):
                    yield Path(path).stem, clean, sigma, mcfg, trial

    rows = []
    if config.workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=config.workers) as pool:
            # a window of cells, not pool.map, which submits (so decodes) every cell at once
            running = set()
            for cell in itertools.chain.from_iterable(map(cells, config.image_paths)):
                running.add(pool.submit(_run_cell, *cell, config))
                if len(running) == 2 * config.workers:
                    done, running = concurrent.futures.wait(
                        running, return_when=concurrent.futures.FIRST_COMPLETED)
                    rows += [f.result() for f in done]
            rows += [f.result() for f in running]
    else:
        with concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="noise") as helper:

            def prefetch(image_id, clean, sigma, mcfg, trial):
                image = _NoisyImage(clean, NoiseModel(sigma=sigma, seed=derive_seed(
                    config.master_seed, image_id, sigma, mcfg.method, trial)))
                return image, helper.submit(image.fill)

            # the lookahead stays within one input, so the next input is
            # decoded only once nothing holds this one
            for path in config.image_paths:
                stream = cells(path)
                cell = next(stream)
                image, filling = prefetch(*cell)
                for next_cell in itertools.chain(stream, [None]):
                    next_image, next_filling = prefetch(*next_cell) if next_cell else (None, None)
                    rows.append(_run_cell(*cell, config, (image, filling, next_image)))
                    cell, image, filling = next_cell, next_image, next_filling
    rows.sort(key=lambda r: (r.image_id, r.sigma, r.method, r.levels, r.trial))
    return rows


def write_csv(rows: list[BenchRow], path) -> None:
    """Write the per-trial CSV; metric values keep full precision.

    ``runtime_ms`` is excluded from determinism comparisons by nature; it is
    still printed for profiling.  An image id holding a comma, a quote or a
    line break is quoted, so every row keeps its 12 fields.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # with LF line ends, csv.writer on Python 3.11 leaves a CR unquoted for a reader to split at
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(CSV_HEADER.split(","))
        for r in rows:
            (quote_all if "\r" in r.image_id else writer).writerow([
                r.image_id, f"{r.sigma:g}", r.method, r.levels, r.trial, r.seed,
                *(f"{v:.17g}" for v in (r.mse, r.rmse, r.mae, r.psnr_db, r.uqi)),
                f"{r.runtime_ms:.3f}"])


def summarize(rows: list[BenchRow]) -> list[tuple]:
    """The summary CSV's rows ``(method, sigma, mean_psnr_db, mean_uqi, n_ok, n_failed)``.

    One row per (method, sigma), methods sorted and then sigmas sorted, then
    one per method with sigma ``"all"``.  A failed cell (NaN scores) is
    counted, not averaged, so a mean is NaN only where every cell failed.
    """
    if not rows:
        raise ValueError("no rows to summarize")

    def summary_row(method, sigma, group: list[BenchRow]) -> tuple:
        ok = [r for r in group if not math.isnan(r.psnr_db)]
        means = [float(np.mean([getattr(r, f) for r in ok])) if ok else math.nan
                 for f in ("psnr_db", "uqi")]
        return (method, sigma, *means, len(ok), len(group) - len(ok))

    methods = sorted({r.method for r in rows})
    sigmas = sorted({r.sigma for r in rows})
    return ([summary_row(m, s, [r for r in rows if r.method == m and r.sigma == s])
             for m in methods for s in sigmas]
            + [summary_row(m, "all", [r for r in rows if r.method == m]) for m in methods])


def write_summary(rows: list[BenchRow], csv_path, table_path) -> None:
    """Write the `summarize` rows as CSV, and a gnuplot table of mean PSNR (sigma x method)."""
    summary = summarize(rows)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "sigma", "mean_psnr_db", "mean_uqi", "n_ok", "n_failed"])
        writer.writerows([m, s if s == "all" else f"{s:g}", f"{psnr:.17g}", f"{uqi:.17g}", *counts]
                         for m, s, psnr, uqi, *counts in summary)
    table = [(s, f"{psnr:.4f}") for m, s, psnr, *_ in summary if s != "all"]
    with open(table_path, "w") as fh:
        fh.write("# sigma " + " ".join(m for m, s, *_ in summary if s == "all") + "\n")
        for sigma in sorted({s for s, _ in table}):
            fh.write(f"{sigma:g} " + " ".join(p for s, p in table if s == sigma) + "\n")
