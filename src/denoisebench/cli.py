"""`bench` command line: benchmark sweeps, synthetic images, one-shot denoising."""

import argparse
import ctypes
import functools
import math
import sys
from pathlib import Path

from denoisebench.bench import (
    BenchConfig,
    DEFAULT_SIGMAS,
    run_benchmark,
    write_csv,
    write_summary,
)
from denoisebench.imagecore import load_pgm, save_pgm
from denoisebench.pipelines import METHODS, MethodConfig, denoise
from denoisebench.synth import default_set, texture_image

_METHOD_ALIASES = {"collab": "collaborative"}

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit: the highest mmap threshold its
# own dynamic rule can reach, which keeps the trim threshold at twice that
_MMAP_THRESHOLD_BYTES = 32 << 20


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc keep freed heap pages for the next sweep cell.

    glibc's dynamic thresholds settle near a 2 MiB mmap and a 4 MiB trim
    threshold, so every cell hands its freed image-sized arrays back to the
    kernel and the next cell faults them in again as zeroed pages (about
    2 000 faults per 512x512 wavelet cell).  Setting both thresholds to the
    top of glibc's dynamic range keeps them mapped; setting only one would
    switch the dynamic rule off and leave the other at its small default.
    Only the allocator changes, never a result.  Without `mallopt`
    (non-glibc C libraries) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)


def _parse_methods(text: str) -> tuple[str, ...]:
    names = []
    for raw in text.split(","):
        name = _METHOD_ALIASES.get(raw.strip(), raw.strip())
        if name not in METHODS:
            raise SystemExit(f"bench: unknown method {raw.strip()!r}; choose from {', '.join(METHODS)}")
        names.append(name)
    return tuple(names)


def _parse_config_file(path: str) -> dict[str, str]:
    """Plain `key = value` lines; '#' starts a comment; flags override."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"bench: {path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _collect_images(spec: str) -> list[str]:
    paths: list[str] = []
    for item in spec.split(","):
        p = Path(item.strip())
        if p.is_dir():
            paths.extend(sorted(str(f) for f in p.glob("*.pgm")))
        else:
            paths.append(str(p))
    if not paths:
        raise SystemExit(f"bench: no images found in {spec!r}")
    return paths


def _integer(key: str, value) -> int:
    """An integer flag (already an int) or config-file value (a string)."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _cmd_run(args) -> int:
    file_values = _parse_config_file(args.config) if args.config else {}

    def setting(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_values.get(key, default)

    images = setting(args.images, "images", None)
    if images is None:
        raise SystemExit("bench run: no input images (use --images or 'images =' in the config)")
    sigmas = setting(args.sigmas, "sigmas", "10,20,30,40,50")
    method_names = _parse_methods(setting(args.methods, "methods", ",".join(METHODS)))
    out = setting(args.out, "out", "bench.csv")
    save_images = setting(args.save_images, "save_images", None)
    metrics_mode = setting(args.metrics, "metrics", "clamped")

    try:
        levels = _integer("levels", setting(args.levels, "levels", 3))
        trials = _integer("trials", setting(args.trials, "trials", 5))
        seed = _integer("seed", setting(args.seed, "seed", 0))
        workers = _integer("workers", setting(args.workers, "workers", 1))
        config = BenchConfig(
            image_paths=tuple(_collect_images(images)),
            sigmas=tuple(float(s) for s in str(sigmas).split(",")),
            methods=tuple(MethodConfig(method=m, levels=levels) for m in method_names),
            trials=trials,
            master_seed=seed,
            output_path=out,
            save_images_dir=save_images,
            metrics_mode=metrics_mode,
            workers=workers,
            record_runtime=not args.no_runtime,
        )
        # an unreadable or malformed input image stops the sweep before any cell runs
        rows = run_benchmark(config)
        write_csv(rows, out)
        stem = Path(out).with_suffix("")
        write_summary(rows, f"{stem}_summary.csv", f"{stem}_plot.dat")
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench run: {exc}") from None
    print(f"bench: {len(rows)} rows -> {out}, {stem}_summary.csv, {stem}_plot.dat")
    failed = sum(math.isnan(r.psnr_db) for r in rows)
    if failed:
        print(f"bench: {failed} of {len(rows)} cells failed", file=sys.stderr)
        return 1
    return 0


def _cmd_synth(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    images = {**default_set(), "texture512": texture_image(512)}
    for name, image in images.items():
        save_pgm(image, out_dir / f"{name}.pgm")
    print(f"bench: wrote {len(images)} synthetic images to {out_dir}")
    return 0


def _cmd_denoise(args) -> int:
    if args.sigma_mode == "oracle" and args.sigma is None:
        raise SystemExit("bench denoise: --sigma-mode oracle needs --sigma")
    if args.sigma_mode != "oracle" and args.sigma is not None:
        raise SystemExit("bench denoise: --sigma needs --sigma-mode oracle")
    if args.sigma is not None and not args.sigma > 0:
        raise SystemExit(f"bench denoise: --sigma must be positive, got {args.sigma:g}")
    name = _METHOD_ALIASES.get(args.method, args.method)
    if name not in METHODS:
        raise SystemExit(f"bench: unknown method {args.method!r}")
    try:
        config = MethodConfig(method=name, levels=args.levels, sigma_mode=args.sigma_mode)
        denoised = denoise(load_pgm(getattr(args, "in")), config, oracle_sigma=args.sigma)
        save_pgm(denoised, args.out)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench denoise: {exc}") from None
    print(f"bench: {name}-denoised image written to {args.out}")
    return 0


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark sweep")
    run.add_argument("--config", help="key = value config file; flags override")
    run.add_argument("--images", help="comma-separated PGM files and/or directories")
    run.add_argument("--sigmas", help="comma-separated noise std list (default 10,20,30,40,50)")
    run.add_argument("--methods", help=f"comma-separated subset of {','.join(METHODS)} (collab ok)")
    run.add_argument("--levels", type=int, help="wavelet decomposition depth (default 3)")
    run.add_argument("--trials", type=int, help="seeds per cell (default 5)")
    run.add_argument("--seed", type=int, help="master seed (default 0)")
    run.add_argument("--out", help="per-trial CSV path (default bench.csv)")
    run.add_argument("--save-images", dest="save_images", help="dump denoised PGMs here")
    run.add_argument("--metrics", choices=["clamped", "unclamped"], help="scoring mode")
    run.add_argument("--workers", type=int, help="concurrent cells (default 1)")
    run.add_argument("--no-runtime", action="store_true",
                     help="zero the runtime_ms column for byte-reproducible CSVs")
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synth", help="emit the synthetic test image set")
    synth.add_argument("--out", required=True, help="output directory")
    synth.set_defaults(func=_cmd_synth)

    one = sub.add_parser("denoise", help="denoise a single PGM")
    one.add_argument("--in", required=True, help="input PGM")
    one.add_argument("--method", required=True, help="denoising method")
    one.add_argument("--sigma", type=float, help="true noise std; needs --sigma-mode oracle")
    one.add_argument("--sigma-mode", dest="sigma_mode", default="estimated",
                     choices=["estimated", "oracle"])
    one.add_argument("--levels", type=int, default=3)
    one.add_argument("--out", required=True, help="output PGM")
    one.set_defaults(func=_cmd_denoise)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
