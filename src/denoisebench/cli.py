"""`bench` command line: benchmark sweeps, synthetic images, one-shot denoising."""

import argparse
import ctypes
import functools
import math
import os
import sys
from pathlib import Path

from denoisebench.bench import BenchConfig, run_benchmark, write_csv, write_summary
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


# the settings `bench run --config` reads; each may appear once per file
_CONFIG_KEYS = ("images", "sigmas", "methods", "levels", "trials", "seed", "workers", "out",
                "save_images")


def _parse_config_file(path: str) -> dict[str, str]:
    """Plain `key = value` lines of `_CONFIG_KEYS`; '#' starts a comment; flags override."""
    text = Path(path).read_text()
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        where = f"{path}:{lineno}:"
        if not eq:
            raise ValueError(f"{where} expected 'key = value'")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{where} unknown key {key!r}; expected one of {', '.join(_CONFIG_KEYS)}")
        if key in values:
            raise ValueError(f"{where} repeated key {key!r}")
        values[key] = value.strip()
    return values


def _collect_images(spec: str) -> list[str]:
    """Image paths of a comma-separated list, or of `spec` alone when that path exists;
    a directory gives its ``*.pgm`` files."""
    paths: list[str] = []
    # os.path.exists, unlike Path.exists, is False for a list too long to be one path name
    for item in [spec] if os.path.exists(spec) else spec.split(","):
        item = item.strip()
        if not item:
            # Path("") is the current directory, which would add its images
            raise ValueError(f"empty entry in image list {spec!r}")
        p = Path(item)
        if p.is_dir():
            found = sorted(str(f) for f in p.glob("*.pgm"))
            if not found:
                raise ValueError(f"no *.pgm images in directory {str(p)!r}")
            paths.extend(found)
        else:
            paths.append(str(p))
    return paths


def _integer(key: str, value) -> int:
    """An integer flag (already an int) or config-file value (a string)."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _cmd_run(args) -> int:
    settings = _parse_config_file(args.config) if args.config else {}
    settings.update({k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None})
    if "images" not in settings:
        raise ValueError("no input images (use --images or 'images =' in the config)")
    out = settings.get("out", "bench.csv")
    levels = _integer("levels", settings.get("levels", 3))
    trials = _integer("trials", settings.get("trials", 5))
    seed = _integer("seed", settings.get("seed", 0))
    workers = _integer("workers", settings.get("workers", 1))
    names = [m.strip() for m in settings.get("methods", ",".join(METHODS)).split(",")]
    config = BenchConfig(
        image_paths=tuple(_collect_images(settings["images"])),
        sigmas=tuple(float(s) for s in settings.get("sigmas", "10,20,30,40,50").split(",")),
        methods=tuple(MethodConfig(method=_METHOD_ALIASES.get(m, m), levels=levels) for m in names),
        trials=trials,
        master_seed=seed,
        save_images_dir=settings.get("save_images"),
        workers=workers,
        record_runtime=not args.no_runtime,
    )
    # an unusable output location, or an unreadable or malformed input
    # image, stops the sweep before any cell runs
    if Path(out).is_dir():
        raise ValueError(f"output {out!r} is a directory")
    if not Path(out).parent.is_dir():
        raise ValueError(f"parent of output {out!r} is not a directory")
    rows = run_benchmark(config)
    write_csv(rows, out)
    stem = Path(out).with_suffix("")
    write_summary(rows, f"{stem}_summary.csv", f"{stem}_plot.dat")
    print(f"bench: {len(rows)} rows -> {out}, {stem}_summary.csv, {stem}_plot.dat")
    failed = sum(math.isnan(r.psnr_db) for r in rows)
    if failed:
        print(f"bench: {failed} of {len(rows)} cells failed", file=sys.stderr)
        return 1
    return 0


def _cmd_synth(args) -> int:
    out_dir = Path(args.out)
    images = {**default_set(), "texture512": texture_image(512)}
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, image in images.items():
        save_pgm(image, out_dir / f"{name}.pgm")
    print(f"bench: wrote {len(images)} synthetic images to {out_dir}")
    return 0


def _cmd_denoise(args) -> int:
    if args.sigma is not None and not 0 < args.sigma < math.inf:
        raise ValueError(f"--sigma must be finite and positive, got {args.sigma:g}")
    config = MethodConfig(method=_METHOD_ALIASES.get(args.method, args.method), levels=args.levels)
    # the loaded image is handed over: bilateral passes and MRBF write over it
    denoised = denoise(load_pgm(getattr(args, "in")), config, oracle_sigma=args.sigma,
                       overwrite_image=True)
    save_pgm(denoised, args.out)
    print(f"bench: {config.method}-denoised image written to {args.out}")
    return 0


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark sweep")
    run.add_argument("--config", help=f"key = value file of {', '.join(_CONFIG_KEYS)}; flags override")
    run.add_argument("--images", help="comma-separated PGM files and/or directories")
    run.add_argument("--sigmas", help="comma-separated noise std list (default 10,20,30,40,50)")
    run.add_argument("--methods", help=f"comma-separated subset of {','.join(METHODS)} (collab ok)")
    run.add_argument("--levels", type=int, help="wavelet decomposition depth (default 3)")
    run.add_argument("--trials", type=int, help="seeds per cell (default 5)")
    run.add_argument("--seed", type=int, help="master seed (default 0)")
    run.add_argument("--out", help="per-trial CSV path (default bench.csv)")
    run.add_argument("--save-images", dest="save_images", help="dump denoised PGMs here")
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
    one.add_argument("--sigma", type=float,
                     help="true noise std, used in place of the MAD estimate")
    one.add_argument("--levels", type=int, default=3)
    one.add_argument("--out", required=True, help="output PGM")
    one.set_defaults(func=_cmd_denoise)

    args = parser.parse_args(argv)
    # a bad setting or an unusable file is one line on stderr and status 1
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
