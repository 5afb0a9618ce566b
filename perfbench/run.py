"""denoisebench benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload wavelet_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it measures half its time untraced and half
traced (in quarters: untraced, traced, traced, untraced) and reports the
per-layer metrics.  Every output is checked against
``perfbench/reference.json``.  Human-readable lines come first; the last line
of standard output is the JSON result.  The full record, with the
environment, goes to ``.perfbench_out/`` in the checkout, and a traced run
writes its spans there too.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench.layers import HOOKS, PER_LAYER, layer_metrics  # noqa: E402
from perfbench.spans import Tracer, percentile  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REFERENCE_PATH,
    WORKLOADS,
    Outcome,
    make_workload,
    variant_of,
)

OUT_DIR = ROOT / ".perfbench_out"
# Set-up is repeated and its median reported, so one slow repetition does not
# move setup_s.
SETUP_REPEATS = 3

# Native thread pools are pinned to one thread before numpy loads, so a run
# never has more compute threads than the workload's own (at most the two of
# bilateral_sweep's pool).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = [
    ("cells_per_s", "cells/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def _import_package():
    """Import the package from this checkout's ``src/``; seconds it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import denoisebench
    import denoisebench.cli  # noqa: F401  (loads every module a workload calls)
    elapsed = time.perf_counter() - start
    location = Path(denoisebench.__file__).resolve()
    if src not in location.parents:
        raise ImportError(f"denoisebench imported from {location}, not from {src}")
    return elapsed


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_sha() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "not a git checkout"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, variant: int) -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "seed": seed,
        "variant": variant,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "threads_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


def _measure(workload, tracer, seconds: float, outcome) -> tuple[int, float]:
    """Run whole calls until `seconds` have passed; (cells, wall seconds of the calls)."""
    phase = Outcome()
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        try:
            workload.call(tracer)
        except Exception as exc:  # a failed call is a failed cell, not a crash
            walls.append(time.perf_counter() - start)
            phase.fail(workload.cells_per_call, f"{type(exc).__name__}: {exc}")
        else:
            walls.append(time.perf_counter() - start)
            phase.merge(workload.check())
        if time.perf_counter() >= deadline:
            outcome.merge(phase)
            return phase.attempted, sum(walls)


def _setup(workload, tracer, outcome) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            result = workload.setup(tracer)
        except Exception as exc:
            times.append(time.perf_counter() - start)
            outcome.fail(1, f"setup: {type(exc).__name__}: {exc}")
        else:
            times.append(time.perf_counter() - start)
            outcome.merge(result)
    return times


def run(args) -> dict:
    try:
        import_s = _import_package()
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import denoisebench: {exc}")
    reference = json.loads(REFERENCE_PATH.read_text())
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    workload = make_workload(args.workload, work_dir, args.seed, reference)
    tracer = Tracer()
    outcome = Outcome()
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed, variant_of(args.seed))}
    try:
        if not args.trace:
            record["missing_hooks"] = tracer.install(HOOKS, record_spans=False)
            setup_times = _setup(workload, tracer, outcome)
            tracer.drain()
            done, wall = _measure(workload, tracer, args.seconds, outcome)
            _, cells = tracer.drain()
            tracer.uninstall()
            cell_ms = [(c.end - c.start) / 1e6 for c in cells]
            if not cell_ms:
                raise SystemExit("perfbench: no cell completed")
            metrics = {
                "cells_per_s": done / wall,
                "cell_ms_p50": percentile(cell_ms, 50),
                "cell_ms_p90": percentile(cell_ms, 90),
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            record["samples"] = {"cells": len(cell_ms), "setups": len(setup_times), "import_s": import_s,
                                 "setup_s_each": [import_s + t for t in setup_times]}
        else:
            record["missing_hooks"] = tracer.install(HOOKS, record_spans=True)
            _setup(workload, tracer, outcome)
            setup_spans, _ = tracer.drain()
            tracer.uninstall()
            # untraced, traced, traced, untraced: a steady drift in machine
            # speed cancels out of the overhead
            totals = {False: [0, 0.0], True: [0, 0.0]}
            spans, cells = [], []
            for record_spans in (False, True, True, False):
                tracer.install(HOOKS, record_spans=record_spans)
                done, wall = _measure(workload, tracer, args.seconds / 4, outcome)
                phase_spans, phase_cells = tracer.drain()
                tracer.uninstall()
                totals[record_spans][0] += done
                totals[record_spans][1] += wall
                if record_spans:
                    spans += phase_spans
                    cells += phase_cells
            metrics = layer_metrics(setup_spans, spans, cells, workers=workload.workers,
                                    outcome=outcome,
                                    untraced_cells_per_s=totals[False][0] / totals[False][1],
                                    traced_cells_per_s=totals[True][0] / totals[True][1])
            units = dict(PER_LAYER)
            record["spans_file"] = _write_spans(args, setup_spans + spans)
    finally:
        tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    record["outcome"] = {"attempted": outcome.attempted, "failed": outcome.failed,
                         "bit_exact": outcome.exact, "problems": outcome.problems}
    record["result"] = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return record


def _write_spans(args, spans) -> str:
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                                 "parent": s.parent, "cell": s.cell, "thread": s.thread,
                                 "attrs": s.attrs}) + "\n")
    return str(path.relative_to(ROOT))


def report(record: dict) -> None:
    env, outcome, result = record["env"], record["outcome"], record["result"]
    print(f"perfbench {record['workload']} seed {env['seed']} (input variant {env['variant']})"
          f" trace {record['trace']}")
    print(f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, {env['cpu']},"
          f" L2 {env['l2']}, L3 {env['l3']}, git {env['git_sha'][:12]}, src {env['src_sha256']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    if "samples" in record:
        s = record["samples"]
        print(f"  cell times from {s['cells']} cells; setup_s is the median of {s['setups']} set-ups")
    print(f"  failed_frac {outcome['failed'] / max(outcome['attempted'], 1):.6g}"
          f" ({outcome['failed']}/{outcome['attempted']} cells; {outcome['bit_exact']} bit-exact)")
    if record["missing_hooks"]:
        print(f"  not traced (gone from the package): {', '.join(record['missing_hooks'])}")
    for problem in outcome["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (any integer >= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    OUT_DIR.mkdir(exist_ok=True)
    record = run(args)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
