"""Record ``perfbench/reference.json``: the outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py

For every workload and input variant it runs the same set-up and one call
as a benchmark run, and records each sweep cell's ``psnr_db`` and ``uqi`` as
the CSV prints them, and the SHA-256 of the ``mrbf_1024`` output PGM.  The
file pins the package's outputs: re-record it only in a change whose purpose
is to change them, and say so.
"""

import json
import platform
import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import run

    run._import_package()
    from perfbench.spans import Tracer
    from perfbench.workloads import REFERENCE_PATH, VARIANTS, WORKLOADS, make_workload

    work_dir = run.OUT_DIR / "reference-work"
    recorded: dict[str, dict[str, object]] = {name: {} for name in WORKLOADS}
    try:
        for name in WORKLOADS:
            for variant in range(VARIANTS):
                workload = make_workload(name, work_dir, variant, None)
                workload.setup(Tracer())
                workload.call(Tracer())
                recorded[name][str(variant)] = workload.outputs()
                print(f"{name} variant {variant}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = run.environment(seed=0, variant=0)
    reference = {
        "recorded_with": {"git_sha": env["git_sha"], "src_sha256": env["src_sha256"],
                          "python": platform.python_version(), "numpy": env["numpy"],
                          "cpu": env["cpu"]},
        "workloads": recorded,
    }
    text = json.dumps(reference, indent=1, sort_keys=True)
    # one [psnr_db, uqi] pair per line keeps the file short enough to review
    text = re.sub(r'\[\n\s+("[^"]*"),\n\s+("[^"]*")\n\s+\]', r"[\1, \2]", text)
    REFERENCE_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
