"""The benchmark's three workloads and the check of their outputs.

Every workload drives only the package's public entry points: ``cli.main``
for sweeps and for one-shot denoising, and the ``synth``/``noise``/
``imagecore`` functions a user would call to make inputs.  Functions are
looked up on their module at call time, so a tracer that rebinds them sees
every call.

Inputs come from the workload seed only through :func:`variant_of`: the seed
picks one of ``VARIANTS`` input sets (synthetic-image seeds, the sweep's
master seed and the noise seed), each with its outputs recorded in
``reference.json``.
"""

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["VARIANTS", "TOLERANCE_REL", "Outcome", "WORKLOADS", "make_workload", "variant_of"]

VARIANTS = 8
# Relative tolerance on psnr_db and uqi.  Tight enough that any change to a
# denoised pixel shows (moving one pixel of a 256x256 output by 1e-3 grey
# levels shifts psnr_db by about 1e-8 relative), loose enough to survive a
# last-bit difference in libm between machines.  Bit-exact matches are
# counted separately (``bench.bit_exact_frac``).
TOLERANCE_REL = 1e-12
SIGMAS = "10,20,30,40,50"
SYNTH_SEED = 0x5EED
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


@dataclass
class Outcome:
    """Cells checked against the reference."""

    attempted: int = 0
    failed: int = 0
    exact: int = 0
    problems: list[str] = field(default_factory=list)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.exact += other.exact
        self.problems.extend(other.problems[: max(0, 5 - len(self.problems))])

    def fail(self, cells: int, problem: str) -> None:
        self.attempted += cells
        self.failed += cells
        if len(self.problems) < 5:
            self.problems.append(problem)


def _quiet_main(argv: list[str]) -> None:
    from denoisebench import cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"bench {argv[0]} exited {status}")


def _close(got: str, want: str) -> bool:
    g, w = float(got), float(want)
    return math.isfinite(g) and abs(g - w) <= TOLERANCE_REL * abs(w)


def check_sweep_csv(text: str, expected: dict[str, list[str]]) -> Outcome:
    """Compare a per-trial CSV with reference ``{key: [psnr_db, uqi]}``.

    A cell fails if its row is missing, duplicated or unexpected, if either
    value is not finite, or if either is off the reference by more than
    ``TOLERANCE_REL``.  The exit status of ``bench run`` is not consulted:
    it is 0 even when cells fail.
    """
    out = Outcome(attempted=len(expected))
    seen: set[str] = set()
    reader = csv.DictReader(io.StringIO(text))
    for row in reader:
        key = "|".join((row["image_id"], row["sigma"], row["method"], row["trial"]))
        want = expected.get(key)
        if want is None or key in seen:
            out.fail(1, f"unexpected row {key}")
            continue
        seen.add(key)
        got = [row["psnr_db"], row["uqi"]]
        if not all(_close(g, w) for g, w in zip(got, want)):
            out.failed += 1
            if len(out.problems) < 5:
                out.problems.append(f"{key}: psnr_db,uqi {got} != reference {want}")
        elif got == want:
            out.exact += 1
    missing = len(expected) - len(seen)
    if missing:
        out.failed += missing
        out.problems.append(f"{missing} rows missing")
    return out


class Sweep:
    """An in-process ``bench run --no-runtime`` over a fixed grid."""

    def __init__(self, name, work_dir: Path, reference, images, methods, trials, workers,
                 master_seed):
        self.name = name
        self.dir = work_dir
        self.reference: dict[str, list[str]] = reference
        self.images = images  # [(file name, () -> ndarray)]
        self.methods = methods
        self.trials = trials
        self.workers = workers
        self.master_seed = master_seed
        self.paths = [str(work_dir / fname) for fname, _ in images]
        self.csv = work_dir / f"{name}.csv"
        self.cells_per_call = len(images) * len(SIGMAS.split(",")) * len(methods) * trials

    def _argv(self, images, sigmas, methods, trials, out) -> list[str]:
        return ["run", "--images", ",".join(images), "--sigmas", sigmas,
                "--methods", ",".join(methods), "--trials", str(trials),
                "--seed", str(self.master_seed), "--workers", str(self.workers),
                "--no-runtime", "--out", str(out)]

    def setup(self, tracer) -> Outcome:
        """Write the input PGMs, then run one warm-up cell."""
        from denoisebench import imagecore

        for (_, make), path in zip(self.images, self.paths):
            imagecore.save_pgm(make(), path)
        warm_csv = self.dir / f"{self.name}-warmup.csv"
        sigma = SIGMAS.split(",")[0]
        self._run(self._argv(self.paths[:1], sigma, self.methods[:1], 1, warm_csv), warm_csv)
        if self.reference is None:  # recording the reference
            return Outcome()
        key = f"{Path(self.paths[0]).stem}|{sigma}|{self.methods[0]}|1"
        return self._check(warm_csv, {key: self.reference[key]})

    def _run(self, argv, out: Path) -> None:
        out.unlink(missing_ok=True)
        _quiet_main(argv)

    def call(self, tracer) -> None:
        self._run(self._argv(self.paths, SIGMAS, self.methods, self.trials, self.csv), self.csv)

    def check(self) -> Outcome:
        return self._check(self.csv, self.reference)

    def _check(self, path: Path, expected) -> Outcome:
        try:
            text = path.read_text()
        except FileNotFoundError:
            out = Outcome()
            out.fail(len(expected), f"{path.name} not written")
            return out
        return check_sweep_csv(text, expected)

    def outputs(self) -> dict[str, list[str]]:
        """``{key: [psnr_db, uqi]}`` of the last sweep, for the reference file."""
        return {
            "|".join((r["image_id"], r["sigma"], r["method"], r["trial"])): [r["psnr_db"], r["uqi"]]
            for r in csv.DictReader(io.StringIO(self.csv.read_text()))
        }


class Mrbf1024:
    """``bench denoise --method mrbf`` on one noisy 1024x1024 PGM, cell by cell."""

    name = "mrbf_1024"
    workers = 1
    cells_per_call = 1
    size = 1024
    sigma = 25.0

    def __init__(self, work_dir: Path, variant: int, reference: str):
        self.dir = work_dir
        self.variant = variant
        self.reference = reference
        self.input = work_dir / "noisy1024.pgm"
        self.output = work_dir / "denoised1024.pgm"
        self.cell_index = 0

    def setup(self, tracer) -> Outcome:
        """Synthesize and noise the input, write it, then run one warm-up cell."""
        from denoisebench import imagecore, noise, synth

        clean = synth.texture_image(self.size, seed=SYNTH_SEED + 1000 * self.variant + 200)
        noisy = noise.add_awgn(clean, noise.NoiseModel(sigma=self.sigma, seed=300 + self.variant))
        imagecore.save_pgm(noisy, self.input)
        self.call(tracer)
        return Outcome() if self.reference is None else self.check()

    def call(self, tracer) -> None:
        self.output.unlink(missing_ok=True)
        tracer.begin_cell(self.cell_index)
        self.cell_index += 1
        _quiet_main(["denoise", "--in", str(self.input), "--method", "mrbf",
                     "--out", str(self.output)])
        tracer.end_cell()

    def outputs(self) -> str:
        return hashlib.sha256(self.output.read_bytes()).hexdigest()

    def check(self) -> Outcome:
        out = Outcome()
        try:
            digest = self.outputs()
        except FileNotFoundError:
            out.fail(1, f"{self.output.name} not written")
            return out
        out.attempted = 1
        if digest == self.reference:
            out.exact = 1
        else:
            out.failed = 1
            out.problems.append(f"output sha256 {digest[:16]} != reference {self.reference[:16]}")
        return out


def _wavelet_sweep(work_dir: Path, variant: int, reference) -> Sweep:
    from denoisebench import synth

    base = SYNTH_SEED + 1000 * variant
    return Sweep(
        "wavelet_sweep", work_dir, reference,
        images=[
            ("texture512.pgm", lambda: synth.texture_image(512, seed=base)),
            ("checker512.pgm", lambda: synth.checkerboard_image(512)),
            ("gradient512.pgm", lambda: synth.gradient_image(512)),
        ],
        methods=["visu", "sure", "bayes", "neigh"],
        trials=2, workers=1, master_seed=1000 * variant + 1,
    )


def _bilateral_sweep(work_dir: Path, variant: int, reference) -> Sweep:
    from denoisebench import synth

    base = SYNTH_SEED + 1000 * variant + 100
    return Sweep(
        "bilateral_sweep", work_dir, reference,
        images=[
            ("textureA256.pgm", lambda: synth.texture_image(256, seed=base)),
            ("textureB256.pgm", lambda: synth.texture_image(256, seed=base + 10)),
        ],
        methods=["bilateral", "collaborative", "mrbf"],
        trials=2, workers=2, master_seed=1000 * variant + 2,
    )


WORKLOADS = {
    "wavelet_sweep": _wavelet_sweep,
    "bilateral_sweep": _bilateral_sweep,
    "mrbf_1024": Mrbf1024,
}


def make_workload(name: str, work_dir: Path, seed: int, reference: dict | None):
    """Build workload `name` for `seed`; `reference` is ``reference.json``'s content."""
    variant = variant_of(seed)
    os.makedirs(work_dir, exist_ok=True)
    ref = None if reference is None else reference["workloads"][name][str(variant)]
    return WORKLOADS[name](work_dir, variant, ref)
