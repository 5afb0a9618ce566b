"""Which public functions the traced run wraps, and the per-layer metrics.

A layer is one module of the package; its metrics come from the spans of
calls into that module's public functions.  Per-cell figures divide by the
cells completed in the traced phase.  Counts marked *computed* are derived
from call arguments (image shapes, window sizes), not measured.
"""

import statistics
from collections import defaultdict

from perfbench.spans import PROBE, Hook, self_times

__all__ = ["HOOKS", "PER_LAYER", "layer_metrics"]

# a bilateral pass "moves" a pixel when it changes it by more than this
MOVED_EPS = 1e-6
# pipelines floor sigma_r at this value when the noise estimate is 0
SIGMA_R_FLOOR = 1e-6

BILATERAL_METHODS = ("bilateral", "collaborative", "mrbf")
ALL_METHODS = ("visu", "sure", "bayes", "neigh") + BILATERAL_METHODS
SHRINKERS = ("sure_threshold", "band_stats", "bayes_threshold", "apply_threshold", "neigh_shrink")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cell_key(args, kwargs):
    # derive_seed(master_seed, image_id, sigma, method, trial) opens each sweep cell
    return tuple(_arg(args, kwargs, i, n) for i, n in
                 ((1, "image_id"), (2, "sigma"), (3, "method"), (4, "trial")))


def _pixels(i, name):
    def probe(args, kwargs, result):
        return {"px": int(_arg(args, kwargs, i, name).size)}
    return probe


def _result_pixels(args, kwargs, result):
    return {"px": int(result.size)}


def _method(args, kwargs, result):
    return {"method": _arg(args, kwargs, 1, "config").method}


def _bilateral(args, kwargs, result):
    import numpy as np

    img = np.asarray(_arg(args, kwargs, 0, "image"), dtype=np.float64)
    params = _arg(args, kwargs, 1, "params")
    h, w = img.shape
    return {
        "sigma_r": float(params.sigma_r),
        "taps": params.window * params.window * h * w,
        "px": h * w,
        "moved": int(np.count_nonzero(np.abs(result - img) > MOVED_EPS)),
    }


def _hooks(module, *functions, **options):
    return [Hook(f"denoisebench.{module}", f, **options) for f in functions]


HOOKS = [
    # cell boundaries of a sweep: the harness derives a cell's seed first and
    # scores it last, on the thread that runs the cell
    Hook("denoisebench.bench", "derive_seed", begin=_cell_key),
    Hook("denoisebench.metrics", "evaluate", end=True, probe=_pixels(0, "reference")),
    Hook("denoisebench.bench", "run_benchmark", root=True),
    *_hooks("bench", "write_csv", "write_summary"),
    Hook("denoisebench.noise", "add_awgn", probe=_pixels(0, "image")),
    *_hooks("noise", "estimate_noise_mad"),
    *_hooks("wavelet", "dwt2_haar", "idwt2_haar", "decompose", "reconstruct"),
    *_hooks("shrinkage", "visu_threshold", *SHRINKERS),
    Hook("denoisebench.bilateral", "bilateral_filter", probe=_bilateral),
    Hook("denoisebench.pipelines", "denoise", probe=_method),
    *_hooks("pipelines", "collaborative", "mrbf"),
    Hook("denoisebench.imagecore", "load_pgm", probe=_result_pixels),
    Hook("denoisebench.imagecore", "save_pgm", probe=_pixels(0, "image")),
    *_hooks("synth", "texture_image", "checkerboard_image", "gradient_image"),
    *_hooks("cli", "main"),
]

PER_LAYER = [
    ("bilateral.bilateral_filter.calls", "calls/cell"),
    ("bilateral.bilateral_filter.self_ms", "ms/cell"),
    ("bilateral.bilateral_filter.taps", "taps/cell"),
    ("bilateral.bilateral_filter.ns_per_tap", "ns"),
    ("bilateral.self_frac", "fraction"),
    ("bilateral.px_moved_frac", "fraction"),
    *((f"bilateral.px_moved_frac.{m}", "fraction") for m in BILATERAL_METHODS),
    ("bilateral.sigma_r_min", "grey"),
    ("bilateral.sigma_r_floor.calls", "calls/cell"),
    ("bilateral.sigma_r_floor.self_frac", "fraction"),
    ("noise.add_awgn.calls", "calls/cell"),
    ("noise.add_awgn.ns_per_px", "ns"),
    ("noise.estimate_noise_mad.calls", "calls/cell"),
    ("noise.estimate_noise_mad.self_ms", "ms/cell"),
    ("metrics.evaluate.calls", "calls/cell"),
    ("metrics.evaluate.ns_per_px", "ns"),
    ("bench.derive_seed.calls", "calls/cell"),
    ("bench.derive_seed.us_per_call", "us"),
    ("bench.run_benchmark.self_ms", "ms/cell"),
    ("bench.write_csv.ms", "ms"),
    ("bench.pool_busy_frac", "fraction"),
    ("bench.failed_frac", "fraction"),
    ("bench.bit_exact_frac", "fraction"),
    ("wavelet.dwt2_haar.calls", "calls/cell"),
    ("wavelet.idwt2_haar.calls", "calls/cell"),
    ("wavelet.self_ms", "ms/cell"),
    *((f"shrinkage.{f}.{k}", u) for f in SHRINKERS
      for k, u in (("calls", "calls/cell"), ("self_ms", "ms/cell"))),
    *((f"pipelines.denoise.{m}.ms_p50", "ms") for m in ALL_METHODS),
    ("pipelines.self_ms", "ms/cell"),
    ("imagecore.load_pgm.ms", "ms"),
    ("imagecore.save_pgm.ms", "ms"),
    ("imagecore.bytes", "B/cell"),
    ("synth.texture_image.ms", "ms"),
    ("cli.main.self_ms", "ms/cell"),
    ("trace.cells_per_s_untraced", "cells/s"),
    ("trace.cells_per_s_traced", "cells/s"),
    ("trace.overhead_frac", "fraction"),
]


def _median_ms(spans) -> float:
    return statistics.median((s.end - s.start) / 1e6 for s in spans) if spans else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(setup_spans, spans, cells, *, workers, outcome,
                  untraced_cells_per_s, traced_cells_per_s) -> dict[str, float]:
    """Per-layer metrics from the traced phase (`spans`, `cells`).

    `setup_spans` feed the per-call timings of set-up work (synthesis, PGM
    writes); `outcome` covers every cell the run checked.
    """
    n = len(cells)
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return _ratio(len(by_name[name]), n)

    def self_ns(*names):
        return sum(selfs[s.id] for name in names for s in by_name[name])

    def self_ms(*names):
        return _ratio(self_ns(*names), n) / 1e6

    def layer(prefix):
        return [name for name in by_name if name.startswith(prefix + ".")]

    def attr_sum(name, key, only=None):
        return sum((s.attrs or {}).get(key, 0) for s in by_name[name] if only is None or only(s))

    def outermost_method(span):
        """Method of the outermost ``pipelines.denoise`` span enclosing `span`."""
        method = None
        while span is not None:
            if span.name == "pipelines.denoise" and "method" in (span.attrs or {}):
                method = span.attrs["method"]
            span = by_id.get(span.parent)
        return method

    def is_top(span):
        parent = by_id.get(span.parent)
        return parent is None or not parent.name.startswith("pipelines.")

    top_denoise = [s for s in by_name["pipelines.denoise"] if "method" in (s.attrs or {}) and is_top(s)]
    bil = [s for s in by_name["bilateral.bilateral_filter"] if "sigma_r" in (s.attrs or {})]
    bil_self = self_ns("bilateral.bilateral_filter")
    floor = [s for s in bil if s.attrs["sigma_r"] <= SIGMA_R_FLOOR]
    # the tracer's probes run inside cells; leave them out of cell time
    cell_ns = (sum(c.end - c.start for c in cells)
               - sum(s.end - s.start for s in by_name[PROBE] if s.cell is not None))
    sweep_ns = sum(s.end - s.start for s in by_name["bench.run_benchmark"])

    m = {
        "bilateral.bilateral_filter.calls": calls("bilateral.bilateral_filter"),
        "bilateral.bilateral_filter.self_ms": self_ms("bilateral.bilateral_filter"),
        "bilateral.bilateral_filter.taps": _ratio(attr_sum("bilateral.bilateral_filter", "taps"), n),
        "bilateral.bilateral_filter.ns_per_tap": _ratio(bil_self, attr_sum("bilateral.bilateral_filter", "taps")),
        "bilateral.self_frac": _ratio(bil_self, cell_ns),
        "bilateral.px_moved_frac": _ratio(attr_sum("bilateral.bilateral_filter", "moved"),
                                          attr_sum("bilateral.bilateral_filter", "px")),
        "bilateral.sigma_r_min": min((s.attrs["sigma_r"] for s in bil), default=0.0),
        "bilateral.sigma_r_floor.calls": _ratio(len(floor), n),
        "bilateral.sigma_r_floor.self_frac": _ratio(sum(selfs[s.id] for s in floor), bil_self),
        "noise.add_awgn.calls": calls("noise.add_awgn"),
        "noise.add_awgn.ns_per_px": _ratio(self_ns("noise.add_awgn"), attr_sum("noise.add_awgn", "px")),
        "noise.estimate_noise_mad.calls": calls("noise.estimate_noise_mad"),
        "noise.estimate_noise_mad.self_ms": self_ms("noise.estimate_noise_mad"),
        "metrics.evaluate.calls": calls("metrics.evaluate"),
        "metrics.evaluate.ns_per_px": _ratio(self_ns("metrics.evaluate"), attr_sum("metrics.evaluate", "px")),
        "bench.derive_seed.calls": calls("bench.derive_seed"),
        "bench.derive_seed.us_per_call": _ratio(self_ns("bench.derive_seed"),
                                                len(by_name["bench.derive_seed"])) / 1e3,
        "bench.run_benchmark.self_ms": self_ms("bench.run_benchmark"),
        "bench.write_csv.ms": _median_ms(by_name["bench.write_csv"]),
        "bench.pool_busy_frac": _ratio(cell_ns, sweep_ns * workers),
        "bench.failed_frac": _ratio(outcome.failed, outcome.attempted),
        "bench.bit_exact_frac": _ratio(outcome.exact, outcome.attempted),
        "wavelet.dwt2_haar.calls": calls("wavelet.dwt2_haar"),
        "wavelet.idwt2_haar.calls": calls("wavelet.idwt2_haar"),
        "wavelet.self_ms": self_ms(*layer("wavelet")),
        "pipelines.self_ms": self_ms(*layer("pipelines")),
        "imagecore.load_pgm.ms": _median_ms(by_name["imagecore.load_pgm"]),
        "imagecore.save_pgm.ms": _median_ms(
            [s for s in setup_spans if s.name == "imagecore.save_pgm"] + by_name["imagecore.save_pgm"]),
        "imagecore.bytes": _ratio(attr_sum("imagecore.load_pgm", "px") + attr_sum("imagecore.save_pgm", "px"), n),
        "synth.texture_image.ms": _median_ms([s for s in setup_spans if s.name == "synth.texture_image"]),
        "cli.main.self_ms": self_ms("cli.main"),
        "trace.cells_per_s_untraced": untraced_cells_per_s,
        "trace.cells_per_s_traced": traced_cells_per_s,
        "trace.overhead_frac": _ratio(untraced_cells_per_s - traced_cells_per_s, untraced_cells_per_s),
    }
    for method in BILATERAL_METHODS:
        mine = lambda s, method=method: outermost_method(s) == method
        m[f"bilateral.px_moved_frac.{method}"] = _ratio(
            attr_sum("bilateral.bilateral_filter", "moved", mine),
            attr_sum("bilateral.bilateral_filter", "px", mine))
    for f in SHRINKERS:
        m[f"shrinkage.{f}.calls"] = calls(f"shrinkage.{f}")
        m[f"shrinkage.{f}.self_ms"] = self_ms(f"shrinkage.{f}")
    for method in ALL_METHODS:
        m[f"pipelines.denoise.{method}.ms_p50"] = _median_ms(
            [s for s in top_denoise if s.attrs["method"] == method])
    return {name: m[name] for name, _ in PER_LAYER}
