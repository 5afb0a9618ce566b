"""In-memory span tracer that rebinds the package's public functions.

The tracer wraps a public function once and rebinds every name that refers to
it in every loaded ``denoisebench`` module, so ``pipelines.bilateral_filter``,
``cli.denoise`` and ``bench.denoise`` all reach the wrapper.  Nothing in the
package changes on disk; :meth:`Tracer.uninstall` puts the originals back.

Two kinds of record are kept, per thread, and merged only by :meth:`drain`:

* a *cell* is one unit of user-visible work (one sweep row, or one
  load/denoise/save); :meth:`begin_cell` and :meth:`end_cell` mark it on the
  thread that does it;
* a *span* is one call into a traced function: name, start, end, parent span
  and the cell open on its thread when it started.

With ``record_spans`` off only the cell hooks are installed, which costs two
clock reads per cell; that is the mode the end-to-end metrics use.
"""

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Cell", "Hook", "Tracer", "self_times", "covered_ns", "percentile"]

# Name of the spans that account for the tracer's own probes, so their time is
# not charged to the layer that happens to enclose them.
PROBE = "perfbench.probe"


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    cell: object
    thread: int
    attrs: dict | None = None


@dataclass
class Cell:
    id: object
    thread: int
    start: int
    end: int


@dataclass(frozen=True)
class Hook:
    """How to trace one public function.

    ``begin`` maps the call's (args, kwargs) to a cell id and opens that cell
    before the call; ``end`` closes the thread's open cell after it.  ``probe``
    maps (args, kwargs, result) to span attributes, off the span's clock.
    ``root`` makes the span the parent of top-level spans on other threads
    (the harness's worker pool) while it is open.
    """

    module: str
    function: str
    begin: object = None
    end: bool = False
    probe: object = None
    root: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.function}"

    @property
    def is_cell_hook(self) -> bool:
        return self.begin is not None or self.end


@dataclass
class _ThreadState:
    serial: int
    stack: list = field(default_factory=list)
    cell: object = None
    cell_start: int | None = None
    spans: list = field(default_factory=list)
    cells: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.record_spans = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self._root: int | None = None

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            # thread idents are reused once a pool thread exits, so states are
            # kept in a list and numbered, never keyed by ident
            with self._lock:
                st = _ThreadState(serial=len(self._states))
                self._states.append(st)
            self._local.state = st
        return st

    def begin_cell(self, cell_id) -> None:
        st = self._state()
        st.cell = cell_id
        st.cell_start = time.perf_counter_ns()

    def end_cell(self) -> None:
        end = time.perf_counter_ns()
        st = self._state()
        if st.cell_start is not None:
            st.cells.append(Cell(st.cell, st.serial, st.cell_start, end))
        st.cell = None
        st.cell_start = None

    def drain(self) -> tuple[list[Span], list[Cell]]:
        """Take every record so far; call only while no traced call runs."""
        spans: list[Span] = []
        cells: list[Cell] = []
        with self._lock:
            for st in self._states:
                spans.extend(st.spans)
                cells.extend(st.cells)
                st.spans.clear()
                st.cells.clear()
        spans.sort(key=lambda s: s.start)
        cells.sort(key=lambda c: c.start)
        return spans, cells

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, hook: Hook):
        if not self.record_spans:
            def cell_only(*args, **kwargs):
                if hook.begin is not None:
                    self.begin_cell(hook.begin(args, kwargs))
                result = fn(*args, **kwargs)
                if hook.end:
                    self.end_cell()
                return result
            return cell_only

        name = hook.name

        def traced(*args, **kwargs):
            if hook.begin is not None:
                self.begin_cell(hook.begin(args, kwargs))
            st = self._state()
            parent = st.stack[-1] if st.stack else self._root
            sid = next(self._ids)
            st.stack.append(sid)
            if hook.root:
                self._root = sid
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter_ns()
                st.spans.append(Span(sid, name, start, end, parent, st.cell, st.serial,
                                     {"error": type(exc).__name__}))
                raise
            finally:
                st.stack.pop()
                if hook.root:
                    self._root = None
            end = time.perf_counter_ns()
            attrs = None
            if hook.probe is not None:
                attrs = hook.probe(args, kwargs, result)
                st.spans.append(Span(next(self._ids), PROBE, end, time.perf_counter_ns(),
                                     parent, st.cell, st.serial))
            st.spans.append(Span(sid, name, start, end, parent, st.cell, st.serial, attrs))
            if hook.end:
                self.end_cell()
            return result

        return traced

    def install(self, hooks, record_spans: bool) -> list[str]:
        """Rebind each hooked function in every loaded ``denoisebench`` module.

        Without ``record_spans`` only the cell hooks are installed.  Returns the
        names of hooked functions the package no longer has; their metrics
        read 0.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.record_spans = record_spans
        wrappers: dict[int, tuple[object, object]] = {}
        missing = []
        for hook in hooks:
            if not (record_spans or hook.is_cell_hook):
                continue
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                module = None
            fn = getattr(module, hook.function, None)
            if fn is None:
                missing.append(hook.name)
                continue
            wrappers[id(fn)] = (fn, self._wrap(fn, hook))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "denoisebench" or modname.startswith("denoisebench.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._root = None


# -- arithmetic over records ------------------------------------------------

def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover.

    Children on other threads may overlap each other; overlapping time is
    counted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_ns(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks.

    Matches ``numpy.percentile``'s default and ``statistics.quantiles(...,
    method="inclusive")``.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
