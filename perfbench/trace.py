"""Span recorder for the traced run, and the per-layer split computed from it.

Spans are recorded around calls into the public functions of perclab's
modules by rebinding those names from the outside for the length of one
invocation; no file of the package changes.  A span is (id, name, start,
end, parent, thread, pass).  Spans stay in memory and are written out with
the invocation's result.

A pass is one realization computed once: it starts at a call of
sample_configuration and carries that call's (volume, realization index).
Worker threads keep their own span stack and pass; a span opened on a worker
thread with an empty stack takes as parent the innermost open span of the
main thread, which is blocked in the driver that dispatched it.

Only the standard library is imported here, so that the worker can time the
import of perclab (and with it numpy and scipy) from a clean interpreter.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict

ID, NAME, START, END, PARENT, THREAD, PASS = range(7)

DRIVER = "experiments.driver"
CLI = "cli.run"


def _sizes(recorder, engine):
    sizes = recorder.engine_sizes.get(engine)
    if sizes is None:
        sizes = [len(rows) for rows in engine.block_rows]
        recorder.engine_sizes[engine] = sizes
    return sizes


def _count_sample(rec, args, kwargs, out):
    rec.add(sample_calls=1, sites_sampled=len(out.values))


def _count_label(rec, args, kwargs, out):
    rec.add(label_calls=1, active_sites=int(out.config.active.sum()))


def _count_assemble(rec, args, kwargs, out):
    rec.add(rows=out.dim, edges=len(out.off_i))


def _count_blocks(rec, args, kwargs, out):
    rec.add(blocks=len(out))
    rec.peak(max_block=max((len(b) for b in out), default=0))


def _count_engine(rec, args, kwargs, out):
    from perclab.spectra import DENSE_BLOCK_MAX
    sizes = _sizes(rec, args[0])
    large = sum(1 for n in sizes if n > DENSE_BLOCK_MAX)
    rec.add(small_blocks=len(sizes) - large, large_blocks=large)


def _count_counts_below(rec, args, kwargs, out):
    from perclab.spectra import DENSE_BLOCK_MAX
    factored = sum(n for n in _sizes(rec, args[0]) if n > DENSE_BLOCK_MAX)
    rec.add(factor_site_energies=factored * len(out))


def _count_kernel_dim(rec, args, kwargs, out):
    import perclab.spectra as spectra
    # blocks up to CACHE_SITE_MAX may be served from the program's cache;
    # once that cache is gone every block is eliminated
    cached_max = getattr(spectra, "CACHE_SITE_MAX", 0)
    sizes = _sizes(rec, args[0])
    rec.add(kernel_dim_calls=1,
            exact_ops_computed=sum(n ** 3 / 3 for n in sizes if n > cached_max))
    rec.peak(exact_guard_frac=max(sizes, default=0) / spectra.EXACT_DIM_GUARD)


# (module, attribute, span name, counter hook).  "Class.method" patches the
# class, which every caller shares; a function is rebound in every perclab
# module that imported it.
TARGETS = (
    ("perclab.model", "sample_configuration", "model.sample", _count_sample),
    ("perclab.percolation", "label_clusters", "percolation.label", _count_label),
    ("perclab.percolation", "connected_region", "percolation.connected_region", None),
    ("perclab.percolation", "enumerate_connected_subgraphs", "percolation.enumerate", None),
    ("perclab.operator", "assemble", "operator.assemble", _count_assemble),
    ("perclab.operator", "SymmetricOperatorMatrix.blocks", "operator.blocks", _count_blocks),
    ("perclab.spectra", "BlockSpectra.__init__", "spectra.engine", _count_engine),
    ("perclab.spectra", "BlockSpectra.counts_below", "spectra.count", _count_counts_below),
    ("perclab.spectra", "BlockSpectra.kernel_dim", "spectra.kernel_dim", _count_kernel_dim),
    ("perclab.spectra", "cluster_spectrum_catalog", "spectra.catalog", None),
    ("perclab.experiments", "estimate_ids", DRIVER, None),
    ("perclab.experiments", "ids_jump", DRIVER, None),
    ("perclab.experiments", "cluster_density_profile", DRIVER, None),
    ("perclab.experiments", "convergence_study", DRIVER, None),
    ("perclab.cli", "run", CLI, None),
)


class Recorder:
    """Collects spans and counters while installed; see install()."""

    def __init__(self):
        self.spans = []
        self.passes = {}               # pass id -> (volume, realization index)
        self.counters = Counter()
        self.peaks = {}
        self.engine_sizes = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._pass_ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()

    def add(self, **amounts):
        with self._lock:
            self.counters.update(amounts)

    def peak(self, **values):
        with self._lock:
            for k, v in values.items():
                self.peaks[k] = max(self.peaks.get(k, v), v)

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            on_main = threading.get_ident() == self._main
            local.stack = self._main_stack if on_main else []
            local.pass_id = None
        return local

    def wrap(self, fn, name, count=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = rec._state()
            stack = local.stack
            if stack:
                parent = stack[-1]
            else:
                parent = rec._main_stack[-1] if rec._main_stack else None
            if name == "model.sample":
                region = kwargs.get("region", args[1] if len(args) > 1 else None)
                index = kwargs.get("realization_index", args[3] if len(args) > 3 else None)
                local.pass_id = next(rec._pass_ids)
                rec.passes[local.pass_id] = (len(region), int(index))
            pass_id = local.pass_id
            sid = next(rec._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rec.spans.append((sid, name, start, end, parent,
                                  threading.get_ident(), pass_id))
            if count is not None:
                count(rec, args, kwargs, out)
            return out

        return traced


def install(recorder: Recorder):
    """Wrap every target; returns (undo list, targets not found)."""
    patches, missing = [], []
    for module_name, attr, name, count in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name, None)
            original = None if owner is None else owner.__dict__.get(meth)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, meth, recorder.wrap(original, name, count))
            patches.append((owner, meth, original))
            continue
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapped = recorder.wrap(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "perclab" or mod_name.startswith("perclab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    patches.append((mod, key, original))
    return patches, missing


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# self time and the per-layer split (pure functions of the recorded spans)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it its children cover.

    Children on worker threads can overlap each other; the union of their
    intervals is what is subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START]) - _covered(children[s[ID]], s[START], s[END])
            for s in spans}


def outermost(spans, name) -> list:
    """Spans called name that have no ancestor called name."""
    by_id = {s[ID]: s for s in spans}
    out = []
    for s in spans:
        if s[NAME] != name:
            continue
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] != name:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            out.append(s)
    return out


SELF_TIME_METRICS = {
    "spectra.engine_s": "spectra.engine",
    "spectra.kernel_dim_s": "spectra.kernel_dim",
    "spectra.count_s": "spectra.count",
    "spectra.catalog_s": "spectra.catalog",
    "percolation.enumerate_s": "percolation.enumerate",
    "percolation.label_s": "percolation.label",
    "percolation.connected_region_s": "percolation.connected_region",
    "operator.assemble_s": "operator.assemble",
    "operator.blocks_s": "operator.blocks",
    "model.sample_s": "model.sample",
    "experiments.self_s": DRIVER,
    "cli.self_s": CLI,
}

COUNTER_METRICS = {
    "spectra.small_blocks": "small_blocks",
    "spectra.large_blocks": "large_blocks",
    "spectra.kernel_dim_calls": "kernel_dim_calls",
    "spectra.exact_ops_computed": "exact_ops_computed",
    "spectra.factor_site_energies": "factor_site_energies",
    "percolation.label_calls": "label_calls",
    "percolation.active_sites": "active_sites",
    "operator.rows": "rows",
    "operator.edges": "edges",
    "operator.blocks": "blocks",
    "model.sample_calls": "sample_calls",
    "model.sites_sampled": "sites_sampled",
}

PEAK_METRICS = {
    "operator.max_block": "max_block",
    "spectra.exact_guard_frac": "exact_guard_frac",
}


def layer_split(spans, passes, counters, peaks, workers: int) -> dict:
    """Per-layer metrics of one traced invocation."""
    own = self_times(spans)
    out = {metric: 0.0 for metric in SELF_TIME_METRICS}
    for s in spans:
        for metric, name in SELF_TIME_METRICS.items():
            if s[NAME] == name:
                out[metric] += own[s[ID]]
    for metric, key in COUNTER_METRICS.items():
        out[metric] = counters.get(key, 0)
    for metric, key in PEAK_METRICS.items():
        out[metric] = peaks.get(key, 0)
    driver_s = sum(s[END] - s[START] for s in outermost(spans, DRIVER))
    out["experiments.driver_s"] = driver_s
    out["cli.run_s"] = sum(s[END] - s[START] for s in outermost(spans, CLI))

    # a pass is busy from its sample call to the end of the last layer span
    # that ran for it; driver and CLI spans are not realization work
    lo, hi = {}, {}
    for s in spans:
        p = s[PASS]
        if p is None or s[NAME] in (DRIVER, CLI):
            continue
        lo[p] = min(lo.get(p, s[START]), s[START])
        hi[p] = max(hi.get(p, s[END]), s[END])
    busy = sum(hi[p] - lo[p] for p in lo)
    distinct = len(set(passes.values()))
    out["experiments.passes_per_realization"] = (
        counters.get("sample_calls", 0) / distinct if distinct else 0.0)
    out["experiments.worker_busy_frac"] = (
        busy / (driver_s * workers) if driver_s > 0 else 0.0)
    return out
