"""In-memory span tracer for the benchmark.

Spans are recorded from the benchmark's own files: `install` replaces each
public function of the package's layer modules at every module attribute that
refers to it (``spinwehrl.entropy.amplitude_grid`` as well as
``spinwehrl.coherent.amplitude_grid``), so a call is traced whichever module
its caller resolves the name in. Nothing in the package changes.

A span is (name, start, end, parent). Self time is a span's duration minus the
durations of its direct children; calls are strictly nested on one thread, so
that equals the part of the span its children do not cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import types
import weakref
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

PACKAGE = "spinwehrl"
LAYERS = ("quadrature", "coherent", "entropy", "su2", "channels", "majorize", "fock", "cli")

# Private functions that another layer calls (majorize evaluates its search
# objective through entropy._wehrl_fixed); traced so that work is charged to
# the layer that does it.
CROSS_LAYER_PRIVATE = ("entropy._wehrl_fixed",)

# Entry points of the adaptive Wehrl quadrature: a grid lookup under one of
# them is one quadrature level.
WEHRL_ENTRIES = ("entropy.wehrl", "entropy.wehrl_pure", "entropy.wehrl_pure_batch")
GRID = "coherent.amplitude_grid"
OPTIMIZER = "majorize.minimize_entropy"


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}


def _targets() -> dict:
    """Span name -> function for every public function of each layer module,
    plus CROSS_LAYER_PRIVATE."""
    modules = _package_modules()
    out = {}
    for layer in LAYERS:
        mod = modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if attr.startswith("_") and name not in CROSS_LAYER_PRIVATE:
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                out[name] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, outermost, info]
        self._stack: list[int] = []
        self._active: dict = defaultdict(int)
        self._restore: list = []
        self._watch_restore: list = []
        self._lru: dict = {}
        self._lru_start: dict = {}
        self.lru_delta: dict = defaultdict(lambda: [0, 0])  # name -> [hits, misses]
        self._grid_refs: dict = {}
        self._last_grid = None

    # -- patching ----------------------------------------------------------
    @staticmethod
    def _patch(originals: dict, make) -> list:
        """Replace each function in `originals` (name -> function) by
        make(name, function) at every package module attribute holding it;
        returns what to restore."""
        wrapped = {id(fn): (fn, make(name, fn)) for name, fn in originals.items()}
        restore = []
        for mod in _package_modules().values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    restore.append((mod, attr, obj))
        return restore

    @staticmethod
    def _unpatch(restore: list):
        for mod, attr, obj in reversed(restore):
            setattr(mod, attr, obj)
        restore.clear()

    def watch_grids(self):
        """Classify every grid lookup from now on as a hit (the same array
        object an earlier lookup with the same (l, n_theta, n_phi) returned)
        or a miss. Installed before set-up so the traced pass knows what the
        cache already held."""
        def make(name, fn):
            @wraps(fn)
            def watched(l, spec, *args, **kwargs):
                out = fn(l, spec, *args, **kwargs)
                key = (l.twice_l, spec.n_theta, spec.n_phi)
                ref = self._grid_refs.get(key)
                hit = ref is not None and ref() is out[0]
                if not hit:
                    self._grid_refs[key] = weakref.ref(out[0])
                self._last_grid = (l.twice_l, spec.n_theta, hit, 0.0 if hit else out[0].nbytes / 2 ** 20)
                return out
            return watched

        self._watch_restore = self._patch({GRID: _targets()[GRID]}, make)

    def unwatch(self):
        self._unpatch(self._watch_restore)

    def install(self):
        """Record spans around every target until `uninstall`."""
        targets = _targets()
        self._lru = {name: fn for name, fn in targets.items() if hasattr(fn, "cache_info")}
        self._lru_start = {name: fn.cache_info() for name, fn in self._lru.items()}
        self._restore = self._patch(targets, self._wrap)

    def uninstall(self):
        """Remove the span wrappers and accumulate the lru_cache deltas."""
        for name, fn in self._lru.items():
            a, b = self._lru_start[name], fn.cache_info()
            self.lru_delta[name][0] += b.hits - a.hits
            self.lru_delta[name][1] += b.misses - a.misses
        self._lru = {}
        self._unpatch(self._restore)

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self._active[name] == 0, None]
        self._active[name] += 1
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()
        self._active[rec[0]] -= 1

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name == GRID:
                rec[5] = self._last_grid
            elif name == OPTIMIZER:
                rec[5] = out.iterations
            return out

        return traced

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(self.spans, child)]

    def nearest(self, names) -> list[int]:
        """Index of each span's nearest strict ancestor named in `names`, or -1."""
        names = set(names)
        out = [-1] * len(self.spans)
        for i, rec in enumerate(self.spans):
            p = rec[3]
            if p >= 0:
                out[i] = p if self.spans[p][0] in names else out[p]
        return out

    def write(self, path, extra: dict):
        """Write every span as [name index, start s, end s, parent index]."""
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra, span_names=names, span_fields=["name", "start_s", "end_s", "parent"],
                   spans=[[index[r[0]], round(r[1] - t0, 7), round(r[2] - t0, 7), r[3]]
                          for r in self.spans])
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics over all recorded spans; `wall_s` is the traced wall
    time of the measured periods."""
    spans = tracer.spans
    calls = defaultdict(int)
    busy = defaultdict(float)  # outermost calls only, so recursion is not double counted
    selfs = defaultdict(float)
    layer_self = defaultdict(float)
    for rec, st in zip(spans, tracer.self_times()):
        name = rec[0]
        calls[name] += 1
        if rec[4]:
            busy[name] += rec[2] - rec[1]
        selfs[name] += st
        layer_self[name.split(".", 1)[0]] += st

    grid = [(i, r[5]) for i, r in enumerate(spans) if r[0] == GRID]
    wehrl_anc = tracer.nearest(WEHRL_ENTRIES)
    entries = sum(1 for i, r in enumerate(spans) if r[0] in WEHRL_ENTRIES and wehrl_anc[i] < 0)
    levels = [info for i, info in grid if wehrl_anc[i] >= 0]
    opt_anc = tracer.nearest((OPTIMIZER,))

    def hit_ratio(name):
        hits, misses = tracer.lru_delta[name]
        return hits / (hits + misses) if hits + misses else 0.0

    m = {
        "quadrature.sphere_nodes.calls": calls["quadrature.sphere_nodes"],
        "quadrature.sphere_nodes.busy_s": busy["quadrature.sphere_nodes"],
        "coherent.amplitude_grid.calls": len(grid),
        "coherent.amplitude_grid.busy_s": busy[GRID],
        "coherent.amplitude_grid.hit_ratio": (sum(1 for _, info in grid if info[2]) / len(grid)
                                              if grid else 0.0),
        "coherent.amplitude_grid.built_mb": sum(info[3] for _, info in grid),
        "coherent.stellar_roots.busy_s": busy["coherent.stellar_roots"],
        "coherent.closest_coherent.busy_s": busy["coherent.closest_coherent"],
        "entropy.wehrl_pure_batch.busy_s": busy["entropy.wehrl_pure_batch"],
        "entropy.wehrl_pure_batch.self_s": selfs["entropy.wehrl_pure_batch"],
        "entropy.wehrl.busy_s": busy["entropy.wehrl"],
        "entropy.wehrl.self_s": selfs["entropy.wehrl"],
        "entropy.levels_per_call": len(levels) / entries if entries else 0.0,
        "entropy.max_n_theta": max((info[1] for info in levels), default=0),
        "entropy.clamped_spectrum.calls": calls["entropy.clamped_spectrum"],
        "entropy.clamped_spectrum.busy_s": busy["entropy.clamped_spectrum"],
        "su2.cg_twice.calls": calls["su2.cg_twice"],
        "su2.cg_twice.busy_s": busy["su2.cg_twice"],
        "su2.coupling_isometry.hit_ratio": hit_ratio("su2.coupling_isometry"),
        "channels.projection_dual_gram.busy_s": busy["channels.projection_dual_gram"],
        "channels.projection_dual_gram.self_s": selfs["channels.projection_dual_gram"],
        "channels.projection_channel.busy_s": busy["channels.projection_channel"],
        "channels.projection_channel.self_s": selfs["channels.projection_channel"],
        "majorize.minimize_entropy.busy_s": busy[OPTIMIZER],
        "majorize.minimize_entropy.self_s": selfs[OPTIMIZER],
        "majorize.iterations": sum(r[5] for r in spans if r[0] == OPTIMIZER),
        "majorize.objective_evals": sum(1 for i, _ in grid if opt_anc[i] >= 0),
        "fock.sun_coherent_majorization_test.self_s": selfs["fock.sun_coherent_majorization_test"],
        "fock.decompose_measure_prepare.self_s": selfs["fock.decompose_measure_prepare"],
        "fock.cloning_kraus.busy_s": busy["fock.cloning_kraus"],
        "fock.cloning_normalization.busy_s": busy["fock.cloning_normalization"],
        "fock.reduced_density.busy_s": busy["fock.reduced_density"],
        "fock.apply_cloning.busy_s": busy["fock.apply_cloning"],
        "fock.measure_prepare_channel.busy_s": busy["fock.measure_prepare_channel"],
        "fock.monomial_annihilation.hit_ratio": hit_ratio("fock.monomial_annihilation"),
        "cli.main.self_s": selfs["cli.main"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / wall_s
    m["bench.self_share"] = 1.0 - sum(m[f"{layer}.self_share"] for layer in LAYERS)
    return m


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    return {"built_mb": "MiB", "levels_per_call": "levels/call", "max_n_theta": "nodes",
            "calls": "count", "iterations": "count", "objective_evals": "count"}.get(last, "ratio")
