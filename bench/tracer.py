"""Per-layer tracing of iwk from outside the package.

`Tracer.install()` replaces every public function of each iwk module, and
the sympy entry points those modules bind, with a wrapper that records a
span: its name, its duration and the span that called it.  Spans go to the
table of the segment that is running (`Tracer.into`), so the layer figures
of one workload are not mixed with those of another, and nowhere while
tracing is paused.  They are folded into per-name totals as they close,
because one level-6 coinvariant table alone opens hundreds of thousands of
`ord_p` spans.  A span's self time is its duration minus the time covered
by its child spans.

In a traced run, `cli_child.py` hands each CLI process to `traced_cli`:
it times `import sympy` and `import iwk.cli`, runs the CLI with tracing on
and writes its span table to the file named by $IWK_BENCH_SPANS.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Optional, Tuple

LAYERS = ("padic", "zpmod", "iwasawa", "growth", "ecq", "conditions", "twist", "cli")
# sympy names a layer binds with `from sympy import ...`
SYMPY_IMPORTS = {
    "padic": ("isprime",),
    "ecq": ("factorint",),
    "conditions": ("primerange",),
    "twist": ("isprime",),
}
# sympy names a layer reaches through its `sympy` module object
SYMPY_ATTRIBUTES = {
    "conditions": ("isprime",),
    "twist": ("gcd",),
    "cli": ("isprime", "primerange"),
}
# private functions that carry a layer's cost and get a span of their own
PRIVATE_SPANS = {
    ("conditions", "_division_poly_reducible"): "conditions.division_poly",
    ("cli", "_load_cache"): "cli.load_cache",
}
# span name -> {name of the calling span: counter bumped on each such call}
COUNT_UNDER = {
    "twist.isprime": {"twist.construct_c2_twist": "twist.candidates_tried"},
    "ecq.count_points_ap": {"cli.cache_traces": "cli.cache.misses"},
}


def _ring_dim(table: "Table", args, result) -> None:
    M, m = args[0], args[1]
    key = "iwasawa.coinvariant_order.max_ring_dim"
    table.counters[key] = max(table.counters[key], M.p ** (m - 1))


def _cache_hits(table: "Table", args, result) -> None:
    table.counters["cli.cache.hits"] += len(result)


AFTER = {"iwasawa.coinvariant_order": _ring_dim, "cli.load_cache": _cache_hits}


class Table:
    """Per-name span totals and counters of one segment."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.first_s: Dict[str, float] = {}

    def as_dict(self) -> Dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters), "first_s": self.first_s}

    def merge(self, table: Dict) -> None:
        """Add a child process's span table to this one."""
        self.calls.update(table["calls"])
        self.self_s.update(table["self_s"])
        for key, value in table["counters"].items():
            if key.endswith("max_ring_dim"):
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value


class _ModuleView:
    """Stands in for the `sympy` module inside one layer, with some of its
    functions replaced by traced wrappers."""

    def __init__(self, module, overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.table: Optional[Table] = None  # where spans go; None while paused
        self.tables: Dict[str, Table] = defaultdict(Table)
        self._open: List[list] = []  # [name, seconds of child spans] per open span
        self._undo: List[Tuple[object, str, object]] = []

    @contextmanager
    def into(self, segment: Optional[str]):
        """Record the spans opened inside into `segment`'s table, or
        nowhere when `segment` is None."""
        saved = self.table
        self.table = self.tables[segment] if segment else None
        try:
            yield
        finally:
            self.table = saved

    def wrap(self, name, fn, after=None):
        tracer = self
        if name.endswith("primerange"):
            key = name + ".yielded"

            def count_yields(table, iterator):
                for x in iterator:
                    table.counters[key] += 1
                    yield x

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                table = tracer.table
                if table is None:
                    return fn(*args, **kwargs)
                table.calls[name] += 1
                return count_yields(table, fn(*args, **kwargs))

            return traced_generator

        count_under = COUNT_UNDER.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table = tracer.table
            if table is None:
                return fn(*args, **kwargs)
            open_spans = tracer._open
            parent = open_spans[-1][0] if open_spans else ""
            span = [name, 0.0]
            open_spans.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += dt
                table.calls[name] += 1
                table.self_s[name] += dt - span[1]
                if parent in count_under:
                    table.counters[count_under[parent]] += 1
                if name not in table.first_s:
                    table.first_s[name] = dt
            if after is not None:
                after(table, args, result)
            return result

        return traced

    def _patch(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        import iwk
        import sympy

        modules = {layer: importlib.import_module("iwk." + layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    span = PRIVATE_SPANS.get((layer, attr))
                    if span is None and not attr.startswith("_"):
                        span = f"{layer}.{attr}"
                    if span:
                        wrappers[obj] = self.wrap(span, obj, AFTER.get(span))
            for attr in SYMPY_IMPORTS.get(layer, ()):
                self._patch(mod, attr, self.wrap(f"{layer}.{attr}", getattr(mod, attr)))
            if layer in SYMPY_ATTRIBUTES:
                overrides = {
                    a: self.wrap(f"{layer}.sympy.{a}", getattr(sympy, a))
                    for a in SYMPY_ATTRIBUTES[layer]
                }
                self._patch(mod, "sympy", _ModuleView(sympy, overrides))
        # Rebind each wrapped function wherever a module imported it by name.
        for mod in list(modules.values()) + [iwk]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


M, C, B, K = "modules", "corpus", "bigdisc", "cli-cold"
# (metric, unit, home segments, value from a segment's table).  The home
# segments are those whose end-to-end metrics the layer should move.  A run
# reads each metric from the selected workload's table when that workload
# is a home, and from the first home, run as a probe, otherwise.
LAYER_METRICS = [
    ("padic.ord_p.calls", "count", (M, C), lambda t: t.calls["padic.ord_p"]),
    ("padic.ord_p.self_s", "s", (M, C), lambda t: t.self_s["padic.ord_p"]),
    ("padic.isprime.calls", "count", (M,), lambda t: t.calls["padic.isprime"]),
    ("padic.kronecker_symbol.calls", "count", (C,), lambda t: t.calls["padic.kronecker_symbol"]),
    ("zpmod.smith_normal_form.calls", "count", (M,), lambda t: t.calls["zpmod.smith_normal_form"]),
    ("zpmod.smith_normal_form.self_s", "s", (M,), lambda t: t.self_s["zpmod.smith_normal_form"]),
    ("zpmod.phi_bruteforce.self_s", "s", (M,), lambda t: t.self_s["zpmod.phi_bruteforce"]),
    ("zpmod.fitting_from_minors.self_s", "s", (M,), lambda t: t.self_s["zpmod.fitting_from_minors"]),
    ("zpmod.delta_decompose.self_s", "s", (M,), lambda t: t.self_s["zpmod.delta_decompose"]),
    ("iwasawa.coinvariant_order.calls", "count", (M,), lambda t: t.calls["iwasawa.coinvariant_order"]),
    ("iwasawa.coinvariant_order.self_s", "s", (M,), lambda t: t.self_s["iwasawa.coinvariant_order"]),
    ("iwasawa.coinvariant_order.max_ring_dim", "count", (M,),
     lambda t: t.counters["iwasawa.coinvariant_order.max_ring_dim"]),
    ("iwasawa.weierstrass_prepare.self_s", "s", (M,), lambda t: t.self_s["iwasawa.weierstrass_prepare"]),
    ("growth.self_s", "s", (C,), lambda t: sum(v for n, v in t.self_s.items() if n.startswith("growth."))),
    ("ecq.factorint.calls_per_curve", "calls/curve", (B, C),
     lambda t: t.calls["ecq.factorint"] / max(t.calls["cli.analyze_curve"], 1)),
    ("ecq.factorint.self_s", "s", (B, C), lambda t: t.self_s["ecq.factorint"]),
    ("ecq.minimal_model.calls", "count", (B,), lambda t: t.calls["ecq.minimal_model"]),
    ("ecq.minimal_model.self_s", "s", (B,), lambda t: t.self_s["ecq.minimal_model"]),
    ("ecq.reduction_type.calls", "count", (B,), lambda t: t.calls["ecq.reduction_type"]),
    ("ecq.reduction_type.self_s", "s", (B,), lambda t: t.self_s["ecq.reduction_type"]),
    ("ecq.quadratic_twist.self_s", "s", (B,), lambda t: t.self_s["ecq.quadratic_twist"]),
    ("ecq.count_points_ap.calls", "count", (C, K), lambda t: t.calls["ecq.count_points_ap"]),
    ("ecq.count_points_ap.self_s", "s", (C, K), lambda t: t.self_s["ecq.count_points_ap"]),
    ("conditions.check_c1_str.self_s", "s", (C,), lambda t: t.self_s["conditions.check_c1_str"]),
    ("conditions.c1_primes_scanned_per_verdict", "primes/verdict", (C,),
     lambda t: t.counters["conditions.primerange.yielded"] / max(t.calls["conditions.check_c1_str"], 1)),
    ("conditions.division_poly.calls", "count", (C, K), lambda t: t.calls["conditions.division_poly"]),
    ("conditions.division_poly.self_s", "s", (C, K), lambda t: t.self_s["conditions.division_poly"]),
    ("conditions.check_c2.calls", "count", (C,), lambda t: t.calls["conditions.check_c2"]),
    ("twist.construct_c2_twist.self_s", "s", (C, B), lambda t: t.self_s["twist.construct_c2_twist"]),
    ("twist.candidates_tried", "count", (C, B), lambda t: t.counters["twist.candidates_tried"]),
    ("cli.analyze_curve.self_s", "s", (C, B), lambda t: t.self_s["cli.analyze_curve"]),
    ("cli.ingest_curves.self_s", "s", (C,), lambda t: t.self_s["cli.ingest_curves"]),
    ("cli.cache_traces.self_s", "s", (K,), lambda t: t.self_s["cli.cache_traces"]),
    ("cli.cache.misses", "count", (K,), lambda t: t.counters["cli.cache.misses"]),
    ("cli.cache.hits", "count", (K, C), lambda t: t.counters["cli.cache.hits"]),
]


def layer_metrics(tracer: Tracer, children: List[Dict], selected: str) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run whose selected workload is
    `selected`; `children` are the span tables of its CLI processes."""
    out = {}
    for name, unit, homes, value in LAYER_METRICS:
        out[name] = (value(tracer.tables[selected if selected in homes else homes[0]]), unit)

    def child_median(values):
        values = list(values)
        return median(values) if values else 0.0

    out["cli.import_s"] = (child_median(t["import_s"] for t in children), "s")
    out["cli.import_sympy_s"] = (child_median(t["import_sympy_s"] for t in children), "s")
    out["cli.first_analyze_s"] = (child_median(
        t["first_s"]["cli.analyze_curve"] for t in children if "cli.analyze_curve" in t["first_s"]), "s")
    return out


def traced_cli() -> int:
    t0 = time.perf_counter()
    import sympy  # noqa: F401  (timed on its own)

    t1 = time.perf_counter()
    import iwk.cli

    t2 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.into("cli"):
            return iwk.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        table = tracer.tables["cli"].as_dict()
        table.update(import_s=t2 - t0, import_sympy_s=t1 - t0)
        with open(os.environ["IWK_BENCH_SPANS"], "w") as fh:
            json.dump(table, fh)
