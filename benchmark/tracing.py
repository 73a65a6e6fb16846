"""Spans around the entry points of numerkit's layers, for the traced run.

``Tracer.install`` replaces each entry point below with a timing wrapper in
every numerkit module that holds it, so a caller that imported the name
(``numerkit.verify.solve_2d``) is traced as well as the defining module
(``numerkit.pde.solve_2d``).  ``ratecurve`` has no span: it is called inside
the PDE coefficient loops and the Monte Carlo loops, so its time sits inside
``pde`` and ``montecarlo``.  Spans are kept in memory and written out when the
run ends; the spans of one benchmark operation share its ``op`` id.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

ENTRY_POINTS = {
    "cli": ("numerkit.cli", ("main",)),
    "verify": ("numerkit.verify", ("run_suite", "verify_product",
                                   "price_with_method", "build_engines",
                                   "suite_to_json", "suite_to_csv")),
    "model": ("numerkit.model", ("product_from_dict", "validate",
                                 "product_to_dict", "quote_to_dict")),
    "analytic": ("numerkit.analytic", (
        "bs_call", "esop_price", "esop_price_after_reset",
        "esop_price_generalized", "fx_option_usd", "fx_option_gbp",
        "savings_domestic", "savings_foreign", "convertible_price",
        "corporate_convertible_price")),
    "numeraire": ("numerkit.numeraire", ("quadrature_price",)),
    "pde": ("numerkit.pde", ("solve_1d", "solve_2d", "derive_reduced")),
    "montecarlo": ("numerkit.montecarlo", ("price_mc",)),
}

# product class -> label, as numerkit.verify labels its canonical bundles
LABELS = {"Esop": "esop", "FxStrike": "fx_usd", "Savings": "savings",
          "Convertible": "convertible", "Corporate": "corporate"}
EXACT_LABELS = ("esop", "fx_usd", "savings")
RATE_LABELS = ("convertible", "corporate")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    op: int
    label: Optional[str] = None
    work: int = 0
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _work(name: str, args, kwargs) -> int:
    """Node-steps of a PDE solve, or paths of a simulation."""
    if name in ("pde.solve_1d", "pde.solve_2d"):
        grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
        if grid is None:
            return 0
        dims = 2 if name == "pde.solve_2d" else 1
        return grid.nodes_per_axis ** dims * grid.time_steps
    if name == "montecarlo.price_mc":
        mc = kwargs.get("mc", args[1] if len(args) > 1 else None)
        return 0 if mc is None else mc.paths
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = -1

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = LABELS.get(type(args[0]).__name__) if args else None
            if label is None and parent >= 0:
                label = spans[parent].label
            span = Span(name, layer, 0.0, 0.0, parent, self.op, label,
                        _work(name, args, kwargs))
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str, op: int):
        """A benchmark-side root span for operation ``op``."""
        self.op = op
        span = Span(name, "bench", time.perf_counter(), 0.0, -1, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "numerkit" or n.startswith("numerkit.")]
        for layer, (mod_name, names) in ENTRY_POINTS.items():
            home = sys.modules[mod_name]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _busy(spans, pick) -> float:
    """Summed time of the picked spans whose parent is not picked too."""
    total = 0.0
    for s in spans:
        if pick(s) and not (s.parent >= 0 and pick(spans[s.parent])):
            total += s.duration
    return total


def _self_time(spans, layer: str) -> float:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    return sum((s.duration - child_time[i] for i, s in enumerate(spans)
                if s.layer == layer), 0.0)


def _rate(work: int, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures from one traced run (busy time in s, counts)."""
    out = {}

    def named(name):
        return [s for s in spans if s.name == name]

    for solver in ("solve_2d", "solve_1d"):
        name = f"pde.{solver}"
        calls = named(name)
        busy = _busy(spans, lambda s, n=name: s.name == n)
        out[f"{name}.busy_s"] = busy
        out[f"{name}.calls"] = len(calls)
        out[f"{name}.node_steps_per_s"] = _rate(sum(s.work for s in calls), busy)
        for label in LABELS.values():
            out[f"{name}.busy_s.{label}"] = _busy(
                spans, lambda s, n=name, lb=label: s.name == n and s.label == lb)
    out["pde.derive_reduced.busy_s"] = _busy(
        spans, lambda s: s.name == "pde.derive_reduced")

    mc = named("montecarlo.price_mc")
    out["montecarlo.price_mc.busy_s"] = _busy(
        spans, lambda s: s.name == "montecarlo.price_mc")
    out["montecarlo.price_mc.calls"] = len(mc)
    for family, labels in (("exact", EXACT_LABELS), ("rate", RATE_LABELS)):
        picked = [s for s in mc if s.label in labels]
        out[f"montecarlo.{family}_paths_per_s"] = _rate(
            sum(s.work for s in picked), sum(s.duration for s in picked))
    for label in LABELS.values():
        picked = [s for s in mc if s.label == label]
        out[f"montecarlo.paths_per_s.{label}"] = _rate(
            sum(s.work for s in picked), sum(s.duration for s in picked))

    quad = named("numeraire.quadrature_price")
    out["numeraire.quadrature_price.busy_s"] = _busy(
        spans, lambda s: s.name == "numeraire.quadrature_price")
    out["numeraire.quadrature_price.calls"] = len(quad)
    out["numeraire.quadrature_price.failed"] = sum(s.failed for s in quad)

    for layer in ("analytic", "model"):
        out[f"{layer}.busy_s"] = _busy(spans, lambda s, lay=layer: s.layer == lay)
        out[f"{layer}.calls"] = sum(
            1 for s in spans if s.layer == layer
            and not (s.parent >= 0 and spans[s.parent].layer == layer))
    out["verify.build_engines.busy_s"] = _busy(
        spans, lambda s: s.name == "verify.build_engines")
    out["verify.self_s"] = _self_time(spans, "verify")
    out["cli.self_s"] = _self_time(spans, "cli")
    return out


def covered_time(spans: list[Span]) -> float:
    """Time that numerkit spans cover directly under the benchmark's own spans."""
    return sum(s.duration for s in spans
               if s.parent >= 0 and spans[s.parent].layer == "bench")
