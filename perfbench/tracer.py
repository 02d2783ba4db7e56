"""Per-layer spans, recorded from outside the package.

The tracer replaces public names in the namespaces that import them (for
example `build_complex` inside `clustercomplex.cli`) with wrappers that open
a span, call the original and close the span.  Each span keeps its parent,
so a layer's self time is its busy time minus the busy time of the spans it
caused.  A generator such as `iter_rigid_sets` is busy only while producing
an item, so its span is opened and closed around every `next()`.

A boundary whose name no longer exists is skipped: its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# Root span of one CLI verdict.  Its self time is everything in `cli` that is
# not a traced layer: argument parsing, loading, `algebra` and `linalg`.
CLI_SPAN = "cli.self"


def _descent_steps(report) -> dict:
    return {"measure.descent_steps": sum(getattr(report, "steps", {}).values())}


def _faces(cx) -> dict:
    return {"polytope.faces": len(getattr(cx, "faces", ()))}


def _members(catalog) -> dict:
    return {"roots.members": len(catalog)}


def _facets(facets) -> dict:
    return {"tilting.facets": len(facets)}


# (module, name in that module, span, counter of the result or None)
BOUNDARIES = (
    ("clustercomplex.cli", "catalog_for", "roots.catalog", _members),
    ("clustercomplex.cli", "rank2_sequences", "roots.catalog", _members),
    ("clustercomplex.cli", "build_complex", "polytope.build", _faces),
    ("clustercomplex.cli", "verify_ap_axioms", "polytope.axioms", None),
    ("clustercomplex.cli", "verify_flag_connected", "polytope.flag", None),
    ("clustercomplex.cli", "rank2_window_complex", "polytope.window", None),
    ("clustercomplex.cli", "verify_endos_all", "measure.endos", None),
    ("clustercomplex.cli", "verify_descent", "measure.descent", _descent_steps),
    ("clustercomplex.cli", "verify_rank2_inequality", "measure.rank2", None),
    ("clustercomplex.cli", "verify_total_order", "measure.total_order", None),
    ("clustercomplex.measure", "bongartz", "tilting.completion", None),
    ("clustercomplex.measure", "dual_bongartz", "tilting.completion", None),
    ("clustercomplex.measure", "enumerate_support_tilting", "tilting.enumerate", _facets),
    ("clustercomplex.polytope", "enumerate_support_tilting", "tilting.enumerate", _facets),
    # a generator: its span also counts the items it yields
    ("clustercomplex.tilting", "iter_rigid_sets", "homext.rigid_sets", None),
)

# Every span the workloads can open; each reports its self time as `<span>_s`.
SPANS = (
    CLI_SPAN, "roots.catalog", "polytope.build", "polytope.axioms", "polytope.flag",
    "polytope.window", "measure.endos", "measure.descent", "measure.rank2",
    "measure.total_order", "tilting.completion", "tilting.enumerate",
    "tilting.complements", "homext.rigid_sets", "homext.hom_ext",
)
# Spans whose call count can change with the code (the others run once a verdict).
CALLS = ("tilting.completion", "tilting.enumerate", "tilting.complements", "homext.hom_ext")
COUNTERS = ("roots.members", "polytope.faces", "measure.descent_steps",
            "tilting.facets", "homext.rigid_sets")


class Tracer:
    """A stack of open spans and, per span name, calls and self time."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # (parent, child) -> busy seconds of child under that parent
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, busy of children]

    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self) -> float:
        end = time.perf_counter()
        name, start, children = self._stack.pop()
        busy = end - start
        self.self_time[name] += busy - children
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += busy
        self.edges[parent, name] += busy
        return busy

    def span(self, name: str, fn, counter=None):
        """`fn` wrapped so that each call is one span named `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, _ = self.timed(name, fn, *args, **kwargs)
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def generator_span(self, name: str, fn):
        """`fn` (a generator function) wrapped so that each `next()` is a span;
        `counts[name]` counts the items."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close()
                self.counts[name] += 1
                yield item

        return wrapper

    def timed(self, name: str, fn, *args, **kwargs):
        """Call `fn` as one span; return (result, busy seconds)."""
        self.calls[name] += 1
        self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            busy = self._close()
        return result, busy

    @contextmanager
    def installed(self):
        """Patch every boundary that exists; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, span, counter in BOUNDARIES:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                if inspect.isgeneratorfunction(fn):
                    setattr(module, attr, self.generator_span(span, fn))
                else:
                    setattr(module, attr, self.span(span, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def metrics(self, passes: int) -> dict[str, float]:
        """Self times, calls and counters, each per pass."""
        out = {f"{name}_s": self.self_time.get(name, 0.0) / passes for name in SPANS}
        for name in CALLS:
            out[f"{name}_calls"] = self.calls.get(name, 0) / passes
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0) / passes
        return out
