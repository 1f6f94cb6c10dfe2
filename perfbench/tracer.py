"""In-memory span tracer for the public functions of ``lgwigner``.

The tracer replaces each traced function by a wrapper in every module
namespace that binds it, including the names that ``from .x import y``
re-binds inside other modules; otherwise nested calls would escape it.
Spans carry parent ids, stay in memory while the traced run lasts and are
written out at the end. :meth:`Tracer.restore` puts the original
functions back, so untraced runs execute no wrapper at all.

A layer's self time is its spans' durations minus the time covered by
their direct children. The quadrature oracles also record how many
integrand nodes they evaluated and how many of them mattered: a node is
useful when the magnitude of the integrand there is at least
``USEFUL_FLOOR`` times the largest magnitude of the same integral.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

#: Share of an integral's peak magnitude below which a node is wasted.
USEFUL_FLOOR = 1e-16

#: Layer name -> (module of definition, public functions).
LAYERS = {
    "specfun": (
        "specfun",
        ("hermite_poly", "hermite_function", "hermite_function_table",
         "hermite_function_derivative", "laguerre"),
    ),
    "modes": ("modes", ("lg_mode", "hg_mode", "apply_operator_pointwise", "ladder_index_action")),
    "wigner.closed": (
        "wigner",
        ("wigner_hermite_closed", "wigner_lg_closed", "wigner_hg_closed",
         "wigner_lg_diag", "wigner_hg_diag"),
    ),
    "wigner.oracle1d": ("wigner", ("wigner1d", "wigner1d_grid", "extended_wigner", "extended_wigner_grid")),
    "wigner.oracle2d": ("wigner", ("wigner2d",)),
    "wigner.rotfft": ("wigner", ("extended_wigner_rotfft",)),
    "beam": ("beam", ("beam_field", "beam_geometry")),
    "cli": ("cli", ("main",)),
}

ORACLE_LAYERS = ("wigner.oracle1d", "wigner.oracle2d")

#: Modules whose namespaces get the wrappers.
NAMESPACES = ("", "specfun", "modes", "wigner", "beam", "verify", "cli")

#: Layer of the tracer's own bookkeeping spans; they count as children
#: of the span they sit in, so no traced layer's self time includes them.
OVERHEAD_LAYER = "trace"


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    nodes: int = 0
    useful: int | None = None


class _Capture:
    """Callable proxy that keeps every value it returns."""

    def __init__(self, fn):
        self.fn = fn
        self.values = []

    def __call__(self, *args):
        value = self.fn(*args)
        self.values.append(value)
        return value


class Tracer:
    """Wraps functions, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._next_id = 0

    # -- installation ---------------------------------------------------

    def install_package(self, package) -> None:
        """Wrap every function of :data:`LAYERS` in ``package`` (lgwigner)."""
        modules = {name: getattr(package, name) if name else package for name in NAMESPACES}
        targets = []
        for layer, (home, names) in LAYERS.items():
            for name in names:
                targets.append((layer, getattr(modules[home], name)))
        self.install(targets, list(modules.values()))

    def install(self, targets, namespaces) -> None:
        """Wrap each ``(layer, function)`` wherever a namespace binds it."""
        wrappers = {}
        for layer, fn in targets:
            if layer in ORACLE_LAYERS:
                wrappers[id(fn)] = self._oracle_wrapper(layer, fn)
            else:
                wrappers[id(fn)] = self._wrapper(layer, fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- recording ------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _wrapper(self, layer, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, layer, name, t0, t1))

        return traced

    def _oracle_wrapper(self, layer, fn):
        name = fn.__name__
        signature = inspect.signature(fn)
        callables = [p for p in signature.parameters if p in ("f", "g", "F")]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            captures = [_Capture(bound.arguments[p]) for p in callables]
            for p, capture in zip(callables, captures):
                bound.arguments[p] = capture
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                nodes, useful = _count_nodes(layer, bound.arguments, captures)
                self.spans.append(Span(sid, parent, layer, name, t0, t1, nodes, useful))
                # the counting above is tracer work, not the caller's
                self.spans.append(
                    Span(self._next_id, parent, OVERHEAD_LAYER, "count_nodes", t1, time.perf_counter())
                )
                self._next_id += 1

        return traced

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _count_nodes(layer, arguments, captures) -> tuple[int, int | None]:
    """Integrand nodes evaluated by one oracle call, and how many mattered.

    Node counts come from the argument sizes: each output point of a 1D
    oracle is one integral over ``quad.nodes`` nodes, and the 2D oracle is
    one integral over ``quad.nodes ** 2``. The useful count uses the
    captured field values, whose product is the integrand's magnitude
    (the Fourier phase has modulus one). It is ``None`` when the oracle
    did not call each field exactly once, since the values then do not
    pair up.
    """
    from lgwigner.wigner import DEFAULT_QUAD

    quad = arguments.get("quad") or DEFAULT_QUAD
    paired = bool(captures) and all(len(c.values) == 1 for c in captures)
    mag = np.atleast_1d(functools.reduce(np.multiply, [np.abs(c.values[0]) for c in captures])) if paired else None
    if layer == "wigner.oracle2d":
        nodes = quad.nodes**2
        useful = int(np.count_nonzero(mag >= USEFUL_FLOOR * mag.max())) if paired else None
        return nodes, useful
    # pointwise forms take x (one row), grid forms xs; every column (xis
    # or ys) integrates the same row magnitudes against another phase
    rows = np.size(arguments["xs"]) if "xs" in arguments else 1
    columns = np.size(arguments.get("xis", arguments.get("ys", 0.0)))
    nodes = rows * columns * quad.nodes
    if not paired:
        return nodes, None
    peak = mag.max(axis=-1, keepdims=True)
    return nodes, int(np.count_nonzero(mag >= USEFUL_FLOOR * peak)) * columns


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - covered[s.sid] for s in spans}


def layer_totals(spans) -> dict[str, dict]:
    """Per layer: calls and self_s; for the oracles also nodes and the
    useful-node ratio over the calls whose useful count is known."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "nodes": 0, "_counted": 0, "_useful": 0})
    for s in spans:
        entry = totals[s.layer]
        entry["calls"] += 1
        entry["self_s"] += selfs[s.sid]
        entry["nodes"] += s.nodes
        if s.useful is not None:
            entry["_counted"] += s.nodes
            entry["_useful"] += s.useful
    out = {}
    for layer, entry in totals.items():
        counted, useful = entry.pop("_counted"), entry.pop("_useful")
        entry["useful_node_ratio"] = useful / counted if counted else 0.0
        out[layer] = entry
    return out
