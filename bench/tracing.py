"""Outside-in tracing of the interpreter's layers.

Nothing here changes the package: the wrappers replace module globals
and class attributes of an imported ``rholog``, under the names their
callers look them up by (``engine.match_hedge`` is the matcher as the
engine calls it). A name that a later version no longer has is skipped
and left out of ``installed``.

Two tracers run in separate processes:

* ``SpanTracer`` records a span per call at the layer boundaries the
  engine and the CLI cross, timing generators per ``next()``. Spans stay
  in memory and are summarised (busy and self time) at the end.
* ``CountTracer`` counts work at every call site, including recursive
  calls inside ``terms``. Its wrappers sit on million-call functions, so
  its timings are not used.
"""

from __future__ import annotations

import array
import importlib
import json
from time import perf_counter

MODULES = ("cli", "engine", "matching", "terms", "proximity", "printer",
           "parser", "program")

# (caller module, name, layer) for the timing pass. Calls inside a layer
# (for example Subst.bind from the matcher) are part of that layer's time.
SPAN_SITES = [
    ("cli", "parse_program", "parser"),
    ("cli", "parse_query", "parser"),
    ("cli", "parse_proximity_decls", "parser"),
    ("cli", "load_program", "engine.load"),
    ("cli", "solve", "engine.solve"),
    ("cli", "render_answer", "printer"),
    ("engine", "match_hedge", "matching"),
    ("engine", "scored_match_hedge", "matching.scored"),
    ("engine", "apply_to_literal", "terms.subst"),
    ("engine", "hole_count", "terms.check"),
    ("engine", "is_ground", "terms.check"),
    ("engine", "render_literal", "printer.trace_format"),
    ("engine", "render_clause", "printer.trace_format"),
]
SPAN_METHODS = [
    ("terms", "Subst", name, "terms.subst")
    for name in ("apply_term", "apply_hedge", "apply_head", "apply_binding",
                 "compose", "restrict")
]
GENERATOR_LAYERS = {"engine.solve", "matching", "matching.scored"}


def load_modules():
    return {name: importlib.import_module(f"rholog.{name}") for name in MODULES}


def _rebind(modules, owner, name, make_wrapper, installed, callers=None):
    """Wrap ``owner.name`` wherever a module binds that same object."""
    original = getattr(modules[owner], name, None)
    if original is None:
        return
    for mod_name, mod in modules.items():
        if callers is not None and mod_name not in callers:
            continue
        if getattr(mod, name, None) is original:
            setattr(mod, name, make_wrapper(original))
            installed.append(f"{mod_name}.{name}")


class SpanTracer:
    """Spans as parallel arrays: layer id, parent index, query id, start, end."""

    def __init__(self):
        self.layers = []
        self.layer_id = {}
        self.layer = array.array("i")
        self.parent = array.array("i")
        self.query = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = []  # open span indices
        self.query_id = -1
        self.installed = []

    def _id(self, layer):
        if layer not in self.layer_id:
            self.layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return self.layer_id[layer]

    def _open(self, lid):
        n = len(self.start)
        self.layer.append(lid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self.stack.append(n)
        self.start.append(perf_counter())
        return n

    def _close(self, n):
        self.end[n] = perf_counter()
        self.stack.pop()

    def _same_layer_open(self, lid):
        return self.stack and self.layer[self.stack[-1]] == lid

    def call_wrapper(self, layer):
        lid = self._id(layer)

        def make(original):
            def wrapper(*args, **kwargs):
                if self._same_layer_open(lid):
                    return original(*args, **kwargs)
                n = self._open(lid)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(n)
            return wrapper
        return make

    def iter_wrapper(self, layer):
        lid = self._id(layer)
        tracer = self

        class Timed:
            __slots__ = ("inner",)

            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                n = tracer._open(lid)
                try:
                    return next(self.inner)
                finally:
                    tracer._close(n)

        def make(original):
            def wrapper(*args, **kwargs):
                return Timed(original(*args, **kwargs))
            return wrapper
        return make

    def install(self, modules):
        for caller, name, layer in SPAN_SITES:
            make = (self.iter_wrapper(layer) if layer in GENERATOR_LAYERS
                    else self.call_wrapper(layer))
            owner = _owner(modules, caller, name)
            if owner is not None:
                _rebind(modules, owner, name, make, self.installed, {caller})
        for owner, cls_name, name, layer in SPAN_METHODS:
            cls = getattr(modules[owner], cls_name, None)
            original = getattr(cls, name, None) if cls is not None else None
            if original is None:
                continue
            setattr(cls, name, self.call_wrapper(layer)(original))
            self.installed.append(f"{owner}.{cls_name}.{name}")

    def summary(self):
        """Busy time per layer (outermost spans of each layer), the time of
        matching and terms spans directly under engine.solve spans (what
        engine.self_s leaves out), and the number of spans."""
        busy = dict.fromkeys(self.layers, 0.0)
        solve_id = self.layer_id.get("engine.solve")
        under_solve = 0.0
        for i in range(len(self.start)):
            d = self.end[i] - self.start[i]
            layer = self.layers[self.layer[i]]
            p = self.parent[i]
            if p < 0 or self.layer[p] != self.layer[i]:
                busy[layer] += d
            if p >= 0 and self.layer[p] == solve_id and layer.split(".")[0] in (
                    "matching", "terms"):
                under_solve += d
        return busy, under_solve, len(self.start)

    def dump(self, path):
        """Write every span as one JSON object of columns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "layers": self.layers,
                "layer": self.layer.tolist(),
                "parent": self.parent.tolist(),
                "query": self.query.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            }, fh)


def _owner(modules, caller, name):
    """The module that defines the object ``caller.name`` refers to."""
    obj = getattr(modules[caller], name, None)
    if obj is None:
        return None
    owner = getattr(obj, "__module__", "") or ""
    short = owner.rsplit(".", 1)[-1]
    return short if short in modules else None


class CountTracer:
    """Counters that depend only on the inputs, never on the machine."""

    def __init__(self):
        self.counts = {}
        self.installed = []

    def _bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self, modules):
        counts = self.counts

        def calls(key):
            def make(original):
                def wrapper(*args, **kwargs):
                    counts[key] = counts.get(key, 0) + 1
                    return original(*args, **kwargs)
                return wrapper
            return make

        # every module that binds the function, so recursion is counted too
        _rebind(modules, "terms", "hole_count", calls("terms.hole_count_visits"),
                self.installed)
        _rebind(modules, "terms", "apply_context", calls("terms.apply_context_calls"),
                self.installed)
        for name in ("parse_program", "parse_query", "parse_proximity_decls"):
            _rebind(modules, "parser", name, calls("parser.calls"), self.installed,
                    {"cli"})
        for name in ("render_literal", "render_clause"):
            _rebind(modules, "printer", name, calls("printer.trace_format_calls"),
                    self.installed, {"engine"})

        def contexts(original):
            # Only outermost calls count; ``depth`` also covers pulling items
            # from a lazy result, during which nested calls happen.
            depth = [0]

            def pull(inner):
                while True:
                    depth[0] += 1
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        depth[0] -= 1
                    self._bump("terms.contexts_built")
                    yield item

            def wrapper(*args, **kwargs):
                outermost = depth[0] == 0
                depth[0] += 1
                try:
                    result = original(*args, **kwargs)
                finally:
                    depth[0] -= 1
                if not outermost:
                    return result
                if isinstance(result, (list, tuple)):
                    self._bump("terms.contexts_built", len(result))
                    return result
                return pull(iter(result))
            return wrapper

        _rebind(modules, "matching", "enumerate_contexts", contexts, self.installed)

        def matcher(original):
            def wrapper(*args, **kwargs):
                self._bump("engine.match_calls")
                return self._match_iter(original(*args, **kwargs))
            return wrapper

        for name in ("match_hedge", "scored_match_hedge"):
            _rebind(modules, "matching", name, matcher, self.installed, {"engine"})

        def chars(original):
            def wrapper(*args, **kwargs):
                text = original(*args, **kwargs)
                self._bump("printer.chars", len(text))
                return text
            return wrapper

        _rebind(modules, "printer", "render_answer", chars, self.installed, {"cli"})

        for owner, cls_name, name, key in (
            ("terms", "Subst", "bind", "terms.bind_calls"),
            ("proximity", "ProximityRelation", "degree", "proximity.degree_calls"),
        ):
            cls = getattr(modules[owner], cls_name, None)
            original = getattr(cls, name, None) if cls is not None else None
            if original is not None:
                setattr(cls, name, calls(key)(original))
                self.installed.append(f"{owner}.{cls_name}.{name}")

    def _match_iter(self, inner):
        hit = False
        for item in inner:
            self._bump("matching.yielded")
            if not hit:
                hit = True
                self._bump("engine.match_hits")
            yield item
