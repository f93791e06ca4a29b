"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the `cogal` modules from
the outside: nothing inside `src/cogal/` is changed. A wrapped call records
one span (layer, start, end, parent span). Modules such as `cogal.checker`
and `cogal.harness` import functions by name, so a function is replaced in
every `cogal` module attribute that binds it, not only where it is defined.
Spans stay in memory, in flat arrays, until the run ends.

A layer's self time is the duration of its spans minus the time their child
spans cover. Wrapper overhead of a child span therefore lands in its parent's
self time; the untraced run gives the end-to-end figures.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (layer, defining module, function, modules to patch or None for all).
# `formula.binding` is the check in `Evaluator.eval`/`extension` that the
# formula's agents and atoms are declared by the model; other callers of
# `atoms`/`agents_of` are not part of that layer.
FUNCTIONS = (
    ("formula.binding", "cogal.formula", "atoms", ("cogal.checker",)),
    ("formula.binding", "cogal.formula", "agents_of", ("cogal.checker",)),
    ("formula.parse", "cogal.formula", "parse", None),
    ("model.contract", "cogal.model", "bisim_contract", None),
    ("model.realize", "cogal.model", "realize_choice", None),
    ("translate.translate", "cogal.translate", "translate", None),
    ("harness.random_model", "cogal.harness", "random_model", None),
    ("harness.driver", "cogal.harness", "axiom_suite", None),
    ("harness.driver", "cogal.harness", "find_countermodel", None),
)

# (layer, defining module, class, method). Patching the class reaches every
# caller, whatever name it imported the class under.
METHODS = (
    ("model.construct", "cogal.model", "KripkeModel", "__init__"),
    ("model.update", "cogal.model", "KripkeModel", "update"),
    ("checker.evaluator", "cogal.checker", "Evaluator", "__init__"),
    ("checker.eval", "cogal.checker", "Evaluator", "eval"),
    ("checker.check", "cogal.checker", "Evaluator", "check"),
    ("checker.extension", "cogal.checker", "Evaluator", "extension"),
)

ROOT = "bench"
LAYERS = (ROOT,) + tuple(dict.fromkeys(
    [layer for layer, *_ in FUNCTIONS] + [layer for layer, *_ in METHODS]))


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []
        self.contractions_noop = 0
        self.enumerated_models = 0

    # -- recording ----------------------------------------------------------

    def wrap(self, layer: str, fn):
        """Callable that records one span of the layer around each call."""
        lid = self.layer_ids[layer]
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def call(self, body):
        """Run `body()` inside a span of the benchmark's own code."""
        return self.wrap(ROOT, body)()

    # -- patching -------------------------------------------------------------

    def _replace(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement, only=None):
        """Rebind `original` to `replacement` in every cogal module."""
        for name, module in list(sys.modules.items()):
            if name != "cogal" and not name.startswith("cogal."):
                continue
            if only is not None and name not in only:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, replacement)

    def install(self):
        """Patch the layers' entry points. The cogal modules must be imported."""
        for layer, module, attr, only in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(layer, original)
            if attr == "bisim_contract":
                wrapped = self._count_noops(wrapped)
            self._patch_everywhere(original, wrapped, only)
        for layer, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._replace(cls, attr, self.wrap(layer, cls.__dict__[attr]))
        harness = sys.modules["cogal.harness"]
        self._patch_everywhere(harness.enumerate_models,
                               self._count_models(harness.enumerate_models))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _count_noops(self, contract):
        def counted(model):
            result = contract(model)
            if len(result.contracted.states) == len(model.states):
                self.contractions_noop += 1
            return result

        return counted

    def _count_models(self, enumerate_models):
        def counted(*args, **kwargs):
            for model in enumerate_models(*args, **kwargs):
                self.enumerated_models += 1
                yield model

        return counted

    # -- results ----------------------------------------------------------------

    def layer_totals(self, first: int = 0, last=None) -> dict:
        """Per layer: number of spans and summed self time in seconds, over
        the spans recorded from index `first` up to `last`."""
        return layer_totals(self.layer, self.parent, self.start, self.end,
                            first, last)

    def write(self, path) -> None:
        """Write every span as gzipped CSV: span, layer, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            out.write("span,layer,start,end,parent\n")
            for i, (lid, s, e, p) in enumerate(zip(self.layer, self.start,
                                                  self.end, self.parent)):
                out.write(f"{i},{LAYERS[lid]},{s!r},{e!r},{p}\n")


def layer_totals(layers, parents, starts, ends, first=0, last=None) -> dict:
    """Self time per layer from a span tree given as flat arrays, counting
    the spans with index in [first, last).

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    calls = [0] * len(LAYERS)
    self_s = [0.0] * len(LAYERS)
    for i in range(first, len(starts) if last is None else last):
        calls[layers[i]] += 1
        self_s[layers[i]] += ends[i] - starts[i] - child[i]
    return {name: (calls[i], self_s[i]) for i, name in enumerate(LAYERS)}
