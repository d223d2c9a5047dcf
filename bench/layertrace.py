"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions and methods of each spanlab
module and records, per (phase, layer, function), the call count, the
inclusive time and the self time: a call's duration minus the part covered
by the wrapped calls it made.  Aggregates are kept in memory; no span is
written while the program runs.

Two things are deliberately left unwrapped.  ``Tensor`` methods and
``concat`` are the forward ops; a step issues hundreds of them, so wrapping
them would cost more than they do, and their time belongs to the layer that
calls them (the Sinkhorn loop's ``logsumexp`` counts as Sinkhorn time).
Private helpers (leading underscore) count toward the public function that
calls them.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("tensor", "nn", "perm", "models", "train", "metrics", "tasks", "cli")

# forward ops, attributed to their callers (see the module docstring)
_UNWRAPPED = {("tensor", "Tensor"), ("tensor", "concat")}


class Tracer:
    """Aggregating span recorder.  ``phase`` is set by the caller to label
    the work under way ("train", "eval", "delta" or "other")."""

    def __init__(self):
        self.phase = "other"
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.tape_ops = Counter()
        self._stack = []  # child-time accumulators of the open spans
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer, qualname, fn, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            key = (tracer.phase, layer, qualname)
            children = [0.0]
            tracer._stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                tracer.calls[key] += 1
                tracer.inclusive[key] += duration
                tracer.self_time[key] += duration - children[0]

        return wrapper

    def _count_tape(self, args):
        """Op names on the tape at the start of a backward pass."""
        if self.phase == "train":
            self.tape_ops.update(op.name for op in args[0]._ops)

    # -- installation ------------------------------------------------------

    def install(self, modules):
        """Wrap every public function and method of ``modules`` (a dict of
        layer name -> module) and rebind each wrapped function wherever a
        spanlab module imported it by name."""
        wrapped = {}
        for layer, mod in modules.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if (layer, name) in _UNWRAPPED \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, modules)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])

    def _wrap_class(self, cls, modules):
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        for klass in cls.__mro__:
            layer = layer_of.get(klass.__module__)
            if layer is None:
                continue
            for attr, value in list(vars(klass).items()):
                if attr.startswith("_") or not inspect.isfunction(value) \
                        or getattr(value, "__wrapped__", None) is not None:
                    continue
                before = self._count_tape if (
                    klass.__name__ == "GradTape" and attr in ("gradient", "backward")
                ) else None
                qualname = f"{klass.__name__}.{attr}"
                self._set(klass, attr, self._wrap(layer, qualname, value, before))

    def _set(self, target, attr, value):
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self):
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    # -- queries -----------------------------------------------------------

    def total(self, table, phase=None, layer=None, names=None):
        """Sum of ``table`` (calls, inclusive or self_time) over matching keys;
        ``names`` matches a function name or the method part of Class.method."""
        out = 0
        for (p, lay, qualname), value in table.items():
            if phase is not None and p != phase:
                continue
            if layer is not None and lay != layer:
                continue
            if names is not None and qualname not in names \
                    and qualname.rsplit(".", 1)[-1] not in names:
                continue
            out += value
        return out
