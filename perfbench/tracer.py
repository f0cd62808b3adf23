"""Per-layer call tracing for cliffsde, installed from outside the package.

A :class:`Tracer` wraps every module-level function and every public class
of the layer modules, records call counts, total time and self time per
wrapped callable, and puts the original bindings back when it ends.

The modules import each other by name (``from .element import lp_norm``),
so replacing the binding in the defining module is not enough: the wrapper
replaces every binding of the original function object in every module of
the package, and every value of a module-level dict (the registries, such
as ``problems.PROBLEMS`` or ``experiments._SUITE_RUNNERS``).  Classes are
shared objects, so their methods are patched once, on the class.

Span names are ``<layer>.<function>`` for functions and
``<layer>.<Class>`` for the class's entry point: its ``__call__`` when the
class defines one (coefficient maps, moduli: calls are evaluations),
otherwise its ``__init__`` (calls are constructions).  Public methods,
class methods, static methods and arithmetic operators (``__add__``,
``__matmul__``, ...) are ``<layer>.<Class>.<method>``.  Other private
methods are not wrapped: their time counts as the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "cliffsde"
#: The package's layers, in dependency order.
LAYERS = ("grid", "space", "element", "process", "integrals", "modulus",
          "coefficients", "solver", "problems", "experiments", "config",
          "cli")
_UNCALLED = (0, 0.0, 0.0, 0)
#: Operator methods wrapped as spans of their class, so that the work of
#: ``x + y`` or ``a @ b`` counts towards the class's layer.
OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__matmul__", "__rmatmul__", "__truediv__", "__rtruediv__", "__pow__",
    "__neg__", "__pos__", "__abs__"})


class Tracer:
    """Context manager that traces calls into the layer modules.

    ``classifiers`` maps a span name to a function of the call's arguments
    returning a label; each call then also counts towards
    ``counts["<span>.<label>"]``.
    """

    def __init__(self, classifiers=None):
        self.classifiers = dict(classifiers or {})
        #: span name -> [calls, total_s, self_s, active depth]
        self.spans = {}
        self.counts = {}
        self._stack = []
        self._undo = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading: a span that was never wrapped reads as never called ---------

    def calls(self, span: str) -> int:
        return self.spans.get(span, _UNCALLED)[0]

    def total_s(self, span: str) -> float:
        return self.spans.get(span, _UNCALLED)[1]

    def self_s(self, span: str) -> float:
        return self.spans.get(span, _UNCALLED)[2]

    def layer_self_s(self, layer: str) -> float:
        """Self time summed over every span of one layer."""
        prefix = layer + "."
        return sum(s[2] for name, s in self.spans.items()
                   if name.startswith(prefix))

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    def _install(self) -> None:
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    if id(obj) not in wrapped:
                        span = f"{layer}.{obj.__qualname__}"
                        wrapped[id(obj)] = (obj, self._wrap(span, obj))
                elif isinstance(obj, type) and not name.startswith("_"):
                    self._wrap_class(f"{layer}.{name}", obj)

        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if name.startswith("__"):
                    continue
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        self._rebind(obj, key, value, wrapped)
                else:
                    self._rebind(namespace, name, obj, wrapped)

    def _rebind(self, container: dict, key, obj, wrapped) -> None:
        hit = wrapped.get(id(obj))
        if hit is not None and hit[0] is obj:
            self._undo.append((container.__setitem__, key, obj))
            container[key] = hit[1]

    def _wrap_class(self, span: str, cls: type) -> None:
        entry = "__call__" if "__call__" in vars(cls) else "__init__"
        for attr, raw in list(vars(cls).items()):
            if attr == entry:
                name = span
            elif attr.startswith("_") and attr not in OPERATORS:
                continue
            else:
                name = f"{span}.{attr}"
            if isinstance(raw, types.FunctionType):
                new = self._wrap(name, raw)
            elif isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            else:
                continue
            self._undo.append(
                (functools.partial(setattr, cls), attr, raw))
            setattr(cls, attr, new)

    def restore(self) -> None:
        """Put back every binding replaced by :meth:`install`."""
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, span: str, fn):
        stat = self.spans.setdefault(span, [0, 0.0, 0.0, 0])
        stack = self._stack
        counts = self.counts
        classify = self.classifiers.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if classify is not None:
                key = f"{span}.{classify(*args, **kwargs)}"
                counts[key] = counts.get(key, 0) + 1
            stat[0] += 1
            stat[3] += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[2] += elapsed - children[0]
                stat[3] -= 1
                if stat[3] == 0:
                    # recursive re-entry is already inside the outer call
                    stat[1] += elapsed

        return traced
