"""Layer spans recorded from outside the program.

A Tracer replaces every binding of modcurve's public callables, in every
modcurve module that holds one, by a wrapper, and wraps the arithmetic
methods of the exact-number classes.  A call opens a span only when it
crosses from one layer (module) into another; calls within a layer are
counted but stay inside the caller's span, which keeps the span log small
and the overhead bounded.  Spans carry name, parent, start and end; they
stay in memory until the pass ends, then get written out.

A layer's self time is the duration of its spans minus the part covered
by their direct child spans, which always belong to other layers.
"""

from __future__ import annotations

import time

LAYERS = ("arith", "psl", "cusps", "genus", "equation", "curve", "canonical",
          "poly", "golden", "cli")

# methods of the exact-number classes that carry their arithmetic
ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__", "__pow__", "__eq__", "__call__",
                 "divexact", "subs", "subs_a")

OFF = None  # top of the layer stack outside an operation: nothing recorded


class Tracer:
    """Span log and counters for one pass."""

    def __init__(self):
        self.layer_stack: list = [OFF]
        self.span_stack: list[int] = [-1]
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.calls: dict[str, list[int]] = {}
        self.sums: dict[str, int] = {}
        self.levels: set[int] = set()

    # -- operation roots ---------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.names.append(f"bench.{kind}")
        self.parents.append(-1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.span_stack.append(len(self.starts) - 1)
        self.layer_stack.append("bench")

    def end_op(self) -> None:
        self.ends[self.span_stack.pop()] = time.perf_counter_ns()
        self.layer_stack.pop()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, layer: str, qualname: str, hook=None):
        count = self.calls.setdefault(qualname, [0])
        layer_stack, span_stack = self.layer_stack, self.span_stack
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            top = layer_stack[-1]
            if top is OFF:
                return fn(*args, **kwargs)
            count[0] += 1
            if top == layer:
                result = fn(*args, **kwargs)
            else:
                i = len(starts)
                names.append(qualname)
                parents.append(span_stack[-1])
                ends.append(0)
                layer_stack.append(layer)
                span_stack.append(i)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    layer_stack.pop()
                    span_stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self, modules, classes, hooks: dict) -> None:
        """Wrap every public modcurve callable bound in `modules` and the
        arithmetic methods of `classes`; one wrapper per original object, so
        all bindings of a name share its counter."""
        wrappers: dict[int, object] = {}

        def wrapped(fn, layer, qualname):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, layer, qualname, hooks.get(qualname))
            return wrappers[id(fn)]

        for mod in modules:
            for name, value in list(vars(mod).items()):
                home = getattr(value, "__module__", None) or ""
                if (name.startswith("_") or isinstance(value, type)
                        or not callable(value) or not home.startswith("modcurve.")):
                    continue
                layer = home.rsplit(".", 1)[1]
                setattr(mod, name, wrapped(value, layer, f"{layer}.{value.__name__}"))
        for cls in classes:
            layer = cls.__module__.rsplit(".", 1)[1]
            for name in ARITH_METHODS:
                fn = cls.__dict__.get(name)
                if fn is not None:
                    setattr(cls, name, wrapped(fn, layer, f"{layer}.{cls.__name__}.{fn.__name__}"))

    # -- results -----------------------------------------------------------

    def count(self, qualname: str) -> int:
        return self.calls.get(qualname, [0])[0]

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (spans, self seconds), over every span of the pass."""
        n = len(self.starts)
        covered = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        totals = {layer: [0, 0] for layer in LAYERS + ("bench",)}
        for i in range(n):
            entry = totals[self.names[i].split(".", 1)[0]]
            entry[0] += 1
            entry[1] += self.ends[i] - self.starts[i] - covered[i]
        return {layer: (spans, ns / 1e9) for layer, (spans, ns) in totals.items()}

    def write(self, path: str) -> None:
        """One line per span: id, parent, operation, name, start, end (ns)."""
        op_of = [0] * len(self.starts)
        op = -1
        with open(path, "w") as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i, (name, parent) in enumerate(zip(self.names, self.parents)):
                if parent < 0:
                    op += 1
                    op_of[i] = op
                else:
                    op_of[i] = op_of[parent]
                out.write(f"{i}\t{parent}\t{op_of[i]}\t{name}\t"
                          f"{self.starts[i]}\t{self.ends[i]}\n")
