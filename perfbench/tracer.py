"""Span tracer that wraps the library's public functions from outside.

``Tracer.discover`` finds every module attribute of the ``ncd_moduli``
package that holds one of its public functions, including the re-exports and
``from x import f`` copies (``levelsys.contraction``,
``maptype.solve_power_system``, ``exactnum.rref``), and prepares one wrapper
per function.  ``install`` rebinds all of them, so nested calls are spans
too; ``uninstall`` puts the originals back.  No library file changes.

Spans live in memory as ``[name, parent, op, t0, t1]``, plus any tags a
hook appends, and are written out once, at the end of the run.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
import types
from typing import Any, Callable, Iterable, Optional

PKG = "ncd_moduli"

# Public methods that a per-layer metric reads.  Other methods, accessors and
# arithmetic operators stay unwrapped: they run per element, and a span each
# would swamp the trace.
METHODS = {
    "ncd_moduli.levelsys": {"LevelSystem": ("rows",)},
    "ncd_moduli.exactnum.values": {"ExactNonzeroComplex": ("from_rational",)},
    "ncd_moduli.building": {"LevelBuilding": ("piece_classes",)},
}


# Public helpers called once per value built; a span each would swamp the
# trace (millions per round on exact-lattice) and they hold no layer's work.
EXCLUDE = {"exactnum.values.as_rational"}


def span_name(fn) -> str:
    return f"{fn.__module__[len(PKG) + 1:]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.op = -1  # index of the operation being traced
        self.installed = False
        # span name -> hook(result, span), run after the call returns
        self.hooks: dict[str, Callable[[Any, list], None]] = {}

    def _wrap(self, fn, name: str):
        spans, stack, hooks = self.spans, self._stack, self.hooks
        tracer = self

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, tracer.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            hook = hooks.get(name)
            if hook is not None:
                hook(result, span)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def discover(self) -> None:
        wrappers: dict[int, Any] = {}
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == PKG or modname.startswith(PKG + ".")):
                continue
            for attr, value in sorted(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith(PKG)
                    and not attr.startswith("_")
                    and value.__name__.isidentifier()
                    and not value.__name__.startswith("_")
                    and span_name(value) not in EXCLUDE
                ):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value, span_name(value))
                    self._patches.append((mod, attr, value, wrappers[id(value)]))
        for modname, classes in METHODS.items():
            mod = sys.modules[modname]
            for clsname, names in classes.items():
                cls = getattr(mod, clsname)
                for meth in names:
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, span_name(raw.__func__)))
                    else:
                        wrapped = self._wrap(raw, span_name(raw))
                    self._patches.append((cls, meth, raw, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.installed = False

    @property
    def rebound(self) -> int:
        """How many attributes ``install`` rebinds."""
        return len(self._patches)

    # -- aggregation -------------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child[span[1]] += span[4] - span[3]
        return [span[4] - span[3] - c for span, c in zip(self.spans, child)]

    def totals(self, ops: Optional[set[int]] = None, tag: Optional[str] = None) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds), over the spans of the given ops
        that carry the given tag."""
        out: dict[str, tuple[int, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            if (ops is not None and span[2] not in ops) or (tag is not None and tag not in span[5:]):
                continue
            calls, total = out.get(span[0], (0, 0.0))
            out[span[0]] = (calls + 1, total + self_s)
        return out

    def write(self, path: str, ops_meta: list[dict]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"ops": ops_meta}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class BranchCounter:
    """Counts torsion branches that ``solve_power_system`` materialises and
    the branches its caller then reads from ``solutions``.

    Installed as the hook of the ``solve_power_system`` span: a tuple result
    is replaced by a tuple that counts indexing and iteration.  A result that
    is already lazy counts each branch as built and read when it is yielded.
    Only reads made while the tracer is installed count, so the benchmark's
    own checks of an operation's output do not.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.built = 0
        self.read = 0

    def count(self, built: int, read: int) -> None:
        if self.tracer.installed:
            self.built += built
            self.read += read

    def __call__(self, result, span) -> None:
        sols = getattr(result, "solutions", None)
        if sols is None:
            return
        if isinstance(sols, tuple):
            self.count(len(sols), 0)
            counted = _CountingTuple(sols)
        else:
            counted = _CountingIterable(sols)
        counted.counter = self
        try:
            object.__setattr__(result, "solutions", counted)
        except (AttributeError, TypeError):
            pass


class _CountingTuple(tuple):
    counter: BranchCounter

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.counter.count(0, len(item) if isinstance(index, slice) else 1)
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.counter.count(0, 1)
            yield item


class _CountingIterable:
    counter: BranchCounter

    def __init__(self, inner: Iterable):
        self._inner = inner

    def __iter__(self):
        for item in self._inner:
            self.counter.count(1, 1)
            yield item
