"""Outside-in tracing of the artinpal package.

`Tracer.install` wraps every public function of every `artinpal.*` module
loaded at that moment, plus `GroupElement.key`, and rebinds every module
attribute that referred to an original, so calls between modules go
through the wrappers too.  A module added later (say `garside.py`) becomes
its own layer, named after the module, with no edit here.

A span is recorded only while `recording` is on, which the harness sets
around each timed operation; generator and checker calls into the package
are therefore never attributed to a layer.  Spans live in flat arrays in
memory (name, start, end, parent, operation id; the layer is the prefix
of the name) and are written out once, by `dump`, when the run ends.

Counters are taken at the same boundaries by small hooks that read a
call's arguments and result (`HOOKS`).
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "artinpal"
SPAN_CAP = 300_000  # spans kept for `dump`; aggregates count every span


def _is_public_function(mod, name: str, obj) -> bool:
    if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
        return False
    # lru_cache wrappers are not functions but carry __wrapped__
    target = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(target) and target.__module__ == mod.__name__


def _positive_words(args):
    return [a for a in args if type(a).__name__ == "PositiveWord"]


class Tracer:
    """Spans and counters of one traced run.

    Self and inclusive times are aggregated as spans close, so they are
    exact however many spans there are; only the first SPAN_CAP spans are
    kept for `dump` (`dropped` counts the rest).  `root_s` is the time
    inside outermost spans, summed apart from the per-layer self times,
    which must add up to it.
    """

    def __init__(self):
        self.recording = False
        self.op_id = -1
        self.names: list[str] = []  # "layer.function"
        self.self_s: list[float] = []  # per name id
        self.total_s: list[float] = []  # outermost spans only, so recursion counts once
        self.calls: list[int] = []
        self.root_s = 0.0
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")  # index of the enclosing stored span, -1 at a root
        self.span_op = array("i")
        self.dropped = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []  # open spans: [name id, child time, stored index]
        self._depth: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and n.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if _is_public_function(mod, name, obj):
                    qual = f"{layer}.{name}"
                    self.originals[qual] = obj
                    wrappers[id(obj)] = self._wrap(qual, obj)
        for mod in [sys.modules[PACKAGE], *modules]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        group_element = sys.modules[PACKAGE + ".group"].GroupElement
        key = group_element.key
        self.originals["group.key"] = key
        self._patched.append((group_element, "key", key))
        group_element.key = self._wrap("group.key", key)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._patched):
            setattr(owner, name, obj)
        self._patched.clear()

    def _wrap(self, qual: str, fn):
        name_id = len(self.names)
        self.names.append(qual)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self.calls.append(0)
        self._depth.append(0)
        hook = HOOKS.get(qual) or (LETTERS_IN if qual.startswith("monoid.") else None)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            before = hook.before(tracer, args) if hook else None
            index = tracer._open(name_id, parent)
            frame = [name_id, 0.0, index]
            stack.append(frame)
            tracer._depth[name_id] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._depth[name_id] -= 1
                tracer._close(frame, parent, start, end)
            if hook:
                hook.after(tracer, args, result, before, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qual)
        return traced

    def _open(self, name_id: int, parent) -> int:
        if len(self.span_name) >= SPAN_CAP:
            self.dropped += 1
            return -1
        self.span_name.append(name_id)
        self.span_parent.append(parent[2] if parent is not None else -1)
        self.span_op.append(self.op_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return len(self.span_name) - 1

    def _close(self, frame, parent, start: float, end: float) -> None:
        name_id, child, index = frame
        duration = end - start
        self.self_s[name_id] += duration - child
        self.calls[name_id] += 1
        if self._depth[name_id] == 0:
            self.total_s[name_id] += duration
        if parent is not None:
            parent[1] += duration
        else:
            self.root_s += duration
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end

    # -- results -----------------------------------------------------------

    def layer_of(self, name_id: int) -> str:
        return self.names[name_id].split(".", 1)[0]

    def summary(self) -> dict:
        """Per layer: self time and calls; per function: self time,
        inclusive time and calls."""
        layers: dict[str, dict] = {}
        funcs: dict[str, dict] = {}
        for name_id, qual in enumerate(self.names):
            if not self.calls[name_id]:
                continue
            funcs[qual] = {"self_s": self.self_s[name_id],
                           "total_s": self.total_s[name_id],
                           "calls": self.calls[name_id]}
            layer = layers.setdefault(self.layer_of(name_id), {"self_s": 0.0, "calls": 0})
            layer["self_s"] += self.self_s[name_id]
            layer["calls"] += self.calls[name_id]
        return {"layers": layers, "functions": funcs, "counts": dict(self.counts),
                "root_s": self.root_s, "spans": len(self.span_name),
                "spans_dropped": self.dropped}

    def dump(self, path) -> None:
        """Write the stored spans, as parallel arrays, to a gzip'd JSON file."""
        record = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "dropped": self.dropped,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(record, fh)


# ---------------------------------------------------------------------------
# counters read at layer boundaries


class Hook:
    def before(self, tracer, args):
        return None

    def after(self, tracer, args, result, before, parent):
        pass


class LettersIn(Hook):
    """monoid.letters_in: letters of the words handed to the monoid layer
    from outside it (nested monoid calls are not counted again)."""

    def after(self, tracer, args, result, before, parent):
        if parent is not None and tracer.layer_of(parent[0]) == "monoid":
            return
        tracer.counts["monoid.letters_in"] += sum(len(w) for w in _positive_words(args))


class Count(Hook):
    def __init__(self, key, measure):
        self.key, self.measure = key, measure

    def after(self, tracer, args, result, before, parent):
        tracer.counts[self.key] += self.measure(args, result)


class MagnusImage(Hook):
    def after(self, tracer, args, result, before, parent):
        tracer.counts["orderings.magnus_terms"] += len(result.coeffs)
        key = "orderings.magnus_degree_max"
        tracer.counts[key] = max(tracer.counts[key], args[1])


class ClassOf(Hook):
    """class_of is an lru_cache: a call that raised the miss count built a
    class, whose members are counted."""

    def before(self, tracer, args):
        return tracer.originals["oracle.class_of"].cache_info().misses

    def after(self, tracer, args, result, before, parent):
        if tracer.originals["oracle.class_of"].cache_info().misses > before:
            tracer.counts["oracle.class_members"] += len(result.members)


LETTERS_IN = LettersIn()  # on every monoid function
HOOKS: dict[str, Hook] = {
    # make(matrix, k, p) strips Delta^2 while it can: k in minus k out
    "group.make": Count("group.delta2_strips", lambda args, result: args[1] - result.k),
    "weyl.enumerate_group": Count("weyl.enumerate_group.elements",
                                  lambda args, result: len(result)),
    "palindromes.core_decompositions": Count("palindromes.candidates",
                                             lambda args, result: len(result)),
    "orderings.reduce_handles": Count("orderings.handle_steps",
                                      lambda args, result: result[1]),
    "orderings.magnus_image": MagnusImage(),
    "oracle.class_of": ClassOf(),
}
