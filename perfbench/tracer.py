"""Function-level spans recorded from outside the redukt package.

Tracer.install() wraps redukt.cli.main and every public module-level
function of strings, redgraph, pcgraph, flips and rules, and puts each
wrapper into every redukt module namespace that binds the original
function object.  Calls between modules (flips -> redgraph) and within
one module (rules._negative -> strings.is_positive) therefore pass
through the wrappers.  uninstall() puts the originals back.

Each call records one span: name, start, end, parent span and the
operation it belongs to.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

MODULES = ("cli", "strings", "redgraph", "pcgraph", "flips", "rules")


class Tracer:
    """Build after redukt.cli is imported; install() and uninstall() swap
    the wrappers in and out, reset() drops the recorded spans."""

    def __init__(self):
        self.names: list = []  # span name id -> "module.function"
        self.op = 0  # index of the operation now running
        self.reset()
        self._stack = [-1]  # open spans; -1 stands for "no parent"
        self._wrappers: dict = {}
        originals = {}
        for short in MODULES:
            mod = sys.modules[f"redukt.{short}"]
            for attr, obj in vars(mod).items():
                public = attr == "main" if short == "cli" else not attr.startswith("_")
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = obj
                    self.names.append(f"{short}.{attr}")
                    self._wrappers[id(obj)] = self._wrap(len(self.names) - 1, obj)
        # every binding of a wrapped function object in any redukt namespace
        self._bindings = [
            (mod, attr, obj)
            for modname, mod in sys.modules.items()
            if modname == "redukt" or modname.startswith("redukt.")
            for attr, obj in vars(mod).items()
            if originals.get(id(obj)) is obj
        ]

    def reset(self) -> None:
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")

    def _wrap(self, name_id: int, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1])
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for mod, attr, obj in self._bindings:
            setattr(mod, attr, self._wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in self._bindings:
            setattr(mod, attr, obj)

    def summary(self, per_call: set, scales: list) -> dict:
        """Per function name: calls, total self seconds and, for names in
        per_call, (op, inclusive seconds) of every call.  Times of
        operation i are multiplied by scales[i]."""
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * scales[self.op_of[i]] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: {"calls": 0, "self": 0.0, "per_call": []} for name in self.names}
        for i in range(n):
            name = self.names[self.name_of[i]]
            rec = out[name]
            rec["calls"] += 1
            rec["self"] += dur[i] - child[i]
            if name in per_call:
                rec["per_call"].append((self.op_of[i], dur[i]))
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Calls of child_name made directly from parent_name."""
        p, c = self.names.index(parent_name), self.names.index(child_name)
        return sum(
            1
            for i in range(len(self.start))
            if self.name_of[i] == c and self.parent[i] >= 0 and self.name_of[self.parent[i]] == p
        )
