"""Span tracer that lives in the benchmark, outside the program.

`Tracer.install()` replaces each target function (``"module.func"`` under
``hmvol``) with a recording wrapper in *every* ``hmvol.*`` namespace that
binds it: ``from .x import f`` copies the binding, so patching only the
defining module would miss calls between modules and misattribute self time.
`Tracer.restore()` puts the original bindings back.

Spans (name, start, end, parent) are kept in flat in-memory arrays and can
be written out with `save`.  A span's self time is its duration minus that of
its direct children; a name's inclusive time counts only spans with no
enclosing span of the same name, so re-entrant calls are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, targets, hooks=None):
        self.targets = list(targets)
        self.hooks = dict(hooks or {})
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._active = [0] * len(self.targets)
        self._saved = []

    def _wrap(self, idx, fn, hook):
        clock = time.perf_counter
        name_id, parent, outer, start, end = (self.name_id, self.parent, self.outer,
                                              self.start, self.end)
        stack, active = self._stack, self._active
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(idx)
            parent.append(stack[-1])
            outer.append(active[idx] == 0)
            end.append(0.0)
            stack.append(i)
            active[idx] += 1
            out, err = None, None
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                err = e
                raise
            finally:
                end[i] = clock()
                active[idx] -= 1
                stack.pop()
                if hook:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, out, err)

        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hmvol" or name.startswith("hmvol."))]
        for idx, target in enumerate(self.targets):
            mod_name, fn_name = target.rsplit(".", 1)
            original = getattr(sys.modules["hmvol." + mod_name], fn_name)
            wrapper = self._wrap(idx, original, self.hooks.get(target))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, original))

    def restore(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        return name_id, parent, dur

    def summary(self) -> dict:
        """Per target: calls, inclusive time_s and self_s."""
        k = len(self.targets)
        name_id, parent, dur = self._arrays()
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=np.where(outer, dur, 0.0), minlength=k)
        self_t = np.bincount(name_id, weights=dur - child_time, minlength=k)
        return {t: {"calls": int(calls[i]), "time_s": float(incl[i]), "self_s": float(self_t[i])}
                for i, t in enumerate(self.targets)}

    def save(self, path):
        np.savez(path, names=np.array(self.targets),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
