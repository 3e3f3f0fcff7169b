"""In-memory span tracer that wraps gmfs's public callables from outside.

A traced call records one span (name, start, end, parent span). Spans live
in flat arrays so that hundreds of thousands of hot-path calls (one random
stream per agent per step) stay affordable; they are written out only when
the traced run ends. Extra counters (rows ranked, random streams per tag,
value-iteration sweeps) are kept next to the spans.

Patching rebinds every module attribute that holds the original callable,
because gmfs modules import names directly (``from .rng import stream``);
patching only the defining module would miss those callers. ``restore``
puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool worker's outermost call belongs to the span the
                # submitting (main) thread is blocked in
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else -1
            sid = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_start.append(time.perf_counter())
            self.span_end.append(float("nan"))
            stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.span_end[sid] = end
            self._stacks[threading.get_ident()].pop()

    def wrap(self, fn, name: str, hook=None):
        """Return a traced version of ``fn``. ``hook(sid, args, kwargs, result)``
        runs after each call, outside the span."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hook(sid, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_everywhere(self, original, name: str, hook=None) -> None:
        """Rebind every module-level name in the gmfs package that refers to
        ``original``."""
        wrapper = self.wrap(original, name, hook)
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "gmfs" or mod_name.startswith("gmfs.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    replaced += 1
        if replaced == 0:
            raise LookupError(f"{name}: no gmfs module binds {original!r}")

    def patch_attr(self, owner, attr: str, name: str, hook=None) -> None:
        """Rebind one attribute: a method on a class, or one module's name."""
        self._set(owner, attr, self.wrap(getattr(owner, attr), name, hook))

    def patch_env_factory(self, owner, attr: str) -> None:
        """Wrap a factory returning an Environment so the returned env's
        transition and reward callables are traced."""
        factory = getattr(owner, attr)
        tracer = self

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            env = factory(*args, **kwargs)
            return dataclasses.replace(
                env,
                transition=tracer.wrap(env.transition, "env.transition"),
                reward=tracer.wrap(env.reward, "env.reward"))

        self._set(owner, attr, traced_factory)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def arrays(self, upto: int | None = None):
        """(name id, parent, start, end) arrays of the first ``upto`` spans."""
        n = len(self.span_start) if upto is None else upto
        return (np.frombuffer(self.span_name, dtype=np.int32)[:n].copy(),
                np.frombuffer(self.span_parent, dtype=np.int32)[:n].copy(),
                np.frombuffer(self.span_start, dtype=np.float64)[:n].copy(),
                np.frombuffer(self.span_end, dtype=np.float64)[:n].copy())

    def save(self, path, upto: int | None = None) -> None:
        name, parent, start, end = self.arrays(upto)
        np.savez(path, names=np.asarray(self.names), name=name, parent=parent,
                 start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover. Overlapping children are counted once; a child's interval
    is clipped to its parent's."""
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    n = start.size
    duration = end - start
    if n == 0:
        return duration
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return duration.copy()
    origin = start.min()
    width = end.max() - origin + 1.0
    p = parent[child]
    lo = np.maximum(start[child], start[p]) - origin
    hi = np.maximum(np.minimum(end[child], end[p]) - origin, lo)
    order = np.lexsort((lo, p))
    p, lo, hi = p[order], lo[order], hi[order]
    # shift each parent's children into their own band of the time axis, so
    # one running maximum over all of them never carries across parents
    group = np.cumsum(np.r_[True, p[1:] != p[:-1]]) - 1
    lo = lo + group * width
    hi = hi + group * width
    covered_to = np.r_[-np.inf, np.maximum.accumulate(hi)[:-1]]
    gain = np.maximum(0.0, hi - np.maximum(lo, covered_to))
    cover = np.bincount(p, weights=gain, minlength=n)
    return duration - cover
