"""In-memory span recorder for the traced benchmark run.

Spans are opened by wrappers that the benchmark installs from outside the
program: every public function of the five adamcheck modules, plus the
constructors and methods of ``RandomStream`` and ``StepRecord``, is
replaced by a recording wrapper in each module that bound its name.  No
program file is edited.

A span records its group (the layer name, e.g. ``problems.evaluate``), its
start and end on the system-wide monotonic clock, the span that caused it
and whether it ended in an exception.  A call made while the innermost open
span already belongs to the same group is counted but opens no new span,
so ``RandomStream.integers`` -> ``uniform`` -> ``raw`` is one span.

Self time is a span's duration minus the part of it that its child spans
cover; children on other threads may overlap, so coverage is the union of
the child intervals clipped to the parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

LAYERS = ("core", "optimizers", "problems", "analysis", "cli")

# Classes whose construction and methods are layers of their own.
TRACED_CLASSES = (("core", "RandomStream"), ("core", "StepRecord"))

# Per-value formatting primitive (about 3e6 calls per run-noisy repetition);
# its time stays in the self time of the caller that formats.
UNTRACED = {"fmt17"}

NO_PARENT = -1


class Tracer:
    """Collects spans and call counts; written out once, at exit."""

    def __init__(self):
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self.calls: dict[str, list[int]] = {}
        self.start = array("d")
        self.end = array("d")
        self.group = array("i")
        self.parent = array("q")
        self.failed = array("b")
        self._lock = threading.Lock()
        self._local = threading.local()

    def _group_id(self, name: str) -> int:
        if name not in self._group_ids:
            self._group_ids[name] = len(self.groups)
            self.groups.append(name)
        return self._group_ids[name]

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [(NO_PARENT, NO_PARENT)]
        return stack

    def current(self) -> int:
        """Index of the innermost open span on this thread."""
        return self._stack()[-1][1]

    def add_span(self, group: str, start: float, end: float) -> None:
        """Record a finished top-level span."""
        with self._lock:
            self.start.append(start)
            self.end.append(end)
            self.group.append(self._group_id(group))
            self.parent.append(NO_PARENT)
            self.failed.append(0)

    def wrap(self, fn, key: str, group: str):
        """Recording wrapper around fn; `key` names the call counter."""
        gid = self._group_id(group)
        cell = self.calls.setdefault(key, [0])
        clock = time.monotonic
        lock = self._lock
        starts, ends, groups, parents, failed = (
            self.start, self.end, self.group, self.parent, self.failed)
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            top_gid, top_idx = stack[-1]
            with lock:
                cell[0] += 1
                if top_gid == gid:
                    idx = -1
                else:
                    idx = len(starts)
                    starts.append(clock())
                    ends.append(0.0)
                    groups.append(gid)
                    parents.append(top_idx)
                    failed.append(0)
            if idx < 0:
                return fn(*args, **kwargs)
            stack.append((gid, idx))
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def pool_class(self):
        """ThreadPoolExecutor whose tasks keep the submitting span as parent."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    tracer._local.stack = [(NO_PARENT, parent)]
                    return fn(*args, **kwargs)

                return super().submit(task)

        return TracedPool

    def install(self, package) -> None:
        """Wrap the public functions of every layer module, in every
        adamcheck module that bound the name, plus the traced classes."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if name in UNTRACED or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self.wrap(fn, f"{layer}.{name}", f"{layer}.{name}")
                for holder in holders:
                    if holder.__dict__.get(name) is fn:
                        setattr(holder, name, traced)
        for layer, cls_name in TRACED_CLASSES:
            cls = getattr(modules[layer], cls_name)
            for attr, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                    key = f"{layer}.{cls_name}.{attr}"
                    setattr(cls, attr, self.wrap(fn, key, f"{layer}.{cls_name}"))
        modules["cli"].ThreadPoolExecutor = self.pool_class()

    def dump(self, path: Path) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            group=np.frombuffer(self.group, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
            meta=np.array(json.dumps(
                {"groups": self.groups, "calls": {k: c[0] for k, c in self.calls.items()}}
            )),
        )


def load(path: Path) -> dict:
    with np.load(path) as z:
        out = {k: z[k] for k in ("start", "end", "group", "parent", "failed")}
        out.update(json.loads(str(z["meta"])))
    return out


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent.  Within each parent, children
    sorted by start add only the part that lies beyond the furthest end
    seen so far among their earlier siblings.
    """
    n = len(start)
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    if n == 0 or len(child) == 0:
        return dur.copy()
    par = parent[child]
    s = np.maximum(start[child], start[par])
    e = np.maximum(np.minimum(end[child], end[par]), s)
    order = np.lexsort((s, par))
    par = par[order]
    # Integer nanoseconds keep the arithmetic below exact.
    t_min = s.min()
    s = np.round((s[order] - t_min) * 1e9).astype(np.int64)
    e = np.round((e[order] - t_min) * 1e9).astype(np.int64)
    # Running maximum of e that restarts at every parent: lift each
    # parent's values above all earlier parents' before accumulating.
    first = np.concatenate(([True], par[1:] != par[:-1]))
    rank = np.cumsum(first) - 1
    base = int(e.max()) + 1
    if int(rank[-1]) >= np.iinfo(np.int64).max // base:
        raise OverflowError("too many spans for exact coverage arithmetic")
    running = np.maximum.accumulate(e + rank * base) - rank * base
    prev_end = np.concatenate(([-1], running[:-1]))
    prev_end[first] = -1
    covered = np.maximum(e - np.maximum(s, prev_end), 0)
    return dur - np.bincount(par, weights=covered * 1e-9, minlength=n)
