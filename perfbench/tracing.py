"""In-memory span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`instrumented`
replaces, for the duration of a ``with`` block, the public functions of the
library modules with wrappers that open a span around each call, in every
module that imported them, so that a call is traced exactly as its caller
sees it.  Generator functions get one span per ``next()``.  Nothing in the
library changes on disk, and every patch is undone when the block ends.

A span is (name, parent span, operation id, start, end).  The operation id
is that of the benchmark operation (one verifier call, one CLI command) that
the span ran under.  Spans live in flat arrays, so a run of about a million
spans stays near 30 MB, and are written out once at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "rainbow_cliques"
# `turan` is closed-form integer arithmetic on no blocking step above 1%,
# so it is deliberately left unwrapped.
LAYERS = ("graph", "search", "constructions", "partitions", "verify", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.op_meta: dict = {}
        self.op_kinds: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, kind: str, meta: dict) -> int:
        """Open the root span of one benchmark operation."""
        self.op_id = len(self.op_kinds)
        self.op_kinds.append(kind)
        self.op_meta = meta
        return self.begin("op." + kind)

    def write(self, path: Path, **info) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            op_kinds=np.array(self.op_kinds),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            **{k: np.array(v) for k, v in info.items()},
        )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its direct children
    cover.  Grandchildren lie inside their own parent, so they are not
    subtracted twice; overlapping or touching children are merged."""
    covered = [0.0] * len(start)
    reach: dict[int, float] = {}  # parent -> latest end among children seen
    for i in sorted(range(len(start)), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, start[p]), end[i])
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


# -- counters taken where the work happens ---------------------------------


def _parse_bytes(tr: Tracer, args, result) -> None:
    tr.counters["graph.parse_ecg.bytes"] += len(args[0])


def _cliques(tr: Tracer, args, result) -> None:
    tr.counters["search.count_rainbow_cliques.cliques"] += result


def _k6_space(tr: Tracer, args, report) -> None:
    tr.counters["verify.verify_k6_dichotomy.space"] += report.space_size


def _useful_rgs(tr: Tracer, args, rgs) -> None:
    # only the triangle verifier enumerates all partitions; an RGS is useful
    # when its coloring reaches that verifier's threshold m + c >= C(n,2) + n
    n = tr.op_meta.get("n")
    if n is not None and args[0] + (max(rgs) + 1 if rgs else 0) >= n * (n - 1) // 2 + n:
        tr.counters["partitions.iter_all_partitions.useful"] += 1


RESULT_HOOKS = {
    "graph.parse_ecg": _parse_bytes,
    "search.count_rainbow_cliques": _cliques,
    "verify.verify_k6_dichotomy": _k6_space,
}
ITEM_HOOKS = {"partitions.iter_all_partitions": _useful_rgs}


def _wrap(tr: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        on_item = ITEM_HOOKS.get(name)
        yielded = name + ".yielded"

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = tr.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tr.finish(i)
                tr.counters[yielded] += 1
                if on_item is not None:
                    on_item(tr, args, item)
                yield item

        return gen_wrapper

    on_result = RESULT_HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tr.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.finish(i)
        if on_result is not None:
            on_result(tr, args, result)
        return result

    return wrapper


@contextmanager
def instrumented(tr: Tracer):
    """Trace every public function of the library layers, plus
    ``ColoredGraph`` construction, until the block ends."""
    modules = [
        m for name, m in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    patches = []
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapper = _wrap(tr, f"{layer}.{attr}", fn)
            for m in modules:
                if getattr(m, attr, None) is fn:
                    patches.append((m, attr, fn))
                    setattr(m, attr, wrapper)
    cls = sys.modules[f"{PACKAGE}.graph"].ColoredGraph
    patches.append((cls, "__init__", cls.__init__))
    cls.__init__ = _wrap(tr, "graph.ColoredGraph", cls.__init__)
    try:
        yield tr
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)
