"""Spans around calls into the layers of dynamohull, recorded from outside.

A traced round swaps selected public functions for wrappers in every
dynamohull module namespace that binds them, so calls made by the benchmark
and calls between the program's modules (for example oracle -> core.in_hull
or planewave.refinement_study -> planewave.grid_residual) both open a span.
The program's source is not touched; ``Tracer.installed`` restores the
original functions when the round ends.

A span is (name, start, end, parent). For a generator, every item it yields
is one span whose parent is the span that asked for the item. Spans stay in
memory in flat arrays until ``save`` writes them out.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "oracle", "core", "laminate", "planewave")

# (layer, function, yields items): the calls that open a span.
SPAN_POINTS = (
    ("cli", "main", False),
    ("oracle", "two_sided_hull_check", False),
    ("oracle", "sample_first_laminate", True),
    ("oracle", "sample_hull", True),
    ("oracle", "sample_lambda_pair", True),
    ("core", "in_hull", False),
    ("core", "separation_witness", False),
    ("laminate", "decompose", False),
    ("laminate", "verify_decomposition", False),
    ("planewave", "refinement_study", False),
    ("planewave", "grid_residual", False),
    ("planewave", "wave_vector_for", False),
    ("planewave", "staircase_average", False),
)


def _grid_tag(args, kwargs):
    """(n, grid points x time steps) of a grid_residual call, mirroring the
    program's rule that only non-stationary waves with xi_t != 0 step in t."""
    xi, g = args[1], args[2]
    kind = args[3] if len(args) > 3 else kwargs.get("kind")
    steps = 1 if (kind is not None and kind.stationary) or xi.xi_t == 0.0 else g.n
    return g.n, g.n ** 3 * steps


TAGGERS = {"planewave.grid_residual": _grid_tag}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tags: dict[int, tuple] = {}
        self._stack = [-1]
        self._wrappers: dict[str, object] = {}

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, yields: bool):
        if name in self._wrappers:
            return self._wrappers[name]
        nid = len(self.names)
        self.names.append(name)
        tagger = TAGGERS.get(name)
        tracer = self

        if yields:
            class _Items:
                __slots__ = ("_it",)

                def __init__(self, it):
                    self._it = it

                def __iter__(self):
                    return self

                def __next__(self):
                    idx = tracer._open(nid)
                    try:
                        return next(self._it)
                    finally:
                        tracer._close(idx)

            def wrapper(*args, **kwargs):
                return _Items(fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(nid)
                if tagger is not None:
                    tracer.tags[idx] = tagger(args, kwargs)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        self._wrappers[name] = wrapper
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every span point for its wrapper in all dynamohull modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dynamohull" or n.startswith("dynamohull.")]
        swapped = []
        for layer, func, yields in SPAN_POINTS:
            original = getattr(sys.modules[f"dynamohull.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", original, yields)
            for mod in modules:
                if mod.__dict__.get(func) is original:
                    setattr(mod, func, wrapper)
                    swapped.append((mod, func, original))
        try:
            yield self
        finally:
            for mod, func, original in swapped:
                setattr(mod, func, original)

    def mark(self) -> int:
        """Index of the next span, to slice out one round's spans."""
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(name ids, start, end, parent) of spans lo..hi as numpy arrays."""
        hi = len(self.start) if hi is None else hi
        # Slicing copies, so the arrays keep growing while numpy holds these.
        return (np.frombuffer(self.name_id[lo:hi], dtype=np.intc),
                np.frombuffer(self.start[lo:hi], dtype=np.float64),
                np.frombuffer(self.end[lo:hi], dtype=np.float64),
                np.frombuffer(self.parent[lo:hi], dtype=np.intc))

    def save(self, path):
        """Write every span, with its name table and grid tags, as .npz."""
        nid, start, end, parent = self.arrays()
        tag_idx = np.array(sorted(self.tags), dtype=np.int64)
        tag_val = np.array([self.tags[i] for i in tag_idx], dtype=np.int64).reshape(-1, 2)
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            start=start, end=end, parent=parent,
                            tag_index=tag_idx, tag_value=tag_val)


def round_summary(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-name call counts and total/self seconds, and per-layer self
    seconds, for the spans of one round (indices lo..hi).

    Self time is a span's duration minus the durations of its direct
    children; a name's total counts every call, nested ones included.
    """
    nid, start, end, parent = tracer.arrays(lo, hi)
    dur = end - start
    child = np.zeros_like(dur)
    local = parent >= lo
    np.add.at(child, parent[local] - lo, dur[local])
    self_t = dur - child
    names = tracer.names
    per_name = {}
    for i, name in enumerate(names):
        sel = nid == i
        per_name[name] = (int(sel.sum()), float(dur[sel].sum()), float(self_t[sel].sum()))
    per_layer = {layer: sum(v[2] for k, v in per_name.items() if k.split(".")[0] == layer)
                 for layer in LAYERS}
    grid = {}
    for idx, (n, cells) in tracer.tags.items():
        if lo <= idx < hi:
            ms, tot_cells = grid.get(n, (0.0, 0))
            grid[n] = (ms + float(dur[idx - lo]), tot_cells + cells)
    return {"per_name": per_name, "per_layer": per_layer, "grid": grid,
            "spans": int(hi - lo)}
