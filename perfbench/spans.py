"""Spans around the calls into griddp's modules, recorded from outside.

install() replaces every public module-level function of griddp, in every
griddp namespace that binds it (`from .grouping import best_fit` binds a
second name) and in module-level dispatch tables, with a wrapper that
records a span: name, start, end and the span that was open when it was
called. RngStream.split and RngStream.normal are wrapped too; the other
RngStream methods and the Dataset/OccupancyArray accessors are not, so
their cost counts in their caller's self time. The program is single
threaded, so one stack gives every span its parent.

Spans stay in flat arrays in memory and are written out by save(). A
span's self time is its duration minus the durations of its direct
children; the wrapper's own bookkeeping falls into the parent's self time,
which is what the overhead figure measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from array import array

import numpy as np

MODULES = (
    "rng",
    "synth",
    "dataset",
    "sensitivity",
    "worst_case_bias",
    "grouping",
    "mechanisms",
    "composition",
    "harness",
    "cli",
)
RNG_METHODS = ("split", "normal")
COUNTERS = ("synth.samples", "composition.suppressions", "dataset.csv_bytes")


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('griddp.')}.{fn.__qualname__}"


def _csv_bytes(args, kwargs) -> int:
    """Size of the CSV a parse call read, given a path or the text itself."""
    src = args[0] if args else kwargs["path_or_text"]
    if isinstance(src, (str, os.PathLike)) and os.path.isfile(src):
        return os.path.getsize(src)
    return len(str(src).encode("utf-8"))


def _assign(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.best_fit_inputs: set[tuple] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "grouping.best_fit": self._on_best_fit,
            "synth.generate_values": self._on_generate_values,
            "composition.clip_user": self._on_clip_user,
            "dataset.parse_dataset": self._on_parse,
            "dataset.parse_occupancy": self._on_parse,
        }

    # Counters recorded at the same boundaries as the spans.
    def _on_best_fit(self, args, kwargs, result) -> None:
        samples = args[0] if args else kwargs["samples_by_user"]
        capacity = args[1] if len(args) > 1 else kwargs["capacity"]
        users = sorted(samples)
        # A grid is identified by its users and sample total; with the
        # capacity this tells repeated packings of one input apart from new ones.
        self.best_fit_inputs.add(
            (users[0], users[-1], len(users), sum(map(len, samples.values())), capacity)
        )

    def _on_generate_values(self, args, kwargs, result) -> None:
        occupancy = args[0] if args else kwargs["occupancy"]
        self.counters["synth.samples"] += sum(occupancy.total(g) for g in occupancy.grids())

    def _on_clip_user(self, args, kwargs, result) -> None:
        self.counters["composition.suppressions"] += len(result.trace)

    def _on_parse(self, args, kwargs, result) -> None:
        self.counters["dataset.csv_bytes"] += _csv_bytes(args, kwargs)

    def _wrap(self, fn):
        name = _span_name(fn)
        nid = len(self.names)
        self.names.append(name)
        start, end, name_id, parent, stack = (
            self.start, self.end, self.name_id, self.parent, self.stack
        )
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m, "griddp") for m in ("griddp", *(f".{m}" for m in MODULES))]
        wrapped: dict[int, object] = {}
        for mod in modules[1:]:
            for key, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not key.startswith("_")
                ):
                    wrapped[id(obj)] = self._wrap(obj)
        for mod in modules:
            space = vars(mod)
            for key, obj in list(space.items()):
                if id(obj) in wrapped:
                    self._rebind(space, key, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            self._rebind(obj, k, wrapped[id(v)])
        rng_cls = modules[1 + MODULES.index("rng")].RngStream
        for meth in RNG_METHODS:
            self._rebind(rng_cls, meth, self._wrap(rng_cls.__dict__[meth]))

    def _rebind(self, target, key, new) -> None:
        """Point a namespace entry (a dict key or a class attribute) at new."""
        old = target[key] if isinstance(target, dict) else target.__dict__[key]
        self._patches.append((target, key, old))
        _assign(target, key, new)

    def uninstall(self) -> None:
        for target, key, old in reversed(self._patches):
            _assign(target, key, old)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Self seconds and call count of every traced function that ran."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = np.bincount(nid, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        return {
            name: {"self_s": float(own[i]), "calls": int(calls[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path_stem: str) -> None:
        np.savez(
            path_stem + ".npz",
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            names=np.array(self.names),
        )
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"functions": self.summary(), "counters": self.counters}, fh, indent=1)
