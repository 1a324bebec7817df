"""The traced run's instruments: layer spans and deterministic call counts.

Spans come from wrappers this file installs around the public (and
private) functions of each layer's modules; nothing inside ``repro`` is
edited.  A span records (name, start, end, parent, run id) into flat
typed arrays, so a few million spans cost tens of MB, not hundreds.  Self
time of a span is its duration minus the durations of its direct children
(single-threaded and stack-nested, so children never overlap).

Call counts come from a separate :mod:`cProfile` pass, grouped by the
module that defines each function: they count every Python call into a
module, are independent of the machine, and repeat exactly between runs.
"""

from __future__ import annotations

import cProfile
import enum
import importlib
import inspect
import pkgutil
import pstats
import sys
import time
import types
from array import array
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: Layer name -> the ``repro`` modules it covers.  A trailing ``.`` means
#: every module of that package.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "netsim": ("repro.netsim.simulator", "repro.netsim.batchsim", "repro.netsim.events"),
    "core.silkroad": ("repro.core.silkroad",),
    "asicsim.cuckoo": ("repro.asicsim.cuckoo",),
    "asicsim.hashing": ("repro.asicsim.hashing",),
    "asicsim.learning_filter": ("repro.asicsim.learning_filter",),
    "core.control_plane": ("repro.core.control_plane",),
    "core.pcc_update": ("repro.core.pcc_update",),
    "core.dip_pool_table": ("repro.core.dip_pool_table",),
    "obs.metrics": ("repro.obs.metrics",),
    "obs.export": ("repro.obs.export",),
    "obs.recorder": ("repro.obs.recorder",),
    "deploy.fleet": ("repro.deploy.fleet",),
    "faults": ("repro.faults.",),
    "serve.session": ("repro.serve.session",),
    "serve.http": ("repro.serve.http",),
    "serve.source": ("repro.serve.source",),
}

#: Name id of the benchmark's own root span (one per traced unit).
ROOT = 0


def layer_of_module(module: str) -> str:
    """The layer a dotted module name belongs to, or ``""``."""
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or (prefix.endswith(".") and module.startswith(prefix)):
                return layer
    return ""


def self_times(start, end, parent):
    """Each span's duration minus the durations of its direct children.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    has = parent >= 0
    children = np.bincount(parent[has], weights=duration[has], minlength=len(duration))
    return duration - children


class SpanRecorder:
    """Columnar in-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        #: (run id, index of the run's first span)
        self.runs: List[Tuple[int, int]] = []
        self.names: List[str] = ["bench.unit"]
        self.name_layer: List[str] = [""]
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open_root(self, run_id: int) -> int:
        self.runs.append((run_id, len(self.name)))
        return self._open(ROOT)

    def close_root(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _wrap(self, fn, qualname: str, layer: str):
        name_id = len(self.names)
        self.names.append(qualname)
        self.name_layer.append(layer)
        starts, ends, names, parents = self.start, self.end, self.name, self.parent
        stack = self._stack
        perf = time.perf_counter

        def span(*args, **kwargs):
            idx = len(names)
            parents.append(stack[-1])
            names.append(name_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()

        span.__wrapped__ = fn
        return span

    # -- installation --------------------------------------------------

    def install(self) -> int:
        """Wrap every plain function and method of every layer module.

        Must run before the system under test is built: hot paths bind
        methods at construction.  Module-level functions are also
        replaced wherever another ``repro`` module imported them by name.
        Returns the number of functions wrapped.
        """
        _import_layers()
        replaced: Dict[int, object] = {}
        for modname, module in sorted(sys.modules.items()):
            layer = layer_of_module(modname)
            if not layer or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == modname:
                    self._wrap_class(value, layer)
                elif _wrappable(value) and value.__module__ == modname:
                    wrapper = self._wrap(value, f"{modname}.{attr}", layer)
                    replaced[id(value)] = (value, wrapper)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        return len(self.names) - 1

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, (tuple, BaseException, enum.Enum)):
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            qual = f"{cls.__module__}.{cls.__qualname__}.{attr}"
            if isinstance(value, staticmethod) and _wrappable(value.__func__):
                self._patch(cls, attr, staticmethod(self._wrap(value.__func__, qual, layer)))
            elif isinstance(value, classmethod) and _wrappable(value.__func__):
                self._patch(cls, attr, classmethod(self._wrap(value.__func__, qual, layer)))
            elif _wrappable(value):
                self._patch(cls, attr, self._wrap(value, qual, layer))

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def _columns(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return start, end, name, parent

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed per layer; ``""`` is the benchmark's own code."""
        start, end, name, parent = self._columns()
        layers = [""] + list(LAYERS)
        layer_of_name = np.array([layers.index(l) for l in self.name_layer])
        own = self_times(start, end, parent)
        sums = np.bincount(layer_of_name[name], weights=own, minlength=len(layers))
        return {layer: float(t) for layer, t in zip(layers, sums)}

    def root_seconds(self) -> float:
        start, end, name, _ = self._columns()
        root = name == ROOT
        return float((end[root] - start[root]).sum())

    def durations_of(self, qualname: str) -> List[float]:
        """Durations of every span of one wrapped function."""
        start, end, name, _ = self._columns()
        ids = [i for i, n in enumerate(self.names) if n == qualname]
        hit = np.isin(name, ids)
        return (end[hit] - start[hit]).tolist()

    def top_level_seconds(self, layer: str) -> float:
        """Time inside ``layer`` spans whose parent is outside the layer."""
        start, end, name, parent = self._columns()
        in_layer = np.array([l == layer for l in self.name_layer])
        mine = in_layer[name]
        parent_mine = np.zeros_like(mine)
        has = parent >= 0
        parent_mine[has] = mine[parent[has]]
        top = mine & ~parent_mine
        return float((end[top] - start[top]).sum())

    def write(self, path: Path) -> None:
        """Dump every span as ``.npz`` columns plus the name table."""
        start, end, name, parent = self._columns()
        n = len(name)
        run = np.zeros(n, dtype=np.int32)
        bounds = [first for _, first in self.runs] + [n]
        for (run_id, _), lo, hi in zip(self.runs, bounds, bounds[1:]):
            run[lo:hi] = run_id
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            start=start,
            end=end,
            name=name,
            parent=parent,
            run=run,
            names=np.array(self.names),
            layers=np.array(self.name_layer),
        )


def _import_layers() -> None:
    """Import every layer module, so each can be wrapped before use."""
    for prefixes in LAYERS.values():
        for prefix in prefixes:
            if not prefix.endswith("."):
                importlib.import_module(prefix)
                continue
            package = importlib.import_module(prefix[:-1])
            for info in pkgutil.iter_modules(package.__path__, prefix):
                importlib.import_module(info.name)


def _wrappable(value: object) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and not inspect.isgeneratorfunction(value)
        and not inspect.iscoroutinefunction(value)
        and not inspect.isasyncgenfunction(value)
    )


def calls_by_layer(profile: cProfile.Profile, src_root: Path) -> Dict[str, int]:
    """Python calls per layer from a finished profile.

    Key ``"repro"`` totals every function defined anywhere in the package.
    """
    root = str(src_root.resolve()) + "/"
    out: Dict[str, int] = {layer: 0 for layer in LAYERS}
    out["repro"] = 0
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        if not filename.startswith(root):
            continue
        module = filename[len(root):-3].replace("/", ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        calls = row[1]
        out["repro"] += calls
        layer = layer_of_module(module)
        if layer:
            out[layer] += calls
    return out
