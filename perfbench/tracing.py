"""Passive span tracing for the benchmark's traced runs.

The benchmark attributes time to the ``repro`` packages (its *layers*)
without touching the program: :func:`install` wraps, from the outside,

* every public function and method of every module in the chosen layers
  (names without a leading underscore), and
* every callback the ``sim`` engine dispatches, so time spent inside a
  callback is charged to the callback's own module and the engine keeps
  only heap operations and dispatch as its self time.

Each call becomes one span: name, start, end (integer nanoseconds) and
parent.  Spans stay in flat in-memory arrays while the run executes and
are written out once at the end (:meth:`SpanRecorder.save`).  A span's
self time is its duration minus the durations of its direct children;
with integer clocks the self times of a tree sum *exactly* to its root.

Tracing is passive: a wrapper only timestamps and forwards arguments,
return values and exceptions unchanged, so a traced run must reproduce
the untraced run's outputs bit for bit -- the workloads check this.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
import weakref
from array import array
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

__all__ = ["SpanRecorder", "Installation", "install", "layer_of",
           "self_times", "check_tree"]

_now_ns = time.perf_counter_ns

#: Layer name of spans the benchmark opens itself (the root).
BENCH_LAYER = "bench"
#: Pseudo-layer for time the sweep coordinator spends asleep waiting on
#: workers: it is waiting, not work, so no real layer is charged.
IDLE_LAYER = "idle"
#: Suffix marking a span as an engine-dispatched callback, so it is never
#: counted as a call of the same-named public method.
CALLBACK_SUFFIX = "@cb"


def layer_of(module: str) -> str:
    """``repro.mac.medium`` -> ``mac``; code outside the program -> ``other``."""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return "other"


#: Live recorders, silenced in forked children (see ``_after_fork``).
_RECORDERS: "weakref.WeakSet[SpanRecorder]" = weakref.WeakSet()


def _after_fork() -> None:
    for rec in list(_RECORDERS):
        rec.active = False
        rec.forked = True


os.register_at_fork(after_in_child=_after_fork)


class SpanRecorder:
    """Flat, append-only span store with a parent stack.

    Only the process that created the recorder records: a forked sweep
    worker inherits the wrappers, but its calls pass straight through.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[Any, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = [-1]
        self.active = False
        self.forked = False
        _RECORDERS.add(self)

    # ------------------------------------------------------------ names
    def intern(self, key: Any, name: str) -> int:
        nid = self._name_ids.get(key)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[key] = nid
        return nid

    # ------------------------------------------------------------ spans
    def call(self, nid: int, fn: Callable, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``nid``."""
        if not self.active:
            return fn(*args, **kwargs)
        i = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1])
        self.end.append(0)
        stack.append(i)
        self.start.append(_now_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = _now_ns()
            stack.pop()

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span of a traced pass; returns its result."""
        if self.forked:
            raise RuntimeError("a forked child cannot open a root span")
        nid = self.intern(("root", name), name)
        self.active = True
        try:
            return self.call(nid, fn, args, kwargs)
        finally:
            self.active = False

    def __len__(self) -> int:
        return len(self.start)

    # ---------------------------------------------------------- queries
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name table) to one ``.npz`` file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 **self.arrays())


def self_times(rec: SpanRecorder) -> Tuple[np.ndarray, np.ndarray]:
    """Per-span (duration_ns, self_ns) as int64 arrays."""
    a = rec.arrays()
    dur = a["end_ns"] - a["start_ns"]
    parent = a["parent"]
    child = parent >= 0
    children_ns = np.zeros(len(dur), dtype=np.int64)
    np.add.at(children_ns, parent[child], dur[child])
    return dur, dur - children_ns


def check_tree(rec: SpanRecorder) -> List[str]:
    """Structural checks of a recorded trace; returns the problems found.

    Every span must be closed, lie inside its parent's interval and have
    a non-negative self time; the self times of each root's tree must sum
    exactly to that root's duration.
    """
    problems: List[str] = []
    if len(rec) == 0:
        return ["no spans recorded"]
    if len(rec._stack) != 1:
        problems.append(f"{len(rec._stack) - 1} spans left open")
    a = rec.arrays()
    start, end, parent = a["start_ns"], a["end_ns"], a["parent"]
    dur, self_ns = self_times(rec)
    if (dur < 0).any():
        problems.append(f"{int((dur < 0).sum())} spans end before they start")
    child = parent >= 0
    p = parent[child]
    outside = (start[child] < start[p]) | (end[child] > end[p])
    if outside.any():
        problems.append(f"{int(outside.sum())} spans outside their parent")
    if (self_ns < 0).any():
        problems.append(f"{int((self_ns < 0).sum())} spans with negative self time")
    # Map each span to its root by pointer jumping over the parent links.
    root = np.where(child, parent, np.arange(len(parent))).astype(np.int64)
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped
    sums = np.zeros(len(parent), dtype=np.int64)
    np.add.at(sums, root, self_ns)
    roots = np.nonzero(~child)[0]
    bad = [int(r) for r in roots if sums[r] != dur[r]]
    if bad:
        problems.append(f"self times do not sum to the root for roots {bad[:5]}")
    return problems


# ------------------------------------------------------------ wrapping
def _span_wrapper(rec: SpanRecorder, nid: int, fn: Callable) -> Callable:
    call = rec.call

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return call(nid, fn, args, kwargs)

    return traced


def _unwrap(fn: Any) -> Any:
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__func__", fn)


class Installation:
    """The set of patches one :func:`install` applied; ``remove`` undoes them."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------- callbacks
    def callback_name_id(self, fn: Callable) -> int:
        target = _unwrap(fn)
        key = getattr(target, "__code__", None) or type(target)
        module = getattr(target, "__module__", None) or type(target).__module__
        qual = getattr(target, "__qualname__", None) or type(target).__qualname__
        return self.rec.intern(("cb", key), f"{module}:{qual}{CALLBACK_SUFFIX}")

    def wrap_callback(self, fn: Any) -> Any:
        if not callable(fn):
            return fn  # let the engine raise its own TypeError
        rec = self.rec
        nid = self.callback_name_id(fn)
        call = rec.call

        def dispatched(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        return dispatched


def _public_functions(cls: type) -> Iterable[Tuple[str, Callable, Callable]]:
    """(name, function, rebuild-descriptor) for each public method of ``cls``."""
    for name, value in list(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(value, (staticmethod, classmethod)):
            yield name, value.__func__, type(value)
        elif inspect.isfunction(value):
            yield name, value, lambda f: f


def _layer_modules(layers: Iterable[str]) -> List[Any]:
    out = []
    for layer in layers:
        pkg = importlib.import_module(f"repro.{layer}")
        out.append(pkg)
        for info in pkgutil.iter_modules(pkg.__path__, prefix=f"repro.{layer}."):
            out.append(importlib.import_module(info.name))
    return out


def install(rec: SpanRecorder, layers: Iterable[str]) -> Installation:
    """Wrap the public surface of ``layers`` (``repro`` sub-packages).

    Module-level functions are replaced wherever any ``repro`` module
    bound them by name (``from .x import f``), so callers that imported
    them before installation are traced too.  Installing the ``sim``
    layer also wraps the callbacks handed to the engine's scheduling
    entry points.
    """
    inst = Installation(rec)
    replaced: Dict[int, Tuple[Callable, Callable]] = {}
    for module in _layer_modules(layers):
        for name, value in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if inspect.isclass(value) and value.__module__ == module.__name__:
                if issubclass(value, (Enum, BaseException)):
                    continue
                for mname, fn, rebuild in _public_functions(value):
                    if inspect.isgeneratorfunction(fn):
                        continue
                    nid = rec.intern(("fn", fn), f"{module.__name__}:{fn.__qualname__}")
                    inst.patch(value, mname, rebuild(_span_wrapper(rec, nid, fn)))
            elif (inspect.isfunction(value) and value.__module__ == module.__name__
                  and not inspect.isgeneratorfunction(value)):
                if id(value) not in replaced:
                    nid = rec.intern(("fn", value),
                                     f"{module.__name__}:{value.__qualname__}")
                    replaced[id(value)] = (value, _span_wrapper(rec, nid, value))
    # Rebind module-level functions in every program module that holds them.
    if replaced:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    inst.patch(module, name, entry[1])
    if "sim" in set(layers):
        _install_callbacks(inst)
    return inst


def _install_callbacks(inst: Installation) -> None:
    """Wrap callbacks at every engine entry point that stores one."""
    from repro.sim import engine

    wrap = inst.wrap_callback
    sim_cls = engine.Simulator

    def patch_method(cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        current = cls.__dict__[name]
        inst.patch(cls, name, functools.wraps(current)(make(current)))

    patch_method(sim_cls, "schedule", lambda orig: (
        lambda self, delay, fn, *args: orig(self, delay, wrap(fn), *args)))
    patch_method(sim_cls, "schedule_at", lambda orig: (
        lambda self, when, fn, *args: orig(self, when, wrap(fn), *args)))
    patch_method(sim_cls, "schedule_batch_at", lambda orig: (
        lambda self, when, fn, *args, key=None:
            orig(self, when, wrap(fn), *args, key=key)))
    patch_method(sim_cls, "call_every", lambda orig: (
        lambda self, interval, fn, *args, **kw:
            orig(self, interval, wrap(fn), *args, **kw)))
    patch_method(engine.PeriodicGroup, "add", lambda orig: (
        lambda self, fn, *args: orig(self, wrap(fn), *args)))


def install_idle(inst: Installation, module: Any) -> None:
    """Trace ``module.sleep`` (a blocking wait) as the ``idle`` pseudo-layer."""
    nid = inst.rec.intern(("idle", module.__name__),
                          f"{IDLE_LAYER}:{module.__name__}.sleep")
    inst.patch(module, "sleep", _span_wrapper(inst.rec, nid, module.sleep))


def span_layer(name: str) -> str:
    """Layer of a recorded span name (``module:qualname`` or ``layer:...``)."""
    module = name.split(":", 1)[0]
    if module == IDLE_LAYER:
        return IDLE_LAYER
    if ":" not in name:
        return BENCH_LAYER
    return layer_of(module)
