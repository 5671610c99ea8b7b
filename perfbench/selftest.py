"""Self-test of the tracing accounting on synthetic call trees.

Two checks, both run at the start of every traced benchmark run (and on
their own with ``python3 perfbench/selftest.py``):

* a nested call tree of known shape -- including a span that raises and
  a caller that catches -- must record exactly the expected spans and
  parents, and the per-span self times must sum *exactly* (integer
  nanoseconds) to the root span;
* a small event-driven program on the real ``sim`` engine must fire the
  same callbacks in the same order, with the same event count, whether or
  not the engine's callbacks are traced.
"""

from __future__ import annotations

import os
import sys
from typing import List

import tracing


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _call_tree_problems() -> List[str]:
    rec = tracing.SpanRecorder()
    nid = {name: rec.intern(name, f"selftest:{name}")
           for name in ("a", "b", "c", "d")}

    def traced(name, fn):
        return tracing._span_wrapper(rec, nid[name], fn)

    def c(n):
        return _spin(n)

    def d():
        _spin(500)
        raise KeyError("boom")

    c_t = traced("c", c)
    d_t = traced("d", d)

    def b():
        value = c_t(2000) + c_t(300)
        try:
            d_t()
        except KeyError:
            value += 1
        return value

    b_t = traced("b", b)

    def a():
        return b_t() + c_t(1000)

    a_t = traced("a", a)
    expected_value = a()
    value = rec.root("root", a_t)

    problems = []
    if value != expected_value:
        problems.append("traced call tree returned a different value")
    got = [(rec.names[rec.name_id[i]], rec.parent[i]) for i in range(len(rec))]
    want = [("root", -1), ("selftest:a", 0), ("selftest:b", 1),
            ("selftest:c", 2), ("selftest:c", 2), ("selftest:d", 2),
            ("selftest:c", 1)]
    if got != want:
        problems.append(f"span tree {got} != expected {want}")
    problems += tracing.check_tree(rec)
    dur, self_ns = tracing.self_times(rec)
    if int(self_ns.sum()) != int(dur[0]):
        problems.append(f"self times sum to {int(self_ns.sum())} ns, "
                        f"root is {int(dur[0])} ns")
    return problems


def _engine_program(sim):
    """Nested schedules, a batch, a periodic task and a cancellation."""
    log = []

    def leaf(tag):
        log.append((sim.now, tag))

    def parent(k):
        log.append((sim.now, f"parent{k}"))
        sim.schedule(0.001 * k, leaf, f"leaf{k}")
        sim.schedule_batch(0.002, leaf, f"batch{k}", key="b")
        if k < 3:
            sim.schedule(0.0005, parent, k + 1)

    victim = sim.schedule(0.004, leaf, "cancelled")
    sim.schedule(0.0, parent, 1)
    sim.schedule(0.0001, victim.cancel)
    task = sim.call_every(0.0015, leaf, "tick", until=0.006)
    sim.run(until=0.01)
    task.stop()
    return log, sim.events_fired


def _engine_problems() -> List[str]:
    from repro.sim.engine import Simulator

    plain = _engine_program(Simulator())
    rec = tracing.SpanRecorder()
    inst = tracing.install(rec, ["sim"])
    try:
        traced = rec.root("root", _engine_program, Simulator())
    finally:
        inst.remove()
    problems = []
    if traced != plain:
        problems.append("tracing the engine changed what the program did")
    callbacks = sum(1 for i in rec.name_id
                    if rec.names[i].endswith(tracing.CALLBACK_SUFFIX))
    if callbacks == 0:
        problems.append("no engine callbacks were traced")
    problems += tracing.check_tree(rec)
    return problems


def run() -> List[str]:
    """All self-test problems found (empty when tracing is sound)."""
    problems = []
    for check in (_call_tree_problems, _engine_problems):
        try:
            problems += check()
        except Exception as exc:  # a crash is a failed self-test, reported
            problems.append(f"{check.__name__} raised {exc!r}")
    return problems


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    found = run()
    for problem in found:
        print("FAIL:", problem)
    print("tracing self-test:", "FAILED" if found else "ok")
    raise SystemExit(1 if found else 0)
