"""In-memory span tracing installed from outside the package.

The tracer wraps public functions by rebinding every name under which an
``rpusim`` module refers to them, so calls between modules (``choose_plan``
calling ``plan_cost`` calling ``require_valid``) are recorded without any
change to the package.  Spans are kept in a list and written out at the end.

A span is ``(name, start_ns, end_ns, parent_index, request_id)``.  Times are
integer nanoseconds, so the self times of one request (a span's duration
minus its children's) sum exactly to the duration of its root span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Layer name -> the (module, attribute) pairs of the functions it times.
#: ``workloads.parse_doc`` is the benchmark's own JSON decode + parse_workload.
SPANS = {
    "model.require_valid": (("rpusim.model", "require_valid"),),
    "workload.parse": (("rpusim.workload", "load_workload"), ("workloads", "parse_doc")),
    "plans.enumerate_plans": (("rpusim.plans", "enumerate_plans"),),
    "plans.strategy_plan": (("rpusim.plans", "strategy_plan"),),
    "plans.legality": (("rpusim.plans", "legality"),),
    "cost.plan_cost": (("rpusim.cost", "plan_cost"),),
    "cost.phase_times": (("rpusim.cost", "phase_times"),),
    "planner.choose_plan": (("rpusim.planner", "choose_plan"),),
    "planner.generate_hints": (("rpusim.planner", "generate_hints"),),
    "simulate.simulate": (("rpusim.simulate", "simulate"),),
    "simulate.validate_timeline": (("rpusim.simulate", "validate_timeline"),),
    "sweep.run_sweep": (("rpusim.sweep", "run_sweep"),),
    "miner.parse_log": (("rpusim.miner", "parse_log"),),
    "miner.fingerprint": (("rpusim.miner", "fingerprint"),),
    "miner.mine_sequences": (("rpusim.miner", "mine_sequences"),),
    "miner.to_workload": (("rpusim.miner", "to_workload"),),
    "cli.main": (("rpusim.cli", "main"),),
}

#: Methods that are only counted: they run once per query, so a span each
#: would cost more than the method itself.
COUNTED_METHODS = {
    "model.Plan.load_after": ("rpusim.model", "Plan", "load_after"),
}


class Tracer:
    """Records spans and call counts for the requests run inside it."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: Counter[tuple[str, int]] = Counter()
        self._stack: list[int] = []
        self._request = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._request)

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(name, self._request)] += 1
            return fn(*args, **kwargs)

        return counted

    def request(self, request_id: int, fn, *args):
        """Run ``fn(*args)`` as request ``request_id`` under a root span."""
        self._request = request_id
        try:
            return self._wrap("bench.request", fn)(*args)
        finally:
            self._request = -1

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every module-level name that refers to a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if n == "rpusim" or n.startswith("rpusim.") or n == "workloads"]
        for name, targets in SPANS.items():
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, value))
                            setattr(mod, key, wrapped)
        for name, (module, cls_name, attr) in COUNTED_METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._count(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- reporting -------------------------------------------------------

    def self_ns(self) -> dict[tuple[str, int], int]:
        """Self time per (span name, request id), in nanoseconds."""
        out: dict[tuple[str, int], int] = defaultdict(int)
        for name, start, end, parent, request in self.spans:
            out[(name, request)] += end - start
            if parent >= 0:
                out[(self.spans[parent][0], request)] -= end - start
        return out

    def span_counts(self) -> Counter[tuple[str, str | None]]:
        """Number of spans per (name, parent name)."""
        out: Counter[tuple[str, str | None]] = Counter()
        for name, _, _, parent, _ in self.spans:
            out[(name, self.spans[parent][0] if parent >= 0 else None)] += 1
        return out

    def roots_balance(self) -> bool:
        """Whether each request's self times sum to its root span's duration."""
        totals: dict[int, int] = defaultdict(int)
        for (_, request), ns in self.self_ns().items():
            totals[request] += ns
        roots = {request: end - start for name, start, end, parent, request in self.spans
                 if parent < 0}
        return bool(roots) and totals == roots

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, request in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "request": request}) + "\n")
