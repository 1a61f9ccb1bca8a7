"""Dependency-driven execution of a plan on the single-PR device model.

The simulator turns a plan (the operators each query pushes down, in
streaming order, and one mode per query boundary) into phases on four
resources plus an idle lane for gaps, starts each phase the moment its last
dependency ends, and reports the resulting timeline.  Phases are placed in
time as they are added, in one in-order pass; a phase names its
dependencies by the positions at which they were added.  Scheduling rules:

* the table scan may run while the PR is being reconfigured;
* an accelerator starts only once its reconfiguration, the query's scan, and
  any preceding accelerator of the same query have finished;
* the PR is exclusive: reconfiguration never overlaps accelerator execution;
* the result transfer follows the query's last accelerator (or the scan when
  nothing was pushed down), host filtering follows the transfer;
* a query's leading reconfiguration is released according to its boundary
  mode (:class:`rpusim.model.Mode`): BASELINE at the query's arrival; HOLD
  and SPECULATIVE the moment the predecessor frees the PR, so it may run
  during transfers and gaps.  HOLD also holds the query's scan until the PR
  is ready; SPECULATIVE lets the scan proceed and gates only the first
  accelerator;
* a query arrives its gap after the predecessor's completion.

Zero-length phases are scheduled like any other but omitted from the
emitted timeline.  A makespan that overflows to infinity is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, le

from .errors import NonFiniteResultError, SchedulingError
from .model import DeviceProfile, Mode, Plan, QuerySequence, Violation
from .plans import compile_plan

#: Query column placeholder for phases that belong to no query.
GAP_QUERY = "\u2014"


class Resource(Enum):
    SCAN = "SCAN"
    PR = "PR"
    NET = "NET"
    DBMS = "DBMS"
    IDLE = "IDLE"

    # Members are singletons: hash by identity, in C, not by name.
    __hash__ = object.__hash__


#: Each resource's position in ``value`` order, for cheap sort keys.
_RANK = {r: rank for rank, r in enumerate(sorted(Resource, key=lambda r: r.value))}

# Reading an Enum member off its class is slow; simulate reads these per phase.
_SCAN, _PR, _NET, _DBMS, _IDLE = Resource.SCAN, Resource.PR, Resource.NET, Resource.DBMS, Resource.IDLE
_BASELINE, _HOLD = Mode.BASELINE, Mode.HOLD


@dataclass(frozen=True)
class Phase:
    resource: Resource
    label: str
    query: str
    start: float
    end: float


@dataclass(frozen=True)
class Timeline:
    phases: tuple[Phase, ...]
    makespan: float


class _Schedule:
    """Phases placed in time as they are added, in one in-order pass.

    Each phase starts when its last dependency ends; dependencies are the
    positions :meth:`add` returned for earlier phases.  A phase of zero
    length is scheduled like any other but not kept.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.free_at: dict[Resource, float] = dict.fromkeys(Resource, 0.0)
        self.phases: list[Phase] = []

    def add(self, resource: Resource, label: str, query: str, duration: float, deps: tuple[int, ...]) -> int:
        ends, index = self.ends, len(self.ends)
        if deps and not (0 <= min(deps) and max(deps) < index):
            bad = next(dep for dep in deps if not 0 <= dep < index)
            raise SchedulingError(
                f"{label} for {query} depends on task {bad}, "
                f"which is not listed before task {index}"
            )
        at = max(map(ends.__getitem__, deps), default=0.0)
        if self.free_at[resource] > at:
            raise SchedulingError(
                f"{resource.value} is busy until {self.free_at[resource]:.6f} ms "
                f"when {label} for {query} is released at {at:.6f} ms"
            )
        end = at + duration
        ends.append(end)
        self.free_at[resource] = end
        if end > at:
            self.phases.append(Phase(resource, label, query, at, end))
        return index


def simulate(seq: QuerySequence, plan: Plan, profile: DeviceProfile) -> Timeline:
    """Execute the plan and return its timeline (phases plus makespan)."""
    schedule = _Schedule()
    add = schedule.add
    loaded: str | None = None
    prev_completion = prev_pr_free = -1  # set before any boundary reads them

    for i, step in enumerate(compile_plan(plan, seq)):
        q, rpu = step.query, step.rpu

        arrival_dep: tuple[int, ...] = ()
        if i > 0:
            arrival_dep = (add(_IDLE, "gap", GAP_QUERY, seq.gaps[i - 1], (prev_completion,)),)

        lead: int | None = None
        if rpu and loaded != rpu[0].id:
            deps = arrival_dep if step.mode is _BASELINE else (prev_pr_free,)
            lead = add(_PR, "reconfig", q.id, profile.t_reconfig, deps)

        scan_deps = arrival_dep
        if step.mode is _HOLD and lead is not None:
            scan_deps += (lead,)
        scan = add(_SCAN, "scan", q.id, q.table.size_mb / profile.r_scan, scan_deps)

        size = q.table.size_mb
        prev_exec: int | None = None
        for op in rpu:
            if prev_exec is None:
                deps = (scan,) if lead is None else (scan, lead)
            else:
                deps = (scan, add(_PR, "reconfig", q.id, profile.t_reconfig, (prev_exec,)), prev_exec)
            prev_exec = add(_PR, "acc-exec", q.id, size / profile.r_acc, deps)
            size *= op.selectivity
            loaded = op.id

        pr_free = prev_exec if prev_exec is not None else scan
        tail = add(_NET, "transfer", q.id, size / profile.r_network, (pr_free,))
        for op in step.host:
            tail = add(_DBMS, "dbms", q.id, profile.c_dbms * size, (tail,))
            size *= op.selectivity

        prev_completion = tail
        prev_pr_free = pr_free

    makespan = max(schedule.ends, default=0.0)
    if not math.isfinite(makespan):
        raise NonFiniteResultError(f"simulated makespan overflows: {makespan!r} ms")
    phases = schedule.phases
    phases.sort(key=lambda p: (p.start, _RANK[p.resource], p.end, p.label, p.query))
    return Timeline(phases=tuple(phases), makespan=makespan)


_START, _START_END, _END = attrgetter("start"), attrgetter("start", "end"), attrgetter("end")


def _in_order(group: list[Phase], key) -> list[Phase]:
    """``group`` stably sorted by ``key``.  ``simulate`` emits phases by
    start, so the group is sorted only when one pass finds it out of order.
    A NaN key fails that pass, so such a group is always sorted."""
    if len(group) > 1:
        keys = list(map(key, group))
        if not all(map(le, keys, keys[1:])):
            return sorted(group, key=key)
    return group


def validate_timeline(timeline: Timeline) -> list[Violation]:
    """Check a timeline's structural rules; empty result means ok."""
    out: list[Violation] = []
    phases = timeline.phases
    # reconfig and acc-exec share Resource.PR, so the per-resource check
    # also reports every PR exclusivity breach.
    by_resource: dict[Resource, list[Phase]] = {}
    by_query: dict[str, list[Phase]] = {}
    for i, p in enumerate(phases):
        if p.end < p.start:
            out.append(Violation(f"phases[{i}]", f"end {p.end} before start {p.start}"))
        by_resource.setdefault(p.resource, []).append(p)
        if p.query != GAP_QUERY:
            by_query.setdefault(p.query, []).append(p)
    for resource, group in by_resource.items():
        group = _in_order(group, _START_END)
        for a, b in zip(group, group[1:]):
            if b.start < a.end:
                out.append(
                    Violation(
                        f"resource {resource.value}",
                        f"{resource.value} conflict: {a.label} [{a.start}, {a.end}) "
                        f"overlaps {b.label} [{b.start}, {b.end})",
                    )
                )

    for qid in sorted(by_query):
        scan_end = None
        accs: list[Phase] = []
        trans: list[Phase] = []
        dbms: list[Phase] = []
        for p in by_query[qid]:
            label = p.label
            if label == "scan":
                if scan_end is None or p.end > scan_end:  # as max() picks
                    scan_end = p.end
            elif label == "acc-exec":
                accs.append(p)
            elif label == "transfer":
                trans.append(p)
            elif label == "dbms":
                dbms.append(p)
        accs = _in_order(accs, _START)
        dbms = _in_order(dbms, _START)
        if scan_end is not None and accs and accs[0].start < scan_end:
            out.append(Violation(f"query {qid}", "acc-exec started before scan finished"))
        for a, b in zip(accs, accs[1:]):
            if b.start < a.end:
                out.append(Violation(f"query {qid}", "acc-exec phases overlap"))
        if trans:
            work_end = accs[-1].end if accs else scan_end
            if work_end is not None and trans[0].start < work_end:
                out.append(Violation(f"query {qid}", "transfer started before the last RPU phase"))
            if dbms and dbms[0].start < trans[-1].end:
                out.append(Violation(f"query {qid}", "dbms started before transfer finished"))

    max_end = max(map(_END, phases), default=0.0)
    if timeline.makespan != max_end:
        out.append(
            Violation("makespan", f"makespan {timeline.makespan} != max phase end {max_end}")
        )
    return out


def timeline_csv(timeline: Timeline) -> str:
    """Render the timeline as CSV, sorted by start time then resource."""
    rows = sorted(timeline.phases, key=lambda p: (p.start, p.resource.value))
    lines = ["resource,label,query,start_ms,end_ms"]
    for p in rows:
        lines.append(f"{p.resource.value},{p.label},{p.query},{p.start:.6f},{p.end:.6f}")
    return "\n".join(lines) + "\n"
