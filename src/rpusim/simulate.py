"""Dependency-driven execution of a plan on the single-PR device model.

The simulator turns a plan (the operators each query pushes down, in
streaming order, and one mode per query boundary) into phases on four
resources plus an idle lane for gaps, starts each phase the moment its last
dependency ends, and reports the resulting timeline.  Phases are placed in
time in one in-order pass: a phase starts at its release time, the latest
end among its dependencies, and its resource must be free then.
Scheduling rules:

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
emitted timeline.  The makespan is the latest time any resource becomes
free, which is the largest phase end; one that overflows to infinity is an
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, le
from typing import NamedTuple

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


class Phase(NamedTuple):
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
    """Phases placed in time in one in-order pass.

    Each phase starts at the release time its caller computed, once its
    resource is free.  A phase of zero length is not kept, but it still
    sets its resource's free time.
    """

    def __init__(self) -> None:
        self.free_at: dict[Resource, float] = dict.fromkeys(Resource, 0.0)
        self.phases: list[Phase] = []

    def place(self, resource: Resource, label: str, query: str, at: float, duration: float) -> float:
        """Place a phase released at ``at`` and return its end."""
        free_at = self.free_at
        if free_at[resource] > at:
            raise SchedulingError(
                f"{resource.value} is busy until {free_at[resource]:.6f} ms "
                f"when {label} for {query} is released at {at:.6f} ms"
            )
        end = free_at[resource] = at + duration
        if end > at:
            self.phases.append(Phase(resource, label, query, at, end))
        return end


def simulate(seq: QuerySequence, plan: Plan, profile: DeviceProfile) -> Timeline:
    """Execute the plan and return its timeline (phases plus makespan)."""
    schedule = _Schedule()
    place = schedule.place
    loaded: str | None = None
    arrival = tail = pr_free = 0.0  # the first query arrives at 0

    for i, (q, rpu, host, mode) in enumerate(compile_plan(plan, seq)):
        qid, size = q.id, q.table.size_mb
        if i > 0:
            arrival = place(_IDLE, "gap", GAP_QUERY, tail, seq.gaps[i - 1])

        lead = 0.0  # with no leading reconfiguration, it raises no max() below
        if rpu and loaded != rpu[0].id:
            lead = place(_PR, "reconfig", qid, arrival if mode is _BASELINE else pr_free, profile.t_reconfig)
        scan = place(_SCAN, "scan", qid, max(arrival, lead) if mode is _HOLD else arrival, size / profile.r_scan)

        work = scan
        for k, op in enumerate(rpu):
            if k == 0:
                at = max(scan, lead)
            else:
                at = max(scan, place(_PR, "reconfig", qid, work, profile.t_reconfig), work)
            work = place(_PR, "acc-exec", qid, at, size / profile.r_acc)
            size *= op.selectivity
            loaded = op.id

        pr_free = work
        tail = place(_NET, "transfer", qid, work, size / profile.r_network)
        for op in host:
            tail = place(_DBMS, "dbms", qid, tail, profile.c_dbms * size)
            size *= op.selectivity

    # a phase starts no earlier than its resource is free and lasts >= 0,
    # so each resource's free time is the largest end of its phases
    makespan = max(schedule.free_at.values())
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
