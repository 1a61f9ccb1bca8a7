"""Dependency-driven execution of a plan on the single-PR device model.

The simulator turns a plan (the operators each query pushes down, in
streaming order, and one mode per query boundary) into phases on four
resources plus an idle lane for gaps, starts each phase the moment its last
dependency ends, and reports the resulting timeline.  Phases are placed in
time in one in-order pass: a phase starts at its release time, the latest
end among its dependencies.  No resource is ever busy then (see below), so
the pass keeps no per-resource free time.  Scheduling rules:

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

Every duration is >= 0 and every gap is >= 0, so a query arrives once
every earlier phase has ended, and within a query each phase on a resource
is released at or after the end of the one before it.  A phase therefore
never waits for its resource, and the makespan, the largest phase end, is
the last query's completion; one that overflows to infinity is an error.
Zero-length phases are scheduled like any other but omitted from the
emitted timeline.  :func:`validate_timeline` checks resource exclusivity.

:func:`simulate` reads a checked plan the way the cost fold does, each
query's RPU order of op ids and its boundary mode.  It is one flat loop,
with no Python-level call per phase, that appends each kept phase to one
list as it releases it and sorts that list once by start.  The stable sort
keeps the documented order (start, then resource name) because phases that
start together are always released in name order.  Only these can tie: a
gap and the next query's leading reconfiguration (IDLE, PR); a leading
reconfiguration and its scan (PR, SCAN); a transfer or host filter and the
successor's HOLD or SPECULATIVE reconfiguration (NET or DBMS, PR).  Every
other phase of a query starts at or after its scan ends, and every phase of
a later query at or after its predecessor hands the PR over.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

from .errors import NonFiniteResultError
from .model import DeviceProfile, Mode, Plan, QuerySequence, Violation
from .plans import _host_ops, check_plan

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


# A NamedTuple's own ``__new__`` is a Python function; ``tuple.__new__``
# builds the same Phase in C.
_new = tuple.__new__
_START = attrgetter("start")


def simulate(seq: QuerySequence, plan: Plan, profile: DeviceProfile) -> Timeline:
    """Execute the plan and return its timeline (phases plus makespan).

    The plan is checked through :func:`rpusim.plans.check_plan`; the walk
    reads each query's RPU order and boundary mode off the plan, as the
    cost fold does.
    """
    plan = check_plan(plan, seq)
    t_reconfig, r_scan, r_acc = profile.t_reconfig, profile.r_scan, profile.r_acc
    r_network, c_dbms = profile.r_network, profile.c_dbms
    # Each phase starts at its release time ``at``: its resource is free by
    # then (see the module docstring), and a phase of zero length is not kept.
    phases: list[Phase] = []
    loaded: str | None = None
    tail = handoff = 0.0  # the first query's gap is 0, so it arrives at 0

    for q, order, mode, gap in zip(seq.queries, plan.rpu_order, (_BASELINE, *plan.modes), (0.0, *seq.gaps)):
        qid, size = q.id, q.table.size_mb
        arrival = tail + gap
        if arrival > tail:
            phases.append(_new(Phase, (_IDLE, "gap", GAP_QUERY, tail, arrival)))

        lead = 0.0  # with no leading reconfiguration, it raises no max() below
        if order and loaded != order[0]:
            # BASELINE releases it at the query's arrival; HOLD and
            # SPECULATIVE the moment the predecessor hands the PR over
            at = arrival if mode is _BASELINE else handoff
            lead = at + t_reconfig
            if lead > at:
                phases.append(_new(Phase, (_PR, "reconfig", qid, at, lead)))
        at = max(arrival, lead) if mode is _HOLD else arrival
        work = scan = at + size / r_scan
        if scan > at:
            phases.append(_new(Phase, (_SCAN, "scan", qid, at, scan)))

        if order:
            by_id = q._ops_by_id
            at = max(scan, lead)
            for k, op_id in enumerate(order):
                if k:
                    # each further accelerator reconfigures after the last one
                    end = work + t_reconfig
                    if end > work:
                        phases.append(_new(Phase, (_PR, "reconfig", qid, work, end)))
                    at = end  # no max(): end >= work, and work >= scan
                work = at + size / r_acc
                if work > at:
                    phases.append(_new(Phase, (_PR, "acc-exec", qid, at, work)))
                size *= by_id[op_id].selectivity
            loaded = order[-1]

        handoff = work
        tail = work + size / r_network
        if tail > work:
            phases.append(_new(Phase, (_NET, "transfer", qid, work, tail)))
        for op in _host_ops(q, order):
            at = tail
            tail = at + c_dbms * size
            if tail > at:
                phases.append(_new(Phase, (_DBMS, "dbms", qid, at, tail)))
            size *= op.selectivity

    makespan = tail  # no phase ends after the last query's completion
    if not math.isfinite(makespan):
        raise NonFiniteResultError(f"simulated makespan overflows: {makespan!r} ms")
    phases.sort(key=_START)  # stable: ties keep release order, which is name order
    return Timeline(phases=tuple(phases), makespan=makespan)


# Phases that tie on start and end sort by label, so a conflict between
# them names its labels in the same order whatever the input order.  -0.0
# ties with 0.0, so messages print each time as ``t + 0.0``, which is 0.0.
_ORDER, _END = attrgetter("start", "end", "label"), attrgetter("end")


def validate_timeline(timeline: Timeline) -> list[Violation]:
    """Check a timeline's structural rules; empty result means ok.

    Each phase whose start or end is not finite, or that ends before it
    starts, is reported under its input index ``phases[i]``.  Every other
    rule reads one copy of the phases with finite times, sorted by start,
    end and label, so the order of the input does not change the result:

    * phases on one resource do not overlap (resources are reported in
      order of first appearance in the sorted copy);
    * a query's first accelerator starts once its scan has ended;
    * its first transfer starts once its last accelerator (or, with none,
      its scan) has ended;
    * its first host filter starts once its last transfer has ended;
    * the makespan equals the largest phase end (0 for no phases).
    """
    phases = timeline.phases
    # ``not start <= end`` also holds for a NaN time, which would make the
    # sort depend on input order; an infinite time shows as the first start
    # or the max end.  Only then is each phase's time classified.
    reversed_or_nan = [i for i, p in enumerate(phases) if not p.start <= p.end]
    ordered = [] if reversed_or_nan else sorted(phases, key=_ORDER)
    max_end = max(map(_END, ordered), default=0.0)
    out: list[Violation] = []
    if reversed_or_nan or (ordered and (ordered[0].start == -math.inf or max_end == math.inf)):
        ordered = []
        for i, p in enumerate(phases):
            if not (math.isfinite(p.start) and math.isfinite(p.end)):
                out.append(Violation(f"phases[{i}]", f"non-finite time [{p.start}, {p.end})"))
                continue
            if not p.start <= p.end:
                out.append(Violation(f"phases[{i}]", f"end {p.end} before start {p.start}"))
            ordered.append(p)
        ordered.sort(key=_ORDER)
        max_end = max(map(_END, ordered), default=0.0)
    # reconfig and acc-exec share Resource.PR, so the per-resource check
    # reports every PR exclusivity breach, overlapping accelerators included.
    by_resource: dict[Resource, list[Phase]] = {}
    by_query: dict[str, list[Phase]] = {}
    for p in ordered:
        by_resource.setdefault(p.resource, []).append(p)
        if p.resource is not _IDLE:  # a gap belongs to no query, whatever a query's id
            by_query.setdefault(p.query, []).append(p)
    for resource, group in by_resource.items():
        for a, b in zip(group, group[1:]):
            if b.start < a.end:
                out.append(
                    Violation(
                        f"resource {resource.value}",
                        f"{resource.value} conflict: {a.label} [{a.start + 0.0}, {a.end + 0.0}) "
                        f"overlaps {b.label} [{b.start + 0.0}, {b.end + 0.0})",
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
        if scan_end is not None and accs and accs[0].start < scan_end:
            out.append(Violation(f"query {qid}", "acc-exec started before scan finished"))
        if trans:
            work_end = accs[-1].end if accs else scan_end
            if work_end is not None and trans[0].start < work_end:
                out.append(Violation(f"query {qid}", "transfer started before the last RPU phase"))
            if dbms and dbms[0].start < trans[-1].end:
                out.append(Violation(f"query {qid}", "dbms started before transfer finished"))

    if timeline.makespan != max_end:
        out.append(
            Violation("makespan", f"makespan {timeline.makespan + 0.0} != max phase end {max_end + 0.0}")
        )
    return out


def timeline_csv(timeline: Timeline) -> str:
    """Render the timeline as CSV, sorted by start time then resource."""
    rows = sorted(timeline.phases, key=lambda p: (p.start, p.resource.value))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")  # quotes an id with a comma, quote or line break
    writer.writerow(("resource", "label", "query", "start_ms", "end_ms"))
    writer.writerows((p.resource.value, p.label, p.query, f"{p.start:.6f}", f"{p.end:.6f}") for p in rows)
    return out.getvalue()
