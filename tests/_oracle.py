"""Independent closed-form oracle for the two-query reference shape.

Transcribes each strategy's serial/overlap time composition directly, one
expression per strategy, without importing anything from the package under
test.  Used by the unit and acceptance suites as the reference the library
must reproduce.

It also keeps the original two-pass ``normalize_query`` (strings, then
numbers, then a per-word keyword lambda), verbatim, as the reference the
miner's one-pass normalizer must reproduce for every input; it raises the
package's ``MiningError`` on empty text, as the original did.

Shape covered: Q0 scans a table of ``s0`` MB through two filter accelerators
(selectivities ``f0`` then ``f1``), Q1 scans ``s1`` MB through one filter
(``f2``) whose accelerator is the same unit as Q0's first one.

Last, it keeps the position-indexed simulator, verbatim, as
``reference_simulate``: each phase names its dependencies by the positions
at which earlier phases were added, and the makespan is the largest end.
The simulator that carries each dependency as an end time must reproduce
its timelines bit for bit.  The reference still checks that each
dependency is listed before its phase and that each phase's resource is
free at its release, raising its own ``SchedulingError``; the simulator
keeps neither check, since no checked plan of a valid sequence fails one.

And it keeps the ``Step``-walking cost fold, verbatim, as
``reference_fold``: it costs a plan lowered into per-query steps, calling
``order_facts`` at every step.  ``plan_cost``, which folds the plan's
orders and modes in one flat loop, must reproduce its total and
per-query times bit for bit.  The oracle lowers plans itself,
in ``lower_plan``, for both references: it checks the plan through
``check_plan`` first, so an illegal plan raises, then resolves each
query's order into its streamed ops and, by its own comprehension, its
host ops.

Last, it keeps the two-set walk of ``validate_sequence``, verbatim, as
``reference_validate_sequence``: it visits every gap, query and op and
appends each broken invariant as it goes.  ``validate_sequence``, which
walks once too but builds those sets only when some id repeats, must
return the same violations in the same order for every sequence, clean or
not.
"""

from __future__ import annotations

import math
import numbers
import re

from typing import NamedTuple, Sequence

from rpusim.cost import CostBreakdown, boundary, order_facts
from rpusim.errors import MiningError, NonFiniteResultError, RpusimError
from rpusim.model import DeviceProfile, FilterOp, Mode, Plan, Query, QuerySequence, Violation
from rpusim.plans import check_plan
from rpusim.simulate import GAP_QUERY, Phase, Resource, Timeline


def strategy_totals(
    s0: float,
    f0: float,
    f1: float,
    s1: float,
    f2: float,
    gap: float,
    *,
    t_r: float = 15.0,
    r_scan: float = 1.0,
    r_acc: float = 1.5,
    r_net: float = 0.08,
    c_dbms: float = 0.03,
) -> dict[str, float]:
    """Total sequence times (ms) for all five strategies on the 2-query shape."""
    scan0 = s0 / r_scan
    scan1 = s1 / r_scan
    inter = s0 * f0          # after Q0's first filter
    res0 = inter * f1        # after both Q0 filters
    res1 = s1 * f2

    # Full pushdown, no lookahead: reconfigure per operator, again at Q1.
    t_q0_s = max(t_r, scan0) + s0 / r_acc + t_r + inter / r_acc + res0 / r_net
    t_q1_s = max(t_r, scan1) + s1 / r_acc + res1 / r_net
    total_s = t_q0_s + gap + t_q1_s

    # Q1 reuses the accelerator left loaded, so it runs reconfiguration-free.
    t_q1_reuse = scan1 + s1 / r_acc + res1 / r_net

    # Push only the first filter; second runs on the host after transfer.
    t_q0_i = max(t_r, scan0) + s0 / r_acc + inter / r_net + c_dbms * inter
    total_i = t_q0_i + gap + t_q1_reuse

    # Push only the second filter; reload of Q1's accelerator overlaps the
    # transfer, host filtering, and the gap, and gates Q1's start.
    after1 = s0 * f1
    total_ii = (
        max(t_r, scan0)
        + s0 / r_acc
        + max(t_r, after1 / r_net + c_dbms * after1 + gap)
        + t_q1_reuse
    )

    # Full pushdown plus a speculative reload started when Q0's second
    # accelerator finishes, overlapping transfer, gap, and Q1's scan.
    total_iii = (
        max(t_r, scan0)
        + s0 / r_acc
        + t_r
        + inter / r_acc
        + max(t_r, res0 / r_net + gap + scan1)
        + s1 / r_acc
        + res1 / r_net
    )

    # Swapped filter order in Q0 so its final accelerator is the one Q1 needs.
    inter_iv = s0 * f1
    total_iv = (
        max(t_r, scan0)
        + s0 / r_acc
        + t_r
        + inter_iv / r_acc
        + inter_iv * f0 / r_net
        + gap
        + t_q1_reuse
    )

    return {"S": total_s, "I": total_i, "II": total_ii, "III": total_iii, "IV": total_iv}


def improvement_pct(candidate: float, baseline: float) -> float:
    return 100.0 * (1.0 - candidate / baseline)


_SQL_KEYWORDS = frozenset(
    """
    select from where and or not in is null like between group by order having
    limit offset join inner left right outer on as distinct union all exists
    insert into values update set delete case when then else end asc desc
    """.split()
)

_STRING_RE = re.compile(r"'(?:[^']|'')*'|\"[^\"]*\"")
_NUMBER_RE = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def normalize_query(text: str) -> str:
    """Canonical template of a query: constants -> ``?``, keywords lowercased."""
    if not text.strip():
        raise MiningError("empty query text")
    t = _STRING_RE.sub("?", text)
    t = _NUMBER_RE.sub("?", t)
    t = " ".join(t.split())
    return _WORD_RE.sub(
        lambda m: m.group(0).lower() if m.group(0).lower() in _SQL_KEYWORDS else m.group(0),
        t,
    )


_RANK = {r: rank for rank, r in enumerate(sorted(Resource, key=lambda r: r.value))}
_SCAN, _PR, _NET, _DBMS, _IDLE = Resource.SCAN, Resource.PR, Resource.NET, Resource.DBMS, Resource.IDLE
_BASELINE, _HOLD = Mode.BASELINE, Mode.HOLD


class SchedulingError(RpusimError):
    """A phase depends on a task not listed before it, or is released while
    its resource is busy.  The package's simulator has no such error: no
    checked plan of a valid sequence can bring either about."""


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


class Step(NamedTuple):
    """One query of a lowered plan, in sequence order."""

    query: Query
    rpu: tuple[FilterOp, ...]   # RPU-placed operators, in streaming order
    host: tuple[FilterOp, ...]  # host-placed operators, in declared order
    mode: Mode                  # boundary with the predecessor (BASELINE first)


def lower_plan(plan: Plan, seq: QuerySequence) -> tuple[Step, ...]:
    """Check a plan against ``seq`` and lower it into per-query steps."""
    check_plan(plan, seq)
    steps = []
    for q, order, mode in zip(seq.queries, plan.rpu_order, (Mode.BASELINE, *plan.modes)):
        rpu = tuple(q._ops_by_id[op_id] for op_id in order)
        host = tuple(op for op in q.ops if op.id not in order)
        steps.append(Step(q, rpu, host, mode))
    return tuple(steps)


def reference_simulate(seq: QuerySequence, plan: Plan, profile: DeviceProfile) -> Timeline:
    """Execute the plan and return its timeline (phases plus makespan)."""
    schedule = _Schedule()
    add = schedule.add
    loaded: str | None = None
    prev_completion = prev_pr_free = -1  # set before any boundary reads them

    for i, step in enumerate(lower_plan(plan, seq)):
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


def reference_fold(steps: Sequence[Step], gaps: Sequence[float], profile: DeviceProfile) -> CostBreakdown:
    """:func:`plan_cost` of a plan already lowered into ``steps``; ``gaps``
    are the sequence's.  Raises :class:`NonFiniteResultError` when the total
    overflows."""
    t_reconfig = profile.t_reconfig
    separable = all(step.mode is _BASELINE for step in steps)
    total = prev_tail = 0.0
    per_query: list[tuple[str, float]] = []
    loaded: str | None = None
    for (q, rpu, host, mode), gap in zip(steps, (0.0, *gaps)):
        scan, body, tail = order_facts(q, rpu, host, profile)
        lead = t_reconfig if rpu and loaded != rpu[0].id else 0.0
        total += boundary(mode, lead, scan, prev_tail, gap) + body
        if separable:
            per_query.append((q.id, max(lead, scan) + body + tail))
        prev_tail = tail
        if rpu:
            loaded = rpu[-1].id
    total += prev_tail
    if not math.isfinite(total):
        raise NonFiniteResultError(f"plan cost overflows: total {total!r} ms")
    return CostBreakdown(total=total, per_query=tuple(per_query))


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def reference_validate_sequence(seq: QuerySequence) -> list[Violation]:
    """Every broken model invariant of ``seq``, in walk order.  A bool is
    not a real number here."""
    out: list[Violation] = []
    n = len(seq.queries)
    if n < 2:
        out.append(Violation("sequence.queries", f"sequence needs >= 2 queries, got {n}"))
    if len(seq.gaps) != max(n - 1, 0):
        out.append(
            Violation(
                "sequence.gaps",
                f"gap count {len(seq.gaps)} does not match queries - 1 = {n - 1}",
            )
        )
    for i, g in enumerate(seq.gaps):
        if not _real(g):
            out.append(Violation(f"sequence.gaps[{i}]", f"gap must be a real number, got {g!r}"))
        elif not math.isfinite(g):
            out.append(Violation(f"sequence.gaps[{i}]", f"non-finite gap {g}"))
        elif g < 0:
            out.append(Violation(f"sequence.gaps[{i}]", f"negative gap {g}"))

    seen_ids: set[str] = set()
    for qi, q in enumerate(seq.queries):
        if q.id in seen_ids:
            out.append(Violation(f"queries[{qi}]", f"duplicate query id {q.id!r} in sequence"))
        seen_ids.add(q.id)
        if not _real(q.table.size_mb):
            out.append(Violation(f"queries[{qi}].table", f"table size must be a real number, got {q.table.size_mb!r}"))
        elif not math.isfinite(q.table.size_mb):
            out.append(Violation(f"queries[{qi}].table", f"non-finite table size {q.table.size_mb}"))
        elif q.table.size_mb < 0:
            out.append(Violation(f"queries[{qi}].table", f"negative table size {q.table.size_mb}"))
        if not q.ops:
            out.append(Violation(f"queries[{qi}].ops", "query has no operators"))
        op_ids: set[str] = set()
        for oi, op in enumerate(q.ops):
            if op.id in op_ids:
                out.append(Violation(f"queries[{qi}].ops[{oi}]", f"duplicate op id {op.id!r} within query"))
            op_ids.add(op.id)
            if not _real(op.selectivity):
                out.append(Violation(
                    f"queries[{qi}].ops[{oi}].selectivity",
                    f"selectivity must be a real number, got {op.selectivity!r}",
                ))
            elif not 0.0 <= op.selectivity <= 1.0:
                out.append(Violation(
                    f"queries[{qi}].ops[{oi}].selectivity",
                    f"selectivity range: {op.selectivity} outside [0, 1]",
                ))
    return out
