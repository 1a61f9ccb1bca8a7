"""Closed-form execution times for any legal plan.

Phase durations are pure streaming arithmetic: a phase moving ``s`` MB
through a stage rated ``r`` MB/ms takes ``s / r`` ms, host filtering costs a
calibrated constant per MB of input, and each filter shrinks its stream by
its selectivity.

A sequence total is assembled left to right out of three kinds of segments:

* query head: the first reconfiguration (if the needed accelerator is not
  already loaded) runs in parallel with the table scan, so it contributes
  ``max(t_reconfig, t_scan)``; every further operator adds its own
  reconfiguration and execution serially, because the PR cannot reconfigure
  while an accelerator is executing.
* query tail: result transfer, then host-side filtering of whatever was not
  pushed down.
* pair boundary: the gap sits between the predecessor's completion and the
  successor's arrival; the boundary's mode (:class:`rpusim.model.Mode`)
  decides what the successor's leading reconfiguration hides behind.

:func:`order_facts` gives a query's scan, body and tail under one operator
order; they do not depend on what the PR holds.  :func:`boundary` is the
one formula of the three modes: it joins a query to the state its
predecessor leaves.  The two are the single-step definitions: the device
policy (:func:`rpusim.planner.rpu_policy`) weighs its two options with
them.  :func:`plan_cost` folds a checked plan's positional orders and
modes in :func:`_fold`, one flat loop that spells both out inline, with
the same float operations in the same order: each query's facts, read
from a facts table, plus the boundary its mode names.  The tests pin the
fold bit for bit to a fold that calls the two functions at every step.
:func:`_fold` returns a bare total, and fills a per-query
list only when its caller passes one: :func:`plan_cost` passes one, and
builds the :class:`CostBreakdown`, only when every boundary is BASELINE,
because only then does the total decompose per query.  A sweep
(:func:`rpusim.sweep.run_sweep`) folds each plan to its total alone.

The facts table maps a (query position, order of op ids) pair to that
query's ``order_facts``.  The strategy plans of one sequence share most of
their orders, so each fact is computed once and read by every plan that
streams that order at that position.  :func:`plan_cost` keeps one table
per device profile in the sequence's memo, keyed by the profile, and each
breakdown by ``(plan, profile)``, so on one sequence object a plan is
costed once per device profile; a total that overflows is not kept, but
the facts it read are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import NonFiniteResultError
from .model import DeviceProfile, FilterOp, Mode, Plan, Query, QuerySequence
from .plans import check_plan


def filtered_size(input_size: float, selectivity: float) -> float:
    """Output size (MB) of one filter over an input of ``input_size`` MB."""
    if input_size < 0:
        raise ValueError(f"input size must be >= 0, got {input_size!r}")
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError(f"selectivity must be in [0, 1], got {selectivity!r}")
    return input_size * selectivity


@dataclass(frozen=True)
class AccStep:
    """One accelerator execution: identity, duration, and stream sizes."""

    op_id: str
    time_ms: float
    input_mb: float
    output_mb: float


@dataclass(frozen=True)
class PhaseTimes:
    """Data-dependent phase durations of one query under one placement.

    Reconfigurations are not included here; they depend on device state and
    are accounted for by :func:`plan_cost` / the simulator.
    """

    scan: float
    acc: tuple[AccStep, ...]
    trans: float
    dbms: float


def phase_times(
    query: Query,
    rpu: Sequence[FilterOp],
    host: Sequence[FilterOp],
    profile: DeviceProfile,
) -> PhaseTimes:
    """Scan, per-accelerator, transfer, and host times for one query.

    ``rpu`` lists the RPU-placed operators in streaming order; ``host``
    lists the host-placed ones, which run in that order after the transfer,
    each charged per MB of its own input.
    """
    size = query.table.size_mb
    steps = []
    for op in rpu:
        out = filtered_size(size, op.selectivity)
        steps.append(AccStep(op_id=op.id, time_ms=size / profile.r_acc, input_mb=size, output_mb=out))
        size = out
    trans = size / profile.r_network
    dbms = 0.0
    for op in host:
        dbms += profile.c_dbms * size
        size = filtered_size(size, op.selectivity)
    return PhaseTimes(query.table.size_mb / profile.r_scan, tuple(steps), trans, dbms)


@dataclass(frozen=True)
class CostBreakdown:
    """Total sequence time and, where separable, the per-query times."""

    total: float
    per_query: tuple[tuple[str, float], ...] = field(default_factory=tuple)


# Reading an Enum member off its class is slow; the fold reads these per step.
_BASELINE, _HOLD, _SPECULATIVE = Mode.BASELINE, Mode.HOLD, Mode.SPECULATIVE


def boundary(mode: Mode, lead: float, scan: float, prev_tail: float, gap: float) -> float:
    """Ms from the end of the predecessor's body to the end of the successor's
    head, with the successor's leading reconfiguration ``lead`` (0 when its
    first accelerator is already loaded) released as ``mode`` says.  ``scan``
    is the successor's table scan, ``prev_tail`` the predecessor's transfer
    plus host work.
    """
    if mode is _BASELINE:
        return prev_tail + gap + max(lead, scan)
    if mode is _HOLD:
        return max(lead, prev_tail + gap) + scan
    return max(lead, prev_tail + gap + scan)  # SPECULATIVE


def order_facts(
    query: Query, rpu: Iterable[FilterOp], host: Iterable[FilterOp], profile: DeviceProfile
) -> tuple[float, float, float]:
    """What one query costs under one operator order, whatever the PR holds.

    Returns its table scan, its body (every accelerator's execution, and
    the reconfiguration of each after the first: the first one's is the
    boundary's ``lead``) and its tail (transfer plus host work).
    """
    size = query.table.size_mb
    scan = size / profile.r_scan
    body = 0.0
    for k, op in enumerate(rpu):
        if k > 0:
            body += profile.t_reconfig
        body += size / profile.r_acc
        size *= op.selectivity
    trans = size / profile.r_network
    dbms = 0.0
    for op in host:
        dbms += profile.c_dbms * size
        size *= op.selectivity
    return scan, body, trans + dbms


def plan_cost(seq: QuerySequence, plan: Plan, profile: DeviceProfile) -> CostBreakdown:
    """Total execution time of the sequence under the plan.

    The clock runs from the first query's arrival to the last query's
    completion (final transfer plus any host filtering), gaps included.
    The first query arrives at a BASELINE boundary with no tail and no gap.
    The plan is checked through :func:`rpusim.plans.check_plan`, and not
    lowered.  This function builds the breakdown from :func:`_fold`'s total,
    with per-query times only when every boundary is BASELINE.  The
    breakdown is kept in the sequence's memo by ``(plan, profile)``; a total
    that overflows is not kept and raises on every call.
    """
    memo = seq._memo
    key = (plan, profile)
    breakdown = memo.get(key)
    if breakdown is None:
        facts = memo.get(profile)
        if facts is None:
            facts = memo[profile] = _new_facts(seq.queries)
        checked = check_plan(plan, seq)
        modes = checked.modes
        per_query = None if _HOLD in modes or _SPECULATIVE in modes else []
        total = _fold(checked, seq.queries, seq.gaps, profile, facts, per_query)
        breakdown = memo[key] = CostBreakdown(total, () if per_query is None else tuple(per_query))
    return breakdown


#: A facts table: per query position, each order of op ids streamed there
#: mapped to that query's ``order_facts``.
_Facts = list[dict[tuple[str, ...], tuple[float, float, float]]]


def _new_facts(queries: Sequence[Query]) -> _Facts:
    """An empty facts table for ``queries``."""
    return [{} for _ in queries]


def _fold(
    plan: Plan,
    queries: Sequence[Query],
    gaps: Sequence[float],
    profile: DeviceProfile,
    facts: _Facts,
    per_query: list[tuple[str, float]] | None = None,
) -> float:
    """Total ms of a plan already checked against ``queries``; ``gaps`` are
    the sequence's.  ``facts`` is the facts table of these queries under
    ``profile``: a missing fact is computed and added.  When ``per_query``
    is given, each query's id and time is appended to it; it only sums to
    the total when every boundary is BASELINE.  The caller builds any
    breakdown (:func:`plan_cost` does).  Raises
    :class:`NonFiniteResultError` when the total overflows.

    The loop makes no call per query: a missing fact is
    :func:`order_facts` and each boundary is :func:`boundary`, both
    spelled out with the same float operations in the same order (each
    ``max(a, b)`` as ``b if b > a else a``, so ``a`` wins ties as it does
    in ``max``)."""
    t_reconfig, r_scan, r_acc = profile.t_reconfig, profile.r_scan, profile.r_acc
    r_network, c_dbms = profile.r_network, profile.c_dbms
    total = prev_tail = 0.0
    loaded: str | None = None
    for q, order, mode, gap, known in zip(queries, plan.rpu_order, (_BASELINE, *plan.modes), (0.0, *gaps), facts):
        fact = known.get(order)
        if fact is None:
            size = q.table.size_mb
            scan = size / r_scan
            # the first op adds a reconfiguration of 0.0 to a body of 0.0,
            # which leaves it 0.0: order_facts skips that addition
            body = reconfig = 0.0
            by_id = q._ops_by_id
            for op_id in order:
                body += reconfig
                body += size / r_acc
                size *= by_id[op_id].selectivity
                reconfig = t_reconfig
            trans = size / r_network
            dbms = 0.0
            ops = q.ops
            # legal orders list distinct ops of the query, so equal lengths
            # mean every op is pushed down
            if len(order) != len(ops):
                for op in ops:
                    if op.id not in order:
                        dbms += c_dbms * size
                        size *= op.selectivity
            fact = known[order] = (scan, body, trans + dbms)
        scan, body, tail = fact
        if order:
            lead = t_reconfig if loaded != order[0] else 0.0
            loaded = order[-1]
        else:
            lead = 0.0
        if mode is _BASELINE:
            total += prev_tail + gap + (scan if scan > lead else lead) + body
        elif mode is _HOLD:
            ready = prev_tail + gap
            total += (ready if ready > lead else lead) + scan + body
        else:  # SPECULATIVE
            ready = prev_tail + gap + scan
            total += (ready if ready > lead else lead) + body
        if per_query is not None:
            per_query.append((q.id, (scan if scan > lead else lead) + body + tail))
        prev_tail = tail
    total += prev_tail
    if not math.isfinite(total):
        raise NonFiniteResultError(f"plan cost overflows: total {total!r} ms")
    return total


def improvement(candidate: CostBreakdown, baseline: CostBreakdown) -> float:
    """Relative time saving of ``candidate`` over ``baseline``, in percent.

    Negative when the candidate is slower.  A non-finite total or saving
    raises :class:`NonFiniteResultError`.
    """
    return _improvement(candidate.total, baseline.total)


def _improvement(candidate_total: float, baseline_total: float) -> float:
    """:func:`improvement` of two bare totals, with the same checks and
    messages."""
    if not baseline_total > 0.0:
        raise ValueError(f"baseline total must be > 0, got {baseline_total!r}")
    pct = 100.0 * (1.0 - candidate_total / baseline_total)  # not finite if candidate_total is not
    if not (math.isfinite(pct) and math.isfinite(baseline_total)):
        raise NonFiniteResultError(
            f"improvement of {candidate_total!r} over {baseline_total!r} ms is not finite"
        )
    return pct
