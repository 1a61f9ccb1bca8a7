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
order, whatever the PR holds, and :func:`boundary` joins a query to the
state its predecessor leaves, under each mode.  They are the single-step
definitions; the device policy (:func:`rpusim.planner.rpu_policy`) weighs
its two options with them.  Two loops spell :func:`boundary` out inline,
with its float operations in its order, and the tests pin each to the
single-step definitions bit for bit: :func:`_fold`, which
:func:`plan_cost` runs, and the point fold of :func:`_sweep_fold`, which
:func:`rpusim.sweep.run_sweep` runs per grid point, in every swept
variable, on plans lowered once.  Each copy is kept for measured speed:
with gap points folded through the point fold and sweep rows built as a
``NamedTuple``, the short-seq benchmark's ``items_per_s`` read a median
13 275 against 12 908 for gap-only boundary sums and rows built field
by field (ten alternating 30 s pairs, ten won, on a shared 2-vCPU host).
:func:`_fold` returns a bare total, and fills a per-query list only
when its caller passes one: :func:`plan_cost` passes one, and builds the
:class:`CostBreakdown`, only when every boundary is BASELINE, because only
then does the total decompose per query.  It keeps each breakdown in the
sequence's memo by ``(plan, profile)``, so on one sequence object a plan
is costed once per device profile; a total that overflows is not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import NonFiniteResultError
from .model import DeviceProfile, FilterOp, Mode, Plan, Query, QuerySequence
from .plans import _host_ops, check_plan


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
_OVERFLOW = "plan cost overflows: total {!r} ms"


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
    The plan is checked through :func:`rpusim.plans.check_plan`.  This
    function builds the breakdown from :func:`_fold`'s total, with
    per-query times only when every boundary is BASELINE.  The
    breakdown is kept in the sequence's memo by ``(plan, profile)``; a total
    that overflows is not kept and raises on every call.
    """
    memo = seq._memo
    key = (plan, profile)
    breakdown = memo.get(key)
    if breakdown is None:
        checked = check_plan(plan, seq)
        modes = checked.modes
        per_query = None if _HOLD in modes or _SPECULATIVE in modes else []
        total = _fold(checked, seq, profile, per_query)
        breakdown = memo[key] = CostBreakdown(total, () if per_query is None else tuple(per_query))
    return breakdown


def _fold(
    plan: Plan,
    seq: QuerySequence,
    profile: DeviceProfile,
    per_query: list[tuple[str, float]] | None = None,
) -> float:
    """Total ms of a plan already checked against ``seq``.  When
    ``per_query`` is given, each query's id and time is appended to it; it
    only sums to the total when every boundary is BASELINE.  The caller
    builds any breakdown (:func:`plan_cost` does).
    Raises :class:`NonFiniteResultError` when the total overflows.

    The loop makes no call per query: each query's scan, body and tail
    are :func:`order_facts` and each boundary is :func:`boundary`, both
    spelled out with the same float operations in the same order (each
    ``max(a, b)`` as ``b if b > a else a``, so ``a`` wins ties as it does
    in ``max``)."""
    t_reconfig, r_scan, r_acc = profile.t_reconfig, profile.r_scan, profile.r_acc
    r_network, c_dbms = profile.r_network, profile.c_dbms
    total = prev_tail = 0.0
    loaded: str | None = None
    for q, order, mode, gap in zip(seq.queries, plan.rpu_order, (_BASELINE, *plan.modes), (0.0, *seq.gaps)):
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
        tail = trans + dbms
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
        raise NonFiniteResultError(_OVERFLOW.format(total))
    return total


def _sweep_fold(
    plans: Sequence[Plan], seq: QuerySequence, profile: DeviceProfile, variable: str
) -> Callable[[float], list[float]]:
    """A function from a grid point's value to the totals of ``plans``,
    each checked against ``seq``, in a sweep of ``variable`` (``"scale"``,
    ``"selectivity"`` or ``"gap"``).

    Each total is the one :func:`_fold` gives for the plan over the point's
    variant of ``seq`` (:mod:`rpusim.sweep`'s transform), bit for bit;
    the caller checks that the variant would be valid.  The function
    raises :class:`NonFiniteResultError` at the first plan, in order,
    whose total overflows.

    Each plan is lowered once, per query, to what no swept value changes:
    its table size, the selectivities it streams and those of the ops
    :func:`rpusim.plans._host_ops` says the host runs, its leading
    reconfiguration ``lead``, which reads only op ids, its mode and its
    gap.  A point then runs :func:`_fold`'s float operations, in its
    order, on that record:

    * a scale point multiplies each table size by the value.  The variant
      stores ``size_mb * factor``, the very product computed here;
    * a selectivity point multiplies each stream size by the value where
      :func:`_fold` multiplies by an op's selectivity.  The variant's ops
      hold that same float;
    * a gap point folds the record at scale ``1.0`` (``x * 1.0 == x`` for
      every float) with the value as every gap after the first.  The
      variant's gaps hold that same float, and a gap is only ever added
      to a tail.
    """
    t_reconfig, r_scan, r_acc = profile.t_reconfig, profile.r_scan, profile.r_acc
    r_network, c_dbms = profile.r_network, profile.c_dbms
    lowered = []
    gaps = (0.0, *seq.gaps)
    for plan in plans:
        record = []
        loaded: str | None = None
        for q, order, mode, gap in zip(seq.queries, plan.rpu_order, (_BASELINE, *plan.modes), gaps):
            by_id = q._ops_by_id
            if order:
                lead = t_reconfig if loaded != order[0] else 0.0
                loaded = order[-1]
            else:
                lead = 0.0
            host_ops = _host_ops(q, order)
            # most orders push every op down: skip the comprehension, a call even when empty
            host = tuple([op.selectivity for op in host_ops]) if host_ops else ()
            pushed = tuple([by_id[op_id].selectivity for op_id in order])
            record.append((q.table.size_mb, pushed, host, lead, mode, gap))
        lowered.append(record)

    def fold(record, scale: float, common: float | None, swept: float | None) -> float:
        """A lowered plan's total, unchecked; ``common``, when not
        ``None``, stands for every selectivity, and ``swept`` for every
        gap after the first."""
        total = prev_tail = 0.0
        later = None  # ``swept``, from the second query on
        for size, pushed, host, lead, mode, gap in record:
            if later is not None:
                gap = later
            size *= scale
            scan = size / r_scan
            body = reconfig = 0.0
            for selectivity in pushed:
                body += reconfig
                body += size / r_acc
                size *= selectivity if common is None else common
                reconfig = t_reconfig
            trans = size / r_network
            dbms = 0.0
            for selectivity in host:
                dbms += c_dbms * size
                size *= selectivity if common is None else common
            tail = trans + dbms
            if mode is _BASELINE:
                total += prev_tail + gap + (scan if scan > lead else lead) + body
            elif mode is _HOLD:
                ready = prev_tail + gap
                total += (ready if ready > lead else lead) + scan + body
            else:  # SPECULATIVE
                ready = prev_tail + gap + scan
                total += (ready if ready > lead else lead) + body
            prev_tail = tail
            later = swept
        return total + prev_tail

    if variable == "scale":
        return lambda value: _finite([fold(record, value, None, None) for record in lowered])
    if variable == "selectivity":
        return lambda value: _finite([fold(record, 1.0, value, None) for record in lowered])
    return lambda value: _finite([fold(record, 1.0, None, value) for record in lowered])


def _finite(totals: list[float]) -> list[float]:
    """``totals``, unless one overflows: the first that does raises."""
    for total in totals:
        if not math.isfinite(total):
            raise NonFiniteResultError(_OVERFLOW.format(total))
    return totals


def improvement(candidate_total: float, baseline_total: float) -> float:
    """Relative time saving of ``candidate_total`` over ``baseline_total``, in percent.

    Negative when the candidate is slower.  A non-finite total or saving
    raises :class:`NonFiniteResultError`.
    """
    if not baseline_total > 0.0:
        raise ValueError(f"baseline total must be > 0, got {baseline_total!r}")
    pct = 100.0 * (1.0 - candidate_total / baseline_total)  # not finite if candidate_total is not
    if not (math.isfinite(pct) and math.isfinite(baseline_total)):
        raise NonFiniteResultError(
            f"improvement of {candidate_total!r} over {baseline_total!r} ms is not finite"
        )
    return pct
