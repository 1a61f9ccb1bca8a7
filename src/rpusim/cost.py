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
  BASELINE releases it at arrival, so it overlaps only the successor's own
  scan.  HOLD releases it the moment the predecessor's last accelerator
  finishes, hiding it behind transfer + host work + gap, and the successor
  starts once the PR is ready.  SPECULATIVE releases it at the same moment
  but also lets the successor's scan run during the reload, hiding it
  behind transfer + gap + scan.

The per-query times are reported separately only when every boundary is
BASELINE, because only then does the total decompose per query.
:func:`plan_cost` folds the terms of :func:`phase_times` (the per-query
report) in place, adding them in the same order without building per-query
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .model import DeviceProfile, FilterOp, Mode, Plan, Query, QuerySequence
from .plans import compile_plan


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


def plan_cost(seq: QuerySequence, plan: Plan, profile: DeviceProfile) -> CostBreakdown:
    """Total execution time of the sequence under the plan.

    The clock runs from the first query's arrival to the last query's
    completion (final transfer plus any host filtering), gaps included.
    """
    steps = compile_plan(plan, seq)
    t_reconfig, r_scan, r_acc = profile.t_reconfig, profile.r_scan, profile.r_acc
    r_network, c_dbms, gaps = profile.r_network, profile.c_dbms, seq.gaps
    separable = plan.modes.count(Mode.BASELINE) == len(plan.modes)
    total = 0.0
    per_query: list[tuple[str, float]] = []
    loaded: str | None = None
    prev_tail = 0.0

    for i, (q, rpu, host, mode) in enumerate(steps):
        size = q.table.size_mb
        scan = size / r_scan
        lead = t_reconfig if rpu and loaded != rpu[0].id else 0.0
        head = max(lead, scan)

        body = 0.0
        for k, op in enumerate(rpu):
            if k > 0:
                body += t_reconfig
            body += size / r_acc
            size = filtered_size(size, op.selectivity)

        trans = size / r_network
        dbms = 0.0
        for op in host:
            dbms += c_dbms * size
            size = filtered_size(size, op.selectivity)
        tail = trans + dbms

        if i == 0:
            total += head + body
        elif mode is Mode.HOLD:
            # Reload hidden behind transfer + host work + gap; the
            # successor starts once the PR is ready.
            total += max(lead, prev_tail + gaps[i - 1]) + scan + body
        elif mode is Mode.SPECULATIVE:
            # Reload hidden behind transfer + gap + the successor's scan.
            total += max(lead, prev_tail + gaps[i - 1] + scan) + body
        else:
            total += prev_tail + gaps[i - 1] + head + body
        if separable:
            per_query.append((q.id, head + body + tail))

        prev_tail = tail
        if rpu:
            loaded = rpu[-1].id
    total += prev_tail
    return CostBreakdown(total=total, per_query=tuple(per_query))


def improvement(candidate: CostBreakdown, baseline: CostBreakdown) -> float:
    """Relative time saving of ``candidate`` over ``baseline``, in percent.

    Negative when the candidate is slower.
    """
    if not baseline.total > 0.0:
        raise ValueError(f"baseline total must be > 0, got {baseline.total!r}")
    return 100.0 * (1.0 - candidate.total / baseline.total)
