"""Plan construction and structural legality checks.

Everything here is cost-free structure: which operators go where, in what
order the device streams them, and which speculative reloads a strategy-III
plan schedules.  :func:`compile_plan` checks a plan once and lowers it into
per-query :class:`Step` records; costing (:mod:`rpusim.cost`) and scheduling
(:mod:`rpusim.simulate`) walk those steps and never look at the strategy.

Generalization beyond two queries: each strategy applies its device trick at
every adjacent pair where it fits (I/II split every non-final query with at
least two operators; III reloads ahead at every sharing pair; IV re-orders
every commuting predecessor that contains the accelerator its successor needs
first).  Boundaries where the trick does not fit behave like the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import IllegalPlanError
from .model import (
    FilterOp,
    Placement,
    Plan,
    Query,
    QuerySequence,
    SpeculativeLoad,
    Strategy,
    STRATEGY_ORDER,
)


def shared_accelerators(seq: QuerySequence) -> dict[tuple[str, str], list[str]]:
    """Accelerators common to each adjacent query pair.

    Returns one entry per adjacent pair, keyed by the two query ids; the
    value lists the shared accelerator ids in the successor's declared
    operator order (empty when the pair has nothing in common).
    """
    out: dict[tuple[str, str], list[str]] = {}
    for pred, succ in zip(seq.queries, seq.queries[1:]):
        pred_ids = set(pred.op_ids())
        out[(pred.id, succ.id)] = [op.id for op in succ.ops if op.id in pred_ids]
    return out


def local_order(ops: tuple[FilterOp, ...]) -> tuple[FilterOp, ...]:
    """The device-local streaming order: lowest selectivity first.

    Sorting is a reorder, so it is only applied when every operator
    commutes; otherwise the declared order is kept.  Ties break on op id.
    """
    if all(op.commutes for op in ops):
        return tuple(sorted(ops, key=lambda op: (op.selectivity, op.id)))
    return tuple(ops)


def _placements(query: Query, rpu_ids: set[str]) -> dict[str, Placement]:
    return {
        op.id: Placement.RPU if op.id in rpu_ids else Placement.HOST
        for op in query.ops
    }


def _full_pushdown(seq: QuerySequence, strategy: Strategy) -> Plan:
    placements = {}
    rpu_order = {}
    for q in seq.queries:
        order = local_order(q.ops)
        placements[q.id] = _placements(q, set(q.op_ids()))
        rpu_order[q.id] = tuple(op.id for op in order)
    return Plan(strategy=strategy, placements=placements, rpu_order=rpu_order)


def _split_pushdown(seq: QuerySequence, strategy: Strategy, keep_index: int) -> Plan:
    """Plans I and II: non-final queries push exactly one operator down."""
    if not any(len(q.ops) >= 2 for q in seq.queries[:-1]):
        raise IllegalPlanError(
            f"strategy {strategy} is not applicable: no non-final query has two or more operators"
        )
    placements = {}
    rpu_order = {}
    for i, q in enumerate(seq.queries):
        order = local_order(q.ops)
        if i < len(seq.queries) - 1 and len(order) >= 2:
            pushed = order[keep_index]
            placements[q.id] = _placements(q, {pushed.id})
            rpu_order[q.id] = (pushed.id,)
        else:
            placements[q.id] = _placements(q, set(q.op_ids()))
            rpu_order[q.id] = tuple(op.id for op in order)
    return Plan(strategy=strategy, placements=placements, rpu_order=rpu_order)


def _plan_iii(seq: QuerySequence) -> Plan:
    shared = shared_accelerators(seq)
    if not any(shared.values()):
        raise IllegalPlanError(
            "strategy III requires sequence knowledge: no adjacent pair shares an accelerator"
        )
    plan = _full_pushdown(seq, Strategy.III)
    loads: list[SpeculativeLoad] = []
    for pred, succ in zip(seq.queries, seq.queries[1:]):
        if not shared[(pred.id, succ.id)]:
            continue
        left_loaded = plan.rpu_order[pred.id][-1]
        needed_first = plan.rpu_order[succ.id][0]
        if needed_first != left_loaded:
            loads.append(SpeculativeLoad(pred.id, left_loaded, needed_first))
    return Plan(
        strategy=Strategy.III,
        placements=plan.placements,
        rpu_order=plan.rpu_order,
        speculative_loads=tuple(loads),
    )


def _plan_iv(seq: QuerySequence) -> Plan:
    placements = {}
    orders: dict[str, tuple[str, ...]] = {}
    # Resolve right to left: a swap in one query changes which accelerator
    # its own predecessor must leave loaded.
    queries = seq.queries
    swapped_any = False
    for i in range(len(queries) - 1, -1, -1):
        q = queries[i]
        placements[q.id] = _placements(q, set(q.op_ids()))
        order = list(local_order(q.ops))
        if i < len(queries) - 1:
            succ = queries[i + 1]
            needed_first = orders[succ.id][0]
            applicable = (
                len(order) >= 2
                and all(op.commutes for op in q.ops)
                and any(op.id == needed_first for op in order)
            )
            if applicable and order[-1].id != needed_first:
                order = [op for op in order if op.id != needed_first] + [
                    op for op in order if op.id == needed_first
                ]
                swapped_any = True
            elif applicable:
                swapped_any = True  # already in place; swap is the identity
        orders[q.id] = tuple(op.id for op in order)
    if not swapped_any:
        raise IllegalPlanError(
            "strategy IV is not applicable: no commuting predecessor contains "
            "the accelerator its successor needs first"
        )
    return Plan(strategy=Strategy.IV, placements=placements, rpu_order=orders)


def strategy_plan(seq: QuerySequence, strategy: Strategy) -> Plan:
    """Build the canonical plan of one strategy for a sequence.

    Raises :class:`IllegalPlanError` when the strategy has nothing to work
    with (nothing to split, share, or swap).
    """
    if strategy is Strategy.S:
        return _full_pushdown(seq, Strategy.S)
    if strategy is Strategy.I:
        return _split_pushdown(seq, Strategy.I, keep_index=0)
    if strategy is Strategy.II:
        return _split_pushdown(seq, Strategy.II, keep_index=1)
    if strategy is Strategy.III:
        return _plan_iii(seq)
    if strategy is Strategy.IV:
        return _plan_iv(seq)
    raise ValueError(f"unknown strategy {strategy!r}")


def enumerate_plans(seq: QuerySequence) -> list[Plan]:
    """All strategy plans applicable to the sequence, in strategy order."""
    plans = []
    for strategy in STRATEGY_ORDER:
        try:
            plans.append(strategy_plan(seq, strategy))
        except IllegalPlanError:
            continue
    return plans


def legality(plan: Plan, seq: QuerySequence) -> tuple[bool, str]:
    """Whether a plan is structurally executable for a sequence, with reason.

    Checks: every operator placed exactly once, RPU orders consistent with
    placements, reorders confined to commuting operators, speculative loads
    only in strategy III, only across pairs that share an accelerator,
    anchored at the predecessor's last RPU op, and targeting the successor's
    first RPU op when it is not already loaded.
    """
    query_ids = {q.id for q in seq.queries}
    if set(plan.placements) != query_ids:
        return False, "placements must cover exactly the sequence's queries"
    if set(plan.rpu_order) != query_ids:
        return False, "rpu_order must cover exactly the sequence's queries"

    for q in seq.queries:
        placed = plan.placements[q.id]
        if set(placed) != set(q.op_ids()):
            return False, f"placement for query {q.id!r} does not cover its ops exactly once"
        rpu_ids = [op_id for op_id in q.op_ids() if placed[op_id] is Placement.RPU]
        order = plan.rpu_order[q.id]
        if len(set(order)) != len(order) or set(order) != set(rpu_ids):
            return False, f"rpu_order for query {q.id!r} must list exactly its RPU-placed ops"
        declared = {op_id: k for k, op_id in enumerate(q.op_ids())}
        ops_by_id = {op.id: op for op in q.ops}
        for a_pos, a in enumerate(order):
            for b in order[a_pos + 1 :]:
                if declared[a] > declared[b]:
                    if not (ops_by_id[a].commutes and ops_by_id[b].commutes):
                        return False, f"non-commuting reorder of {a!r} and {b!r} in query {q.id!r}"

    shared = shared_accelerators(seq)
    succ_of = {pred.id: succ for pred, succ in zip(seq.queries, seq.queries[1:])}

    if plan.speculative_loads and plan.strategy is not Strategy.III:
        return False, "speculative loads are only valid in strategy III"
    if plan.strategy is Strategy.III and not any(shared.values()):
        return False, (
            "requires sequence knowledge: strategy III needs an adjacent pair "
            "sharing an accelerator"
        )
    seen_anchor: set[tuple[str, str]] = set()
    for load in plan.speculative_loads:
        if load.query_id not in query_ids:
            return False, f"speculative load references unknown query {load.query_id!r}"
        if load.query_id not in succ_of:
            return False, "speculative load after the final query has no successor"
        anchor_order = plan.rpu_order[load.query_id]
        if not anchor_order or anchor_order[-1] != load.after_op:
            return False, (
                f"speculative load anchored at {load.after_op!r}, not at the "
                f"last RPU op of query {load.query_id!r}"
            )
        succ = succ_of[load.query_id]
        if not shared[(load.query_id, succ.id)]:
            return False, (
                f"speculative load across pair ({load.query_id!r}, {succ.id!r}) "
                "which shares no accelerator"
            )
        succ_order = plan.rpu_order[succ.id]
        if not succ_order or succ_order[0] != load.accelerator:
            return False, (
                f"speculative load target {load.accelerator!r} is not the first "
                f"RPU op of the following query {succ.id!r}"
            )
        if anchor_order[-1] == load.accelerator:
            return False, (
                f"redundant speculative load: {load.accelerator!r} is already "
                f"loaded after query {load.query_id!r}"
            )
        anchor = (load.query_id, load.after_op)
        if anchor in seen_anchor:
            return False, f"multiple speculative loads anchored at {anchor!r}"
        seen_anchor.add(anchor)
    return True, "ok"


def require_legal(plan: Plan, seq: QuerySequence) -> Plan:
    ok, reason = legality(plan, seq)
    if not ok:
        raise IllegalPlanError(f"illegal plan: {reason}")
    return plan


class Mode(Enum):
    """When a query's leading reconfiguration is released.

    BASELINE     at the query's arrival; it overlaps only the query's scan.
    HOLD         (II) when the predecessor frees the PR; the query's scan
                 waits until the PR is ready.
    SPECULATIVE  (III) when the predecessor frees the PR; the scan starts at
                 arrival and only the first accelerator waits for the PR.

    A mode only matters when the query needs a reconfiguration at all.
    """

    BASELINE = "baseline"
    HOLD = "hold"
    SPECULATIVE = "speculative"


@dataclass(frozen=True)
class Step:
    """One query of a compiled plan, in sequence order."""

    query: Query
    rpu: tuple[FilterOp, ...]   # RPU-placed operators, in streaming order
    host: tuple[FilterOp, ...]  # host-placed operators, in declared order
    mode: Mode                  # boundary with the predecessor (BASELINE first)


def compile_plan(plan: Plan, seq: QuerySequence) -> tuple[Step, ...]:
    """Check a plan once and lower it into per-query steps.

    This is the only place a strategy turns into boundary modes: every
    boundary of a strategy-II plan holds, a boundary behind a speculative
    load is speculative, and all others are baseline.
    """
    require_legal(plan, seq)
    loaded_ahead = {load.query_id for load in plan.speculative_loads}
    steps = []
    for i, q in enumerate(seq.queries):
        mode = Mode.BASELINE
        if i > 0 and plan.strategy is Strategy.II:
            mode = Mode.HOLD
        elif i > 0 and seq.queries[i - 1].id in loaded_ahead:
            mode = Mode.SPECULATIVE
        steps.append(Step(q, plan.rpu_ops(q), plan.host_ops(q), mode))
    return tuple(steps)
