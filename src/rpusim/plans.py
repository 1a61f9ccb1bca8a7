"""Plan construction and structural legality checks.

Everything here is cost-free structure.  A plan lists, per query position,
the operators the device streams and their order (the rest run on the host),
and names one :class:`Mode` per query boundary.  The builders set the modes
directly: II holds at every boundary, III reloads speculatively at every
boundary where that loads an accelerator, and every other boundary is
baseline.  :func:`check_plan` checks a plan against a sequence; both
engines (:mod:`rpusim.cost`, :mod:`rpusim.simulate`) and the device policy
(:func:`rpusim.planner.rpu_policy`) read a checked plan's orders and modes
directly.

Plans built and plans checked are kept in the sequence's memo
(``QuerySequence._memo``) by value, so on one sequence object each
strategy's plan is built at most once (one that does not apply is
recorded too) and each plan is checked at most once, however many
strategies build it; a plan that fails its check is not kept.

Generalization beyond two queries: each strategy applies its device trick at
every adjacent pair where it fits (I/II split every non-final query with at
least two operators; III reloads ahead at every sharing pair; IV re-orders
every commuting predecessor that contains the accelerator its successor needs
first).  Boundaries where the trick does not fit behave like the baseline.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from .errors import IllegalPlanError
from .model import (
    FilterOp,
    Mode,
    Plan,
    Query,
    QuerySequence,
    Strategy,
    STRATEGY_ORDER,
)


def shared_accelerators(seq: QuerySequence) -> list[list[str]]:
    """Accelerators common to each adjacent query pair.

    Returns one list per boundary: entry ``i`` lists the accelerator ids
    ``queries[i]`` and ``queries[i + 1]`` share, in the successor's declared
    operator order (empty when the pair has nothing in common).
    """
    return [
        [op_id for op_id in succ.op_ids() if op_id in pred._ops_by_id]
        for pred, succ in zip(seq.queries, seq.queries[1:])
    ]


#: The local order's sort key: selectivity, then op id.
_BY_SELECTIVITY = attrgetter("selectivity", "id")
_ID = attrgetter("id")


def local_order(ops: tuple[FilterOp, ...]) -> tuple[FilterOp, ...]:
    """The device-local streaming order: lowest selectivity first.

    Sorting is a reorder, so it is only applied when every operator
    commutes; otherwise the declared order is kept.  Ties break on op id.
    """
    if all(op.commutes for op in ops):
        return tuple(sorted(ops, key=_BY_SELECTIVITY))
    return tuple(ops)


_LocalIds = tuple[tuple[str, ...], ...]


def _local_ids(seq: QuerySequence) -> _LocalIds:
    """Each query's :func:`local_order` as op ids; one sort serves every
    builder.  A query of one op, or with an op that does not commute,
    keeps its cached declared ids; any other is sorted in C, on the key
    ``local_order`` uses."""
    return tuple([
        q._op_ids if len(q.ops) < 2 or not q._all_commute
        else tuple(map(_ID, sorted(q.ops, key=_BY_SELECTIVITY)))
        for q in seq.queries
    ])


def _full_pushdown(seq: QuerySequence, local: _LocalIds) -> Plan:
    """Plan S: every query streams all its operators in local order."""
    return Plan(Strategy.S, local, (Mode.BASELINE,) * len(seq.gaps))


def _split_pushdown(seq: QuerySequence, local: _LocalIds, strategy: Strategy, keep: int, mode: Mode) -> Plan:
    """Plans I and II: non-final queries push exactly one operator down."""
    if not any(len(q.ops) >= 2 for q in seq.queries[:-1]):
        raise IllegalPlanError(
            f"strategy {strategy} is not applicable: no non-final query has two or more operators"
        )
    rpu_order = tuple([(order[keep],) if len(order) >= 2 else order for order in local[:-1]])
    return Plan(strategy, (*rpu_order, local[-1]), (mode,) * len(seq.gaps))


def _plan_iii(seq: QuerySequence, local: _LocalIds) -> Plan:
    # the pairs that share an accelerator, by the test legality applies
    # to a SPECULATIVE boundary
    queries = seq.queries
    shares = [not pred._ops_by_id.keys().isdisjoint(succ.op_ids()) for pred, succ in zip(queries, queries[1:])]
    if not any(shares):
        raise IllegalPlanError(
            "strategy III requires sequence knowledge: no adjacent pair shares an accelerator"
        )
    modes = tuple(
        Mode.SPECULATIVE if share and pred_order[-1] != succ_order[0] else Mode.BASELINE
        for share, pred_order, succ_order in zip(shares, local, local[1:])
    )
    return Plan(Strategy.III, local, modes)


def _plan_iv(seq: QuerySequence, local: _LocalIds) -> Plan:
    orders = list(local)
    # Resolve right to left: a swap in one query changes which accelerator
    # its own predecessor must leave loaded.
    queries = seq.queries
    swapped_any = False
    needed_first = None
    for i in range(len(queries) - 1, -1, -1):
        q, order = queries[i], local[i]
        if i < len(queries) - 1 and len(order) >= 2 and q._all_commute and needed_first in order:
            swapped_any = True  # also when already in place: the swap is the identity
            if order[-1] != needed_first:
                order = tuple(op_id for op_id in order if op_id != needed_first) + (needed_first,)
        orders[i] = order
        needed_first = order[0]
    if not swapped_any:
        raise IllegalPlanError(
            "strategy IV is not applicable: no commuting predecessor contains "
            "the accelerator its successor needs first"
        )
    return Plan(Strategy.IV, tuple(orders), (Mode.BASELINE,) * len(seq.gaps))


def _build(seq: QuerySequence, strategy: Strategy, local: _LocalIds) -> Plan:
    if strategy is Strategy.S:
        return _full_pushdown(seq, local)
    if strategy is Strategy.I:
        return _split_pushdown(seq, local, Strategy.I, keep=0, mode=Mode.BASELINE)
    if strategy is Strategy.II:
        return _split_pushdown(seq, local, Strategy.II, keep=1, mode=Mode.HOLD)
    if strategy is Strategy.III:
        return _plan_iii(seq, local)
    if strategy is Strategy.IV:
        return _plan_iv(seq, local)
    raise ValueError(f"unknown strategy {strategy!r}")


def strategy_plan(seq: QuerySequence, strategy: Strategy) -> Plan:
    """Build the canonical plan of one strategy for a sequence.

    Raises :class:`IllegalPlanError` when the strategy has nothing to work
    with (nothing to split, share, or swap).
    """
    return _build(seq, strategy, _local_ids(seq))


def enumerate_plans(seq: QuerySequence, strategies: Iterable[Strategy] = STRATEGY_ORDER) -> list[Plan]:
    """The applicable plans of ``strategies`` (default: all), in that order.

    Each strategy is built at most once per sequence object: its plan, or
    that it is not applicable, is kept in the sequence's memo.
    """
    memo = seq._memo
    local = None
    plans = []
    for strategy in strategies:
        if strategy not in memo:
            if local is None:
                local = _local_ids(seq)
            try:
                memo[strategy] = _build(seq, strategy, local)
            except IllegalPlanError:
                memo[strategy] = None
        plan = memo[strategy]
        if plan is not None:
            plans.append(plan)
    return plans


_MODES = frozenset(Mode)


def legality(plan: Plan, seq: QuerySequence) -> tuple[bool, str]:
    """Whether a plan is structurally executable for a sequence, with reason.

    Checks: there is one RPU order per query, in sequence order; each lists
    distinct operators of its own query and reorders only commuting ones,
    there is one :class:`Mode` per boundary, and a SPECULATIVE boundary
    joins a pair that shares an accelerator.  An order equal to its query's
    declared op ids passes at once: a valid sequence's queries list
    distinct op ids, and that order reorders nothing.
    """
    rpu_order = plan.rpu_order
    if len(rpu_order) != len(seq.queries):
        return False, f"rpu_order lists {len(rpu_order)} orders for {len(seq.queries)} queries"

    for q, order in zip(seq.queries, rpu_order):
        if order == q._op_ids:
            continue  # the declared order
        by_id = q._ops_by_id
        if not order or len(order) == 1 and order[0] in by_id:
            continue  # nothing to reorder
        distinct = set(order)
        if len(distinct) != len(order) or not by_id.keys() >= distinct:
            return False, f"rpu_order for query {q.id!r} must list distinct ops of that query"
        if q._all_commute:
            continue  # every reorder is legal
        declared = q.op_ids()
        for a_pos, a in enumerate(order):
            for b in order[a_pos + 1 :]:
                if declared.index(a) > declared.index(b) and not (
                    by_id[a].commutes and by_id[b].commutes
                ):
                    return False, f"non-commuting reorder of {a!r} and {b!r} in query {q.id!r}"

    modes = plan.modes
    if len(modes) != len(seq.gaps):
        return False, f"{len(modes)} boundary modes for {len(seq.gaps)} query boundaries"
    if not _MODES.issuperset(modes):
        i, mode = next((i, mode) for i, mode in enumerate(modes) if mode not in _MODES)
        return False, f"boundary {i} has mode {mode!r}, which is not a Mode"
    if Mode.SPECULATIVE not in modes:
        return True, "ok"
    for mode, pred, succ in zip(modes, seq.queries, seq.queries[1:]):
        if mode is Mode.SPECULATIVE and pred._ops_by_id.keys().isdisjoint(succ.op_ids()):
            return False, (
                f"speculative boundary between {pred.id!r} and {succ.id!r}, "
                "which share no accelerator"
            )
    return True, "ok"


def check_plan(plan: Plan, seq: QuerySequence) -> Plan:
    """Check a plan against a sequence and return it.

    A legal plan is recorded in the sequence's memo, so a plan is checked
    at most once per sequence object.  An illegal plan is not kept: it
    raises :class:`IllegalPlanError` on every call.
    """
    memo = seq._memo
    if plan not in memo:
        ok, reason = legality(plan, seq)
        if not ok:
            raise IllegalPlanError(f"illegal plan: {reason}")
        memo[plan] = None  # checked
    return plan


def _host_ops(query: Query, order: tuple[str, ...]) -> tuple[FilterOp, ...]:
    """The ops ``query`` runs on the host, in declared order, when it pushes
    down ``order``, a legal order of its op ids."""
    # legal orders list distinct ops of the query, so equal lengths
    # mean every op is pushed down
    return () if len(order) == len(query.ops) else tuple([op for op in query.ops if op.id not in order])

