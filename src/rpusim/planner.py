"""Plan choice, hint generation, and the device-side reconfiguration policy.

The optimizer side enumerates the applicable strategy plans, costs them, and
picks the cheapest; with hints disabled, every strategy that needs advance
knowledge of the following query (II, III, IV) is off the table.  The device
side gets a much smaller decision: given a hint about the next query, either
swap the running query's filter order to keep the needed accelerator loaded,
or reload it speculatively during the transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .cost import CostBreakdown, boundary, order_facts, plan_cost
from .errors import NonFiniteResultError
from .model import DeviceProfile, HINT_STRATEGIES, STRATEGY_ORDER, Mode, Plan, QuerySequence
from .plans import _host_ops, _shared, check_plan, enumerate_plans


@dataclass(frozen=True)
class Hint:
    """Advance notice of what the following query will ask of the device."""

    next_accelerators: tuple[str, ...]
    expected_gap: float
    expected_scan: float


class ReconfigChoice(Enum):
    SPECULATIVE_LOAD = "SPECULATIVE_LOAD"
    SWAP = "SWAP"
    NONE = "NONE"


@dataclass(frozen=True)
class ReconfigDecision:
    choice: ReconfigChoice
    rationale: dict[str, float] = field(default_factory=dict)


def costed_plans(
    seq: QuerySequence,
    profile: DeviceProfile,
    hints_enabled: bool = True,
) -> list[tuple[Plan, CostBreakdown]]:
    """Every applicable plan with a finite cost, in strategy order.

    Disabling hints removes strategies II, III, and IV from the candidates.
    A candidate whose total overflows is dropped, as an inapplicable one is;
    only when no candidate is finite does the first overflow's
    :class:`NonFiniteResultError` propagate.
    """
    strategies = [s for s in STRATEGY_ORDER if hints_enabled or s not in HINT_STRATEGIES]
    rows: list[tuple[Plan, CostBreakdown]] = []
    overflow: NonFiniteResultError | None = None
    for plan in enumerate_plans(seq, strategies):
        try:
            rows.append((plan, plan_cost(seq, plan, profile)))
        except NonFiniteResultError as exc:
            overflow = overflow or exc
    if not rows and overflow is not None:
        raise overflow
    return rows


def choose_plan(
    seq: QuerySequence,
    profile: DeviceProfile,
    hints_enabled: bool = True,
) -> tuple[Plan, CostBreakdown]:
    """The cheapest applicable plan for the sequence.

    Ties break on strategy order (S < I < II < III < IV), so results are
    reproducible.  Disabling hints removes strategies II, III, and IV from
    the candidate set.
    """
    return min(costed_plans(seq, profile, hints_enabled), key=lambda row: row[1].total)


def generate_hints(seq: QuerySequence, plan: Plan, profile: DeviceProfile) -> list[Hint]:
    """One hint per adjacent pair that shares at least one accelerator.

    Each hint names the shared accelerators in the successor's streaming
    order and carries the pair's expected gap and the successor's scan-time
    estimate.  The plan is checked through :func:`rpusim.plans.check_plan`,
    so a plan the sequence has already checked is not checked again.
    """
    check_plan(plan, seq)
    shared = _shared(seq)
    hints: list[Hint] = []
    for i, succ in enumerate(seq.queries[1:]):
        common = set(shared[i])
        if not common:
            continue
        ordered = [op_id for op_id in plan.rpu_order[i + 1] if op_id in common]
        ordered += [op_id for op_id in shared[i] if op_id not in ordered]
        hints.append(
            Hint(
                next_accelerators=tuple(ordered),
                expected_gap=seq.gaps[i],
                expected_scan=succ.table.size_mb / profile.r_scan,
            )
        )
    return hints


def rpu_policy(
    hint: Hint | None, seq: QuerySequence, plan: Plan, index: int, profile: DeviceProfile
) -> ReconfigDecision:
    """Swap or speculatively reload, whichever ends the next query's head first.

    Query ``index`` runs its order in ``plan``, checked through
    :func:`rpusim.plans.check_plan`, with the PR holding the last op of the
    nearest non-empty order before it.  From its arrival, the running order
    then a SPECULATIVE reload of the hinted accelerator is costed against
    that accelerator moved last (legal only if the query streams it and all
    its operators commute) then a BASELINE boundary.  The rationale keeps
    the paper's inequality terms (``t_trans`` is the running query's
    transfer plus host work) and adds both totals.  An ``index`` that
    names no query raises :class:`ValueError`.
    """
    check_plan(plan, seq)
    if not 0 <= index < len(seq.queries):
        raise ValueError(f"query index {index} is outside [0, {len(seq.queries)})")
    if hint is None or not hint.next_accelerators:
        return ReconfigDecision(choice=ReconfigChoice.NONE)
    acc, gap, scan = hint.next_accelerators[0], hint.expected_gap, hint.expected_scan
    q, order = seq.queries[index], plan.rpu_order[index]
    rpu, host = tuple(map(q._ops_by_id.__getitem__, order)), _host_ops(q, order)
    loaded = next((prev[-1] for prev in reversed(plan.rpu_order[:index]) if prev), None)
    t_reconfig = profile.t_reconfig
    own_scan, body, tail = order_facts(q, rpu, host, profile)
    lead = t_reconfig if rpu and loaded != rpu[0].id else 0.0
    t_speculative = max(lead, own_scan) + body + boundary(Mode.SPECULATIVE, t_reconfig, scan, tail, gap)
    rationale = {
        "t_trans": tail,
        "expected_gap": gap,
        "expected_scan": scan,
        "lhs": tail + gap + scan,
        "t_reconfig": t_reconfig,
        "t_speculative": t_speculative,
    }
    kept = [op for op in rpu if op.id != acc]
    if q._all_commute and len(kept) < len(rpu):
        swapped = (*kept, q._ops_by_id[acc])
        own_scan, body, tail = order_facts(q, swapped, host, profile)
        lead = t_reconfig if loaded != swapped[0].id else 0.0
        t_swap = max(lead, own_scan) + body + boundary(Mode.BASELINE, 0.0, scan, tail, gap)
        rationale["t_swap"] = t_swap
        if t_swap <= t_speculative:
            return ReconfigDecision(choice=ReconfigChoice.SWAP, rationale=rationale)
    return ReconfigDecision(choice=ReconfigChoice.SPECULATIVE_LOAD, rationale=rationale)
