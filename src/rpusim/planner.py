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

from .cost import CostBreakdown, PhaseTimes, plan_cost
from .model import DeviceProfile, HINT_STRATEGIES, STRATEGY_ORDER, Plan, QuerySequence
from .plans import enumerate_plans, require_legal, shared_accelerators


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
    """Every applicable plan with its cost, in strategy order (S first).

    Disabling hints removes strategies II, III, and IV from the candidates.
    """
    strategies = [s for s in STRATEGY_ORDER if hints_enabled or s not in HINT_STRATEGIES]
    return [(plan, plan_cost(seq, plan, profile)) for plan in enumerate_plans(seq, strategies)]


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
    estimate.
    """
    require_legal(plan, seq)
    shared = shared_accelerators(seq)
    hints: list[Hint] = []
    for i, (pred, succ) in enumerate(zip(seq.queries, seq.queries[1:])):
        common = set(shared[(pred.id, succ.id)])
        if not common:
            continue
        ordered = [op_id for op_id in plan.rpu_order[succ.id] if op_id in common]
        ordered += [op_id for op_id in shared[(pred.id, succ.id)] if op_id not in ordered]
        hints.append(
            Hint(
                next_accelerators=tuple(ordered),
                expected_gap=seq.gaps[i],
                expected_scan=succ.table.size_mb / profile.r_scan,
            )
        )
    return hints


def rpu_policy(
    hint: Hint | None,
    q0_phase: PhaseTimes,
    profile: DeviceProfile,
    *,
    swap_legal: bool = True,
) -> ReconfigDecision:
    """Swap or speculatively reload, judged from the running query's numbers.

    Swapping wins when the reload could not be hidden anyway: when transfer +
    expected gap + the next query's scan fit inside one reconfiguration time.
    What the PR held before does not enter the inequality: the running query
    overwrites it regardless.  ``swap_legal`` is the commutation check for
    the running query's operators; an illegal swap falls back to the
    speculative reload.
    """
    if hint is None or not hint.next_accelerators:
        return ReconfigDecision(choice=ReconfigChoice.NONE)
    lhs = q0_phase.trans + hint.expected_gap + hint.expected_scan
    rationale = {
        "t_trans": q0_phase.trans,
        "expected_gap": hint.expected_gap,
        "expected_scan": hint.expected_scan,
        "lhs": lhs,
        "t_reconfig": profile.t_reconfig,
    }
    if lhs <= profile.t_reconfig and swap_legal:
        return ReconfigDecision(choice=ReconfigChoice.SWAP, rationale=rationale)
    return ReconfigDecision(choice=ReconfigChoice.SPECULATIVE_LOAD, rationale=rationale)
