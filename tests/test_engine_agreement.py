"""Cost model and simulator agree on every plan of random n-query sequences,
and hints never make the chosen plan slower.

The sequences mix the shapes the 2- and 3-query cross-checks do not reach:
2-8 queries over a small accelerator pool (so accelerators repeat across and
between adjacent queries), non-commuting filters, random device profiles, and
zero table sizes, gaps and selectivities.  Besides the strategy plans, the
engines are checked on random legal plans that push down a random subset of
each query's operators and pick a mode per boundary, as no single strategy
does.  ``plan_cost`` is also pinned, bit for bit, to a fold of the public
per-query ``phase_times`` report and to the oracle's ``Step``-walking
``reference_fold``, which calls the public ``order_facts`` and
``boundary`` at every step, and the device-side ``rpu_policy`` must
pick the ``plan_cost`` argmin at every boundary where it can swap, with a
rationale pinned bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import random

from hypothesis import given, settings, strategies as st

from rpusim import (
    STRATEGY_ORDER,
    DeviceProfile,
    FilterOp,
    Hint,
    Mode,
    Plan,
    Query,
    QuerySequence,
    ReconfigChoice,
    Strategy,
    TableSpec,
    calibrated_profile,
    choose_plan,
    default_scenario,
    enumerate_plans,
    generate_hints,
    local_order,
    phase_times,
    plan_cost,
    rpu_policy,
    scale_sequence,
    shared_accelerators,
    simulate,
    strategy_plan,
    validate_timeline,
)
from _oracle import lower_plan, reference_fold

POOL = ("a", "b", "c", "d")


def _maybe_zero(rng: random.Random, value: float) -> float:
    return 0.0 if rng.random() < 0.1 else value


def random_profile(rng: random.Random) -> DeviceProfile:
    return DeviceProfile(
        t_reconfig=rng.uniform(0.5, 30.0),
        r_scan=rng.uniform(0.1, 4.0),
        r_acc=rng.uniform(0.1, 4.0),
        r_network=rng.uniform(0.01, 1.0),
        c_dbms=rng.uniform(0.001, 0.2),
    )


def random_sequence(rng: random.Random, n: int | None = None) -> QuerySequence:
    """``n`` queries (default: 2-8, drawn from ``rng``)."""
    if n is None:
        n = rng.randint(2, 8)
    queries = []
    for qi in range(n):
        ids = rng.sample(POOL, rng.randint(1, 3))
        ops = tuple(
            FilterOp(op_id, _maybe_zero(rng, rng.random()), commutes=rng.random() > 0.2)
            for op_id in ids
        )
        size = _maybe_zero(rng, rng.uniform(0.0, 60.0))
        queries.append(Query(f"Q{qi}", TableSpec(f"t{qi}", size), ops))
    gaps = tuple(_maybe_zero(rng, rng.uniform(0.0, 40.0)) for _ in range(n - 1))
    return QuerySequence(tuple(queries), gaps)


def random_plan(rng: random.Random, seq: QuerySequence) -> Plan:
    """A legal plan: a random subsequence of each query's local order and a
    random mode per boundary, SPECULATIVE only across sharing pairs."""
    rpu_order = tuple(
        tuple(op.id for op in local_order(q.ops) if rng.random() < 0.7) for q in seq.queries
    )
    modes = tuple(
        rng.choice(list(Mode) if shared else [Mode.BASELINE, Mode.HOLD])
        for shared in shared_accelerators(seq)
    )
    return Plan(rng.choice(STRATEGY_ORDER), rpu_order, modes)


def random_cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_sequence(rng), random_profile(rng)


def _zero_or(values):
    return st.one_of(st.just(0.0), values)


@st.composite
def _mixed_mode_cases(draw, max_queries: int = 8):
    """A 2 to ``max_queries`` query sequence over a small pool, a legal plan
    pushing down a random subset of each local order with a random mode per
    boundary (SPECULATIVE only across sharing pairs), and a device profile.
    Zero table sizes, selectivities and gaps make zero-length phases."""
    queries = []
    for qi in range(draw(st.integers(2, max_queries))):
        ids = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True))
        ops = tuple(
            FilterOp(op_id, draw(_zero_or(st.floats(0.0, 1.0))), commutes=draw(st.booleans())) for op_id in ids
        )
        queries.append(Query(f"Q{qi}", TableSpec(f"t{qi}", draw(_zero_or(st.floats(0.0, 100.0)))), ops))
    seq = QuerySequence(tuple(queries), tuple(draw(_zero_or(st.floats(0.0, 50.0))) for _ in queries[1:]))
    rpu_order = tuple(
        tuple(op.id for op in local_order(q.ops) if draw(st.booleans())) for q in seq.queries
    )
    modes = tuple(
        draw(st.sampled_from(list(Mode) if shared else [Mode.BASELINE, Mode.HOLD]))
        for shared in shared_accelerators(seq)
    )
    plan = Plan(draw(st.sampled_from(STRATEGY_ORDER)), rpu_order, modes)
    profile = DeviceProfile(*(draw(st.floats(0.01, 50.0)) for _ in range(5)))
    return seq, plan, profile


@settings(deadline=None, derandomize=True)
@given(case=_mixed_mode_cases(max_queries=12))
def test_engines_agree_on_random_n_query_plans(case):
    """The permanent agreement property on 2-12 query sequences and random
    legal mixed-mode plans: ``plan_cost`` equals the oracle's step fold bit
    for bit, the simulated makespan equals its total to 1e-9, and the
    timeline is valid.  Derandomized, so every run draws the same examples;
    the ``ci`` profile draws 1 000 of them."""
    seq, plan, profile = case
    breakdown = plan_cost(seq, plan, profile)
    assert _hex(breakdown) == _hex(reference_fold(lower_plan(plan, seq), seq.gaps, profile))
    timeline = simulate(seq, plan, profile)
    assert math.isclose(timeline.makespan, breakdown.total, rel_tol=1e-9)
    assert validate_timeline(timeline) == []


def test_simulator_matches_cost_on_mixed_plans():
    mixed = 0
    for rng, seq, profile in random_cases(2017, 300):
        for _ in range(6):
            plan = random_plan(rng, seq)
            total = plan_cost(seq, plan, profile).total
            timeline = simulate(seq, plan, profile)
            assert math.isclose(timeline.makespan, total, rel_tol=1e-9), (plan, seq)
            assert validate_timeline(timeline) == [], (plan, seq)
            mixed += any(mode is not Mode.BASELINE for mode in plan.modes)
    # most random plans have at least one HOLD or SPECULATIVE boundary
    assert mixed > 1200


def test_each_resource_runs_its_phases_one_after_another():
    """Every kept phase lasts a positive time, and no two phases of one
    resource start together: ``simulate`` lays each resource's phases end
    to end and sorts them stably by start alone, which matches ordering by
    (start, resource, end, label, query) only because of this."""
    lanes_checked = 0
    for rng, seq, profile in random_cases(2017, 300):
        for plan in enumerate_plans(seq) + [random_plan(rng, seq) for _ in range(6)]:
            starts: dict = {}
            phases = simulate(seq, plan, profile).phases
            for p in phases:
                assert p.end > p.start, (p, plan, seq)
                starts.setdefault(p.resource, []).append(p.start)
            assert [p.start for p in phases] == sorted(p.start for p in phases)
            for lane in starts.values():
                assert all(a < b for a, b in zip(lane, lane[1:])), (lane, plan, seq)
                lanes_checked += len(lane) > 1
    assert lanes_checked > 5000


def test_cost_monotone_in_table_size():
    for rng, seq, profile in random_cases(2029, 200):
        grown = scale_sequence(seq, rng.uniform(1.0, 4.0))
        for plan in enumerate_plans(seq) + [random_plan(rng, seq) for _ in range(3)]:
            assert plan_cost(grown, plan, profile).total >= plan_cost(seq, plan, profile).total, (plan, seq)


def test_per_query_reported_iff_every_boundary_is_baseline():
    for rng, seq, profile in random_cases(2039, 200):
        for plan in enumerate_plans(seq) + [random_plan(rng, seq) for _ in range(3)]:
            breakdown = plan_cost(seq, plan, profile)
            if all(mode is Mode.BASELINE for mode in plan.modes):
                assert [qid for qid, _ in breakdown.per_query] == [q.id for q in seq.queries]
                summed = sum(t for _, t in breakdown.per_query) + sum(seq.gaps)
                assert math.isclose(summed, breakdown.total, rel_tol=1e-9, abs_tol=1e-12), (plan, seq)
            else:
                assert breakdown.per_query == (), (plan, seq)


def test_simulator_matches_cost_on_n_query_sequences():
    rng = random.Random(2005)
    checked = 0
    for _ in range(400):
        seq = random_sequence(rng)
        profile = random_profile(rng)
        for plan in enumerate_plans(seq):
            total = plan_cost(seq, plan, profile).total
            timeline = simulate(seq, plan, profile)
            assert math.isclose(timeline.makespan, total, rel_tol=1e-9), (plan.strategy, seq)
            assert validate_timeline(timeline) == [], (plan.strategy, seq)
            checked += 1
        hinted = choose_plan(seq, profile, hints_enabled=True)[1].total
        assert hinted <= choose_plan(seq, profile, hints_enabled=False)[1].total, seq
    # every sequence admits S, and most admit several more strategies
    assert checked > 1200


def reference_cost(seq: QuerySequence, plan: Plan, profile: DeviceProfile):
    """``plan_cost`` written out from the public ``phase_times``: the same
    terms, added in the same order, so the two must agree bit for bit."""
    total, per_query, loaded, prev_tail = 0.0, [], None, 0.0
    for i, (q, order, mode) in enumerate(zip(seq.queries, plan.rpu_order, (Mode.BASELINE, *plan.modes))):
        rpu = tuple(op for op_id in order for op in q.ops if op.id == op_id)
        pt = phase_times(q, rpu, tuple(op for op in q.ops if op.id not in order), profile)
        lead = profile.t_reconfig if rpu and loaded != rpu[0].id else 0.0
        head = max(lead, pt.scan)
        body = 0.0
        for k, acc in enumerate(pt.acc):
            if k > 0:
                body += profile.t_reconfig
            body += acc.time_ms
        tail = pt.trans + pt.dbms
        if i == 0:
            total += head + body
        elif mode is Mode.HOLD:
            total += max(lead, prev_tail + seq.gaps[i - 1]) + pt.scan + body
        elif mode is Mode.SPECULATIVE:
            total += max(lead, prev_tail + seq.gaps[i - 1] + pt.scan) + body
        else:
            total += prev_tail + seq.gaps[i - 1] + head + body
        per_query.append((q.id, head + body + tail))
        prev_tail = tail
        if rpu:
            loaded = rpu[-1].id
    total += prev_tail
    separable = all(mode is Mode.BASELINE for mode in plan.modes)
    return total, tuple(per_query) if separable else ()


def test_plan_cost_equals_phase_times_fold_bit_for_bit():
    rng = random.Random(2005)
    checked = 0
    for _ in range(400):
        seq = random_sequence(rng)
        profile = random_profile(rng)
        plans = enumerate_plans(seq) + [random_plan(rng, seq) for _ in range(3)]
        for plan in plans:
            breakdown = plan_cost(seq, plan, profile)
            assert (breakdown.total, breakdown.per_query) == reference_cost(seq, plan, profile), (plan, seq)
            checked += 1
    assert checked > 2400


def _hex(breakdown) -> tuple:
    return breakdown.total.hex(), [(qid, t.hex()) for qid, t in breakdown.per_query]


def test_plan_cost_equals_the_step_fold_bit_for_bit():
    """Folding a plan's orders and modes inline gives the total and
    per-query times of the fold over its lowered steps, on every applicable
    plan and on random mixed-mode plans, all costed on one sequence object."""
    rng = random.Random(2005)
    checked = 0
    for _ in range(400):
        seq = random_sequence(rng)
        profile = random_profile(rng)
        plans = enumerate_plans(seq) + [random_plan(rng, seq) for _ in range(3)]
        for plan in plans:
            expected = reference_fold(lower_plan(plan, seq), seq.gaps, profile)
            assert _hex(plan_cost(seq, plan, profile)) == _hex(expected), (plan, seq)
            checked += 1
    assert checked > 2400


def policy_boundaries():
    """Every boundary where the all-commuting predecessor streams the
    successor's first accelerator before its last op, on 560 random
    sequences: ``(seq, profile, S plan, boundary index, predecessor step,
    hint)``."""
    for _, seq, profile in random_cases(2053, 560):
        local = strategy_plan(seq, Strategy.S)
        steps = lower_plan(local, seq)
        for i, (pred, succ) in enumerate(zip(steps, steps[1:])):
            acc = succ.rpu[0].id
            if all(op.commutes for op in pred.query.ops) and acc in tuple(op.id for op in pred.rpu)[:-1]:
                hint = Hint((acc,), seq.gaps[i], succ.query.table.size_mb / profile.r_scan)
                yield seq, profile, local, i, pred, hint


def test_rpu_policy_picks_the_cost_argmin_at_n_query_boundaries():
    # the device policy, reading what the PR holds off the plan, must pick
    # the cheaper of a SPECULATIVE reload at the predecessor's boundary and
    # the swapped order
    checked = swaps = 0
    for seq, profile, local, i, pred, hint in policy_boundaries():
        acc = hint.next_accelerators[0]
        modes = list(local.modes)
        modes[i] = Mode.SPECULATIVE
        speculative = Plan(Strategy.III, local.rpu_order, tuple(modes))
        moved = tuple(op.id for op in pred.rpu if op.id != acc) + (acc,)
        swapped = Plan(Strategy.IV, local.rpu_order[:i] + (moved,) + local.rpu_order[i + 1 :], local.modes)
        t_speculative = plan_cost(seq, speculative, profile).total
        t_swap = plan_cost(seq, swapped, profile).total

        decision = rpu_policy(hint, seq, local, i, profile)
        margin = decision.rationale["t_swap"] - decision.rationale["t_speculative"]
        assert math.isclose(margin, t_swap - t_speculative, abs_tol=1e-9), (i, seq, profile)
        if decision.choice is ReconfigChoice.SWAP:
            assert t_swap <= t_speculative + 1e-9, (i, seq, profile)
            swaps += 1
        else:
            assert t_speculative <= t_swap + 1e-9, (i, seq, profile)
        checked += 1
    assert checked >= 300 and 0 < swaps < checked


#: sha256 of every ``rpu_policy`` decision's choice and rationale, each
#: value as ``float.hex``, over :func:`policy_boundaries` and every boundary
#: of every strategy plan on the paper's scenario.
RATIONALE_SHA256 = "00deff6787d0c63b73d3974d07e9f4704a65b27c334f8be7097e6f1f7a5ee37f"


def test_rpu_policy_rationale_pinned_to_the_bit():
    decisions = [rpu_policy(hint, seq, local, i, profile) for seq, profile, local, i, _, hint in policy_boundaries()]
    seq, profile = default_scenario(), calibrated_profile()
    for plan in enumerate_plans(seq):
        for hint in generate_hints(seq, plan, profile):
            decisions.append(rpu_policy(hint, seq, plan, 0, profile))  # two queries, one boundary
    text = "\n".join(
        f"{d.choice.value} " + " ".join(f"{k}={v.hex()}" for k, v in d.rationale.items()) for d in decisions
    )
    assert hashlib.sha256(text.encode()).hexdigest() == RATIONALE_SHA256


#: ``float.hex`` of ``plan_cost`` totals and ``simulate`` makespans on the
#: default scenario.  The two engines add in different orders, so they may
#: differ in the last bit, but neither may drift.
DEFAULT_SCENARIO_HEX = {
    "S": ("0x1.2171111111112p+6", "0x1.2171111111111p+6"),
    "I": ("0x1.f50bcf64e5ec1p+5", "0x1.f50bcf64e5ec1p+5"),
    "II": ("0x1.27a18d95c6edep+6", "0x1.27a18d95c6edep+6"),
    "III": ("0x1.d2e2222222223p+5", "0x1.d2e2222222221p+5"),
    "IV": ("0x1.d7aeeeeeeeeefp+5", "0x1.d7aeeeeeeeeefp+5"),
}


def test_default_scenario_totals_pinned_to_the_bit():
    seq, profile = default_scenario(), calibrated_profile()
    found = {}
    for strategy in STRATEGY_ORDER:
        plan = strategy_plan(seq, strategy)
        found[str(strategy)] = (
            plan_cost(seq, plan, profile).total.hex(),
            simulate(seq, plan, profile).makespan.hex(),
        )
    assert found == DEFAULT_SCENARIO_HEX
