"""The per-sequence plan memo: work is kept per sequence object, failures are not.

A ``QuerySequence`` keeps the plans ``enumerate_plans`` built, the plans
``check_plan`` accepted and the breakdowns ``plan_cost`` folded, and
nothing else.  These tests pin that
the memo never changes an answer: failures raise on every call (an
overflowing total too, which is folded again each time), separately built
sequences share nothing, value semantics ignore the memo, each profile
gets its own total, and memoized results equal those of a freshly built
sequence to the last bit.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import rpusim.cost
from rpusim import (
    DeviceProfile,
    IllegalPlanError,
    Mode,
    NonFiniteResultError,
    Plan,
    QuerySequence,
    Strategy,
    calibrated_profile,
    check_plan,
    choose_plan,
    enumerate_plans,
    generate_hints,
    plan_cost,
    rpu_policy,
    simulate,
    strategy_plan,
)
from conftest import canonical_sequence
from test_engine_agreement import random_plan, random_profile, random_sequence
from test_work_counts import _counting

TINY_NETWORK = DeviceProfile(15.0, 1.0, 1.5, 1e-320, 0.03)


def _fresh(seq: QuerySequence) -> QuerySequence:
    return QuerySequence(seq.queries, seq.gaps)


@pytest.mark.parametrize(
    "call",
    [
        lambda seq, plan, profile: check_plan(plan, seq),
        lambda seq, plan, profile: plan_cost(seq, plan, profile),
        lambda seq, plan, profile: simulate(seq, plan, profile),
        lambda seq, plan, profile: generate_hints(seq, plan, profile),
        lambda seq, plan, profile: rpu_policy(None, seq, plan, 0, profile),
    ],
    ids=["check_plan", "plan_cost", "simulate", "generate_hints", "rpu_policy"],
)
def test_illegal_plan_raises_on_every_call(paper_seq, profile, call):
    illegal = Plan(Strategy.S, (("acc0", "acc0"), ("acc0",)), (Mode.BASELINE,))
    for _ in range(3):
        with pytest.raises(IllegalPlanError, match="distinct ops"):
            call(paper_seq, illegal, profile)
    # a legal plan costed in between does not make the illegal one pass
    plan_cost(paper_seq, strategy_plan(paper_seq, Strategy.S), profile)
    with pytest.raises(IllegalPlanError):
        call(paper_seq, illegal, profile)


def _applicable_one_by_one(seq: QuerySequence) -> dict:
    plans = {}
    for strategy in Strategy:
        try:
            plans[strategy] = strategy_plan(seq, strategy)
        except IllegalPlanError:
            pass
    return plans


@pytest.mark.parametrize("strategy_plan_first", [True, False], ids=["strategy_plan-first", "enumerate_plans-first"])
def test_strategy_plan_returns_the_plan_enumerate_plans_holds(strategy_plan_first):
    rng = random.Random(28)
    for seq in (canonical_sequence(), *(random_sequence(rng) for _ in range(50))):
        if strategy_plan_first:
            one_by_one = _applicable_one_by_one(seq)
            held = {plan.strategy: plan for plan in enumerate_plans(seq)}
        else:
            held = {plan.strategy: plan for plan in enumerate_plans(seq)}
            one_by_one = _applicable_one_by_one(seq)
        assert one_by_one.keys() == held.keys(), seq
        assert all(one_by_one[s] is held[s] for s in held), seq


def test_overflowing_total_raises_on_every_call(monkeypatch, paper_seq):
    plan = strategy_plan(paper_seq, Strategy.S)
    folds = _counting(monkeypatch, rpusim.cost, "_fold")
    for _ in range(3):
        with pytest.raises(NonFiniteResultError, match="plan cost overflows"):
            plan_cost(paper_seq, plan, TINY_NETWORK)
        assert (plan, TINY_NETWORK) not in paper_seq._memo
    # nothing of the failed fold is kept, so each call folds again
    assert sum(folds.values()) == 3


def test_equal_sequences_built_separately_share_no_memo(profile):
    a, b = canonical_sequence(), canonical_sequence()
    assert a == b and a._memo is not b._memo
    plan, breakdown = choose_plan(a, profile)
    assert a._memo and not b._memo
    assert plan_cost(b, plan, profile) == breakdown
    # each keeps its own breakdown, equal in content
    kept_a, kept_b = a._memo[plan, profile], b._memo[plan, profile]
    assert kept_a is not kept_b and kept_a == kept_b == breakdown


def _key_kind(key) -> str:
    if isinstance(key, tuple):
        return "/".join(type(part).__name__ for part in key)
    return type(key).__name__


def test_memo_holds_only_the_key_kinds_query_sequence_documents(profile):
    """The whole planning pipeline, on the paper's scenario and on random
    sequences with random mixed-mode plans, leaves only strategies, checked
    plans and ``(plan, profile)`` breakdowns."""
    rng = random.Random(26)
    for seq in (canonical_sequence(), *(random_sequence(rng) for _ in range(20))):
        chosen, _ = choose_plan(seq, profile, hints_enabled=True)
        choose_plan(seq, profile, hints_enabled=False)
        generate_hints(seq, chosen, profile)
        simulate(seq, chosen, profile)
        plan_cost(seq, random_plan(rng, seq), profile)
        kinds = set(map(_key_kind, seq._memo))
        assert kinds == {"Strategy", "Plan", "Plan/DeviceProfile"}, seq


def test_value_semantics_ignore_the_memo(paper_seq, profile):
    other = canonical_sequence()
    before = (hash(paper_seq), repr(paper_seq))
    choose_plan(paper_seq, profile)
    simulate(paper_seq, enumerate_plans(paper_seq)[-1], profile)
    assert paper_seq._memo and not other._memo
    assert paper_seq == other
    assert (hash(paper_seq), repr(paper_seq)) == before == (hash(other), repr(other))
    assert "_memo" not in repr(paper_seq)
    copy = dataclasses.replace(paper_seq)
    assert copy == paper_seq and copy._memo == {}
    regapped = dataclasses.replace(paper_seq, gaps=(30.0,))
    assert regapped._memo == {}
    plan = strategy_plan(paper_seq, Strategy.S)
    assert plan_cost(regapped, plan, profile).total == pytest.approx(plan_cost(paper_seq, plan, profile).total + 29.0)


def test_one_sequence_under_two_profiles_gets_each_profiles_total(paper_seq):
    slow = dataclasses.replace(calibrated_profile(), t_reconfig=40.0)
    plans = enumerate_plans(paper_seq)
    expected = {
        profile: [plan_cost(canonical_sequence(), plan, profile).total for plan in plans]
        for profile in (calibrated_profile(), slow)
    }
    for _ in range(2):
        for profile, totals in expected.items():
            assert [plan_cost(paper_seq, plan, profile).total for plan in plans] == totals
    assert expected[slow] != expected[calibrated_profile()]
    assert choose_plan(paper_seq, slow)[1].total == min(expected[slow])


def test_memoized_results_equal_a_fresh_sequence_bit_for_bit():
    """On the engine-agreement corpus, every total and makespan read through
    a sequence that already planned itself equals the first computation on a
    freshly built equal sequence, by ``float.hex``."""
    rng = random.Random(2005)
    checked = 0
    for _ in range(400):
        seq = random_sequence(rng)
        profile = random_profile(rng)
        plans = enumerate_plans(seq) + [random_plan(rng, seq) for _ in range(2)]
        # fill the memo the way the planning pipeline does
        chosen, _ = choose_plan(seq, profile, hints_enabled=True)
        choose_plan(seq, profile, hints_enabled=False)
        generate_hints(seq, chosen, profile)
        simulate(seq, chosen, profile)
        for plan in plans:
            memoized = plan_cost(seq, plan, profile)
            fresh = plan_cost(_fresh(seq), plan, profile)
            assert memoized.total.hex() == fresh.total.hex(), (plan, seq)
            assert [t.hex() for _, t in memoized.per_query] == [t.hex() for _, t in fresh.per_query]
            makespan = simulate(seq, plan, profile).makespan
            assert makespan.hex() == simulate(_fresh(seq), plan, profile).makespan.hex(), (plan, seq)
            checked += 1
    assert checked > 1200

