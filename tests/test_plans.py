from __future__ import annotations

import random
from collections import Counter

import pytest

from rpusim import (
    FilterOp,
    IllegalPlanError,
    Mode,
    Plan,
    Query,
    QuerySequence,
    Strategy,
    TableSpec,
    calibrated_profile,
    check_plan,
    default_scenario,
    enumerate_plans,
    generate_hints,
    legality,
    local_order,
    plan_cost,
    shared_accelerators,
    simulate,
    strategy_plan,
)
from rpusim.plans import _host_ops, _local_ids
from test_engine_agreement import POOL, random_plan, random_profile, random_sequence


def _seq(*queries: Query, gaps=None) -> QuerySequence:
    return QuerySequence(queries=queries, gaps=gaps or (1.0,) * (len(queries) - 1))


def _q(qid, size, *ops, commutes=True):
    return Query(qid, TableSpec(f"t_{qid}", size), tuple(FilterOp(i, f, commutes) for i, f in ops))


class TestSharedAccelerators:
    def test_paper_pair(self, paper_seq):
        assert shared_accelerators(paper_seq) == [["acc0"]]

    def test_disjoint(self):
        seq = _seq(_q("A", 1.0, ("x", 0.5)), _q("B", 1.0, ("y", 0.5)))
        assert shared_accelerators(seq) == [[]]

    def test_three_queries(self):
        seq = _seq(
            _q("A", 1.0, ("x", 0.5), ("y", 0.5)),
            _q("B", 1.0, ("y", 0.5)),
            _q("C", 1.0, ("x", 0.5)),
        )
        assert shared_accelerators(seq) == [["y"], []]


class TestLocalOrder:
    def test_ascending_selectivity(self):
        ops = (FilterOp("b", 0.9), FilterOp("a", 0.1), FilterOp("c", 0.5))
        assert [op.id for op in local_order(ops)] == ["a", "c", "b"]

    def test_tie_breaks_on_id(self):
        ops = (FilterOp("b", 0.5), FilterOp("a", 0.5))
        assert [op.id for op in local_order(ops)] == ["a", "b"]

    def test_non_commuting_keeps_declared_order(self):
        ops = (FilterOp("b", 0.9, commutes=False), FilterOp("a", 0.1))
        assert [op.id for op in local_order(ops)] == ["b", "a"]


class TestLocalIds:
    """``_local_ids`` keeps cached ids or sorts in C; it must name the ops
    of ``local_order`` in the same order."""

    def test_matches_local_order_on_engine_agreement_sequences(self):
        rng = random.Random(2005)
        sorted_queries = 0
        for _ in range(400):
            seq = random_sequence(rng)
            random_profile(rng)  # keep the stream of the engine-agreement sequences
            expected = tuple(tuple(op.id for op in local_order(q.ops)) for q in seq.queries)
            assert _local_ids(seq) == expected, seq
            sorted_queries += sum(list(order) != list(q.op_ids()) for q, order in zip(seq.queries, expected))
        # many queries are reordered, not only kept
        assert sorted_queries > 300

    def test_selectivity_tie_breaks_on_id(self):
        seq = _seq(_q("A", 1.0, ("c", 0.5), ("b", 0.5), ("a", 0.9)), _q("B", 1.0, ("x", 0.5)))
        assert _local_ids(seq) == (("b", "c", "a"), ("x",))

    def test_non_commuting_query_keeps_declared_order(self):
        seq = _seq(
            Query("A", TableSpec("t", 1.0), (FilterOp("b", 0.9), FilterOp("a", 0.1, commutes=False))),
            _q("B", 1.0, ("y", 0.9), ("x", 0.1)),
        )
        assert _local_ids(seq) == (("b", "a"), ("x", "y"))

    def test_one_op_query_keeps_its_id(self):
        seq = _seq(_q("A", 1.0, ("z", 0.2)), _q("B", 1.0, ("y", 0.9)), _q("C", 1.0, ("x", 0.0), commutes=False))
        assert _local_ids(seq) == (("z",), ("y",), ("x",))


class TestEnumerate:
    def test_paper_scenario_yields_all_five(self, paper_seq):
        strategies = [p.strategy for p in enumerate_plans(paper_seq)]
        assert strategies == [Strategy.S, Strategy.I, Strategy.II, Strategy.III, Strategy.IV]

    def test_single_op_first_query(self):
        seq = _seq(_q("Q0", 2.0, ("acc0", 0.5)), _q("Q1", 1.0, ("acc0", 0.4)))
        strategies = [p.strategy for p in enumerate_plans(seq)]
        assert strategies == [Strategy.S, Strategy.III]

    def test_non_commuting_excludes_iv(self):
        seq = _seq(
            _q("Q0", 9.0, ("acc0", 0.33), ("acc1", 0.43), commutes=False),
            _q("Q1", 1.0, ("acc0", 0.14)),
        )
        strategies = [p.strategy for p in enumerate_plans(seq)]
        assert Strategy.IV not in strategies
        assert Strategy.S in strategies and Strategy.III in strategies

    def test_no_sharing_excludes_iii_and_iv(self):
        seq = _seq(_q("Q0", 9.0, ("a", 0.3), ("b", 0.4)), _q("Q1", 1.0, ("c", 0.5)))
        strategies = [p.strategy for p in enumerate_plans(seq)]
        assert strategies == [Strategy.S, Strategy.I, Strategy.II]

    def test_all_plans_pass_legality(self, paper_seq):
        for plan in enumerate_plans(paper_seq):
            ok, reason = legality(plan, paper_seq)
            assert ok, reason


class TestStrategyPlans:
    def test_s_orders_ascending(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.S)
        assert plan.rpu_order == (("acc0", "acc1"), ("acc0",))
        assert plan.modes == (Mode.BASELINE,)

    def test_i_pushes_lowest_selectivity(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.I)
        assert plan.rpu_order == (("acc0",), ("acc0",))
        assert [op.id for op in _host_ops(paper_seq.queries[0], plan.rpu_order[0])] == ["acc1"]

    def test_ii_pushes_second(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.II)
        assert plan.rpu_order[0] == ("acc1",)
        assert [op.id for op in _host_ops(paper_seq.queries[0], plan.rpu_order[0])] == ["acc0"]
        assert plan.modes == (Mode.HOLD,)

    def test_iii_speculative_load(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.III)
        assert plan.modes == (Mode.SPECULATIVE,)
        assert plan.load_after(0)
        assert plan.rpu_order[0] == ("acc0", "acc1")

    def test_iv_swaps_shared_accelerator_last(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.IV)
        assert plan.rpu_order[0] == ("acc1", "acc0")
        assert plan.modes == (Mode.BASELINE,)

    def test_inapplicable_raises(self):
        seq = _seq(_q("Q0", 2.0, ("a", 0.5)), _q("Q1", 1.0, ("b", 0.4)))
        with pytest.raises(IllegalPlanError):
            strategy_plan(seq, Strategy.I)
        with pytest.raises(IllegalPlanError):
            strategy_plan(seq, Strategy.III)
        with pytest.raises(IllegalPlanError):
            strategy_plan(seq, Strategy.IV)


class TestLegality:
    def test_commuting_swap_is_legal(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.IV)
        ok, reason = legality(plan, paper_seq)
        assert ok, reason

    def test_non_commuting_swap_is_illegal(self):
        seq = _seq(
            _q("Q0", 9.0, ("acc0", 0.33), ("acc1", 0.43), commutes=False),
            _q("Q1", 1.0, ("acc0", 0.14)),
        )
        plan = Plan(Strategy.IV, (("acc1", "acc0"), ("acc0",)), (Mode.BASELINE,))
        ok, reason = legality(plan, seq)
        assert not ok
        assert "non-commuting" in reason
        with pytest.raises(IllegalPlanError, match="^illegal plan: non-commuting"):
            check_plan(plan, seq)

    def test_missing_placement_is_illegal(self, paper_seq):
        plan = Plan(Strategy.S, (("acc0", "acc1"),), (Mode.BASELINE,))
        ok, reason = legality(plan, paper_seq)
        assert not ok
        assert "rpu_order lists 1 orders for 2 queries" in reason

    def test_rpu_order_must_match_placements(self, paper_seq):
        # an op runs on the RPU iff its query's order lists it, so the order
        # may only list distinct ops of that query
        for q1_order in (("acc1",), ("acc0", "acc0")):
            plan = Plan(Strategy.S, (("acc0", "acc1"), q1_order), (Mode.BASELINE,))
            ok, reason = legality(plan, paper_seq)
            assert not ok
            assert "distinct ops of that query" in reason

    def test_mode_count_must_match_boundaries(self, paper_seq):
        base = strategy_plan(paper_seq, Strategy.S)
        for modes in ((), (Mode.BASELINE, Mode.BASELINE)):
            ok, reason = legality(Plan(Strategy.S, base.rpu_order, modes), paper_seq)
            assert not ok
            assert "boundary modes for 1 query boundaries" in reason

    def test_load_on_non_sharing_pair_is_illegal(self):
        seq = _seq(
            _q("A", 3.0, ("x", 0.3), ("y", 0.4)),
            _q("B", 2.0, ("y", 0.5)),
            _q("C", 1.0, ("w", 0.5)),
        )
        plan = strategy_plan(seq, Strategy.III)
        # A leaves y loaded, which B needs first, so III reloads nowhere
        assert plan.modes == (Mode.BASELINE, Mode.BASELINE)
        tampered = Plan(Strategy.III, plan.rpu_order, (Mode.BASELINE, Mode.SPECULATIVE))
        ok, reason = legality(tampered, seq)
        assert not ok
        assert "between 'B' and 'C', which share no accelerator" in reason

    def test_iii_without_sharing_requires_sequence_knowledge(self):
        seq = _seq(_q("Q0", 9.0, ("a", 0.3), ("b", 0.4)), _q("Q1", 1.0, ("c", 0.5)))
        with pytest.raises(IllegalPlanError, match="requires sequence knowledge"):
            strategy_plan(seq, Strategy.III)

    @pytest.mark.parametrize("bad", ["baseline", None], ids=["mode-name", "none"])
    def test_boundary_mode_must_be_a_mode(self, bad):
        seq = default_scenario()
        plan = Plan(Strategy.S, strategy_plan(seq, Strategy.S).rpu_order, (bad,))
        ok, reason = legality(plan, seq)
        assert not ok
        assert reason == f"boundary 0 has mode {bad!r}, which is not a Mode"
        profile = calibrated_profile()
        for call in (plan_cost, simulate, generate_hints):
            with pytest.raises(IllegalPlanError, match="^illegal plan: boundary 0 has mode"):
                call(seq, plan, profile)
        with pytest.raises(IllegalPlanError, match="^illegal plan: boundary 0 has mode"):
            check_plan(plan, seq)

    def test_bad_mode_is_named_by_its_boundary(self):
        seq = _seq(_q("A", 1.0, ("x", 0.5)), _q("B", 1.0, ("x", 0.5)), _q("C", 1.0, ("x", 0.5)))
        plan = Plan(Strategy.S, (("x",),) * 3, (Mode.SPECULATIVE, "hold"))
        assert legality(plan, seq) == (False, "boundary 1 has mode 'hold', which is not a Mode")

    def test_strategy_is_only_a_label(self, paper_seq):
        # legality reads the orders and modes; any builder name may carry them
        iii = strategy_plan(paper_seq, Strategy.III)
        for strategy in Strategy:
            ok, reason = legality(Plan(strategy, iii.rpu_order, iii.modes), paper_seq)
            assert ok, reason


class TestThreeQueryPlans:
    SEQ = _seq(
        _q("A", 3.0, ("y", 0.3), ("x", 0.4)),
        _q("B", 2.0, ("y", 0.5), ("w", 0.6)),
        _q("C", 1.0, ("z", 0.5)),
    )

    def test_modes_per_strategy(self):
        expected = {
            Strategy.S: (Mode.BASELINE, Mode.BASELINE),
            Strategy.I: (Mode.BASELINE, Mode.BASELINE),
            Strategy.II: (Mode.HOLD, Mode.HOLD),
            # A leaves x loaded and B needs y first; C shares nothing with B
            Strategy.III: (Mode.SPECULATIVE, Mode.BASELINE),
            Strategy.IV: (Mode.BASELINE, Mode.BASELINE),
        }
        plans = enumerate_plans(self.SEQ)
        assert [p.strategy for p in plans] == list(expected)
        for plan in plans:
            assert plan.modes == expected[plan.strategy]
            assert strategy_plan(self.SEQ, plan.strategy) == plan

    def test_host_ops_are_the_unstreamed_ops_in_declared_order(self):
        plan = strategy_plan(self.SEQ, Strategy.I)
        assert plan.rpu_order == (("y",), ("y",), ("z",))
        host = [[op.id for op in _host_ops(q, order)] for q, order in zip(self.SEQ.queries, plan.rpu_order)]
        assert host == [["x"], ["w"], []]
        a = self.SEQ.queries[0]
        assert [op.id for op in _host_ops(a, ())] == ["y", "x"]
        assert _host_ops(a, ("x", "y")) == ()


def reference_legality(plan: Plan, seq: QuerySequence) -> tuple[bool, str]:
    """``legality`` as it was before its fast paths: every query builds its
    op sets and runs the pairwise reorder loop."""
    if len(plan.rpu_order) != len(seq.queries):
        return False, f"rpu_order lists {len(plan.rpu_order)} orders for {len(seq.queries)} queries"

    for q, order in zip(seq.queries, plan.rpu_order):
        by_id = {op.id: op for op in q.ops}
        distinct = set(order)
        if len(distinct) != len(order) or not by_id.keys() >= distinct:
            return False, f"rpu_order for query {q.id!r} must list distinct ops of that query"
        declared = q.op_ids()
        for a_pos, a in enumerate(order):
            for b in order[a_pos + 1 :]:
                if declared.index(a) > declared.index(b) and not (
                    by_id[a].commutes and by_id[b].commutes
                ):
                    return False, f"non-commuting reorder of {a!r} and {b!r} in query {q.id!r}"

    if len(plan.modes) != len(seq.gaps):
        return False, f"{len(plan.modes)} boundary modes for {len(seq.gaps)} query boundaries"
    for mode, pred, succ in zip(plan.modes, seq.queries, seq.queries[1:]):
        if mode is Mode.SPECULATIVE and {op.id for op in pred.ops}.isdisjoint(succ.op_ids()):
            return False, (
                f"speculative boundary between {pred.id!r} and {succ.id!r}, "
                "which share no accelerator"
            )
    return True, "ok"


def _order_mutations(q: Query, order: tuple[str, ...]):
    """Orders for one query: foreign and duplicated ops, swapped pairs, and
    every empty, 1-op and reversed order."""
    declared = q.op_ids()
    foreign = next(op_id for op_id in (*POOL, "zz") if op_id not in declared)
    yield order + (foreign,)
    yield (foreign,)
    yield order + order[:1] if order else declared[:1] * 2
    yield ()
    yield from ((op_id,) for op_id in declared)
    yield tuple(reversed(declared))
    for i, a in enumerate(declared):
        for b in declared[i + 1 :]:
            yield (b, a)


def _mutations(seq: QuerySequence, plan: Plan):
    order, modes = plan.rpu_order, plan.modes
    for i, q in enumerate(seq.queries):
        for mutated in _order_mutations(q, order[i]):
            yield Plan(plan.strategy, order[:i] + (mutated,) + order[i + 1 :], modes)
    yield Plan(plan.strategy, order[1:], modes)
    yield Plan(plan.strategy, order[:-1], modes)
    yield Plan(plan.strategy, order + ((),), modes)
    yield Plan(plan.strategy, order, modes[:-1])
    yield Plan(plan.strategy, order, modes + (Mode.BASELINE,))
    for i in range(len(modes)):
        yield Plan(plan.strategy, order, modes[:i] + (Mode.SPECULATIVE,) + modes[i + 1 :])


def _rule(reason: str) -> str:
    for rule in ("ok", "orders for", "distinct ops", "non-commuting", "boundary modes", "speculative"):
        if rule in reason:
            return rule
    raise AssertionError(reason)


def test_legality_matches_reference_on_engine_agreement_sequences():
    rng = random.Random(2005)
    plan_rng = random.Random(2006)
    rules: Counter = Counter()
    for _ in range(400):
        seq = random_sequence(rng)
        random_profile(rng)  # keep the stream of the engine-agreement sequences
        for plan in enumerate_plans(seq) + [random_plan(plan_rng, seq)]:
            for candidate in (plan, *_mutations(seq, plan)):
                expected = reference_legality(candidate, seq)
                assert legality(candidate, seq) == expected, (candidate, seq)
                rules[_rule(expected[1])] += 1
    # every rule passes and fails many times
    assert min(rules.values()) > 1000 and len(rules) == 6, rules


def _random_order(rng: random.Random, q: Query) -> tuple[str, ...]:
    """A random order for one query: its declared ids, a permutation of a
    random subset of them, or, more rarely, one with a duplicated or a
    foreign id, so that most plans reach the later rules."""
    declared = q.op_ids()
    kind = rng.choices(range(4), weights=(6, 10, 1, 1))[0]
    if kind == 0:
        return declared
    order = rng.sample(declared, rng.randint(0, len(declared)))
    if kind == 2 and order:
        order.insert(rng.randint(0, len(order)), rng.choice(order))
    elif kind == 3:
        order.insert(rng.randint(0, len(order)), rng.choice([*POOL, "zz"]))
    return tuple(order)


def test_legality_matches_reference_on_random_orders():
    """Random orders over the engine-agreement sequences, declared orders
    among them: ``legality``, with its declared-order shortcut, gives the
    pairwise reference's verdict and reason."""
    rng = random.Random(2005)
    order_rng = random.Random(2007)
    rules: Counter = Counter()
    declared = 0
    for _ in range(400):
        seq = random_sequence(rng)
        random_profile(rng)  # keep the stream of the engine-agreement sequences
        for _ in range(20):
            rpu_order = tuple(_random_order(order_rng, q) for q in seq.queries)
            modes = tuple(order_rng.choice(list(Mode)) for _ in seq.gaps)
            plan = Plan(Strategy.S, rpu_order, modes)
            expected = reference_legality(plan, seq)
            assert legality(plan, seq) == expected, (plan, seq)
            rules[_rule(expected[1])] += 1
            declared += sum(order == q.op_ids() for q, order in zip(seq.queries, rpu_order))
    assert declared > 10000
    assert min(rules[rule] for rule in ("ok", "distinct ops", "non-commuting", "speculative")) > 1000, rules


def test_plans_are_hashable_values():
    rng = random.Random(2005)
    for _ in range(400):
        seq = random_sequence(rng)
        random_profile(rng)  # keep the stream of the engine-agreement sequences
        plans = enumerate_plans(seq)
        for plan in plans:
            twin = Plan(plan.strategy, tuple(tuple(list(order)) for order in plan.rpu_order), plan.modes)
            assert twin == plan and hash(twin) == hash(plan)
            assert strategy_plan(seq, plan.strategy) in set(plans)
        # plans are equal exactly when their orders and modes are
        assert len(set(plans)) == len({(plan.rpu_order, plan.modes) for plan in plans})
