from __future__ import annotations

import pytest

from rpusim import (
    FilterOp,
    IllegalPlanError,
    Mode,
    Placement,
    Plan,
    Query,
    QuerySequence,
    SpeculativeLoad,
    Strategy,
    TableSpec,
    compile_plan,
    enumerate_plans,
    legality,
    local_order,
    require_legal,
    shared_accelerators,
    strategy_plan,
)


def _seq(*queries: Query, gaps=None) -> QuerySequence:
    return QuerySequence(queries=queries, gaps=gaps or (1.0,) * (len(queries) - 1))


def _q(qid, size, *ops, commutes=True):
    return Query(qid, TableSpec(f"t_{qid}", size), tuple(FilterOp(i, f, commutes) for i, f in ops))


class TestSharedAccelerators:
    def test_paper_pair(self, paper_seq):
        assert shared_accelerators(paper_seq) == {("Q0", "Q1"): ["acc0"]}

    def test_disjoint(self):
        seq = _seq(_q("A", 1.0, ("x", 0.5)), _q("B", 1.0, ("y", 0.5)))
        assert shared_accelerators(seq) == {("A", "B"): []}

    def test_three_queries(self):
        seq = _seq(
            _q("A", 1.0, ("x", 0.5), ("y", 0.5)),
            _q("B", 1.0, ("y", 0.5)),
            _q("C", 1.0, ("x", 0.5)),
        )
        assert shared_accelerators(seq) == {("A", "B"): ["y"], ("B", "C"): []}


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
        assert plan.rpu_order["Q0"] == ("acc0", "acc1")
        assert plan.placements["Q0"] == {"acc0": Placement.RPU, "acc1": Placement.RPU}

    def test_i_pushes_lowest_selectivity(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.I)
        assert plan.rpu_order["Q0"] == ("acc0",)
        assert plan.placements["Q0"]["acc1"] is Placement.HOST
        assert plan.rpu_order["Q1"] == ("acc0",)

    def test_ii_pushes_second(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.II)
        assert plan.rpu_order["Q0"] == ("acc1",)
        assert plan.placements["Q0"]["acc0"] is Placement.HOST

    def test_iii_speculative_load(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.III)
        assert plan.speculative_loads == (SpeculativeLoad("Q0", "acc1", "acc0"),)
        assert plan.rpu_order["Q0"] == ("acc0", "acc1")

    def test_iv_swaps_shared_accelerator_last(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.IV)
        assert plan.rpu_order["Q0"] == ("acc1", "acc0")
        assert plan.speculative_loads == ()

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
        plan = Plan(
            strategy=Strategy.IV,
            placements={
                "Q0": {"acc0": Placement.RPU, "acc1": Placement.RPU},
                "Q1": {"acc0": Placement.RPU},
            },
            rpu_order={"Q0": ("acc1", "acc0"), "Q1": ("acc0",)},
        )
        ok, reason = legality(plan, seq)
        assert not ok
        assert "non-commuting" in reason
        with pytest.raises(IllegalPlanError, match="non-commuting"):
            require_legal(plan, seq)

    def test_missing_placement_is_illegal(self, paper_seq):
        plan = Plan(
            strategy=Strategy.S,
            placements={"Q0": {"acc0": Placement.RPU}, "Q1": {"acc0": Placement.RPU}},
            rpu_order={"Q0": ("acc0",), "Q1": ("acc0",)},
        )
        ok, reason = legality(plan, paper_seq)
        assert not ok
        assert "cover its ops" in reason

    def test_rpu_order_must_match_placements(self, paper_seq):
        plan = Plan(
            strategy=Strategy.I,
            placements={
                "Q0": {"acc0": Placement.RPU, "acc1": Placement.HOST},
                "Q1": {"acc0": Placement.RPU},
            },
            rpu_order={"Q0": ("acc0", "acc1"), "Q1": ("acc0",)},
        )
        ok, reason = legality(plan, paper_seq)
        assert not ok
        assert "RPU-placed" in reason

    def test_loads_only_in_strategy_iii(self, paper_seq):
        plan = strategy_plan(paper_seq, Strategy.S)
        tampered = Plan(
            strategy=Strategy.S,
            placements=plan.placements,
            rpu_order=plan.rpu_order,
            speculative_loads=(SpeculativeLoad("Q0", "acc1", "acc0"),),
        )
        ok, reason = legality(tampered, paper_seq)
        assert not ok
        assert "strategy III" in reason

    def test_load_on_non_sharing_pair_is_illegal(self):
        seq = _seq(
            _q("A", 3.0, ("x", 0.3), ("y", 0.4)),
            _q("B", 2.0, ("y", 0.5)),
            _q("C", 1.0, ("w", 0.5)),
        )
        plan = strategy_plan(seq, Strategy.III)
        tampered = Plan(
            strategy=Strategy.III,
            placements=plan.placements,
            rpu_order=plan.rpu_order,
            speculative_loads=plan.speculative_loads + (SpeculativeLoad("B", "y", "w"),),
        )
        ok, reason = legality(tampered, seq)
        assert not ok
        assert "shares no accelerator" in reason

    def test_redundant_load_is_illegal(self):
        # Q0's last accelerator is already the one Q1 needs
        seq = _seq(_q("Q0", 3.0, ("a", 0.3), ("b", 0.9)), _q("Q1", 2.0, ("b", 0.5)))
        base = strategy_plan(seq, Strategy.S)
        plan = Plan(
            strategy=Strategy.III,
            placements=base.placements,
            rpu_order=base.rpu_order,
            speculative_loads=(SpeculativeLoad("Q0", "b", "b"),),
        )
        ok, reason = legality(plan, seq)
        assert not ok
        assert "redundant" in reason

    def test_iii_without_sharing_requires_sequence_knowledge(self):
        seq = _seq(_q("Q0", 9.0, ("a", 0.3), ("b", 0.4)), _q("Q1", 1.0, ("c", 0.5)))
        base = strategy_plan(seq, Strategy.S)
        plan = Plan(
            strategy=Strategy.III,
            placements=base.placements,
            rpu_order=base.rpu_order,
        )
        ok, reason = legality(plan, seq)
        assert not ok
        assert "requires sequence knowledge" in reason


class TestCompilePlan:
    SEQ = _seq(
        _q("A", 3.0, ("y", 0.3), ("x", 0.4)),
        _q("B", 2.0, ("y", 0.5), ("w", 0.6)),
        _q("C", 1.0, ("z", 0.5)),
    )

    def test_modes_per_strategy(self):
        expected = {
            Strategy.S: [Mode.BASELINE] * 3,
            Strategy.I: [Mode.BASELINE] * 3,
            Strategy.II: [Mode.BASELINE, Mode.HOLD, Mode.HOLD],
            # A leaves x loaded and B needs y first; C shares nothing with B
            Strategy.III: [Mode.BASELINE, Mode.SPECULATIVE, Mode.BASELINE],
            Strategy.IV: [Mode.BASELINE] * 3,
        }
        plans = enumerate_plans(self.SEQ)
        assert [p.strategy for p in plans] == list(expected)
        for plan in plans:
            assert [s.mode for s in compile_plan(plan, self.SEQ)] == expected[plan.strategy]

    def test_steps_carry_placed_ops_in_order(self):
        plan = strategy_plan(self.SEQ, Strategy.I)
        steps = compile_plan(plan, self.SEQ)
        assert [s.query.id for s in steps] == ["A", "B", "C"]
        assert [op.id for op in steps[0].rpu] == ["y"]
        assert [op.id for op in steps[0].host] == ["x"]
        assert [op.id for op in steps[2].rpu] == ["z"]
        assert steps[2].host == ()
