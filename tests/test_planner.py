from __future__ import annotations

import dataclasses
import math
import random
from pathlib import Path

import pytest

from rpusim import (
    FilterOp,
    Hint,
    Mode,
    NonFiniteResultError,
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
    plan_cost,
    rpu_policy,
    strategy_plan,
)
from conftest import canonical_sequence, random_params
from _oracle import strategy_totals


class TestChoosePlan:
    def test_reference_scenario_picks_iii(self, paper_seq, profile):
        plan, breakdown = choose_plan(paper_seq, profile, hints_enabled=True)
        assert plan.strategy is Strategy.III
        assert breakdown.total == pytest.approx(58.36041666666666, rel=1e-12)

    def test_small_scale_small_gap_crossover(self, profile):
        # at half scale and a 0.5 ms gap the swap beats the speculative
        # reload, and the global optimum is the partial pushdown
        seq = canonical_sequence(s0=4.5, s1=0.5, gap=0.5)
        t_iii = plan_cost(seq, strategy_plan(seq, Strategy.III), profile).total
        t_iv = plan_cost(seq, strategy_plan(seq, Strategy.IV), profile).total
        assert t_iv < t_iii
        plan, breakdown = choose_plan(seq, profile, hints_enabled=True)
        oracle = strategy_totals(4.5, 0.33, 0.43, 0.5, 0.14, 0.5)
        assert plan.strategy is Strategy(min(oracle, key=oracle.get))
        assert breakdown.total == pytest.approx(min(oracle.values()), rel=1e-9)

    def test_hints_off_restricts_to_s_and_i(self, paper_seq, profile):
        plan, _ = choose_plan(paper_seq, profile, hints_enabled=False)
        assert plan.strategy in (Strategy.S, Strategy.I)

    def test_matches_exhaustive_argmin(self, profile):
        rng = random.Random(23)
        for _ in range(200):
            seq = canonical_sequence(*random_params(rng))
            plan, breakdown = choose_plan(seq, profile, hints_enabled=True)
            totals = {
                p.strategy: plan_cost(seq, p, profile).total for p in enumerate_plans(seq)
            }
            assert breakdown.total == min(totals.values())
            # the chosen strategy is the first one reaching the minimum
            winners = [s for s, t in totals.items() if t == breakdown.total]
            assert plan.strategy is winners[0]

    def test_hints_never_hurt(self, profile):
        rng = random.Random(29)
        for _ in range(100):
            seq = canonical_sequence(*random_params(rng))
            _, with_hints = choose_plan(seq, profile, hints_enabled=True)
            _, without = choose_plan(seq, profile, hints_enabled=False)
            assert with_hints.total <= without.total


class TestGenerateHints:
    def test_reference_scenario(self, paper_seq, profile):
        plan = strategy_plan(paper_seq, Strategy.III)
        hints = generate_hints(paper_seq, plan, profile)
        assert hints == [Hint(next_accelerators=("acc0",), expected_gap=1.0, expected_scan=1.0)]

    def test_no_sharing_no_hints(self, profile):
        from rpusim import FilterOp, Query, QuerySequence, TableSpec

        seq = QuerySequence(
            queries=(
                Query("A", TableSpec("ta", 2.0), (FilterOp("x", 0.5),)),
                Query("B", TableSpec("tb", 2.0), (FilterOp("y", 0.5),)),
            ),
            gaps=(1.0,),
        )
        plan = strategy_plan(seq, Strategy.S)
        assert generate_hints(seq, plan, profile) == []

    def test_overflowing_scan_estimate_is_an_error(self):
        seq = default_scenario()
        tiny = dataclasses.replace(calibrated_profile(), r_scan=1e-310)
        plan = strategy_plan(seq, Strategy.III)
        with pytest.raises(NonFiniteResultError) as info:
            generate_hints(seq, plan, tiny)
        assert str(info.value) == "expected scan of Q1 overflows: inf ms"

    def test_three_query_chain(self, profile):
        from rpusim import FilterOp, Query, QuerySequence, TableSpec

        seq = QuerySequence(
            queries=(
                Query("A", TableSpec("ta", 4.0), (FilterOp("acc0", 0.2), FilterOp("acc1", 0.5))),
                Query("B", TableSpec("tb", 3.0), (FilterOp("acc0", 0.4),)),
                Query("C", TableSpec("tc", 2.0), (FilterOp("acc0", 0.6),)),
            ),
            gaps=(1.0, 2.0),
        )
        plan = strategy_plan(seq, Strategy.S)
        hints = generate_hints(seq, plan, profile)
        assert len(hints) == 2
        assert hints[0].next_accelerators == ("acc0",)
        assert hints[0].expected_gap == 1.0
        assert hints[1].expected_gap == 2.0
        assert hints[1].expected_scan == pytest.approx(2.0)


class TestRpuPolicy:
    @staticmethod
    def _first(hint, seq, profile, strategy=Strategy.S):
        """The policy while the first query runs under the strategy's plan."""
        return rpu_policy(hint, seq, strategy_plan(seq, strategy), 0, profile)

    def test_reference_scenario_prefers_speculative_load(self, paper_seq, profile):
        hint = Hint(next_accelerators=("acc0",), expected_gap=1.0, expected_scan=1.0)
        decision = self._first(hint, paper_seq, profile)
        assert decision.choice is ReconfigChoice.SPECULATIVE_LOAD
        assert decision.rationale["lhs"] == pytest.approx(17.96375, rel=1e-9)

    def test_small_scenario_prefers_swap(self, profile):
        seq = canonical_sequence(s0=4.5, s1=0.5, gap=0.5)
        hint = Hint(next_accelerators=("acc0",), expected_gap=0.5, expected_scan=0.5)
        decision = self._first(hint, seq, profile)
        assert decision.choice is ReconfigChoice.SWAP
        assert decision.rationale["lhs"] == pytest.approx(8.981875, rel=1e-9)

    def test_no_hint_means_none(self, paper_seq, profile):
        assert self._first(None, paper_seq, profile).choice is ReconfigChoice.NONE
        empty = Hint(next_accelerators=(), expected_gap=1.0, expected_scan=1.0)
        assert self._first(empty, paper_seq, profile).choice is ReconfigChoice.NONE

    def test_non_commuting_running_query_falls_back_to_load(self, profile):
        # the small scenario swaps when it may; a non-commuting op forbids it
        small = canonical_sequence(s0=4.5, s1=0.5, gap=0.5)
        q0, q1 = small.queries
        pinned = Query(q0.id, q0.table, (q0.ops[0], FilterOp("acc1", 0.43, commutes=False)))
        seq = QuerySequence((pinned, q1), small.gaps)
        hint = Hint(next_accelerators=("acc0",), expected_gap=0.5, expected_scan=0.5)
        decision = self._first(hint, seq, profile)
        assert decision.choice is ReconfigChoice.SPECULATIVE_LOAD
        assert "t_swap" not in decision.rationale

    def test_hint_outside_running_query_falls_back_to_load(self, profile):
        # plan II streams only acc1 in Q0 and filters acc0 on the host
        seq = canonical_sequence(s0=4.5, s1=0.5, gap=0.5)
        hint = Hint(next_accelerators=("acc0",), expected_gap=0.5, expected_scan=0.5)
        decision = self._first(hint, seq, profile, Strategy.II)
        assert decision.choice is ReconfigChoice.SPECULATIVE_LOAD
        assert "t_swap" not in decision.rationale

    def test_agrees_with_cost_argmin(self, profile):
        # the policy's two totals differ exactly as plans IV and III do
        rng = random.Random(31)
        swaps = 0
        for _ in range(3000):
            s0, f0, f1, s1, f2, gap = random_params(rng)
            seq = canonical_sequence(s0, f0, f1, s1, f2, gap)
            iii, iv = strategy_plan(seq, Strategy.III), strategy_plan(seq, Strategy.IV)
            hint = Hint(("acc0",), gap, s1 / profile.r_scan)
            decision = rpu_policy(hint, seq, iii, 0, profile)
            t_iii = plan_cost(seq, iii, profile).total
            t_iv = plan_cost(seq, iv, profile).total
            margin = decision.rationale["t_swap"] - decision.rationale["t_speculative"]
            assert math.isclose(margin, t_iv - t_iii, abs_tol=1e-9), seq
            if decision.choice is ReconfigChoice.SWAP:
                assert t_iv <= t_iii + 1e-9, seq
                swaps += 1
            else:
                assert t_iii <= t_iv + 1e-9, seq
        assert 0 < swaps < 3000

    @staticmethod
    def _three_queries() -> QuerySequence:
        """Q1 filters only on the host under the plans below, so what Q2
        finds loaded is what Q0 left."""
        def q(qid, *ops):
            return Query(qid, TableSpec(f"t_{qid}", 1.0), tuple(FilterOp(op_id, 0.5) for op_id in ops))
        return QuerySequence((q("Q0", "a", "b"), q("Q1", "c"), q("Q2", "a", "d")), (1.0, 1.0))

    def test_loaded_accelerator_is_read_off_the_nearest_non_empty_order(self, profile):
        seq = self._three_queries()
        hint = Hint(next_accelerators=("d",), expected_gap=1.0, expected_scan=1.0)
        modes = (Mode.BASELINE, Mode.BASELINE)
        leaves_a = Plan(Strategy.S, (("b", "a"), (), ("a", "d")), modes)
        leaves_b = Plan(Strategy.S, (("a", "b"), (), ("a", "d")), modes)
        kept = rpu_policy(hint, seq, leaves_a, 2, profile).rationale["t_speculative"]
        reloaded = rpu_policy(hint, seq, leaves_b, 2, profile).rationale["t_speculative"]
        scan = seq.queries[2].table.size_mb / profile.r_scan
        assert scan < profile.t_reconfig
        assert reloaded - kept == pytest.approx(profile.t_reconfig - scan, rel=1e-12)
        # with nothing streamed before Q2, the PR holds nothing: a reload too
        none_before = Plan(Strategy.S, ((), (), ("a", "d")), modes)
        assert rpu_policy(hint, seq, none_before, 2, profile).rationale["t_speculative"] == reloaded

    def test_index_outside_the_sequence_is_a_value_error(self, paper_seq, profile):
        plan = strategy_plan(paper_seq, Strategy.S)
        hint = Hint(next_accelerators=("acc0",), expected_gap=1.0, expected_scan=1.0)
        for index in (-1, len(paper_seq.queries)):
            with pytest.raises(ValueError, match=rf"query index {index} is outside \[0, 2\)"):
                rpu_policy(hint, paper_seq, plan, index, profile)

    @pytest.mark.parametrize("field", ["expected_gap", "expected_scan"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_hint_time_that_is_not_finite_and_at_least_0_is_a_value_error(self, paper_seq, profile, field, value):
        hint = dataclasses.replace(Hint(("acc0",), 1.0, 1.0), **{field: value})
        for strategy in (Strategy.S, Strategy.III):
            with pytest.raises(ValueError) as info:
                self._first(hint, paper_seq, profile, strategy)
            assert str(info.value) == f"Hint.{field} must be finite and >= 0, got {value!r}"
        # checked even when the hint names no accelerator
        with pytest.raises(ValueError):
            self._first(dataclasses.replace(hint, next_accelerators=()), paper_seq, profile)

    def test_hint_with_zero_times_is_taken(self, paper_seq, profile):
        for zero in (0.0, -0.0):
            decision = self._first(Hint(("acc0",), zero, zero), paper_seq, profile)
            assert all(math.isfinite(v) for v in decision.rationale.values())


def test_readme_library_quickstart_runs(capsys):
    """The README's "Library quickstart" block runs as written and prints
    the chosen strategy and its total."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "III 58.36041666666667\n"
