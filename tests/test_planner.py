from __future__ import annotations

import random

import pytest

from rpusim import (
    Hint,
    ReconfigChoice,
    Strategy,
    choose_plan,
    enumerate_plans,
    generate_hints,
    phase_times,
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
    def _q0_phase(self, seq, profile):
        q0 = seq.queries[0]
        return phase_times(q0, q0.ops, (), profile)

    def test_reference_scenario_prefers_speculative_load(self, paper_seq, profile):
        hint = Hint(next_accelerators=("acc0",), expected_gap=1.0, expected_scan=1.0)
        decision = rpu_policy(hint, self._q0_phase(paper_seq, profile), profile)
        assert decision.choice is ReconfigChoice.SPECULATIVE_LOAD
        assert decision.rationale["lhs"] == pytest.approx(17.96375, rel=1e-9)

    def test_small_scenario_prefers_swap(self, profile):
        seq = canonical_sequence(s0=4.5, s1=0.5, gap=0.5)
        hint = Hint(next_accelerators=("acc0",), expected_gap=0.5, expected_scan=0.5)
        decision = rpu_policy(hint, self._q0_phase(seq, profile), profile)
        assert decision.choice is ReconfigChoice.SWAP
        assert decision.rationale["lhs"] == pytest.approx(8.981875, rel=1e-9)

    def test_no_hint_means_none(self, paper_seq, profile):
        q0_phase = self._q0_phase(paper_seq, profile)
        assert rpu_policy(None, q0_phase, profile).choice is ReconfigChoice.NONE
        empty = Hint(next_accelerators=(), expected_gap=1.0, expected_scan=1.0)
        assert rpu_policy(empty, q0_phase, profile).choice is ReconfigChoice.NONE

    def test_illegal_swap_falls_back_to_load(self, profile):
        seq = canonical_sequence(s0=4.5, s1=0.5, gap=0.5)
        hint = Hint(next_accelerators=("acc0",), expected_gap=0.5, expected_scan=0.5)
        decision = rpu_policy(hint, self._q0_phase(seq, profile), profile, swap_legal=False)
        assert decision.choice is ReconfigChoice.SPECULATIVE_LOAD

    def test_agrees_with_cost_argmin_outside_band(self, profile):
        # the device rule ignores the accelerator-time delta of the swap, so
        # it may mispredict inside a band of width (f1-f0)*s0/r_acc below the
        # reconfiguration time; outside it must match the cost argmin
        rng = random.Random(31)
        checked = 0
        band_disagreements: list[tuple[float, float]] = []
        for _ in range(500):
            s0, f0, f1, s1, f2, gap = random_params(rng)
            seq = canonical_sequence(s0, f0, f1, s1, f2, gap)
            trans = s0 * f0 * f1 / profile.r_network
            lhs = trans + gap + s1 / profile.r_scan
            band = (f1 - f0) * s0 / profile.r_acc
            hint = Hint(("acc0",), gap, s1 / profile.r_scan)
            decision = rpu_policy(hint, self._q0_phase(seq, profile), profile)
            t_iii = plan_cost(seq, strategy_plan(seq, Strategy.III), profile).total
            t_iv = plan_cost(seq, strategy_plan(seq, Strategy.IV), profile).total
            swap_wins = t_iv < t_iii
            if profile.t_reconfig - band - 1e-9 <= lhs <= profile.t_reconfig + 1e-9:
                if (decision.choice is ReconfigChoice.SWAP) != swap_wins:
                    band_disagreements.append((lhs, band))
                continue
            checked += 1
            if decision.choice is ReconfigChoice.SWAP:
                assert swap_wins or t_iv == t_iii
            else:
                assert t_iii <= t_iv + 1e-9
        assert checked > 400
        if band_disagreements:
            print(f"rpu_policy band disagreements: {len(band_disagreements)} "
                  f"(lhs, band) samples: {band_disagreements[:3]}")
