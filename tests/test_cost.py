from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rpusim import (
    DeviceProfile,
    FilterOp,
    IllegalPlanError,
    Mode,
    NonFiniteResultError,
    Plan,
    Query,
    QuerySequence,
    Strategy,
    TableSpec,
    enumerate_plans,
    filtered_size,
    improvement,
    phase_times,
    plan_cost,
    strategy_plan,
)
from conftest import canonical_sequence, random_params
from _oracle import lower_plan, reference_fold, strategy_totals
from test_engine_agreement import _mixed_mode_cases

# Frozen outputs of the independent oracle on the reference constants
# (9 MB / 1 MB tables, selectivities 0.33 / 0.43 / 0.14, 1 ms gap).
REFERENCE_TOTALS = {
    "S": 72.36041666666667,
    "I": 62.630766666666666,
    "II": 73.90776666666667,
    "III": 58.36041666666666,
    "IV": 58.96041666666667,
}


class TestFilteredSize:
    def test_reference_first_filter(self):
        assert filtered_size(9.0, 0.33) == pytest.approx(2.97, rel=1e-9)

    def test_identity_selectivity(self):
        assert filtered_size(123.456, 1.0) == 123.456

    def test_chained(self):
        assert filtered_size(2.97, 0.43) == pytest.approx(1.2771, rel=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            filtered_size(-1.0, 0.5)
        with pytest.raises(ValueError):
            filtered_size(1.0, 1.5)
        with pytest.raises(ValueError):
            filtered_size(1.0, -0.1)

    @given(
        s=st.floats(0.0, 1e6),
        f0=st.floats(0.0, 1.0),
        f1=st.floats(0.0, 1.0),
    )
    def test_filter_order_never_changes_result_size(self, s, f0, f1):
        a = filtered_size(filtered_size(s, f0), f1)
        b = filtered_size(filtered_size(s, f1), f0)
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


class TestPhaseTimes:
    def test_full_pushdown_reference(self, paper_seq, profile):
        q0 = paper_seq.queries[0]
        pt = phase_times(q0, q0.ops, (), profile)
        assert pt.scan == pytest.approx(9.0, rel=1e-9)
        assert [s.time_ms for s in pt.acc] == pytest.approx([6.0, 1.98], rel=1e-9)
        assert pt.trans == pytest.approx(15.96375, rel=1e-9)
        assert pt.dbms == 0.0
        for step in pt.acc:
            assert step.output_mb == pytest.approx(step.input_mb * 0.33 if step.op_id == "acc0" else step.input_mb * 0.43, rel=1e-9)

    def test_zero_table(self, profile):
        q = Query("Q", TableSpec("t", 0.0), (FilterOp("a", 0.5),))
        pt = phase_times(q, q.ops, (), profile)
        assert pt.scan == 0.0
        assert pt.acc[0].time_ms == 0.0
        assert pt.trans == 0.0

    def test_partial_pushdown_reference(self, paper_seq, profile):
        q0 = paper_seq.queries[0]
        pt = phase_times(q0, q0.ops[:1], q0.ops[1:], profile)
        assert pt.trans == pytest.approx(37.125, rel=1e-9)
        assert pt.dbms == pytest.approx(0.0891, rel=1e-9)


class TestPlanCostReference:
    @pytest.mark.parametrize("name", ["S", "I", "II", "III", "IV"])
    def test_matches_oracle_and_frozen_values(self, paper_seq, profile, name):
        oracle = strategy_totals(9.0, 0.33, 0.43, 1.0, 0.14, 1.0)
        assert oracle[name] == pytest.approx(REFERENCE_TOTALS[name], abs=1e-9)
        plan = strategy_plan(paper_seq, Strategy(name))
        breakdown = plan_cost(paper_seq, plan, profile)
        assert breakdown.total == pytest.approx(oracle[name], abs=1e-6)

    def test_zero_data_leaves_only_reconfigurations(self, profile):
        seq = canonical_sequence(s0=0.0, s1=0.0, gap=0.0)
        totals = {
            name: plan_cost(seq, strategy_plan(seq, Strategy(name)), profile).total
            for name in ("S", "I", "II", "III", "IV")
        }
        # three reconfigurations for S; I keeps only Q0's first; II and IV
        # hide or drop the trailing one
        assert totals["S"] == pytest.approx(45.0, abs=1e-12)
        assert totals["I"] == pytest.approx(15.0, abs=1e-12)
        assert totals["II"] == pytest.approx(30.0, abs=1e-12)
        assert totals["III"] == pytest.approx(45.0, abs=1e-12)
        assert totals["IV"] == pytest.approx(30.0, abs=1e-12)

    def test_separable_strategies_decompose_per_query(self, paper_seq, profile):
        # per_query is reported iff every boundary is BASELINE
        for name in ("S", "I", "IV"):
            breakdown = plan_cost(paper_seq, strategy_plan(paper_seq, Strategy(name)), profile)
            assert [qid for qid, _ in breakdown.per_query] == ["Q0", "Q1"]
            total = sum(t for _, t in breakdown.per_query) + sum(paper_seq.gaps)
            assert breakdown.total == pytest.approx(total, rel=1e-12)
        for name in ("II", "III"):
            breakdown = plan_cost(paper_seq, strategy_plan(paper_seq, Strategy(name)), profile)
            assert breakdown.per_query == ()


class TestPlanCostProperties:
    def test_monotone_in_table_size(self, profile):
        rng = random.Random(7)
        for _ in range(200):
            s0, f0, f1, s1, f2, gap = random_params(rng)
            seq = canonical_sequence(s0, f0, f1, s1, f2, gap)
            grown = canonical_sequence(s0 + rng.uniform(0.1, 20.0), f0, f1, s1, f2, gap)
            grown1 = canonical_sequence(s0, f0, f1, s1 + rng.uniform(0.1, 20.0), f2, gap)
            for name in ("S", "I", "II", "III", "IV"):
                base = plan_cost(seq, strategy_plan(seq, Strategy(name)), profile).total
                assert plan_cost(grown, strategy_plan(grown, Strategy(name)), profile).total >= base - 1e-9
                assert plan_cost(grown1, strategy_plan(grown1, Strategy(name)), profile).total >= base - 1e-9

    def test_gap_derivative_one_for_s_and_hidden_iii(self, profile):
        delta = 3.0
        rng = random.Random(11)
        for _ in range(100):
            s0, f0, f1, s1, f2, gap = random_params(rng)
            seq = canonical_sequence(s0, f0, f1, s1, f2, gap)
            shifted = canonical_sequence(s0, f0, f1, s1, f2, gap + delta)
            t_s = plan_cost(seq, strategy_plan(seq, Strategy.S), profile).total
            t_s2 = plan_cost(shifted, strategy_plan(shifted, Strategy.S), profile).total
            assert t_s2 - t_s == pytest.approx(delta, rel=1e-9)
            trans0 = s0 * f0 * f1 / profile.r_network
            if trans0 + gap + s1 >= profile.t_reconfig:  # reload fully hidden
                t_iii = plan_cost(seq, strategy_plan(seq, Strategy.III), profile).total
                t_iii2 = plan_cost(shifted, strategy_plan(shifted, Strategy.III), profile).total
                assert t_iii2 - t_iii == pytest.approx(delta, rel=1e-9)

    def test_s_vs_iv_with_equal_selectivities(self, profile):
        # with equal Q0 selectivities the swap changes nothing except that
        # the next query's reconfiguration disappears
        for s0 in (0.0, 2.0, 9.0, 40.0):
            for s1 in (0.0, 1.0, 20.0):
                for f in (0.1, 0.5, 1.0):
                    seq = canonical_sequence(s0=s0, f0=f, f1=f, s1=s1, f2=0.3, gap=2.0)
                    t_s = plan_cost(seq, strategy_plan(seq, Strategy.S), profile).total
                    t_iv = plan_cost(seq, strategy_plan(seq, Strategy.IV), profile).total
                    expected = max(profile.t_reconfig, s1 / profile.r_scan) - s1 / profile.r_scan
                    assert t_s - t_iv == pytest.approx(expected, abs=1e-9)


class TestPlanCostErrors:
    def test_illegal_plan_rejected(self, paper_seq, profile):
        plan = Plan(Strategy.S, (("acc0",), ("acc0",)), ())
        with pytest.raises(IllegalPlanError, match="illegal plan"):
            plan_cost(paper_seq, plan, profile)

    def test_iii_without_sharing_needs_sequence_knowledge(self, profile):
        # a speculative reload needs to know the successor shares an accelerator
        seq = QuerySequence(
            queries=(
                Query("Q0", TableSpec("t0", 9.0), (FilterOp("a", 0.3), FilterOp("b", 0.4))),
                Query("Q1", TableSpec("t1", 1.0), (FilterOp("c", 0.5),)),
            ),
            gaps=(1.0,),
        )
        base = strategy_plan(seq, Strategy.S)
        plan = Plan(Strategy.III, base.rpu_order, (Mode.SPECULATIVE,))
        with pytest.raises(IllegalPlanError, match="share no accelerator"):
            plan_cost(seq, plan, profile)

    def test_all_host_query_still_costs(self, profile):
        # nothing pushed down: scan, raw transfer, host filtering
        seq = canonical_sequence()
        plan = Plan(Strategy.S, ((), ("acc0",)), (Mode.BASELINE,))
        breakdown = plan_cost(seq, plan, profile)
        expected_q0 = 9.0 + 9.0 / 0.08 + 0.03 * (9.0 + 2.97)
        expected_q1 = max(15.0, 1.0) + 1.0 / 1.5 + 0.14 / 0.08
        assert breakdown.total == pytest.approx(expected_q0 + 1.0 + expected_q1, rel=1e-12)


class TestImprovement:
    def test_reference_iv_vs_s(self, paper_seq, profile):
        t_iv = plan_cost(paper_seq, strategy_plan(paper_seq, Strategy.IV), profile)
        t_s = plan_cost(paper_seq, strategy_plan(paper_seq, Strategy.S), profile)
        assert improvement(t_iv.total, t_s.total) == pytest.approx(18.52, abs=0.005)

    def test_identical_is_zero(self, paper_seq, profile):
        t_s = plan_cost(paper_seq, strategy_plan(paper_seq, Strategy.S), profile)
        assert improvement(t_s.total, t_s.total) == 0.0

    def test_reference_ii_vs_s_is_negative(self, paper_seq, profile):
        t_ii = plan_cost(paper_seq, strategy_plan(paper_seq, Strategy.II), profile)
        t_s = plan_cost(paper_seq, strategy_plan(paper_seq, Strategy.S), profile)
        assert improvement(t_ii.total, t_s.total) == pytest.approx(-2.14, abs=0.005)

    def test_zero_baseline_rejected(self, paper_seq, profile):
        t_s = plan_cost(paper_seq, strategy_plan(paper_seq, Strategy.S), profile)
        with pytest.raises(ValueError):
            improvement(t_s.total, 0.0)

    @pytest.mark.parametrize(
        "candidate, baseline, error, message",
        [
            (2.0, 0.0, ValueError, "baseline total must be > 0, got 0.0"),
            (2.0, -1.5, ValueError, "baseline total must be > 0, got -1.5"),
            (2.0, math.nan, ValueError, "baseline total must be > 0, got nan"),
            (math.inf, 2.0, NonFiniteResultError, "improvement of inf over 2.0 ms is not finite"),
            (-math.inf, 2.0, NonFiniteResultError, "improvement of -inf over 2.0 ms is not finite"),
            (math.nan, 2.0, NonFiniteResultError, "improvement of nan over 2.0 ms is not finite"),
            (2.0, math.inf, NonFiniteResultError, "improvement of 2.0 over inf ms is not finite"),
            (math.nan, math.inf, NonFiniteResultError, "improvement of nan over inf ms is not finite"),
            (1e300, 1e-10, NonFiniteResultError, "improvement of 1e+300 over 1e-10 ms is not finite"),
        ],
    )
    def test_rejection_messages(self, candidate, baseline, error, message):
        with pytest.raises(error) as raised:
            improvement(candidate, baseline)
        assert type(raised.value) is error
        assert str(raised.value) == message


class TestInlineFold:
    """``plan_cost`` computes each query's scan, body and tail inline for
    every plan; the oracle's ``reference_fold`` calls ``order_facts`` at
    every lowered step.  One sequence object costs under two profiles."""

    @settings(deadline=None)
    @given(case=_mixed_mode_cases(), other=st.builds(DeviceProfile, *(st.floats(0.01, 50.0) for _ in range(5))))
    def test_random_mixed_mode_plans_under_two_profiles(self, case, other):
        seq, plan, profile = case
        plans = [plan, *enumerate_plans(seq)]
        # interleaved, so each profile's breakdowns are kept between the other's
        for candidate in plans:
            for prof in (profile, other):
                got = plan_cost(seq, candidate, prof)
                expected = reference_fold(lower_plan(candidate, seq), seq.gaps, prof)
                assert got.total.hex() == expected.total.hex()
                assert [(q, t.hex()) for q, t in got.per_query] == [(q, t.hex()) for q, t in expected.per_query]
