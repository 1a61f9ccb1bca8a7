from __future__ import annotations

import csv
import dataclasses
import importlib
import io
import math
import pickle
import random
import sys
import types
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rpusim import (
    STRATEGY_ORDER,
    DeviceProfile,
    FilterOp,
    GAP_QUERY,
    IllegalPlanError,
    Mode,
    Phase,
    Plan,
    Query,
    QuerySequence,
    Resource,
    RpusimError,
    Strategy,
    TableSpec,
    Timeline,
    Violation,
    enumerate_plans,
    plan_cost,
    simulate,
    strategy_plan,
    timeline_csv,
    validate_timeline,
)
from _oracle import reference_simulate
from conftest import canonical_sequence, random_params
from test_engine_agreement import _mixed_mode_cases, random_plan, random_profile, random_sequence
from test_work_counts import _long_sequence


def _phase(timeline, label, query):
    matches = [p for p in timeline.phases if p.label == label and p.query == query]
    assert matches, f"no {label} phase for {query}"
    return matches


class TestReferenceTimelines:
    def test_s_first_reconfig_overlaps_scan(self, paper_seq, profile):
        timeline = simulate(paper_seq, strategy_plan(paper_seq, Strategy.S), profile)
        assert timeline.makespan == pytest.approx(72.36041666666667, rel=1e-9)
        scan0 = _phase(timeline, "scan", "Q0")[0]
        rec0 = min(_phase(timeline, "reconfig", "Q0"), key=lambda p: p.start)
        assert scan0.start == 0.0
        assert rec0.start == 0.0

    def test_iii_speculative_reload_starts_at_acc_end(self, paper_seq, profile):
        timeline = simulate(paper_seq, strategy_plan(paper_seq, Strategy.III), profile)
        assert timeline.makespan == pytest.approx(58.36041666666666, rel=1e-9)
        acc1 = [p for p in _phase(timeline, "acc-exec", "Q0")][-1]
        reload = _phase(timeline, "reconfig", "Q1")[0]
        assert reload.start == pytest.approx(acc1.end, abs=0.0)

    def test_s_next_reconfig_starts_at_arrival(self, paper_seq, profile):
        timeline = simulate(paper_seq, strategy_plan(paper_seq, Strategy.S), profile)
        gap = [p for p in timeline.phases if p.label == "gap"][0]
        rec1 = _phase(timeline, "reconfig", "Q1")[0]
        assert gap.query == GAP_QUERY
        assert rec1.start == gap.end

    def test_zero_data_timeline_is_reconfigurations_only(self, profile):
        seq = canonical_sequence(s0=0.0, s1=0.0, gap=0.0)
        timeline = simulate(seq, strategy_plan(seq, Strategy.S), profile)
        assert timeline.makespan == 45.0
        assert [p.label for p in timeline.phases] == ["reconfig", "reconfig", "reconfig"]
        assert validate_timeline(timeline) == []

    def test_ids_containing_slashes_keep_their_own_phases(self, profile):
        # query "x" running "y/z" and query "x/y" running "z" once shared a
        # task key, so one query's phases took the other's times
        seq = QuerySequence(
            queries=(
                Query("x", TableSpec("t0", 5.0), (FilterOp("y/z", 0.5),)),
                Query("x/y", TableSpec("t1", 5.0), (FilterOp("z", 0.5),)),
            ),
            gaps=(1.0,),
        )
        timeline = simulate(seq, strategy_plan(seq, Strategy.S), profile)
        assert validate_timeline(timeline) == []
        assert _phase(timeline, "reconfig", "x")[0].start == 0.0
        assert _phase(timeline, "acc-exec", "x")[0].end == _phase(timeline, "transfer", "x")[0].start

    def test_deterministic(self, paper_seq, profile):
        plan = strategy_plan(paper_seq, Strategy.III)
        assert simulate(paper_seq, plan, profile) == simulate(paper_seq, plan, profile)


class TestOracleEquivalence:
    def test_two_query_random_instances(self, profile):
        rng = random.Random(37)
        for _ in range(300):
            seq = canonical_sequence(*random_params(rng))
            for plan in enumerate_plans(seq):
                total = plan_cost(seq, plan, profile).total
                timeline = simulate(seq, plan, profile)
                assert math.isclose(timeline.makespan, total, rel_tol=1e-9, abs_tol=1e-12)
                assert validate_timeline(timeline) == []

    def test_three_query_random_instances(self, profile):
        rng = random.Random(41)
        accels = ["a", "b", "c"]
        for _ in range(150):
            queries = []
            for qi in range(3):
                k = 2 if qi == 0 else rng.choice([1, 2])
                ids = rng.sample(accels, k)
                ops = tuple(FilterOp(i, rng.random(), commutes=rng.random() > 0.1) for i in ids)
                queries.append(Query(f"Q{qi}", TableSpec(f"t{qi}", rng.uniform(0, 40)), ops))
            seq = QuerySequence(tuple(queries), (rng.uniform(0, 30), rng.uniform(0, 30)))
            for plan in enumerate_plans(seq):
                total = plan_cost(seq, plan, profile).total
                timeline = simulate(seq, plan, profile)
                assert math.isclose(timeline.makespan, total, rel_tol=1e-9, abs_tol=1e-12), plan.strategy
                assert validate_timeline(timeline) == []


def _outcome(engine, seq, plan, profile):
    """Every phase bit for bit with the makespan, or the error raised."""
    try:
        timeline = engine(seq, plan, profile)
    except RpusimError as exc:
        return type(exc), str(exc)
    return _pinned(timeline.phases), timeline.makespan.hex()


class TestReferenceSimulator:
    """``simulate`` reproduces the position-indexed ``reference_simulate``
    bit for bit: every phase's resource, label, query, start and end, and
    the makespan."""

    def test_every_applicable_plan_of_the_engine_agreement_sequences(self):
        # the sequences and profiles of test_simulator_matches_cost_on_n_query_sequences
        rng = random.Random(2005)
        checked = zero_phases = 0
        for _ in range(400):
            seq, profile = random_sequence(rng), random_profile(rng)
            for plan in enumerate_plans(seq):
                expected = _outcome(reference_simulate, seq, plan, profile)
                assert _outcome(simulate, seq, plan, profile) == expected, (plan, seq)
                checked += 1
            zero_phases += 0.0 in seq.gaps or any(q.table.size_mb == 0.0 for q in seq.queries)
        assert checked > 1200
        assert zero_phases > 50

    @settings(deadline=None)
    @given(case=_mixed_mode_cases())
    def test_random_mixed_mode_plans(self, case):
        seq, plan, profile = case
        assert _outcome(simulate, seq, plan, profile) == _outcome(reference_simulate, seq, plan, profile)

    def test_every_strategy_plan_of_a_200_query_sequence(self, profile):
        seq = _long_sequence(200)
        plans = enumerate_plans(seq)
        assert [plan.strategy for plan in plans] == list(STRATEGY_ORDER)
        for plan in plans:
            expected = _outcome(reference_simulate, seq, plan, profile)
            assert _outcome(simulate, seq, plan, profile) == expected, plan.strategy
            assert len(expected[0]) > 1000

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32), n=st.integers(20, 300))
    def test_random_long_mixed_mode_plans(self, seed, n):
        """20-300 queries over a four-accelerator pool, so each resource
        carries tens to hundreds of phases, with zero sizes, gaps and
        selectivities among them."""
        rng = random.Random(seed)
        seq, profile = random_sequence(rng, n), random_profile(rng)
        plan = random_plan(rng, seq)
        assert _outcome(simulate, seq, plan, profile) == _outcome(reference_simulate, seq, plan, profile)


class TestSchedulingErrors:
    """Both engines reject an illegal plan with the same error."""

    ENGINES = pytest.mark.parametrize("engine", [plan_cost, simulate], ids=["plan_cost", "simulate"])

    @ENGINES
    def test_wrong_mode_count(self, engine, paper_seq, profile):
        base = strategy_plan(paper_seq, Strategy.III)
        plan = Plan(Strategy.III, base.rpu_order, base.modes * 2)
        with pytest.raises(IllegalPlanError, match="2 boundary modes for 1 query boundaries"):
            engine(paper_seq, plan, profile)

    @ENGINES
    def test_speculative_across_non_sharing_pair(self, engine, profile):
        seq = QuerySequence(
            queries=(
                Query("Q0", TableSpec("t0", 9.0), (FilterOp("acc0", 0.33), FilterOp("acc1", 0.43))),
                Query("Q1", TableSpec("t1", 1.0), (FilterOp("accx", 0.1),)),
            ),
            gaps=(1.0,),
        )
        base = strategy_plan(seq, Strategy.S)
        plan = Plan(Strategy.III, base.rpu_order, (Mode.SPECULATIVE,))
        with pytest.raises(IllegalPlanError, match="between 'Q0' and 'Q1', which share no accelerator"):
            engine(seq, plan, profile)


class TestRunTasks:
    """``simulate`` starts each phase at its release time."""

    def test_busy_resource_rejected(self, profile):
        seq = canonical_sequence()
        plan = strategy_plan(seq, Strategy.S)
        # a gap validation rejects: Q1 arrives, and its BASELINE reconfig is
        # released, while Q0's second reconfig still holds the PR.  The
        # simulator keeps no free times, so it places the phases anyway and
        # validate_timeline reports every overlap that results.
        object.__setattr__(seq, "gaps", (-20.0,))
        timeline = simulate(seq, plan, profile)
        rec0 = _phase(timeline, "reconfig", "Q0")[-1]
        acc0 = _phase(timeline, "acc-exec", "Q0")[-1]
        net0 = _phase(timeline, "transfer", "Q0")[0]
        rec1 = _phase(timeline, "reconfig", "Q1")[0]
        net1 = _phase(timeline, "transfer", "Q1")[0]
        assert rec1.start == net0.end - 20.0 < rec0.end
        assert timeline.makespan == net1.end < net0.end

        def conflict(a, b):
            where = a.resource.value
            return Violation(
                f"resource {where}",
                f"{where} conflict: {a.label} [{a.start}, {a.end}) overlaps {b.label} [{b.start}, {b.end})",
            )

        assert validate_timeline(timeline) == [
            conflict(rec0, rec1),
            conflict(rec1, acc0),
            conflict(net0, net1),
            Violation("makespan", f"makespan {net1.end} != max phase end {net0.end}"),
        ]

    def test_phase_starts_at_its_release_time(self, profile):
        seq = canonical_sequence(gap=0.0)
        timeline = simulate(seq, strategy_plan(seq, Strategy.S), profile)
        rec0, rec1 = _phase(timeline, "reconfig", "Q0")
        scan0 = _phase(timeline, "scan", "Q0")[0]
        acc0, acc1 = _phase(timeline, "acc-exec", "Q0")
        transfer0 = _phase(timeline, "transfer", "Q0")[0]
        # the first accelerator waits for its reconfiguration, not the scan
        assert scan0.end < rec0.end == acc0.start
        assert (rec1.start, acc1.start) == (acc0.end, rec1.end)
        # NET has been free since 0, but the transfer is released at acc1's end
        assert transfer0.start == acc1.end > 0.0
        # the zero gap is not kept, and Q1's reconfig is released at its
        # arrival, although the PR has been free since acc1's end
        assert not [p for p in timeline.phases if p.resource is Resource.IDLE]
        assert _phase(timeline, "reconfig", "Q1")[0].start == transfer0.end > acc1.end

    def test_zero_length_phase_is_not_kept(self, profile):
        # Q1 reads an empty table with acc0 already loaded: all its phases,
        # and both zero gaps, have zero length
        seq = QuerySequence(
            queries=(
                Query("Q0", TableSpec("t0", 9.0), (FilterOp("acc0", 0.5),)),
                Query("Q1", TableSpec("t1", 0.0), (FilterOp("acc0", 0.5),)),
                Query("Q2", TableSpec("t2", 1.0), (FilterOp("acc0", 0.5),)),
            ),
            gaps=(0.0, 0.0),
        )
        timeline = simulate(seq, strategy_plan(seq, Strategy.S), profile)
        assert {p.query for p in timeline.phases} == {"Q0", "Q2"}
        q0_tail = _phase(timeline, "transfer", "Q0")[0].end
        assert _phase(timeline, "scan", "Q2")[0].start == q0_tail
        assert validate_timeline(timeline) == []


class TestValidateTimeline:
    def test_pr_conflict_detected(self):
        timeline = Timeline(
            phases=(
                Phase(Resource.PR, "reconfig", "Q0", 0.0, 15.0),
                Phase(Resource.PR, "acc-exec", "Q0", 10.0, 12.0),
            ),
            makespan=15.0,
        )
        violations = validate_timeline(timeline)
        assert any("PR conflict" in v.message for v in violations)

    def test_makespan_mismatch_detected(self):
        timeline = Timeline(
            phases=(Phase(Resource.SCAN, "scan", "Q0", 0.0, 5.0),),
            makespan=9.0,
        )
        violations = validate_timeline(timeline)
        assert any(v.location == "makespan" for v in violations)

    def test_acc_before_scan_detected(self):
        timeline = Timeline(
            phases=(
                Phase(Resource.SCAN, "scan", "Q0", 0.0, 5.0),
                Phase(Resource.PR, "acc-exec", "Q0", 2.0, 4.0),
            ),
            makespan=5.0,
        )
        violations = validate_timeline(timeline)
        assert any("before scan finished" in v.message for v in violations)

    def test_transfer_before_last_acc_detected(self):
        timeline = Timeline(
            phases=(
                Phase(Resource.SCAN, "scan", "Q0", 0.0, 1.0),
                Phase(Resource.PR, "acc-exec", "Q0", 1.0, 4.0),
                Phase(Resource.NET, "transfer", "Q0", 3.0, 6.0),
            ),
            makespan=6.0,
        )
        violations = validate_timeline(timeline)
        assert any("transfer started before" in v.message for v in violations)

    def test_dbms_before_transfer_end_detected(self):
        timeline = Timeline(
            phases=(
                Phase(Resource.SCAN, "scan", "Q0", 0.0, 1.0),
                Phase(Resource.NET, "transfer", "Q0", 1.0, 3.0),
                Phase(Resource.DBMS, "dbms", "Q0", 2.0, 4.0),
            ),
            makespan=4.0,
        )
        assert validate_timeline(timeline) == [Violation("query Q0", "dbms started before transfer finished")]

    def test_overlapping_accelerators_of_one_query_are_one_pr_conflict(self):
        timeline = Timeline(
            phases=(
                Phase(Resource.PR, "acc-exec", "Q0", 1.0, 5.0),
                Phase(Resource.PR, "acc-exec", "Q0", 3.0, 6.0),
            ),
            makespan=6.0,
        )
        assert validate_timeline(timeline) == [
            Violation("resource PR", "PR conflict: acc-exec [1.0, 5.0) overlaps acc-exec [3.0, 6.0)")
        ]

    def test_reversed_phase_detected(self):
        timeline = Timeline(
            phases=(Phase(Resource.SCAN, "scan", "Q0", 5.0, 1.0),),
            makespan=1.0,
        )
        assert validate_timeline(timeline)

    @pytest.mark.parametrize("qid", ["Q1", GAP_QUERY])
    def test_a_query_whose_id_is_the_gap_placeholder_is_still_checked(self, qid):
        # gaps are told apart by their resource, not by the placeholder id
        timeline = Timeline(
            phases=(
                Phase(Resource.SCAN, "scan", qid, 0.0, 9.0),
                Phase(Resource.PR, "acc-exec", qid, 5.0, 8.0),
            ),
            makespan=9.0,
        )
        assert validate_timeline(timeline) == [Violation(f"query {qid}", "acc-exec started before scan finished")]

    def test_empty_timeline_ok(self):
        assert validate_timeline(Timeline(phases=(), makespan=0.0)) == []

    def test_out_of_order_timeline_reports_the_violations_of_its_sorted_copy(self, paper_seq, profile):
        timeline = simulate(paper_seq, strategy_plan(paper_seq, Strategy.S), profile)
        faults = (
            Phase(Resource.PR, "reconfig", "Q1", 20.0, 25.0),  # overlaps Q0's acc-exec
            Phase(Resource.PR, "acc-exec", "Q1", 40.0, 40.5),  # before Q1's scan ends
            # Q9's later transfer is listed first: its earlier one starts
            # before the accelerator ends, and its dbms before the later ends
            Phase(Resource.SCAN, "scan", "Q9", 1000.0, 1001.0),
            Phase(Resource.PR, "acc-exec", "Q9", 1001.0, 1003.0),
            Phase(Resource.NET, "transfer", "Q9", 1005.0, 1006.0),
            Phase(Resource.DBMS, "dbms", "Q9", 1005.5, 1007.0),
            Phase(Resource.NET, "transfer", "Q9", 1002.0, 1004.0),
        )
        phases = list(timeline.phases + faults)
        ordered = sorted(phases, key=lambda p: (p.start, p.end))
        expected = validate_timeline(Timeline(tuple(ordered), timeline.makespan))
        messages = " | ".join(v.message for v in expected)
        assert "PR conflict: acc-exec" in messages and "acc-exec started before scan finished" in messages
        assert Violation("query Q9", "transfer started before the last RPU phase") in expected
        assert Violation("query Q9", "dbms started before transfer finished") in expected
        rng = random.Random(3)
        for variant in [phases, phases[::-1]] + [rng.sample(phases, len(phases)) for _ in range(20)]:
            got = validate_timeline(Timeline(tuple(variant), timeline.makespan))
            # resources are reported in order of first appearance in the sorted copy
            assert sorted(got, key=lambda v: (v.location, v.message)) == sorted(
                expected, key=lambda v: (v.location, v.message)
            )

    @pytest.mark.parametrize("later_first", [True, False])
    def test_earliest_transfer_is_checked_against_the_last_accelerator(self, later_first):
        transfers = [Phase(Resource.NET, "transfer", "Q0", 5.0, 6.0), Phase(Resource.NET, "transfer", "Q0", 2.0, 4.0)]
        timeline = Timeline(
            phases=(
                Phase(Resource.SCAN, "scan", "Q0", 0.0, 1.0),
                Phase(Resource.PR, "acc-exec", "Q0", 1.0, 3.0),
                *(transfers if later_first else transfers[::-1]),
            ),
            makespan=6.0,
        )
        assert validate_timeline(timeline) == [Violation("query Q0", "transfer started before the last RPU phase")]

    @pytest.mark.parametrize("later_first", [True, False])
    def test_first_dbms_is_checked_against_the_last_transfer(self, later_first):
        transfers = [Phase(Resource.NET, "transfer", "Q0", 3.0, 5.0), Phase(Resource.NET, "transfer", "Q0", 1.0, 2.0)]
        timeline = Timeline(
            phases=(
                Phase(Resource.SCAN, "scan", "Q0", 0.0, 1.0),
                *(transfers if later_first else transfers[::-1]),
                Phase(Resource.DBMS, "dbms", "Q0", 4.0, 6.0),
            ),
            makespan=6.0,
        )
        assert validate_timeline(timeline) == [Violation("query Q0", "dbms started before transfer finished")]

    @pytest.mark.parametrize(
        "start, end",
        [
            (math.nan, math.nan),
            (math.nan, 6.0),
            (5.0, math.nan),
            (5.0, math.inf),
            (math.inf, math.inf),
            (math.inf, 6.0),
            (-math.inf, 6.0),
            (-math.inf, -math.inf),
        ],
    )
    @pytest.mark.parametrize("bad_first", [True, False])
    def test_phase_with_a_non_finite_time_is_reported_and_left_out(self, start, end, bad_first):
        good = (Phase(Resource.SCAN, "scan", "Q0", 0.0, 5.0), Phase(Resource.NET, "transfer", "Q0", 5.0, 6.0))
        bad = Phase(Resource.SCAN, "scan", "Q1", start, end)
        timeline = Timeline(phases=(bad, *good) if bad_first else (*good, bad), makespan=6.0)
        where = 0 if bad_first else 2
        assert validate_timeline(timeline) == [Violation(f"phases[{where}]", f"non-finite time [{start}, {end})")]

    def test_infinite_makespan_of_an_infinite_phase_is_reported(self):
        timeline = Timeline(phases=(Phase(Resource.SCAN, "scan", "Q0", 0.0, math.inf),), makespan=math.inf)
        assert validate_timeline(timeline) == [
            Violation("phases[0]", "non-finite time [0.0, inf)"),
            Violation("makespan", "makespan inf != max phase end 0.0"),
        ]

    def test_non_finite_and_reversed_phases_are_reported_in_input_order(self):
        # the reversed phase, unlike the non-finite one, still takes part in the other rules
        timeline = Timeline(
            phases=(
                Phase(Resource.SCAN, "scan", "Q0", 0.0, 6.0),
                Phase(Resource.SCAN, "scan", "Q1", 5.0, 1.0),
                Phase(Resource.DBMS, "dbms", "Q1", math.nan, 7.0),
                Phase(Resource.NET, "transfer", "Q1", 5.0, 7.0),
            ),
            makespan=7.0,
        )
        assert validate_timeline(timeline) == [
            Violation("phases[1]", "end 1.0 before start 5.0"),
            Violation("phases[2]", "non-finite time [nan, 7.0)"),
            Violation("resource SCAN", "SCAN conflict: scan [0.0, 6.0) overlaps scan [5.0, 1.0)"),
        ]

    def test_signed_zeros_print_alike_in_either_order(self):
        # 0.0 and -0.0 tie in the sort, so their input order survives it
        cases = [
            (
                (Phase(Resource.PR, "reconfig", "Q0", 0.0, 3.0), Phase(Resource.PR, "reconfig", "Q1", -0.0, 3.0)),
                3.0,
                [Violation("resource PR", "PR conflict: reconfig [0.0, 3.0) overlaps reconfig [0.0, 3.0)")],
            ),
            (
                (Phase(Resource.SCAN, "scan", "Q0", -1.0, 0.0), Phase(Resource.SCAN, "scan", "Q1", -1.0, -0.0)),
                5.0,
                [
                    Violation("resource SCAN", "SCAN conflict: scan [-1.0, 0.0) overlaps scan [-1.0, 0.0)"),
                    Violation("makespan", "makespan 5.0 != max phase end 0.0"),
                ],
            ),
        ]
        for phases, makespan, violations in cases:
            for order in (phases, phases[::-1]):
                assert validate_timeline(Timeline(order, makespan)) == violations

    @settings(deadline=None, max_examples=300)
    @given(case=_mixed_mode_cases(), data=st.data())
    def test_shuffled_phases_get_the_same_violations(self, case, data):
        """A simulated timeline, damaged (times shifted, copied from another
        phase, made non-finite, phases repeated, a wrong makespan), then
        shuffled: each phase keeps its own ``phases[i]`` violations under its
        new index, and the other violations are the same."""
        timeline = simulate(*case)
        phases = list(timeline.phases)
        non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
        for i in range(len(phases)):
            p = phases[i]
            how = data.draw(st.sampled_from(["keep", "keep", "shift", "copy", "non-finite", "signed-zero", "repeat"]))
            if how == "shift":
                shift = st.one_of(st.just(0.0), st.floats(-20.0, 20.0))
                phases[i] = p._replace(start=p.start + data.draw(shift), end=p.end + data.draw(shift))
            elif how == "copy":
                other = phases[data.draw(st.integers(0, len(phases) - 1))]
                phases[i] = p._replace(start=other.start, end=other.end)
            elif how == "non-finite":
                phases[i] = p._replace(**{data.draw(st.sampled_from(["start", "end"])): data.draw(non_finite)})
            elif how == "signed-zero":
                phases[i] = p._replace(**{data.draw(st.sampled_from(["start", "end"])): data.draw(st.sampled_from([0.0, -0.0]))})
            elif how == "repeat":
                phases.append(p._replace(start=p.start + data.draw(st.floats(-5.0, 5.0))))
        makespan = data.draw(st.one_of(st.just(timeline.makespan), non_finite, st.floats(0.0, 500.0)))
        order = data.draw(st.permutations(range(len(phases))))

        def split(violations, index):
            located = Counter((index(int(v.location[7:-1])), v.message) for v in violations if v.location.startswith("phases["))
            return located, Counter(v for v in violations if not v.location.startswith("phases["))

        got = validate_timeline(Timeline(tuple(phases[i] for i in order), makespan))
        assert split(got, order.__getitem__) == split(validate_timeline(Timeline(tuple(phases), makespan)), int)


class TestTimelineCsv:
    def test_format_and_order(self, paper_seq, profile):
        timeline = simulate(paper_seq, strategy_plan(paper_seq, Strategy.S), profile)
        text = timeline_csv(timeline)
        lines = text.splitlines()
        assert lines[0] == "resource,label,query,start_ms,end_ms"
        # both start at 0; PR sorts before SCAN
        assert lines[1].startswith("PR,reconfig,Q0,0.000000,15.000000")
        assert lines[2].startswith("SCAN,scan,Q0,0.000000,9.000000")
        starts = [float(line.split(",")[3]) for line in lines[1:]]
        assert starts == sorted(starts)
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 5

    def test_gap_row_uses_placeholder(self, paper_seq, profile):
        timeline = simulate(paper_seq, strategy_plan(paper_seq, Strategy.S), profile)
        text = timeline_csv(timeline)
        assert f"IDLE,gap,{GAP_QUERY}," in text

    def test_ids_with_commas_quotes_and_line_breaks_read_back(self, paper_seq, profile):
        ids = ("Q,0", 'Q"1\n')
        queries = tuple(dataclasses.replace(q, id=qid) for q, qid in zip(paper_seq.queries, ids))
        seq = QuerySequence(queries, paper_seq.gaps)
        text = timeline_csv(simulate(seq, strategy_plan(seq, Strategy.S), profile))
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == ["resource", "label", "query", "start_ms", "end_ms"]
        assert all(len(row) == 5 for row in rows)
        assert {row[2] for row in rows[1:]} == {*ids, GAP_QUERY}

    def test_byte_deterministic(self, paper_seq, profile):
        plan = strategy_plan(paper_seq, Strategy.IV)
        a = timeline_csv(simulate(paper_seq, plan, profile))
        b = timeline_csv(simulate(paper_seq, plan, profile))
        assert a == b


def _pinned(phases) -> list[tuple]:
    return [(p.resource, p.label, p.query, p.start.hex(), p.end.hex()) for p in phases]


def _tie_heavy_case(rng: random.Random) -> tuple[QuerySequence, DeviceProfile]:
    """2-8 queries with whole-MB sizes of 0-4, gaps of 0-2 ms and round
    device rates, so phases of different resources often start together."""
    n = rng.randint(2, 8)
    queries = tuple(
        Query(
            f"Q{qi}",
            TableSpec(f"t{qi}", float(rng.randint(0, 4))),
            tuple(
                FilterOp(op_id, rng.choice((0.0, 0.25, 0.5, 1.0)), commutes=rng.random() > 0.2)
                for op_id in rng.sample(("a", "b", "c", "d"), rng.randint(1, 3))
            ),
        )
        for qi in range(n)
    )
    gaps = tuple(float(rng.randint(0, 2)) for _ in range(n - 1))
    round_rate = (0.5, 1.0, 2.0, 4.0)
    profile = DeviceProfile(
        t_reconfig=rng.choice(round_rate),
        r_scan=rng.choice(round_rate),
        r_acc=rng.choice(round_rate),
        r_network=rng.choice(round_rate),
        c_dbms=rng.choice((0.125, 0.25, 0.5, 1.0)),
    )
    return QuerySequence(queries, gaps), profile


class TestPhaseOrder:
    def test_phases_sorted_by_start_then_resource_name(self):
        rng = random.Random(2053)
        cases = [(random_sequence(rng), random_profile(rng)) for _ in range(200)]
        cases += [_tie_heavy_case(rng) for _ in range(200)]
        ties: Counter = Counter()
        for seq, profile in cases:
            for plan in enumerate_plans(seq) + [random_plan(rng, seq) for _ in range(2)]:
                phases = simulate(seq, plan, profile).phases
                reference = sorted(phases, key=lambda p: (p.start, p.resource.value, p.end, p.label, p.query))
                assert _pinned(phases) == _pinned(reference), (plan, seq)
                ties.update(
                    (a.resource.value, b.resource.value)
                    for a, b in zip(phases, phases[1:])
                    if a.start == b.start and a.resource is not b.resource
                )
        # resources often start together (a scan and a reconfiguration at
        # 0), and each tie that the simulator's release order must get right
        # occurs: a gap and the next reconfiguration, a reconfiguration and
        # its scan, a transfer and the successor's early reconfiguration
        assert sum(ties.values()) > 500
        assert ties.keys() >= {("IDLE", "PR"), ("PR", "SCAN"), ("NET", "PR")}, ties

    def test_resources_are_dict_keys_and_pickle(self, paper_seq, profile):
        names = {resource: resource.value for resource in Resource}
        assert [names[Resource(v)] for v in ("SCAN", "PR", "NET", "DBMS", "IDLE")] == [
            "SCAN", "PR", "NET", "DBMS", "IDLE"
        ]
        for resource in Resource:
            clone = pickle.loads(pickle.dumps(resource))
            assert clone is resource and names[clone] == resource.value
        timeline = simulate(paper_seq, strategy_plan(paper_seq, Strategy.III), profile)
        assert pickle.loads(pickle.dumps(timeline)) == timeline


# Every phase of a timeline as "RESOURCE label query start end", times as
# float.hex, with the makespan: a reordered float addition or a changed
# dependency shows up here even where a makespan pin would not move.
PAPER_TIMELINES = {
    Strategy.S: ("0x1.2171111111111p+6", [
        "PR reconfig Q0 0x0.0p+0 0x1.e000000000000p+3",
        "SCAN scan Q0 0x0.0p+0 0x1.2000000000000p+3",
        "PR acc-exec Q0 0x1.e000000000000p+3 0x1.5000000000000p+4",
        "PR reconfig Q0 0x1.5000000000000p+4 0x1.2000000000000p+5",
        "PR acc-exec Q0 0x1.2000000000000p+5 0x1.2fd70a3d70a3dp+5",
        "NET transfer Q0 0x1.2fd70a3d70a3dp+5 0x1.af8ccccccccccp+5",
        "IDLE gap — 0x1.af8ccccccccccp+5 0x1.b78ccccccccccp+5",
        "PR reconfig Q1 0x1.b78ccccccccccp+5 0x1.17c6666666666p+6",
        "SCAN scan Q1 0x1.b78ccccccccccp+5 0x1.bf8ccccccccccp+5",
        "PR acc-exec Q1 0x1.17c6666666666p+6 0x1.1a71111111111p+6",
        "NET transfer Q1 0x1.1a71111111111p+6 0x1.2171111111111p+6",
    ]),
    Strategy.I: ("0x1.f50bcf64e5ec1p+5", [
        "PR reconfig Q0 0x0.0p+0 0x1.e000000000000p+3",
        "SCAN scan Q0 0x0.0p+0 0x1.2000000000000p+3",
        "PR acc-exec Q0 0x1.e000000000000p+3 0x1.5000000000000p+4",
        "NET transfer Q0 0x1.5000000000000p+4 0x1.d100000000000p+5",
        "DBMS dbms Q0 0x1.d100000000000p+5 0x1.d1b67a0f9096cp+5",
        "IDLE gap — 0x1.d1b67a0f9096cp+5 0x1.d9b67a0f9096cp+5",
        "SCAN scan Q1 0x1.d9b67a0f9096cp+5 0x1.e1b67a0f9096cp+5",
        "PR acc-exec Q1 0x1.e1b67a0f9096cp+5 0x1.e70bcf64e5ec1p+5",
        "NET transfer Q1 0x1.e70bcf64e5ec1p+5 0x1.f50bcf64e5ec1p+5",
    ]),
    Strategy.II: ("0x1.27a18d95c6edep+6", [
        "PR reconfig Q0 0x0.0p+0 0x1.e000000000000p+3",
        "SCAN scan Q0 0x0.0p+0 0x1.2000000000000p+3",
        "PR acc-exec Q0 0x1.e000000000000p+3 0x1.5000000000000p+4",
        "NET transfer Q0 0x1.5000000000000p+4 0x1.1580000000000p+6",
        "PR reconfig Q1 0x1.5000000000000p+4 0x1.2000000000000p+5",
        "DBMS dbms Q0 0x1.1580000000000p+6 0x1.15f6e2eb1c433p+6",
        "IDLE gap — 0x1.15f6e2eb1c433p+6 0x1.19f6e2eb1c433p+6",
        "SCAN scan Q1 0x1.19f6e2eb1c433p+6 0x1.1df6e2eb1c433p+6",
        "PR acc-exec Q1 0x1.1df6e2eb1c433p+6 0x1.20a18d95c6edep+6",
        "NET transfer Q1 0x1.20a18d95c6edep+6 0x1.27a18d95c6edep+6",
    ]),
    Strategy.III: ("0x1.d2e2222222221p+5", [
        "PR reconfig Q0 0x0.0p+0 0x1.e000000000000p+3",
        "SCAN scan Q0 0x0.0p+0 0x1.2000000000000p+3",
        "PR acc-exec Q0 0x1.e000000000000p+3 0x1.5000000000000p+4",
        "PR reconfig Q0 0x1.5000000000000p+4 0x1.2000000000000p+5",
        "PR acc-exec Q0 0x1.2000000000000p+5 0x1.2fd70a3d70a3dp+5",
        "NET transfer Q0 0x1.2fd70a3d70a3dp+5 0x1.af8ccccccccccp+5",
        "PR reconfig Q1 0x1.2fd70a3d70a3dp+5 0x1.a7d70a3d70a3dp+5",
        "IDLE gap — 0x1.af8ccccccccccp+5 0x1.b78ccccccccccp+5",
        "SCAN scan Q1 0x1.b78ccccccccccp+5 0x1.bf8ccccccccccp+5",
        "PR acc-exec Q1 0x1.bf8ccccccccccp+5 0x1.c4e2222222221p+5",
        "NET transfer Q1 0x1.c4e2222222221p+5 0x1.d2e2222222221p+5",
    ]),
    Strategy.IV: ("0x1.d7aeeeeeeeeefp+5", [
        "PR reconfig Q0 0x0.0p+0 0x1.e000000000000p+3",
        "SCAN scan Q0 0x0.0p+0 0x1.2000000000000p+3",
        "PR acc-exec Q0 0x1.e000000000000p+3 0x1.5000000000000p+4",
        "PR reconfig Q0 0x1.5000000000000p+4 0x1.2000000000000p+5",
        "PR acc-exec Q0 0x1.2000000000000p+5 0x1.34a3d70a3d70ap+5",
        "NET transfer Q0 0x1.34a3d70a3d70ap+5 0x1.b45999999999ap+5",
        "IDLE gap — 0x1.b45999999999ap+5 0x1.bc5999999999ap+5",
        "SCAN scan Q1 0x1.bc5999999999ap+5 0x1.c45999999999ap+5",
        "PR acc-exec Q1 0x1.c45999999999ap+5 0x1.c9aeeeeeeeeefp+5",
        "NET transfer Q1 0x1.c9aeeeeeeeeefp+5 0x1.d7aeeeeeeeeefp+5",
    ]),
}

MIXED_TIMELINE = ("0x1.3dff1a9fbe76cp+7", [
    "PR reconfig Q0 0x0.0p+0 0x1.e000000000000p+3",
    "SCAN scan Q0 0x0.0p+0 0x1.9000000000000p+3",
    "PR acc-exec Q0 0x1.e000000000000p+3 0x1.7555555555556p+4",
    "PR reconfig Q0 0x1.7555555555556p+4 0x1.32aaaaaaaaaabp+5",
    "PR acc-exec Q0 0x1.32aaaaaaaaaabp+5 0x1.46aaaaaaaaaabp+5",
    "NET transfer Q0 0x1.46aaaaaaaaaabp+5 0x1.13d5555555556p+6",
    "PR reconfig Q1 0x1.46aaaaaaaaaabp+5 0x1.beaaaaaaaaaabp+5",
    "DBMS dbms Q0 0x1.13d5555555556p+6 0x1.141a740da740ep+6",
    "IDLE gap — 0x1.141a740da740ep+6 0x1.1e1a740da740ep+6",
    "SCAN scan Q1 0x1.1e1a740da740ep+6 0x1.2a1a740da740ep+6",
    "PR acc-exec Q1 0x1.2a1a740da740ep+6 0x1.321a740da740ep+6",
    "NET transfer Q1 0x1.321a740da740ep+6 0x1.579a740da740ep+6",
    "PR reconfig Q2 0x1.321a740da740ep+6 0x1.6e1a740da740ep+6",
    "DBMS dbms Q1 0x1.579a740da740ep+6 0x1.57b17e4b17e4bp+6",
    "DBMS dbms Q1 0x1.57b17e4b17e4bp+6 0x1.57bd0369d036ap+6",
    "SCAN scan Q2 0x1.57bd0369d036ap+6 0x1.73bd0369d036ap+6",
    "PR acc-exec Q2 0x1.73bd0369d036ap+6 0x1.8667ae147ae15p+6",
    "NET transfer Q2 0x1.8667ae147ae15p+6 0x1.3db3d70a3d70ap+7",
    "DBMS dbms Q2 0x1.3db3d70a3d70ap+7 0x1.3dff1a9fbe76cp+7",
])


def _hex_phases(timeline) -> list[str]:
    return [f"{p.resource.value} {p.label} {p.query} {p.start.hex()} {p.end.hex()}" for p in timeline.phases]


def _mixed_sequence_and_plan() -> tuple[QuerySequence, Plan]:
    """Three queries: Q1 is HOLD behind Q0, Q2 SPECULATIVE behind Q1 (they
    share ``d``), and Q0 arrives at the BASELINE start.  Every query leaves
    an op on the host, Q0 streams two, and the zero gap before Q2 is a
    zero-length phase the timeline omits."""
    seq = QuerySequence(
        queries=(
            Query("Q0", TableSpec("t0", 12.5),
                  (FilterOp("a", 0.3), FilterOp("b", 0.6), FilterOp("c", 0.8, commutes=False))),
            Query("Q1", TableSpec("t1", 3.0), (FilterOp("c", 0.5), FilterOp("d", 0.25), FilterOp("e", 0.9))),
            Query("Q2", TableSpec("t2", 7.0), (FilterOp("a", 0.7), FilterOp("d", 0.1))),
        ),
        gaps=(2.5, 0.0),
    )
    plan = Plan(Strategy.S, (("a", "b"), ("d",), ("a",)), (Mode.HOLD, Mode.SPECULATIVE))
    return seq, plan


class TestPinnedTimelines:
    @pytest.mark.parametrize("strategy", list(PAPER_TIMELINES), ids=str)
    def test_paper_scenario_phases_pinned_to_the_bit(self, strategy, paper_seq, profile):
        makespan, phases = PAPER_TIMELINES[strategy]
        timeline = simulate(paper_seq, strategy_plan(paper_seq, strategy), profile)
        assert _hex_phases(timeline) == phases
        assert timeline.makespan.hex() == makespan

    def test_mixed_mode_plan_phases_pinned_to_the_bit(self, profile):
        seq, plan = _mixed_sequence_and_plan()
        makespan, phases = MIXED_TIMELINE
        timeline = simulate(seq, plan, profile)
        assert _hex_phases(timeline) == phases
        assert timeline.makespan.hex() == makespan == plan_cost(seq, plan, profile).total.hex()
        assert validate_timeline(timeline) == []


def test_package_attribute_simulate_is_the_function_not_the_module():
    """``rpusim.simulate`` names the exported function, also after the
    submodule is imported; the module is reached through ``importlib``."""
    import rpusim
    import rpusim.simulate

    module = importlib.import_module("rpusim.simulate")
    assert isinstance(module, types.ModuleType) and sys.modules["rpusim.simulate"] is module
    assert rpusim.simulate is simulate is module.simulate
    assert not isinstance(rpusim.simulate, types.ModuleType)
