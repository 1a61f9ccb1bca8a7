from __future__ import annotations

import math
import random
from dataclasses import FrozenInstanceError, replace
import re
import sys
from collections import Counter

import pytest

from rpusim import (
    DeviceProfile,
    IllegalPlanError,
    InvalidSequenceError,
    Mode,
    NonFiniteResultError,
    Strategy,
    SweepSpec,
    enumerate_plans,
    improvement,
    plan_cost,
    run_sweep,
    scale_sequence,
    set_gaps,
    set_selectivity,
    strategy_plan,
    sweep_csv,
)
from conftest import canonical_sequence
from rpusim.cost import _fold, _sweep_fold
from rpusim.plans import check_plan
from rpusim.sweep import _TRANSFORMS, SweepRow
from test_engine_agreement import random_cases, random_plan, random_profile, random_sequence


class TestTransforms:
    def test_scale(self, paper_seq):
        seq = scale_sequence(paper_seq, 3.0)
        assert seq.queries[0].table.size_mb == 27.0
        assert seq.queries[1].table.size_mb == 3.0
        assert seq.gaps == paper_seq.gaps

    def test_selectivity(self, paper_seq):
        seq = set_selectivity(paper_seq, 0.2)
        assert all(op.selectivity == 0.2 for q in seq.queries for op in q.ops)

    def test_gaps(self, paper_seq):
        seq = set_gaps(paper_seq, 7.5)
        assert seq.gaps == (7.5,)

    def test_range_checks(self, paper_seq):
        with pytest.raises(ValueError):
            scale_sequence(paper_seq, -1.0)
        with pytest.raises(ValueError):
            set_selectivity(paper_seq, 1.5)
        with pytest.raises(ValueError):
            set_gaps(paper_seq, -0.1)


class TestSweepSpec:
    def test_grid_is_inclusive(self):
        spec = SweepSpec("scale", 1.0, 5.0, 5, (Strategy.I,))
        assert spec.grid() == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variable="voltage", start=0.0, stop=1.0, steps=2, strategies=(Strategy.I,)),
            dict(variable="scale", start=5.0, stop=1.0, steps=2, strategies=(Strategy.I,)),
            dict(variable="scale", start=1.0, stop=5.0, steps=1, strategies=(Strategy.I,)),
            dict(variable="scale", start=1.0, stop=5.0, steps=2, strategies=()),
            dict(variable="gap", start=0.0, stop=math.inf, steps=3, strategies=(Strategy.I,)),
            dict(variable="gap", start=-math.inf, stop=0.0, steps=3, strategies=(Strategy.I,)),
            dict(variable="gap", start=math.nan, stop=1.0, steps=3, strategies=(Strategy.I,)),
            dict(variable="gap", start=0.0, stop=math.nan, steps=3, strategies=(Strategy.I,)),
            # finite bounds whose difference overflows
            dict(variable="gap", start=-1e308, stop=1e308, steps=3, strategies=(Strategy.I,)),
            # a finite range whose last point rounds up to inf
            dict(variable="scale", start=0.0, stop=sys.float_info.max, steps=7, strategies=(Strategy.I,)),
            # a repeated strategy would print its rows twice
            dict(variable="gap", start=0.0, stop=1.0, steps=2, strategies=(Strategy.S, Strategy.S, Strategy.III)),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SweepSpec(**kwargs)

    # never call grid() on these: it would allocate one float per step
    @pytest.mark.parametrize(
        "steps, message",
        [
            (2.5, "steps must be an int, got 2.5"),
            (3.0, "steps must be an int, got 3.0"),
            (True, "steps must be an int, got True"),
            ("3", "steps must be an int, got '3'"),
            (sys.maxsize + 1, f"steps must be <= {sys.maxsize}, got {sys.maxsize + 1}"),
            (10**400, f"steps must be <= {sys.maxsize}, got {10**400}"),
        ],
    )
    def test_steps_must_be_an_int_that_spaces_a_grid(self, steps, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec("gap", 0.0, 1.0, steps, (Strategy.III,))

    def test_no_point_rounds_past_the_stop(self, paper_seq, profile):
        # unclamped, the last point of this grid is 1.0000000000000002, a
        # selectivity the transform rejects
        spec = SweepSpec("selectivity", 1.03125e-10, 1.0, 4, (Strategy.S,))
        grid = spec.grid()
        assert grid[-1] == 1.0 and grid == sorted(grid)
        assert [row.value for row in run_sweep(paper_seq, profile, spec)] == grid
        rng = random.Random(11)
        for _ in range(2000):
            start, stop = sorted((rng.random(), rng.random()))
            spec = SweepSpec("selectivity", start, stop, rng.randint(2, 9), (Strategy.S,))
            assert all(start <= value <= stop for value in spec.grid()), spec

    def test_strategies_are_kept_as_a_tuple(self):
        spec = SweepSpec("gap", 0.0, 1.0, 2, [Strategy.I])
        assert spec.strategies == (Strategy.I,)
        assert hash(spec) == hash(SweepSpec("gap", 0.0, 1.0, 2, (Strategy.I,)))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("start", True, "sweep start must be a real number, got True"),
            ("stop", True, "sweep stop must be a real number, got True"),
            ("start", "0", "sweep start must be a real number, got '0'"),
            ("stop", None, "sweep stop must be a real number, got None"),
            ("strategies", ("I",), "strategies must be Strategy members, got 'I'"),
            ("strategies", (Strategy.S, "III"), "strategies must be Strategy members, got 'III'"),
        ],
    )
    def test_fields_of_the_wrong_type_are_rejected(self, field, value, message):
        fields = dict(variable="gap", start=0.0, stop=1.0, steps=2, strategies=(Strategy.I,))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(**{**fields, field: value})

    @pytest.mark.parametrize("strategies", [Strategy.I, 3, None], ids=["member", "int", "none"])
    def test_strategies_that_are_not_iterable_are_rejected(self, strategies):
        message = f"strategies must be an iterable of Strategy members, got {strategies!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec("gap", 0.0, 1.0, 2, strategies)

    def test_int_bounds_are_real_numbers(self):
        assert SweepSpec("gap", 0, 2, 3, (Strategy.I,)).grid() == [0.0, 1.0, 2.0]

    def test_widest_finite_grid_is_accepted(self):
        spec = SweepSpec("scale", 0.0, sys.float_info.max, 3, (Strategy.I,))
        assert spec.grid() == [0.0, sys.float_info.max / 2, sys.float_info.max]


class TestRunSweep:
    def test_improvement_column_matches_direct_costs(self, paper_seq, profile):
        spec = SweepSpec("scale", 0.5, 4.0, 8, (Strategy.S, Strategy.I, Strategy.IV))
        rows = run_sweep(paper_seq, profile, spec)
        assert len(rows) == 8 * 3
        for row in rows:
            variant = scale_sequence(paper_seq, row.value)
            breakdown = plan_cost(variant, strategy_plan(variant, row.strategy), profile)
            baseline = plan_cost(variant, strategy_plan(variant, Strategy.S), profile)
            assert row.total_ms == breakdown.total
            assert row.improvement_pct == improvement(breakdown.total, baseline.total)

    def test_s_rows_have_zero_improvement(self, paper_seq, profile):
        spec = SweepSpec("gap", 0.0, 10.0, 3, (Strategy.S,))
        rows = run_sweep(paper_seq, profile, spec)
        assert all(row.improvement_pct == 0.0 for row in rows)

    def test_selectivity_out_of_range_fails(self, paper_seq, profile):
        spec = SweepSpec("selectivity", 0.5, 1.5, 3, (Strategy.IV,))
        with pytest.raises(ValueError):
            run_sweep(paper_seq, profile, spec)

    def test_scale_trend_for_partial_pushdown(self, paper_seq, profile):
        # partial pushdown loses to the baseline once tables grow
        spec = SweepSpec("scale", 1.0, 5.0, 9, (Strategy.I, Strategy.II))
        rows = run_sweep(paper_seq, profile, spec)
        for row in rows:
            if row.value >= 2.0:
                assert row.improvement_pct < 0.0

    def test_gap_trend_for_speculative_reload(self, paper_seq, profile):
        seq = scale_sequence(paper_seq, 0.5)
        spec = SweepSpec("gap", 0.5, 30.0, 30, (Strategy.III,))
        rows = run_sweep(seq, profile, spec)
        # once the reload hides completely, growing gaps only dilute the saving
        trans0, scan1 = 4.5 * 0.33 * 0.43 / 0.08, 0.5
        hidden = [r for r in rows if trans0 + r.value + scan1 >= 15.0]
        for a, b in zip(hidden, hidden[1:]):
            assert b.improvement_pct <= a.improvement_pct + 1e-9


def test_sweep_csv_format(paper_seq, profile):
    spec = SweepSpec("gap", 0.0, 1.0, 2, (Strategy.S, Strategy.III))
    text = sweep_csv(run_sweep(paper_seq, profile, spec))
    lines = text.splitlines()
    assert lines[0] == "variable,value,strategy,total_ms,improvement_pct"
    assert lines[1].startswith("gap,0.000000,S,")
    assert lines[2].startswith("gap,0.000000,III,")
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    # byte-for-byte reproducible
    assert text == sweep_csv(run_sweep(paper_seq, profile, spec))


def test_rows_are_plain_sweep_rows(paper_seq, profile):
    """Rows equal, print and hash as ``SweepRow(...)`` builds them, hold
    their fields in declaration order and stay frozen."""
    for variable, start, stop in (("scale", 0.5, 4.0), ("gap", 0.0, 30.0), ("selectivity", 0.0, 1.0)):
        for row in run_sweep(paper_seq, profile, SweepSpec(variable, start, stop, 3, (Strategy.III, Strategy.S))):
            twin = SweepRow(row.variable, row.value, row.strategy, row.total_ms, row.improvement_pct)
            assert row == twin and repr(row) == repr(twin) and hash(row) == hash(twin)
            assert list(vars(row).items()) == list(vars(twin).items())
            with pytest.raises(FrozenInstanceError):
                row.total_ms = 0.0


def per_point_sweep(seq, profile, spec):
    """``run_sweep`` rebuilding every plan at every grid point."""
    rows = []
    for value in spec.grid():
        variant = _TRANSFORMS[spec.variable](seq, value)
        baseline = plan_cost(variant, strategy_plan(variant, Strategy.S), profile)
        for strategy in spec.strategies:
            breakdown = plan_cost(variant, strategy_plan(variant, strategy), profile)
            rows.append(SweepRow(spec.variable, value, strategy, breakdown.total, improvement(breakdown.total, baseline.total)))
    return rows


#: Scales every table above about 1.8 MB past the largest float by the last
#: point, so each sweep over an applicable plan set fails part-way.
OVERFLOWING = ("scale", 0.0, 1e308)
#: The first point is a negative scale factor or gap.
NEGATIVE_SCALE = ("scale", -1.0, 4.0)
NEGATIVE_GAP = ("gap", -1.0, 40.0)
#: 0.0, 0.3, ..., 1.5 in six points: the fifth, 1.2, is no selectivity.
SELECTIVITY_PAST_ONE = ("selectivity", 0.0, 1.5)


@pytest.mark.parametrize(
    "variable, start, stop",
    [
        ("scale", 0.0, 4.0),
        ("gap", 0.0, 40.0),
        ("selectivity", 0.0, 1.0),
        OVERFLOWING,
        NEGATIVE_SCALE,
        NEGATIVE_GAP,
        SELECTIVITY_PAST_ONE,
    ],
)
def test_rows_equal_a_per_point_rebuild(variable, start, stop):
    rng = random.Random(311)
    raised: Counter = Counter()
    for _ in range(150):
        seq, profile = random_sequence(rng), random_profile(rng)
        strategies = tuple(rng.sample(list(Strategy), rng.randint(1, 5)))
        spec = SweepSpec(variable, start, stop, 6, strategies)
        try:
            expected = per_point_sweep(seq, profile, spec)
        except (IllegalPlanError, InvalidSequenceError, ValueError) as exc:
            # the first inapplicable strategy, in spec order, or the first
            # point whose value the transform rejects, is the one reported
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                run_sweep(seq, profile, spec)
            raised[type(exc)] += 1
            continue
        assert run_sweep(seq, profile, spec) == expected, (spec, seq)
    grid = (variable, start, stop)
    if grid in (NEGATIVE_SCALE, NEGATIVE_GAP):
        # the first point fails, before any plan is built
        assert raised == Counter({ValueError: 150})
    elif grid == SELECTIVITY_PAST_ONE:
        # a sweep whose plans all apply fails at its fifth point
        assert raised[IllegalPlanError] > 0 and raised[ValueError] > 0
        assert raised[IllegalPlanError] + raised[ValueError] == 150
    elif grid == OVERFLOWING:
        assert raised[IllegalPlanError] > 0 and raised[InvalidSequenceError] > 0
        assert raised[IllegalPlanError] + raised[InvalidSequenceError] == 150
    else:
        assert 0 < raised[IllegalPlanError] == sum(raised.values()) < 150


def _hexed(row):
    return row.variable, row.value.hex(), row.strategy, row.total_ms.hex(), row.improvement_pct.hex()


@pytest.mark.parametrize("variable, start, stop", [("scale", 0.0, 4.0), ("gap", 0.0, 40.0), ("selectivity", 0.0, 1.0)])
def test_long_sweeps_equal_a_per_point_rebuild_bit_for_bit(variable, start, stop):
    """Sequences of 20-120 queries, every applicable strategy: each row's
    total and improvement carry the very bits of a per-point rebuild."""
    rng = random.Random(523)
    applicable: Counter = Counter()
    for _ in range(8):
        seq, profile = random_sequence(rng, rng.randint(20, 120)), random_profile(rng)
        strategies = tuple(plan.strategy for plan in enumerate_plans(seq))
        applicable.update(strategies)
        spec = SweepSpec(variable, start, stop, 5, strategies)
        rows = run_sweep(seq, profile, spec)
        expected = per_point_sweep(seq, profile, spec)
        assert list(map(_hexed, rows)) == list(map(_hexed, expected)), (spec, seq)
        assert rows == expected
    # the sequences cover plans with HOLD and SPECULATIVE boundaries
    assert applicable[Strategy.II] > 0 and applicable[Strategy.III] > 0


@pytest.mark.parametrize("variable, start, stop", [("scale", 0.0, 4.0), ("gap", 0.0, 40.0), ("selectivity", 0.0, 1.0)])
def test_sweep_fold_is_the_fold_of_each_variant_bit_for_bit(variable, start, stop):
    """On hand-built legal plans that mix modes and push nothing down for
    some queries, as no strategy plan does, each grid point's totals carry
    the bits of ``_fold`` over that point's variant."""
    grid = SweepSpec(variable, start, stop, 7, (Strategy.S,)).grid()
    empty = Counter()
    for rng, seq, profile in random_cases(3301, 120):
        plans = [random_plan(rng, seq) for _ in range(4)]
        totals_at = _sweep_fold(plans, seq, profile, variable)
        for value in grid:
            variant = _TRANSFORMS[variable](seq, value)
            expected = [_fold(check_plan(plan, variant), variant, profile).hex() for plan in plans]
            assert [total.hex() for total in totals_at(value)] == expected, (value, plans, seq)
        for plan in plans:
            for order, mode in zip(plan.rpu_order[1:], plan.modes):
                empty[mode] += not order
    # an empty order follows a boundary of every mode
    assert all(empty[mode] > 0 for mode in Mode), empty


def _raises_in_both(seq, profile, spec, error, message):
    """``run_sweep`` and a per-point rebuild both raise ``error`` with ``message``."""
    for sweep in (run_sweep, per_point_sweep):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sweep(seq, profile, spec)


def test_a_fold_overflow_at_an_earlier_point_wins_over_a_later_rejection(profile):
    """At 1 the 1e300 MB table's scan overflows the total; at 1e10 its
    size overflows, which the transform rejects.  The earlier point wins."""
    seq = canonical_sequence(s0=1e300)
    slow_scan = replace(profile, r_scan=1e-10)
    _raises_in_both(seq, slow_scan, SweepSpec("scale", 1.0, 1e10, 2, (Strategy.S,)),
                    NonFiniteResultError, "plan cost overflows: total inf ms")
    with pytest.raises(InvalidSequenceError):
        scale_sequence(seq, 1e10)


def test_an_improvement_overflow_at_an_earlier_point_wins_over_a_later_fold_overflow():
    """S streams everything, through rates of 1e300 MB/ms, to a tiny total;
    I and II filter on the host at 1e300 ms per MB.  At scale 1 every total
    is finite but I's saving over S is not; at 1e10 the host work overflows
    I's and II's totals.  The earlier point wins."""
    seq = canonical_sequence(gap=0.0)
    extreme = DeviceProfile(t_reconfig=1e-300, r_scan=1e300, r_acc=1e300, r_network=1e300, c_dbms=1e300)
    spec = SweepSpec("scale", 1.0, 1e10, 2, (Strategy.I, Strategy.II))
    _raises_in_both(seq, extreme, spec, NonFiniteResultError,
                    "improvement of 2.9700000000000004e+300 over 2.53871e-299 ms is not finite")
    later = SweepSpec("scale", 1e10, 1e10, 2, spec.strategies)
    _raises_in_both(seq, extreme, later, NonFiniteResultError, "plan cost overflows: total inf ms")
