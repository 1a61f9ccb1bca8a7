"""Finite in, finite out: inputs the model accepts never yield an infinite or
NaN answer.

Sizes, gaps and rates are all finite, but a scan or a transfer of a huge
table over a tiny rate overflows a float.  Each engine checks its own result
once (``cost._fold`` its total, ``simulate`` its makespan) and raises
``NonFiniteResultError``, so the CLI exits 1 instead of printing ``inf`` or
``nan``.  The property tests draw magnitudes from 1e-300 to 1e300.
"""

from __future__ import annotations

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rpusim import (
    STRATEGY_ORDER,
    DeviceProfile,
    FilterOp,
    NonFiniteResultError,
    Query,
    QuerySequence,
    RpusimError,
    Strategy,
    SweepSpec,
    TableSpec,
    choose_plan,
    costed_plans,
    default_scenario,
    enumerate_plans,
    improvement,
    plan_cost,
    run_sweep,
    save_workload,
    scale_sequence,
    set_gaps,
    simulate,
    strategy_plan,
)
from rpusim.cli import main

TINY_NETWORK = DeviceProfile(15.0, 1.0, 1.5, 1e-320, 0.03)
# with no gap, every plan's total is finite, but S costs about 1e-299 ms
# and I about 3e300 ms (host filtering), so I's saving over S overflows
COSTLY_HOST = DeviceProfile(1e-300, 1e300, 1e300, 1e300, 1e300)
# with the default scenario scaled by 1e8, S, III and IV push everything
# down and cost about 3.6e9 ms, but I and II's host filtering overflows
HUGE_HOST_COST = DeviceProfile(15.0, 1.0, 1.5, 0.08, 1e300)
# each profile overflows one kind of phase of the default scenario under the
# strategy given; I leaves Q0's second filter on the host
PHASE_OVERFLOWS = {
    "transfer": (TINY_NETWORK, Strategy.S),
    "scan": (DeviceProfile(15.0, 1e-320, 1.5, 0.08, 0.03), Strategy.S),
    "acc-exec": (DeviceProfile(15.0, 1.0, 1e-320, 0.08, 0.03), Strategy.S),
    "dbms": (DeviceProfile(15.0, 1.0, 1.5, 0.08, 1e308), Strategy.I),
    "reconfig": (DeviceProfile(1e308, 1.0, 1.5, 0.08, 0.03), Strategy.S),
}


def _run_cli(args: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue()


def _assert_no_non_finite(text: str) -> None:
    assert "inf" not in text and "nan" not in text, text


class TestOverflowReproductions:
    def test_scale_sweep_that_overflows_exits_1(self):
        rc, out = _run_cli(
            ["sweep", "--sweep", "scale", "--from", "0", "--to", "1e307", "--steps", "3", "--strategies", "S,I,III"]
        )
        assert rc == 1
        _assert_no_non_finite(out)

    def test_tiny_network_rate_is_rejected_by_every_engine(self):
        seq = default_scenario()
        plan = strategy_plan(seq, Strategy.S)
        with pytest.raises(NonFiniteResultError, match="plan cost overflows"):
            plan_cost(seq, plan, TINY_NETWORK)
        with pytest.raises(NonFiniteResultError, match="simulated makespan overflows"):
            simulate(seq, plan, TINY_NETWORK)
        with pytest.raises(NonFiniteResultError):
            choose_plan(seq, TINY_NETWORK)

    def test_overflowing_candidate_is_dropped_when_another_is_finite(self):
        # S and III stream everything; I's host filtering overflows
        seq = scale_sequence(default_scenario(), 1e8)
        plan, breakdown = choose_plan(seq, HUGE_HOST_COST)
        assert plan.strategy is Strategy.S
        assert breakdown.total == pytest.approx(3.636e9, rel=1e-3)
        strategies = [p.strategy for p, _ in costed_plans(seq, HUGE_HOST_COST)]
        assert strategies == [Strategy.S, Strategy.III, Strategy.IV]
        assert all(math.isfinite(c.total) for _, c in costed_plans(seq, HUGE_HOST_COST))
        # hints off leaves S alone
        assert [p.strategy for p, _ in costed_plans(seq, HUGE_HOST_COST, hints_enabled=False)] == [Strategy.S]

    def test_no_finite_candidate_raises(self):
        seq = default_scenario()
        for hints in (True, False):
            with pytest.raises(NonFiniteResultError, match="plan cost overflows"):
                costed_plans(seq, TINY_NETWORK, hints_enabled=hints)

    @pytest.mark.parametrize("args", [["plan"], ["simulate"], ["cost"]], ids=" ".join)
    def test_cli_auto_skips_an_overflowing_candidate(self, args, tmp_path):
        workload = tmp_path / "w.json"
        save_workload(workload, scale_sequence(default_scenario(), 1e8), HUGE_HOST_COST)
        rc, out = _run_cli([*args, "--workload", str(workload)])
        assert rc == 0
        _assert_no_non_finite(out)
        assert "3636041682.667" in out
        if args == ["cost"]:
            assert [line.split()[0] for line in out.splitlines()] == ["S", "III", "IV", "best:"]

    def test_cost_auto_exits_1_when_its_baseline_s_overflows(self, tmp_path):
        # streaming 9 MB takes 1.4e308 ms: S streams Q0 through two
        # accelerators and overflows, I and II stream it through one
        seq = default_scenario()
        profile = DeviceProfile(15.0, 1.0, 9.0 / 1.4e308, 0.08, 0.03)
        with pytest.raises(NonFiniteResultError):
            plan_cost(seq, strategy_plan(seq, Strategy.S), profile)
        assert [p.strategy for p, _ in costed_plans(seq, profile)] == [Strategy.I, Strategy.II]
        workload = tmp_path / "w.json"
        save_workload(workload, seq, profile)
        rc, out = _run_cli(["cost", "--workload", str(workload)])
        assert (rc, out) == (1, "")
        assert _run_cli(["plan", "--workload", str(workload)])[0] == 0

    @pytest.mark.parametrize(
        "args",
        [["cost"], ["cost", "--strategy", "S"], ["plan"], ["simulate"], ["simulate", "--strategy", "III"]],
        ids=" ".join,
    )
    def test_tiny_network_rate_exits_1(self, args, tmp_path):
        workload = tmp_path / "w.json"
        save_workload(workload, default_scenario(), TINY_NETWORK)
        rc, out = _run_cli([*args, "--workload", str(workload)])
        assert rc == 1
        _assert_no_non_finite(out)

    @pytest.mark.parametrize("phase", list(PHASE_OVERFLOWS))
    def test_overflow_in_every_phase_kind_is_rejected(self, phase, tmp_path):
        profile, strategy = PHASE_OVERFLOWS[phase]
        seq = default_scenario()
        plan = strategy_plan(seq, strategy)
        with pytest.raises(NonFiniteResultError, match="plan cost overflows"):
            plan_cost(seq, plan, profile)
        with pytest.raises(NonFiniteResultError, match="simulated makespan overflows"):
            simulate(seq, plan, profile)
        workload = tmp_path / "w.json"
        save_workload(workload, seq, profile)
        assert _run_cli(["simulate", "--strategy", str(strategy), "--workload", str(workload)]) == (1, "")


class TestImprovement:
    @pytest.mark.parametrize(
        "candidate,baseline", [(math.inf, 2.0), (math.nan, 2.0), (2.0, math.inf), (1e300, 1e-10)]
    )
    def test_non_finite_total_or_saving_rejected(self, candidate, baseline):
        with pytest.raises(NonFiniteResultError, match="is not finite"):
            improvement(candidate, baseline)

    @pytest.mark.parametrize(
        "args",
        [["cost"], ["sweep", "--sweep", "gap", "--from", "0", "--to", "1", "--steps", "2", "--strategies", "I"]],
        ids=lambda args: args[0],
    )
    def test_saving_that_overflows_exits_1(self, args, tmp_path):
        seq = set_gaps(default_scenario(), 0.0)
        assert plan_cost(seq, strategy_plan(seq, Strategy.I), COSTLY_HOST).total < math.inf
        workload = tmp_path / "w.json"
        save_workload(workload, seq, COSTLY_HOST)
        rc, out = _run_cli([*args, "--workload", str(workload)])
        assert (rc, out) == (1, "")


def _magnitude(low: int = -300, high: int = 300):
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(low, high))


_SIZE = st.one_of(st.just(0.0), _magnitude())
_SELECTIVITY = st.one_of(st.sampled_from([0.0, 1.0]), _magnitude(-300, -1))


@st.composite
def _sequences(draw) -> QuerySequence:
    n = draw(st.integers(2, 4))
    queries = []
    for qi in range(n):
        ids = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
        ops = tuple(FilterOp(op_id, draw(_SELECTIVITY), commutes=draw(st.booleans())) for op_id in ids)
        queries.append(Query(f"Q{qi}", TableSpec(f"t{qi}", draw(_SIZE)), ops))
    return QuerySequence(tuple(queries), tuple(draw(_SIZE) for _ in range(n - 1)))


_PROFILES = st.builds(DeviceProfile, *([_magnitude()] * 5))


@st.composite
def _sweep_specs(draw) -> SweepSpec:
    variable = draw(st.sampled_from(["scale", "selectivity", "gap"]))
    values = _SELECTIVITY if variable == "selectivity" else _SIZE
    start, stop = sorted((draw(values), draw(values)))
    strategies = draw(st.lists(st.sampled_from(STRATEGY_ORDER), min_size=1, max_size=3, unique=True))
    return SweepSpec(variable, start, stop, draw(st.integers(2, 4)), tuple(strategies))


def _finite_or_rejected(call):
    """``call()``'s result, or None when it raised an ``RpusimError``."""
    try:
        return call()
    except RpusimError:
        return None


class TestFiniteResults:
    @settings(max_examples=300, deadline=None)
    @given(seq=_sequences(), profile=_PROFILES)
    def test_engines_return_finite_results_or_raise(self, seq, profile):
        for plan in enumerate_plans(seq):
            breakdown = _finite_or_rejected(lambda: plan_cost(seq, plan, profile))
            if breakdown is not None:
                assert math.isfinite(breakdown.total)
                assert all(map(math.isfinite, (t for _, t in breakdown.per_query)))
            timeline = _finite_or_rejected(lambda: simulate(seq, plan, profile))
            if timeline is not None:
                assert math.isfinite(timeline.makespan)
                assert all(math.isfinite(p.start) and math.isfinite(p.end) for p in timeline.phases)
        for hints in (True, False):
            chosen = _finite_or_rejected(lambda: choose_plan(seq, profile, hints_enabled=hints))
            if chosen is not None:
                assert math.isfinite(chosen[1].total)

    @settings(max_examples=300, deadline=None)
    @given(seq=_sequences(), profile=_PROFILES, spec=_sweep_specs())
    def test_sweeps_return_finite_rows_or_raise(self, seq, profile, spec):
        rows = _finite_or_rejected(lambda: run_sweep(seq, profile, spec))
        for row in rows or ():
            assert math.isfinite(row.total_ms) and math.isfinite(row.improvement_pct)

    @settings(max_examples=40, deadline=None)
    @given(seq=_sequences(), profile=_PROFILES)
    def test_cli_exits_0_or_1_and_prints_no_non_finite_number(self, seq, profile):
        with tempfile.TemporaryDirectory() as tmp:
            workload = str(Path(tmp) / "w.json")
            save_workload(workload, seq, profile)
            for args in (
                ["cost"],
                ["plan"],
                ["simulate"],
                ["sweep", "--sweep", "scale", "--from", "0", "--to", "1e10", "--steps", "3", "--strategies", "S,I"],
            ):
                rc, out = _run_cli([*args, "--workload", workload])
                assert rc in (0, 1), args
                _assert_no_non_finite(out)
