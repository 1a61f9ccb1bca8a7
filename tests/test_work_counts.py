"""Deterministic guards on how much work planning, costing, sweeping and mining do.

Each test counts calls by wrapping a module-level name with ``monkeypatch``,
so the guards do not depend on wall-clock time.  They pin the work the
pipeline does once (one local order per query per enumeration, one plan per
strategy and sweep) and the checks it must keep doing.  A sequence object
memoizes its planning work, so on one sequence each strategy's plan is
built once, each plan is checked once, and each plan is costed once per
profile, in one flat loop that calls no per-step helper.  A plan is its
orders and modes: strategies that build the same ones share one check and
one fold.  Both engines and the device policy read a checked plan's orders
and modes directly: a public call runs one legality check for a plan that
sequence has not checked yet, and the whole planning pipeline, simulation
included, runs one check and one cost fold per distinct plan.
``plan_cost`` builds one breakdown per plan and profile; a sweep folds
each distinct plan to a bare total at each point and builds none.
Parsing a log runs the constant pass once per line and templates each
distinct constant-free text once.  Validating a sequence walks its
queries, and each query's ops, once, whether or not it finds a violation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

import rpusim.cli
import rpusim.cost
import rpusim.miner
import rpusim.planner
import rpusim.plans
import rpusim.sweep
from rpusim import (
    FilterOp,
    IllegalPlanError,
    Mode,
    Query,
    QuerySequence,
    Strategy,
    SweepSpec,
    TableSpec,
    choose_plan,
    default_scenario,
    enumerate_plans,
    generate_hints,
    phase_times,
    plan_cost,
    rpu_policy,
    run_sweep,
    simulate,
    strategy_plan,
    validate_sequence,
)
from conftest import canonical_sequence
from _oracle import reference_validate_sequence
from test_engine_agreement import random_profile, random_sequence
from test_miner import A_ID, B_ID, C_ID, planted_log_lines


def _counting(monkeypatch, module, name, key=lambda *args, **kwargs: None) -> Counter:
    """Replace ``module.name`` by a wrapper counting its calls under ``key(args)``."""
    calls: Counter = Counter()
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[key(*args, **kwargs)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("hints_enabled, built", [(True, set(Strategy)), (False, {Strategy.S, Strategy.I})])
def test_choose_plan_builds_only_candidate_plans(monkeypatch, paper_seq, profile, hints_enabled, built):
    # every strategy applies to the paper's scenario
    assert len(enumerate_plans(paper_seq)) == len(Strategy)
    plans = _counting(monkeypatch, rpusim.plans, "Plan", key=lambda strategy, *rest: strategy)
    # a fresh sequence: paper_seq's memo already holds every plan
    choose_plan(canonical_sequence(), profile, hints_enabled=hints_enabled)
    assert set(plans) == built
    assert all(count == 1 for count in plans.values())
    # the same sequence object builds nothing again
    plans.clear()
    choose_plan(paper_seq, profile, hints_enabled=hints_enabled)
    assert not plans


def _counting_builders(monkeypatch) -> Counter:
    """Wrap every builder in ``plans._BUILDERS``, counting its runs by strategy."""
    runs: Counter = Counter()
    for strategy, (build, message) in list(rpusim.plans._BUILDERS.items()):
        def counted(seq, local, strategy=strategy, build=build):
            runs[strategy] += 1
            return build(seq, local)

        monkeypatch.setitem(rpusim.plans._BUILDERS, strategy, (counted, message))
    return runs


@pytest.mark.parametrize("first", ["strategy_plan", "enumerate_plans", "choose_plan"])
def test_each_builder_runs_once_per_sequence_whichever_entry_point_asks_first(monkeypatch, profile, first):
    runs = _counting_builders(monkeypatch)
    calls = {
        "strategy_plan": lambda seq: [strategy_plan(seq, s) for s in Strategy],
        "enumerate_plans": enumerate_plans,
        "choose_plan": lambda seq: [choose_plan(seq, profile, hints_enabled=h) for h in (False, True)],
    }
    seq = canonical_sequence()  # every strategy applies
    for name in [first, *(name for name in calls if name != first)] * 2:
        calls[name](seq)
    assert runs == Counter(dict.fromkeys(Strategy, 1))


def test_an_inapplicable_strategy_raises_one_message_and_is_built_once(monkeypatch):
    seq = QuerySequence(
        (Query("Q0", TableSpec("t0", 2.0), (FilterOp("a", 0.5),)),
         Query("Q1", TableSpec("t1", 1.0), (FilterOp("b", 0.4),))),
        (1.0,),
    )
    messages = {
        Strategy.I: "strategy I is not applicable: no non-final query has two or more operators",
        Strategy.II: "strategy II is not applicable: no non-final query has two or more operators",
        Strategy.III: "strategy III requires sequence knowledge: no adjacent pair shares an accelerator",
        Strategy.IV: "strategy IV is not applicable: no commuting predecessor contains "
                     "the accelerator its successor needs first",
    }
    runs = _counting_builders(monkeypatch)
    for _ in range(3):
        for strategy, message in messages.items():
            with pytest.raises(IllegalPlanError) as raised:
                strategy_plan(seq, strategy)
            assert str(raised.value) == message
        assert enumerate_plans(seq) == [strategy_plan(seq, Strategy.S)]
    assert runs == Counter(dict.fromkeys(Strategy, 1))


def test_local_order_runs_once_per_query_per_enumeration(monkeypatch):
    """One ``_local_ids`` call per fresh enumeration: it sorts each query
    into its local order once, for every builder."""
    rng = random.Random(5)
    calls = _counting(monkeypatch, rpusim.plans, "_local_ids")
    for _ in range(20):
        seq = random_sequence(rng)
        calls.clear()
        enumerate_plans(seq)
        assert sum(calls.values()) == 1
        # the same sequence object sorts nothing again
        enumerate_plans(seq)
        assert sum(calls.values()) == 1


def test_cost_command_and_a_sweep_sort_local_orders_once(monkeypatch, profile, capsys):
    """``rpusim cost`` costs S after the other candidates, as a memo hit,
    and a sweep enumerates its strategies in one call before it looks each
    one up, so either sorts each query's local order once."""
    calls = _counting(monkeypatch, rpusim.plans, "_local_ids")
    assert rpusim.cli.main(["cost"]) == 0
    assert sum(calls.values()) == 1
    calls.clear()
    spec = SweepSpec("gap", 0.0, 30.0, 5, (Strategy.I, Strategy.II, Strategy.III, Strategy.IV))
    run_sweep(default_scenario(), profile, spec)
    assert sum(calls.values()) == 1


def test_plan_cost_constructs_no_phase_times(monkeypatch, paper_seq, profile):
    made = _counting(monkeypatch, rpusim.cost, "PhaseTimes")
    for plan in enumerate_plans(paper_seq):
        plan_cost(paper_seq, plan, profile)
    assert sum(made.values()) == 0
    # the public per-query report still builds one
    q = paper_seq.queries[0]
    phase_times(q, q.ops, (), profile)
    assert sum(made.values()) == 1


@pytest.mark.parametrize("variable, start, stop", [("scale", 0.5, 4.0), ("gap", 0.0, 30.0), ("selectivity", 0.0, 1.0)])
def test_sweeps_build_each_plan_once(monkeypatch, paper_seq, profile, variable, start, stop):
    """One build and one legality check per distinct plan, not per grid
    point.  Each point folds every distinct plan, S included, to a bare
    total once, and builds no ``CostBreakdown``.
    """
    by_strategy = lambda plan, seq: plan.strategy
    built = _counting(monkeypatch, rpusim.sweep, "strategy_plan", key=lambda seq, strategy: strategy)
    checks = _counting(monkeypatch, rpusim.plans, "legality", key=by_strategy)
    folds = _counting(monkeypatch, rpusim.sweep, "_fold", key=lambda plan, *rest: plan.strategy)
    breakdowns = _counting(monkeypatch, rpusim.cost, "CostBreakdown")
    spec = SweepSpec(variable, start, stop, 9, (Strategy.III, Strategy.S, Strategy.IV))
    assert len(run_sweep(paper_seq, profile, spec)) == 27
    once = Counter({Strategy.S: 1, Strategy.III: 1, Strategy.IV: 1})
    assert built == checks == once
    assert folds == Counter(dict.fromkeys(once, len(spec.grid())))
    assert not breakdowns


@pytest.mark.parametrize(
    "call",
    [
        lambda seq, plan, profile: plan_cost(seq, plan, profile),
        lambda seq, plan, profile: simulate(seq, plan, profile),
        lambda seq, plan, profile: generate_hints(seq, plan, profile),
        lambda seq, plan, profile: rpu_policy(None, seq, plan, 0, profile),
    ],
    ids=["plan_cost", "simulate", "generate_hints", "rpu_policy"],
)
def test_legality_runs_once_per_engine_call(monkeypatch, paper_seq, profile, call):
    checks = _counting(monkeypatch, rpusim.plans, "legality")
    for plan in enumerate_plans(paper_seq):
        checks.clear()
        call(paper_seq, plan, profile)
        assert sum(checks.values()) == 1


def test_planning_pipeline_checks_every_plan_it_receives(monkeypatch, profile):
    """Hints on (5 plans), hints off (S and I), then hints and simulate of
    the chosen plan, all on one sequence object: one legality check and one
    cost fold per distinct plan, none skipped."""
    by_plan = lambda plan, seq: plan
    checks = _counting(monkeypatch, rpusim.plans, "legality", key=by_plan)
    folds = _counting(monkeypatch, rpusim.cost, "_fold", key=lambda plan, *rest: plan)
    for seq in (canonical_sequence(), _long_sequence(200)):
        for counts in (checks, folds):
            counts.clear()
        plan, _ = choose_plan(seq, profile, hints_enabled=True)
        choose_plan(seq, profile, hints_enabled=False)
        generate_hints(seq, plan, profile)
        simulate(seq, plan, profile)
        distinct = enumerate_plans(seq)
        assert len(distinct) == 5
        assert checks == folds == Counter(dict.fromkeys(distinct, 1))


def _plan_key(plan, *rest):
    """What makes a plan itself: its orders and modes, not its label."""
    return plan.rpu_order, plan.modes


def test_each_distinct_plan_is_checked_and_folded_once(monkeypatch):
    """On the engine-agreement sequences, the planning pipeline (hints on
    and off, hints and simulation of every plan, the cost of every plan)
    runs one legality check and one cost fold per distinct orders and
    modes, however many strategies build them."""
    checks = _counting(monkeypatch, rpusim.plans, "legality", key=_plan_key)
    folds = _counting(monkeypatch, rpusim.cost, "_fold", key=_plan_key)
    rng = random.Random(2005)
    twins = 0
    for _ in range(400):
        seq = random_sequence(rng)
        profile = random_profile(rng)
        for counts in (checks, folds):
            counts.clear()
        chosen, _ = choose_plan(seq, profile, hints_enabled=True)
        choose_plan(seq, profile, hints_enabled=False)
        generate_hints(seq, chosen, profile)
        plans = enumerate_plans(seq)
        for plan in plans:
            simulate(seq, plan, profile)
            plan_cost(seq, plan, profile)
        distinct = set(map(_plan_key, plans))
        twins += len(plans) - len(distinct)
        assert checks == folds == Counter(dict.fromkeys(distinct, 1)), seq
    # the corpus has many sequences where two or three strategies build one plan
    assert twins > 100


def _identity_swap_sequence() -> QuerySequence:
    """Q0's local order already ends with the accelerator Q1 needs first:
    IV's swap is the identity and III reloads nothing, so S, III and IV
    build one plan."""
    q0 = Query("Q0", TableSpec("t0", 40.0), (FilterOp("a", 0.1), FilterOp("b", 0.5)))
    q1 = Query("Q1", TableSpec("t1", 25.0), (FilterOp("b", 0.2), FilterOp("c", 0.6)))
    return QuerySequence((q0, q1), (3.0,))


@pytest.mark.parametrize(
    "variable, start, stop, sha256",
    [
        ("scale", 0.5, 4.0, "3b3d388d72e365d5369f82857bc0a95ceb07b692cc0044bd18a551bdef0f83dd"),
        ("gap", 0.0, 30.0, "be69d313d4904c155c568993f0d53c4b5653d092fb7531749ab26d82360131b4"),
        ("selectivity", 0.0, 1.0, "faa9e586f05c039aedfd63e6028e903c934b325f81bf81171dc844f38ee6a64d"),
    ],
    ids=["scale", "gap", "selectivity"],
)
def test_sweep_folds_a_plan_two_strategies_build_once_per_point(monkeypatch, profile, variable, start, stop, sha256):
    """The plan S, III and IV share is folded once per point, and every
    requested strategy still gets its own row, pinned bit for bit."""
    seq = _identity_swap_sequence()
    plans = {plan.strategy: plan for plan in enumerate_plans(seq)}
    assert plans[Strategy.S] == plans[Strategy.III] == plans[Strategy.IV] != plans[Strategy.I]
    folds = _counting(monkeypatch, rpusim.sweep, "_fold", key=_plan_key)
    spec = SweepSpec(variable, start, stop, 7, (Strategy.IV, Strategy.III, Strategy.S, Strategy.I))
    rows = run_sweep(seq, profile, spec)
    assert folds == Counter(dict.fromkeys(map(_plan_key, (plans[Strategy.S], plans[Strategy.I])), 7))
    assert [row.strategy for row in rows[:4]] == list(spec.strategies)
    text = "".join(
        f"{r.variable},{r.value.hex()},{r.strategy},{r.total_ms.hex()},{r.improvement_pct.hex()}\n" for r in rows
    )
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


@pytest.mark.parametrize("hints_first", [True, False], ids=["hints-on-first", "hints-off-first"])
def test_shared_accelerators_found_once_per_hints_call(monkeypatch, profile, hints_first):
    """Strategy III tests each adjacent pair for a shared accelerator as
    ``legality`` does, and lists none; ``generate_hints`` lists them once
    per call."""
    listed_by_plans = _counting(monkeypatch, rpusim.plans, "shared_accelerators")
    listed_by_hints = _counting(monkeypatch, rpusim.planner, "shared_accelerators")
    seq = canonical_sequence()
    for hints_enabled in (hints_first, not hints_first):
        plan, _ = choose_plan(seq, profile, hints_enabled=hints_enabled)
        generate_hints(seq, plan, profile)
    assert seq._memo[Strategy.III] is not None  # III was built
    assert sum(listed_by_plans.values()) == 0
    assert sum(listed_by_hints.values()) == 2


def _long_sequence(n: int) -> QuerySequence:
    """``n`` queries over a four-accelerator pool, so plans other than S apply."""
    rng = random.Random(n)
    queries = tuple(
        Query(f"Q{i}", TableSpec(f"t{i}", rng.uniform(0.0, 60.0)),
              tuple(FilterOp(op_id, rng.random()) for op_id in rng.sample("abcd", rng.randint(1, 3))))
        for i in range(n)
    )
    return QuerySequence(queries, tuple(rng.uniform(0.0, 40.0) for _ in range(n - 1)))


class _CountedTuple(tuple):
    """A tuple that counts the walks (``iter`` calls) over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_a_sequence_that_fails_only_at_its_last_op_is_walked_once():
    """A violation costs no second walk: the queries are walked as often as
    a clean sequence's, and the failing query's ops once."""
    seq = _long_sequence(50)
    last = seq.queries[-1]
    broken = Query(last.id, last.table, (*last.ops[:-1], replace(last.ops[-1], selectivity=1.5)))
    expected = reference_validate_sequence(SimpleNamespace(queries=(*seq.queries[:-1], broken), gaps=seq.gaps))
    assert [v.location for v in expected] == [f"queries[49].ops[{len(last.ops) - 1}].selectivity"]
    object.__setattr__(broken, "ops", _CountedTuple(broken.ops))
    clean = SimpleNamespace(queries=_CountedTuple(seq.queries), gaps=seq.gaps)
    failing = SimpleNamespace(queries=_CountedTuple((*seq.queries[:-1], broken)), gaps=seq.gaps)
    assert validate_sequence(clean) == []
    assert validate_sequence(failing) == expected
    assert failing.queries.walks == clean.queries.walks
    assert broken.ops.walks == 1


@pytest.fixture(scope="module")
def long_2000() -> QuerySequence:
    return _long_sequence(2000)


def _break(seq: QuerySequence, kind: str, i: int) -> SimpleNamespace:
    """``seq``'s fields with one field of query ``i`` (or gap ``i``) broken."""
    queries, gaps = list(seq.queries), list(seq.gaps)
    q = queries[i]
    if kind == "gap":
        gaps[i] = -1.0
    elif kind == "size":
        queries[i] = Query(q.id, TableSpec(q.table.name, math.nan), q.ops)
    elif kind == "selectivity":
        queries[i] = Query(q.id, q.table, (replace(q.ops[0], selectivity=1.5), *q.ops[1:]))
    elif kind == "query-id":
        queries[i] = Query(queries[i - 1 if i else 1].id, q.table, q.ops)
    else:  # op-id
        queries[i] = Query(q.id, q.table, (*q.ops, q.ops[0]))
    return SimpleNamespace(queries=tuple(queries), gaps=tuple(gaps))


@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize("kind", ["gap", "size", "selectivity", "query-id", "op-id"])
def test_one_broken_field_of_a_long_sequence_matches_the_reference_walk(long_2000, kind, where):
    last = len(long_2000.gaps if kind == "gap" else long_2000.queries) - 1
    fields = _break(long_2000, kind, {"start": 0, "middle": last // 2, "end": last}[where])
    expected = reference_validate_sequence(fields)
    assert len(expected) == 1
    assert validate_sequence(fields) == expected


@pytest.mark.parametrize("seq", [canonical_sequence(), _long_sequence(200)], ids=["paper", "200-query"])
def test_plan_cost_builds_one_breakdown_per_plan_and_profile(monkeypatch, profile, seq):
    """Twice over, under two profiles: one ``CostBreakdown`` per (plan,
    profile), with per-query times exactly when every boundary is BASELINE."""
    breakdowns = _counting(monkeypatch, rpusim.cost, "CostBreakdown")
    seq = QuerySequence(seq.queries, seq.gaps)  # a fresh, empty memo
    plans = enumerate_plans(seq)
    profiles = (profile, replace(profile, t_reconfig=profile.t_reconfig / 2))
    for _ in range(2):
        for prof in profiles:
            for plan in plans:
                breakdown = plan_cost(seq, plan, prof)
                separable = all(mode is Mode.BASELINE for mode in plan.modes)
                assert bool(breakdown.per_query) == separable
                if separable:
                    assert len(breakdown.per_query) == len(seq.queries)
    assert sum(breakdowns.values()) == len(plans) * len(profiles)
    # the plans mix BASELINE-only and other modes
    assert len({all(mode is Mode.BASELINE for mode in plan.modes) for plan in plans}) == 2


@pytest.mark.parametrize("seq", [canonical_sequence(), _long_sequence(200)], ids=["paper", "200-query"])
def test_simulate_is_independent_of_the_cost_engine(monkeypatch, profile, seq):
    """The simulator is the second engine the cost model is checked against:
    it must schedule every strategy plan with no cost arithmetic at all,
    with one legality check per plan."""
    plans = enumerate_plans(seq)
    assert len(plans) >= 3
    totals = [plan_cost(seq, plan, profile).total for plan in plans]

    def raising(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"simulate called cost.{name}")
        return fail

    for name in ("boundary", "order_facts", "_fold", "plan_cost"):
        monkeypatch.setattr(rpusim.cost, name, raising(name))
    checks = _counting(monkeypatch, rpusim.plans, "legality")
    for plan, total in zip(plans, totals):
        # a fresh sequence object has checked no plan yet
        fresh = QuerySequence(seq.queries, seq.gaps)
        checks.clear()
        assert simulate(fresh, plan, profile).makespan == pytest.approx(total, rel=1e-9)
        assert sum(checks.values()) == 1


@pytest.mark.parametrize("seq", [canonical_sequence(), _long_sequence(200)], ids=["paper", "200-query"])
def test_costing_calls_no_per_step_helper(monkeypatch, profile, seq):
    """``plan_cost`` and ``run_sweep`` fold each plan in one flat loop:
    no call of the single-step definitions ``order_facts`` and
    ``boundary``, nor of ``plans._host_ops``, per query step."""
    plans = enumerate_plans(seq)
    expected = [plan_cost(seq, plan, profile).total for plan in plans]

    def raising(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"costing called {name}")
        return fail

    for module, name in ((rpusim.cost, "order_facts"), (rpusim.cost, "boundary"), (rpusim.plans, "_host_ops")):
        monkeypatch.setattr(module, name, raising(name))
    fresh = QuerySequence(seq.queries, seq.gaps)
    assert [plan_cost(fresh, plan, profile).total for plan in plans] == expected
    for variable, start, stop in (("scale", 0.5, 4.0), ("gap", 0.0, 30.0), ("selectivity", 0.0, 1.0)):
        spec = SweepSpec(variable, start, stop, 5, tuple(plan.strategy for plan in plans))
        assert len(run_sweep(seq, profile, spec)) == 5 * len(plans)


class _CountingPattern:
    """Stands in for a compiled pattern and counts its ``sub`` calls."""

    def __init__(self, pattern) -> None:
        self.pattern = pattern
        self.subs = 0

    def sub(self, *args):
        self.subs += 1
        return self.pattern.sub(*args)


def test_mine_templates_each_shape_once(monkeypatch, tmp_path, capsys):
    """One ``rpusim mine`` run that also emits a workload: one constant pass
    per log line, one token pass per distinct constant-free text, no
    ``fingerprint`` call, and one ``normalize_query`` (a constant and a token
    pass) per printed template line."""
    lines = planted_log_lines()
    shapes = {rpusim.miner._CONSTANT_RE.sub("?", line.split("\t")[1]) for line in lines}
    # the planted templates recur with other constants
    assert len(shapes) == 8 < len(lines)
    log = tmp_path / "queries.log"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    catalog = tmp_path / "catalog.json"
    entry = {"table": {"name": "t", "size_mb": 1.0}, "ops": [{"id": "acc0", "selectivity": 0.5}]}
    catalog.write_text(json.dumps({tid: entry for tid in (A_ID, B_ID, C_ID)}), encoding="utf-8")
    constants = _CountingPattern(rpusim.miner._CONSTANT_RE)
    monkeypatch.setattr(rpusim.miner, "_CONSTANT_RE", constants)
    token_passes = _counting(monkeypatch, rpusim.miner, "_template")
    fingerprints = _counting(monkeypatch, rpusim.miner, "fingerprint")
    normalized = _counting(monkeypatch, rpusim.cli, "normalize_query")
    args = ["mine", "--log", str(log), "--min-support", "5", "--max-gap", "50",
            "--out", str(tmp_path / "report.csv"),
            "--catalog", str(catalog), "--workload-out", str(tmp_path / "workload.json")]
    assert rpusim.cli.main(args) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("template ")]
    assert sum(normalized.values()) == len(printed) == 3
    assert constants.subs == len(lines) + len(printed)
    assert sum(token_passes.values()) == len(shapes) + len(printed)
    assert sum(fingerprints.values()) == 0


def test_keywords_in_lower_upper_or_title_case_skip_the_per_word_rule(monkeypatch):
    """A token that is a keyword in lower, UPPER or Title case, or has no
    capital letter, skips the per-word rule; only a mixed-case token goes
    through ``_lower_keyword``."""
    lowered = _counting(monkeypatch, rpusim.miner, "_lower_keyword")
    log = rpusim.miner.parse_log(
        ["1\tSELECT a FROM t WHERE k = 5 AND s = 'x'", "2\tselect b from t where k > 1.5",
         "3\tSelect c From t Where k In (1, 2) Order By c Desc"]
    )
    assert len(log) == 3
    assert sum(lowered.values()) == 0
    assert rpusim.miner.normalize_query("SeLeCt MyCol FROM t") == "select MyCol from t"
    assert sum(lowered.values()) >= 1
