"""Deterministic guards on how much work planning, costing, sweeping and mining do.

Each test counts calls by wrapping a module-level name with ``monkeypatch``,
so the guards do not depend on wall-clock time.  They pin the work the
pipeline does once (one local order per query per enumeration, one plan per
strategy and sweep) and the checks it must keep doing.  A sequence object
memoizes its planning work, so on one sequence each strategy's plan is
built once, the accelerators adjacent queries share are found once, each
plan is checked once, and each plan is costed once per profile.  Costing
folds a plan's orders against a facts table, so each distinct (query
position, order) fact is computed once per sequence and profile, in one
flat loop that calls no per-step helper.  Both
engines read a checked plan's orders and modes directly, so no plan is
lowered into steps: a public engine call runs one legality check for a
plan that sequence has not checked yet, and the whole planning pipeline,
simulation included, runs one check and one cost fold per distinct plan
and lowers none.  ``plan_cost`` builds one breakdown per plan and profile;
a sweep folds each plan to a bare total at each point and builds none.  Parsing a log runs the constant pass once per line and
templates each distinct constant-free text once.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace

import pytest

import rpusim.cli
import rpusim.cost
import rpusim.miner
import rpusim.planner
import rpusim.plans
import rpusim.sweep
from rpusim import (
    FilterOp,
    Mode,
    Query,
    QuerySequence,
    Strategy,
    SweepSpec,
    TableSpec,
    choose_plan,
    compile_plan,
    enumerate_plans,
    generate_hints,
    phase_times,
    plan_cost,
    run_sweep,
    simulate,
    strategy_plan,
)
from conftest import canonical_sequence
from test_engine_agreement import random_sequence
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


def test_plan_cost_constructs_no_phase_times(monkeypatch, paper_seq, profile):
    made = _counting(monkeypatch, rpusim.cost, "PhaseTimes")
    for plan in enumerate_plans(paper_seq):
        plan_cost(paper_seq, plan, profile)
    assert sum(made.values()) == 0
    # the public per-query report still builds one
    step = compile_plan(enumerate_plans(paper_seq)[0], paper_seq)[0]
    phase_times(step.query, step.rpu, step.host, profile)
    assert sum(made.values()) == 1


def counting_facts(monkeypatch) -> Counter:
    """Count facts-table writes by (query id, order of op ids).  Every table
    ``plan_cost`` or ``run_sweep`` starts holds, per query position, a dict
    that counts each fact stored in it; the fold computes a fact exactly
    when it stores one."""
    writes: Counter = Counter()

    class Known(dict):
        def __init__(self, query_id: str) -> None:
            super().__init__()
            self.query_id = query_id

        def __setitem__(self, order, fact) -> None:
            writes[self.query_id, order] += 1
            super().__setitem__(order, fact)

    def new_facts(queries):
        return [Known(q.id) for q in queries]

    monkeypatch.setattr(rpusim.cost, "_new_facts", new_facts)
    monkeypatch.setattr(rpusim.sweep, "_new_facts", new_facts)
    return writes


def _distinct_facts(seq, plans) -> set:
    """The distinct (query id, order) pairs of ``plans`` on ``seq``."""
    return {(q.id, order) for plan in plans for q, order in zip(seq.queries, plan.rpu_order)}


@pytest.mark.parametrize("variable, start, stop", [("scale", 0.5, 4.0), ("gap", 0.0, 30.0), ("selectivity", 0.0, 1.0)])
def test_sweeps_build_each_plan_once(monkeypatch, paper_seq, profile, variable, start, stop):
    """One build and one legality check per distinct plan, not per grid
    point, and no plan lowered.  Each point folds every distinct plan, S
    included, to a bare total once, and builds no ``CostBreakdown``.  A gap
    sweep keeps the query tuple, so it computes each distinct fact once for
    the whole grid; scale and selectivity sweeps build new queries and
    compute each at every point.
    """
    by_strategy = lambda plan, seq: plan.strategy
    built = _counting(monkeypatch, rpusim.sweep, "strategy_plan", key=lambda seq, strategy: strategy)
    checks = _counting(monkeypatch, rpusim.plans, "legality", key=by_strategy)
    lowered = _counting(monkeypatch, rpusim.plans, "_lower")
    folds = _counting(monkeypatch, rpusim.sweep, "_fold", key=lambda plan, *rest: plan.strategy)
    breakdowns = _counting(monkeypatch, rpusim.cost, "CostBreakdown")
    facts = counting_facts(monkeypatch)
    spec = SweepSpec(variable, start, stop, 9, (Strategy.III, Strategy.S, Strategy.IV))
    assert len(run_sweep(paper_seq, profile, spec)) == 27
    once = Counter({Strategy.S: 1, Strategy.III: 1, Strategy.IV: 1})
    assert built == checks == once
    assert not lowered
    assert folds == Counter(dict.fromkeys(once, len(spec.grid())))
    assert not breakdowns
    distinct = _distinct_facts(paper_seq, [strategy_plan(paper_seq, s) for s in once])
    # S and III stream the same orders, and IV shares the last query's
    assert len(distinct) == 3
    per_fact = 1 if variable == "gap" else len(spec.grid())
    assert facts == Counter(dict.fromkeys(distinct, per_fact))


@pytest.mark.parametrize(
    "call",
    [
        lambda seq, plan, profile: plan_cost(seq, plan, profile),
        lambda seq, plan, profile: simulate(seq, plan, profile),
        lambda seq, plan, profile: generate_hints(seq, plan, profile),
        lambda seq, plan, profile: compile_plan(plan, seq),
    ],
    ids=["plan_cost", "simulate", "generate_hints", "compile_plan"],
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
    cost fold per distinct plan, none skipped, one order fact computed per
    distinct (position, order) pair of those plans, and no plan lowered
    into steps, the simulated one included."""
    by_plan = lambda plan, seq: plan
    checks = _counting(monkeypatch, rpusim.plans, "legality", key=by_plan)
    lowered = _counting(monkeypatch, rpusim.plans, "_lower", key=by_plan)
    folds = _counting(monkeypatch, rpusim.cost, "_fold")
    facts = counting_facts(monkeypatch)
    for seq in (canonical_sequence(), _long_sequence(200)):
        for counts in (checks, lowered, folds, facts):
            counts.clear()
        plan, _ = choose_plan(seq, profile, hints_enabled=True)
        choose_plan(seq, profile, hints_enabled=False)
        generate_hints(seq, plan, profile)
        simulate(seq, plan, profile)
        distinct = enumerate_plans(seq)
        assert len(distinct) == 5
        assert checks == Counter(dict.fromkeys(distinct, 1))
        assert not lowered
        assert sum(folds.values()) == 5
        pairs = _distinct_facts(seq, distinct)
        assert facts == Counter(dict.fromkeys(pairs, 1))
        # the five plans share most of their facts
        assert len(pairs) < 5 * len(seq.queries) * 0.75


@pytest.mark.parametrize("hints_first", [True, False], ids=["hints-on-first", "hints-off-first"])
def test_shared_accelerators_found_once_per_sequence(monkeypatch, profile, hints_first):
    """Strategy III and ``generate_hints`` both read which accelerators
    each adjacent pair shares; one sequence object finds them once."""
    found = _counting(monkeypatch, rpusim.plans, "shared_accelerators")
    seq = canonical_sequence()
    for hints_enabled in (hints_first, not hints_first):
        plan, _ = choose_plan(seq, profile, hints_enabled=hints_enabled)
        generate_hints(seq, plan, profile)
    assert sum(found.values()) == 1
    # a fresh sequence finds them again
    generate_hints(canonical_sequence(), plan, profile)
    assert sum(found.values()) == 2


def _long_sequence(n: int) -> QuerySequence:
    """``n`` queries over a four-accelerator pool, so plans other than S apply."""
    rng = random.Random(n)
    queries = tuple(
        Query(f"Q{i}", TableSpec(f"t{i}", rng.uniform(0.0, 60.0)),
              tuple(FilterOp(op_id, rng.random()) for op_id in rng.sample("abcd", rng.randint(1, 3))))
        for i in range(n)
    )
    return QuerySequence(queries, tuple(rng.uniform(0.0, 40.0) for _ in range(n - 1)))


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
    with one legality check per plan and without lowering it into steps."""
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
    lowered = _counting(monkeypatch, rpusim.plans, "_lower")
    for plan, total in zip(plans, totals):
        # a fresh sequence object has checked no plan yet
        fresh = QuerySequence(seq.queries, seq.gaps)
        checks.clear()
        assert simulate(fresh, plan, profile).makespan == pytest.approx(total, rel=1e-9)
        assert sum(checks.values()) == 1
        assert not lowered


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
