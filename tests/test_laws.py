"""Exact laws of the model, over both engines and the planner.

Doubling every duration doubles every answer exactly: ``x * 2`` and
``x / 2`` are exact in binary floating point, so each sum, product,
quotient and ``max`` the engines take is exactly doubled too.  The law
has two forms, one that doubles the data and one that halves the device:

* every table size, every gap and ``t_reconfig`` times 2;
* every gap, ``t_reconfig`` and ``c_dbms`` times 2, every rate divided by 2.

Under either form ``plan_cost`` is exactly twice the original total, every
``simulate`` phase starts and ends at exactly twice its time, and
``choose_plan`` returns the same plan, with the same label, with hints on
and off.

Every engine step is monotone in its inputs, and rounding to nearest is
monotone, so a plan's total never falls when ``t_reconfig``, ``c_dbms``, a
gap, a table size or a selectivity rises, or when a rate falls.

Both laws hold only while no value overflows and no value is subnormal,
where ``x * 2`` or ``x / 2`` would not be exact.  The generators keep
every value well inside that range: sizes at most 100 MB, gaps at most
50 ms, profile fields in [0.01, 50], and every nonzero size, gap or
selectivity at least 1e-6, so no product or quotient of them comes near
1e-300 or 1e300.  A later engine change that breaks one of these tests is
a bug in that change, not in the law.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings

from rpusim import (
    DeviceProfile,
    FilterOp,
    Plan,
    Query,
    QuerySequence,
    TableSpec,
    choose_plan,
    enumerate_plans,
    plan_cost,
    scale_sequence,
    simulate,
)
from test_engine_agreement import _mixed_mode_cases, random_cases, random_plan

#: The smallest nonzero size, gap or selectivity a law case holds.
_TINY = 1e-6

_RATES = ("r_scan", "r_acc", "r_network")


def _away_from_subnormals(case):
    """A mixed-mode case with every size, gap and selectivity below
    ``_TINY`` set to 0.0.  The plan stays legal: legality reads only op
    ids, commute flags and which pairs share an accelerator."""
    seq, plan, profile = case
    tiny = lambda value: 0.0 if value < _TINY else value
    queries = tuple(
        Query(q.id, TableSpec(q.table.name, tiny(q.table.size_mb)),
              tuple(FilterOp(op.id, tiny(op.selectivity), op.commutes) for op in q.ops))
        for q in seq.queries
    )
    return QuerySequence(queries, tuple(map(tiny, seq.gaps))), plan, profile


_LAW_CASES = _mixed_mode_cases(max_queries=12).map(_away_from_subnormals)


def _with_gaps(seq: QuerySequence, factor: float) -> QuerySequence:
    return QuerySequence(seq.queries, tuple(gap * factor for gap in seq.gaps))


def doubled_data(seq: QuerySequence, profile: DeviceProfile) -> tuple[QuerySequence, DeviceProfile]:
    """Every size, gap and ``t_reconfig`` times 2."""
    return _with_gaps(scale_sequence(seq, 2.0), 2.0), replace(profile, t_reconfig=profile.t_reconfig * 2)


def halved_device(seq: QuerySequence, profile: DeviceProfile) -> tuple[QuerySequence, DeviceProfile]:
    """Every gap, ``t_reconfig`` and ``c_dbms`` times 2, every rate halved."""
    halved = {name: getattr(profile, name) / 2 for name in _RATES}
    return _with_gaps(seq, 2.0), replace(profile, t_reconfig=profile.t_reconfig * 2,
                                         c_dbms=profile.c_dbms * 2, **halved)


_FORMS = (doubled_data, halved_device)


def _check_doubling(seq: QuerySequence, plans: list[Plan], profile: DeviceProfile) -> None:
    for form in _FORMS:
        seq2, profile2 = form(seq, profile)
        for plan in plans:
            total = plan_cost(seq, plan, profile).total
            assert plan_cost(seq2, plan, profile2).total.hex() == (2 * total).hex(), (form, plan, seq)
            timeline, timeline2 = simulate(seq, plan, profile), simulate(seq2, plan, profile2)
            assert timeline2.makespan.hex() == (2 * timeline.makespan).hex(), (form, plan, seq)
            assert [(p.resource, p.label, p.query, p.start.hex(), p.end.hex()) for p in timeline2.phases] == [
                (p.resource, p.label, p.query, (2 * p.start).hex(), (2 * p.end).hex()) for p in timeline.phases
            ], (form, plan, seq)
        for hints_enabled in (False, True):
            chosen, breakdown = choose_plan(seq, profile, hints_enabled)
            chosen2, breakdown2 = choose_plan(seq2, profile2, hints_enabled)
            assert (chosen2, chosen2.strategy) == (chosen, chosen.strategy), (form, hints_enabled, seq)
            assert breakdown2.total.hex() == (2 * breakdown.total).hex()


def _raised(seq: QuerySequence, profile: DeviceProfile):
    """``(what, sequence, profile)`` for each single input raised, or each
    rate lowered: the profile's fields, then each gap, each table size and
    each selectivity."""
    for name in ("t_reconfig", "c_dbms"):
        yield name, seq, replace(profile, **{name: getattr(profile, name) * 1.1})
    for name in _RATES:
        yield name, seq, replace(profile, **{name: getattr(profile, name) / 1.1})
    for i in range(len(seq.gaps)):
        gaps = seq.gaps[:i] + (seq.gaps[i] + 1.0,) + seq.gaps[i + 1 :]
        yield f"gaps[{i}]", QuerySequence(seq.queries, gaps), profile
    for qi, q in enumerate(seq.queries):
        queries = list(seq.queries)
        queries[qi] = Query(q.id, TableSpec(q.table.name, q.table.size_mb * 1.1 + 1.0), q.ops)
        yield f"queries[{qi}].table", QuerySequence(tuple(queries), seq.gaps), profile
        for oi, op in enumerate(q.ops):
            ops = list(q.ops)
            ops[oi] = FilterOp(op.id, op.selectivity + (1.0 - op.selectivity) / 2, op.commutes)
            queries[qi] = Query(q.id, q.table, tuple(ops))
            yield f"queries[{qi}].ops[{oi}]", QuerySequence(tuple(queries), seq.gaps), profile
        queries[qi] = q


def _check_monotone(seq: QuerySequence, plans: list[Plan], profile: DeviceProfile) -> int:
    """Assert no raised input lowers a plan's total; return the checks made."""
    totals = [plan_cost(seq, plan, profile).total for plan in plans]
    checks = 0
    for what, seq2, profile2 in _raised(seq, profile):
        for plan, total in zip(plans, totals):
            assert plan_cost(seq2, plan, profile2).total >= total, (what, plan, seq)
            checks += 1
    return checks


@settings(deadline=None, derandomize=True)
@given(case=_LAW_CASES)
def test_doubling_laws_on_random_mixed_mode_plans(case):
    seq, plan, profile = case
    _check_doubling(seq, [plan], profile)


@settings(deadline=None, derandomize=True)
@given(case=_LAW_CASES)
def test_totals_are_monotone_on_random_mixed_mode_plans(case):
    seq, plan, profile = case
    _check_monotone(seq, [plan], profile)


def _corpus(seed: int, count: int):
    """The engine corpus: each case's applicable plans plus three random
    mixed-mode plans.  Its sizes, gaps and selectivities are uniform
    draws, far from overflow, and a draw below ``_TINY`` is all but
    impossible; the test checks that none occurs."""
    for rng, seq, profile in random_cases(seed, count):
        values = [*seq.gaps, *(q.table.size_mb for q in seq.queries)]
        values += [op.selectivity for q in seq.queries for op in q.ops]
        assert not any(0.0 < value < _TINY for value in values)
        yield seq, enumerate_plans(seq) + [random_plan(rng, seq) for _ in range(3)], profile


def test_doubling_laws_on_the_engine_corpus():
    plans = 0
    for seq, candidates, profile in _corpus(2063, 200):
        _check_doubling(seq, candidates, profile)
        plans += len(candidates)
    assert plans > 1000


def test_totals_are_monotone_on_the_engine_corpus():
    checks = sum(_check_monotone(seq, candidates, profile) for seq, candidates, profile in _corpus(2069, 150))
    assert checks > 20000

