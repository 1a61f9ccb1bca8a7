"""Cost model and simulator agree on every plan of random n-query sequences,
and hints never make the chosen plan slower.

The sequences mix the shapes the 2- and 3-query cross-checks do not reach:
2-8 queries over a small accelerator pool (so accelerators repeat across and
between adjacent queries), non-commuting filters, random device profiles, and
zero table sizes, gaps and selectivities.
"""

from __future__ import annotations

import math
import random

from rpusim import (
    DeviceProfile,
    FilterOp,
    Query,
    QuerySequence,
    TableSpec,
    choose_plan,
    enumerate_plans,
    plan_cost,
    simulate,
    validate_timeline,
)

POOL = ("a", "b", "c", "d")


def _maybe_zero(rng: random.Random, value: float) -> float:
    return 0.0 if rng.random() < 0.1 else value


def random_profile(rng: random.Random) -> DeviceProfile:
    return DeviceProfile(
        t_reconfig=rng.uniform(0.5, 30.0),
        r_scan=rng.uniform(0.1, 4.0),
        r_acc=rng.uniform(0.1, 4.0),
        r_network=rng.uniform(0.01, 1.0),
        c_dbms=rng.uniform(0.001, 0.2),
    )


def random_sequence(rng: random.Random) -> QuerySequence:
    n = rng.randint(2, 8)
    queries = []
    for qi in range(n):
        ids = rng.sample(POOL, rng.randint(1, 3))
        ops = tuple(
            FilterOp(op_id, _maybe_zero(rng, rng.random()), commutes=rng.random() > 0.2)
            for op_id in ids
        )
        size = _maybe_zero(rng, rng.uniform(0.0, 60.0))
        queries.append(Query(f"Q{qi}", TableSpec(f"t{qi}", size), ops))
    gaps = tuple(_maybe_zero(rng, rng.uniform(0.0, 40.0)) for _ in range(n - 1))
    return QuerySequence(tuple(queries), gaps)


def test_simulator_matches_cost_on_n_query_sequences():
    rng = random.Random(2005)
    checked = 0
    for _ in range(400):
        seq = random_sequence(rng)
        profile = random_profile(rng)
        for plan in enumerate_plans(seq):
            total = plan_cost(seq, plan, profile).total
            timeline = simulate(seq, plan, profile)
            assert math.isclose(timeline.makespan, total, rel_tol=1e-9), (plan.strategy, seq)
            assert validate_timeline(timeline) == [], (plan.strategy, seq)
            checked += 1
        hinted = choose_plan(seq, profile, hints_enabled=True)[1].total
        assert hinted <= choose_plan(seq, profile, hints_enabled=False)[1].total, seq
    # every sequence admits S, and most admit several more strategies
    assert checked > 1200
