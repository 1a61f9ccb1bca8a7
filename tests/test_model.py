from __future__ import annotations

import dataclasses
import math
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rpusim import (
    DeviceProfile,
    FilterOp,
    InvalidSequenceError,
    Mode,
    Plan,
    Query,
    QuerySequence,
    TableSpec,
    calibrated_profile,
    enumerate_plans,
    plan_cost,
    require_valid,
    Strategy,
    simulate,
    validate_sequence,
)
from conftest import canonical_sequence
from _oracle import reference_validate_sequence


class TestCalibratedProfile:
    def test_reference_values(self):
        p = calibrated_profile()
        assert p.t_reconfig == 15.0
        assert p.r_scan == 1.0
        assert p.r_acc == 1.5
        assert p.r_network == 0.08
        assert p.c_dbms == 0.03

    def test_unit_conversions_are_exact(self):
        # 1 MB = 10^6 bytes, so X GB/s == X MB/ms and 80 MB/s == 0.08 MB/ms.
        p = calibrated_profile()
        assert 1e9 / 1e6 / 1000.0 == p.r_scan
        assert 1.5e9 / 1e6 / 1000.0 == p.r_acc
        assert 80.0 / 1000.0 == p.r_network

    @pytest.mark.parametrize("field", ["t_reconfig", "r_scan", "r_acc", "r_network", "c_dbms"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive(self, field, bad):
        kwargs = dict(t_reconfig=15.0, r_scan=1.0, r_acc=1.5, r_network=0.08, c_dbms=0.03)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=field):
            DeviceProfile(**kwargs)


class TestValidateSequence:
    """A QuerySequence is checked when it is built, so each broken invariant
    surfaces as an InvalidSequenceError from the constructor."""

    def test_well_formed(self, paper_seq):
        assert validate_sequence(paper_seq) == []
        assert require_valid(paper_seq) is paper_seq

    def test_gap_count_mismatch(self, paper_seq):
        with pytest.raises(InvalidSequenceError) as exc:
            QuerySequence(queries=paper_seq.queries, gaps=())
        assert any("gap count" in v.message for v in exc.value.violations)

    def test_selectivity_out_of_range(self):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(f0=1.2)
        violations = exc.value.violations
        assert any("selectivity range" in v.message for v in violations)
        assert any("selectivity" in v.location for v in violations)

    def test_negative_gap(self):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(gap=-1.0)
        assert any("negative gap" in v.message for v in exc.value.violations)

    def test_single_query_rejected(self):
        q = Query("Q0", TableSpec("t", 1.0), (FilterOp("a", 0.5),))
        with pytest.raises(InvalidSequenceError) as exc:
            QuerySequence(queries=(q,), gaps=())
        assert any(">= 2 queries" in v.message for v in exc.value.violations)

    def test_empty_ops(self):
        q0 = Query("Q0", TableSpec("t", 1.0), ())
        q1 = Query("Q1", TableSpec("t", 1.0), (FilterOp("a", 0.5),))
        with pytest.raises(InvalidSequenceError) as exc:
            QuerySequence(queries=(q0, q1), gaps=(0.0,))
        assert any("no operators" in v.message for v in exc.value.violations)

    def test_duplicate_op_ids(self):
        q0 = Query("Q0", TableSpec("t", 1.0), (FilterOp("a", 0.5), FilterOp("a", 0.2)))
        q1 = Query("Q1", TableSpec("t", 1.0), (FilterOp("a", 0.5),))
        with pytest.raises(InvalidSequenceError) as exc:
            QuerySequence(queries=(q0, q1), gaps=(0.0,))
        assert any("duplicate op id" in v.message for v in exc.value.violations)

    def test_duplicate_query_ids(self):
        q = Query("Q0", TableSpec("t", 1.0), (FilterOp("a", 0.5),))
        with pytest.raises(InvalidSequenceError) as exc:
            QuerySequence(queries=(q, q), gaps=(0.0,))
        assert any("duplicate query id" in v.message for v in exc.value.violations)

    def test_negative_table_size(self):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(s0=-3.0)
        assert any("negative table size" in v.message for v in exc.value.violations)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_table_size(self, bad):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(s1=bad)
        assert [(v.location, v.message) for v in exc.value.violations] == [
            ("queries[1].table", f"non-finite table size {bad}")
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gap(self, bad):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(gap=bad)
        assert [(v.location, v.message) for v in exc.value.violations] == [
            ("sequence.gaps[0]", f"non-finite gap {bad}")
        ]

    def test_require_valid_raises_with_all_violations(self):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(f0=1.2, gap=-1.0)
        assert len(exc.value.violations) == 2


class TestRealNumbers:
    """A gap, table size or selectivity that is not a real number is a
    violation naming its field, not a value read as a number or a bare
    ``TypeError``; a device profile field that is not one is a
    ``ValueError``.  Ints are real numbers."""

    @pytest.mark.parametrize("gap", ["2.5", True, False, None], ids=repr)
    def test_gap(self, gap):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(gap=gap)
        assert [(v.location, v.message) for v in exc.value.violations] == [
            ("sequence.gaps[0]", f"gap must be a real number, got {gap!r}")
        ]

    @pytest.mark.parametrize("size", ["9", None, True, False], ids=repr)
    def test_table_size(self, size):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(s1=size)
        assert [(v.location, v.message) for v in exc.value.violations] == [
            ("queries[1].table", f"table size must be a real number, got {size!r}")
        ]

    @pytest.mark.parametrize("selectivity", ["9", None, True, False], ids=repr)
    def test_selectivity(self, selectivity):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(f1=selectivity)
        assert [(v.location, v.message) for v in exc.value.violations] == [
            ("queries[0].ops[1].selectivity", f"selectivity must be a real number, got {selectivity!r}")
        ]

    def test_every_field_is_reported_in_walk_order(self):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(s0=None, f0="0.5", gap=True)
        assert [v.location for v in exc.value.violations] == [
            "sequence.gaps[0]", "queries[0].table", "queries[0].ops[0].selectivity",
        ]

    def test_an_int_too_large_for_a_float_is_not_finite(self):
        with pytest.raises(InvalidSequenceError) as exc:
            canonical_sequence(s0=10**400, gap=10**400)
        assert [(v.location, v.message.split()[:3]) for v in exc.value.violations] == [
            ("sequence.gaps[0]", ["non-finite", "gap", "1" + "0" * 400]),
            ("queries[0].table", ["non-finite", "table", "size"]),
        ]

    def test_ints_are_accepted_and_gaps_stored_as_floats(self):
        seq = canonical_sequence(s0=9, f0=0, f1=1, s1=0, gap=3)
        assert validate_sequence(seq) == []
        assert seq.gaps == (3.0,) and type(seq.gaps[0]) is float
        assert seq == canonical_sequence(s0=9.0, f0=0.0, f1=1.0, s1=0.0, gap=3.0)

    @pytest.mark.parametrize("field", ["t_reconfig", "r_scan", "r_acc", "r_network", "c_dbms"])
    @pytest.mark.parametrize("bad", ["x", True, None], ids=repr)
    def test_device_profile(self, field, bad):
        kwargs = dict(t_reconfig=15.0, r_scan=1.0, r_acc=1.5, r_network=0.08, c_dbms=0.03)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=rf"^DeviceProfile\.{field} must be a real number, got {bad!r}$"):
            DeviceProfile(**kwargs)

    def test_device_profile_int_fields(self):
        assert DeviceProfile(15, 1, 2, 1, 1).r_acc == 2
        with pytest.raises(ValueError, match="finite and > 0"):
            DeviceProfile(10**400, 1, 1, 1, 1)


#: Values a broken field takes; the signed zeros and bounds are in range.
_OFF_SIZES = [math.nan, math.inf, -math.inf, -1.0, -5e-324, -0.0, 0.0, 1.7976931348623157e308]
_OFF_SELECTIVITIES = [math.nan, math.inf, -math.inf, 1.5, -0.25, 1.0000000000000002, -5e-324, -0.0, 0.0, 1.0]
#: Values that are not real numbers.
_NOT_REAL = ["9", None, True, False]
_BREAKS = ["gap", "size", "selectivity", "duplicate-query", "duplicate-op", "no-ops", "gap-count", "few-queries",
           "gap-type", "size-type", "selectivity-type"]


@st.composite
def _sequence_fields(draw):
    """A clean sequence's fields with zero or more invariants broken, as a
    plain namespace (a ``QuerySequence`` cannot hold a broken one)."""
    n = draw(st.integers(2, 6))
    queries = []
    for qi in range(n):
        op_ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True))
        ops = [[oid, draw(st.floats(0.0, 1.0)), draw(st.booleans())] for oid in op_ids]
        queries.append([f"Q{qi}", draw(st.floats(0.0, 1e6)), ops])
    gaps = draw(st.lists(st.floats(0.0, 1e6), min_size=n - 1, max_size=n - 1))
    for kind, i, pick in draw(st.lists(st.tuples(st.sampled_from(_BREAKS), st.integers(0, 9), st.integers(0, 9)), max_size=4)):
        q = queries[i % len(queries)] if queries else None
        if kind == "gap" and gaps:
            gaps[i % len(gaps)] = _OFF_SIZES[pick % len(_OFF_SIZES)]
        elif kind == "size" and q:
            q[1] = _OFF_SIZES[pick % len(_OFF_SIZES)]
        elif kind == "selectivity" and q and q[2]:
            q[2][pick % len(q[2])][1] = _OFF_SELECTIVITIES[pick % len(_OFF_SELECTIVITIES)]
        elif kind == "gap-type" and gaps:
            gaps[i % len(gaps)] = _NOT_REAL[pick % len(_NOT_REAL)]
        elif kind == "size-type" and q:
            q[1] = _NOT_REAL[pick % len(_NOT_REAL)]
        elif kind == "selectivity-type" and q and q[2]:
            q[2][pick % len(q[2])][1] = _NOT_REAL[pick % len(_NOT_REAL)]
        elif kind == "duplicate-query" and q:
            q[0] = queries[pick % len(queries)][0]
        elif kind == "duplicate-op" and q and q[2]:
            q[2].append(list(q[2][pick % len(q[2])]))
        elif kind == "no-ops" and q:
            q[2] = []
        elif kind == "gap-count":
            gaps = gaps + [1.0] if pick % 2 else gaps[:-1]
        elif kind == "few-queries":
            queries = queries[: pick % 2]
    return SimpleNamespace(
        queries=tuple(Query(qid, TableSpec("t", size), tuple(FilterOp(*op) for op in ops)) for qid, size, ops in queries),
        gaps=tuple(gaps),
    )


@settings(max_examples=400, deadline=None)
@given(_sequence_fields())
def test_validate_sequence_matches_the_reference_walk(fields):
    """The one walk reports what the reference walk reports, in the same
    order; a sequence builds exactly when there is nothing to report."""
    expected = reference_validate_sequence(fields)
    assert validate_sequence(fields) == expected
    if expected:
        with pytest.raises(InvalidSequenceError) as exc:
            QuerySequence(fields.queries, fields.gaps)
        assert exc.value.violations == expected
    else:
        assert QuerySequence(fields.queries, fields.gaps).queries == fields.queries


def test_valid_sequences_run_everywhere(profile):
    # ok from validate_sequence means cost, planning, and simulation accept it
    shapes = [
        canonical_sequence(),
        canonical_sequence(s0=0.0, s1=0.0, gap=0.0),
        canonical_sequence(f0=0.0, f1=1.0, f2=1.0),
        QuerySequence(
            queries=(
                Query("A", TableSpec("ta", 5.0), (FilterOp("x", 0.5, commutes=False), FilterOp("y", 0.3))),
                Query("B", TableSpec("tb", 2.0), (FilterOp("y", 0.9),)),
            ),
            gaps=(4.0,),
        ),
    ]
    for seq in shapes:
        assert validate_sequence(seq) == []
        for plan in enumerate_plans(seq):
            breakdown = plan_cost(seq, plan, profile)
            timeline = simulate(seq, plan, profile)
            assert breakdown.total >= 0.0
            assert timeline.makespan >= 0.0


def test_query_given_a_list_of_ops_stores_a_tuple():
    ops = [FilterOp("x", 0.5, commutes=False), FilterOp("y", 0.3)]
    from_list, from_tuple = Query("Q", TableSpec("t", 1.0), ops), Query("Q", TableSpec("t", 1.0), tuple(ops))
    assert type(from_list.ops) is tuple and from_list == from_tuple
    caches = ("_op_ids", "_ops_by_id", "_all_commute")
    assert [getattr(from_list, name) for name in caches] == [getattr(from_tuple, name) for name in caches]
    assert from_list._all_commute is False


class _CountedId(str):
    """An op id that counts how often it is hashed."""

    hashes = 0

    def __hash__(self) -> int:
        _CountedId.hashes += 1
        return str.__hash__(self)


class TestPlanHash:
    def _plan(self, strategy=Strategy.III, mode=Mode.SPECULATIVE) -> Plan:
        return Plan(strategy, ((_CountedId("acc0"), "acc1"), ("acc0",)), (mode,))

    def test_equal_plans_hash_equal(self):
        a, b = self._plan(), self._plan()
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.rpu_order, a.modes))
        assert {a: 1}[b] == 1
        assert "_hash" not in repr(a)

    def test_the_strategy_label_is_outside_identity(self):
        """Two builders' plans with the same orders and modes are one plan
        and one memo key; each keeps its own label."""
        orders, modes = (("acc0", "acc1"), ("acc0",)), (Mode.BASELINE,)
        s, iv = Plan(Strategy.S, orders, modes), Plan(Strategy.IV, orders, modes)
        assert s == iv and hash(s) == hash(iv) == hash((orders, modes))
        assert {s: 1}[iv] == 1
        assert (s.strategy, iv.strategy) == (Strategy.S, Strategy.IV)
        assert "strategy=<Strategy.IV" in repr(iv)
        assert Plan(Strategy.S, orders, (Mode.HOLD,)) != s

    def test_hash_is_computed_once_per_plan(self):
        plan = self._plan()
        before = _CountedId.hashes
        for _ in range(5):
            hash(plan)
        assert _CountedId.hashes - before == 1

    def test_replace_and_pickle_give_a_fresh_hash(self):
        plan = self._plan()
        hash(plan)
        swapped = dataclasses.replace(plan, strategy=Strategy.II, modes=(Mode.BASELINE,))
        assert swapped == self._plan(Strategy.II, Mode.BASELINE) != plan
        assert hash(swapped) == hash(self._plan(Strategy.II, Mode.BASELINE))
        before = _CountedId.hashes
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan and hash(clone) == hash(plan)
        assert _CountedId.hashes - before == 1
