from __future__ import annotations

import json
import math
import sys
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from rpusim import (
    DeviceProfile,
    FilterOp,
    InvalidSequenceError,
    Query,
    QuerySequence,
    TableSpec,
    WorkloadFormatError,
    calibrated_profile,
    default_scenario,
    load_workload,
    parse_workload,
    save_workload,
    scale_sequence,
    set_gaps,
    validate_sequence,
    workload_dict,
)
from rpusim.workload import workload_json

SCHEMA_DOC = {
    "profile": {
        "t_reconfig_ms": 15,
        "r_scan_mb_per_ms": 1.0,
        "r_acc_mb_per_ms": 1.5,
        "r_network_mb_per_ms": 0.08,
        "c_dbms_ms_per_mb": 0.03,
    },
    "tables": [{"name": "date_dim", "size_mb": 9.0}, {"name": "detail", "size_mb": 1.0}],
    "queries": [
        {
            "id": "Q0",
            "table": "date_dim",
            "ops": [{"id": "acc0", "selectivity": 0.33}, {"id": "acc1", "selectivity": 0.43}],
        },
        {"id": "Q1", "table": "detail", "ops": [{"id": "acc0", "selectivity": 0.14}]},
    ],
    "sequence": {"order": ["Q0", "Q1"], "gaps_ms": [1.0]},
}

HUGE = 10 ** 400  # a JSON integer no float holds


class _Str(str):
    pass


class _Float(float):
    pass


class TestParse:
    def test_schema_document(self):
        seq, profile = parse_workload(SCHEMA_DOC)
        assert profile == calibrated_profile()
        assert [q.id for q in seq.queries] == ["Q0", "Q1"]
        assert seq.queries[0].table.size_mb == 9.0
        assert [op.selectivity for op in seq.queries[0].ops] == [0.33, 0.43]
        assert seq.gaps == (1.0,)
        assert validate_sequence(seq) == []

    def test_missing_profile_uses_calibration(self):
        doc = {k: v for k, v in SCHEMA_DOC.items() if k != "profile"}
        _, profile = parse_workload(doc)
        assert profile == calibrated_profile()

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(extra=1), "unknown key"),
            (lambda d: d["profile"].update(voltage=3.3), "unknown key"),
            (lambda d: d["tables"][0].update(rows=10), "unknown key"),
            (lambda d: d["queries"][0].update(cost=1), "unknown key"),
            (lambda d: d["queries"][0]["ops"][0].update(kind="eq"), "unknown key"),
            (lambda d: d["sequence"].update(loop=True), "unknown key"),
            (lambda d: d["profile"].pop("t_reconfig_ms"), "missing key"),
            (lambda d: d.pop("sequence"), "missing key"),
            (lambda d: d["queries"][0].update(table="nope"), "unknown table"),
            (lambda d: d["sequence"]["order"].append("QX"), "unknown query"),
            (lambda d: d["tables"].append({"name": "date_dim", "size_mb": 2.0}), "duplicate table"),
            (lambda d: d["queries"][0].update(id="Q1"), "duplicate query id"),
            (lambda d: d["tables"][0].update(size_mb="big"), "must be a number"),
            (lambda d: d["queries"][0]["ops"][0].update(commutes="yes"), "must be a boolean"),
        ],
    )
    def test_rejects_bad_documents(self, mutate, fragment):
        doc = json.loads(json.dumps(SCHEMA_DOC))
        mutate(doc)
        with pytest.raises(WorkloadFormatError, match=fragment):
            parse_workload(doc)

    def test_commutes_false_survives(self):
        doc = json.loads(json.dumps(SCHEMA_DOC))
        doc["queries"][0]["ops"][0]["commutes"] = False
        seq, _ = parse_workload(doc)
        assert seq.queries[0].ops[0].commutes is False

    def test_nonpositive_profile_rejected(self):
        doc = json.loads(json.dumps(SCHEMA_DOC))
        doc["profile"]["r_scan_mb_per_ms"] = 0
        with pytest.raises(WorkloadFormatError, match="r_scan"):
            parse_workload(doc)

    def test_infinite_profile_rejected(self):
        doc = json.loads(json.dumps(SCHEMA_DOC))
        doc["profile"]["t_reconfig_ms"] = math.inf
        with pytest.raises(WorkloadFormatError, match="t_reconfig"):
            parse_workload(doc)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(extra=1, alpha=2), "workload: unknown key(s) ['alpha', 'extra']"),
            (lambda d: [d.pop("sequence"), d.pop("tables")], "workload: missing key(s) ['sequence', 'tables']"),
            (lambda d: d.update(profile=None), "profile must be an object"),
            (lambda d: d["profile"].update(voltage=3.3), "profile: unknown key(s) ['voltage']"),
            (lambda d: d["profile"].pop("t_reconfig_ms"), "profile: missing key(s) ['t_reconfig_ms']"),
            (lambda d: d["profile"].update(r_acc_mb_per_ms="fast"), "profile.r_acc_mb_per_ms must be a number, got 'fast'"),
            (lambda d: d["profile"].update(c_dbms_ms_per_mb=True), "profile.c_dbms_ms_per_mb must be a number, got True"),
            (lambda d: d["profile"].update(r_scan_mb_per_ms=0), "DeviceProfile.r_scan must be finite and > 0, got 0.0"),
            (lambda d: d.update(tables={}), "tables must be an array"),
            (lambda d: d["tables"].append("t2"), "tables[2] must be an object"),
            (lambda d: d["tables"][0].update(rows=10), "tables[0]: unknown key(s) ['rows']"),
            (lambda d: d["tables"][0].update(rows=d["tables"][0].pop("size_mb")), "tables[0]: unknown key(s) ['rows']"),
            (lambda d: d["tables"][1].pop("size_mb"), "tables[1]: missing key(s) ['size_mb']"),
            (lambda d: d["tables"][1].update(name=7), "tables[1].name must be a string, got 7"),
            (lambda d: d["tables"].append({"name": "date_dim", "size_mb": 2.0}), "tables[2]: duplicate table name 'date_dim'"),
            (lambda d: d["tables"][0].update(size_mb="big"), "tables[0].size_mb must be a number, got 'big'"),
            (lambda d: d.update(queries="Q0"), "queries must be an array"),
            (lambda d: d["queries"].insert(0, ["Q9"]), "queries[0] must be an object"),
            (lambda d: d["queries"][0].update(cost=1), "queries[0]: unknown key(s) ['cost']"),
            (lambda d: d["queries"][1].pop("ops"), "queries[1]: missing key(s) ['ops']"),
            (lambda d: d["queries"][1].update(id=None), "queries[1].id must be a string, got None"),
            (lambda d: d["queries"][0].update(id="Q1"), "queries[1]: duplicate query id 'Q1'"),
            (lambda d: d["queries"][0].update(table=0), "queries[0].table must be a string, got 0"),
            (lambda d: d["queries"][0].update(table="nope"), "queries[0]: unknown table 'nope'"),
            (lambda d: d["queries"][1].update(ops={"id": "acc0"}), "queries[1].ops must be an array"),
            (lambda d: d["queries"][0]["ops"].append("acc2"), "queries[0].ops[2] must be an object"),
            (lambda d: d["queries"][0]["ops"][0].update(kind="eq"), "queries[0].ops[0]: unknown key(s) ['kind']"),
            (lambda d: d["queries"][1]["ops"][0].pop("selectivity"), "queries[1].ops[0]: missing key(s) ['selectivity']"),
            (lambda d: d["queries"][0]["ops"][1].update(commutes="yes"), "queries[0].ops[1].commutes must be a boolean"),
            (lambda d: d["queries"][0]["ops"][1].update(id=1.5), "queries[0].ops[1].id must be a string, got 1.5"),
            (lambda d: d["queries"][1]["ops"][0].update(selectivity=None), "queries[1].ops[0].selectivity must be a number, got None"),
            (lambda d: d.update(sequence=["Q0", "Q1"]), "sequence must be an object"),
            (lambda d: d["sequence"].update(loop=True), "sequence: unknown key(s) ['loop']"),
            (lambda d: d["sequence"].pop("gaps_ms"), "sequence: missing key(s) ['gaps_ms']"),
            (lambda d: d["sequence"].update(gaps_ms=1.0), "sequence.order and sequence.gaps_ms must be arrays"),
            (lambda d: d["sequence"]["order"].insert(1, {"id": "Q1"}), "sequence.order[1] must be a string, got {'id': 'Q1'}"),
            (lambda d: d["sequence"]["order"].append("QX"), "sequence.order[2]: unknown query 'QX'"),
            (lambda d: d["sequence"].update(gaps_ms=["1"]), "sequence.gaps_ms[0] must be a number, got '1'"),
            # each exit from the parser's exact-type fast path, and which check wins when several fail
            (lambda d: d["profile"].update(t_reconfig_ms=math.inf), "DeviceProfile.t_reconfig must be finite and > 0, got inf"),
            (lambda d: d["profile"].update(r_acc_mb_per_ms=math.nan), "DeviceProfile.r_acc must be finite and > 0, got nan"),
            (lambda d: d["profile"].update(c_dbms_ms_per_mb=-1), "DeviceProfile.c_dbms must be finite and > 0, got -1.0"),
            (lambda d: d["tables"][0].update(size_mb=True), "tables[0].size_mb must be a number, got True"),
            (lambda d: d["tables"].insert(0, ["t9", 1.0]), "tables[0] must be an object"),
            (lambda d: [d["queries"][0].pop("id"), d["queries"][0].pop("table")], "queries[0]: missing key(s) ['id', 'table']"),
            (lambda d: d["queries"][0].update(id=3, table=0), "queries[0].id must be a string, got 3"),
            (lambda d: d["queries"][1].update(id="Q0", table=5, ops=None), "queries[1]: duplicate query id 'Q0'"),
            (lambda d: d["queries"][1].update(table="nope", ops=None), "queries[1]: unknown table 'nope'"),
            (lambda d: d["queries"][0].update(rank=1, ops=None), "queries[0]: unknown key(s) ['rank']"),
            (lambda d: d["queries"][0].update(ops=[["acc0", 0.33]]), "queries[0].ops[0] must be an object"),
            (lambda d: d["queries"][0]["ops"].insert(1, None), "queries[0].ops[1] must be an object"),
            (lambda d: d["queries"][0]["ops"][0].pop("id"), "queries[0].ops[0]: missing key(s) ['id']"),
            (lambda d: d["queries"][0]["ops"].append({"commutes": True}), "queries[0].ops[2]: missing key(s) ['id', 'selectivity']"),
            (lambda d: d["queries"][0]["ops"].append({"id": "acc2", "kind": "eq"}), "queries[0].ops[2]: unknown key(s) ['kind']"),
            (lambda d: d["queries"][1]["ops"][0].update(commutes=1), "queries[1].ops[0].commutes must be a boolean"),
            (lambda d: d["queries"][0]["ops"][0].update(id=3, selectivity=True, commutes=0), "queries[0].ops[0].commutes must be a boolean"),
            (lambda d: d["queries"][1]["ops"][0].update(id=3), "queries[1].ops[0].id must be a string, got 3"),
            (lambda d: d["queries"][0]["ops"][0].update(id=None, selectivity="x"), "queries[0].ops[0].id must be a string, got None"),
            (lambda d: d["queries"][0]["ops"][0].update(selectivity=True), "queries[0].ops[0].selectivity must be a number, got True"),
            (lambda d: d["queries"][0]["ops"][1].update(selectivity="0.5"), "queries[0].ops[1].selectivity must be a number, got '0.5'"),
            (lambda d: d["sequence"]["order"].insert(0, 0), "sequence.order[0] must be a string, got 0"),
            (lambda d: d["sequence"].update(gaps_ms=[False]), "sequence.gaps_ms[0] must be a number, got False"),
            (lambda d: d["queries"][0]["ops"].__setitem__(0, OrderedDict(id="acc0", selectivity=0.33, cost=1)),
             "queries[0].ops[0]: unknown key(s) ['cost']"),
            (lambda d: d["queries"].__setitem__(0, OrderedDict(id="Q0", table="date_dim")), "queries[0]: missing key(s) ['ops']"),
        ],
    )
    def test_format_error_messages_byte_for_byte(self, mutate, message):
        doc = json.loads(json.dumps(SCHEMA_DOC))
        mutate(doc)
        with pytest.raises(WorkloadFormatError) as info:
            parse_workload(doc)
        assert str(info.value) == message

    def test_non_object_document_message(self):
        with pytest.raises(WorkloadFormatError) as info:
            parse_workload([SCHEMA_DOC])
        assert str(info.value) == "workload must be an object"

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d["tables"][1].update(size_mb=math.nan), "non-finite table size"),
            (lambda d: d["sequence"].update(gaps_ms=[math.inf]), "non-finite gap"),
        ],
        ids=["nan-table-size", "inf-gap"],
    )
    def test_non_finite_sequence_rejected(self, mutate, fragment):
        doc = json.loads(json.dumps(SCHEMA_DOC))
        mutate(doc)
        # json.loads reads back the NaN and Infinity literals json.dumps
        # writes, so the sequence itself has to refuse them.
        with pytest.raises(InvalidSequenceError, match=fragment):
            parse_workload(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["tables"][1].update(size_mb=math.nan), "queries[1].table: non-finite table size nan"),
            (lambda d: d["tables"][0].update(size_mb=-math.inf), "queries[0].table: non-finite table size -inf"),
            (lambda d: d["tables"][0].update(size_mb=-2), "queries[0].table: negative table size -2.0"),
            (lambda d: d["sequence"].update(gaps_ms=[math.inf]), "sequence.gaps[0]: non-finite gap inf"),
            (lambda d: d["sequence"].update(gaps_ms=[math.nan]), "sequence.gaps[0]: non-finite gap nan"),
            (lambda d: d["sequence"].update(gaps_ms=[-1]), "sequence.gaps[0]: negative gap -1.0"),
            (lambda d: d["sequence"].update(gaps_ms=[1.0, 2.0]), "sequence.gaps: gap count 2 does not match queries - 1 = 1"),
            (lambda d: d["sequence"].update(gaps_ms=[]), "sequence.gaps: gap count 0 does not match queries - 1 = 1"),
            (lambda d: d["sequence"].update(order=["Q0"], gaps_ms=[]), "sequence.queries: sequence needs >= 2 queries, got 1"),
            (lambda d: d["sequence"].update(order=[], gaps_ms=[]), "sequence.queries: sequence needs >= 2 queries, got 0"),
            (lambda d: d["sequence"].update(order=["Q1", "Q1"]), "queries[1]: duplicate query id 'Q1' in sequence"),
            (lambda d: d["queries"][1].update(ops=[]), "queries[1].ops: query has no operators"),
            (lambda d: d["queries"][0]["ops"][1].update(id="acc0"), "queries[0].ops[1]: duplicate op id 'acc0' within query"),
            (lambda d: d["queries"][0]["ops"][1].update(selectivity=1.5), "queries[0].ops[1].selectivity: selectivity range: 1.5 outside [0, 1]"),
            (lambda d: d["queries"][1]["ops"][0].update(selectivity=-1), "queries[1].ops[0].selectivity: selectivity range: -1.0 outside [0, 1]"),
            (lambda d: d["queries"][1]["ops"][0].update(selectivity=math.nan), "queries[1].ops[0].selectivity: selectivity range: nan outside [0, 1]"),
            (
                lambda d: [
                    d["tables"][0].update(size_mb=math.nan),
                    d["tables"][1].update(size_mb=-1.0),
                    d["queries"][0].update(ops=[
                        {"id": "acc0", "selectivity": 2.0},
                        {"id": "acc0", "selectivity": math.nan},
                        {"id": "acc1", "selectivity": -0.5},
                    ]),
                    d["queries"][1].update(ops=[]),
                    d["sequence"].update(order=["Q0", "Q1", "Q0", "Q1"], gaps_ms=[math.inf, -1.0, math.nan, 0.0]),
                ],
                "sequence.gaps: gap count 4 does not match queries - 1 = 3; "
                "sequence.gaps[0]: non-finite gap inf; "
                "sequence.gaps[1]: negative gap -1.0; "
                "sequence.gaps[2]: non-finite gap nan; "
                "queries[0].table: non-finite table size nan; "
                "queries[0].ops[0].selectivity: selectivity range: 2.0 outside [0, 1]; "
                "queries[0].ops[1]: duplicate op id 'acc0' within query; "
                "queries[0].ops[1].selectivity: selectivity range: nan outside [0, 1]; "
                "queries[0].ops[2].selectivity: selectivity range: -0.5 outside [0, 1]; "
                "queries[1].table: negative table size -1.0; "
                "queries[1].ops: query has no operators; "
                "queries[2]: duplicate query id 'Q0' in sequence; "
                "queries[2].table: non-finite table size nan; "
                "queries[2].ops[0].selectivity: selectivity range: 2.0 outside [0, 1]; "
                "queries[2].ops[1]: duplicate op id 'acc0' within query; "
                "queries[2].ops[1].selectivity: selectivity range: nan outside [0, 1]; "
                "queries[2].ops[2].selectivity: selectivity range: -0.5 outside [0, 1]; "
                "queries[3]: duplicate query id 'Q1' in sequence; "
                "queries[3].table: negative table size -1.0; "
                "queries[3].ops: query has no operators",
            ),
        ],
        ids=[
            "nan-size", "minus-inf-size", "negative-size", "inf-gap", "nan-gap", "negative-gap",
            "too-many-gaps", "too-few-gaps", "one-query", "no-query", "duplicate-query", "no-ops",
            "duplicate-op", "selectivity-above-1", "selectivity-below-0", "nan-selectivity", "all-at-once",
        ],
    )
    def test_sequence_error_messages_byte_for_byte(self, mutate, message):
        doc = json.loads(json.dumps(SCHEMA_DOC))
        mutate(doc)
        with pytest.raises(InvalidSequenceError) as info:
            parse_workload(doc)
        assert str(info.value) == f"invalid query sequence: {message}"

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["tables"][0].update(size_mb=HUGE), "tables[0].size_mb must be a finite number"),
            (lambda d: d["tables"][1].update(size_mb=-HUGE), "tables[1].size_mb must be a finite number"),
            (lambda d: d["queries"][0]["ops"][1].update(selectivity=HUGE), "queries[0].ops[1].selectivity must be a finite number"),
            (lambda d: d["sequence"].update(gaps_ms=[HUGE]), "sequence.gaps_ms[0] must be a finite number"),
            *[
                (lambda d, key=key: d["profile"].update({key: HUGE}), f"profile.{key} must be a finite number")
                for key in SCHEMA_DOC["profile"]
            ],
        ],
    )
    def test_integer_too_large_for_a_float_is_format_error(self, mutate, message):
        doc = json.loads(json.dumps(SCHEMA_DOC))
        mutate(doc)
        with pytest.raises(WorkloadFormatError) as info:
            parse_workload(json.loads(json.dumps(doc)))
        assert str(info.value) == message

    def test_largest_integer_that_fits_a_float_parses(self):
        doc = json.loads(json.dumps(SCHEMA_DOC))
        doc["sequence"]["gaps_ms"] = [int(sys.float_info.max)]
        seq, _ = parse_workload(doc)
        assert seq.gaps == (sys.float_info.max,)

    def test_subclasses_and_ints_take_the_checkers_and_parse_as_before(self):
        """Values the exact-type tests pass over reach the shared checkers,
        which accept them as they always did."""
        odd = {
            "tables": [OrderedDict(name=_Str("date_dim"), size_mb=9), {"name": "detail", "size_mb": _Float(1.0)}],
            "queries": [
                OrderedDict(id=_Str("Q0"), table=_Str("date_dim"), ops=[
                    OrderedDict(id=_Str("acc0"), selectivity=_Float(0.33)),
                    {"id": "acc1", "selectivity": 0.43, "commutes": False},
                ]),
                {"id": "Q1", "table": "detail", "ops": [{"id": "acc0", "selectivity": 1}]},
            ],
            "sequence": {"order": [_Str("Q0"), "Q1"], "gaps_ms": [1]},
        }
        plain = json.loads(json.dumps(SCHEMA_DOC))
        del plain["profile"]
        plain["queries"][0]["ops"][1]["commutes"] = False
        plain["queries"][1]["ops"][0]["selectivity"] = 1.0
        seq, profile = parse_workload(odd)
        assert (seq, profile) == parse_workload(plain)
        numbers = [*seq.gaps, *(q.table.size_mb for q in seq.queries), *(op.selectivity for q in seq.queries for op in q.ops)]
        assert {type(x) for x in numbers} == {float}


class TestRoundTrip:
    def test_dict_round_trip(self):
        seq = default_scenario()
        profile = calibrated_profile()
        doc = workload_dict(seq, profile)
        seq2, profile2 = parse_workload(doc)
        assert seq2 == seq
        assert profile2 == profile

    def test_file_round_trip(self, tmp_path):
        seq = set_gaps(scale_sequence(default_scenario(), 2.0), 0.5)
        path = tmp_path / "workload.json"
        save_workload(path, seq, calibrated_profile())
        seq2, profile2 = load_workload(path)
        assert seq2 == seq
        assert profile2 == calibrated_profile()

    def test_invalid_json_is_format_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(WorkloadFormatError, match="not valid JSON") as info:
            load_workload(path)
        assert str(info.value) == f"{path}: not valid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_bytes_that_are_not_utf8_are_a_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(WorkloadFormatError) as info:
            load_workload(path)
        assert str(info.value) == (
            f"{path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"
        )
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_one_table_name_with_two_sizes_is_refused(self):
        """A document lists each table once, so it cannot hold two sizes
        for one name: writing one would give both queries the first."""
        queries = (
            Query("Q0", TableSpec("t", 5.0), (FilterOp("a", 0.5),)),
            Query("Q1", TableSpec("t", 9.0), (FilterOp("a", 0.5),)),
        )
        seq = QuerySequence(queries, (1.0,))
        with pytest.raises(ValueError) as info:
            workload_dict(seq)
        assert str(info.value) == "table 't' has two sizes, 5.0 and 9.0 MB"
        # one size under one name is listed once
        same = QuerySequence((queries[0], Query("Q1", TableSpec("t", 5.0), queries[1].ops)), (1.0,))
        assert workload_dict(same)["tables"] == [{"name": "t", "size_mb": 5.0}]

    def test_integer_literal_too_long_to_read_is_format_error(self, tmp_path):
        limit = sys.get_int_max_str_digits()  # 4300 unless the interpreter is told otherwise
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        path = tmp_path / "huge.json"
        path.write_text('{"size_mb": ' + "7" * (limit + 1) + "}", encoding="utf-8")
        with pytest.raises(WorkloadFormatError) as info:
            load_workload(path)
        assert str(info.value) == f"{path}: not valid JSON (an integer literal has too many digits)"
        # one digit fewer is read, and rejected by the schema instead
        path.write_text('{"size_mb": ' + "7" * limit + "}", encoding="utf-8")
        with pytest.raises(WorkloadFormatError, match="unknown key"):
            load_workload(path)


@st.composite
def _sequences_and_profiles(draw):
    n = draw(st.integers(2, 6))
    ids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=n, max_size=n, unique=True))
    tables = [TableSpec(f"t{i}", draw(st.floats(0.0, 1e6))) for i in range(draw(st.integers(1, 3)))]
    queries = []
    for qid in ids:
        op_ids = draw(st.lists(st.sampled_from(["acc0", "acc1", "acc2", "acc3"]), min_size=1, max_size=4, unique=True))
        ops = tuple(FilterOp(oid, draw(st.floats(0.0, 1.0)), draw(st.booleans())) for oid in op_ids)
        queries.append(Query(qid, draw(st.sampled_from(tables)), ops))
    gaps = draw(st.lists(st.floats(0.0, 1e6), min_size=n - 1, max_size=n - 1))
    rates = st.floats(1e-6, 1e6)
    profile = draw(st.none() | st.builds(DeviceProfile, rates, rates, rates, rates, rates))
    return QuerySequence(tuple(queries), tuple(gaps)), profile


@settings(max_examples=300, deadline=None)
@given(_sequences_and_profiles())
def test_round_trip_is_lossless(seq_and_profile):
    """A written document parses back to the sequence and profile it came
    from, and each parsed query carries the caches a directly built one has."""
    seq, profile = seq_and_profile
    expected = (seq, calibrated_profile() if profile is None else profile)
    assert parse_workload(workload_dict(seq, profile)) == expected
    parsed = parse_workload(json.loads(workload_json(seq, profile)))
    assert parsed == expected
    for got, built in zip(parsed[0].queries, seq.queries):
        caches = (got._op_ids, list(got._ops_by_id.items()), got._all_commute)
        assert caches == (built._op_ids, list(built._ops_by_id.items()), built._all_commute)
        assert caches == (
            tuple(op.id for op in built.ops),
            [(op.id, op) for op in built.ops],
            all(op.commutes for op in built.ops),
        )


class TestDefaultScenario:
    def test_reference_constants(self):
        seq = default_scenario()
        assert seq.queries[0].table.size_mb == 9.0
        assert seq.queries[1].table.size_mb == 1.0
        assert [op.selectivity for op in seq.queries[0].ops] == [0.33, 0.43]
        assert seq.queries[1].ops[0].selectivity == 0.14
        assert seq.gaps == (1.0,)

    def test_scale_multiplies_both_tables(self):
        seq = scale_sequence(default_scenario(), 3.0)
        assert seq.queries[0].table.size_mb == 27.0
        assert seq.queries[1].table.size_mb == 3.0
