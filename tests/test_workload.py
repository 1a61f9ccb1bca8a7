from __future__ import annotations

import json
import math

import pytest

from rpusim import (
    InvalidSequenceError,
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
        with pytest.raises(WorkloadFormatError, match="not valid JSON"):
            load_workload(path)


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
