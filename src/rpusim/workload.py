"""Workload documents: the JSON form of a sequence plus device profile."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import WorkloadFormatError
from .model import (
    DeviceProfile,
    FilterOp,
    Query,
    QuerySequence,
    TableSpec,
    calibrated_profile,
)

_PROFILE_KEYS = {
    "t_reconfig_ms": "t_reconfig",
    "r_scan_mb_per_ms": "r_scan",
    "r_acc_mb_per_ms": "r_acc",
    "r_network_mb_per_ms": "r_network",
    "c_dbms_ms_per_mb": "c_dbms",
}
_PROFILE_FIELDS = frozenset(_PROFILE_KEYS)
_WORKLOAD_KEYS = frozenset({"profile", "tables", "queries", "sequence"})
_WORKLOAD_REQUIRED = _WORKLOAD_KEYS - {"profile"}
_TABLE_KEYS = frozenset({"name", "size_mb"})
_QUERY_KEYS = frozenset({"id", "table", "ops"})
_OP_KEYS = frozenset({"id", "selectivity", "commutes"})
_OP_REQUIRED = _OP_KEYS - {"commutes"}
_SEQUENCE_KEYS = frozenset({"order", "gaps_ms"})


def _where(parts: tuple) -> str:
    """``("queries", 0, "ops", 1, "id")`` -> ``"queries[0].ops[1].id"``.

    The checks take a location as parts and join them only when they fail.
    """
    out = parts[0]
    for part in parts[1:]:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out


def _require_keys(obj: Any, allowed: frozenset, required: frozenset, *where) -> dict:
    if isinstance(obj, dict) and obj.keys() <= allowed and obj.keys() >= required:
        return obj
    if not isinstance(obj, dict):
        raise WorkloadFormatError(f"{_where(where)} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise WorkloadFormatError(f"{_where(where)}: unknown key(s) {sorted(unknown)}")
    raise WorkloadFormatError(f"{_where(where)}: missing key(s) {sorted(required - set(obj))}")


def _number(value: Any, *where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WorkloadFormatError(f"{_where(where)} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise WorkloadFormatError(f"{_where(where)} must be a finite number") from None


def _string(value: Any, *where) -> str:
    if not isinstance(value, str):
        raise WorkloadFormatError(f"{_where(where)} must be a string, got {value!r}")
    return value


def _table(entry: Any, *where) -> TableSpec:
    """A ``{"name", "size_mb"}`` object as a :class:`TableSpec`."""
    _require_keys(entry, _TABLE_KEYS, _TABLE_KEYS, *where)
    return TableSpec(
        name=_string(entry["name"], *where, "name"),
        size_mb=_number(entry["size_mb"], *where, "size_mb"),
    )


def _op(op: Any, *where) -> FilterOp:
    """An ``{"id", "selectivity"[, "commutes"]}`` object as a :class:`FilterOp`."""
    _require_keys(op, _OP_KEYS, _OP_REQUIRED, *where)
    commutes = op.get("commutes", True)
    if not isinstance(commutes, bool):
        raise WorkloadFormatError(f"{_where((*where, 'commutes'))} must be a boolean")
    return FilterOp(_string(op["id"], *where, "id"), _number(op["selectivity"], *where, "selectivity"), commutes)


def parse_workload(doc: Any) -> tuple[QuerySequence, DeviceProfile]:
    """Build a sequence and profile from a decoded workload document.

    Unknown keys are rejected at every level; a missing ``profile`` section
    falls back to :func:`calibrated_profile`.  Model invariants (gap counts,
    selectivity ranges, finite sizes and gaps, ...) are checked when the
    :class:`QuerySequence` is built, which raises ``InvalidSequenceError``.

    Queries, ops, order entries and gaps are read in one pass.  Each value
    is first tested for its exact JSON type (``dict``, ``str``, ``float``,
    ``True``/``False``); a value that fails the test goes to the shared
    checker for its field, which accepts it (an int, a subclass) or raises
    the field's error, so messages and their order do not depend on the
    test.
    """
    _require_keys(doc, _WORKLOAD_KEYS, _WORKLOAD_REQUIRED, "workload")

    if "profile" in doc:
        raw = _require_keys(doc["profile"], _PROFILE_FIELDS, _PROFILE_FIELDS, "profile")
        try:
            profile = DeviceProfile(**{
                attr: _number(raw[key], "profile", key) for key, attr in _PROFILE_KEYS.items()
            })
        except ValueError as exc:
            raise WorkloadFormatError(str(exc)) from exc
    else:
        profile = calibrated_profile()

    if not isinstance(doc["tables"], list):
        raise WorkloadFormatError("tables must be an array")
    tables: dict[str, TableSpec] = {}
    for i, entry in enumerate(doc["tables"]):
        table = _table(entry, "tables", i)
        if table.name in tables:
            raise WorkloadFormatError(f"tables[{i}]: duplicate table name {table.name!r}")
        tables[table.name] = table

    if not isinstance(doc["queries"], list):
        raise WorkloadFormatError("queries must be an array")
    queries: dict[str, Query] = {}
    for i, entry in enumerate(doc["queries"]):
        if type(entry) is not dict or entry.keys() != _QUERY_KEYS:
            _require_keys(entry, _QUERY_KEYS, _QUERY_KEYS, "queries", i)
        qid = entry["id"]
        if type(qid) is not str:
            qid = _string(qid, "queries", i, "id")
        if qid in queries:
            raise WorkloadFormatError(f"queries[{i}]: duplicate query id {qid!r}")
        table_name = entry["table"]
        if type(table_name) is not str:
            table_name = _string(table_name, "queries", i, "table")
        table = tables.get(table_name)
        if table is None:
            raise WorkloadFormatError(f"queries[{i}]: unknown table {table_name!r}")
        raw_ops = entry["ops"]
        if not isinstance(raw_ops, list):
            raise WorkloadFormatError(f"queries[{i}].ops must be an array")
        ops = []
        for j, op in enumerate(raw_ops):
            if type(op) is dict:
                op_id = op.get("id")
                selectivity = op.get("selectivity")
                commutes = op.get("commutes", True)
                # an int selectivity goes to _number, which checks that it fits a float
                if (
                    type(op_id) is str
                    and type(selectivity) is float
                    and (commutes is True or commutes is False)
                    and len(op) == (3 if "commutes" in op else 2)
                ):
                    ops.append(FilterOp(op_id, selectivity, commutes))
                    continue
            ops.append(_op(op, "queries", i, "ops", j))
        queries[qid] = Query(qid, table, tuple(ops))

    seq_doc = _require_keys(doc["sequence"], _SEQUENCE_KEYS, _SEQUENCE_KEYS, "sequence")
    if not isinstance(seq_doc["order"], list) or not isinstance(seq_doc["gaps_ms"], list):
        raise WorkloadFormatError("sequence.order and sequence.gaps_ms must be arrays")
    ordered = []
    for i, qid in enumerate(seq_doc["order"]):
        if type(qid) is not str:
            qid = _string(qid, "sequence", "order", i)
        query = queries.get(qid)
        if query is None:
            raise WorkloadFormatError(f"sequence.order[{i}]: unknown query {qid!r}")
        ordered.append(query)
    gaps = tuple([
        gap if type(gap) is float else _number(gap, "sequence", "gaps_ms", i)
        for i, gap in enumerate(seq_doc["gaps_ms"])
    ])
    return QuerySequence(queries=tuple(ordered), gaps=gaps), profile


def read_json(path: str | Path) -> Any:
    """Decode a JSON file; bytes that are not UTF-8, or text that does not
    decode, are a format error naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise WorkloadFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise WorkloadFormatError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:
        # ``json`` reads an integer literal through ``int()``, which refuses
        # one longer than ``sys.get_int_max_str_digits()`` digits
        raise WorkloadFormatError(f"{path}: not valid JSON (an integer literal has too many digits)") from exc


def load_workload(path: str | Path) -> tuple[QuerySequence, DeviceProfile]:
    """Read a workload JSON file; malformed JSON is a format error."""
    return parse_workload(read_json(path))


def workload_dict(seq: QuerySequence, profile: DeviceProfile | None = None) -> dict:
    """The JSON-ready document for a sequence (inverse of parse_workload).

    A document lists each table once, so two queries that give one table
    name two sizes raise :class:`ValueError` naming the table and both.
    """
    doc: dict[str, Any] = {}
    if profile is not None:
        doc["profile"] = {key: getattr(profile, attr) for key, attr in _PROFILE_KEYS.items()}
    tables: dict[str, TableSpec] = {}
    for q in seq.queries:
        table = tables.setdefault(q.table.name, q.table)
        if table.size_mb != q.table.size_mb:
            raise ValueError(f"table {table.name!r} has two sizes, {table.size_mb!r} and {q.table.size_mb!r} MB")
    doc["tables"] = [{"name": t.name, "size_mb": t.size_mb} for t in tables.values()]
    doc["queries"] = [
        {
            "id": q.id,
            "table": q.table.name,
            "ops": [
                {"id": op.id, "selectivity": op.selectivity, **({} if op.commutes else {"commutes": False})}
                for op in q.ops
            ],
        }
        for q in seq.queries
    ]
    doc["sequence"] = {"order": [q.id for q in seq.queries], "gaps_ms": list(seq.gaps)}
    return doc


def workload_json(seq: QuerySequence, profile: DeviceProfile | None = None) -> str:
    """The text :func:`save_workload` writes."""
    return json.dumps(workload_dict(seq, profile), indent=2) + "\n"


def save_workload(path: str | Path, seq: QuerySequence, profile: DeviceProfile | None = None) -> None:
    Path(path).write_text(workload_json(seq, profile), encoding="utf-8")


def default_scenario() -> QuerySequence:
    """The built-in two-query reference workload.

    A 9 MB table filtered twice (sharing its first accelerator with the
    follow-up query) and a 1 MB table filtered once, 1 ms apart.
    """
    t0 = TableSpec(name="t0", size_mb=9.0)
    t1 = TableSpec(name="t1", size_mb=1.0)
    q0 = Query(id="Q0", table=t0, ops=(FilterOp("acc0", 0.33), FilterOp("acc1", 0.43)))
    q1 = Query(id="Q1", table=t1, ops=(FilterOp("acc0", 0.14),))
    return QuerySequence(queries=(q0, q1), gaps=(1.0,))
