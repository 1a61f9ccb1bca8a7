from __future__ import annotations

import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import _oracle

from rpusim import (
    CatalogEntry,
    FilterOp,
    InvalidSequenceError,
    LogEntry,
    MinedSequence,
    MiningError,
    TableSpec,
    WorkloadFormatError,
    fingerprint,
    mine_sequences,
    normalize_query,
    parse_catalog,
    parse_log,
    report_csv,
    to_workload,
)

A_TEXT = "SELECT sender, subject FROM inbox WHERE folder = {}"
B_TEXT = "SELECT body FROM messages WHERE id = {}"
C_TEXT = "SELECT preview FROM attachments WHERE msg = {}"
A_ID = fingerprint(A_TEXT.format(0))
B_ID = fingerprint(B_TEXT.format(0))
C_ID = fingerprint(C_TEXT.format(0))


def planted_log_lines() -> list[str]:
    """Five [A,B,C] occurrences (gaps exactly 5 and 8 ms) among one-off noise."""
    lines = []
    for i in range(5):
        base = 1000.0 * i
        lines.append(f"{base}\t{A_TEXT.format(i)}\t2")
        lines.append(f"{base + 7}\t{B_TEXT.format(100 + i)}\t3")       # 5 ms after A completes
        lines.append(f"{base + 18}\t{C_TEXT.format(200 + i)}\t1")      # 8 ms after B completes
        lines.append(f"{base + 500}\tSELECT noise_{i} FROM other_{i}\t1")
    return lines


def _random_casing(word: str) -> st.SearchStrategy[str]:
    flips = st.lists(st.booleans(), min_size=len(word), max_size=len(word))
    return flips.map(lambda ups: "".join(c.upper() if up else c for c, up in zip(word, ups)))


# Pieces of query text that exercise every branch of the normalizer: keywords
# in any casing, mixed-case identifiers, parts of numbers and strings, Unicode
# whitespace and digits, and letters whose case mapping leaves ASCII (the
# Kelvin sign lowercases to "k", "ſ" uppercases to "S", "İ" lowercases to
# two characters).
_QUERY_PIECES = st.one_of(
    st.sampled_from(sorted(_oracle._SQL_KEYWORDS)).flatmap(_random_casing),
    st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,5}", fullmatch=True),
    st.sampled_from(
        ["0", "7", "42", ".", "e", "E", "+", "-", "'", '"', "''", " ", "\t", "\x1c", "\u00a0",
         "\u212a", "\u0130", "\u017f", "\u03a3", "\u0663", "(", ")", "=", ",", "*"]
    ),
)
_QUERY_TEXTS = st.lists(_QUERY_PIECES, max_size=24).map("".join)


class TestFingerprint:
    def test_constants_are_parameterized(self):
        assert fingerprint("SELECT * FROM t WHERE a > 5") == fingerprint(
            "select * from t where a > 17"
        )

    def test_table_names_matter(self):
        assert fingerprint("SELECT * FROM t WHERE a > 5") != fingerprint(
            "SELECT * FROM u WHERE a > 5"
        )

    def test_multiple_constants(self):
        a = fingerprint("WHERE d_year = 1999 AND d_moy = 3")
        b = fingerprint("WHERE d_year = 2000 AND d_moy = 7")
        assert a == b
        assert normalize_query("WHERE d_year = 1999 AND d_moy = 3") == "where d_year = ? and d_moy = ?"

    def test_strings_are_parameterized(self):
        assert fingerprint("WHERE name = 'alice'") == fingerprint("WHERE name = 'bob'")

    def test_empty_text_rejected(self):
        with pytest.raises(MiningError):
            fingerprint("   ")

    def test_log_entry_carries_its_template_id(self):
        entry = LogEntry(5.0, "SELECT a FROM t WHERE k = 3", 1.0)
        assert entry.template_id == fingerprint("select a from t where k = 9")
        assert "template_id" not in repr(entry)
        with pytest.raises(MiningError, match="empty query text"):
            LogEntry(5.0, "   ")

    @pytest.mark.parametrize("ts", [math.nan, math.inf, -math.inf])
    def test_log_entry_rejects_a_non_finite_timestamp(self, ts):
        with pytest.raises(MiningError) as info:
            LogEntry(ts, "QRY A", 1.0)
        assert str(info.value) == f"non-finite timestamp {ts!r}"

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, -100.0, -5e-324])
    def test_log_entry_rejects_a_duration_that_is_not_finite_and_at_least_0(self, duration):
        with pytest.raises(MiningError) as info:
            LogEntry(5.0, "QRY A", duration)
        assert str(info.value) == f"duration must be finite and >= 0, got {duration!r}"

    def test_log_entry_takes_a_zero_or_missing_duration(self):
        for duration in (None, 0.0, -0.0):
            assert LogEntry(-5.0, "QRY A", duration).duration_ms == duration

    @given(st.text(alphabet=st.characters(codec="ascii"), min_size=1, max_size=80))
    def test_normalization_is_idempotent(self, text):
        if not text.strip():
            return
        once = normalize_query(text)
        if once.strip():
            assert normalize_query(once) == once


    @settings(max_examples=500, deadline=None)
    @given(_QUERY_TEXTS)
    def test_matches_the_two_pass_reference(self, text):
        try:
            expected = _oracle.normalize_query(text)
        except MiningError:
            with pytest.raises(MiningError, match="empty query text"):
                normalize_query(text)
            with pytest.raises(MiningError, match="empty query text"):
                fingerprint(text)
            return
        assert normalize_query(text) == expected
        assert fingerprint(text) == hashlib.sha1(expected.encode("utf-8")).hexdigest()[:12]

    @pytest.mark.parametrize(
        "text, template",
        [
            ("2select", "?select"),
            ("(SELECT a)", "(select a)"),
            ("x=FROM", "x=from"),
            ("'it''s'5", "??"),
            ("T.COL", "T.COL"),
            ("\u0130SELECT", "\u0130select"),
            ("\u017felect a", "\u017felect a"),
            ("LI\u212aE", "LI\u212aE"),
            ("a\u00a0FROM\x1ct", "a from t"),
            ("x = 1.5e-3 AND y = \u0663", "x = ? and y = ?"),
        ],
    )
    def test_golden_templates(self, text, template):
        assert normalize_query(text) == template == _oracle.normalize_query(text)


class TestParseLog:
    def test_sorts_by_timestamp(self):
        entries = parse_log(["10\tSELECT a FROM t", "5\tSELECT b FROM t\t2.5"])
        assert [e.timestamp_ms for e in entries] == [5.0, 10.0]
        assert entries[0].duration_ms == 2.5
        assert entries[1].duration_ms is None

    def test_skips_blank_lines(self):
        assert len(parse_log(["", "5\tSELECT a FROM t", "   "])) == 1

    def test_a_log_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "latin1.log"
        path.write_bytes(b"5\tSELECT a FROM t WHERE s = '\xe9'\n")
        with pytest.raises(MiningError) as info:
            parse_log(path)
        assert str(info.value).startswith(f"{path}: not UTF-8 text ('utf-8' codec can't decode byte 0xe9")
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_malformed_lines_rejected(self):
        with pytest.raises(MiningError, match="line 1"):
            parse_log(["just one field"])
        with pytest.raises(MiningError, match="line 1"):
            parse_log(["abc\tSELECT a FROM t"])
        with pytest.raises(MiningError, match="empty query"):
            parse_log(["5\t \t1"])

    @pytest.mark.parametrize("ts", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_rejected(self, ts):
        with pytest.raises(MiningError, match="line 2: non-finite timestamp"):
            parse_log(["5\tSELECT a FROM t", f"{ts}\tSELECT b FROM t"])

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(MiningError, match="line 2: duration must be finite"):
            parse_log(["5\tSELECT a FROM t\t1", f"9\tSELECT b FROM t\t{duration}"])

    def test_negative_duration_rejected(self):
        with pytest.raises(MiningError, match="line 2: duration must be finite and >= 0"):
            parse_log(["5\tSELECT a FROM t\t1", "9\tSELECT b FROM t\t-0.5"])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "queries.log"
        path.write_text("\n".join(planted_log_lines()) + "\n", encoding="utf-8")
        assert len(parse_log(path)) == 20

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_path_and_open_file_split_lines_alike(self, tmp_path, char):
        """Lines end only at a newline (or CRLF); other line breaks stay inside the query text."""
        path = tmp_path / "queries.log"
        text = f"5\tSELECT a FROM t WHERE s = 'x{char}y'\t1\r\n9\tSELECT b FROM t\n"
        path.write_bytes(text.encode("utf-8"))
        from_path = parse_log(path)
        with path.open(encoding="utf-8") as fh:
            from_file = parse_log(fh)
        assert len(from_path) == 2
        assert from_path == from_file


# a constant slot in a shape: numbers (with dots and exponents) and strings
# (with doubled quotes)
_CONSTANT_VALUES = st.one_of(
    st.integers(0, 10**6).map(str),
    st.from_regex(r"[0-9]{1,3}\.[0-9]{1,3}([eE][+-]?[0-9]{1,2})?", fullmatch=True),
    st.text(alphabet="ab' ", max_size=4).map(lambda s: "'" + s.replace("'", "''") + "'"),
    st.text(alphabet="ab ", max_size=3).map(lambda s: f'"{s}"'),
)
# pieces that sit next to a constant: digits after letters and dots, exponents,
# unbalanced quotes
_SHAPE_PIECES = st.one_of(
    _QUERY_PIECES,
    st.sampled_from(["x1", "t.7", "a.", "1e5", "2.5E-3", "7e", "'", "'a", "b''"]),
    st.none(),
)


@st.composite
def _log_lines(draw) -> list[str]:
    """Log lines drawn from a few shapes, each line filling its shape's
    constant slots (``None`` pieces) anew, so a shape recurs with other
    constants; sometimes one shape differs from another only in case."""
    shapes = draw(st.lists(st.lists(_SHAPE_PIECES, min_size=1, max_size=12), min_size=1, max_size=4))
    if draw(st.booleans()):
        # keywords match in any case, other words do not
        shapes.append([None if piece is None else piece.swapcase() for piece in shapes[0]])
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        shape = draw(st.sampled_from(shapes))
        text = "".join(draw(_CONSTANT_VALUES) if piece is None else piece for piece in shape)
        text = text.replace("\t", " ")
        if not text.strip():
            continue
        ts = draw(st.integers(0, 20))
        duration = draw(st.sampled_from(["", "\t0", "\t1.5"]))
        lines.append(f"{ts}\t{text}{duration}")
    return lines


@settings(max_examples=150, deadline=None)
@given(_log_lines())
def test_parsed_entries_equal_entries_built_alone(lines):
    """``parse_log`` templates each shape once per call; every entry it
    returns still equals the ``LogEntry`` built from that line alone."""
    alone = []
    for line in lines:
        ts, text, *duration = line.split("\t")
        alone.append(LogEntry(float(ts), text, float(duration[0]) if duration else None))
    alone.sort(key=lambda e: e.timestamp_ms)
    parsed = parse_log(lines)
    assert parsed == alone
    assert [e.template_id for e in parsed] == [fingerprint(e.text) for e in alone]


class TestMineSequences:
    def test_two_query_pattern(self):
        log = parse_log(
            ["0\tQRY A", "10\tQRY B", "100\tQRY A", "115\tQRY B"]
        )
        mined = mine_sequences(log, min_support=2, max_len=4, max_gap=1000.0)
        assert len(mined) == 1
        m = mined[0]
        assert m.templates == (fingerprint("QRY A"), fingerprint("QRY B"))
        assert m.support == 2
        assert m.avg_gaps == (12.5,)

    def test_no_repeats_is_empty(self):
        log = parse_log([f"{i * 10}\tSELECT col{i} FROM t{i}" for i in range(6)])
        assert mine_sequences(log, min_support=2) == []

    def test_planted_sequence_recovered_exactly(self):
        log = parse_log(planted_log_lines())
        mined = mine_sequences(log, min_support=5, max_len=4, max_gap=50.0)
        by_templates = {m.templates: m for m in mined}
        key = (A_ID, B_ID, C_ID)
        assert key in by_templates
        planted = by_templates[key]
        assert planted.support == 5
        assert planted.avg_gaps == (5.0, 8.0)
        # its sub-pairs are found as well, never with higher-than-prefix support
        assert by_templates[key[:2]].support == 5
        assert by_templates[key[1:]].support == 5
        assert mined[0] is planted  # support ties break toward longer sequences

    def test_session_cutoff_blocks_long_gaps(self):
        # occurrence gaps are 10 and 15 ms; the cutoff is inclusive
        log = parse_log(["0\tQRY A", "10\tQRY B", "100\tQRY A", "115\tQRY B"])
        assert mine_sequences(log, min_support=2, max_gap=14.9) == []
        mined = mine_sequences(log, min_support=2, max_gap=15.0)
        assert mined and mined[0].support == 2

    def test_unsorted_log_rejected(self):
        log = [LogEntry(10.0, "QRY A"), LogEntry(5.0, "QRY B")]
        with pytest.raises(MiningError, match="not sorted"):
            mine_sequences(log, min_support=1)

    def test_parameter_validation(self):
        log = parse_log(["0\tQRY A", "10\tQRY B"])
        with pytest.raises(MiningError):
            mine_sequences(log, min_support=0)
        with pytest.raises(MiningError):
            mine_sequences(log, min_support=1, max_len=1)

    @pytest.mark.parametrize("max_gap", [math.nan, math.inf, -5.0])
    def test_max_gap_must_be_finite_and_non_negative(self, max_gap):
        log = parse_log(["0\tQRY A", "10\tQRY B", "20\tQRY A", "30\tQRY B"])
        with pytest.raises(MiningError, match="max_gap must be finite and >= 0"):
            mine_sequences(log, min_support=1, max_gap=max_gap)

    def test_zero_max_gap_keeps_only_back_to_back_windows(self):
        log = parse_log(["0\tQRY A\t5", "5\tQRY B", "9\tQRY A\t1", "10\tQRY B"])
        mined = mine_sequences(log, min_support=2, max_gap=0.0)
        assert [(m.support, m.avg_gaps) for m in mined] == [(2, (0.0,))]

    def test_durations_recover_gaps_exactly(self):
        # alternating completion-to-arrival gaps 4.0 and 6.0 average to 5.0
        lines = []
        for i, gap in enumerate([4.0, 6.0, 4.0, 6.0]):
            base = 500.0 * i
            lines.append(f"{base}\tQRY A\t3")
            lines.append(f"{base + 3 + gap}\tQRY B\t1")
        mined = mine_sequences(parse_log(lines), min_support=4, max_len=2, max_gap=50.0)
        assert mined[0].avg_gaps == (5.0,)

    def test_matches_brute_force_and_antimonotone(self):
        rng = random.Random(43)
        templates = ["QRY A", "QRY B", "QRY C", "QRY D", "QRY E"]
        log = []
        t = 0.0
        for _ in range(120):
            t += rng.choice([1.0, 2.0, 30.0])
            log.append(LogEntry(t, rng.choice(templates)))
        max_gap, max_len = 10.0, 4

        ids = [fingerprint(e.text) for e in log]
        gaps = [b.timestamp_ms - a.timestamp_ms for a, b in zip(log, log[1:])]
        brute = Counter()
        for n in range(2, max_len + 1):
            for i in range(len(log) - n + 1):
                if all(g <= max_gap for g in gaps[i : i + n - 1]):
                    brute[tuple(ids[i : i + n])] += 1

        mined = mine_sequences(log, min_support=1, max_len=max_len, max_gap=max_gap)
        assert {m.templates: m.support for m in mined} == dict(brute)
        for m in mined:
            if len(m.templates) > 2:
                prefix = brute[m.templates[:-1]]
                suffix = brute[m.templates[1:]]
                assert m.support <= prefix and m.support <= suffix


def _reference_mine(log, min_support, max_len, max_gap):
    """Mining restated window by window: gap sums are a left-to-right ``+=``
    fold from 0.0 in log order, returned as ``float.hex`` averages."""
    ids = [fingerprint(e.text) for e in log]
    gaps = [
        max(0.0, b.timestamp_ms - (a.timestamp_ms + (a.duration_ms or 0.0)))
        for a, b in zip(log, log[1:])
    ]
    supports: Counter = Counter()
    sums: dict = {}
    for n in range(2, max_len + 1):
        for i in range(len(log) - n + 1):
            window = gaps[i : i + n - 1]
            if all(g <= max_gap for g in window):
                key = tuple(ids[i : i + n])
                supports[key] += 1
                acc = sums.setdefault(key, [0.0] * (n - 1))
                for j, g in enumerate(window):
                    acc[j] += g
    rows = [
        (key, support, tuple((s / support).hex() for s in sums[key]))
        for key, support in supports.items()
        if support >= min_support
    ]
    rows.sort(key=lambda row: (-row[1], -len(row[0]), row[0]))
    return rows


def test_avg_gaps_match_reference_fold_bit_for_bit():
    rng = random.Random(2024)
    cutoff = 2.5
    seen = Counter()
    for _ in range(400):
        size = rng.choice([0, 1, 2, 3, 8, 30, 90])
        with_durations = rng.random() < 0.7
        # timestamps start near 0, so early gaps are finer-grained than later sums
        log, t = [], rng.uniform(0.0, 1.0)
        for _ in range(size):
            duration = rng.choice([None, 0.0, 0.5, rng.uniform(0.0, 3.0)]) if with_durations else None
            if log:
                prev = log[-1]
                # repeated timestamps, a gap exactly at the cutoff, small and large gaps
                t = rng.choice([
                    prev.timestamp_ms,
                    prev.timestamp_ms + (prev.duration_ms or 0.0) + cutoff,
                    prev.timestamp_ms + rng.uniform(0.0, 4.0),
                    prev.timestamp_ms + 40.0,
                ])
            log.append(LogEntry(t, rng.choice(["QRY A", "QRY B", "QRY C"]), duration))
        max_len = rng.choice([2, 3, 4, size + 3])
        min_support = rng.choice([1, 2, 3])
        expected = _reference_mine(log, min_support, max_len, cutoff)
        mined = mine_sequences(log, min_support=min_support, max_len=max_len, max_gap=cutoff)
        got = [(m.templates, m.support, tuple(g.hex() for g in m.avg_gaps)) for m in mined]
        assert got == expected
        seen["empty" if size == 0 else "one line" if size == 1 else "longer"] += 1
        seen["max_len above size"] += max_len > size
        seen["at cutoff"] += any(
            b.timestamp_ms - (a.timestamp_ms + (a.duration_ms or 0.0)) == cutoff for a, b in zip(log, log[1:])
        )
        seen["tie"] += any(a.timestamp_ms == b.timestamp_ms for a, b in zip(log, log[1:]))
        seen["mined"] += bool(mined)
    assert min(seen.values()) > 0


def _log_of(texts, rng, cutoff):
    """Entries for ``texts`` in order, each gap drawn under or over ``cutoff``."""
    log, t = [], 0.0
    for text in texts:
        t += rng.choice([0.0, 1.0, cutoff, cutoff + 1.0])
        log.append(LogEntry(t, text, rng.choice([None, 0.0, 0.5])))
    return log


def test_integer_keys_match_reference_for_any_radix_and_length():
    """Windows are counted as base-radix integer keys: one template (radix
    1), more than 1 000 templates, and windows longer than 4 give the
    reference's supports and bit-for-bit gaps."""
    rng = random.Random(7)
    cutoff = 2.0
    one = [f"SELECT a FROM t WHERE k = {i}" for i in range(60)]
    # a planted 6-template block recurs among 1 200 one-off tables
    block = [f"SELECT b FROM planted_{j} WHERE k = {j + 1}" for j in range(6)]
    many = []
    for i in range(1200):
        many.append(f"SELECT c FROM t{i} WHERE k = 'v{i}'")
        if i % 100 == 0:
            many.extend(block)
    cases = [(one, [2, 3, 9]), (many, [2, 6, 8]), (one[:5] + many[:300] + one[:5], [5, 7])]
    for texts, lengths in cases:
        log = _log_of(texts, rng, cutoff)
        for max_len in lengths:
            for min_support in (1, 2):
                expected = _reference_mine(log, min_support, max_len, cutoff)
                mined = mine_sequences(log, min_support=min_support, max_len=max_len, max_gap=cutoff)
                got = [(m.templates, m.support, tuple(g.hex() for g in m.avg_gaps)) for m in mined]
                assert got == expected
                if max_len > 4 and min_support == 1:
                    assert any(len(m.templates) > 4 for m in mined)
    assert len({e.template_id for e in _log_of(one, rng, cutoff)}) == 1
    assert len({e.template_id for e in _log_of(many, rng, cutoff)}) > 1000


class TestToWorkload:
    def _catalog(self):
        return {
            A_ID: CatalogEntry(
                table=TableSpec("t0", 9.0),
                ops=(FilterOp("acc0", 0.33), FilterOp("acc1", 0.43)),
            ),
            B_ID: CatalogEntry(
                table=TableSpec("t1", 1.0),
                ops=(FilterOp("acc0", 0.14),),
            ),
        }

    def test_builds_reference_scenario(self):
        mined = MinedSequence(
            templates=(A_ID, B_ID),
            support=2,
            avg_gaps=(1.0,),
        )
        seq = to_workload(mined, self._catalog())
        assert [q.id for q in seq.queries] == ["Q0", "Q1"]
        assert seq.queries[0].table.size_mb == 9.0
        assert [op.id for op in seq.queries[0].ops] == ["acc0", "acc1"]
        assert seq.queries[1].ops[0].selectivity == 0.14
        assert seq.gaps == (1.0,)

    def test_missing_catalog_entry_names_template(self):
        mined = MinedSequence(
            templates=(A_ID, C_ID), support=2, avg_gaps=(1.0,)
        )
        with pytest.raises(MiningError, match=C_ID):
            to_workload(mined, self._catalog())

    def test_single_query_sequence_rejected(self):
        mined = MinedSequence(templates=(A_ID,), support=3, avg_gaps=())
        with pytest.raises(InvalidSequenceError):
            to_workload(mined, self._catalog())


def catalog_doc() -> dict:
    """A valid catalog document for the planted templates (the paper's shape)."""
    return {
        A_ID: {
            "table": {"name": "t0", "size_mb": 9.0},
            "ops": [{"id": "acc0", "selectivity": 0.33}, {"id": "acc1", "selectivity": 0.43}],
        },
        B_ID: {
            "table": {"name": "t1", "size_mb": 1.0},
            "ops": [{"id": "acc0", "selectivity": 0.14}],
        },
        C_ID: {
            "table": {"name": "t2", "size_mb": 2.0},
            "ops": [{"id": "acc0", "selectivity": 0.5}],
        },
    }


def _set(path: tuple, value):
    """A change to ``catalog_doc()[A_ID]``: set the value at ``path``."""
    def apply(entry: dict) -> None:
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
    return apply


def _drop_size(entry: dict) -> None:
    del entry["table"]["size_mb"]


#: (id, change to the A_ID entry, expected message), one per bad field.
BAD_CATALOG_FIELDS = [
    ("commutes-string", _set(("ops", 0, "commutes"), "false"), r"ops\[0\]\.commutes must be a boolean"),
    ("size-bool", _set(("table", "size_mb"), True), r"table\.size_mb must be a number, got True"),
    ("size-null", _set(("table", "size_mb"), None), r"table\.size_mb must be a number, got None"),
    ("id-int", _set(("ops", 0, "id"), 5), r"ops\[0\]\.id must be a string, got 5"),
    ("selectivity-string", _set(("ops", 1, "selectivity"), "0.5"),
     r"ops\[1\]\.selectivity must be a number, got '0\.5'"),
    ("name-int", _set(("table", "name"), 7), r"table\.name must be a string, got 7"),
    ("unknown-op-key", _set(("ops", 0, "cost"), 1.0), r"ops\[0\]: unknown key\(s\) \['cost'\]"),
    ("missing-size", _drop_size, r"table: missing key\(s\) \['size_mb'\]"),
    ("empty-ops", _set(("ops",), []), r"ops must be a non-empty array"),
    ("op-not-object", _set(("ops", 0), "acc0"), r"ops\[0\] must be an object"),
    ("selectivity-huge-int", _set(("ops", 1, "selectivity"), 10 ** 400), r"ops\[1\]\.selectivity must be a finite number$"),
    ("size-huge-int", _set(("table", "size_mb"), -10 ** 400), r"table\.size_mb must be a finite number$"),
]


class TestParseCatalog:
    def test_valid_catalog(self):
        doc = catalog_doc()
        doc[A_ID]["ops"][1]["commutes"] = False
        catalog = parse_catalog(doc)
        assert catalog[A_ID] == CatalogEntry(
            table=TableSpec("t0", 9.0),
            ops=(FilterOp("acc0", 0.33), FilterOp("acc1", 0.43, commutes=False)),
        )
        assert list(catalog) == [A_ID, B_ID, C_ID]

    @pytest.mark.parametrize(
        "change,message", [case[1:] for case in BAD_CATALOG_FIELDS], ids=[case[0] for case in BAD_CATALOG_FIELDS]
    )
    def test_bad_field_rejected_with_its_location(self, change, message):
        doc = catalog_doc()
        change(doc[A_ID])
        with pytest.raises(WorkloadFormatError, match=f"^catalog\\.{A_ID}\\.{message}"):
            parse_catalog(doc)

    @pytest.mark.parametrize("doc", [[], {A_ID: []}, {A_ID: {"table": {"name": "t", "size_mb": 1.0}}}])
    def test_bad_shape_rejected(self, doc):
        with pytest.raises(WorkloadFormatError, match="catalog"):
            parse_catalog(doc)


def test_report_csv_shape():
    mined = [
        MinedSequence(templates=("aaa", "bbb"), support=4, avg_gaps=(2.5,)),
        MinedSequence(templates=("aaa", "bbb", "ccc"), support=2, avg_gaps=(2.5, 3.0)),
    ]
    text = report_csv(mined)
    lines = text.splitlines()
    assert lines[0] == "templates,support,avg_gaps_ms"
    assert lines[1] == "aaa|bbb,4,2.500000"
    assert lines[2] == "aaa|bbb|ccc,2,2.500000|3.000000"
