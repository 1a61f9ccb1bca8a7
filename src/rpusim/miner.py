"""Recurring-sequence mining over query logs.

Log lines are ``epoch_ms<TAB>query_text`` with an optional third
``duration_ms`` field.  A query text's template comes in two steps: one regex
pass replaces its constants by ``?``, then a token pass lowercases keywords
and joins tokens with single spaces; the template id hashes the template.
``parse_log`` runs the constant pass once per line and the token pass and
hash once per distinct constant-free text, so a shape that recurs with other
constants is templated once per call.  Contiguous template n-grams whose
internal gaps stay under a session cutoff are then counted.  Counting codes
each template as a small int and runs per n-gram length: all windows of one
length are counted at once as integer keys, each built from the window one
shorter, and gap sums are kept only for the n-grams that reach the minimum
support.  Gaps are completion-to-arrival: the next arrival minus the previous
arrival minus the previous duration when the log has durations, minus nothing
when it does not (which overestimates the gap).
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping

from .errors import MiningError, WorkloadFormatError
from .model import FilterOp, Query, QuerySequence, TableSpec
from .workload import _op, _require_keys, _table, _where

_SQL_KEYWORDS = frozenset(
    """
    select from where and or not in is null like between group by order having
    limit offset join inner left right outer on as distinct union all exists
    insert into values update set delete case when then else end asc desc
    """.split()
)

# every keyword as written in lower, UPPER or Title case -> its lower form
_KEYWORD_FORMS = {form: kw for kw in _SQL_KEYWORDS for form in (kw, kw.upper(), kw.title())}
# strings first, then numbers; a number's lookbehind sits after its first
# digit so the scan can skip ahead to digits (at a text's first character the
# 2-character lookbehind cannot match, so it passes)
_CONSTANT_RE = re.compile(r"'(?:[^']|'')*'|\"[^\"]*\"|\d(?<![\w.]\d)\d*(?:\.\d+)?(?:[eE][+-]?\d+)?")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _lower_keyword(m: re.Match) -> str:
    word = m.group(0)
    lower = word.lower()
    return lower if lower in _SQL_KEYWORDS else word


def _without_constants(text: str) -> str:
    """The constant pass: each string and number literal becomes ``?``."""
    if not text.strip():
        raise MiningError("empty query text")
    return _CONSTANT_RE.sub("?", text)


def _template(bare: str) -> str:
    """The token pass over a constant-free text (see :func:`normalize_query`)."""
    out = []
    for tok in bare.split():
        keyword = _KEYWORD_FORMS.get(tok)
        if keyword is not None:
            out.append(keyword)
        elif tok == tok.lower():
            out.append(tok)
        else:
            out.append(_WORD_RE.sub(_lower_keyword, tok))
    return " ".join(out)


def _template_id(bare: str) -> str:
    """Template id of a constant-free text: hash of its template."""
    return hashlib.sha1(_template(bare).encode("utf-8")).hexdigest()[:12]


def normalize_query(text: str) -> str:
    """Canonical template of a query: constants -> ``?``, keywords lowercased.

    One pass replaces each string and number literal by ``?``; whitespace
    runs become one space.  A token that is a keyword in lower, UPPER or
    Title case becomes that keyword, a token with no capital letter stays as
    it is, and any other token has each keyword among its words lowercased.
    """
    return _template(_without_constants(text))


def fingerprint(text: str) -> str:
    """Stable template id: hash of the normalized query text."""
    return _template_id(_without_constants(text))


@dataclass(frozen=True)
class LogEntry:
    """One log line; ``template_id`` is its text's ``fingerprint``.

    Built directly, an entry rejects a non-finite timestamp and a duration
    that is not finite and >= 0 with :class:`MiningError`, and fingerprints
    its text.  ``parse_log`` checks each line's fields itself and builds
    each entry with the id of its text's shape, templated once per call.
    """

    timestamp_ms: float
    text: str
    duration_ms: float | None = None
    template_id: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp_ms):
            raise MiningError(f"non-finite timestamp {self.timestamp_ms!r}")
        if self.duration_ms is not None and not 0.0 <= self.duration_ms < math.inf:
            raise MiningError(f"duration must be finite and >= 0, got {self.duration_ms!r}")
        object.__setattr__(self, "template_id", fingerprint(self.text))


def _log_entry(timestamp_ms: float, text: str, duration_ms: float | None, template_id: str) -> LogEntry:
    """A ``LogEntry`` whose template id is already known.  Fields are set in
    declaration order, as the generated ``__init__`` sets them, so entries
    keep sharing one key table for their instance dicts."""
    entry = object.__new__(LogEntry)
    _set = object.__setattr__
    _set(entry, "timestamp_ms", timestamp_ms)
    _set(entry, "text", text)
    _set(entry, "duration_ms", duration_ms)
    _set(entry, "template_id", template_id)
    return entry


def parse_log(source: str | Path | Iterable[str]) -> list[LogEntry]:
    """Read log lines and return entries sorted by timestamp."""
    if isinstance(source, (str, Path)):
        # lines end only at "\n" (read_text turns "\r\n" into it), as when
        # iterating an open file; str.splitlines would also split at U+2028 etc.
        try:
            lines = Path(source).read_text(encoding="utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise MiningError(f"{source}: not UTF-8 text ({exc})") from exc
    else:
        lines = [line.rstrip("\n") for line in source]
    # constant-free text -> template id, for this call only
    ids: dict[str, str] = {}
    entries = []
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise MiningError(f"line {n}: expected 2 or 3 tab-separated fields, got {len(parts)}")
        try:
            ts = float(parts[0])
            duration = float(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise MiningError(f"line {n}: {exc}") from exc
        if not math.isfinite(ts):
            raise MiningError(f"line {n}: non-finite timestamp {parts[0]!r}")
        if duration is not None and not 0.0 <= duration < math.inf:
            raise MiningError(f"line {n}: duration must be finite and >= 0, got {parts[2]!r}")
        text = parts[1]
        if not text.strip():
            raise MiningError(f"line {n}: empty query text")
        bare = _CONSTANT_RE.sub("?", text)
        template_id = ids.get(bare)
        if template_id is None:
            template_id = ids[bare] = _template_id(bare)
        entries.append(_log_entry(ts, text, duration, template_id))
    entries.sort(key=lambda e: e.timestamp_ms)
    return entries


@dataclass(frozen=True)
class MinedSequence:
    """A recurring template n-gram with its frequency and average gaps."""

    templates: tuple[str, ...]
    support: int
    avg_gaps: tuple[float, ...]


def mine_sequences(
    log: list[LogEntry],
    min_support: int,
    max_len: int = 4,
    max_gap: float = 1000.0,
) -> list[MinedSequence]:
    """Count contiguous template n-grams (2 <= n <= max_len) in the log.

    Windows are broken wherever a completion-to-arrival gap exceeds
    ``max_gap``.  Results carry per-position average gaps and are sorted by
    support (descending), length (descending), then template ids.
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    if max_len < 2:
        raise MiningError(f"max_len must be >= 2, got {max_len}")
    if not 0.0 <= max_gap < math.inf:
        raise MiningError(f"max_gap must be finite and >= 0, got {max_gap}")
    for a, b in zip(log, log[1:]):
        if b.timestamp_ms < a.timestamp_ms:
            raise MiningError("log is not sorted by timestamp")

    templates = [e.template_id for e in log]
    # each template as a small int, in order of first appearance
    codes: dict[str, int] = {}
    coded = [codes.setdefault(t, len(codes)) for t in templates]
    radix = len(codes)
    gap_after = [
        max(0.0, b.timestamp_ms - (a.timestamp_ms + (a.duration_ms or 0.0)))
        for a, b in zip(log, log[1:])
    ]
    # reach[i]: how many consecutive gaps from entry i on stay under the cutoff
    reach = [0] * len(log)
    for i in range(len(log) - 2, -1, -1):
        reach[i] = 0 if gap_after[i] > max_gap else reach[i + 1] + 1

    mined = []
    # keys[i]: the window of length n from entry i, as n base-radix digits
    keys = coded
    # no window is longer than the longest run of gaps under the cutoff
    for n in range(2, min(max_len, max(reach, default=0) + 1) + 1):
        keys = [key * radix + code for key, code in zip(keys, coded[n - 1 :])]
        valid = [r >= n - 1 for r in reach]
        starts = list(compress(range(len(log)), valid))
        support = Counter(compress(keys, valid))
        frequent = {key for key, count in support.items() if count >= min_support}
        # gaps are max(0.0, ...), never -0.0, so seeding with the first
        # window's gaps equals a fold from 0.0, in log order
        sums: dict[int, list[float]] = {}
        first: dict[int, int] = {}
        for i in starts:
            key = keys[i]
            if key in frequent:
                acc = sums.get(key)
                if acc is None:
                    sums[key] = gap_after[i : i + n - 1]
                    first[key] = i
                else:
                    for j in range(n - 1):
                        acc[j] += gap_after[i + j]
        mined.extend(
            MinedSequence(
                templates=tuple(templates[first[key] : first[key] + n]),
                support=support[key],
                avg_gaps=tuple(s / support[key] for s in acc),
            )
            for key, acc in sums.items()
        )
    mined.sort(key=lambda m: (-m.support, -len(m.templates), m.templates))
    return mined


_CATALOG_KEYS = frozenset({"table", "ops"})


@dataclass(frozen=True)
class CatalogEntry:
    """What a template means to the cost model: its table and operators."""

    table: TableSpec
    ops: tuple[FilterOp, ...]


def to_workload(mined: MinedSequence, catalog: Mapping[str, CatalogEntry]) -> QuerySequence:
    """Turn a mined sequence into a runnable workload via a template catalog."""
    missing = [tid for tid in mined.templates if tid not in catalog]
    if missing:
        raise MiningError(f"catalog missing template(s): {missing}")
    queries = tuple(
        Query(id=f"Q{i}", table=catalog[tid].table, ops=tuple(catalog[tid].ops))
        for i, tid in enumerate(mined.templates)
    )
    return QuerySequence(queries=queries, gaps=mined.avg_gaps)


def report_csv(mined: list[MinedSequence]) -> str:
    """Mining report: one row per recurring sequence."""
    lines = ["templates,support,avg_gaps_ms"]
    for m in mined:
        gaps = "|".join(f"{g:.6f}" for g in m.avg_gaps)
        lines.append(f"{'|'.join(m.templates)},{m.support},{gaps}")
    return "\n".join(lines) + "\n"


def parse_catalog(doc: object) -> dict[str, CatalogEntry]:
    """Decode a template catalog document (template id -> table + ops) with
    the workload parser's field checks."""
    if not isinstance(doc, dict):
        raise WorkloadFormatError("catalog must be an object mapping template ids")
    out: dict[str, CatalogEntry] = {}
    for tid, entry in doc.items():
        _require_keys(entry, _CATALOG_KEYS, _CATALOG_KEYS, "catalog", tid)
        ops = entry["ops"]
        if not isinstance(ops, list) or not ops:
            raise WorkloadFormatError(f"{_where(('catalog', tid, 'ops'))} must be a non-empty array")
        out[tid] = CatalogEntry(
            table=_table(entry["table"], "catalog", tid, "table"),
            ops=tuple([_op(op, "catalog", tid, "ops", j) for j, op in enumerate(ops)]),
        )
    return out
