"""Domain types for query sequences on a reconfigurable streaming accelerator.

The model describes an RPU: a storage-attached device with a single partially
reconfigurable region (PR) that holds one filter accelerator at a time.
Tables stream from storage through the loaded accelerator(s) and over the
network to the host DBMS, which finishes whatever operators were not pushed
down.  Everything here is immutable value data.

Unit conventions (uniform across the package):

* time: milliseconds (float)
* data size: megabytes, 1 MB = 10^6 bytes (float)
* data rate: MB/ms (so 1 GB/s == 1 MB/ms exactly)
"""

from __future__ import annotations

import math
from math import isfinite
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidSequenceError


class Strategy(Enum):
    """The five sequence-plan builders, in canonical (tie-break) order.

    A plan's strategy is only a label naming the builder that made it: the
    legality check and both engines read the plan's RPU orders and boundary
    modes, never this value, and plan equality and hashing ignore it.

    S    full pushdown of every operator, no lookahead: the device
         reconfigures on demand for each operator and again when the next
         query arrives.
    I    push down only the first operator of each non-final query; the rest
         run on the host, so the loaded accelerator survives into the next
         query.
    II   push down only the second operator; the reload the next query needs
         runs in parallel with the result transfer, host filtering, and gap.
    III  full pushdown plus a speculative reload of the next query's
         accelerator, started the moment the current query's last
         accelerator finishes.
    IV   full pushdown with the current query's filter order swapped so the
         accelerator the next query needs is the one left loaded.
    """

    S = "S"
    I = "I"  # noqa: E741 - strategy names are the domain vocabulary
    II = "II"
    III = "III"
    IV = "IV"

    # hash by identity, in C, as Mode does
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


STRATEGY_ORDER = (Strategy.S, Strategy.I, Strategy.II, Strategy.III, Strategy.IV)

#: Strategies that need advance knowledge of the following query, either to
#: pre-position an accelerator (II, III) or to reorder the running query (IV).
HINT_STRATEGIES = frozenset({Strategy.II, Strategy.III, Strategy.IV})


class Mode(Enum):
    """When a query's leading reconfiguration is released.

    BASELINE     at the query's arrival; it overlaps only the query's scan.
    HOLD         (II) when the predecessor frees the PR; the query's scan
                 waits until the PR is ready.
    SPECULATIVE  (III) when the predecessor frees the PR; the scan starts at
                 arrival and only the first accelerator waits for the PR.

    A mode only matters when the query needs a reconfiguration at all.
    """

    BASELINE = "baseline"
    HOLD = "hold"
    SPECULATIVE = "speculative"

    # Members are singletons: hash by identity, in C, not by name, so a
    # plan's modes hash without a Python call per boundary.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class DeviceProfile:
    """Calibrated rates and reconfiguration time of the modeled device chain.

    All fields must be finite and strictly positive.
    """

    t_reconfig: float  # ms to load one accelerator into the PR
    r_scan: float      # MB/ms storage scan rate
    r_acc: float       # MB/ms accelerator streaming rate
    r_network: float   # MB/ms device-to-host transfer rate
    c_dbms: float      # ms per MB of input for a host-side filter

    def __post_init__(self) -> None:
        for name in ("t_reconfig", "r_scan", "r_acc", "r_network", "c_dbms"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"DeviceProfile.{name} must be finite and > 0, got {value!r}")


def calibrated_profile() -> DeviceProfile:
    """The measured reference device.

    15 ms reconfiguration, 1 GB/s scan, 1.5 GB/s accelerator streaming,
    80 MB/s network, 0.03 ms host filtering per MB of input.
    """
    return DeviceProfile(
        t_reconfig=15.0,
        r_scan=1.0,
        r_acc=1.5,
        r_network=0.08,
        c_dbms=0.03,
    )


@dataclass(frozen=True)
class TableSpec:
    """A scanned table: just a name and a size in MB (size >= 0)."""

    name: str
    size_mb: float


@dataclass(frozen=True)
class FilterOp:
    """One filter operator and the accelerator implementing it.

    ``id`` doubles as the accelerator identity: two queries whose operators
    carry the same id can reuse one loaded accelerator.  ``selectivity`` is
    the output/input size ratio in [0, 1].  ``commutes`` says whether the
    filter may be reordered against other filters.
    """

    id: str
    selectivity: float
    commutes: bool = True


@dataclass(frozen=True)
class Query:
    """An ordered list of filters over one table (plus read-only caches of ``ops``)."""

    id: str
    table: TableSpec
    ops: tuple[FilterOp, ...]
    _op_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _ops_by_id: dict[str, FilterOp] = field(init=False, repr=False, compare=False)
    _all_commute: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ops = self.ops
        if type(ops) is not tuple:
            ops = tuple(ops)
            object.__setattr__(self, "ops", ops)
        op_ids = []
        all_commute = True
        for op in ops:
            op_ids.append(op.id)
            if not op.commutes:
                all_commute = False
        object.__setattr__(self, "_op_ids", tuple(op_ids))
        object.__setattr__(self, "_ops_by_id", dict(zip(op_ids, ops)))
        object.__setattr__(self, "_all_commute", all_commute)

    def op_ids(self) -> tuple[str, ...]:
        return self._op_ids


@dataclass(frozen=True)
class QuerySequence:
    """Queries in arrival order plus the average gap before each successor.

    ``gaps[i]`` is the average time between completion of ``queries[i]``
    (result fully delivered, host post-processing done) and the arrival of
    ``queries[i + 1]``.

    A sequence is valid by construction: building one that breaks a model
    invariant raises :class:`InvalidSequenceError` listing every violation,
    so code that receives a ``QuerySequence`` need not check it again.

    ``_memo`` holds the planning work done for this sequence object, so each
    plan is built, checked and costed at most once per object (see
    :mod:`rpusim.plans` and :mod:`rpusim.cost`).  Keys: a ``Strategy`` maps
    to its plan, or ``None`` when it is not applicable; a ``Plan`` that
    passed its check to ``None``; a ``(Plan, DeviceProfile)`` pair to its
    cost breakdown.  Plans key by orders and modes, so two strategies that
    build one plan share its check and its breakdowns.  Failures are not
    kept.  Equality, hashing, ``repr`` and ``dataclasses.replace`` ignore
    the memo; every new object starts empty.
    """

    queries: tuple[Query, ...]
    gaps: tuple[float, ...]
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(self, "gaps", tuple(map(float, self.gaps)))
        require_valid(self)
        object.__setattr__(self, "_memo", {})


@dataclass(frozen=True)
class Violation:
    """One broken invariant: where it was found and what is wrong."""

    location: str
    message: str


def validate_sequence(seq: QuerySequence) -> list[Violation]:
    """Check every model invariant of a sequence; empty result means ok.

    A clean sequence costs one walk: it only tests whether each count, gap,
    table size and selectivity is in range and whether the query ids, and
    each query's op ids, are distinct (a query's ``_ops_by_id`` has one
    entry per op).  Only a sequence that fails a test is walked again to
    list its violations.

    Violations are data, not exceptions, so callers can report all of them
    at once.  Use :func:`require_valid` to raise instead; constructing a
    :class:`QuerySequence` already does.
    """
    queries, gaps = seq.queries, seq.gaps
    n = len(queries)
    if n < 2 or len(gaps) != n - 1 or len({q.id for q in queries}) != n:
        return _violations(seq)
    for g in gaps:
        if not (isfinite(g) and g >= 0.0):
            return _violations(seq)
    for q in queries:
        size = q.table.size_mb
        ops = q.ops
        if not (isfinite(size) and size >= 0.0 and ops and len(q._ops_by_id) == len(ops)):
            return _violations(seq)
        for op in ops:
            if not 0.0 <= op.selectivity <= 1.0:
                return _violations(seq)
    return []


def _violations(seq: QuerySequence) -> list[Violation]:
    """Every broken invariant of ``seq``, in walk order (gaps, then each
    query and its ops)."""
    out: list[Violation] = []
    n = len(seq.queries)
    if n < 2:
        out.append(Violation("sequence.queries", f"sequence needs >= 2 queries, got {n}"))
    if len(seq.gaps) != max(n - 1, 0):
        out.append(
            Violation(
                "sequence.gaps",
                f"gap count {len(seq.gaps)} does not match queries - 1 = {n - 1}",
            )
        )
    for i, g in enumerate(seq.gaps):
        if not math.isfinite(g):
            out.append(Violation(f"sequence.gaps[{i}]", f"non-finite gap {g}"))
        elif g < 0:
            out.append(Violation(f"sequence.gaps[{i}]", f"negative gap {g}"))

    seen_ids: set[str] = set()
    for qi, q in enumerate(seq.queries):
        if q.id in seen_ids:
            out.append(Violation(f"queries[{qi}]", f"duplicate query id {q.id!r} in sequence"))
        seen_ids.add(q.id)
        if not math.isfinite(q.table.size_mb):
            out.append(Violation(f"queries[{qi}].table", f"non-finite table size {q.table.size_mb}"))
        elif q.table.size_mb < 0:
            out.append(Violation(f"queries[{qi}].table", f"negative table size {q.table.size_mb}"))
        if not q.ops:
            out.append(Violation(f"queries[{qi}].ops", "query has no operators"))
        op_ids: set[str] = set()
        for oi, op in enumerate(q.ops):
            if op.id in op_ids:
                out.append(Violation(f"queries[{qi}].ops[{oi}]", f"duplicate op id {op.id!r} within query"))
            op_ids.add(op.id)
            if not 0.0 <= op.selectivity <= 1.0:
                out.append(Violation(
                    f"queries[{qi}].ops[{oi}].selectivity",
                    f"selectivity range: {op.selectivity} outside [0, 1]",
                ))
    return out


def require_valid(seq: QuerySequence) -> QuerySequence:
    """Raise :class:`InvalidSequenceError` unless the sequence is clean."""
    violations = validate_sequence(seq)
    if violations:
        raise InvalidSequenceError(violations)
    return seq


@dataclass(frozen=True)
class Plan:
    """A concrete executable choice for a whole sequence.

    ``rpu_order[i]`` lists the operators ``queries[i]`` pushes down to the
    RPU, in streaming order; every other operator of the query runs on the
    host, in declared order.  ``modes[i]`` is the boundary between
    ``queries[i]`` and ``queries[i + 1]``: it releases ``queries[i + 1]``'s
    leading reconfiguration.  Both are positional, so a plan binds to a
    sequence by query position, not by query id.  ``strategy`` names the
    builder (see :class:`Strategy`); it is a label, not part of the plan's
    identity: equality and hashing read only ``rpu_order`` and ``modes``.

    A plan is a memo key, so its hash is computed on first use and kept in
    ``_hash``; equality, ``repr``, ``dataclasses.replace`` and pickling
    ignore it.
    """

    strategy: Strategy = field(compare=False)
    rpu_order: tuple[tuple[str, ...], ...]
    modes: tuple[Mode, ...]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.rpu_order, self.modes)))
        return self._hash

    def __getstate__(self) -> dict:
        # hashes differ between processes (strings are salted, Mode
        # hashes by identity), so a copy hashes itself again
        return {**self.__dict__, "_hash": None}

    def load_after(self, boundary: int) -> bool:
        """Whether boundary ``boundary`` reloads the PR speculatively."""
        return self.modes[boundary] is Mode.SPECULATIVE
