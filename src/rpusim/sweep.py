"""Parameter sweeps: cost every strategy across a grid of scenario variants."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .cost import _sweep_fold, improvement
from .model import DeviceProfile, FilterOp, Query, QuerySequence, Strategy, TableSpec, _not_real
from .plans import check_plan, enumerate_plans, strategy_plan


def scale_sequence(seq: QuerySequence, factor: float) -> QuerySequence:
    """All table sizes multiplied by ``factor``."""
    if factor < 0:
        raise ValueError(f"scale factor must be >= 0, got {factor}")
    queries = tuple(
        Query(q.id, TableSpec(q.table.name, q.table.size_mb * factor), q.ops)
        for q in seq.queries
    )
    return QuerySequence(queries=queries, gaps=seq.gaps)


def set_selectivity(seq: QuerySequence, selectivity: float) -> QuerySequence:
    """Every operator's selectivity replaced by one common value."""
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError(f"selectivity must be in [0, 1], got {selectivity}")
    queries = tuple(
        Query(q.id, q.table, tuple(FilterOp(op.id, selectivity, op.commutes) for op in q.ops))
        for q in seq.queries
    )
    return QuerySequence(queries=queries, gaps=seq.gaps)


def set_gaps(seq: QuerySequence, gap_ms: float) -> QuerySequence:
    """Every inter-query gap replaced by one common value."""
    if gap_ms < 0:
        raise ValueError(f"gap must be >= 0, got {gap_ms}")
    return QuerySequence(queries=seq.queries, gaps=(gap_ms,) * len(seq.gaps))


_TRANSFORMS = {
    "scale": scale_sequence,
    "selectivity": set_selectivity,
    "gap": set_gaps,
}
VARIABLES = tuple(_TRANSFORMS)


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over an inclusive range, for a set of strategies."""

    variable: str
    start: float
    stop: float
    steps: int
    strategies: tuple[Strategy, ...]

    def __post_init__(self) -> None:
        if self.variable not in VARIABLES:
            raise ValueError(f"variable must be one of {VARIABLES}, got {self.variable!r}")
        for name in ("start", "stop"):
            value = getattr(self, name)
            if _not_real(value):
                raise ValueError(f"sweep {name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"sweep {name} must be finite, got {value}")
        if not self.start <= self.stop:
            raise ValueError(f"invalid range: from {self.start} > to {self.stop}")
        if type(self.steps) is not int:  # a bool is an int too, but not a count
            raise ValueError(f"steps must be an int, got {self.steps!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        # no list holds more items, and a larger count does not convert to a float
        if self.steps > sys.maxsize:
            raise ValueError(f"steps must be <= {sys.maxsize}, got {self.steps}")
        # a tuple, so the frozen spec hashes whatever sequence it was given
        try:
            strategies = tuple(self.strategies)
        except TypeError:
            raise ValueError(f"strategies must be an iterable of Strategy members, got {self.strategies!r}") from None
        object.__setattr__(self, "strategies", strategies)
        if not self.strategies:
            raise ValueError("strategies must not be empty")
        for strategy in self.strategies:
            if not isinstance(strategy, Strategy):
                raise ValueError(f"strategies must be Strategy members, got {strategy!r}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError(f"strategies must not repeat, got {', '.join(map(str, self.strategies))}")
        # the grid rises monotonically, so a finite last point bounds them all
        if not math.isfinite(self._point(self.steps - 1)):
            raise ValueError(
                f"sweep from {self.start} to {self.stop} in {self.steps} steps overflows a float"
            )

    def _point(self, i: int) -> float:
        return self.start + i * ((self.stop - self.start) / (self.steps - 1))

    def grid(self) -> list[float]:
        # rounding can carry a point just past ``stop``, out of a range
        # such as a selectivity's [0, 1]; no point leaves the swept range
        stop = self.stop
        return [min(self._point(i), stop) for i in range(self.steps)]


@dataclass(frozen=True)
class SweepRow:
    variable: str
    value: float
    strategy: Strategy
    total_ms: float
    improvement_pct: float


def _sweep_row(variable: str, value: float, strategy: Strategy, total_ms: float, improvement_pct: float) -> SweepRow:
    """A ``SweepRow``, its fields set in declaration order, as the generated
    ``__init__`` sets them, without that call's overhead."""
    row = object.__new__(SweepRow)
    _set = object.__setattr__
    _set(row, "variable", variable)
    _set(row, "value", value)
    _set(row, "strategy", strategy)
    _set(row, "total_ms", total_ms)
    _set(row, "improvement_pct", improvement_pct)
    return row


def run_sweep(seq: QuerySequence, profile: DeviceProfile, spec: SweepSpec) -> list[SweepRow]:
    """Evaluate each strategy at every grid point, improvements vs S.

    Each strategy's plan is built and checked once per sweep.  A scale or
    gap sweep takes its plans from ``seq`` itself (its memo holds them once
    ``seq`` is planned); only a selectivity sweep builds a variant, the
    first point's, to plan on.  :func:`rpusim.cost._sweep_fold` lowers each
    distinct plan (strategies that build one plan share it) once, and every
    point folds each lowered plan to its bare total.  No point builds a
    sequence or a :class:`rpusim.cost.CostBreakdown`.

    Each total carries the bits a fold of the point's variant would.  A
    lowered record holds the very floats that fold reads (table sizes,
    selectivities, leads, modes, gaps), and the point's value enters where
    the variant holds it, through the same float operation: a scale
    multiplies each size once, a common selectivity stands for each op's,
    and a gap is only added to a tail.  So a gap sweep computes each
    query's scan, body and tail once, which no gap changes, and a point
    only sums the boundaries again.  ``_sweep_fold``'s docstring gives the
    argument per variable.

    Errors come in grid order: a value the variable's transform rejects
    raises that transform's error at its own point (the first point's
    before any plan is built), and within a point the plans are folded, and
    the improvements taken, in order.
    """
    variable = spec.variable
    transform = _TRANSFORMS[variable]
    grid = spec.grid()
    # ``rejects`` says when the transform raises: a scaled size that
    # overflows fails the variant's validation, and sizes scale
    # monotonically, so the largest bounds them all
    if variable == "scale":
        largest = max(q.table.size_mb for q in seq.queries)
        rejects = lambda value: value < 0 or not math.isfinite(largest * value)
    elif variable == "selectivity":
        rejects = lambda value: not 0.0 <= value <= 1.0
    else:  # gap
        rejects = lambda value: value < 0
    # Plans and their legality read only op ids, selectivity order, commute
    # flags and counts.  A scale or a gap changes none of these; a common
    # selectivity ties every operator, which re-sorts local orders.  A
    # first point the transform rejects raises here, before any plan is built.
    planned = transform(seq, grid[0]) if variable == "selectivity" or rejects(grid[0]) else seq
    strategies = dict.fromkeys((Strategy.S, *spec.strategies))
    enumerate_plans(planned, strategies)  # one sort of local orders; the lookups hit the memo
    built = {s: check_plan(strategy_plan(planned, s), planned) for s in strategies}
    # strategies that build one plan share its fold; S's plan comes first.
    # Each strategy's slot is found once, so no point hashes a plan.
    plans = list(dict.fromkeys(built.values()))
    slots = [(s, plans.index(built[s])) for s in spec.strategies]
    totals_at = _sweep_fold(plans, seq, profile, variable)
    rows: list[SweepRow] = []
    for value in grid:
        if rejects(value):
            transform(seq, value)  # raises the transform's own error
        totals = totals_at(value)
        baseline = totals[0]
        for strategy, slot in slots:
            total = totals[slot]
            rows.append(_sweep_row(variable, value, strategy, total, improvement(total, baseline)))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["variable,value,strategy,total_ms,improvement_pct"]
    for r in rows:
        lines.append(
            f"{r.variable},{r.value:.6f},{r.strategy},{r.total_ms:.6f},{r.improvement_pct:.6f}"
        )
    return "\n".join(lines) + "\n"
