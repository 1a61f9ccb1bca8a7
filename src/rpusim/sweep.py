"""Parameter sweeps: cost every strategy across a grid of scenario variants."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .cost import _fold, improvement
from .model import DeviceProfile, FilterOp, Query, QuerySequence, Strategy, TableSpec
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
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"sweep {name} must be finite, got {getattr(self, name)}")
        if not self.start <= self.stop:
            raise ValueError(f"invalid range: from {self.start} > to {self.stop}")
        if type(self.steps) is not int:  # a bool is an int too, but not a count
            raise ValueError(f"steps must be an int, got {self.steps!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        # no list holds more items, and a larger count does not convert to a float
        if self.steps > sys.maxsize:
            raise ValueError(f"steps must be <= {sys.maxsize}, got {self.steps}")
        if not self.strategies:
            raise ValueError("strategies must not be empty")
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


def run_sweep(seq: QuerySequence, profile: DeviceProfile, spec: SweepSpec) -> list[SweepRow]:
    """Evaluate each strategy at every grid point, improvements vs S.

    Each strategy's plan is built and checked once, and every point folds
    each distinct plan (strategies that build one plan share it) against
    that point's variant of ``seq`` to its bare total.  No point builds a
    :class:`rpusim.cost.CostBreakdown`.
    """
    variable = spec.variable
    transform = _TRANSFORMS[variable]
    grid = spec.grid()
    # Plans depend on op ids, commutation and selectivity order only; no
    # transform changes those (a common selectivity ties every operator).
    # Legality reads only query and op ids, commute flags and the boundary
    # count, which no transform changes either, so one check covers every
    # point.
    first = transform(seq, grid[0])
    strategies = dict.fromkeys((Strategy.S, *spec.strategies))
    enumerate_plans(first, strategies)  # one sort of local orders; the lookups hit the memo
    built = {s: check_plan(strategy_plan(first, s), first) for s in strategies}
    # strategies that build one plan share its fold; S's plan comes first.
    # Each strategy's slot is found once, so no point hashes a plan.
    plans = list(dict.fromkeys(built.values()))
    slots = [(s, plans.index(built[s])) for s in spec.strategies]
    rows: list[SweepRow] = []
    for i, value in enumerate(grid):
        # each point still builds its variant, so a value the model rejects
        # (say, a table size that overflows) fails at that point
        variant = first if i == 0 else transform(seq, value)
        totals = [_fold(plan, variant, profile) for plan in plans]
        baseline = totals[0]
        for strategy, slot in slots:
            total = totals[slot]
            rows.append(SweepRow(variable, value, strategy, total, improvement(total, baseline)))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["variable,value,strategy,total_ms,improvement_pct"]
    for r in rows:
        lines.append(
            f"{r.variable},{r.value:.6f},{r.strategy},{r.total_ms:.6f},{r.improvement_pct:.6f}"
        )
    return "\n".join(lines) + "\n"
