"""Exception types shared across the package."""

from __future__ import annotations


class RpusimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSequenceError(RpusimError):
    """A query sequence violates one or more model invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{v.location}: {v.message}" for v in self.violations)
        super().__init__(f"invalid query sequence: {lines}")


class IllegalPlanError(RpusimError):
    """A plan's structure is not executable for the given sequence."""


class SchedulingError(RpusimError):
    """A plan asked the simulator to violate a device scheduling rule."""


class WorkloadFormatError(RpusimError):
    """A workload document does not match the expected schema."""


class MiningError(RpusimError):
    """A query log or mining request cannot be processed."""


class NonFiniteResultError(RpusimError):
    """Finite inputs produced an infinite or NaN result (a float overflow)."""
