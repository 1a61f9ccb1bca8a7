from __future__ import annotations

import random

import pytest
from hypothesis import settings

from rpusim import (
    DeviceProfile,
    FilterOp,
    Query,
    QuerySequence,
    TableSpec,
    calibrated_profile,
)

# CI runs the suite with ``--hypothesis-profile=ci``: every property that does
# not pin its own budget draws 1 000 examples there.  The profile extends
# Hypothesis's own ``ci`` profile, which derandomizes the draws, keeps no
# example database and prints a reproduction blob, so a CI failure repeats
# on a re-run.  Outside CI the default profile draws at random.
settings.register_profile("ci", parent=settings.get_profile("ci"), max_examples=1000, deadline=None)


def canonical_sequence(
    s0: float = 9.0,
    f0: float = 0.33,
    f1: float = 0.43,
    s1: float = 1.0,
    f2: float = 0.14,
    gap: float = 1.0,
) -> QuerySequence:
    """The reference two-query shape: Q0 filters twice, Q1 reuses acc0."""
    return QuerySequence(
        queries=(
            Query("Q0", TableSpec("t0", s0), (FilterOp("acc0", f0), FilterOp("acc1", f1))),
            Query("Q1", TableSpec("t1", s1), (FilterOp("acc0", f2),)),
        ),
        gaps=(gap,),
    )


def random_params(rng: random.Random) -> tuple[float, float, float, float, float, float]:
    """Random (s0, f0, f1, s1, f2, gap) with f0 <= f1 (canonical filter order)."""
    f0, f1 = sorted((rng.random(), rng.random()))
    return (
        rng.uniform(0.0, 100.0),
        f0,
        f1,
        rng.uniform(0.0, 100.0),
        rng.random(),
        rng.uniform(0.0, 50.0),
    )


@pytest.fixture
def profile() -> DeviceProfile:
    return calibrated_profile()


@pytest.fixture
def paper_seq() -> QuerySequence:
    return canonical_sequence()
