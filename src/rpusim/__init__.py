"""Query-sequence planning and simulation for a reconfigurable accelerator.

Models how sequences of filter queries execute on a storage-attached device
with one partially reconfigurable accelerator slot: five plan strategies with
closed-form costs, a dependency-driven simulator producing phase timelines, a
plan chooser driven by sequence knowledge ("hints"), and a query-log miner
that recovers recurring sequences and their inter-query gaps.

The package exports the :func:`~rpusim.simulate.simulate` function under
the name of its module, so ``rpusim.simulate`` and ``from rpusim import
simulate`` give the function, not the ``rpusim.simulate`` submodule, even
after ``import rpusim.simulate``.  Reach the module itself through
``importlib.import_module("rpusim.simulate")`` (or ``sys.modules``).
"""

from .cost import (
    AccStep,
    CostBreakdown,
    PhaseTimes,
    filtered_size,
    improvement,
    phase_times,
    plan_cost,
)
from .errors import (
    IllegalPlanError,
    InvalidSequenceError,
    MiningError,
    NonFiniteResultError,
    RpusimError,
    WorkloadFormatError,
)
from .miner import (
    CatalogEntry,
    LogEntry,
    MinedSequence,
    fingerprint,
    mine_sequences,
    normalize_query,
    parse_catalog,
    parse_log,
    report_csv,
    to_workload,
)
from .model import (
    DeviceProfile,
    FilterOp,
    HINT_STRATEGIES,
    Mode,
    Plan,
    Query,
    QuerySequence,
    STRATEGY_ORDER,
    Strategy,
    TableSpec,
    Violation,
    calibrated_profile,
    require_valid,
    validate_sequence,
)
from .planner import (
    Hint,
    ReconfigChoice,
    ReconfigDecision,
    choose_plan,
    costed_plans,
    generate_hints,
    rpu_policy,
)
from .plans import (
    check_plan,
    enumerate_plans,
    legality,
    local_order,
    shared_accelerators,
    strategy_plan,
)
from .simulate import (
    GAP_QUERY,
    Phase,
    Resource,
    Timeline,
    simulate,
    timeline_csv,
    validate_timeline,
)
from .sweep import (
    SweepRow,
    SweepSpec,
    run_sweep,
    scale_sequence,
    set_gaps,
    set_selectivity,
    sweep_csv,
)
from .workload import (
    default_scenario,
    load_workload,
    parse_workload,
    save_workload,
    workload_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AccStep",
    "CatalogEntry",
    "CostBreakdown",
    "DeviceProfile",
    "FilterOp",
    "GAP_QUERY",
    "HINT_STRATEGIES",
    "Hint",
    "IllegalPlanError",
    "InvalidSequenceError",
    "LogEntry",
    "MinedSequence",
    "MiningError",
    "Mode",
    "NonFiniteResultError",
    "Phase",
    "PhaseTimes",
    "Plan",
    "Query",
    "QuerySequence",
    "ReconfigChoice",
    "ReconfigDecision",
    "Resource",
    "RpusimError",
    "STRATEGY_ORDER",
    "Strategy",
    "SweepRow",
    "SweepSpec",
    "TableSpec",
    "Timeline",
    "Violation",
    "WorkloadFormatError",
    "calibrated_profile",
    "check_plan",
    "choose_plan",
    "costed_plans",
    "default_scenario",
    "enumerate_plans",
    "filtered_size",
    "fingerprint",
    "generate_hints",
    "improvement",
    "legality",
    "load_workload",
    "local_order",
    "mine_sequences",
    "normalize_query",
    "parse_catalog",
    "parse_log",
    "parse_workload",
    "phase_times",
    "plan_cost",
    "report_csv",
    "require_valid",
    "rpu_policy",
    "run_sweep",
    "save_workload",
    "scale_sequence",
    "set_gaps",
    "set_selectivity",
    "shared_accelerators",
    "simulate",
    "strategy_plan",
    "sweep_csv",
    "timeline_csv",
    "to_workload",
    "validate_sequence",
    "validate_timeline",
    "workload_dict",
]
