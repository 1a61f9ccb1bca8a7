"""Command-line harness: cost tables, plan choice, simulation, sweeps, mining.

Exit codes: 0 on success, 1 when inputs fail validation or need more memory
than there is (a sweep's ``--steps``, say), 2 on I/O errors.
CSV outputs are deterministic byte-for-byte for fixed inputs; human-readable
numbers are printed with 3 decimals.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys

from .cost import CostBreakdown, improvement, plan_cost
from .errors import RpusimError
from .miner import _mine, _read_log, normalize_query, parse_catalog, report_csv, to_workload
from .model import HINT_STRATEGIES, DeviceProfile, Plan, QuerySequence, Strategy, calibrated_profile
from .planner import choose_plan, costed_plans, generate_hints
from .plans import strategy_plan
from .simulate import simulate, timeline_csv
from .sweep import _TRANSFORMS, VARIABLES, SweepSpec, run_sweep, sweep_csv
from .workload import default_scenario, load_workload, read_json, workload_json


def _parse_strategy(value: str, hints: bool) -> Strategy:
    try:
        strategy = Strategy(value)
    except ValueError:
        raise ValueError(f"unknown strategy {value!r}; expected {', '.join(s.value for s in Strategy)}") from None
    if not hints and strategy in HINT_STRATEGIES:
        raise ValueError(f"strategy {strategy} needs hints about upcoming queries; --no-hints allows S and I")
    return strategy


def _load(args) -> tuple[QuerySequence, DeviceProfile]:
    if args.workload:
        return load_workload(args.workload)
    return default_scenario(), calibrated_profile()


def _write_all(texts: list[tuple[str, str]]) -> None:
    """Write each (path, text) pair, having opened every path first.

    Two paths naming one regular file, or one path not there yet, raise
    :class:`ValueError` before any is opened.  When a path cannot be
    opened, nothing is written: the files opened before it are closed
    unchanged (append mode truncates nothing), and those this call created
    are removed again.  Only a regular file is truncated before its write;
    a device or pipe such as ``/dev/null`` cannot be, and may be named twice.
    """
    paths = [path for path, _ in texts]
    for i, a in enumerate(paths):
        for b in paths[:i]:
            try:
                one = os.path.samefile(a, b) and stat.S_ISREG(os.stat(a).st_mode)
            except FileNotFoundError:  # a path is missing: compare where each resolves
                one = os.path.realpath(a) == os.path.realpath(b)
            if one:
                raise ValueError(f"{b} and {a} name one file; give each output its own path")
    with contextlib.ExitStack() as opened:
        files, created = [], []
        try:
            for path in paths:
                existed = os.path.lexists(path)
                files.append(opened.enter_context(open(path, "a", encoding="utf-8")))
                if not existed:
                    created.append(path)
        except OSError:
            opened.close()
            for path in created:
                os.remove(path)
            raise
        for f, (_, text) in zip(files, texts):
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate(0)
            f.write(text)


def _id_text(name: str) -> str:
    """An id as printed: as is when it is plain, else its JSON string literal.

    A plain id is non-empty and holds only printable, non-space characters
    other than the separators ``:`` ``,`` ``=`` and ``"``, so every printed
    line splits back into its fields.
    """
    if name and name.isprintable() and not any(c.isspace() or c in ':,="' for c in name):
        return name
    return json.dumps(name)


def _print_cost(plan: Plan, breakdown: CostBreakdown) -> None:
    print(f"strategy: {plan.strategy}")
    print(f"total_ms: {breakdown.total:.3f}")
    for qid, t in breakdown.per_query:
        print(f"  {_id_text(qid)}: {t:.3f}")


def _cmd_cost(args) -> int:
    seq, profile = _load(args)
    if args.strategy != "auto":
        plan = strategy_plan(seq, _parse_strategy(args.strategy, args.hints))
        _print_cost(plan, plan_cost(seq, plan, profile))
        return 0
    rows = costed_plans(seq, profile, hints_enabled=args.hints)
    # S, the baseline, always applies and is a memo hit here: an S that
    # overflows, which costed_plans dropped, raises before any output
    baseline = plan_cost(seq, strategy_plan(seq, Strategy.S), profile).total
    # all rows before any output, so a saving that overflows prints nothing
    lines = [
        f"{str(plan.strategy):<4} total_ms {breakdown.total:>10.3f}  "
        f"improvement_pct {improvement(breakdown.total, baseline):>8.3f}"
        for plan, breakdown in rows
    ]
    print("\n".join(lines))
    best, best_cost = min(rows, key=lambda row: row[1].total)
    print(f"best: {best.strategy} ({best_cost.total:.3f} ms)")
    return 0


def _cmd_plan(args) -> int:
    seq, profile = _load(args)
    plan, breakdown = choose_plan(seq, profile, hints_enabled=args.hints)
    _print_cost(plan, breakdown)
    # a plan chosen without knowledge of upcoming queries carries no hints
    for hint in generate_hints(seq, plan, profile) if args.hints else ():
        accs = ",".join(map(_id_text, hint.next_accelerators))
        print(
            f"hint: next_accelerators={accs} expected_gap_ms={hint.expected_gap:.3f} "
            f"expected_scan_ms={hint.expected_scan:.3f}"
        )
    return 0


def _cmd_simulate(args) -> int:
    seq, profile = _load(args)
    if args.strategy == "auto":
        plan, _ = choose_plan(seq, profile, hints_enabled=args.hints)
    else:
        plan = strategy_plan(seq, _parse_strategy(args.strategy, args.hints))
    timeline = simulate(seq, plan, profile)
    lines = [f"strategy: {plan.strategy}", f"makespan_ms: {timeline.makespan:.3f}"]
    if args.timeline:
        # written before any output, so an unwritable path prints nothing
        _write_all([(args.timeline, timeline_csv(timeline))])
        lines.append(f"timeline: {args.timeline}")
    print("\n".join(lines))
    return 0


def _cmd_sweep(args) -> int:
    fixed = {variable: getattr(args, f"fix_{variable}") for variable in VARIABLES}
    if fixed[args.sweep] is not None:
        raise ValueError(f"--fix-{args.sweep} and --sweep {args.sweep} both set the {args.sweep}; give one")
    seq, profile = _load(args)
    for variable, value in fixed.items():
        if value is not None:
            seq = _TRANSFORMS[variable](seq, value)
    strategies = tuple(_parse_strategy(s.strip(), args.hints) for s in args.strategies.split(","))
    spec = SweepSpec(
        variable=args.sweep,
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        strategies=strategies,
    )
    text = sweep_csv(run_sweep(seq, profile, spec))
    if args.out:
        _write_all([(args.out, text)])
    else:
        sys.stdout.write(text)
    return 0


def _cmd_mine(args) -> int:
    # the log's columns, mined as they are: no LogEntry is built
    stamps, query_texts, durations, templates = _read_log(args.log)
    mined = _mine(stamps, durations, templates, args.min_support, args.max_len, args.max_gap)
    # both files are built and opened before any output, so a bad catalog or
    # an unwritable --workload-out or --out prints nothing and writes no file
    texts = []
    if args.workload_out:
        if not args.catalog:
            raise ValueError("--workload-out requires --catalog")
        catalog = parse_catalog(read_json(args.catalog))
        if not mined:
            raise ValueError("no recurring sequence found, nothing to emit")
        texts.append((args.workload_out, workload_json(to_workload(mined[0], catalog))))
    elif args.catalog:
        raise ValueError("--catalog is read only with --workload-out")
    report = report_csv(mined)
    if args.out:
        texts.append((args.out, report))
    _write_all(texts)
    if args.out:
        print(f"report: {args.out} ({len(mined)} sequences)")
    else:
        sys.stdout.write(report)
    used = {tid for m in mined for tid in m.templates}
    first: dict[str, str] = {}
    for tid, text in zip(templates, query_texts):
        if len(first) == len(used):
            break
        if tid in used and tid not in first:
            first[tid] = text
    for tid, text in first.items():
        print(f"template {tid}: {normalize_query(text)}")
    if args.workload_out:
        print(f"workload: {args.workload_out}")
    return 0


@functools.cache  # built at the first main() call, then reused: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpusim",
        description="Cost, plan, and simulate query sequences on a reconfigurable accelerator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, strategy=False):
        p.add_argument("--workload", help="workload JSON file (default: built-in scenario)")
        p.add_argument(
            "--hints",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="allow strategies that need knowledge of upcoming queries",
        )
        if strategy:
            p.add_argument(
                "--strategy",
                default="auto",
                choices=[*(s.value for s in Strategy), "auto"],
                help="plan strategy, or auto to pick the cheapest",
            )

    p = sub.add_parser("cost", help="analytic cost of one or all strategies")
    common(p, strategy=True)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("plan", help="choose the cheapest plan and print its hints")
    common(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", help="simulate a plan and export its timeline")
    common(p, strategy=True)
    p.add_argument("--timeline", help="write the phase timeline CSV here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="cost strategies across a parameter grid")
    common(p)
    p.add_argument("--sweep", required=True, choices=VARIABLES)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--strategies", default="I,II,III,IV", help="comma-separated subset")
    p.add_argument("--fix-scale", type=float, help="pre-scale table sizes")
    p.add_argument("--fix-selectivity", type=float, help="pre-set all selectivities")
    p.add_argument("--fix-gap", type=float, help="pre-set all gaps (ms)")
    p.add_argument("--out", help="CSV output file (default: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("mine", help="mine recurring sequences from a query log")
    p.add_argument("--log", required=True, help="log file: epoch_ms<TAB>text[<TAB>duration_ms]")
    p.add_argument("--min-support", type=int, default=2)
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--max-gap", type=float, default=1000.0)
    p.add_argument("--out", help="report CSV file (default: stdout)")
    p.add_argument("--catalog", help="template catalog JSON for workload emission")
    p.add_argument("--workload-out", help="write the top sequence as a workload JSON")
    p.set_defaults(func=_cmd_mine)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RpusimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the inputs need more memory than is available", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2

