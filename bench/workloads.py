"""The benchmark workloads: request pipelines and the checks on their outputs.

Each workload turns generated inputs into requests.  ``request`` is the
timed call into the program; ``key`` condenses its output for comparing
repeated runs; ``verify`` checks the output in full and returns the modeled
figures it implies.  The package is passed in as ``rp`` and every function
is looked up on it at call time, so the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import gen

#: Strategies that need no knowledge of the following query (paper, sec. 3).
NO_HINT_STRATEGIES = frozenset({"S", "I"})

#: Failure classes that the program is known to produce at this version:
#: the model accepts NaN and Infinity in sizes and gaps.
KNOWN_DEFECTS = frozenset({"nonfinite"})


@dataclass
class Verified:
    """What the full check of one request found."""

    failure: str | None
    digest: object
    modeled: dict | None = None  # chosen/on/off/S totals and device stats
    counts: dict = field(default_factory=dict)


def parse_doc(rp, text: str):
    """Decode a workload document and build the sequence and profile."""
    return rp.parse_workload(json.loads(text))


def device_stats(timeline) -> dict:
    """Per-resource simulated time of a timeline, and how much reconfiguration hid.

    Reconfiguration counts as hidden while any other resource (scan,
    transfer, host filtering or an idle gap) is busy.
    """
    busy = {"scan": 0.0, "reconfig": 0.0, "acc-exec": 0.0, "transfer": 0.0, "dbms": 0.0, "gap": 0.0}
    reconfigs = []
    others: list[list[float]] = []  # merged busy intervals of non-PR resources
    for p in timeline.phases:
        busy[p.label] += p.end - p.start
        if p.label == "reconfig":
            reconfigs.append((p.start, p.end))
        elif p.label != "acc-exec":
            if others and p.start <= others[-1][1]:
                others[-1][1] = max(others[-1][1], p.end)
            else:
                others.append([p.start, p.end])
    hidden = 0.0
    k = 0
    for start, end in reconfigs:
        while k < len(others) and others[k][1] <= start:
            k += 1
        j = k
        while j < len(others) and others[j][0] < end:
            hidden += min(end, others[j][1]) - max(start, others[j][0])
            j += 1
    return {
        "scan_busy_ms": busy["scan"],
        "reconfig_ms": busy["reconfig"],
        "reconfig_count": len(reconfigs),
        "acc_exec_ms": busy["acc-exec"],
        "net_busy_ms": busy["transfer"],
        "dbms_ms": busy["dbms"],
        "gap_ms": busy["gap"],
        "reconfig_hidden_ms": hidden,
    }


@dataclass
class PlanOutput:
    """Everything one sequence request produced."""

    seq: object
    profile: object
    plan_on: object
    cost_on: object
    plan_off: object
    cost_off: object
    hints: list
    timeline: object
    violations: list
    sweep_rows: list | None = None


def plan_and_simulate(rp, seq, profile) -> PlanOutput:
    """The planning pipeline both sequence workloads run."""
    plan_on, cost_on = rp.choose_plan(seq, profile, hints_enabled=True)
    plan_off, cost_off = rp.choose_plan(seq, profile, hints_enabled=False)
    hints = rp.generate_hints(seq, plan_on, profile)
    timeline = rp.simulate(seq, plan_on, profile)
    violations = rp.validate_timeline(timeline)
    return PlanOutput(seq, profile, plan_on, cost_on, plan_off, cost_off, hints, timeline, violations)


def plan_key(out: PlanOutput) -> str:
    rows = None
    if out.sweep_rows is not None:
        rows = [(r.value, str(r.strategy), r.total_ms, r.improvement_pct) for r in out.sweep_rows]
    return repr((
        str(out.plan_on.strategy), out.cost_on.total, str(out.plan_off.strategy), out.cost_off.total,
        out.hints, out.timeline.makespan, len(out.timeline.phases), len(out.violations), rows,
    ))


def check_plan(rp, out: PlanOutput) -> tuple[list[str], dict]:
    """Check a planned and simulated sequence; return problems and modeled figures."""
    problems = []
    seq, profile = out.seq, out.profile
    total_on, total_off = out.cost_on.total, out.cost_off.total
    if not abs(out.timeline.makespan - total_on) <= 1e-9 * max(1.0, abs(total_on)):
        problems.append(f"makespan {out.timeline.makespan!r} != plan_cost total {total_on!r}")
    if out.violations:
        problems.append(f"{len(out.violations)} timeline violations: {out.violations[0]}")

    totals = {str(p.strategy): rp.plan_cost(seq, p, profile).total for p in rp.enumerate_plans(seq)}
    if total_on != min(totals.values()):
        problems.append(f"hints-on total {total_on!r} is not the minimum {min(totals.values())!r}")
    if total_off != min(t for s, t in totals.items() if s in NO_HINT_STRATEGIES):
        problems.append(f"hints-off total {total_off!r} is not the minimum over S and I")
    if not total_on <= total_off:
        problems.append(f"hints-on total {total_on!r} exceeds hints-off total {total_off!r}")

    pairs = []
    for i, (pred, succ) in enumerate(zip(seq.queries, seq.queries[1:])):
        shared = set(pred.op_ids()) & set(succ.op_ids())
        if shared:
            pairs.append((shared, seq.gaps[i]))
    if len(out.hints) != len(pairs):
        problems.append(f"{len(out.hints)} hints for {len(pairs)} sharing pairs")
    for hint, (shared, gap) in zip(out.hints, pairs):
        if not hint.next_accelerators or not set(hint.next_accelerators) <= shared:
            problems.append(f"hinted {hint.next_accelerators} not shared by its pair {sorted(shared)}")
        if hint.expected_gap != gap:
            problems.append(f"hint gap {hint.expected_gap!r} != pair gap {gap!r}")

    modeled = {
        "queries": len(seq.queries),
        "strategy_on": str(out.plan_on.strategy),
        "strategy_off": str(out.plan_off.strategy),
        "total_on": total_on,
        "total_off": total_off,
        "total_s": totals["S"],
        "phases": len(out.timeline.phases),
        "device": device_stats(out.timeline),
    }
    return problems, modeled


class LongSeq:
    """Long sequences through parse, plan (hints on and off), hints, simulate, check."""

    name = "long-seq"
    item_unit = "queries"

    def __init__(self, rp, seed: int, workdir: Path) -> None:
        self.rp = rp
        self.corpus = gen.long_seq_corpus(seed)

    def items(self, item) -> int:
        return item["n"]

    def request(self, item) -> PlanOutput:
        seq, profile = parse_doc(self.rp, item["doc"])
        return plan_and_simulate(self.rp, seq, profile)

    def key(self, out) -> str:
        return plan_key(out)

    def verify(self, item, out: PlanOutput) -> Verified:
        problems, modeled = check_plan(self.rp, out)
        return Verified("output_check" if problems else None, modeled, modeled,
                        {"problems": problems})


class ShortSeq:
    """2-6 query sequences: the same pipeline plus a sweep; some documents malformed."""

    name = "short-seq"
    item_unit = "queries"

    def __init__(self, rp, seed: int, workdir: Path) -> None:
        self.rp = rp
        self.corpus = gen.short_seq_corpus(seed)

    def items(self, item) -> int:
        return item["n"] if item["kind"] == "valid" else 0

    def request(self, item):
        rp = self.rp
        if item["kind"] != "valid":
            try:
                seq, profile = parse_doc(rp, item["doc"])
                plan, cost = rp.choose_plan(seq, profile)
            except (rp.RpusimError, ValueError) as exc:
                return ("rejected", type(exc).__name__)
            return ("accepted", str(plan.strategy), repr(cost.total))
        seq, profile = parse_doc(rp, item["doc"])
        out = plan_and_simulate(rp, seq, profile)
        sweep = item["sweep"]
        # Which plans apply can change with the filter order, and a
        # selectivity sweep reorders filters; only IV depends on the order.
        strategies = tuple(
            p.strategy for p in rp.enumerate_plans(seq)
            if not (sweep["variable"] == "selectivity" and p.strategy is rp.Strategy.IV)
        )
        spec = rp.SweepSpec(sweep["variable"], sweep["start"], sweep["stop"], sweep["steps"], strategies)
        out.sweep_rows = rp.run_sweep(seq, profile, spec)
        return out

    def key(self, out) -> str:
        return repr(out) if isinstance(out, tuple) else plan_key(out)

    def verify(self, item, out) -> Verified:
        if item["kind"] != "valid":
            failure = None if out[0] == "rejected" else item["kind"]
            return Verified(failure, [item["kind"], *out], counts={"malformed": item["kind"], "outcome": out[0]})
        problems, modeled = check_plan(self.rp, out)
        rows = out.sweep_rows
        points = item["sweep"]["steps"]
        if len(rows) != points * len({r.strategy for r in rows}):
            problems.append(f"sweep has {len(rows)} rows for {points} points")
        for r in rows:
            if not (math.isfinite(r.total_ms) and r.total_ms > 0):
                problems.append(f"sweep total {r.total_ms!r} at {r.variable}={r.value}")
            if str(r.strategy) == "S" and r.improvement_pct != 0.0:
                problems.append(f"S improves on itself by {r.improvement_pct!r}")
        digest = [modeled, [(r.value, str(r.strategy), r.total_ms, r.improvement_pct) for r in rows]]
        return Verified("output_check" if problems else None, digest, modeled,
                        {"problems": problems, "sweep_points": points})


class MineLog:
    """Query logs through ``rpusim mine`` then ``rpusim plan``, in-process."""

    name = "mine-log"
    item_unit = "lines"

    def __init__(self, rp, seed: int, workdir: Path) -> None:
        self.rp = rp
        self.corpus = []
        for k, log in enumerate(gen.mine_log_corpus(seed)):
            paths = {name: workdir / f"{k}.{name}" for name in ("log", "catalog", "report", "workload")}
            paths["log"].write_text(log["log"], encoding="utf-8")
            paths["catalog"].write_text(json.dumps(log["catalog"]), encoding="utf-8")
            self.corpus.append({**log, "paths": paths})

    def items(self, item) -> int:
        return item["lines"]

    def request(self, item):
        p = item["paths"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc_mine = self.rp.cli.main([
                "mine", "--log", str(p["log"]), "--min-support", "2", "--out", str(p["report"]),
                "--catalog", str(p["catalog"]), "--workload-out", str(p["workload"]),
            ])
            rc_plan = self.rp.cli.main(["plan", "--workload", str(p["workload"])])
        return (rc_mine, rc_plan, stdout.getvalue(), stderr.getvalue())

    def key(self, out) -> str:
        return repr(out)

    def verify(self, item, out) -> Verified:
        rp = self.rp
        rc_mine, rc_plan, stdout, stderr = out
        if (rc_mine, rc_plan) != (0, 0):
            return Verified("output_check", list(out), counts={"problems": [stderr]})
        problems = []
        report = item["paths"]["report"].read_text(encoding="utf-8")
        if report != item["expected_report"]:
            problems.append("mined report differs from the planted supports and gaps")
        workload_text = item["paths"]["workload"].read_text(encoding="utf-8")
        seq, profile = parse_doc(rp, workload_text)
        top = item["top"]
        if list(seq.gaps) != top["avg_gaps"]:
            problems.append(f"emitted gaps {seq.gaps} != planted averages {top['avg_gaps']}")
        for q, tid in zip(seq.queries, top["templates"]):
            entry = item["catalog"][tid]
            ops = [{"id": op.id, "selectivity": op.selectivity} for op in q.ops]
            if (q.table.name, q.table.size_mb, ops) != (entry["table"]["name"], entry["table"]["size_mb"], entry["ops"]):
                problems.append(f"query {q.id} does not match catalog entry {tid}")
        if len(seq.queries) != len(top["templates"]):
            problems.append(f"emitted {len(seq.queries)} queries for {len(top['templates'])} templates")

        plan_out = plan_and_simulate(rp, seq, profile)
        plan_problems, modeled = check_plan(rp, plan_out)
        problems += plan_problems
        printed = dict(line.split(": ", 1) for line in stdout.splitlines()
                       if line.startswith(("strategy: ", "total_ms: ")))
        expected = {"strategy": str(plan_out.plan_on.strategy), "total_ms": f"{plan_out.cost_on.total:.3f}"}
        if printed != expected:
            problems.append(f"plan printed {printed}, expected {expected}")
        mined = report.count("\n") - 1
        printed_without_paths = stdout.replace(str(item["paths"]["log"].parent), "")
        return Verified("output_check" if problems else None,
                        [report, workload_text, printed_without_paths, modeled], modeled,
                        {"problems": problems, "mined": mined})


WORKLOADS = {w.name: w for w in (LongSeq, ShortSeq, MineLog)}
