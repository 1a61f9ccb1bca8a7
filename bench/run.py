"""Benchmark of rpusim: host time per layer and modeled device time.

Usage::

    python3 bench/run.py --workload long-seq --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One closed-loop client in one process: setup (import, generate,
serialize) is repeated and its median reported; one untimed pass runs every
request and checks its output in full; then whole passes over the same
requests are timed until ``--seconds`` have elapsed, each output compared
with the checked one.  Each request's latency is its fastest repeat, scaled
to a reference host speed (see ``REFERENCE_MS``).  ``--trace 1`` adds one
pass with spans recorded at every layer and reports per-layer metrics
instead of end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/NOTES.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

#: Host times are reported for a reference host that runs ``reference_work``
#: in this many milliseconds: each measured time is scaled by REFERENCE_MS
#: over the fastest ``reference_work`` of the same run.  On a shared host,
#: other tenants slow everything in the process alike for tens of seconds at
#: a time; the scaling removes most of that and none of the program's own
#: speed, since the reference code never changes.
REFERENCE_MS = 5.0
REFERENCE_EVERY_NS = 100_000_000


@dataclass(frozen=True)
class _Cell:
    key: str
    start: float
    end: float


def time_reference() -> int:
    """Nanoseconds one ``reference_work`` takes now."""
    start = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - start


def reference_work() -> float:
    """Fixed object-heavy Python work, like the program's: dataclasses, dicts, a heap, a sort."""
    cells = [_Cell(f"c{i % 61}", i * 0.5, i * 0.5 + 1.0) for i in range(3000)]
    by_key: dict[str, list[_Cell]] = {}
    for cell in cells:
        by_key.setdefault(cell.key, []).append(cell)
    heap = [(cell.end, cell.key, i) for i, cell in enumerate(cells)]
    heapq.heapify(heap)
    total = 0.0
    while heap:
        end, _, i = heapq.heappop(heap)
        total += max(end, cells[i].start)
    return total + sorted(cells, key=lambda c: (c.start, c.key))[-1].end + len(by_key)


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile, interpolating linearly between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def scaling_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 without two distinct x."""
    points = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    xs = {x for x, _ in points}
    if len(xs) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    return (sum((x - mx) * (y - my) for x, y in points)
            / sum((x - mx) ** 2 for x, _ in points))


def digest(parts: list) -> str:
    """Stable hash of every modeled output of a run."""
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def import_package():
    """Import ``rpusim`` (and its CLI) afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "rpusim" or n.startswith("rpusim.")]:
        del sys.modules[name]
    rp = importlib.import_module("rpusim")
    importlib.import_module("rpusim.cli")
    if Path(rp.__file__).resolve().parent != SRC / "rpusim":
        raise ImportError(f"rpusim imported from {rp.__file__}, not from {SRC}")
    return rp


class Run:
    """One benchmark run: setup, checked pass, timed passes, optional traced pass."""

    def __init__(self, workload: str, seed: int, seconds: int, workdir: Path) -> None:
        self.setup_args = (workloads.WORKLOADS[workload], seed, workdir)
        self.setup_s: list[float] = []
        self.wl = None
        self.setup()
        self.seconds = seconds
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.latency_ns: list[list[int]] = [[] for _ in self.wl.corpus]
        self.reference_ns: list[int] = []

    def setup(self) -> None:
        """Import the package afresh and generate and serialize the inputs.

        Setups are single samples spread over the run, so each is scaled to
        the reference host by the fastest of three ``reference_work`` timed
        just before it, not by the run's fastest.
        """
        cls, seed, workdir = self.setup_args
        reference = min(time_reference() for _ in range(3))
        start = time.perf_counter()
        rp = import_package()
        wl = cls(rp, seed, workdir)
        self.setup_s.append((time.perf_counter() - start) * REFERENCE_MS * 1e6 / reference)
        if self.wl is not None and wl.corpus != self.wl.corpus:
            raise RuntimeError(f"seed {seed} generated different inputs on a repeated setup")
        self.wl = wl

    def _fail(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures[failure] = self.failures.get(failure, 0) + 1

    def check_pass(self) -> None:
        """Run every request once, untimed, and check its output in full."""
        self.reference = []
        for item in self.wl.corpus:
            try:
                out = self.wl.request(item)
                verified = self.wl.verify(item, out)
                key = self.wl.key(out)
            except Exception as exc:  # a request must not stop the run
                verified = workloads.Verified(f"raised:{type(exc).__name__}", repr(exc))
                key = None
            self.reference.append((key, verified))
            self._fail(verified.failure)
            for problem in verified.counts.get("problems", [])[:3]:
                print(f"check failed: {problem}", file=sys.stderr)

    def _timed_request(self, index: int, item, call) -> int:
        key, verified = self.reference[index]
        start = time.perf_counter_ns()
        try:
            out = call(self.wl.request, item)
        except Exception as exc:  # a request must not stop the run
            elapsed = time.perf_counter_ns() - start
            failure = verified.failure if key is None else f"raised:{type(exc).__name__}"
        else:
            elapsed = time.perf_counter_ns() - start
            failure = verified.failure if self.wl.key(out) == key else "nondeterministic"
        self._fail(failure)
        return elapsed

    def timed_passes(self) -> int:
        """Time whole passes over the requests until the run length is reached.

        The remaining setups are spread over the run, between passes, so
        their median is not taken from one moment of the host's load.
        """
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        last_reference = -REFERENCE_EVERY_NS
        passes = 0
        while passes == 0 or time.perf_counter() - start < self.seconds:
            for index, item in enumerate(self.wl.corpus):
                if time.perf_counter_ns() - last_reference >= REFERENCE_EVERY_NS:
                    last_reference = time.perf_counter_ns()
                    self.reference_ns.append(time_reference())
                self.latency_ns[index].append(self._timed_request(index, item, lambda f, x: f(x)))
            passes += 1
            due = self.seconds * len(self.setup_s) / SETUP_REPEATS
            if len(self.setup_s) < SETUP_REPEATS and time.perf_counter() - start >= due:
                self.setup()
        while len(self.setup_s) < SETUP_REPEATS:
            self.setup()
        return passes

    def traced_pass(self, tracer: tracing.Tracer) -> list[int]:
        """Run every request once with spans recorded; return the root span times."""
        tracer.install()
        try:
            for index, item in enumerate(self.wl.corpus):
                self._timed_request(index, item, lambda f, x, i=index: tracer.request(i, f, x))
        finally:
            tracer.uninstall()
        return [end - start for name, start, end, parent, _ in tracer.spans if parent < 0]

    # -- metrics ---------------------------------------------------------

    def modeled(self) -> list[dict]:
        return [v.modeled for _, v in self.reference if v.modeled is not None]

    def best_ms(self) -> list[float]:
        """Each request's latency: the fastest of its timed repeats, in ms.

        Slower repeats of the same request measure interference from other
        processes on the host, not the program (the rule ``timeit`` uses).
        """
        return [min(repeats) / 1e6 for repeats in self.latency_ns]

    def host_scale(self) -> float:
        """Factor from this run's host speed to the reference host's."""
        return REFERENCE_MS * 1e6 / min(self.reference_ns)

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """Every end-to-end metric as (value, unit, sample count)."""
        scale = self.host_scale()
        lat_ms = [ms * scale for ms in self.best_ms()]
        items = sum(self.wl.items(item) for item in self.wl.corpus)
        modeled = self.modeled()
        on = sum(m["total_on"] for m in modeled)
        off = sum(m["total_off"] for m in modeled)
        base = sum(m["total_s"] for m in modeled)
        n = len(lat_ms)
        return {
            "setup_s": (statistics.median(self.setup_s), "s", len(self.setup_s)),
            "request_ms_p50": (percentile(lat_ms, 50), "ms", n),
            "request_ms_p90": (percentile(lat_ms, 90), "ms", n),
            "items_per_s": (items / (sum(lat_ms) / 1e3), "1/s", n),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
            "passed_pct": (100.0 * (self.attempted - sum(self.failures.values())) / self.attempted,
                           "%", self.attempted),
            "modeled_ms_total": (on, "ms", len(modeled)),
            "modeled_gain_vs_s_pct": (100.0 * (1.0 - on / base), "%", len(modeled)),
            "hints_gain_pct": (100.0 * (1.0 - on / off), "%", len(modeled)),
        }

    def per_layer(self, tracer: tracing.Tracer, traced_ns: list[int]) -> dict[str, tuple[float, str, int]]:
        """Every per-layer metric from the traced pass and the checked outputs."""
        requests = len(self.wl.corpus)
        self_ns: dict[str, int] = {}
        by_request: dict[str, dict[int, int]] = {}
        for (name, request), ns in tracer.self_ns().items():
            self_ns[name] = self_ns.get(name, 0) + ns
            by_request.setdefault(name, {})[request] = ns
        spans = tracer.span_counts()
        calls = {}
        for (name, _), count in spans.items():
            calls[name] = calls.get(name, 0) + count
        counts: dict[str, int] = {}
        for (name, _), count in tracer.counts.items():
            counts[name] = counts.get(name, 0) + count
        verified = [v for _, v in self.reference]
        modeled = self.modeled()
        items = [self.wl.items(item) for item in self.wl.corpus]
        lines = sum(items) if self.wl.item_unit == "lines" else 0
        queries = sum(m["queries"] for m in modeled)
        phases = sum(m["phases"] for m in modeled)
        points = sum(v.counts.get("sweep_points", 0) for v in verified)
        device = {k: sum(m["device"][k] for m in modeled) for k in modeled[0]["device"]} if modeled else {}

        def ms(name):
            return (self_ns.get(name, 0) / 1e6 / requests, "ms", requests)

        def per(numerator, denominator, unit="count", n=requests):
            return (numerator / denominator if denominator else 0.0, unit, n)

        def exponent(name):
            pts = [(items[r], ns) for r, ns in by_request.get(name, {}).items()]
            return (scaling_exponent(pts), "ratio", len(pts))

        out = {
            "model.require_valid.calls_per_request": per(calls.get("model.require_valid", 0), requests),
            "model.require_valid.self_ms": ms("model.require_valid"),
            "model.Plan.load_after.calls_per_request": per(counts.get("model.Plan.load_after", 0), requests),
            "workload.parse.self_ms": ms("workload.parse"),
            "plans.enumerate_plans.self_ms": ms("plans.enumerate_plans"),
            "plans.legality.calls_per_request": per(calls.get("plans.legality", 0), requests),
            "plans.legality.self_ms": ms("plans.legality"),
            "cost.plan_cost.calls_per_request": per(calls.get("cost.plan_cost", 0), requests),
            "cost.plan_cost.self_ms": ms("cost.plan_cost"),
            "cost.phase_times.self_ms": ms("cost.phase_times"),
            "planner.choose_plan.self_ms": ms("planner.choose_plan"),
            "planner.choose_plan.scaling_exp": exponent("planner.choose_plan"),
            "planner.generate_hints.self_ms": ms("planner.generate_hints"),
            "planner.candidates_per_choice": per(spans.get(("cost.plan_cost", "planner.choose_plan"), 0),
                                                 calls.get("planner.choose_plan", 0)),
            "simulate.simulate.self_ms": ms("simulate.simulate"),
            "simulate.validate_timeline.self_ms": ms("simulate.validate_timeline"),
            "simulate.validate_timeline.scaling_exp": exponent("simulate.validate_timeline"),
            "simulate.phases_per_query": per(phases, queries, n=len(modeled)),
            "simulate.host_us_per_phase": per(self_ns.get("simulate.simulate", 0) / 1e3,
                                              phases if calls.get("simulate.simulate") else 0, "us"),
            "sweep.run_sweep.self_ms": ms("sweep.run_sweep"),
            "sweep.points": per(points, calls.get("sweep.run_sweep", 0)),
            "sweep.strategy_plan.calls_per_point": per(spans.get(("plans.strategy_plan", "sweep.run_sweep"), 0),
                                                       points),
            "miner.parse_log.self_ms": ms("miner.parse_log"),
            "miner.fingerprint.calls_per_line": per(calls.get("miner.fingerprint", 0), lines),
            "miner.fingerprint.self_ms": ms("miner.fingerprint"),
            "miner.mine_sequences.self_ms": ms("miner.mine_sequences"),
            "miner.mine_sequences.scaling_exp": exponent("miner.mine_sequences"),
            "miner.mined_sequences": per(sum(v.counts.get("mined", 0) for v in verified), requests),
            "miner.to_workload.self_ms": ms("miner.to_workload"),
            "cli.main.self_ms": ms("cli.main"),
            "bench.request.self_ms": ms("bench.request"),
            "trace.overhead_ms": (percentile(traced_ns, 50) / 1e6 - percentile(self.best_ms(), 50),
                                  "ms", requests),
        }
        for key in ("scan_busy_ms", "reconfig_ms", "acc_exec_ms", "net_busy_ms", "dbms_ms", "gap_ms"):
            out[f"simulate.device.{key}"] = (device.get(key, 0.0), "ms", len(modeled))
        out["simulate.device.reconfig_count"] = (device.get("reconfig_count", 0), "count", len(modeled))
        out["simulate.device.reconfig_hidden_pct"] = per(100.0 * device.get("reconfig_hidden_ms", 0.0),
                                                         device.get("reconfig_ms", 0.0), "%", len(modeled))
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["long-seq", "short-seq", "mine-log"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rpusim" / "__init__.py").is_file():
        print(f"error: no rpusim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        run.check_pass()
        passes = run.timed_passes()
        if args.trace:
            tracer = tracing.Tracer()
            traced_ns = run.traced_pass(tracer)
            metrics = run.per_layer(tracer, traced_ns)
            balanced = tracer.roots_balance()
            trace_file = work_root / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_file)
        else:
            metrics = run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wl = run.wl
    failed = sum(run.failures.values())
    known = workloads.KNOWN_DEFECTS
    correct = set(run.failures) <= known
    run_digest = digest([v.digest for _, v in run.reference])
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = recorded.get(args.workload, {}).get(str(args.seed))

    print(f"# rpusim bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# corpus: {len(wl.corpus)} requests, {sum(wl.items(i) for i in wl.corpus)} {wl.item_unit}; "
          f"timed passes: {passes} (each request's latency is the fastest of {passes} repeats)")
    print(f"# host speed: fastest reference_work {min(run.reference_ns) / 1e6:.4g} ms of "
          f"{len(run.reference_ns)}; host times scaled by {run.host_scale():.4g} to a {REFERENCE_MS} ms host")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} n={n}")
    malformed: dict[str, list[int]] = {}
    for _, v in run.reference:
        if "malformed" in v.counts:
            tally = malformed.setdefault(v.counts["malformed"], [0, 0])
            tally[v.counts["outcome"] == "rejected"] += 1
    for kind, (accepted, rejected) in malformed.items():
        print(f"malformed {kind}: rejected {rejected}, accepted {accepted}")
    print(f"failures: {failed} of {run.attempted} requests "
          f"({100.0 * failed / run.attempted:.4g} %)"
          + "".join(f"; {k}={c}{' (known defect)' if k in known else ''}" for k, c in sorted(run.failures.items())))
    print(f"digest {run_digest}" + ("" if expected is None else
                                    f" (recorded for seed {args.seed}: {'same' if expected == run_digest else expected})"))
    if args.trace:
        print(f"trace: {len(tracer.spans)} spans in {trace_file.relative_to(ROOT)}; "
              f"self times sum to root span per request: {balanced}")
        correct = correct and balanced
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
