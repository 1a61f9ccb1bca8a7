"""Seeded input generators for the benchmark workloads (stdlib only).

Every generator takes the seed as its argument and returns plain data:
workload documents as JSON text, query logs as text, catalogs as dicts.
The same seed always yields byte-identical inputs.

Sizes are stratified rather than sampled so that the shape of a corpus
(how many requests of which length) is the same for every seed; the seed
chooses the contents.  That keeps host-time and modeled metrics comparable
across seeds while every seed still exercises different data.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

CALIBRATED_PROFILE = {
    "t_reconfig_ms": 15.0,
    "r_scan_mb_per_ms": 1.0,
    "r_acc_mb_per_ms": 1.5,
    "r_network_mb_per_ms": 0.08,
    "c_dbms_ms_per_mb": 0.03,
}

#: The paper's two-query scenario, verbatim.
PAPER_DOC = {
    "profile": CALIBRATED_PROFILE,
    "tables": [{"name": "t0", "size_mb": 9.0}, {"name": "t1", "size_mb": 1.0}],
    "queries": [
        {"id": "Q0", "table": "t0",
         "ops": [{"id": "acc0", "selectivity": 0.33}, {"id": "acc1", "selectivity": 0.43}]},
        {"id": "Q1", "table": "t1", "ops": [{"id": "acc0", "selectivity": 0.14}]},
    ],
    "sequence": {"order": ["Q0", "Q1"], "gaps_ms": [1.0]},
}

MALFORMED_CLASSES = (
    "negative_size",
    "selectivity_range",
    "gap_count",
    "unknown_key",
    "duplicate_id",
    "nonfinite",
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _stratified(rng: random.Random, count: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """``count`` draws from [lo, hi], one from each of ``count`` equal strata, shuffled.

    Stratifying keeps the sample's distribution close to the target for
    every seed, so sums over a sequence vary little between seeds.  With
    ``log`` the strata have equal width on a log scale.
    """
    if log:
        lo, hi = math.log(lo), math.log(hi)
    values = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(values)
    return [round(math.exp(v) if log else v, 3) for v in values]


def _balanced(rng: random.Random, count: int, choices: list) -> list:
    """``count`` items cycling through ``choices`` equally often, shuffled."""
    values = [choices[k % len(choices)] for k in range(count)]
    rng.shuffle(values)
    return values


class _Draws:
    """Stratified parameter values for a batch of sequences, handed out in turn.

    Drawing a whole batch's sizes, gaps, selectivities, operator counts and
    non-commuting flags together keeps the batch's distribution of each
    close to its target for every seed.  Gaps are log-uniform over a range
    that straddles the 15 ms reconfiguration time, so both branches of each
    boundary ``max()`` bind; one operator in ten does not commute.
    """

    def __init__(self, rng: random.Random, lengths: list[int], n_tables: int, max_ops: int,
                 size_range: tuple[float, float], gap_range: tuple[float, float]) -> None:
        queries = sum(lengths)
        self.op_counts = _balanced(rng, queries, list(range(1, max_ops + 1)))
        ops = sum(self.op_counts)
        self.sizes = _stratified(rng, n_tables * len(lengths), *size_range, log=True)
        self.gaps = _stratified(rng, queries - len(lengths), *gap_range, log=True)
        self.selectivities = _stratified(rng, ops, 0.05, 0.95)
        self.commutes = _balanced(rng, ops, [False] + [True] * 9)


def _sequence_doc(rng: random.Random, n: int, pool: int, n_tables: int, draws: _Draws) -> dict:
    """A random valid workload document of ``n`` queries over ``n_tables`` tables.

    Operators come from a pool of ``pool`` accelerator ids, so adjacent
    queries often share one.
    """
    tables = [{"name": f"t{i}", "size_mb": draws.sizes.pop()} for i in range(n_tables)]
    accs = [f"acc{i}" for i in range(pool)]
    queries = []
    for i, table in enumerate(_balanced(rng, n, tables)):
        ops = []
        for acc in rng.sample(accs, draws.op_counts.pop()):
            op = {"id": acc, "selectivity": draws.selectivities.pop()}
            if not draws.commutes.pop():
                op["commutes"] = False
            ops.append(op)
        queries.append({"id": f"Q{i}", "table": table["name"], "ops": ops})
    return {
        "profile": dict(CALIBRATED_PROFILE),
        "tables": tables,
        "queries": queries,
        "sequence": {"order": [q["id"] for q in queries],
                     "gaps_ms": [draws.gaps.pop() for _ in range(n - 1)]},
    }


# --------------------------------------------------------------- long-seq

#: Sequence lengths: the midpoints of equal log-width strata of [100, 2000].
LONG_SEQ_LENGTHS = tuple(round(100 * 20 ** ((k + 0.5) / 7)) for k in range(7))


def long_seq_corpus(seed: int) -> list[dict]:
    """One request per length stratum: ``{"n": queries, "doc": json text}``."""
    rng = _rng("long-seq", seed)
    out = []
    for n in LONG_SEQ_LENGTHS:
        draws = _Draws(rng, [n], n_tables=32, max_ops=3, size_range=(2.0, 40.0), gap_range=(0.5, 60.0))
        doc = _sequence_doc(rng, n, pool=3, n_tables=32, draws=draws)
        out.append({"n": n, "doc": json.dumps(doc)})
    rng.shuffle(out)
    return out


# -------------------------------------------------------------- short-seq

SWEEPS = {
    "scale": {"start": 0.25, "stop": 4.0, "steps": 9},
    "selectivity": {"start": 0.0, "stop": 1.0, "steps": 11},
    "gap": {"start": 0.5, "stop": 30.0, "steps": 13},
}
SHORT_SEQ_REQUESTS = 480
SHORT_SEQ_PAPER = 48
MALFORMED_PER_CLASS = 2


def _corrupt(rng: random.Random, doc: dict, kind: str, variant: int) -> dict:
    """Break ``doc`` in the way named by ``kind`` (one of MALFORMED_CLASSES)."""
    doc = json.loads(json.dumps(doc))
    queries = doc["queries"]
    used = rng.choice(queries)["table"]
    table = next(t for t in doc["tables"] if t["name"] == used)
    if kind == "negative_size":
        table["size_mb"] = -round(rng.uniform(0.1, 10.0), 3)
    elif kind == "selectivity_range":
        op = rng.choice(rng.choice(queries)["ops"])
        op["selectivity"] = round(rng.uniform(1.01, 2.0), 3) if variant == 0 else -0.25
    elif kind == "gap_count":
        gaps = doc["sequence"]["gaps_ms"]
        if variant == 0:
            gaps.append(1.0)
        else:
            gaps.pop()
    elif kind == "unknown_key":
        target = doc if variant == 0 else rng.choice(queries)
        target["priority"] = 1
    elif kind == "duplicate_id":
        if variant == 0:
            queries[1]["id"] = queries[0]["id"]
        else:
            ops = queries[0]["ops"]
            ops.append(dict(ops[0]))
    elif kind == "nonfinite":
        if variant == 0:
            table["size_mb"] = float("nan")
        else:
            gaps = doc["sequence"]["gaps_ms"]
            gaps[rng.randrange(len(gaps))] = float("inf")
    else:
        raise ValueError(f"unknown malformed class {kind!r}")
    return doc


def short_seq_corpus(seed: int) -> list[dict]:
    """Short sequences with a sweep each, plus malformed documents.

    Each request is ``{"kind": "valid" | <malformed class>, "n": queries,
    "doc": json text, "sweep": {"variable", "start", "stop", "steps"}}``.
    The mix is fixed: ``SHORT_SEQ_PAPER`` copies of the paper's scenario,
    ``MALFORMED_PER_CLASS`` documents per malformed class, and the rest
    random 2-6 query sequences around the calibrated scenario.
    """
    rng = _rng("short-seq", seed)
    variables = tuple(SWEEPS)
    malformed = [(kind, v) for kind in MALFORMED_CLASSES for v in range(MALFORMED_PER_CLASS)]
    lengths = [2 + i % 5 for i in range(SHORT_SEQ_PAPER, SHORT_SEQ_REQUESTS)]
    draws = _Draws(rng, lengths, n_tables=4, max_ops=2, size_range=(0.5, 20.0), gap_range=(0.5, 40.0))
    out = []
    for i in range(SHORT_SEQ_REQUESTS):
        sweep = {"variable": variables[i % len(variables)], **SWEEPS[variables[i % len(variables)]]}
        kind, doc = "valid", PAPER_DOC
        if i >= SHORT_SEQ_PAPER:
            doc = _sequence_doc(rng, lengths[i - SHORT_SEQ_PAPER], pool=3, n_tables=4, draws=draws)
            if i - SHORT_SEQ_PAPER < len(malformed):
                kind, variant = malformed[i - SHORT_SEQ_PAPER]
                doc = _corrupt(rng, doc, kind, variant)
        out.append({
            "kind": kind,
            "n": len(doc["sequence"]["order"]),
            "doc": json.dumps(doc),
            "sweep": sweep,
        })
    rng.shuffle(out)
    return out


# --------------------------------------------------------------- mine-log

#: Log sizes: the midpoints of equal log-width strata of [1e3, 1e4] lines.
MINE_LOG_LINES = tuple(round(1000 * 10 ** ((k + 0.5) / 5)) for k in range(5))
MAX_LEN = 4

_KEYWORDS = frozenset({"select", "from", "where", "and"})


def template_id(template: str) -> str:
    """The id ``rpusim mine`` prints: SHA-1 prefix of the normalized text."""
    return hashlib.sha1(template.encode("utf-8")).hexdigest()[:12]


def _template(rng: random.Random, table: str) -> str:
    """A normalized query template over ``table``."""
    cols = rng.sample(["amount", "region", "ts", "status", "qty", "price", "sku"], 3)
    preds = rng.randint(1, 2)
    where = " and ".join(f"{c} > ?" if k == 0 else f"{c} = ?" for k, c in enumerate(cols[1:1 + preds]))
    return f"select {cols[0]} from {table} where {where}"


def _instance(rng: random.Random, template: str) -> str:
    """Concrete query text that normalizes back to ``template``."""
    words = []
    for word in template.split(" "):
        if word == "?":
            word = str(rng.randint(0, 9999)) if rng.random() < 0.6 else f"'v{rng.randint(0, 99)}'"
        elif word in _KEYWORDS:
            word = word.upper()
        words.append(word)
    return " ".join(words)


def _pattern_catalog(rng: random.Random, index: int, length: int) -> list[dict]:
    """Catalog entries for one planted pattern.

    Pattern 0, the one the miner reports first and the CLI plans, stays
    close to the paper's calibrated scenario (a 9 MB and a 1 MB table
    sharing acc0, then a 4 MB table reusing it) so its plan choice is
    comparable across seeds.  Other patterns are random.
    """
    if index == 0:
        jitter = lambda x: round(x * rng.uniform(0.96, 1.04), 3)  # noqa: E731
        return [
            {"table": {"name": "p0_t0", "size_mb": jitter(9.0)},
             "ops": [{"id": "acc0", "selectivity": jitter(0.33)},
                     {"id": "acc1", "selectivity": jitter(0.43)}]},
            {"table": {"name": "p0_t1", "size_mb": jitter(1.0)},
             "ops": [{"id": "acc0", "selectivity": jitter(0.14)}]},
            {"table": {"name": "p0_t2", "size_mb": jitter(4.0)},
             "ops": [{"id": "acc0", "selectivity": jitter(0.5)},
                     {"id": "acc2", "selectivity": jitter(0.25)}]},
        ][:length]
    return [
        {"table": {"name": f"p{index}_t{j}", "size_mb": size},
         "ops": [{"id": acc, "selectivity": round(rng.uniform(0.05, 0.95), 3)}
                 for acc in rng.sample(["acc0", "acc1", "acc2", "acc3"], rng.randint(1, 2))]}
        for j, size in enumerate(_stratified(rng, length, 0.5, 20.0, log=True))
    ]


def _noise_table(rng: random.Random) -> str:
    return "n_" + "".join(rng.choice("abcdefghijkmnpqrstuvwxyz") for _ in range(10))


def mine_log(seed: int, lines: int) -> dict:
    """A tenant query log with planted recurring sequences and noise.

    Three patterns of 3, 4 and 2 templates recur with supports of about
    lines/12, lines/20 and lines/40; every other line is noise with a
    template of its own.  At least one noise line separates any two pattern
    instances, so the recurring n-grams with support >= 2 are exactly the
    sub-n-grams of the patterns, with the patterns' supports.  Timestamps,
    durations and gaps are whole milliseconds, so mined average gaps are
    exact.

    Returns ``log`` (text), ``labels`` (each line's ground-truth template id
    or ``"noise"``), ``catalog`` (template id -> table and ops),
    ``expected_report`` (the exact ``mine`` report CSV) and ``top``
    (template ids and average gaps of the sequence ``mine`` emits).
    """
    rng = _rng(f"mine-log:{lines}", seed)
    shapes = ((3, lines // 12), (4, lines // 20), (2, lines // 40))
    patterns = []
    catalog = {}
    for index, (length, support) in enumerate(shapes):
        entries = _pattern_catalog(rng, index, length)
        templates = []
        for j, entry in enumerate(entries):
            template = _template(rng, f"tenant_{index}_{j}")
            tid = template_id(template)
            templates.append((template, tid))
            catalog[tid] = entry
        patterns.append({"templates": templates, "support": support, "gaps": []})

    instances = [p for p in patterns for _ in range(p["support"])]
    rng.shuffle(instances)
    noise_total = lines - sum(len(p["templates"]) for p in instances)
    # Spread noise so every gap between instances (and both ends) gets >= 1.
    slots = len(instances) + 1
    noise_counts = [1] * slots
    for _ in range(noise_total - slots):
        noise_counts[rng.randrange(slots)] += 1

    rows: list[tuple[int, str, int]] = []
    labels: list[str] = []
    clock = 0

    def emit(text: str, label: str, gap: int) -> None:
        nonlocal clock
        if rows:
            clock += rows[-1][2] + gap
        duration = rng.randint(1, 50)
        rows.append((clock, text, duration))
        labels.append(label)

    def emit_noise(count: int) -> None:
        for _ in range(count):
            gap = 5000 if rng.random() < 0.02 else rng.randint(1, 200)
            template = f"select x from {_noise_table(rng)} where k = ?"
            emit(_instance(rng, template), "noise", gap)

    for k, pattern in enumerate(instances):
        emit_noise(noise_counts[k])
        gaps = [rng.randint(1, 40) for _ in range(len(pattern["templates"]) - 1)]
        pattern["gaps"].append(gaps)
        for j, (template, tid) in enumerate(pattern["templates"]):
            emit(_instance(rng, template), tid, rng.randint(1, 200) if j == 0 else gaps[j - 1])
    emit_noise(noise_counts[-1])

    mined = []
    for pattern in patterns:
        tids = [tid for _, tid in pattern["templates"]]
        support = pattern["support"]
        for n in range(2, min(len(tids), MAX_LEN) + 1):
            for start in range(len(tids) - n + 1):
                sums = [0.0] * (n - 1)
                for gaps in pattern["gaps"]:
                    sums = [s + g for s, g in zip(sums, gaps[start:start + n - 1])]
                mined.append((tuple(tids[start:start + n]), support, tuple(s / support for s in sums)))
    mined.sort(key=lambda m: (-m[1], -len(m[0]), m[0]))
    report = ["templates,support,avg_gaps_ms"]
    report += [f"{'|'.join(t)},{s},{'|'.join(f'{g:.6f}' for g in gaps)}" for t, s, gaps in mined]

    return {
        "lines": lines,
        "log": "".join(f"{ts}\t{text}\t{dur}\n" for ts, text, dur in rows),
        "labels": labels,
        "catalog": catalog,
        "expected_report": "\n".join(report) + "\n",
        "top": {"templates": list(mined[0][0]), "avg_gaps": list(mined[0][2])},
    }


def mine_log_corpus(seed: int) -> list[dict]:
    """One log per size stratum, in seeded order."""
    logs = [mine_log(seed, lines) for lines in MINE_LOG_LINES]
    _rng("mine-log", seed).shuffle(logs)
    return logs
