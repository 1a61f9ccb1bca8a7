"""Independent closed-form oracle for the two-query reference shape.

Transcribes each strategy's serial/overlap time composition directly, one
expression per strategy, without importing anything from the package under
test.  Used by the unit and acceptance suites as the reference the library
must reproduce.

It also keeps the original two-pass ``normalize_query`` (strings, then
numbers, then a per-word keyword lambda), verbatim, as the reference the
miner's one-pass normalizer must reproduce for every input; it raises the
package's ``MiningError`` on empty text, as the original did.

Shape covered: Q0 scans a table of ``s0`` MB through two filter accelerators
(selectivities ``f0`` then ``f1``), Q1 scans ``s1`` MB through one filter
(``f2``) whose accelerator is the same unit as Q0's first one.
"""

from __future__ import annotations

import re

from rpusim.errors import MiningError


def strategy_totals(
    s0: float,
    f0: float,
    f1: float,
    s1: float,
    f2: float,
    gap: float,
    *,
    t_r: float = 15.0,
    r_scan: float = 1.0,
    r_acc: float = 1.5,
    r_net: float = 0.08,
    c_dbms: float = 0.03,
) -> dict[str, float]:
    """Total sequence times (ms) for all five strategies on the 2-query shape."""
    scan0 = s0 / r_scan
    scan1 = s1 / r_scan
    inter = s0 * f0          # after Q0's first filter
    res0 = inter * f1        # after both Q0 filters
    res1 = s1 * f2

    # Full pushdown, no lookahead: reconfigure per operator, again at Q1.
    t_q0_s = max(t_r, scan0) + s0 / r_acc + t_r + inter / r_acc + res0 / r_net
    t_q1_s = max(t_r, scan1) + s1 / r_acc + res1 / r_net
    total_s = t_q0_s + gap + t_q1_s

    # Q1 reuses the accelerator left loaded, so it runs reconfiguration-free.
    t_q1_reuse = scan1 + s1 / r_acc + res1 / r_net

    # Push only the first filter; second runs on the host after transfer.
    t_q0_i = max(t_r, scan0) + s0 / r_acc + inter / r_net + c_dbms * inter
    total_i = t_q0_i + gap + t_q1_reuse

    # Push only the second filter; reload of Q1's accelerator overlaps the
    # transfer, host filtering, and the gap, and gates Q1's start.
    after1 = s0 * f1
    total_ii = (
        max(t_r, scan0)
        + s0 / r_acc
        + max(t_r, after1 / r_net + c_dbms * after1 + gap)
        + t_q1_reuse
    )

    # Full pushdown plus a speculative reload started when Q0's second
    # accelerator finishes, overlapping transfer, gap, and Q1's scan.
    total_iii = (
        max(t_r, scan0)
        + s0 / r_acc
        + t_r
        + inter / r_acc
        + max(t_r, res0 / r_net + gap + scan1)
        + s1 / r_acc
        + res1 / r_net
    )

    # Swapped filter order in Q0 so its final accelerator is the one Q1 needs.
    inter_iv = s0 * f1
    total_iv = (
        max(t_r, scan0)
        + s0 / r_acc
        + t_r
        + inter_iv / r_acc
        + inter_iv * f0 / r_net
        + gap
        + t_q1_reuse
    )

    return {"S": total_s, "I": total_i, "II": total_ii, "III": total_iii, "IV": total_iv}


def improvement_pct(candidate: float, baseline: float) -> float:
    return 100.0 * (1.0 - candidate / baseline)


_SQL_KEYWORDS = frozenset(
    """
    select from where and or not in is null like between group by order having
    limit offset join inner left right outer on as distinct union all exists
    insert into values update set delete case when then else end asc desc
    """.split()
)

_STRING_RE = re.compile(r"'(?:[^']|'')*'|\"[^\"]*\"")
_NUMBER_RE = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def normalize_query(text: str) -> str:
    """Canonical template of a query: constants -> ``?``, keywords lowercased."""
    if not text.strip():
        raise MiningError("empty query text")
    t = _STRING_RE.sub("?", text)
    t = _NUMBER_RE.sub("?", t)
    t = " ".join(t.split())
    return _WORD_RE.sub(
        lambda m: m.group(0).lower() if m.group(0).lower() in _SQL_KEYWORDS else m.group(0),
        t,
    )
