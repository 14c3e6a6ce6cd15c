"""Diff two ledgers written by ``run.py``: ``compare.py A.json B.json``.

One row per (metric, workload): both medians, both round-to-round
spreads, B as a ratio of A (the base), and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  a side's spread is wider than the bound, so a change of
                  the bound's size could not be told from noise;
* ``better``      B is better than A by more than either side's spread;
* ``same``        none of the above.

Where both ledgers hold traced runs, the per-layer counts that must repeat
exactly for one seed are listed too.  Exits non-zero on any ``worse``, on a
higher ``failed_share`` or on a count that differs.
"""

from __future__ import annotations

import json
import sys

from ledger import EXACT_COUNTS, WORKLOAD_ONLY, load_benchmark


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """``a``/``b`` are ledger rows (``median``, ``spread``); ``a`` is the base."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    worse_by = change if better == "lower" else -change
    noise = max(a["spread"], b["spread"])
    if worse_by > bound + noise:
        return "worse"
    if noise > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > noise:
        return "better"
    return "same"


def compare(a: dict, b: dict, rules: dict) -> tuple[list[tuple], bool]:
    """Rows and whether B regressed; ``rules`` is name -> (better, bound)."""
    rows, regressed = [], False
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric, (better, bound) in rules.items():
            if metric not in wa["metrics"] or metric not in wb["metrics"]:
                continue
            ra, rb = wa["metrics"][metric], wb["metrics"][metric]
            result = verdict(ra, rb, bound, better)
            regressed |= result == "worse"
            rows.append(
                (
                    workload,
                    metric,
                    ra["unit"],
                    ra["median"],
                    ra["spread"],
                    rb["median"],
                    rb["spread"],
                    rb["median"] / ra["median"],
                    bound,
                    result,
                )
            )
        higher = wb["failed_share"] > wa["failed_share"]
        regressed |= higher
        rows.append(
            (
                workload,
                "failed_share",
                "ratio",
                wa["failed_share"],
                0.0,
                wb["failed_share"],
                0.0,
                float("nan"),
                0.0,
                "worse" if higher else "same",
            )
        )
    return rows, regressed


def rules_from_benchmark() -> dict:
    rules = {
        m["name"]: (m["better"], m["bound"])
        for m in load_benchmark()["end_to_end"]
    }
    rules.update(
        {name: (better, bound) for name, (_, better, bound) in WORKLOAD_ONLY.items()}
    )
    return rules


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.load(open(path, encoding="utf-8")) for path in argv)
    rows, regressed = compare(a, b, rules_from_benchmark())
    print(
        f"{'workload':18}{'metric':22}{'unit':6}{'A median':>12}{'A spread':>9}"
        f"{'B median':>12}{'B spread':>9}{'B/A':>8}{'bound':>7}  verdict"
    )
    for workload, metric, unit, am, asp, bm, bsp, ratio, bound, result in rows:
        print(
            f"{workload:18}{metric:22}{unit:6}{am:12.5g}{asp:9.1%}"
            f"{bm:12.5g}{bsp:9.1%}{ratio:8.3f}{bound:7.0%}  {result}"
        )
    for workload in a.get("traced", {}):
        if workload not in b.get("traced", {}):
            continue
        ta = a["traced"][workload]["metrics"]
        tb = b["traced"][workload]["metrics"]
        for count in EXACT_COUNTS:
            same = "identical" if ta[count] == tb[count] else "DIFFERENT"
            print(f"{workload:18}{count:40}{ta[count]:12g}{tb[count]:12g}  {same}")
            regressed |= ta[count] != tb[count]
    for label, doc in (("A", a), ("B", b)):
        if doc.get("noisy"):
            print(f"note: ledger {label} is flagged noisy")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
