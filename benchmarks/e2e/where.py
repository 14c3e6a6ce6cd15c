"""Where the time goes: ``where.py LEDGER.json`` (a ledger with traced runs).

Per workload, each layer's share of the audit's median latency, largest
first.  The rows are the workload's *leaves* — the per-layer metrics that
should add up to one audit op — so the shares sum to about 1, and what
they leave over is the last row.  Replayed rows (the kernel split, the
ranking split) are clocked a moment after the op they split, so on a noisy
box the remainder rows can come out a few percent negative.  A layer under
5% is marked "leave alone": no optimisation of it can move ``audit_p50_s``
by more.
"""

from __future__ import annotations

import json
import sys

LEAVE_ALONE = 0.05


def table(ledger: dict) -> str:
    lines = []
    for workload, traced in ledger["traced"].items():
        p50 = traced["audit_p50_s"]
        rows = sorted(
            ((traced["metrics"][leaf], leaf) for leaf in traced["leaves"]),
            reverse=True,
        )
        rest = p50 - sum(value for value, _ in rows)
        lines += [
            f"### {workload} (audit_p50_s = {p50:.4g} s in the traced run's plain ops)",
            "",
            "| layer metric | s per audit | share of audit_p50_s | |",
            "|---|---|---|---|",
        ]
        for value, leaf in rows + [(rest, traced["rest"])]:
            note = "leave alone" if abs(value) / p50 < LEAVE_ALONE else ""
            lines.append(f"| `{leaf}` | {value:.4g} | {value / p50:.1%} | {note} |")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        print(table(json.load(handle)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
